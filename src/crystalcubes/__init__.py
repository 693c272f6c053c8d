"""Crystal-basis combinatorics of iterated flag fibrations.

Generalized Demazure crystals and their string parametrizations, lattice
points of generalized string polytopes, tensor-product multiplicities via
projected lattice counts, line-bundle/degeneration integer vectors, and
Grossberg-Karshon twisted cubes with exact pushforward moments.
"""

from .rootsys import (
    BudgetExceededError,
    InvariantError,
    RootSystem,
    SubsetSequence,
    UnsupportedInputError,
    Weight,
    WordSequence,
)
from .crystal import (
    CrystalGraph,
    PathElement,
    TensorElement,
    epsilon,
    generate_crystal,
    highest_path,
    path_e,
    path_f,
    wt,
)
from .demazure import (
    GenDemazureCrystal,
    demazure_crystal,
    gen_demazure_crystal,
    gen_demazure_crystal_weights,
)
from .stringpoly import (
    MultiplicityTable,
    component_count,
    fiber_string_points,
    hat_lattice_points,
    lattice_points,
    multiplicity,
    tensor_decompose,
)
from .bundles import (
    bundle_report,
    degeneration_vectors,
    flag_bott_vectors,
    mu_weight,
    pullback_vector,
)
from .twistedcube import (
    MVPolynomial,
    ProjectionMap,
    SignedHistogram,
    TwistedCube,
    mc_histogram,
    projected_box,
    projection_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
