"""Lattice-point combinatorics of generalized string polytopes.

Lattice points, multiplicities, component counts and fibers are Ω-images of
generated crystals, never solutions of inequality systems.  The projected
polytope (first block forgotten, first block [n]) uses the string form of
Littelmann's path-model Littlewood-Richardson rule (Invent. Math. 116, 1994):
raising maximally along a reduced word of w0 ends at the highest-weight element
b_{λ_1} ⊗ x of a component, with x in X = B_{I_2..I_r, λ_2..λ_r}, so the
projected points are the Ω_X(x) with ε_i(b_{λ_1} ⊗ x) = 0 for all i, and only
X is built.  By Kashiwara's signature rule (Duke Math. J. 71, 1993) on the
straight path b_{λ_1}, that holds exactly when ε_i(x) ≤ ⟨λ_1, α_i^∨⟩ for all i,
so b_{λ_1} ⊗ x is built only for the x that pass.  That component is B(ν) with
ν = wt(b_{λ_1} ⊗ x), and the fiber over the point is its Ω-image.
`lattice_points` and `hat_lattice_points` return sorted tuples of points,
which `cli` writes as JSON or CSV.  Points use the positive string
orientation, i.e. they are the negatives of Newton-Okounkov valuation vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index

from .crystal import DEFAULT_BUDGET, TensorElement, _close, _endpoint, _epsilon, _factors, highest_path
from .demazure import gen_demazure_crystal, gen_demazure_crystal_weights
from .rootsys import BudgetExceededError, RootSystem, SubsetSequence, UnsupportedInputError, WordSequence


@dataclass(frozen=True)
class MultiplicityTable:
    """Dominant weight (ϖ-coordinates) → strictly positive multiplicity."""

    entries: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_counter(cls, counts: Counter) -> "MultiplicityTable":
        return cls(tuple(sorted((nu, c) for nu, c in counts.items() if c > 0)))

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    def total(self) -> int:
        return sum(c for _, c in self.entries)


def lattice_points(rs: RootSystem, word, a, level: int = 1, budget: int = DEFAULT_BUDGET):
    """Ω-image of B_{i, level·a}, sorted; at level 1 this is exactly Δ_{i,a} ∩ Z^N."""
    a = tuple(map(index, a))
    level = index(level)
    if level < 1:
        raise ValueError("level must be a positive integer")
    return tuple(gen_demazure_crystal(rs, word, tuple(level * x for x in a), budget).omega_vectors())


def _projected(rs: RootSystem, subsets, lams, words, budget: int) -> tuple:
    """The first block's checked word, with Ω_X(x) → b_{λ_1} ⊗ x over the x in
    X = B_{I_2..I_r, λ_2..λ_r} for which b_{λ_1} ⊗ x is highest weight.

    Only X is generated, so ``budget`` caps |X|, not |B_{I,λ_1..λ_r}|.
    """
    subsets, words = rs.blocks(subsets, words)
    lams = rs.block_weights(subsets, lams, dominant=True)
    if subsets.sets[0] != tuple(range(1, rs.n + 1)):
        raise UnsupportedInputError("the first subset must be all of [n] for this operation")
    top = highest_path(rs, lams[0])
    if subsets.r == 1:
        return words.blocks[0], {(): top}
    tail_subsets, tail_words = SubsetSequence(subsets.sets[1:]), WordSequence(words.blocks[1:])
    rest = gen_demazure_crystal_weights(rs, tail_subsets, lams[1:], tail_words, budget)
    bounds = tuple(enumerate(lams[0].coords))
    highest: dict = {}
    for x, tail in rest.omega_map().items():
        # ε_i(b_{λ_1} ⊗ x) = max(0, ε_i(x) − ⟨λ_1, α_i^∨⟩), as ε_i(b_{λ_1}) = 0
        for idx, bound in bounds:
            if _epsilon(x, idx) > bound:
                break
        else:  # x is a bare path when X has one block
            highest[tail] = TensorElement._of_valid((top, *_factors(x)))
    return words.blocks[0], highest


def hat_lattice_points(rs: RootSystem, subsets, lams, words=None, budget: int = DEFAULT_BUDGET):
    """Lattice points of the projected polytope: Ω-images with the first block forgotten.

    ``budget`` caps |X| for X = B_{I_2..I_r, λ_2..λ_r}, not |B_{I,λ_1..λ_r}|.
    """
    return tuple(sorted(_projected(rs, subsets, lams, words, budget)[1]))


def multiplicity(rs: RootSystem, subsets, lams, nu, words=None, budget: int = DEFAULT_BUDGET) -> int:
    """Number of projected lattice points whose highest element b_{λ_1} ⊗ x has weight ν."""
    nu = rs.weight(nu).coords
    highest = _projected(rs, subsets, lams, words, budget)[1]
    return sum(1 for b in highest.values() if _endpoint(b) == nu)


def tensor_decompose(rs: RootSystem, lams, budget: int = DEFAULT_BUDGET) -> MultiplicityTable:
    """Multiplicities of V(ν) in V(λ_1) ⊗ ... ⊗ V(λ_r) via projected lattice points."""
    lams = list(lams)
    if not lams:
        raise ValueError("need at least one weight")
    highest = _projected(rs, [range(1, rs.n + 1)] * len(lams), lams, None, budget)[1]
    return MultiplicityTable.from_counter(Counter(_endpoint(b) for b in highest.values()))


def component_count(rs: RootSystem, subsets, lams, words=None, budget: int = DEFAULT_BUDGET) -> int:
    """Number of connected components, prepending ([n], λ=0) when the first block is not [n]."""
    subsets, words = rs.blocks(subsets, words)
    full = tuple(range(1, rs.n + 1))
    if subsets.sets[0] != full:
        subsets = SubsetSequence((full,) + subsets.sets)
        lams = [rs.zero_weight(), *lams]
        words = WordSequence((rs.longest_word(full),) + words.blocks)
    return len(_projected(rs, subsets, lams, words, budget)[1])


def fiber_string_points(rs: RootSystem, subsets, lams, x, words=None, budget: int = DEFAULT_BUDGET):
    """First-block coordinates of the Ω-points over a projected lattice point x.

    These are the Ω-heads of the component B(ν) generated from b_{λ_1} ⊗ x, recorded by
    closing it along the first block's word (every element carries the tail x);
    ``budget`` caps |X| (as in ``hat_lattice_points``) and |B(ν)|, checked first by Weyl dimension.
    """
    x = tuple(map(index, x))
    first_word, highest = _projected(rs, subsets, lams, words, budget)
    if x not in highest:
        raise ValueError(f"projected point {x} is not attained")
    size = rs.weyl_dimension(_endpoint(highest[x]))
    if size > budget:
        raise BudgetExceededError(f"component of {size} elements exceeds budget of {budget} elements")
    return tuple(sorted(_close(rs, {highest[x]: ()}, first_word, budget).values()))
