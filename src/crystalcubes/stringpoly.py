"""Lattice-point combinatorics of generalized string polytopes.

Lattice points, multiplicities, component counts and fibers are Ω-images of
generated crystals, never solutions of inequality systems.  The projected
polytope (first block forgotten, first block [n]) uses the string form of
Littelmann's path-model Littlewood-Richardson rule (Invent. Math. 116, 1994):
raising maximally along a reduced word of w0 ends at the highest-weight element
b_{λ_1} ⊗ x of a component, with x in X = B_{I_2..I_r, λ_2..λ_r}, so the
projected points are the Ω_X(x) with ε_i(b_{λ_1} ⊗ x) = 0 for all i, and only
X is built.  The fiber over such a point is the Ω-image of that component B(ν).
Exported points use the positive string orientation, i.e. they are the
negatives of Newton-Okounkov valuation vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index

from .crystal import DEFAULT_BUDGET, TensorElement, _close, highest_path, is_highest
from .demazure import _peeler, gen_demazure_crystal, gen_demazure_crystal_weights
from .rootsys import InvariantError, RootSystem, SubsetSequence, UnsupportedInputError, WordSequence


@dataclass(frozen=True)
class LatticePointSet:
    """Sorted distinct nonnegative integer vectors, with the word and scaling level."""

    block_sizes: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        if len(set(self.points)) != len(self.points):
            raise ValueError("lattice points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    def to_csv_lines(self) -> list[str]:
        header = []
        for k, size in enumerate(self.block_sizes, start=1):
            header.extend(f"x{k}_{l}" for l in range(1, size + 1))
        lines = [",".join(header)]
        lines.extend(",".join(str(x) for x in p) for p in self.points)
        return lines


@dataclass(frozen=True)
class MultiplicityTable:
    """Dominant weight (ϖ-coordinates) → strictly positive multiplicity."""

    entries: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_counter(cls, counts: Counter) -> "MultiplicityTable":
        return cls(tuple(sorted((nu, c) for nu, c in counts.items() if c > 0)))

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    def to_json_dict(self) -> dict[str, int]:
        return {",".join(str(x) for x in nu): c for nu, c in self.entries}

    def total(self) -> int:
        return sum(c for _, c in self.entries)


def lattice_points(rs: RootSystem, word, a, level: int = 1, budget: int = DEFAULT_BUDGET) -> LatticePointSet:
    """Ω-image of B_{i, level·a}; at level 1 this is exactly Δ_{i,a} ∩ Z^N."""
    a = tuple(map(index, a))
    level = index(level)
    if any(x < 0 for x in a):
        raise ValueError("exponent vector entries must be nonnegative")
    if level < 1:
        raise ValueError("level must be a positive integer")
    scaled = tuple(level * x for x in a)
    crystal = gen_demazure_crystal(rs, word, scaled, budget)
    return LatticePointSet(block_sizes=crystal.words.block_sizes, points=tuple(crystal.omega_vectors()), level=level)


def _require_full_first_block(rs: RootSystem, subsets: SubsetSequence) -> None:
    if subsets.sets[0] != tuple(range(1, rs.n + 1)):
        raise UnsupportedInputError("the first subset must be all of [n] for this operation")


def _highest_weight_tails(rs: RootSystem, subsets: SubsetSequence, lams, words: WordSequence, budget: int) -> dict:
    """Projected point Ω_X(x) → factors of x, over the x ∈ X with b_{λ_1} ⊗ x highest weight."""
    rs.block_weights(subsets, lams, dominant=True)
    if subsets.r == 1:
        return {(): ()}
    tail_subsets = SubsetSequence(subsets.sets[1:])
    tail_words = WordSequence(words.blocks[1:])
    rest = gen_demazure_crystal_weights(rs, tail_subsets, lams[1:], tail_words, budget)
    top = highest_path(rs, lams[0])
    peel = _peeler(rs, rest.tops, rest.words.blocks)
    tails: dict = {}
    for x in rest.elements:
        if not is_highest(rs, TensorElement._of_valid((top,) + x.factors)):
            continue
        tail = peel(x).entries
        if tail in tails:
            raise InvariantError("string parametrization failed to separate elements")
        tails[tail] = x.factors
    return tails


def hat_lattice_points(rs: RootSystem, subsets, lams, words=None, budget: int = DEFAULT_BUDGET):
    """Lattice points of the projected polytope: Ω-images with the first block forgotten.

    Only X = B_{I_2..I_r, λ_2..λ_r} is generated, so ``budget`` caps |X|, not
    |B_{I,λ_1..λ_r}|.
    """
    subsets, words = rs.blocks(subsets, words)
    lams = [rs.weight(lam) for lam in lams]
    _require_full_first_block(rs, subsets)
    return tuple(sorted(_highest_weight_tails(rs, subsets, lams, words, budget)))


def _weight_of_hat_point(rs: RootSystem, words: WordSequence, lams, x) -> tuple:
    total = sum(lams[1:], start=lams[0])
    coords = list(total.coords)
    tail_letters = [i for block in words.blocks[1:] for i in block]
    for letter, mult in zip(tail_letters, x, strict=True):
        col = rs._alpha_cols[letter - 1]
        for t in range(rs.n):
            coords[t] -= mult * col[t]
    return tuple(coords)


def multiplicity(rs: RootSystem, subsets, lams, nu, words=None, budget: int = DEFAULT_BUDGET) -> int:
    """Number of projected lattice points whose residual weight equals ν."""
    subsets, words = rs.blocks(subsets, words)
    lams = [rs.weight(lam) for lam in lams]
    _require_full_first_block(rs, subsets)
    nu = rs.weight(nu)
    points = hat_lattice_points(rs, subsets, lams, words, budget)
    return sum(1 for x in points if _weight_of_hat_point(rs, words, lams, x) == tuple(nu.coords))


def tensor_decompose(rs: RootSystem, lams, budget: int = DEFAULT_BUDGET) -> MultiplicityTable:
    """Multiplicities of V(ν) in V(λ_1) ⊗ ... ⊗ V(λ_r) via projected lattice points."""
    lams = [rs.weight(lam) for lam in lams]
    if not lams:
        raise ValueError("need at least one weight")
    subsets, words = rs.blocks([range(1, rs.n + 1)] * len(lams))
    points = hat_lattice_points(rs, subsets, lams, words, budget)
    counts: Counter = Counter()
    for x in points:
        nu = _weight_of_hat_point(rs, words, lams, x)
        if any(c < 0 for c in nu):
            raise InvariantError(f"projected point {x} produced a non-dominant weight {nu}")
        counts[nu] += 1
    return MultiplicityTable.from_counter(counts)


def component_count(rs: RootSystem, subsets, lams, words=None, budget: int = DEFAULT_BUDGET) -> int:
    """Number of connected components, prepending ([n], λ=0) when the first block is not [n]."""
    subsets, words = rs.blocks(subsets, words)
    lams = [rs.weight(lam) for lam in lams]
    full = tuple(range(1, rs.n + 1))
    if subsets.sets[0] != full:
        subsets = SubsetSequence((full,) + subsets.sets)
        lams = [rs.zero_weight()] + lams
        words = WordSequence((rs.longest_word(full),) + words.blocks)
    return len(hat_lattice_points(rs, subsets, lams, words, budget))


def fiber_string_points(rs: RootSystem, subsets, lams, x, words=None, budget: int = DEFAULT_BUDGET):
    """First-block coordinates of the Ω-points over a projected lattice point x.

    These are the Ω-heads of the component B(ν) generated from b_{λ_1} ⊗ x;
    ``budget`` caps |X| (as in ``hat_lattice_points``) and |B(ν)|.
    """
    subsets, words = rs.blocks(subsets, words)
    lams = [rs.weight(lam) for lam in lams]
    _require_full_first_block(rs, subsets)
    tails = _highest_weight_tails(rs, subsets, lams, words, budget)
    x = tuple(map(index, x))
    if x not in tails:
        raise ValueError(f"projected point {x} is not attained")
    tops = tuple(highest_path(rs, lam) for lam in lams)
    component = _close(rs, {TensorElement._of_valid((tops[0],) + tails[x])}, words.blocks[0], budget)
    peel = _peeler(rs, tops, words.blocks)
    strings = [peel(b) for b in component]
    if any(sv.tail(1) != x for sv in strings):
        raise InvariantError(f"the component over {x} has elements with another string tail")
    return tuple(sorted({sv.head(1) for sv in strings}))
