"""Finite-type root-system arithmetic, Weyl words, and subset machinery.

Everything downstream (crystals, polytopes, twisted cubes) consumes the data
assembled here: a validated Cartan matrix, positive roots, deterministic
reduced words for longest elements of parabolic Weyl subgroups, and type-A
enumerations of subsets.

Weights are always stored in fundamental-weight coordinates, so the pairing
with a simple coroot is a coordinate read-off; `Weight` reads each one as an int,
so every weight is integral.  `RootSystem.blocks` alone checks (subsets, words).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import index
from typing import Iterable, Sequence


class UnsupportedInputError(ValueError):
    """Input outside the supported class (e.g. a Levi subgroup not of type A)."""


class BudgetExceededError(RuntimeError):
    """A generation step exceeded its configured element budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed on valid input: a defect of the program."""


def _num(x) -> int:
    """An integer coordinate, from an int, a NumPy int or an integral Fraction; strings and
    floats are not read as numbers, and a Fraction such as 1/2 is not an integer."""
    if type(x) is int:
        return x
    if not isinstance(x, Rational):
        raise TypeError(f"weight coordinates must be integers, not {type(x).__name__}")
    if x.denominator != 1:
        raise ValueError(f"weight coordinates must be integers, not {x}")
    return int(x)


@dataclass(frozen=True)
class Weight:
    """Integer coordinate vector in the fundamental-weight basis ϖ1..ϖn."""

    coords: tuple

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(_num(c) for c in coords))

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def __rmul__(self, k) -> "Weight":
        return Weight(k * c for c in self.coords)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


def _validate_gcm(entries: tuple[tuple[int, ...], ...]) -> None:
    n = len(entries)
    for i in range(n):
        if len(entries[i]) != n:
            raise ValueError("Cartan matrix must be square")
        if entries[i][i] != 2:
            raise ValueError("Cartan matrix diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if entries[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise ValueError("Cartan entries c[i][j], c[j][i] must vanish together")


def _symmetrizer(entries: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    # d with d[i]*c[i][j] symmetric, positive; exists iff the matrix is symmetrizable
    n = len(entries)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or entries[i][j] == 0:
                    continue
                dj = d[i] * Fraction(entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise ValueError("Cartan matrix is not symmetrizable")
    return tuple(d)  # type: ignore[arg-type]


def _is_positive_definite(sym: list[list[Fraction]]) -> bool:
    # leading principal minors via fraction-exact elimination
    n = len(sym)
    m = [row[:] for row in sym]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return True


def type_a_cartan(n: int) -> list[list[int]]:
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


PRESETS = {
    **{f"A{n}": type_a_cartan(n) for n in (1, 2, 3, 4)},
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "G2": [[2, -3], [-1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
}


def _reflect(coords, idx: int, col) -> tuple:
    """s_i on ϖ-coordinates, v - ⟨v, α_i^∨⟩ α_i, for idx = i - 1 and col = α_i."""
    k = coords[idx]
    return tuple(v - k * a for v, a in zip(coords, col))


class _ReflectionMemo(dict):
    """v ↦ s_i(v) for one i, each image computed on its first lookup.

    It holds α_i rather than its root system: a reference cycle would keep a
    root system and its operator caches alive until the cyclic collector runs.
    """

    __slots__ = ("idx", "col")

    def __init__(self, idx: int, col: tuple):
        super().__init__()
        self.idx, self.col = idx, col

    def __missing__(self, v):
        image = self[v] = _reflect(v, self.idx, self.col)
        return image


class RootSystem:
    """Cartan datum plus the derived arithmetic every other module consumes.

    The constructor checks a finite-type generalized Cartan matrix and keeps its rows
    as ``cartan``: cartan[i][j] = ⟨α_{j+1}, α_{i+1}^∨⟩.  Indices i are 1-based
    throughout the public surface, matching α_1..α_n.
    """

    def __init__(self, cartan: Sequence[Sequence[int]]):
        c = tuple(tuple(map(index, row)) for row in cartan)
        if not c:
            raise ValueError("Cartan matrix must not be empty")
        _validate_gcm(c)
        n = len(c)
        d = _symmetrizer(c)
        if not _is_positive_definite([[d[i] * c[i][j] for j in range(n)] for i in range(n)]):
            raise ValueError("Cartan matrix is not of finite type")
        self.cartan, self.n = c, n
        # alpha_cols[i-1] = α_i in ϖ-coordinates (column i of the Cartan matrix)
        self._alpha_cols: tuple[tuple[int, ...], ...] = tuple(tuple(c[j][i] for j in range(n)) for i in range(n))
        # weyl_dimension reads only the ratios of d, so they are kept as ints
        self._d = tuple(int(x * lcm(*(y.denominator for y in d))) for x in d)
        self._positive_roots: tuple[tuple[int, ...], ...] | None = None
        # operator caches; also intern paths so per-element caches stay warm
        self._f_cache: dict = {}
        self._e_cache: dict = {}
        self._paths: dict = {}
        # checked subset → its longest word; tuples only, so no cycle holds the root system
        self._longest_words: dict = {}
        # (subset, word) pairs that blocks has verified; tuples only, too
        self._verified_words: set = set()
        # s_i on path directions, one memo per i: directions lie in the Weyl orbits of the tops,
        # or of their negatives on the dual paths that e_i walks
        self._reflections = tuple(_ReflectionMemo(idx, col) for idx, col in enumerate(self._alpha_cols))

    @classmethod
    def preset(cls, name: str) -> "RootSystem":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        return cls(PRESETS[name])

    def weight(self, *coords) -> Weight:
        """A Weight of this rank from a Weight, one coordinate sequence, or the coordinates themselves."""
        if len(coords) == 1 and not isinstance(coords[0], Rational):
            coords = coords[0]
        w = coords if isinstance(coords, Weight) else Weight(coords)
        if len(w) != self.n:
            raise ValueError(f"weight needs {self.n} coordinates, got {len(w)}")
        return w

    def subsets(self, subsets) -> "SubsetSequence":
        """A checked SubsetSequence, from one or from a sequence of index sequences."""
        subsets = subsets if isinstance(subsets, SubsetSequence) else SubsetSequence(subsets)
        for s in subsets.sets:
            self._check_subset(s)
        return subsets

    def blocks(self, subsets, words=None) -> tuple["SubsetSequence", "WordSequence"]:
        """Checked subsets I_1..I_r with their words; words=None means the longest word of each W_{I_k}.
        Block k must be a reduced word for that longest element.  A (subset, block) pair
        that passes is remembered; a pair that fails raises on every call."""
        subsets = self.subsets(subsets)
        if words is None:
            return subsets, WordSequence(self.longest_word(s) for s in subsets.sets)
        words = words if isinstance(words, WordSequence) else WordSequence(words)
        if len(words.blocks) != subsets.r:
            raise ValueError("word sequence and subset sequence lengths differ")
        for subset, block in zip(subsets.sets, words.blocks):
            if (subset, block) not in self._verified_words:
                if not self.is_reduced_word_for_longest(block, subset):
                    raise ValueError(f"block {block} is not a reduced word for the longest element of W_{subset}")
                self._verified_words.add((subset, block))
        return subsets, words

    def block_weights(self, subsets: "SubsetSequence", lams, dominant: bool = False) -> list[Weight]:
        """One weight per subset, each dominant too when `dominant`."""
        lams = [self.weight(lam) for lam in lams]
        if len(lams) != subsets.r:
            raise ValueError("need one weight per subset")
        if dominant and not all(lam.is_dominant() for lam in lams):
            raise ValueError("weights must be dominant integral")
        return lams

    def zero_weight(self) -> Weight:
        return Weight((0,) * self.n)

    def fundamental_weight(self, i: int) -> Weight:
        self._check_index(i)
        return Weight(tuple(1 if j == i - 1 else 0 for j in range(self.n)))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"simple-root index {i} out of range 1..{self.n}")

    def simple_root_as_weight(self, i: int) -> Weight:
        self._check_index(i)
        return Weight(self._alpha_cols[i - 1])

    def reflect(self, coords: tuple, i: int) -> tuple:
        """s_i acting on ϖ-coordinates: v - ⟨v, α_i^∨⟩ α_i."""
        return _reflect(coords, i - 1, self._alpha_cols[i - 1])

    # -- roots ------------------------------------------------------------

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """Δ⁺ as integer coefficient vectors over the simple roots, sorted.

        The simple roots closed under s_i β = β − ⟨β, α_i^∨⟩ α_i, keeping the
        positive images: every non-simple positive root has a simple reflection
        that lowers its height and stays positive.
        """
        if self._positive_roots is None:
            c = self.cartan
            roots = {tuple(int(j == k) for j in range(self.n)) for k in range(self.n)}
            frontier = list(roots)
            while frontier:
                beta = frontier.pop()
                for i in range(self.n):
                    image = list(beta)
                    image[i] -= sum(b * c[i][j] for j, b in enumerate(beta))
                    image = tuple(image)
                    if min(image) >= 0 and image not in roots:
                        roots.add(image)
                        frontier.append(image)
            self._positive_roots = tuple(sorted(roots))
        return self._positive_roots

    def positive_roots_in(self, subset: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        inside = set(subset)
        outside = [k for k in range(self.n) if (k + 1) not in inside]
        return tuple(b for b in self.positive_roots() if all(b[k] == 0 for k in outside))

    # -- Weyl words --------------------------------------------------------

    def longest_word(self, subset: Sequence[int]) -> tuple[int, ...]:
        """Deterministic reduced word for the longest element of W_I.

        Greedy descent: repeatedly apply the smallest i in I with ⟨v, α_i^∨⟩ > 0
        to v = Σ_{i∈I} ϖ_i until v is I-antidominant; `is_reduced` walks the
        same descents to check a given word.  Each subset's word is built and checked
        once per root system.
        """
        subset = self._check_subset(subset)
        if subset in self._longest_words:
            return self._longest_words[subset]
        v = tuple(1 if (k + 1) in subset else 0 for k in range(self.n))
        word: list[int] = []
        while True:
            i = next((i for i in subset if v[i - 1] > 0), None)
            if i is None:
                break
            word.append(i)
            v = self.reflect(v, i)
        if len(word) != len(self.positive_roots_in(subset)):
            raise InvariantError(f"greedy word {word} for {subset} is not a reduced word of the longest element")
        self._longest_words[subset] = tuple(word)
        return self._longest_words[subset]

    def _check_subset(self, subset: Sequence[int]) -> tuple[int, ...]:
        out = tuple(subset)
        if not out:
            raise ValueError("subset must be nonempty")
        if any(not 1 <= i <= self.n for i in out):
            raise ValueError(f"subset entries must lie in 1..{self.n}")
        if any(out[k] >= out[k + 1] for k in range(len(out) - 1)):
            raise ValueError("subset entries must be strictly increasing")
        return out

    def is_reduced(self, word: Sequence[int]) -> bool:
        """Descent test: read right to left from v = ρ = (1, ..., 1), each letter i
        needs ⟨v, α_i^∨⟩ > 0 (the suffix u has u⁻¹α_i > 0), and then v ↦ s_i v."""
        for i in word:
            self._check_index(i)
        v = (1,) * self.n
        for i in reversed(word):
            if v[i - 1] <= 0:
                return False
            v = self.reflect(v, i)
        return True

    def is_reduced_word_for_longest(self, word: Sequence[int], subset: Sequence[int]) -> bool:
        """w_0 of W_I is the only element of W_I whose reduced words have length |Δ_I⁺|."""
        subset = self._check_subset(subset)
        return (
            all(i in subset for i in word)
            and len(word) == len(self.positive_roots_in(subset))
            and self.is_reduced(word)
        )

    # -- type-A enumeration -------------------------------------------------

    def type_a_enumeration(self, subset: Sequence[int]) -> tuple[int, ...]:
        """Order I as u_1..u_m with the tridiagonal pairing pattern of a type-A path.

        The endpoint with the smaller index comes first.  Raises
        UnsupportedInputError when the Levi on I is not irreducible type A.
        """
        subset = self._check_subset(subset)
        c = self.cartan
        if any(c[i - 1][j - 1] not in (0, -1) for i in subset for j in subset if i != j):
            raise UnsupportedInputError(f"Levi on {subset} is not of type A")
        adj = {i: [j for j in subset if j != i and c[i - 1][j - 1]] for i in subset}
        # a finite-type Dynkin diagram is a forest, so some vertex of I has at most one neighbour in I
        order = [next(i for i in subset if len(adj[i]) <= 1)]
        while len(order) < len(subset):
            nxt = [j for j in adj[order[-1]] if j not in order]
            if len(nxt) != 1:
                raise UnsupportedInputError(f"Levi on {subset} is not of type A")
            order.append(nxt[0])
        return tuple(order)

    # -- Weyl dimension ------------------------------------------------------

    def weyl_dimension(self, lam: Weight) -> int:
        """dim V(λ) = Π_{β>0} ⟨λ+ρ, β^∨⟩ / ⟨ρ, β^∨⟩, as integer products with one exact division."""
        lam = self.weight(lam)
        if not lam.is_dominant():
            raise ValueError("weyl_dimension needs a dominant integral weight")
        num = den = 1
        for beta in self.positive_roots():
            num *= sum(m * d * (x + 1) for m, d, x in zip(beta, self._d, lam.coords))
            den *= sum(m * d for m, d in zip(beta, self._d))
        result = Fraction(num, den)
        if result.denominator != 1:
            raise InvariantError(f"Weyl dimension of {lam.coords} is not an integer: {result}")
        return int(result)


@dataclass(frozen=True)
class SubsetSequence:
    """Ordered sequence (I_1,...,I_r) of subsets of [n]; `RootSystem.subsets` checks them."""

    sets: tuple[tuple[int, ...], ...]

    def __init__(self, sets: Iterable[Sequence[int]]):
        object.__setattr__(self, "sets", tuple(tuple(map(index, s)) for s in sets))
        if not self.sets:
            raise ValueError("subset sequence must be nonempty")

    @property
    def r(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class WordSequence:
    """Per-block words; `RootSystem.blocks` checks each against its subset."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Sequence[int]]):
        object.__setattr__(self, "blocks", tuple(tuple(map(index, b)) for b in blocks))

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(i for b in self.blocks for i in b)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)
