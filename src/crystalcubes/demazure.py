"""Demazure crystals, generalized Demazure crystals, and string parametrizations.

Two shapes are supported.  The word/exponent shape B_{i,a} lives inside
B(a_1 ϖ_{i_1}) ⊗ ... ⊗ B(a_N ϖ_{i_N}) and is saturated innermost-first:
the rightmost factor is closed under powers of f_{i_N}, then tensored under
the next factor and closed again, letter by letter outward.  The
subset/weight shape B_{I,λ_1..λ_r} does the same with one factor per block,
closing under the block's word letters right to left.

The parametrization peels maximal raising chains: for B_{i,a} one letter at a
time with the exposed highest factor dropped after each letter; for the
subset/weight shape one block at a time, dropping b_{λ_k} after block k.  The
two agree on images because the crystal graphs are identical; tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crystal import (
    DEFAULT_BUDGET,
    PathElement,
    TensorElement,
    epsilon,
    graph_from_elements,
    highest_path,
    path_e,
    path_f,
)
from .rootsys import BudgetExceededError, RootSystem, SubsetSequence, Weight, WordSequence


@dataclass(frozen=True)
class StringVector:
    """Nonnegative integer exponents grouped into blocks matching a word."""

    entries: tuple[int, ...]
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if sum(self.block_sizes) != len(self.entries):
            raise ValueError("block sizes do not match entry count")
        if any(x < 0 for x in self.entries):
            raise ValueError("string vector entries must be nonnegative")

    def tail(self, from_block: int = 1) -> tuple[int, ...]:
        pos = sum(self.block_sizes[:from_block])
        return self.entries[pos:]

    def head(self, blocks: int = 1) -> tuple[int, ...]:
        return self.entries[: sum(self.block_sizes[:blocks])]


def _f_power_closure(rs: RootSystem, elements, i: int, budget: int):
    out = set(elements)
    for b in list(out):
        c = b
        while True:
            c = path_f(rs, c, i)
            if c is None or c in out:
                # an element already present had (or will have) its chain walked
                break
            out.add(c)
            if len(out) > budget:
                raise BudgetExceededError(f"saturation exceeded budget of {budget} elements")
    return out


def demazure_crystal(rs: RootSystem, lam, word, budget: int = DEFAULT_BUDGET) -> frozenset:
    """B_w(λ) = {f_{i_1}^{x_1} ... f_{i_N}^{x_N} b_λ} \\ {0} for a reduced word of w."""
    lam = lam if isinstance(lam, Weight) else rs.weight(lam)
    word = tuple(word)
    if not rs.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    current = {highest_path(rs, lam)}
    for i in reversed(word):
        current = _f_power_closure(rs, current, i, budget)
    return frozenset(current)


@dataclass
class GenDemazureCrystal:
    """Generated element set with its parametrization word and cached Ω-vectors."""

    rs: RootSystem
    elements: frozenset
    word: tuple[int, ...]
    block_sizes: tuple[int, ...]
    shape: dict
    _omega: dict | None = field(default=None, repr=False)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    def omega_map(self) -> dict:
        if self._omega is None:
            if self.shape["kind"] == "word":
                a = self.shape["a"]
                mapping = {b: omega(self.rs, self.word, a, b) for b in self.elements}
            else:
                subsets = SubsetSequence(self.shape["subsets"])
                words = WordSequence(self.shape["words"])
                lams = [self.rs.weight(w) for w in self.shape["weights"]]
                mapping = {b: omega_blocked(self.rs, subsets, words, lams, b) for b in self.elements}
            values = set(mapping.values())
            if len(values) != len(mapping):
                raise AssertionError("string parametrization failed to separate elements")
            self._omega = mapping
        return self._omega

    def omega_vectors(self) -> list[tuple[int, ...]]:
        return sorted(sv.entries for sv in self.omega_map().values())

    def graph(self):
        return graph_from_elements(self.rs, self.elements)

    def components(self) -> list[dict]:
        """Connected pieces of the in-set crystal graph with their highest weights."""
        g = self.graph()
        parent = list(range(g.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, _, v in g.edges:
            parent[find(u)] = find(v)
        groups: dict[int, list[int]] = {}
        for k in range(g.vertex_count):
            groups.setdefault(find(k), []).append(k)
        out = []
        for members in groups.values():
            heads = [
                k
                for k in members
                if all(epsilon(self.rs, g.vertices[k], i) == 0 for i in range(1, self.rs.n + 1))
            ]
            out.append(
                {
                    "size": len(members),
                    "highest_weights": sorted(tuple(g.weights[k].coords) for k in heads),
                }
            )
        out.sort(key=lambda c: (-c["size"], c["highest_weights"]))
        return out

    def to_json_dict(self) -> dict:
        omega_sorted = self.omega_vectors()
        return {
            "shape": _shape_json(self.shape),
            "word": list(self.word),
            "block_sizes": list(self.block_sizes),
            "element_count": self.element_count,
            "omega_vectors": [list(v) for v in omega_sorted],
            "components": self.components(),
        }


def _shape_json(shape: dict) -> dict:
    out = {"kind": shape["kind"]}
    if shape["kind"] == "word":
        out["a"] = list(shape["a"])
    else:
        out["subsets"] = [list(s) for s in shape["subsets"]]
        out["weights"] = [list(w) for w in shape["weights"]]
        out["words"] = [list(b) for b in shape["words"]]
    return out


def gen_demazure_crystal(rs: RootSystem, word, a, budget: int = DEFAULT_BUDGET) -> GenDemazureCrystal:
    """B_{i,a}: nested saturation of f_{i_1}^{x_1}(b_{a_1 ϖ_{i_1}} ⊗ f_{i_2}^{x_2}(...))."""
    word = tuple(int(i) for i in word)
    a = tuple(int(x) for x in a)
    if len(word) != len(a):
        raise ValueError("word and exponent vector lengths differ")
    if any(x < 0 for x in a):
        raise ValueError("exponent vector entries must be nonnegative")
    for i in word:
        rs._check_index(i)
    current: set = {TensorElement((highest_path(rs, a[-1] * rs.fundamental_weight(word[-1])),))}
    current = _f_power_closure(rs, current, word[-1], budget)
    for k in range(len(word) - 2, -1, -1):
        top = highest_path(rs, a[k] * rs.fundamental_weight(word[k]))
        current = {TensorElement((top,) + b.factors) for b in current}
        current = _f_power_closure(rs, current, word[k], budget)
    return GenDemazureCrystal(
        rs=rs,
        elements=frozenset(current),
        word=word,
        block_sizes=(1,) * len(word),
        shape={"kind": "word", "a": a},
    )


def check_weights(subsets: SubsetSequence, lams) -> None:
    """Require one dominant integral weight per subset."""
    if len(lams) != subsets.r:
        raise ValueError("need one weight per subset")
    for lam in lams:
        if not lam.is_dominant() or not lam.is_integral():
            raise ValueError("weights must be dominant integral")


def gen_demazure_crystal_weights(
    rs: RootSystem,
    subsets: SubsetSequence,
    lams,
    words: WordSequence | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GenDemazureCrystal:
    """B_{I,λ_1..λ_r}: per-block saturation of b_{λ_1} ⊗ (... ⊗ saturation of b_{λ_r})."""
    subsets = subsets.validate(rs)
    lams = [lam if isinstance(lam, Weight) else rs.weight(lam) for lam in lams]
    check_weights(subsets, lams)
    if words is None:
        words = WordSequence.for_subsets(rs, subsets)
    words.validate(rs, subsets)

    current: set = {TensorElement((highest_path(rs, lams[-1]),))}
    for i in reversed(words.blocks[-1]):
        current = _f_power_closure(rs, current, i, budget)
    for k in range(subsets.r - 2, -1, -1):
        top = highest_path(rs, lams[k])
        current = {TensorElement((top,) + b.factors) for b in current}
        for i in reversed(words.blocks[k]):
            current = _f_power_closure(rs, current, i, budget)
    return GenDemazureCrystal(
        rs=rs,
        elements=frozenset(current),
        word=words.flat,
        block_sizes=words.block_sizes,
        shape={
            "kind": "weights",
            "subsets": subsets.sets,
            "weights": [tuple(lam.coords) for lam in lams],
            "words": words.blocks,
        },
    )


def _max_raise(rs: RootSystem, b, i: int):
    count = 0
    while True:
        c = path_e(rs, b, i)
        if c is None:
            return b, count
        b = c
        count += 1


def omega(rs: RootSystem, word, a, b) -> StringVector:
    """Generalized string parametrization on B_{i,a}: raise maximally, peel, repeat."""
    word = tuple(word)
    a = tuple(a)
    current = b if isinstance(b, TensorElement) else TensorElement((b,))
    if len(current.factors) != len(word):
        raise ValueError("element factor count does not match the word")
    xs = []
    for k, i in enumerate(word):
        current, x = _max_raise(rs, current, i)
        xs.append(x)
        top = highest_path(rs, a[k] * rs.fundamental_weight(i))
        if current.factors[0] != top:
            raise ValueError("element is not in the generalized Demazure crystal (peeling failed)")
        if k < len(word) - 1:
            current = TensorElement(current.factors[1:])
    return StringVector(tuple(xs), (1,) * len(word))


def omega_blocked(rs: RootSystem, subsets: SubsetSequence, words: WordSequence, lams, b) -> StringVector:
    """Parametrization of B_{I,λ_1..λ_r}: per-block maximal raising, peeling b_{λ_k} after block k."""
    lams = [lam if isinstance(lam, Weight) else rs.weight(lam) for lam in lams]
    current = b if isinstance(b, TensorElement) else TensorElement((b,))
    if len(current.factors) != subsets.r:
        raise ValueError("element factor count does not match the subset sequence")
    xs = []
    for k, block in enumerate(words.blocks):
        for i in block:
            current, x = _max_raise(rs, current, i)
            xs.append(x)
        if current.factors[0] != highest_path(rs, lams[k]):
            raise ValueError("element is not in the generalized Demazure crystal (peeling failed)")
        if k < subsets.r - 1:
            current = TensorElement(current.factors[1:])
    return StringVector(tuple(xs), words.block_sizes)


def rebuild_from_omega(rs: RootSystem, word, a, sv: StringVector) -> TensorElement:
    """Inverse of omega: apply the nested f-pattern with the given exponents."""
    word = tuple(word)
    a = tuple(a)
    current = None
    for k in range(len(word) - 1, -1, -1):
        top = highest_path(rs, a[k] * rs.fundamental_weight(word[k]))
        current = TensorElement((top,)) if current is None else TensorElement((top,) + current.factors)
        for _ in range(sv.entries[k]):
            current = path_f(rs, current, word[k])
            if current is None:
                raise ValueError("exponent pattern leaves the crystal")
    return current
