"""Demazure crystals, generalized Demazure crystals, and string parametrizations.

A generalized Demazure crystal B_{I,λ_1..λ_r} lives inside
B(λ_1) ⊗ ... ⊗ B(λ_r) and is saturated innermost-first: b_{λ_r} is closed
under f_i for the letters of block r's word, right to left, into the Demazure
crystal B_{w_r}(λ_r) of bare paths, as `demazure_crystal` builds it; then
b_{λ_{r-1}} is tensored on the left and the set is closed under block r-1's
letters, and so on outward.  The elements are tensors, and bare paths when
there is one block.  The string parametrization Ω (raise maximally along block
k's letters, then drop the exposed b_{λ_k}) is recorded while saturating.
Each stage set is a disjoint union of Demazure crystals, so each i_p-string
that meets it has its top there (Kashiwara, Duke Math. J. 71, 1993), and
Ω_p(f_{i_p}^k t) = (k,) + Ω_{p+1}(t) for each top t with ε_{i_p}(t) = 0;
b_{λ_k} ⊗ x keeps the entries of x.  An Ω value is a plain tuple of ints in
flat-letter order (the block sizes are `words.block_sizes`), read through
`GenDemazureCrystal.omega_map()`.  A `GenDemazureCrystal` holds values only:
its block words and its Ω map, whose keys are its elements.  The input shape
and the artifact bytes belong to `cli`.

The word shape B_{i,a} is the case of singleton blocks ({i_k}, a_k ϖ_{i_k}),
as Bott-Samelson varieties are the flag Bott-Samelson varieties with singleton
blocks, so both shapes share one saturation.  At the other end, flag varieties
G/B are the case of one block [n]: B(λ) = B_{w_0}(λ).
Every saturation here, and `crystal.generate_crystal` for B(λ), is the one
f-string closure `crystal._close` along a word.

B_{I,λ} is a disjoint union of Demazure crystals (Joseph, J. Algebra 265, 2003;
Lakshmibai-Littelmann-Magyar, Compositio Math. 130, 2002), closed under every e_i.
Elements whose Ω values share their entries after the first block were lowered from
one b_{λ_1} ⊗ x, so `GenDemazureCrystal.components` raises one element per such tail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import index
from types import MappingProxyType

from .crystal import (
    DEFAULT_BUDGET,
    TensorElement,
    _close,
    _endpoint,
    _factors,
    graph_from_elements,  # noqa: F401  (cli imports it from here; perfbench/tracing.py patches it here)
    highest_path,
    path_e,
    path_f,  # noqa: F401  (perfbench/tracing.py patches demazure.path_f)
)
from .rootsys import InvariantError, RootSystem, WordSequence


def _saturate(rs: RootSystem, tops, blocks, budget: int) -> dict:
    """b_{λ_1} ⊗ (... ⊗ b_{λ_r}), closed under each block's letters, innermost block first,
    each element mapped to its Ω-entries.

    The innermost block closes bare paths into the Demazure crystal B_{w_r}(λ_r), which is
    the whole crystal when r = 1; each outer block tensors its top on the left, and
    b_{λ_k} ⊗ x keeps the entries of x."""
    current = _close(rs, {tops[-1]: ()}, blocks[-1], budget)
    for top, block in zip(reversed(tops[:-1]), reversed(blocks[:-1])):
        current = _close(rs, {TensorElement._of_valid((top, *_factors(x))): e for x, e in current.items()}, block, budget)
    return current


def demazure_crystal(rs: RootSystem, lam, word, budget: int = DEFAULT_BUDGET) -> frozenset:
    """B_w(λ) = {f_{i_1}^{x_1} ... f_{i_N}^{x_N} b_λ} \\ {0} for a reduced word of w."""
    lam = rs.weight(lam)
    word = tuple(word)
    if not rs.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    return frozenset(_close(rs, {highest_path(rs, lam): ()}, word, budget))


@dataclass
class GenDemazureCrystal:
    """A generalized Demazure crystal as its block words and its Ω map, whose keys are its elements."""

    rs: RootSystem
    words: WordSequence
    _omega: dict = field(repr=False)

    @property
    def elements(self):
        """The element set, a read-only view of the Ω map's keys."""
        return self._omega.keys()

    @property
    def element_count(self) -> int:
        return len(self._omega)

    def omega_map(self) -> MappingProxyType:
        """Element → Ω value, read-only: the map is also the crystal's element store."""
        return MappingProxyType(self._omega)

    def omega_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.omega_map().values())

    def components(self) -> list[tuple[int, tuple[int, ...]]]:
        """(size, highest weight) of each connected piece, by (−size, weight), one raising walk per Ω tail."""
        rs, elements, h = self.rs, self.elements, self.words.block_sizes[0]
        tails: dict = {}  # Ω tail -> [an element with it, how many have it]
        for b, xs in self._omega.items():
            tails.setdefault(xs[h:], [b, 0])[1] += 1
        highest, sizes = {}, Counter()  # element -> the highest element of its piece, so a walk stops at one seen
        for b, count in tails.values():
            walk = []
            while b not in highest:
                walk.append(b)
                for i in range(1, rs.n + 1):
                    if (c := path_e(rs, b, i)) is not None:
                        if c not in elements:
                            raise InvariantError(f"e_{i} leaves the generalized Demazure crystal")
                        b = c
                        break
                else:
                    highest[b] = b
            highest.update(dict.fromkeys(walk, highest[b]))
            sizes[highest[b]] += count
        return sorted(((n, _endpoint(top)) for top, n in sizes.items()), key=lambda c: (-c[0], c[1]))


def _build(rs: RootSystem, lams, words: WordSequence, budget: int) -> GenDemazureCrystal:
    """The crystal saturated from the tops b_{λ_k} along the checked block words, with its Ω."""
    omega = _saturate(rs, [highest_path(rs, lam) for lam in lams], words.blocks, budget)
    if len(set(omega.values())) != len(omega):
        raise InvariantError("string parametrization failed to separate elements")
    return GenDemazureCrystal(rs, words, omega)


def gen_demazure_crystal(rs: RootSystem, word, a, budget: int = DEFAULT_BUDGET) -> GenDemazureCrystal:
    """B_{i,a}: nested saturation of f_{i_1}^{x_1}(b_{a_1 ϖ_{i_1}} ⊗ f_{i_2}^{x_2}(...)).

    This is B_{I,λ} with singleton blocks ({i_k}, a_k ϖ_{i_k}).
    """
    word = tuple(map(index, word))  # rejects a string such as "12", which int() would split into letters
    a = tuple(map(index, a))
    if not word:
        raise ValueError("the word must not be empty")
    if len(word) != len(a):
        raise ValueError("word and exponent vector lengths differ")
    if any(x < 0 for x in a):
        raise ValueError("exponent vector entries must be nonnegative")
    lams = [a_k * rs.fundamental_weight(i) for i, a_k in zip(word, a)]
    return _build(rs, lams, WordSequence((i,) for i in word), budget)


def gen_demazure_crystal_weights(
    rs: RootSystem,
    subsets,
    lams,
    words=None,
    budget: int = DEFAULT_BUDGET,
) -> GenDemazureCrystal:
    """B_{I,λ_1..λ_r}: per-block saturation of b_{λ_1} ⊗ (... ⊗ saturation of b_{λ_r})."""
    subsets, words = rs.blocks(subsets, words)
    return _build(rs, rs.block_weights(subsets, lams, dominant=True), words, budget)
