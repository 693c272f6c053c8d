"""Demazure crystals, generalized Demazure crystals, and string parametrizations.

A generalized Demazure crystal B_{I,λ_1..λ_r} lives inside
B(λ_1) ⊗ ... ⊗ B(λ_r) and is saturated innermost-first: b_{λ_r} is closed
under f_i for the letters of block r's word, right to left, into the Demazure
crystal B_{w_r}(λ_r) of bare paths, as `demazure_crystal` builds it; then
b_{λ_{r-1}} is tensored on the left and the set is closed under block r-1's
letters, and so on outward.  The elements are tensors, of one factor when
there is one block.  The parametrization Ω peels the same way from the
outside: raise maximally along block k's letters, then drop the exposed b_{λ_k}.
An Ω value is a plain tuple of ints in flat-letter order (the block sizes are
`words.block_sizes`), read through `GenDemazureCrystal.omega_map()`.
A `GenDemazureCrystal` holds values only: its elements, block words, tops, Ω
and components.  The input shape and the artifact bytes belong to `cli`.
`_peeler` peels a whole element set with one memo on (element, flat letter
position): every state a walk passes is recorded, so elements that share a
raised state share the rest of Ω.

The word shape B_{i,a} is the case of singleton blocks ({i_k}, a_k ϖ_{i_k}),
as Bott-Samelson varieties are the flag Bott-Samelson varieties with singleton
blocks, so both shapes share one saturation and one peeling loop.  At the
other end, flag varieties G/B are the case of one block [n]: B(λ) = B_{w_0}(λ).
Every saturation here, and `crystal.generate_crystal` for B(λ), is the one
f-string closure `crystal._close` along a word.

B_{I,λ} is a disjoint union of Demazure crystals (Joseph, J. Algebra 265, 2003;
Lakshmibai-Littelmann-Magyar, Compositio Math. 130, 2002), so it is closed under
every e_i, and `GenDemazureCrystal.components` names each connected piece by its
one highest element, reached by raising, without building the crystal graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import index

from .crystal import (
    DEFAULT_BUDGET,
    TensorElement,
    _close,
    graph_from_elements,  # noqa: F401  (cli imports it from here; perfbench/tracing.py patches it here)
    highest_path,
    path_e,
    path_f,  # noqa: F401  (perfbench/tracing.py patches demazure.path_f)
    wt,
)
from .rootsys import InvariantError, RootSystem, WordSequence


def _saturate(rs: RootSystem, tops, blocks, budget: int) -> frozenset:
    """b_{λ_1} ⊗ (... ⊗ b_{λ_r}), closed under each block's letters, innermost block first.

    The innermost block closes bare paths into the Demazure crystal B_{w_r}(λ_r); each
    of its paths becomes a one-factor tail when the next block tensors its top on the left."""
    current = _close(rs, {tops[-1]}, blocks[-1], budget)
    tails = [(p,) for p in current]
    for top, block in zip(reversed(tops[:-1]), reversed(blocks[:-1])):
        current = _close(rs, {TensorElement._of_valid((top,) + tail) for tail in tails}, block, budget)
        tails = [b.factors for b in current]
    return frozenset(current) if len(tops) > 1 else frozenset(map(TensorElement._of_valid, tails))


def _peeler(rs: RootSystem, tops, blocks):
    """Ω as a function of the element, memoized on (element, flat letter position).

    Peeling is a walk through states (p, b).  If e_{i_p} acts on b, the walk raises b
    and stays at p, and Ω_p(b) is Ω_p(e_{i_p} b) with its first entry raised by 1;
    otherwise it drops the exposed b_{λ_k} if p ends block k and steps to p + 1, and
    Ω_p(b) is (0,) + Ω_{p+1}.  The walk stops at a state in the memo or past the last
    letter, then unwinds, recording every state it passed.  The memo lives as long as
    the returned function.  Ω(b) is a tuple of ints in flat-letter order.  Only elements
    of the crystal saturated from ``tops`` along ``blocks`` are peeled here, so a peel
    that does not expose b_{λ_k} is a defect of the program.
    """
    letters = [(i, k, pos == len(block) - 1) for k, block in enumerate(blocks) for pos, i in enumerate(block)]
    last = len(blocks) - 1
    memo = [{} for _ in letters]  # memo[p][b]: the Ω-entries from position p on

    def peel(b) -> tuple[int, ...]:
        walk = []  # (position, element, raised) for each state passed
        p = 0
        while p < len(letters) and b not in memo[p]:
            i, k, ends_block = letters[p]
            c = path_e(rs, b, i)
            walk.append((p, b, c is not None))
            if c is not None:
                b = c
                continue
            if ends_block:
                if b.factors[0] != tops[k]:
                    raise InvariantError("element is not in the generalized Demazure crystal (peeling failed)")
                if k < last:
                    b = TensorElement._of_valid(b.factors[1:])
            p += 1
        entries = memo[p][b] if p < len(letters) else ()
        for q, c, raised in reversed(walk):
            entries = memo[q][c] = (entries[0] + 1,) + entries[1:] if raised else (0,) + entries
        return entries

    return peel


def demazure_crystal(rs: RootSystem, lam, word, budget: int = DEFAULT_BUDGET) -> frozenset:
    """B_w(λ) = {f_{i_1}^{x_1} ... f_{i_N}^{x_N} b_λ} \\ {0} for a reduced word of w."""
    lam = rs.weight(lam)
    word = tuple(word)
    if not rs.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    return frozenset(_close(rs, {highest_path(rs, lam)}, word, budget))


@dataclass
class GenDemazureCrystal:
    """Generated element set with its parametrization words and cached Ω-vectors.

    ``tops`` and ``words`` are the b_{λ_k} and block words it was saturated from.
    """

    rs: RootSystem
    elements: frozenset
    words: WordSequence
    tops: tuple
    _omega: dict | None = field(default=None, repr=False)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    def omega_map(self) -> dict:
        if self._omega is None:
            peel = _peeler(self.rs, self.tops, self.words.blocks)
            mapping = {b: peel(b) for b in self.elements}
            values = set(mapping.values())
            if len(values) != len(mapping):
                raise InvariantError("string parametrization failed to separate elements")
            self._omega = mapping
        return self._omega

    def omega_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.omega_map().values())

    def components(self) -> list[dict]:
        """Connected pieces, each named by its one highest element, as B_{I,λ} is a disjoint union
        of Demazure crystals (Joseph 2003; Lakshmibai-Littelmann-Magyar 2002).  Each element is
        raised by some e_i until none applies; every element on the walk records the highest
        element reached, so a later walk stops at the first one already seen."""
        rs, elements = self.rs, self.elements
        highest: dict = {}  # element -> the highest element of its piece
        for b in elements:
            walk = []
            while b not in highest:
                walk.append(b)
                for i in range(1, rs.n + 1):
                    if (c := path_e(rs, b, i)) is not None:
                        break
                else:
                    highest[b] = b
                    break
                if c not in elements:
                    raise InvariantError(f"e_{i} leaves the generalized Demazure crystal")
                b = c
            highest.update(dict.fromkeys(walk, highest[b]))
        out = [{"size": size, "highest_weights": [wt(rs, h).coords]} for h, size in Counter(highest.values()).items()]
        out.sort(key=lambda c: (-c["size"], c["highest_weights"]))
        return out


def _build(rs: RootSystem, lams, words: WordSequence, budget: int) -> GenDemazureCrystal:
    """The crystal saturated from the tops b_{λ_k} along the checked block words."""
    tops = tuple(highest_path(rs, lam) for lam in lams)
    return GenDemazureCrystal(rs, _saturate(rs, tops, words.blocks, budget), words, tops)


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
