"""Pullback vectors, shift weight, degeneration and tower vectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcubes.bundles import (
    bundle_report,
    degeneration_vectors,
    flag_bott_vectors,
    mu_weight,
    pullback_vector,
)
from crystalcubes.demazure import gen_demazure_crystal, gen_demazure_crystal_weights
from crystalcubes.rootsys import RootSystem, SubsetSequence, UnsupportedInputError, WordSequence
from crystalcubes.twistedcube import TwistedCube

import oracles

A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")

I_A3 = SubsetSequence([(1, 2), (3,)])
W_A3 = WordSequence([(1, 2, 1), (3,)])


def random_dominant(rs, rng, top=5):
    return rs.weight([rng.randint(0, top) for _ in range(rs.n)])


class TestPullbackVector:
    def test_symbolic_example_random_weights(self):
        # (a1(1), a1(2), a1(3), a2(1)) = (0, ⟨λ1+λ2, α2^∨⟩, ⟨λ1+λ2, α1^∨⟩, ⟨λ2, α3^∨⟩)
        rng = random.Random(20240811)
        for _ in range(10):
            l1, l2 = random_dominant(A3, rng), random_dominant(A3, rng)
            vec = pullback_vector(A3, I_A3, W_A3, [l1, l2])
            expected = (
                (
                    0,
                    oracles.pairing(A3, l1, 2) + oracles.pairing(A3, l2, 2),
                    oracles.pairing(A3, l1, 1) + oracles.pairing(A3, l2, 1),
                ),
                (oracles.pairing(A3, l2, 3),),
            )
            assert oracles.split_blocks(vec, W_A3.block_sizes) == expected

    def test_rank_one_block(self):
        lam = A3.weight(0, 3, 1)
        vec = pullback_vector(A3, SubsetSequence([(2,)]), WordSequence([(2,)]), [lam])
        assert vec == (3,)

    def test_zero_weights(self):
        zero = A3.zero_weight()
        vec = pullback_vector(A3, I_A3, W_A3, [zero, zero])
        assert vec == (0, 0, 0, 0)

    def test_support_at_last_occurrences_only(self):
        rng = random.Random(7)
        for _ in range(20):
            subsets, words = A3.blocks([(1, 2), (1, 2, 3)])
            lams = [random_dominant(A3, rng), random_dominant(A3, rng)]
            vec = pullback_vector(A3, subsets, words, lams)
            for block, row in zip(words.blocks, oracles.split_blocks(vec, words.block_sizes), strict=True):
                for l, value in enumerate(row):
                    is_last = l == max(q for q, t in enumerate(block) if t == block[l])
                    if not is_last:
                        assert value == 0

    def test_nonnegative_for_dominant(self):
        rng = random.Random(99)
        for _ in range(10):
            lams = [random_dominant(A3, rng), random_dominant(A3, rng)]
            vec = pullback_vector(A3, I_A3, W_A3, lams)
            assert all(x >= 0 for x in vec)

    def test_reappearing_letter_blocks_later_contribution(self):
        # s = 1 reappears in block 2, so λ2 must not contribute at block 1
        subsets = SubsetSequence([(1,), (1,)])
        words = WordSequence([(1,), (1,)])
        l1, l2 = A2.weight(2, 0), A2.weight(3, 0)
        vec = pullback_vector(A2, subsets, words, [l1, l2])
        assert oracles.split_blocks(vec, words.block_sizes) == ((2,), (3,))


class TestMuWeight:
    def test_escaping_coordinate(self):
        l1, l2 = A3.weight(1, 2, 5), A3.weight(0, 0, 2)
        mu = mu_weight(A3, I_A3, W_A3, [l1, l2])
        assert mu.coords == (0, 0, 5)  # only s=3 at j=1 escapes {1,2}

    def test_full_cover_gives_zero(self):
        subsets, words = A3.blocks([(1, 2, 3)])
        mu = mu_weight(A3, subsets, words, [A3.weight(4, 5, 6)])
        assert mu.coords == (0, 0, 0)

    def test_zero_weights(self):
        mu = mu_weight(A3, I_A3, W_A3, [A3.zero_weight(), A3.zero_weight()])
        assert mu.coords == (0, 0, 0)


class TestDegenerationVectors:
    def test_a2_adjoint(self):
        vecs = degeneration_vectors(A2, SubsetSequence([(1, 2)]), [A2.weight(1, 1)])
        assert vecs == [(2, 1, 0)]

    def test_zero_weights(self):
        vecs = degeneration_vectors(A3, I_A3, [A3.zero_weight(), A3.zero_weight()])
        assert vecs == [(0, 0, 0), (0, 0)]

    def test_single_letter_block(self):
        vecs = degeneration_vectors(A3, I_A3, [A3.zero_weight(), A3.weight(0, 0, 1)])
        assert vecs[1] == (1, 0)

    def test_tail_sum(self):
        # block 1 sees λ1 + λ2
        vecs = degeneration_vectors(A3, I_A3, [A3.weight(1, 0, 0), A3.weight(0, 1, 0)])
        lam = A3.weight(1, 1, 0)
        assert vecs[0] == (
            oracles.pairing(A3, lam, 1) + oracles.pairing(A3, lam, 2),
            oracles.pairing(A3, lam, 2),
            0,
        )

    def test_non_type_a_rejected(self):
        with pytest.raises(UnsupportedInputError):
            degeneration_vectors(A3, SubsetSequence([(1, 3)]), [A3.weight(1, 1, 1)])
        b3 = RootSystem.preset("B3")  # the first block not of type A is the one named
        with pytest.raises(UnsupportedInputError, match=r"Levi on \(2, 3\) "):
            degeneration_vectors(b3, [(1,), (2, 3), (1, 2, 3)], [b3.zero_weight()] * 3)

    def test_nonnegative_for_dominant(self):
        rng = random.Random(3)
        for _ in range(10):
            lams = [random_dominant(A3, rng), random_dominant(A3, rng)]
            for vec in degeneration_vectors(A3, I_A3, lams):
                assert all(x >= 0 for x in vec)


class TestFlagBottVectors:
    def test_paper_example(self):
        tower = flag_bott_vectors(A3, SubsetSequence([(1, 2), (1, 2)]))
        assert tower[(2, 1)][0] == (2, 1, 0)
        assert tower[(2, 1)][1] == (1, 2, 0)
        assert tower[(2, 1)][2] == (0, 0, 0)

    def test_singleton_remark(self):
        tower = flag_bott_vectors(A3, SubsetSequence([(1,), (2,)]))
        c = A3.cartan
        assert tower[(2, 1)] == ((c[0][1], 0), (0, 0))

    def test_r1_empty(self):
        tower = flag_bott_vectors(A3, SubsetSequence([(1, 2, 3)]))
        assert tower == {}

    def test_entry_bound(self):
        tower = flag_bott_vectors(A3, SubsetSequence([(1, 2, 3), (1, 2, 3)]))
        for vecs in tower.values():
            for vec in vecs:
                assert all(abs(x) <= 2 * 3 for x in vec)

    def test_non_type_a_rejected(self):
        with pytest.raises(UnsupportedInputError):
            flag_bott_vectors(A3, SubsetSequence([(1, 3), (2,)]))


OMEGA_SYSTEMS = [RootSystem.preset(name) for name in ("A2", "A3", "B2", "C2", "G2", "B3")]


def draw_blocks(draw, rs, count):
    """`count` random subsets I of [n], each with a random reduced word of the longest
    element of W_I: a maximal descent walk from Σ_{i∈I} ϖ_i."""
    subsets, words = [], []
    for _ in range(count):
        subset = tuple(sorted(draw(st.sets(st.integers(1, rs.n), min_size=1))))
        v = tuple(int(k + 1 in subset) for k in range(rs.n))
        word = []
        while descents := [i for i in subset if v[i - 1] > 0]:
            word.append(draw(st.sampled_from(descents)))
            v = rs.reflect(v, word[-1])
        assert rs.is_reduced_word_for_longest(word, subset)
        subsets.append(subset)
        words.append(tuple(word))
    return subsets, words


@st.composite
def block_shapes(draw):
    """A preset, 1-3 random subsets, their random words (`draw_blocks`) or None for the
    default words, and dominant weights with coordinates in 0..2."""
    rs = draw(st.sampled_from(OMEGA_SYSTEMS))
    subsets, words = draw_blocks(draw, rs, draw(st.integers(1, 3)))
    lams = [rs.weight(draw(st.lists(st.integers(0, 2), min_size=rs.n, max_size=rs.n))) for _ in subsets]
    return rs, subsets, words if draw(st.booleans()) else None, lams


class TestCrystalConsistency:
    @settings(max_examples=150, deadline=None)
    @given(drawn=block_shapes())
    def test_omega_image_matches_weights_construction(self, drawn):
        """Ω(B_{I,λ}) = Ω(B_{i,a}) for i the flat words and a the pullback vector, and both
        crystals have as many elements as the signed lattice count of the twisted cube of
        (i, a).  The count sizes each case first: one over 20,000 is skipped unbuilt."""
        rs, subsets, words, lams = drawn
        subsets, words = rs.blocks(subsets, words)
        a = pullback_vector(rs, subsets, words, lams)
        count = TwistedCube(rs, words.flat, a).signed_lattice_count()
        if count > 20_000:
            return
        flat = gen_demazure_crystal(rs, words.flat, a, budget=20_000)
        blocked = gen_demazure_crystal_weights(rs, subsets, lams, words, budget=20_000)
        assert count == flat.element_count == blocked.element_count
        assert flat.omega_vectors() == blocked.omega_vectors()

    def test_bundle_report_shape(self):
        report = bundle_report(A3, I_A3, [A3.weight(2, 4, 0), A3.weight(0, 0, 2)], W_A3)
        assert report["pullback_vector"] == [[0, 4, 2], [2]]
        assert report["mu"] == [0, 0, 0]
        assert set(report) == {"words", "pullback_vector", "mu", "degeneration_vectors", "tower_vectors"}


BUNDLE_SYSTEMS = [RootSystem.preset(name) for name in ("A2", "A3", "A4", "B3", "C3", "G2", "D4", "F4")]


@st.composite
def bundle_shapes(draw):
    """A preset, 1-4 random subsets, their random words (`draw_blocks`) or None for the
    default words, and weights with coordinates in -3..3."""
    rs = draw(st.sampled_from(BUNDLE_SYSTEMS))
    subsets, words = draw_blocks(draw, rs, draw(st.integers(1, 4)))
    coords = st.lists(st.integers(-3, 3), min_size=rs.n, max_size=rs.n)
    lams = [rs.weight(draw(coords)) for _ in subsets]
    return rs, subsets, words if draw(st.booleans()) else None, lams


def outcome(f, *args):
    """f's value, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(drawn=bundle_shapes())
def test_bundle_vectors_match_formula_oracles(drawn):
    rs, subsets, words, lams = drawn
    a = pullback_vector(rs, subsets, words, lams)
    mu = mu_weight(rs, subsets, words, lams)
    resolved = rs.blocks(subsets, words)[1]
    assert type(a) is tuple and len(a) == len(resolved.flat)
    assert oracles.split_blocks(a, resolved.block_sizes) == oracles.pullback_vector(rs, subsets, words, lams)
    assert mu == oracles.mu_weight(rs, subsets, words, lams)
    for s in range(1, rs.n + 1):
        owned = sum(x for x, t in zip(a, resolved.flat) if t == s)
        assert owned + mu.coords[s - 1] == sum(oracles.pairing(rs, lam, s) for lam in lams)
    assert outcome(degeneration_vectors, rs, subsets, lams) == outcome(oracles.degeneration_vectors, rs, subsets, lams)
    assert outcome(flag_bott_vectors, rs, subsets) == outcome(oracles.flag_bott_vectors, rs, subsets)
