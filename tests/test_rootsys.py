"""Root-system arithmetic, Weyl words, and subset machinery."""

import gc
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcubes.crystal import generate_crystal, highest_path
from crystalcubes.rootsys import (
    PRESETS,
    InvariantError,
    RootSystem,
    SubsetSequence,
    UnsupportedInputError,
    Weight,
    WordSequence,
)
from crystalcubes.stringpoly import multiplicity

import oracles


A1 = RootSystem.preset("A1")
A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")
A4 = RootSystem.preset("A4")


class TestCartanValidation:
    def test_presets_exist(self):
        for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "F4", "G2"):
            assert RootSystem.preset(name).n == int(name[1])

    @pytest.mark.parametrize("name,dims", [
        ("B2", (5, 4)), ("B3", (7, 21, 8)), ("C2", (4, 5)), ("C3", (6, 14, 14)), ("G2", (7, 14)),
    ])
    def test_non_simply_laced_fundamental_dimensions(self, name, dims):
        rs = RootSystem.preset(name)
        for i, want in enumerate(dims, start=1):
            assert rs.weyl_dimension(rs.fundamental_weight(i)) == want
            assert generate_crystal(rs, rs.fundamental_weight(i)).vertex_count == want

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            RootSystem.preset("E8")

    def test_affine_rejected(self):
        with pytest.raises(ValueError, match="not of finite type"):
            RootSystem([[2, -2], [-2, 2]])

    def test_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal entries must equal 2"):
            RootSystem([[1, -1], [-1, 2]])

    def test_positive_offdiag_rejected(self):
        with pytest.raises(ValueError, match="must be <= 0"):
            RootSystem([[2, 1], [-1, 2]])

    def test_zero_pairing_symmetry(self):
        with pytest.raises(ValueError, match="must vanish together"):
            RootSystem([[2, 0], [-1, 2]])

    def test_b2_accepted(self):
        rs = RootSystem([[2, -1], [-2, 2]])
        assert len(rs.positive_roots()) == 4

    def test_g2_accepted(self):
        rs = RootSystem([[2, -1], [-3, 2]])
        assert len(rs.positive_roots()) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            RootSystem([])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            RootSystem([[2, -1], [-1, 2, 0]])

    def test_non_symmetrizable_rejected(self):
        # d_1 c_13 = d_3 c_31 asks d_3 = d_1 / 2, while the path through 2 asks d_3 = d_1
        with pytest.raises(ValueError, match="not symmetrizable"):
            RootSystem([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]])

    def test_entries_read_as_integers(self):
        assert RootSystem([[np.int64(2), -1], [-1, 2]]).cartan == ((2, -1), (-1, 2))
        for bad in (-1.0, "-1", Fraction(-1)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                RootSystem([[2, bad], [-1, 2]])


def simply_laced_cartan(n, edges):
    """Cartan grid of a simply-laced Dynkin diagram on 1..n with the given edges."""
    grid = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        grid[i - 1][j - 1] = grid[j - 1][i - 1] = -1
    return grid


E_EDGES = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
EXCEPTIONAL_GRIDS = {
    "D4": simply_laced_cartan(4, [(1, 2), (2, 3), (2, 4)]),
    # entries[i][j] = ⟨α_{j+1}, α_{i+1}^∨⟩ with α_1, α_2 long (Bourbaki), and its transpose
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    "F4 transposed": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    **{f"E{n}": simply_laced_cartan(n, [e for e in E_EDGES if max(e) <= n]) for n in (6, 7, 8)},
}


@pytest.mark.parametrize("name,count,dim", [
    ("D4", 12, 28), ("F4", 24, 52), ("F4 transposed", 24, 52), ("E6", 36, 78), ("E7", 63, 133), ("E8", 120, 248),
])
def test_exceptional_positive_roots(name, count, dim):
    """|Δ⁺| pinned, and the adjoint module V(θ) of the highest root θ has dimension n + 2|Δ⁺|."""
    rs = RootSystem(EXCEPTIONAL_GRIDS[name])
    roots = rs.positive_roots()
    assert len(roots) == count
    assert len(rs.longest_word(range(1, rs.n + 1))) == count
    theta = max(roots, key=sum)
    c = rs.cartan
    assert rs.weyl_dimension(rs.weight([sum(b * c[i][j] for j, b in enumerate(theta)) for i in range(rs.n)])) == dim


class TestPairing:
    def test_fundamental(self):
        assert oracles.pairing(A3, A3.fundamental_weight(2), 2) == 1
        assert oracles.pairing(A3, A3.fundamental_weight(2), 1) == 0

    def test_coordinate_readoff(self):
        lam = A3.weight(1, 4, 0)
        assert oracles.pairing(A3, lam, 1) == 1

    def test_simple_root_column(self):
        alpha1 = A2.simple_root_as_weight(1)
        assert alpha1.coords == (2, -1)
        assert oracles.pairing(A2, alpha1, 2) == -1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            oracles.pairing(A2, A2.weight(1, 0), 3)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            oracles.pairing(A2, Weight((1, 0, 0)), 1)

    def test_plain_sequence(self):
        # read through RootSystem.weight, as every other method reads a weight
        assert oracles.pairing(A2, [1, 0], 1) == 1
        with pytest.raises(ValueError, match="weight needs 2 coordinates"):
            oracles.pairing(A2, [1, 0, 0], 1)


class TestSimpleRoots:
    def test_a2(self):
        assert A2.simple_root_as_weight(1).coords == (2, -1)

    def test_a3_middle(self):
        assert A3.simple_root_as_weight(2).coords == (-1, 2, -1)

    def test_a1(self):
        assert A1.simple_root_as_weight(1).coords == (2,)

    def test_pairing_against_cartan(self):
        for rs in (A2, A3, A4):
            c = rs.cartan
            for i in range(1, rs.n + 1):
                for j in range(1, rs.n + 1):
                    assert oracles.pairing(rs, rs.simple_root_as_weight(i), j) == c[j - 1][i - 1]


class TestPositiveRoots:
    def test_a2_set(self):
        assert set(A2.positive_roots()) == {(1, 0), (0, 1), (1, 1)}

    def test_counts(self):
        for n, rs in ((1, A1), (2, A2), (3, A3), (4, A4)):
            assert len(rs.positive_roots()) == n * (n + 1) // 2

    def test_a1(self):
        assert A1.positive_roots() == ((1,),)


def inversions(rs, word):
    """Positive roots that s_{i_1}...s_{i_N} sends negative, from its matrix on root coefficients.

    Their number is the Coxeter length: the definitional count, kept as the oracle
    for the descent walk of `is_reduced`.
    """
    c = rs.cartan
    cols = [tuple(int(r == j) for r in range(rs.n)) for j in range(rs.n)]  # column j: the image of α_j
    for i in reversed(word):
        cols = [
            tuple(b - sum(beta[j] * c[i - 1][j] for j in range(rs.n)) * (r == i - 1) for r, b in enumerate(beta))
            for beta in cols
        ]
    out = set()
    for beta in rs.positive_roots():
        image = [sum(beta[j] * cols[j][r] for j in range(rs.n)) for r in range(rs.n)]
        if all(x <= 0 for x in image):
            out.add(beta)
    return out


def is_reduced_for_longest_oracle(rs, word, subset):
    pos = set(rs.positive_roots_in(subset))
    return set(word) <= set(subset) and len(word) == len(pos) and inversions(rs, word) == pos


def brute_force_longest_words(rs, subset):
    """All words of length |Δ_I⁺| over I sending every positive root of Δ_I negative."""
    pos = rs.positive_roots_in(subset)
    return [word for word in product(subset, repeat=len(pos)) if is_reduced_for_longest_oracle(rs, word, subset)]


class TestLongestWord:
    def test_a3_12(self):
        assert A3.longest_word([1, 2]) == (1, 2, 1)

    def test_a3_singleton(self):
        assert A3.longest_word([3]) == (3,)

    def test_a2_brute_force(self):
        candidates = brute_force_longest_words(A2, (1, 2))
        assert A2.longest_word([1, 2]) in candidates
        assert (1, 2, 1) in candidates and (2, 1, 2) in candidates

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            A2.longest_word([])

    def test_length_and_inversions(self):
        for rs, subset in ((A3, (1, 2, 3)), (A4, (2, 3)), (A4, (1, 3)), (A2, (2,))):
            word = rs.longest_word(subset)
            assert len(word) == len(rs.positive_roots_in(subset))
            assert rs.is_reduced_word_for_longest(word, subset)

    def test_word_checked_once_per_subset(self, monkeypatch):
        rs = RootSystem.preset("A3")
        checks = []
        positive_roots_in = RootSystem.positive_roots_in
        monkeypatch.setattr(
            RootSystem, "positive_roots_in", lambda self, s: checks.append(s) or positive_roots_in(self, s)
        )
        assert rs.longest_word(range(1, 4)) == rs.longest_word([1, 2, 3]) == rs.longest_word((1, 2, 3))
        assert rs.longest_word([2]) == (2,)
        assert checks == [(1, 2, 3), (2,)]
        for bad in ([], [0], [3, 1], [1, 1]):
            with pytest.raises(ValueError):
                rs.longest_word(bad)

    def test_greedy_word_not_reduced_is_a_defect(self, monkeypatch):
        # a root set one short makes the greedy word too long for w_0: the guard raises
        rs = RootSystem.preset("A3")
        monkeypatch.setattr(rs, "positive_roots_in", lambda s: RootSystem.positive_roots_in(rs, s)[1:])
        with pytest.raises(InvariantError, match=r"greedy word \[1, 2, 1\] for \(1, 2\) is not a reduced word"):
            rs.longest_word([1, 2])
        assert rs._longest_words == {}

    def test_word_memo_holds_no_cycle(self):
        # the memos hold tuples only, so a dropped root system is freed by reference counting
        rs = RootSystem.preset("A3")
        rs.longest_word([1, 2, 3])
        rs.blocks([[1, 2]], [[2, 1, 2]])
        ref = weakref.ref(rs)
        gc.disable()
        try:
            del rs
            assert ref() is None
        finally:
            gc.enable()

    def test_is_reduced(self):
        assert A2.is_reduced((1, 2, 1))
        assert not A2.is_reduced((1, 1))
        assert A3.is_reduced(())
        # the walk would stop at the second 1; the bad letter must raise first
        with pytest.raises(IndexError):
            A2.is_reduced((5, 1, 1))


class TestTypeAEnumeration:
    def test_path_already(self):
        assert A3.type_a_enumeration([1, 2]) == (1, 2)

    def test_disconnected_rejected(self):
        with pytest.raises(UnsupportedInputError):
            A3.type_a_enumeration([1, 3])

    def test_tail(self):
        assert A3.type_a_enumeration([2, 3]) == (2, 3)

    def test_b2_rejected(self):
        rs = RootSystem([[2, -1], [-2, 2]])
        with pytest.raises(UnsupportedInputError):
            rs.type_a_enumeration([1, 2])

    def test_relation_holds(self):
        enum = A4.type_a_enumeration([1, 2, 3, 4])
        c = A4.cartan
        for s, u in enumerate(enum):
            for t, v in enumerate(enum):
                expected = 2 if s == t else (-1 if abs(s - t) == 1 else 0)
                assert c[v - 1][u - 1] == expected


REDUCIBLE_GRIDS = {
    "A1xA1": [[2, 0], [0, 2]],
    "A2xA1": [[2, -1, 0], [-1, 2, 0], [0, 0, 2]],
    "B2xA2": [[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
}


@pytest.mark.parametrize("grid", [*PRESETS.values(), *REDUCIBLE_GRIDS.values()], ids=[*PRESETS, *REDUCIBLE_GRIDS])
def test_type_a_enumeration_matches_permutation_search(grid):
    """On every subset I: the same order as the brute-force search, or the same error."""
    rs = RootSystem(grid)
    for mask in range(1, 2**rs.n):
        subset = tuple(i for i in range(1, rs.n + 1) if mask >> (i - 1) & 1)
        try:
            want = oracles.type_a_enumeration(rs, subset)
        except UnsupportedInputError as exc:
            with pytest.raises(UnsupportedInputError) as got:
                rs.type_a_enumeration(subset)
            assert str(got.value) == str(exc)
        else:
            assert rs.type_a_enumeration(subset) == want


class TestWeylDimension:
    def test_adjoint_a2(self):
        assert A2.weyl_dimension(A2.weight(1, 1)) == 8

    def test_trivial(self):
        assert A2.weyl_dimension(A2.zero_weight()) == 1

    def test_standard_a3(self):
        assert A3.weyl_dimension(A3.weight(1, 0, 0)) == 4
        assert A3.weyl_dimension(A3.weight(0, 1, 0)) == 6

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            A2.weyl_dimension(A2.weight(-1, 0))

    def test_plain_sequence(self):
        assert A2.weyl_dimension([1, 0]) == 3
        assert A2.weyl_dimension((1, 1)) == 8
        with pytest.raises(ValueError, match="weight needs 2 coordinates"):
            A2.weyl_dimension([1, 0, 0])

    def test_multiplicative_over_components(self):
        a1xa1 = RootSystem([[2, 0], [0, 2]])
        for a, b in product(range(4), repeat=2):
            assert a1xa1.weyl_dimension(a1xa1.weight(a, b)) == (a + 1) * (b + 1)

    def test_non_integral_result_is_a_defect(self):
        # a wrong symmetrizer gives 16/6 for ϖ1 of A2, which no dimension can be
        rs = RootSystem.preset("A2")
        rs._d = (1, 2)
        with pytest.raises(InvariantError, match=r"Weyl dimension of \(1, 0\) is not an integer: 8/3"):
            rs.weyl_dimension([1, 0])

    def test_b2_spin(self):
        rs = RootSystem([[2, -1], [-2, 2]])
        dims = sorted(rs.weyl_dimension(rs.weight(*w)) for w in [(1, 0), (0, 1)])
        assert dims == [4, 5] or dims == [4, 5][::-1]


class TestSequences:
    def test_subset_validation(self):
        assert A3.subsets([(1, 2), (3,)]).r == 2
        assert A3.blocks([(1, 2), (3,)])[0].r == 2
        for bad in ([(2, 1)], [(0,)]):
            with pytest.raises(ValueError):
                A3.subsets(bad)
            with pytest.raises(ValueError):
                A3.blocks(bad)
        with pytest.raises(ValueError):
            SubsetSequence([])

    def test_word_sequence_validation(self):
        subs = SubsetSequence([(1, 2), (3,)])
        A3.blocks(subs, [(1, 2, 1), (3,)])
        A3.blocks(subs, WordSequence([(2, 1, 2), (3,)]))
        with pytest.raises(ValueError):
            A3.blocks(subs, [(1, 2), (3,)])
        with pytest.raises(ValueError):
            A3.blocks(subs, [(1, 2, 1), (1,)])

    def test_word_pair_verified_once(self, monkeypatch):
        rs = RootSystem.preset("A3")
        checks = []
        check = RootSystem.is_reduced_word_for_longest
        monkeypatch.setattr(
            RootSystem, "is_reduced_word_for_longest", lambda self, w, s: checks.append((s, w)) or check(self, w, s)
        )
        subs = SubsetSequence([(1, 2), (3,)])
        for _ in range(2):
            rs.blocks(subs, [(2, 1, 2), (3,)])
        assert checks == [((1, 2), (2, 1, 2)), ((3,), (3,))]
        # a failing pair is never remembered: every call checks it again and raises the same error
        for attempt in range(1, 3):
            with pytest.raises(ValueError, match=r"block \(1, 2\) is not a reduced word for the longest element of W_\(1, 2\)"):
                rs.blocks([(1, 2), (1, 2)], [(2, 1, 2), (1, 2)])
            assert checks[2:] == [((1, 2), (1, 2))] * attempt

    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            SubsetSequence([(1, 2.0)])
        with pytest.raises(TypeError):
            WordSequence([(1.5, 2, 1)])
        with pytest.raises(TypeError):
            WordSequence(["121"])

    def test_blocks_resolver(self):
        subsets, words = A3.blocks([[1, 2], [3]])
        assert subsets == SubsetSequence([(1, 2), (3,)])
        assert words == WordSequence([(1, 2, 1), (3,)])
        assert A3.blocks(subsets, [[2, 1, 2], [3]]) == (subsets, WordSequence([(2, 1, 2), (3,)]))
        assert A3.blocks(subsets, words) == (subsets, words)
        assert A3.subsets([[1, 2], [3]]) == subsets
        with pytest.raises(ValueError, match="strictly increasing"):
            A3.blocks([[2, 1]])
        with pytest.raises(ValueError, match="not a reduced word"):
            A3.blocks(subsets, [[1, 2], [3]])
        with pytest.raises(ValueError, match="lengths differ"):
            A3.blocks(subsets, [[1, 2, 1]])

    def test_block_weights(self):
        subsets = SubsetSequence([(1, 2), (3,)])
        assert A3.block_weights(subsets, [[1, 0, 0], (0, -1, 2)]) == [Weight((1, 0, 0)), Weight((0, -1, 2))]
        assert A3.block_weights(subsets, [[1, 0, 0], [0, 1, 2]], dominant=True)[1] == Weight((0, 1, 2))
        with pytest.raises(ValueError, match="need one weight per subset"):
            A3.block_weights(subsets, [[1, 0, 0]])
        with pytest.raises(ValueError, match="weights must be dominant integral"):
            A3.block_weights(subsets, [[1, 0, 0], [0, -1, 2]], dominant=True)

    def test_auto_words(self):
        words = A3.blocks([(1, 2), (3,)])[1]
        assert words.blocks == ((1, 2, 1), (3,))
        assert words.flat == (1, 2, 1, 3)
        assert words.block_sizes == (3, 1)


class TestWeight:
    def test_arithmetic(self):
        w = Weight((1, 2)) + Weight((0, 1))
        assert w.coords == (1, 3)
        assert (2 * Weight((1, 0))).coords == (2, 0)
        assert (Weight((1, 1)) - Weight((2, 0))).coords == (-1, 1)

    def test_root_system_weight_accepts_weight(self):
        w = Weight((1, 0, 2))
        assert A3.weight(w) is w
        assert A3.weight([1, 0, 2]) == A3.weight(1, 0, 2) == w
        with pytest.raises(ValueError, match="needs 2 coordinates"):
            A2.weight(w)

    def test_integral_normalization(self):
        assert Weight((Fraction(4, 2),)).coords == (2,)

    def test_only_integers_read_as_coordinates(self):
        assert RootSystem.preset("A1").weight(np.int64(1)).coords == (1,)
        for bad in ("1", 1.0):
            with pytest.raises(TypeError, match=f"weight coordinates must be integers, not {type(bad).__name__}"):
                Weight((bad, 1))


# each reads a weight of A1 (as ν for multiplicity) through Weight, the one place that checks integrality
WEIGHT_READERS = {
    "Weight": lambda x: Weight((x,)).coords,
    "rs.weight": lambda x: A1.weight(x).coords,
    "block_weights": lambda x: A1.block_weights(A1.subsets([(1,)]), [[x]])[0].coords,
    "highest_path": lambda x: highest_path(A1, [x]).endpoint(),
    "weyl_dimension": lambda x: A1.weyl_dimension([x]),
    "pairing": lambda x: oracles.pairing(A1, [x], 1),
    "generate_crystal": lambda x: generate_crystal(A1, [x]).vertex_count,
    "multiplicity": lambda x: multiplicity(A1, [(1,)], [[2]], [x]),
}
WANT_AT_2 = {"Weight": (2,), "rs.weight": (2,), "block_weights": (2,), "highest_path": (2,), "weyl_dimension": 3,
             "pairing": 2, "generate_crystal": 3, "multiplicity": 1}


@pytest.mark.parametrize("reader", sorted(WEIGHT_READERS))
def test_weights_are_integral(reader):
    """Fraction(1, 2) is rejected wherever a weight is read; Fraction(4, 2) and np.int64(2) read as the int 2."""
    read = WEIGHT_READERS[reader]
    with pytest.raises(ValueError, match="weight coordinates must be integers, not 1/2"):
        read(Fraction(1, 2))
    for two in (Fraction(4, 2), np.int64(2), 2):
        value = read(two)
        assert value == WANT_AT_2[reader]
        assert all(type(c) is int for c in (value if isinstance(value, tuple) else (value,)))


PRESET_SYSTEMS = [RootSystem.preset(name) for name in PRESETS]


@st.composite
def preset_words(draw):
    """A preset and a random word of length at most |Δ⁺| + 1."""
    rs = draw(st.sampled_from(PRESET_SYSTEMS))
    return rs, tuple(draw(st.lists(st.integers(1, rs.n), max_size=len(rs.positive_roots()) + 1)))


@settings(max_examples=300, deadline=None)
@given(drawn=preset_words())
def test_is_reduced_matches_inversion_count(drawn):
    rs, word = drawn
    assert rs.is_reduced(word) == (len(inversions(rs, word)) == len(word))


@st.composite
def longest_word_candidates(draw):
    """A preset, a subset I and a word near the reduced words of w_0 in W_I: a random
    maximal descent walk from Σ_{i∈I} ϖ_i, then two adjacent letters swapped, or one
    letter replaced or dropped."""
    rs = draw(st.sampled_from(PRESET_SYSTEMS))
    subset = tuple(sorted(draw(st.sets(st.integers(1, rs.n), min_size=1))))
    v = tuple(int(k + 1 in subset) for k in range(rs.n))
    word = []
    while descents := [i for i in subset if v[i - 1] > 0]:
        i = draw(st.sampled_from(descents))
        word.append(i)
        v = rs.reflect(v, i)
    edit = draw(st.sampled_from(["none", "swap", "replace", "drop"]))
    if edit == "swap" and len(word) > 1:
        k = draw(st.integers(0, len(word) - 2))
        word[k], word[k + 1] = word[k + 1], word[k]
    elif edit == "replace":
        word[draw(st.integers(0, len(word) - 1))] = draw(st.integers(1, rs.n))
    elif edit == "drop":
        del word[draw(st.integers(0, len(word) - 1))]
    return rs, subset, tuple(word)


@settings(max_examples=300, deadline=None)
@given(drawn=longest_word_candidates())
def test_longest_word_check_matches_inversion_count(drawn):
    rs, subset, word = drawn
    assert rs.is_reduced(word) == (len(inversions(rs, word)) == len(word))
    assert rs.is_reduced_word_for_longest(word, subset) == is_reduced_for_longest_oracle(rs, word, subset)
