"""Lattice points, projected polytope, multiplicities, fibers."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crystalcubes import cli
from crystalcubes.crystal import TensorElement, _factors, epsilon, highest_path, is_highest
from crystalcubes.demazure import gen_demazure_crystal_weights
from crystalcubes.rootsys import (
    PRESETS,
    BudgetExceededError,
    RootSystem,
    SubsetSequence,
    UnsupportedInputError,
    WordSequence,
)
from crystalcubes.stringpoly import (
    component_count,
    fiber_string_points,
    hat_lattice_points,
    lattice_points,
    multiplicity,
    tensor_decompose,
)
from oracles import highest_weight_decompose, tensor_product_elements, untwisted_cube_points

A1 = RootSystem.preset("A1")
A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")
B2 = RootSystem([[2, -1], [-2, 2]])
C2 = RootSystem([[2, -2], [-1, 2]])
G2 = RootSystem([[2, -1], [-3, 2]])
B3 = RootSystem.preset("B3")

SL3_SUBSETS = [(1, 2), (1, 2)]
SL3_WORDS = [(1, 2, 1), (1, 2, 1)]
SL3_WORD = (1, 2, 1, 1, 2, 1)


def sl3_polytope_fixture(lam, mu):
    """Integer solutions of the six-line inequality system for Δ with the word
    (1,2,1,1,2,1): coordinates (x1,x2,x3,y1,y2,y3), all nonnegative."""
    l1, l2 = lam
    m1, m2 = mu
    points = set()
    for y3 in range(0, min(l2, m1) + 1):
        for y2 in range(y3, y3 + m2 + 1):
            for y1 in range(max(0, y2 - l2), min(l1, y2 - 2 * y3 + m1) + 1):
                x3_lo = max(0, y3 - l2, -y1 + y2 - l2)
                x3_hi = -2 * y1 + y2 - 2 * y3 + l1 + m1
                for x3 in range(x3_lo, x3_hi + 1):
                    x2_hi = x3 + y1 - 2 * y2 + y3 + l2 + m2
                    for x2 in range(x3, x2_hi + 1):
                        x1_hi = x2 - 2 * x3 - 2 * y1 + y2 - 2 * y3 + l1 + m1
                        for x1 in range(0, x1_hi + 1):
                            points.add((x1, x2, x3, y1, y2, y3))
    return points


def sl3_hat_fixture(lam, mu):
    """Integer solutions of the projected three-line system in (y1, y2, y3)."""
    l1, l2 = lam
    m1, m2 = mu
    points = set()
    for y3 in range(0, min(l2, m1) + 1):
        for y2 in range(y3, y3 + m2 + 1):
            for y1 in range(max(0, y2 - l2), min(l1, y2 - 2 * y3 + m1) + 1):
                points.add((y1, y2, y3))
    return points


class TestLatticePoints:
    def test_a1_string(self):
        assert lattice_points(A1, (1,), (2,)) == ((0,), (1,), (2,))

    def test_zero_vector(self):
        assert lattice_points(A2, (1, 2, 1), (0, 0, 0)) == ((0, 0, 0),)

    def test_sl3_two_sided(self):
        from crystalcubes.bundles import pullback_vector

        lam = A2.weight(1, 1)
        a = pullback_vector(A2, SubsetSequence(SL3_SUBSETS), WordSequence(SL3_WORDS), [lam, lam])
        computed = set(lattice_points(A2, SL3_WORD, a))
        expected = sl3_polytope_fixture((1, 1), (1, 1))
        assert computed == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lattice_points(A1, (1,), (-1,))

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError, match="level must be a positive integer"):
            lattice_points(A1, (1,), (1,), level=0)

    def test_csv_lines(self):
        assert cli._points_csv(lattice_points(A1, (1,), (1,))) == "x1_1\n0\n1\n"

    def test_iterator_word_keeps_its_blocks(self):
        points = lattice_points(A2, iter([1, 2]), (1, 1))
        assert points == lattice_points(A2, (1, 2), (1, 1))
        assert cli._points_csv(points).splitlines()[0] == "x1_1,x2_1"


def in_hull_1d(q, points):
    xs = [p[0] for p in points]
    return min(xs) <= q[0] <= max(xs)


def in_hull_2d(q, points):
    """Exact membership in the convex hull of 2-D rational points."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return q == pts[0]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Andrew monotone chain, exact
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    poly = lower[:-1] + upper[:-1]
    if len(poly) < 3:
        # degenerate: collinear set; check segment membership
        (x0, y0), (x1, y1) = min(pts), max(pts)
        if (x1 - x0) * (q[1] - y0) != (y1 - y0) * (q[0] - x0):
            return False
        return min(x0, x1) <= q[0] <= max(x0, x1) and min(y0, y1) <= q[1] <= max(y0, y1)
    for o, a in zip(poly, poly[1:] + poly[:1]):
        if cross(o, a, q) < 0:
            return False
    return True


class TestLevelScaling:
    def test_one_dimensional(self):
        base = lattice_points(A1, (1,), (2,), level=1)
        for k in (2, 3):
            scaled = lattice_points(A1, (1,), (2,), level=k)
            for p in scaled:
                assert in_hull_1d((Fraction(p[0], k),), base)

    def test_two_dimensional(self):
        word, a = (1, 2), (1, 1)
        base = lattice_points(A2, word, a, level=1)
        for k in (2, 3):
            scaled = lattice_points(A2, word, a, level=k)
            for p in scaled:
                q = (Fraction(p[0], k), Fraction(p[1], k))
                assert in_hull_2d(q, base)


class TestHatLatticePoints:
    def test_sl3_example(self):
        lam = A2.weight(1, 1)
        pts = hat_lattice_points(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
        assert set(pts) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 2, 1)}
        assert set(pts) == sl3_hat_fixture((1, 1), (1, 1))

    def test_zero_weights(self):
        pts = hat_lattice_points(A2, SL3_SUBSETS, [A2.zero_weight(), A2.zero_weight()], SL3_WORDS)
        assert pts == ((0, 0, 0),)

    def test_r1_dimension_zero(self):
        pts = hat_lattice_points(A2, [(1, 2)], [A2.weight(2, 1)])
        assert pts == ((),)

    def test_first_block_must_be_full(self):
        with pytest.raises(UnsupportedInputError):
            hat_lattice_points(A2, [(1,), (1, 2)], [A2.weight(1, 0), A2.weight(1, 1)])

    def test_hat_fixture_other_weights(self):
        lam, mu = A2.weight(2, 1), A2.weight(1, 1)
        pts = hat_lattice_points(A2, SL3_SUBSETS, [lam, mu], SL3_WORDS)
        assert set(pts) == sl3_hat_fixture((2, 1), (1, 1))


class TestMultiplicity:
    def test_cartan_component(self):
        lam = A2.weight(1, 1)
        assert multiplicity(A2, SL3_SUBSETS, [lam, lam], A2.weight(2, 2), SL3_WORDS) == 1

    def test_adjoint_multiplicity_two(self):
        lam = A2.weight(1, 1)
        assert multiplicity(A2, SL3_SUBSETS, [lam, lam], A2.weight(1, 1), SL3_WORDS) == 2

    def test_absent_weight(self):
        lam = A2.weight(1, 1)
        assert multiplicity(A2, SL3_SUBSETS, [lam, lam], A2.weight(2, 0), SL3_WORDS) == 0

    def test_refuses_partial_first_block(self):
        with pytest.raises(UnsupportedInputError):
            multiplicity(A2, [(1,), (1, 2)], [A2.weight(1, 0), A2.weight(1, 1)], A2.weight(0, 0))


class TestTensorDecompose:
    def test_paper_example(self):
        lam = A2.weight(1, 1)
        table = tensor_decompose(A2, [lam, lam])
        assert table.as_dict() == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}

    def test_tensor_with_trivial(self):
        lam = A2.weight(2, 1)
        assert tensor_decompose(A2, [lam, A2.zero_weight()]).as_dict() == {(2, 1): 1}

    def test_w1_w2(self):
        table = tensor_decompose(A2, [A2.weight(1, 0), A2.weight(0, 1)])
        assert table.as_dict() == {(1, 1): 1, (0, 0): 1}

    def test_single_factor(self):
        assert tensor_decompose(A3, [A3.weight(1, 0, 1)]).as_dict() == {(1, 0, 1): 1}

    def test_triple_product(self):
        weights = [A2.weight(1, 0)] * 3
        table = tensor_decompose(A2, weights)
        elems = tensor_product_elements(A2, weights)
        oracle = highest_weight_decompose(A2, elems)
        assert table.as_dict() == dict(oracle)

    def test_no_weights_rejected(self):
        with pytest.raises(ValueError, match="at least one weight"):
            tensor_decompose(A2, [])

    def test_json_keys(self):
        table = tensor_decompose(A2, [A2.weight(1, 0), A2.weight(0, 1)])
        assert cli._table_json(table) == {"1,1": 1, "0,0": 1}


class TestComponentCount:
    def test_sl3_six(self):
        lam = A2.weight(1, 1)
        assert component_count(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS) == 6

    def test_r1(self):
        assert component_count(A2, [(1, 2)], [A2.weight(2, 2)]) == 1

    def test_prepended_trivial(self):
        assert component_count(A2, [(1,), (2,)], [A2.zero_weight(), A2.zero_weight()]) == 1

    def test_prepend_matches_oracle(self):
        # components of B_{I,λ1,λ2} for I = ({1},{2}) via the prepended count
        lams = [A2.weight(1, 0), A2.weight(0, 1)]
        count = component_count(A2, [(1,), (2,)], lams)
        crystal = gen_demazure_crystal_weights(A2, SubsetSequence([(1,), (2,)]), lams)
        assert count == len(crystal.components())


class TestFiberStringPoints:
    def test_cartan_fiber_counts_dimension(self):
        lam = A2.weight(1, 1)
        fiber = fiber_string_points(A2, SL3_SUBSETS, [lam, lam], (0, 0, 0), SL3_WORDS)
        assert len(fiber) == A2.weyl_dimension(A2.weight(2, 2))

    def test_trivial_component_fiber(self):
        lam = A2.weight(1, 1)
        fiber = fiber_string_points(A2, SL3_SUBSETS, [lam, lam], (1, 2, 1), SL3_WORDS)
        assert fiber == ((0, 0, 0),)

    def test_adjoint_fibers(self):
        lam = A2.weight(1, 1)
        for x in [(1, 1, 0), (0, 1, 1)]:
            fiber = fiber_string_points(A2, SL3_SUBSETS, [lam, lam], x, SL3_WORDS)
            assert len(fiber) == 8

    def test_unattained_rejected(self):
        lam = A2.weight(1, 1)
        with pytest.raises(ValueError):
            fiber_string_points(A2, SL3_SUBSETS, [lam, lam], (5, 5, 5), SL3_WORDS)

    def test_component_size_checked_before_building(self, monkeypatch):
        """B(2,2) over x = (0,0,0) has 27 elements; a budget of 10 fails before the closure runs."""
        from crystalcubes import stringpoly

        def no_closure(*args):
            raise AssertionError("the component was built")

        monkeypatch.setattr(stringpoly, "_close", no_closure)
        lams = [A2.weight(2, 2), A2.weight(0, 0)]
        with pytest.raises(BudgetExceededError, match="component of 27 elements exceeds budget of 10 elements"):
            fiber_string_points(A2, [[1, 2], [1, 2]], lams, (0, 0, 0), budget=10)

    def test_fiber_partition(self):
        lam, mu = A2.weight(1, 1), A2.weight(1, 0)
        pts = hat_lattice_points(A2, SL3_SUBSETS, [lam, mu], SL3_WORDS)
        total = sum(len(fiber_string_points(A2, SL3_SUBSETS, [lam, mu], x, SL3_WORDS)) for x in pts)
        crystal = gen_demazure_crystal_weights(A2, SubsetSequence(SL3_SUBSETS), [lam, mu], WordSequence(SL3_WORDS))
        assert total == crystal.element_count


class TestAgainstCrystalOracle:
    def test_small_pairs(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for c1, c2 in product(coords, repeat=2):
            lam, mu = A2.weight(*c1), A2.weight(*c2)
            table = tensor_decompose(A2, [lam, mu])
            oracle = highest_weight_decompose(A2, tensor_product_elements(A2, [lam, mu]))
            assert table.as_dict() == dict(oracle), (c1, c2)

    def test_dimension_bookkeeping(self):
        for c1, c2 in [((1, 1), (1, 1)), ((2, 0), (0, 1)), ((2, 1), (1, 0))]:
            lam, mu = A2.weight(*c1), A2.weight(*c2)
            table = tensor_decompose(A2, [lam, mu])
            total = sum(c * A2.weyl_dimension(A2.weight(nu)) for nu, c in table.entries)
            assert total == A2.weyl_dimension(lam) * A2.weyl_dimension(mu)


def full_saturation_route(rs, subsets, lams, words):
    """The definitional route, kept as the oracle: Ω over all of B_{I,λ}, first block forgotten.

    Returns the crystal, the projected points, and the first-block heads over each point.
    """
    crystal = gen_demazure_crystal_weights(rs, SubsetSequence(subsets), lams, WordSequence(words))
    omegas = list(crystal.omega_map().values())
    head = len(crystal.words.blocks[0])
    hat = tuple(sorted({xs[head:] for xs in omegas}))
    fibers = {x: tuple(sorted({xs[:head] for xs in omegas if xs[head:] == x})) for x in hat}
    return crystal, hat, fibers


def decomposition_from_points(rs, lams, words, points):
    """ν = Σλ_k − Σ x_j α_{i_j} over the letters of blocks 2..r, counted per projected point."""
    letters = [i for block in words[1:] for i in block]
    counts = Counter()
    for x in points:
        nu = sum(lams[1:], start=lams[0])
        for i, m in zip(letters, x, strict=True):
            nu = nu - m * rs.simple_root_as_weight(i)
        counts[tuple(nu.coords)] += 1
    return dict(counts)


@st.composite
def reduced_longest_words(draw, rs, subset):
    """A reduced word of w0 of W_subset, grown one ascent at a time in drawn order."""
    target = len(rs.longest_word(subset))
    word: list = []
    while len(word) < target:
        ascents = [i for i in subset if rs.is_reduced(word + [i])]
        word.append(draw(st.sampled_from(ascents)))
    return tuple(word)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_highest_weight_route_matches_full_saturation(data):
    rs = data.draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    full = tuple(range(1, rs.n + 1))
    later = st.sampled_from([s for k in range(1, rs.n + 1) for s in combinations(full, k)])
    subsets = [full] + data.draw(st.lists(later, min_size=1, max_size=2), label="later blocks")
    lams = [rs.weight(*data.draw(st.tuples(*[st.integers(0, 1)] * rs.n))) for _ in subsets]
    assume(prod(rs.weyl_dimension(lam) for lam in lams) <= 800)
    if data.draw(st.booleans(), label="explicit words"):
        words = [data.draw(reduced_longest_words(rs, s)) for s in subsets]
    else:
        words = list(rs.blocks(subsets)[1].blocks)

    crystal, hat, fibers = full_saturation_route(rs, subsets, lams, words)
    assert hat_lattice_points(rs, subsets, lams, words) == hat
    x = data.draw(st.sampled_from(hat), label="projected point")
    assert fiber_string_points(rs, subsets, lams, x, words) == fibers[x]
    assert component_count(rs, subsets, lams, words) == len(hat) == len(crystal.components())
    counts = decomposition_from_points(rs, lams, words, hat)
    nu = data.draw(st.sampled_from(sorted(counts)), label="ν")
    assert multiplicity(rs, subsets, lams, rs.weight(nu), words) == counts[nu]

    full_words = [rs.longest_word(full)] * len(lams)
    _, full_hat, _ = full_saturation_route(rs, [full] * len(lams), lams, full_words)
    table = tensor_decompose(rs, lams).as_dict()
    assert table == decomposition_from_points(rs, lams, full_words, full_hat)
    assert table == dict(highest_weight_decompose(rs, tensor_product_elements(rs, lams)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_epsilon_bound_matches_highest_test_element_by_element(data):
    """b_{λ_1} ⊗ x is highest weight exactly when ε_i(x) ≤ ⟨λ_1, α_i^∨⟩ for every i, and the
    projected points are the Ω_X(x) of the x that pass."""
    rs = data.draw(st.sampled_from([A2, A3, B2, C2, G2, B3]), label="root system")
    full = tuple(range(1, rs.n + 1))
    later = st.sampled_from([s for k in range(1, rs.n + 1) for s in combinations(full, k)])
    subsets = data.draw(st.lists(later, min_size=1, max_size=2), label="later blocks")
    words = [data.draw(reduced_longest_words(rs, s)) for s in subsets]
    lam1 = rs.weight(*data.draw(st.tuples(*[st.integers(0, 2)] * rs.n), label="λ_1"))
    lams = [rs.weight(*data.draw(st.tuples(*[st.integers(0, 1)] * rs.n))) for _ in subsets]
    assume(prod(rs.weyl_dimension(lam) for lam in lams) <= 400)

    top = highest_path(rs, lam1)
    passing = 0
    for x in gen_demazure_crystal_weights(rs, subsets, lams, words).elements:
        bound = all(epsilon(rs, x, i) <= lam1.coords[i - 1] for i in full)
        assert bound == is_highest(rs, TensorElement((top,) + _factors(x)))  # x is a bare path for one block
        passing += bound
    hat = hat_lattice_points(rs, [full] + subsets, [lam1] + lams, [rs.longest_word(full)] + words)
    assert len(hat) == passing


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)), data=st.data())
def test_untwisted_cube_is_the_string_polytope(name, data):
    """When enumerating the twisted cube of (i, a) from x_N down meets no lattice prefix with
    some A_l ≥ 2, the Ω-image of B_{i,a} is the cube's lattice points, negated, as a set
    (Harada-Yang, Michigan Math. J. 65, 2016).  Twisted cubes are drawn and discarded."""
    rs = RootSystem.preset(name)
    word = data.draw(st.lists(st.integers(1, rs.n), min_size=1, max_size=6), label="word")
    a = data.draw(st.lists(st.integers(0, 2), min_size=len(word), max_size=len(word)), label="a")
    points = untwisted_cube_points(rs, word, a)
    assume(points is not None)
    assert lattice_points(rs, word, a) == tuple(sorted(tuple(-x for x in p) for p in points))
