"""Twisted cubes: density, exact measure, lattice counts, Monte Carlo."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalcubes import twistedcube
from crystalcubes.bundles import pullback_vector
from crystalcubes.cli import _histogram_svg, main
from crystalcubes.demazure import gen_demazure_crystal
from crystalcubes.rootsys import InvariantError, RootSystem, SubsetSequence, WordSequence
from crystalcubes.twistedcube import (
    MVPolynomial,
    ProjectionMap,
    TwistedCube,
    mc_histogram,
    projected_box,
    projection_map,
)

A1 = RootSystem.preset("A1")
A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")
A4 = RootSystem.preset("A4")
B2_GRID = [[2, -1], [-2, 2]]
B2 = RootSystem(B2_GRID)
C2 = RootSystem([[2, -2], [-1, 2]])
G2 = RootSystem([[2, -1], [-3, 2]])

SL4_CUBE = TwistedCube(A3, (1, 2, 1, 3), (0, 4, 2, 2))
SL4_PROJ = projection_map(A3, SubsetSequence([(1, 2), (3,)]), WordSequence([(1, 2, 1), (3,)]))
A2_CUBE = TwistedCube(A2, (1, 2, 1), (1, 1, 1))  # signed volume 5/2


def identity_projection(n):
    """The n x n identity: `projection_map` on the singleton blocks of any word of length n."""
    return ProjectionMap(tuple(tuple(int(c == r) for c in range(n)) for r in range(n)))


def bound_value(cube, l, x):
    """A_l at the point x, exactly."""
    const, coeffs = cube.forms[l]
    return const + sum(c * x[j] for j, c in coeffs.items())


def density(cube, x):
    """ρ(x) ∈ {-1, 0, +1}, zero outside the region: the pointwise definition, kept as the
    oracle for the sampler's support and the exact sums."""
    x = tuple(Fraction(v) for v in x)
    sign_product = 1
    for l in range(cube.dim - 1, -1, -1):
        bound = bound_value(cube, l, x)
        if not (bound <= x[l] <= 0 or 0 < x[l] < bound):
            return 0
        sign_product *= -1 if x[l] <= 0 else 1
    return (-1) ** cube.dim * sign_product


class TestBoundForms:
    def test_triangular_dependence(self):
        # A_N constant; A_l involves only later coordinates; integer constants
        for l, (const, coeffs) in enumerate(SL4_CUBE.forms):
            assert const.denominator == 1
            assert all(j > l for j in coeffs)
        assert SL4_CUBE.forms[-1][1] == {}

    def test_sl4_forms_by_hand(self):
        assert SL4_CUBE.forms[0] == (Fraction(-2), {1: 1, 2: -2})
        assert SL4_CUBE.forms[1] == (Fraction(-4), {2: 1, 3: 1})
        assert SL4_CUBE.forms[2] == (Fraction(-2), {})
        assert SL4_CUBE.forms[3] == (Fraction(-2), {})

    def test_word_and_vector_lengths_must_agree(self):
        with pytest.raises(ValueError, match="word and integer vector lengths differ"):
            TwistedCube(A2, (1, 2, 1), (1, 1))


class TestDensity:
    def test_one_dim_closed_branch(self):
        cube = TwistedCube(A1, (1,), (2,))
        assert density(cube, (-1,)) == 1
        assert density(cube, (0,)) == 1
        assert density(cube, (-2,)) == 1

    def test_outside_region(self):
        cube = TwistedCube(A1, (1,), (2,))
        assert density(cube, (1,)) == 0
        assert density(cube, (-3,)) == 0

    def test_a2_interior_point(self):
        cube = TwistedCube(A2, (1, 2), (1, 1))
        assert density(cube, (Fraction(-1, 2), Fraction(-1, 2))) == 1

    def test_open_branch_sign(self):
        cube = TwistedCube(A1, (1,), (-2,))
        # A1 = 2 > 0: open branch (0, 2), sign +1, density (-1)^1 * (+1) = -1
        assert density(cube, (1,)) == -1
        assert density(cube, (0,)) == 0
        assert density(cube, (2,)) == 0


class TestSignedVolume:
    def test_interval(self):
        for a in range(4):
            assert TwistedCube(A1, (1,), (a,)).signed_volume() == a

    def test_degenerate(self):
        assert TwistedCube(A1, (1,), (0,)).signed_volume() == 0

    def test_negative_entry(self):
        assert TwistedCube(A1, (1,), (-2,)).signed_volume() == -2

    def test_a2_by_hand(self):
        # x2 in [-1,0], x1 in [-1+x2, 0], all density +1: ∫ (1 - x2) dx2 = 3/2
        assert TwistedCube(A2, (1, 2), (1, 1)).signed_volume() == Fraction(3, 2)

    def test_matches_monte_carlo(self):
        for word, a in [((1, 2), (2, 1)), ((1, 2, 1), (1, 1, 1)), ((1, 2, 1, 3), (0, 4, 2, 2))]:
            rs = A2 if max(word) <= 2 else A3
            cube = TwistedCube(rs, word, a)
            exact = float(cube.signed_volume())
            est, err = cube.mc_volume(100_000, seed=11)
            assert abs(est - exact) < 4 * err

    @pytest.mark.parametrize("name,subsets,lams", [
        ("G2", [[1, 2]], [(1, 1)]),
        ("A4", [[1, 2, 3, 4]], [(1, 1, 1, 1)]),
        ("A3", [[1, 2, 3], [1, 2]], [(1, 1, 1), (1, 1, 0)]),
    ], ids=["G2-flag", "A4-flag-rho", "A3-two-block"])
    def test_flag_cube_monte_carlo_is_not_a_confident_zero(self, name, subsets, lams):
        """Uniform samples over the bounding box, which outgrows these cubes a
        million-fold, all missed the support and gave (0.0, 0.0)."""
        rs = RootSystem.preset(name)
        _, words = rs.blocks(subsets)
        cube = TwistedCube(rs, words.flat, pullback_vector(rs, subsets, None, lams))
        exact = float(cube.signed_volume())
        est, err = cube.mc_volume(100_000, seed=11)
        assert err > 0 and abs(est - exact) < 4 * err


class TestSignedLatticeCount:
    def test_one_dim(self):
        assert TwistedCube(A1, (1,), (2,)).signed_lattice_count() == 3

    def test_open_branch_excludes_endpoints(self):
        assert TwistedCube(A1, (1,), (-1,)).signed_lattice_count() == 0
        assert TwistedCube(A1, (1,), (-2,)).signed_lattice_count() == -1

    def test_matches_crystal_cardinality(self):
        """Every word over {1, 2} of length at most 3 with a in {0, 1, 2}^len, on A2, B2, C2 and G2."""
        for rs in (A2, B2, C2, G2):
            for word in (w for n in (1, 2, 3) for w in product((1, 2), repeat=n)):
                for a in product(range(3), repeat=len(word)):
                    cube = TwistedCube(rs, word, a)
                    crystal = gen_demazure_crystal(rs, word, a)
                    assert cube.signed_lattice_count() == crystal.element_count, (rs.cartan, word, a)

    def test_non_integral_count_is_a_defect(self, monkeypatch):
        cube = TwistedCube(A1, (1,), (2,))
        monkeypatch.setattr(cube, "_sum_out", lambda *args: Fraction(5, 2))
        with pytest.raises(InvariantError, match="signed lattice count 5/2 is not an integer"):
            cube.signed_lattice_count()

    def test_sl4_example(self):
        assert SL4_CUBE.signed_lattice_count() == gen_demazure_crystal(A3, (1, 2, 1, 3), (0, 4, 2, 2)).element_count


class TestUntwistedCase:
    def test_density_nonnegative_when_dominant(self):
        cube = TwistedCube(A2, (1, 2), (1, 1))
        _, weights = cube.mc_sample(np.random.default_rng(5), 2000)
        assert (weights >= 0).all()

    def test_signed_equals_plain_count(self):
        cube = TwistedCube(A2, (1, 2), (1, 1))
        plain = 0
        for x2 in range(-5, 1):
            for x1 in range(-5, 1):
                plain += abs(density(cube, (x1, x2)))
        assert cube.signed_lattice_count() == plain


class TestProjectionMap:
    def test_paper_matrix(self):
        assert SL4_PROJ.matrix == ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))

    def test_singleton_blocks_identity(self):
        proj = projection_map(A2, SubsetSequence([(1,), (2,)]))
        assert proj.matrix == ((1, 0), (0, 1))

    def test_repeated_singleton_blocks(self):
        proj = projection_map(A2, SubsetSequence([(1,), (1,)]))
        assert proj.matrix == ((1, 0), (0, 1))

    def test_identity_helper(self):
        assert identity_projection(3).matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for rs, word in [(A2, (1, 2, 1)), (B2, (2, 2, 1)), (G2, (1,))]:
            assert projection_map(rs, [(i,) for i in word]) == identity_projection(len(word))

    def test_column_structure(self):
        proj = projection_map(A3, SubsetSequence([(1, 2, 3), (1, 3)]))
        for col in zip(*proj.matrix):
            assert sum(col) == 1 and set(col) <= {0, 1}

    def test_matrix_read_when_made(self):
        """Rows become tuples of plain ints when the map is made; no rows, rows of two
        lengths, or a float or Fraction entry are refused there."""
        proj = ProjectionMap([[np.int64(2), -1], (0, np.int8(3))])
        assert proj.matrix == ((2, -1), (0, 3)) and proj.rows == 2
        assert all(type(c) is int for row in proj.matrix for c in row)
        for matrix in [(), ((1, 0), (1,)), ((), (1,))]:
            with pytest.raises(ValueError, match="one or more rows, all of one length"):
                ProjectionMap(matrix)
        for matrix in [((1, 0.5),), ((1, 0), (Fraction(1), 0))]:
            with pytest.raises(TypeError):
                ProjectionMap(matrix)


class TestMoments:
    def test_zero_index_is_volume(self):
        for word, a in [((1, 2), (1, 1)), ((1, 2, 1, 3), (0, 4, 2, 2))]:
            rs = A2 if max(word) <= 2 else A3
            cube = TwistedCube(rs, word, a)
            proj = identity_projection(len(word))
            assert cube.pushforward_moments(proj, (0,) * len(word)) == cube.signed_volume()

    def test_one_dim_first_moment(self):
        cube = TwistedCube(A1, (1,), (2,))
        assert cube.pushforward_moments(identity_projection(1), (1,)) == -2

    def test_sl4_first_moments_vs_mc(self):
        for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            exact = float(SL4_CUBE.pushforward_moments(SL4_PROJ, m))
            est, err = SL4_CUBE.mc_moment(SL4_PROJ, m, 100_000, seed=23)
            assert abs(est - exact) < 4 * err, m

    def test_bad_multi_index(self):
        with pytest.raises(ValueError):
            SL4_CUBE.pushforward_moments(SL4_PROJ, (1, 0))
        with pytest.raises(ValueError):
            SL4_CUBE.pushforward_moments(SL4_PROJ, (-1, 0, 0))
        with pytest.raises(TypeError):
            SL4_CUBE.pushforward_moments(SL4_PROJ, (1.5, 0, 0))
        with pytest.raises(TypeError):
            SL4_CUBE.mc_moment(SL4_PROJ, (1.5, 0, 0), 100, seed=1)

    @pytest.mark.parametrize("projection,m,bad_matrix", [
        (identity_projection(3), (1,), False),
        (identity_projection(3), (-1, 0, 0), False),
        (identity_projection(4), (1, 0, 0, 0), True),
    ], ids=["short", "negative", "wide"])
    def test_mc_moment_checks_multi_index_as_exact(self, projection, m, bad_matrix):
        """A bad multi-index, or rows of the wrong width, give one message on every route;
        the histogram routes take no multi-index, so they see only the wrong width."""
        cube = TwistedCube(A2, (1, 2, 1), (1, 1, 1))
        with pytest.raises(ValueError) as exact:
            cube.pushforward_moments(projection, m)
        with pytest.raises(ValueError) as estimate:
            cube.mc_moment(projection, m, 1000, 1)
        assert str(estimate.value) == str(exact.value)
        if bad_matrix:
            with pytest.raises(ValueError) as histogram:
                mc_histogram(cube, projection, 4, 1000, 1)
            with pytest.raises(ValueError) as box:
                projected_box(cube, projection)
            assert str(histogram.value) == str(box.value) == str(exact.value)

    @pytest.mark.parametrize("matrix,m,error", [
        (((1, 1, 1), (1, 1)), (1, 0), ValueError),
        (((1, 1, 1), (1, 1)), (0, 1), ValueError),
        (((1, 0.1, 1), (1, 1, 0)), (1, 0), TypeError),
        (((1, 1, 1), (1, 0.1, 0)), (1, 0), TypeError),
        (((1, Fraction(1, 2), 1), (1, 1, 0)), (1, 0), TypeError),
        ((), (), ValueError),
    ], ids=["ragged-unread-row", "ragged-read-row", "float-entry", "float-in-unread-row", "fraction-entry",
            "empty"])
    def test_matrix_rows_checked_on_both_routes(self, matrix, m, error):
        """Every row holds N integer entries on the exact, the Monte Carlo and the histogram
        route: a short row that m does not raise, a float entry or no row at all must give
        no 'exact' moment, no histogram and no box."""
        cube = TwistedCube(A2, (1, 2, 1), (1, 1, 1))
        with pytest.raises(error):
            cube.pushforward_moments(ProjectionMap(matrix), m)
        with pytest.raises(error):
            cube.mc_moment(ProjectionMap(matrix), m, 100, 1)
        with pytest.raises(error):
            mc_histogram(cube, ProjectionMap(matrix), 4, 100, 1)
        with pytest.raises(error):
            projected_box(cube, ProjectionMap(matrix))

    def test_numpy_int_matrix_reads_as_plain_ints(self):
        """NumPy integer entries are read as Python ints, so no coefficient is an int64."""
        proj = ProjectionMap(tuple(tuple(np.int64(c) for c in row) for row in SL4_PROJ.matrix))
        got = SL4_CUBE.pushforward_moments(proj, (3, 2, 1))
        assert got == SL4_CUBE.pushforward_moments(SL4_PROJ, (3, 2, 1))
        assert type(got.numerator) is int and type(got.denominator) is int
        assert SL4_CUBE.mc_moment(proj, (1, 0, 0), 1000, 1) == SL4_CUBE.mc_moment(SL4_PROJ, (1, 0, 0), 1000, 1)


class TestMonteCarloHistogram:
    def test_zero_vector_all_bins_zero(self):
        cube = TwistedCube(A1, (1,), (0,))
        hist = mc_histogram(cube, identity_projection(1), 8, 1000, seed=1)
        assert hist.total() == 0.0

    def test_one_dim_total(self):
        cube = TwistedCube(A1, (1,), (2,))
        hist = mc_histogram(cube, identity_projection(1), 16, 100_000, seed=3)
        box = cube.bounding_box()
        vol = float(box[0][1] - box[0][0])
        err = vol / math.sqrt(100_000)
        assert abs(hist.total() - 2.0) < 4 * err

    def test_deterministic_for_fixed_seed(self):
        cube = TwistedCube(A2, (1, 2), (1, 1))
        proj = identity_projection(2)
        h1 = mc_histogram(cube, proj, 10, 20_000, seed=42)
        h2 = mc_histogram(cube, proj, 10, 20_000, seed=42)
        assert (h1.values == h2.values).all()
        h3 = mc_histogram(cube, proj, 10, 20_000, seed=43)
        assert (h1.values != h3.values).any()

    def test_sharded_merge_deterministic(self):
        cube = TwistedCube(A2, (1, 2), (1, 1))
        proj = identity_projection(2)
        h1 = mc_histogram(cube, proj, 10, 20_000, seed=42, shards=4)
        h2 = mc_histogram(cube, proj, 10, 20_000, seed=42, shards=4)
        assert (h1.values == h2.values).all()
        # a NumPy int reads as a plain one, for a lone bin count as for samples and shards
        h3 = mc_histogram(cube, proj, np.int64(10), np.int64(20_000), seed=42, shards=np.int64(4))
        assert h3.values.tobytes() == h1.values.tobytes() and h3.edges == h1.edges

    def test_zero_samples_rejected(self):
        cube = TwistedCube(A1, (1,), (2,))
        with pytest.raises(ValueError):
            mc_histogram(cube, identity_projection(1), 8, 0, seed=1)

    def test_shards_must_divide_samples(self):
        cube = TwistedCube(A1, (1,), (2,))
        with pytest.raises(ValueError, match="shards must divide the sample count"):
            mc_histogram(cube, identity_projection(1), 8, 10, seed=1, shards=3)

    @pytest.mark.parametrize("bins", [(4, 4), (4, 0), 0])
    def test_wrong_bin_count_rejected(self, bins):
        """One positive count per target dimension: SL4_PROJ has 3 rows."""
        with pytest.raises(ValueError, match="one positive bin count per target dimension"):
            mc_histogram(SL4_CUBE, SL4_PROJ, bins, 100, seed=1)

    def test_edges_are_python_floats(self):
        hist = mc_histogram(SL4_CUBE, SL4_PROJ, 4, 100, seed=1)
        assert all(type(x) is float for edge in hist.edges for x in edge)

    @pytest.mark.parametrize("matrix", [((1, 0, 1),), ((2, 0, 0),), ((-1, 0, 0),), ((1, -1, 0),),
                                        ((1, 0, 0), (0, -2, 1)), ((0, 0, 0), (3, -2, 1))])
    def test_projected_box_is_the_image_of_the_bounding_box(self, matrix):
        """Each row's interval is its least and greatest value over the corners of the
        bounding box, where a linear form takes its extremes on a box."""
        corners = list(product(*A2_CUBE.bounding_box()))
        values = [[sum(c * xj for c, xj in zip(row, x)) for x in corners] for row in matrix]
        assert projected_box(A2_CUBE, ProjectionMap(matrix)) == tuple((min(v), max(v)) for v in values)

    def test_support_within_projected_box(self):
        hist = mc_histogram(SL4_CUBE, SL4_PROJ, 6, 50_000, seed=9)
        box = projected_box(SL4_CUBE, SL4_PROJ)
        for idx in np.ndindex(hist.values.shape):
            if hist.values[idx] != 0:
                for axis, k in enumerate(idx):
                    lo, hi = hist.edges[axis][k], hist.edges[axis][k + 1]
                    assert float(box[axis][0]) <= lo and hi <= float(box[axis][1])


class TestSvg:
    def test_render_two_dim(self):
        cube = TwistedCube(A2, (1, 2), (1, 1))
        hist = mc_histogram(cube, identity_projection(2), 8, 10_000, seed=2)
        svg = _histogram_svg(hist)
        assert svg.startswith("<svg") and svg.count("<rect") == 64

    def test_three_dim_rejected(self, tmp_path, capsys, monkeypatch):
        """The CLI refuses a cube-svg job on SL4_PROJ's 3 rows before it samples."""
        monkeypatch.setattr(twistedcube, "mc_histogram", lambda *args: pytest.fail("sampled"))
        params = {"word": list(SL4_CUBE.word), "a": list(SL4_CUBE.a), "subsets": [[1, 2], [3]], "bins": 4, "samples": 5_000}
        assert SL4_PROJ.rows == 3
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"root_system": "A3", "command": "cube-svg", "params": params, "seed": 2}))
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "unsupported"
        assert list(tmp_path.iterdir()) == [cfg]


def pack(e, width=4):
    """The packed key of the exponent vector e: e_v in bits [v·width, (v+1)·width)."""
    return sum(k << (v * width) for v, k in enumerate(e))


def packed(p, width=4):
    """A TuplePolynomial as an MVPolynomial with packed keys."""
    return MVPolynomial(width, {pack(e, width): c for e, c in p.terms.items()})


class TestMVPolynomial:
    def test_antiderivative(self):
        # 2x integrates to x^2 under the oracle, and the packed keys read the same
        q = antiderivative(TuplePolynomial(2, {(1, 0): Fraction(2)}), 0)
        assert packed(q).terms == {pack((2, 0)): Fraction(1)}

    def test_substitute(self):
        # (x0)^2 with x0 := x1 + 1 gives x1^2 + 2x1 + 1
        p = MVPolynomial(4, {pack((2, 0)): Fraction(1)})
        value = MVPolynomial(4, {pack((0, 1)): Fraction(1), pack((0, 0)): Fraction(1)})
        q = p.substitute(0, value)
        assert q.terms == {pack((0, 2)): Fraction(1), pack((0, 1)): Fraction(2), pack((0, 0)): Fraction(1)}

    def test_substitute_colliding_terms(self):
        # x0^2 + 3 x0 x1 - 4 x1^2 - 2 x1 + x2 with x0 := x1 - 1/2:
        # x1^2 - x1 + 1/4  +  3 x1^2 - 3/2 x1  -  4 x1^2  -  2 x1  +  x2, so x1^2 cancels
        p = MVPolynomial(4, {pack((2, 0, 0)): Fraction(1), pack((1, 1, 0)): Fraction(3),
                             pack((0, 2, 0)): Fraction(-4), pack((0, 1, 0)): Fraction(-2),
                             pack((0, 0, 1)): Fraction(1)})
        value = MVPolynomial(4, {pack((0, 1, 0)): Fraction(1), pack((0, 0, 0)): Fraction(-1, 2)})
        q = p.substitute(0, value)
        assert q.terms == {pack((0, 1, 0)): Fraction(-9, 2), pack((0, 0, 0)): Fraction(1, 4),
                           pack((0, 0, 1)): Fraction(1)}
        assert all(type(c) is Fraction for c in q.terms.values())
        # a substitution that cancels every term leaves the zero polynomial
        diff = MVPolynomial(4, {pack((1, 0)): Fraction(1), pack((0, 1)): Fraction(-1)})
        assert diff.substitute(0, MVPolynomial(4, {pack((0, 1)): Fraction(1)})).terms == {}

    def test_constant_value_rejects_nonconstant(self):
        with pytest.raises(ValueError):
            MVPolynomial(4, {pack((1,)): Fraction(1)}).constant_value()


rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(bound=rational, coeffs=st.lists(rational, min_size=1, max_size=4))
def test_branch_identity(bound, coeffs):
    """∫ over the branch of sign(x)·h(x) equals ∫_0^A h, for either branch shape."""
    degree = len(coeffs)

    def h(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    def antider(x):
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    # left side, two independent case computations over the literal branch
    if bound <= 0:
        left = -(antider(Fraction(0)) - antider(bound))  # sign = -1 on [A, 0]
    else:
        left = antider(bound) - antider(Fraction(0))  # sign = +1 on (0, A)
    right = antider(bound)
    assert left == right


# -- the exact summation engine against the routes it replaced ---------------------


def brute_force_count(cube):
    """Σ_{x ∈ Z^N} ρ(x) by enumerating every lattice point, coordinate N innermost-last."""
    n = cube.dim

    def rec(l, x):
        if l < 0:
            return 1
        total = 0
        bound = bound_value(cube, l, x)
        if bound <= 0:
            for v in range(math.ceil(bound), 1):
                x[l] = v
                total -= rec(l - 1, x)  # sign(v) = -1 for v ≤ 0
        else:
            for v in range(1, math.ceil(bound)):
                x[l] = v
                total += rec(l - 1, x)
        x[l] = 0
        return total

    return (-1) ** n * rec(n - 1, [0] * n)


class TuplePolynomial:
    """The tuple-keyed polynomial the exact engine ran on before its keys were packed:
    exponent tuple → exact coefficient, kept as the oracle for the packed engine."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return TuplePolynomial(self.nvars, terms)

    def substitute(self, idx, value):
        """Horner's rule on exponent tuples, as MVPolynomial.substitute is on packed keys."""
        by_power = {}
        for e, c in self.terms.items():
            by_power.setdefault(e[idx], {})[e[:idx] + (0,) + e[idx + 1 :]] = c
        out = {}
        for k in range(max(by_power, default=0), -1, -1):
            acc = by_power.get(k, {})
            for e1, c1 in out.items():
                for e2, c2 in value.terms.items():
                    key = tuple(map(add, e1, e2))
                    acc[key] = acc.get(key, 0) + c1 * c2
            out = acc
        return TuplePolynomial(self.nvars, out)

    def constant_value(self):
        if any(any(e) for e in self.terms):
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get((0,) * self.nvars, Fraction(0)))


def constant(nvars, c):
    return TuplePolynomial(nvars, {(0,) * nvars: Fraction(c)})


def poly_sum(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, 0) + c
    return TuplePolynomial(p.nvars, terms)


def antiderivative(p, idx):
    """Antiderivative of p in variable idx, vanishing at 0."""
    terms = {}
    for e, c in p.terms.items():
        e2 = e[:idx] + (e[idx] + 1,) + e[idx + 1 :]
        terms[e2] = c / (e[idx] + 1)
    return TuplePolynomial(p.nvars, terms)


def old_substitute(p, idx, value):
    """The substitution before Horner's rule: one polynomial sum per term."""
    max_k = max((e[idx] for e in p.terms), default=0)
    powers = [constant(p.nvars, 1)]
    for _ in range(max_k):
        powers.append(powers[-1] * value)
    out = TuplePolynomial(p.nvars, {})
    for e, c in p.terms.items():
        rest = e[:idx] + (0,) + e[idx + 1 :]
        out = poly_sum(out, TuplePolynomial(p.nvars, {rest: c}) * powers[e[idx]])
    return out


def bound_polynomial(cube, l):
    """A_l as a polynomial in all N coordinates, with integer coefficients."""
    const, coeffs = cube.forms[l]
    terms = {(0,) * cube.dim: int(const)}
    for j, c in coeffs.items():
        terms[tuple(int(k == j) for k in range(cube.dim))] = c
    return TuplePolynomial(cube.dim, terms)


def fraction_integral(cube, p0):
    """The Fraction antiderivative-then-substitute recursion the engine replaced."""
    p = p0
    for l in range(cube.dim):
        p = old_substitute(antiderivative(p, l), l, bound_polynomial(cube, l))
    return (-1) ** cube.dim * p.constant_value()


def n_variable_sum(cube, p0, step):
    """The integer-numerator recursion over all N coordinates that the letter-class
    recursion replaced: x_l^k becomes step(k), then x_l becomes A_l."""
    n = cube.dim
    den = math.lcm(*(Fraction(c).denominator for c in p0.terms.values()))
    p = TuplePolynomial(n, {e: int(c * den) for e, c in p0.terms.items()})
    for l in range(n):
        rows = {k: step(k) for k in {e[l] for e in p.terms}}
        scale = math.lcm(*(d for d, _ in rows.values()))
        terms = {}
        for e, c in p.terms.items():
            d, f = rows[e[l]]
            c *= scale // d
            for j, fj in enumerate(f):
                if fj:
                    key = e[:l] + (j,) + e[l + 1 :]
                    terms[key] = terms.get(key, 0) + c * fj
        den *= scale
        p = TuplePolynomial(n, terms).substitute(l, bound_polynomial(cube, l))
        g = math.gcd(den, *p.terms.values())
        if g > 1:
            den //= g
            p = TuplePolynomial(n, {e: c // g for e, c in p.terms.items()})
    return (-1) ** n * Fraction(p.constant_value(), den)


def moment_integrand(cube, projection, m):
    p0 = constant(cube.dim, 1)
    for row, power in zip(projection.matrix, m):
        linear = TuplePolynomial(cube.dim, {tuple(int(k == j) for k in range(cube.dim)): Fraction(coef)
                                         for j, coef in enumerate(row)})
        for _ in range(power):
            p0 = p0 * linear
    return p0


@st.composite
def twisted_cubes(draw, max_len=5):
    """Cubes over A2, A3, B2, C2, G2 with words of 1..max_len letters and a in -2..3."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    word = draw(st.lists(st.integers(1, rs.n), min_size=1, max_size=max_len), label="word")
    a = draw(st.lists(st.integers(-2, 3), min_size=len(word), max_size=len(word)), label="a")
    return TwistedCube(rs, word, a)


# the count's polynomial cancels to zero after x_2, so the later coordinates step no terms
CANCELLING_CUBE = TwistedCube(A2, (1, 1, 1, 1), (-1, -2, -2, -2))


@settings(max_examples=120, deadline=None)
@given(cube=twisted_cubes())
@example(cube=CANCELLING_CUBE)
def test_count_matches_brute_force(cube):
    assert cube.signed_lattice_count() == brute_force_count(cube)


def test_polynomial_that_cancels_before_the_last_coordinate():
    """An empty polynomial has no powers to step: the count is 0, and the volume of the
    same cube, whose polynomial never cancels, is 8."""
    assert CANCELLING_CUBE.signed_lattice_count() == 0
    assert CANCELLING_CUBE.signed_volume() == 8


@settings(max_examples=60, deadline=None)
@given(cube=twisted_cubes(), data=st.data())
def test_volume_and_moments_match_fraction_recursion(cube, data):
    assert cube.signed_volume() == fraction_integral(cube, constant(cube.dim, 1))
    proj = identity_projection(cube.dim)
    m = tuple(data.draw(st.lists(st.integers(0, 2), min_size=cube.dim, max_size=cube.dim), label="m"))
    assert cube.pushforward_moments(proj, m) == fraction_integral(cube, moment_integrand(cube, proj, m))


@settings(max_examples=100, deadline=None)
@given(rs=st.sampled_from([A2, B2, C2, G2]), data=st.data())
def test_samples_lie_in_support(rs, data):
    """Every sample with w ≠ 0 lies in the cube, open branches included, with
    sign(w) = ρ(x) there."""
    word = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=4), label="word")
    a = data.draw(st.lists(st.integers(-3, 3), min_size=len(word), max_size=len(word)), label="a")
    cube = TwistedCube(rs, word, a)
    pts, weights = cube.mc_sample(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), 200)
    for x, w in zip(pts, weights):
        if w:
            assert density(cube, x) == np.sign(w), (x, w)


@st.composite
def flag_cubes(draw, max_dim=8):
    """(cube, projection_map) of 1-3 blocks over A2, A3, B2, C2, G2 with a in -2..3; a
    block that would take the cube past max_dim letters is left out."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    subsets, dim = [], 0
    for _ in range(draw(st.integers(1, 3), label="blocks")):
        subset = sorted(draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset"))
        size = len(rs.blocks([subset])[1].flat)
        if not subsets or dim + size <= max_dim:
            subsets.append(subset)
            dim += size
    _, words = rs.blocks(subsets)
    a = draw(st.lists(st.integers(-2, 3), min_size=dim, max_size=dim), label="a")
    return TwistedCube(rs, words.flat, a), projection_map(rs, subsets, words)


@settings(max_examples=60, deadline=None)
@given(case=flag_cubes(), data=st.data())
def test_letter_classes_match_n_variable_engine(case, data):
    """The packed letter-class engine against the tuple-key N-variable oracle: volume,
    count, and moments of degree 1-4 under the flag and the identity projection."""
    cube, flag_proj = case
    one = constant(cube.dim, 1)
    assert cube.signed_volume() == n_variable_sum(cube, one, twistedcube._power_integral)
    assert cube.signed_lattice_count() == n_variable_sum(cube, one, twistedcube._strict_power_sum)
    for proj in (flag_proj, identity_projection(cube.dim)):
        rows = data.draw(st.lists(st.integers(0, proj.rows - 1), min_size=1, max_size=4), label="moment rows")
        m = tuple(rows.count(t) for t in range(proj.rows))
        want = n_variable_sum(cube, moment_integrand(cube, proj, m), twistedcube._power_integral)
        assert cube.pushforward_moments(proj, m) == want, m


@st.composite
def integer_rows(draw):
    """(cube, projection, m): a flag cube of at most 6 letters, 1-3 rows of N entries in
    -2..3, and a multi-index with |m| from 1 to 3 that raises every row."""
    cube, _ = draw(flag_cubes(max_dim=6))
    k = draw(st.integers(1, 3), label="row count")
    row = st.lists(st.integers(-2, 3), min_size=cube.dim, max_size=cube.dim).map(tuple)
    matrix = tuple(draw(st.lists(row, min_size=k, max_size=k), label="rows"))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=3 - k), label="extra powers")
    return cube, ProjectionMap(matrix), tuple(1 + extra.count(t) for t in range(k))


B2_MIXED = TwistedCube(B2, (1, 2, 1, 2, 2), (0, 0, 1, 1, 2)), ProjectionMap(((1, -1, 2, 0, 1), (0, 3, 0, -2, 1)))


@settings(max_examples=60, deadline=None)
@given(case=integer_rows())
@example(case=(*B2_MIXED, (0, 0)))
@example(case=(*B2_MIXED, (1, 0)))
@example(case=(*B2_MIXED, (0, 1)))
@example(case=(*B2_MIXED, (2, 0)))
@example(case=(*B2_MIXED, (1, 1)))
@example(case=(*B2_MIXED, (0, 2)))
def test_letter_classes_with_mixed_integer_rows(case):
    """Rows that mix letters and weight coordinates of one letter differently split a
    letter into several classes: one fixed B2 matrix, and drawn rows with repeated, zero
    and negative entries.  The oracle expands p_0 by products, not by substitution."""
    cube, proj, m = case
    want = n_variable_sum(cube, moment_integrand(cube, proj, m), twistedcube._power_integral)
    assert cube.pushforward_moments(proj, m) == want, m


@st.composite
def histogram_rows(draw):
    """(cube, projection, bins): a flag cube of at most 6 letters, 1-2 rows of N entries in
    -2..3 and 1-6 bins a side."""
    cube, _ = draw(flag_cubes(max_dim=6))
    k = draw(st.integers(1, 2), label="row count")
    row = st.lists(st.integers(-2, 3), min_size=cube.dim, max_size=cube.dim).map(tuple)
    matrix = tuple(draw(st.lists(row, min_size=k, max_size=k), label="rows"))
    bins = tuple(draw(st.lists(st.integers(1, 6), min_size=k, max_size=k), label="bins"))
    return cube, ProjectionMap(matrix), bins


@settings(max_examples=60, deadline=None)
@given(case=histogram_rows(), seed=st.integers(0, 2**32 - 1), shards=st.sampled_from([1, 2]))
@example(case=(A2_CUBE, ProjectionMap(((2, 0, 0),)), (6,)), seed=1, shards=1)
@example(case=(A2_CUBE, ProjectionMap(((-1, 0, 0),)), (6,)), seed=1, shards=1)
@example(case=(A2_CUBE, ProjectionMap(((1, -1, 0),)), (6,)), seed=1, shards=1)
@example(case=(A2_CUBE, ProjectionMap(((1, 0, 0), (0, -2, 1))), (6, 6)), seed=1, shards=1)
def test_histogram_of_integer_rows_holds_the_volume(case, seed, shards):
    """The bins span the image of the bounding box under any integer rows, negative and
    repeated entries too, so every sample's weight lands in a bin: the histogram total is
    the Monte Carlo volume of the same sample stream."""
    cube, proj, bins = case
    total = mc_histogram(cube, proj, bins, 2000, seed, shards).total()
    volume = cube.mc_volume(2000, seed, shards)[0]
    assert abs(total - volume) <= 1e-9 * max(1.0, abs(volume))


def largest_exponent(p):
    """The largest exponent in any field of p's packed keys."""
    mask, top = (1 << p.width) - 1, 0
    for e in p.terms:
        while e:
            top = max(top, e & mask)
            e >>= p.width
    return top


@pytest.mark.parametrize("cube,m", [
    (TwistedCube(G2, (1, 2, 1, 2, 1), (1, 0, 2, -1, 1)), 2),
    (TwistedCube(A2, (2, 1, 2), (1, -2, 3)), 4),
])
def test_largest_exponent_fills_its_field(monkeypatch, cube, m):
    """|m| + N = 7 = 2^3 - 1 for the moment (x_1 + ... + x_N)^m: the keys are 3 bits a
    field, and the last coordinate reaches the power 7 without carrying into the next."""
    proj = ProjectionMap(((1,) * cube.dim,))
    widths, tops = set(), []

    def spy(p, idx, value):
        widths.add(p.width)
        tops.append(largest_exponent(p))
        return substitute(p, idx, value)

    substitute = MVPolynomial.substitute
    monkeypatch.setattr(MVPolynomial, "substitute", spy)
    want = n_variable_sum(cube, moment_integrand(cube, proj, (m,)), twistedcube._power_integral)
    assert cube.pushforward_moments(proj, (m,)) == want
    assert widths == {3} and max(tops) == 7


@pytest.mark.parametrize("m", [(0, 0, 0), (1, 0, 0), (2, 0, 1), (1, 1, 1)])
def test_one_substitution_per_coordinate_and_raised_row(monkeypatch, m):
    """Splitting x_l off its class is part of the step pass, not a substitution: the SL(4)
    moment, whose two letter-1 coordinates share a class, substitutes only into slot 0,
    once per row with m_r > 0 (expanding p_0) and once per coordinate (x_l := A_l)."""
    want = n_variable_sum(SL4_CUBE, moment_integrand(SL4_CUBE, SL4_PROJ, m), twistedcube._power_integral)
    slots = []

    def spy(p, idx, value):
        slots.append(idx)
        return substitute(p, idx, value)

    substitute = MVPolynomial.substitute
    monkeypatch.setattr(MVPolynomial, "substitute", spy)
    assert SL4_CUBE.pushforward_moments(SL4_PROJ, m) == want
    assert slots == [0] * (SL4_CUBE.dim + sum(1 for power in m if power))


def test_a4_flag_cube_dim_19():
    subsets = [[1, 2, 3, 4], [1, 2, 3], [1, 2]]
    lams = [(1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 0)]
    _, words = A4.blocks(subsets)
    cube = TwistedCube(A4, words.flat, pullback_vector(A4, subsets, None, lams))
    assert cube.dim == 19
    assert cube.signed_volume() == Fraction(21157, 432)
    assert cube.signed_lattice_count() == 4_045_600


def test_sl4_moments_match_fraction_recursion():
    for m in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1)]:
        want = fraction_integral(SL4_CUBE, moment_integrand(SL4_CUBE, SL4_PROJ, m))
        assert SL4_CUBE.pushforward_moments(SL4_PROJ, m) == want, m


@settings(max_examples=60, deadline=None)
@given(cube=twisted_cubes(max_len=4))
def test_count_leading_coefficient_is_volume(cube):
    """count(k·a) is a polynomial of degree N in k whose k^N coefficient is the signed
    volume, so its N-th finite difference over k = 0..N is N!·volume."""
    n = cube.dim
    counts = [TwistedCube(cube.rs, cube.word, [k * x for x in cube.a]).signed_lattice_count() for k in range(n + 1)]
    difference = sum((-1) ** (n - k) * math.comb(n, k) * c for k, c in enumerate(counts))
    assert difference == math.factorial(n) * cube.signed_volume()


# Artifacts of cube-volume and cube-moments, pinned from the Fraction
# antiderivative recursion that the integer-numerator engine replaced; the G2
# preset's was pinned from the N-variable engine with the same Cartan grid.
CUBE_GOLDENS = [
    ("A2", "cube-volume", {"word": [1, 2, 1], "a": [1, -2, 3]},
     b'{"a":[1,-2,3],"signed_volume":"-9/2","word":[1,2,1]}\n'),
    ("A2", "cube-moments", {"subsets": [[1, 2], [1]], "weights": [[2, 1], [3, 0]], "degree": 2},
     b'{"a":[0,1,2,3],"degree":2,"moments":{"0,0,0":"27","0,0,1":"-909/40","0,0,2":"189/8","0,1,0":"-63",'
     b'"0,1,1":"2121/40","0,2,0":"357/2","1,0,0":"-3051/40","1,0,1":"597/10","1,1,0":"7749/40",'
     b'"2,0,0":"10059/40"},"word":[1,2,1,1],"words":[[1,2,1],[1]]}\n'),
    ("A3", "cube-volume", {"subsets": [[1, 2, 3], [1, 3]], "weights": [[1, 0, 2], [2, 0, 1]]},
     b'{"a":[0,0,0,2,0,1,2,1],"signed_volume":"110/9","word":[1,2,1,3,2,1,1,3],'
     b'"words":[[1,2,1,3,2,1],[1,3]]}\n'),
    ("A3", "cube-moments",
     {"subsets": [[1, 2], [2, 3]], "weights": [[1, 2, 0], [0, 1, 1]], "words": [[2, 1, 2], [3, 2, 3]], "degree": 2},
     b'{"a":[0,1,2,0,1,1],"degree":2,"moments":{"0,0,0,0":"23/3","0,0,0,1":"-49/6","0,0,0,2":"299/30",'
     b'"0,0,1,0":"-36/5","0,0,1,1":"83/10","0,0,2,0":"79/10","0,1,0,0":"-242/15","0,1,0,1":"87/5",'
     b'"0,1,1,0":"433/30","0,2,0,0":"3637/90","1,0,0,0":"-31/2","1,0,0,1":"254/15","1,0,1,0":"443/30",'
     b'"1,1,0,0":"1597/45","2,0,0,0":"3337/90"},"word":[2,1,2,3,2,3]}\n'),
    (B2_GRID, "cube-volume", {"subsets": [[1, 2], [2]], "weights": [[1, 1], [0, 2]]},
     b'{"a":[0,0,1,1,2],"signed_volume":"25/3","word":[1,2,1,2,2],"words":[[1,2,1,2],[2]]}\n'),
    (B2_GRID, "cube-moments", {"word": [2, 1, 2, 1], "a": [1, 2, -1, 1], "degree": 2},
     b'{"a":[1,2,-1,1],"degree":2,"moments":{"0,0,0,0":"-5/6","0,0,0,1":"-3/5","0,0,0,2":"41/60",'
     b'"0,0,1,0":"-61/60","0,0,1,1":"47/120","0,0,2,0":"-3/20","0,1,0,0":"101/60","0,1,0,1":"179/360",'
     b'"0,1,1,0":"467/360","0,2,0,0":"-209/60","1,0,0,0":"21/10","1,0,0,1":"71/90","1,0,1,0":"331/180",'
     b'"1,1,0,0":"-257/60","2,0,0,0":"-64/9"},"word":[2,1,2,1]}\n'),
    ("G2", "cube-moments", {"subsets": [[1, 2], [1]], "weights": [[1, 1], [1, 0]], "degree": 2},
     b'{"a":[0,0,0,0,1,1,1],"degree":2,"moments":{"0,0,0":"373/90","0,0,1":"-185/126","0,0,2":"127/168",'
     b'"0,1,0":"-746/45","0,1,1":"370/63","0,2,0":"269267/3780","1,0,0":"-964/35","1,0,1":"4799/504",'
     b'"1,1,0":"296243/2520","2,0,0":"166361/840"},"word":[1,2,1,2,1,2,1],"words":[[1,2,1,2,1,2],[1]]}\n'),
]


@pytest.mark.parametrize(
    "root_system,command,params,expected",
    CUBE_GOLDENS,
    ids=[f"{rs if isinstance(rs, str) else 'B2'}-{cmd}" for rs, cmd, _, _ in CUBE_GOLDENS],
)
def test_cube_artifacts_golden(tmp_path, root_system, command, params, expected):
    config = {"root_system": root_system, "command": command, "params": params, "output": {"path": "out.json"}}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "out.json").read_bytes() == expected


# -- the streamed Monte Carlo pass against one materialised pass -------------------


def materialised_sample(cube, samples, seed, shards):
    """Every sample and its weight, each shard's drawn at once."""
    per = samples // shards
    streams = np.random.SeedSequence(seed).spawn(shards)
    pts, weights = zip(*(cube.mc_sample(np.random.default_rng(s), per) for s in streams))
    return np.concatenate(pts), np.concatenate(weights)


def materialised_moment(cube, projection, m, samples, seed, shards):
    pts, g = materialised_sample(cube, samples, seed, shards)
    proj = pts @ np.array(projection.matrix, dtype=float).T
    for t, power in enumerate(m):
        if power:
            g *= proj[:, t] ** power
    return float(np.mean(g)), float(np.std(g)) / math.sqrt(samples)


def materialised_volume(cube, samples, seed, shards):
    _, w = materialised_sample(cube, samples, seed, shards)
    return float(np.mean(w)), float(np.std(w)) / math.sqrt(samples)


def materialised_histogram(cube, projection, bins, samples, seed, shards):
    """One np.histogramdd pass over every sample: the binning oracle."""
    pts, w = materialised_sample(cube, samples, seed, shards)
    proj = pts @ np.array(projection.matrix, dtype=float).T
    edges = [np.linspace(float(a), float(b), n + 1) for n, (a, b) in zip(bins, projected_box(cube, projection))]
    hist, _ = np.histogramdd(proj, bins=edges, weights=w)
    return tuple(tuple(map(float, e)) for e in edges), hist / samples


STREAM_CASES = [
    (TwistedCube(A2, (1, 2, 1), (1, -2, 3)), identity_projection(3)),
    (TwistedCube(A3, (1, 2, 1, 3, 2, 1), (1, 0, 2, -1, 1, 1)),
     projection_map(A3, SubsetSequence([(1, 2, 3)]), WordSequence([(1, 2, 1, 3, 2, 1)]))),
    (TwistedCube(B2, (1, 2, 1, 2, 2), (0, 0, 1, 1, 2)),
     projection_map(B2, SubsetSequence([(1, 2), (2,)]), WordSequence([(1, 2, 1, 2), (2,)]))),
]


@pytest.mark.parametrize("chunk", [7, 10**9])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("case", range(len(STREAM_CASES)), ids=["A2", "A3", "B2"])
def test_stream_matches_materialised_pass(monkeypatch, case, shards, chunk):
    monkeypatch.setattr(twistedcube, "_CHUNK", chunk)
    cube, proj = STREAM_CASES[case]
    samples, seed = 4000, 17 + case
    for n in (1, 3, 7, 30):
        bins = (n,) * proj.rows
        hist = mc_histogram(cube, proj, bins, samples, seed, shards)
        edges, values = materialised_histogram(cube, proj, bins, samples, seed, shards)
        assert hist.edges == edges and hist.values.tobytes() == values.tobytes(), n
    est, err = cube.mc_volume(samples, seed, shards)
    want_est, want_err = materialised_volume(cube, samples, seed, shards)
    assert est == pytest.approx(want_est, rel=1e-9) and err == pytest.approx(want_err, rel=1e-9)
    for m in [(1,) + (0,) * (proj.rows - 1), (0,) * (proj.rows - 1) + (2,), (1,) * proj.rows]:
        got = cube.mc_moment(proj, m, samples, seed, shards)
        assert got == pytest.approx(materialised_moment(cube, proj, m, samples, seed, shards), rel=1e-9), m


def test_shard_streams_are_made_one_at_a_time(monkeypatch):
    """Shard k draws from the k-th child that SeedSequence(seed).spawn would make, made when its
    turn comes, so memory does not grow with shards: with spawn raising, the histogram equals
    the bins drawn from spawn(4)'s children."""
    cube, proj = STREAM_CASES[0]
    bins, samples, seed = (5,) * proj.rows, 4000, 23
    edges, values = materialised_histogram(cube, proj, bins, samples, seed, 4)

    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("spawn builds every child before the first sample")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    hist = mc_histogram(cube, proj, bins, samples, seed, shards=4)
    assert hist.edges == edges and hist.values.tobytes() == values.tobytes()


def histogramdd_cells(edge, x):
    """np.histogramdd's cell rule, as it reads: a search, then x on the last edge moved into the last bin."""
    k = np.searchsorted(edge, x, side="right")
    k[x == edge[-1]] -= 1
    return k


def near_edges(edge):
    """Every edge, one ulp either side of it, and points outside the box."""
    span = max(edge[-1] - edge[0], 1.0)
    outside = [edge[0] - span, edge[-1] + span, -1e300, 1e300]
    return np.concatenate([edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), outside])


BOXES = [(0, 0), (-2, -2), (5, 5), (0, 1), (-1, 0), (-3, 7), (-7, -2), (2, 11), (-40, 37), (-1000, 3)]


@pytest.mark.parametrize("a,b", BOXES)
def test_cells_match_histogramdd_at_every_edge(a, b):
    for n in range(1, 33):
        edge = np.linspace(float(a), float(b), n + 1)
        x = near_edges(edge)
        assert np.array_equal(twistedcube._cells(edge, x), histogramdd_cells(edge, x)), n


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(-60, 60),
    span=st.integers(0, 60),
    n=st.integers(1, 32),
    xs=st.lists(st.floats(-200, 200), min_size=1, max_size=50),
)
def test_cells_match_histogramdd(a, span, n, xs):
    edge = np.linspace(float(a), float(a + span), n + 1)
    x = np.concatenate([np.array(xs), near_edges(edge)])
    assert np.array_equal(twistedcube._cells(edge, x), histogramdd_cells(edge, x))


@pytest.mark.parametrize("a", [(0, 0, 0), (1, 0, 0)], ids=["both-axes", "second-axis"])
def test_zero_span_histogram_matches_histogramdd(a):
    """A projected box of zero width on some axis: every sample lands on its one edge."""
    cube, proj = TwistedCube(A2, (1, 2, 1), a), projection_map(A2, [(1, 2)])
    assert projected_box(cube, proj)[1] == (0, 0)
    for bins in [(1, 1), (4, 3)]:
        hist = mc_histogram(cube, proj, bins, 3000, seed=2, shards=3)
        edges, values = materialised_histogram(cube, proj, bins, 3000, 2, 3)
        assert hist.edges == edges and hist.values.tobytes() == values.tobytes()


def test_histogram_memory_independent_of_samples():
    """A million dim-6 samples in one shard stay far below the 100+ MiB that holding
    them, their densities and their projections at once takes."""
    cube, proj = STREAM_CASES[1]
    tracemalloc.start()
    try:
        mc_histogram(cube, proj, 8, 1_000_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_shard_streams_are_independent(monkeypatch):
    """The second shard of (seed 1, 2 shards) is not the first shard of (seed 2, 2
    shards), as it was when shard k was seeded with seed + k."""
    drawn = []
    sample = TwistedCube.mc_sample
    monkeypatch.setattr(TwistedCube, "mc_sample", lambda cube, *args: drawn.append(sample(cube, *args)) or drawn[-1])
    cube = STREAM_CASES[0][0]
    cube.mc_volume(200, seed=1, shards=2)
    cube.mc_volume(200, seed=2, shards=2)
    assert len(drawn) == 4
    assert not np.array_equal(drawn[1][0], drawn[2][0])
