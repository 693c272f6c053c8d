"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Golden rationals in criterion 9 were derived independently by the
sympy region-split integration in scripts/derive_cube_golden.py and are
additionally gated by the seeded Monte-Carlo 4-sigma check.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from crystalcubes.bundles import flag_bott_vectors, pullback_vector
from crystalcubes.cli import _histogram_svg
from crystalcubes.crystal import (
    TensorElement,
    epsilon,
    generate_crystal,
    graph_from_elements,
    highest_path,
    path_e,
    path_f,
    wt,
)
from crystalcubes.demazure import demazure_crystal, gen_demazure_crystal
from crystalcubes.rootsys import RootSystem, SubsetSequence, WordSequence
from crystalcubes.stringpoly import hat_lattice_points, lattice_points, tensor_decompose
from crystalcubes.twistedcube import (
    TwistedCube,
    mc_histogram,
    projected_box,
    projection_map,
)
from oracles import close_set, highest_weight_decompose, pairing, phi, split_blocks, tensor_product_elements

A1 = RootSystem.preset("A1")
A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")

SL3_SUBSETS = SubsetSequence([(1, 2), (1, 2)])
SL3_WORDS = WordSequence([(1, 2, 1), (1, 2, 1)])
SL3_WORD = (1, 2, 1, 1, 2, 1)


def report(n, message):
    print(f"ACCEPTANCE {n}: PASS — {message}")


def test_criterion_01_sl3_tensor_decomposition():
    start = time.monotonic()
    lam = A2.weight(1, 1)
    table = tensor_decompose(A2, [lam, lam]).as_dict()
    assert table == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(1, f"SL(3) decomposition table exact in {elapsed:.2f}s")


def hat_inequality_fixture(l1, l2, m1, m2):
    """Integer solutions of 0 ≤ y3 ≤ min(λ2, μ1), y3 ≤ y2 ≤ y3+μ2,
    y2-λ2 ≤ y1 ≤ min(λ1, y2-2y3+μ1), all coordinates nonnegative."""
    pts = set()
    for y3 in range(0, min(l2, m1) + 1):
        for y2 in range(y3, y3 + m2 + 1):
            for y1 in range(max(0, y2 - l2), min(l1, y2 - 2 * y3 + m1) + 1):
                pts.add((y1, y2, y3))
    return pts


def test_criterion_02_sl3_hat_lattice_points():
    start = time.monotonic()
    lam = A2.weight(1, 1)
    computed = set(hat_lattice_points(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS))
    fixture = hat_inequality_fixture(1, 1, 1, 1)
    assert computed <= fixture and fixture <= computed
    assert len(computed) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(2, f"6 projected lattice points match the inequality fixture in {elapsed:.2f}s")


def full_inequality_fixture(l1, l2, m1, m2):
    """Integer solutions of the six-line system for the word (1,2,1,1,2,1),
    coordinates (x1,x2,x3,y1,y2,y3), all nonnegative."""
    pts = set()
    for (y1, y2, y3) in hat_inequality_fixture(l1, l2, m1, m2):
        x3_lo = max(0, y3 - l2, -y1 + y2 - l2)
        x3_hi = -2 * y1 + y2 - 2 * y3 + l1 + m1
        for x3 in range(x3_lo, x3_hi + 1):
            for x2 in range(x3, x3 + y1 - 2 * y2 + y3 + l2 + m2 + 1):
                for x1 in range(0, x2 - 2 * x3 - 2 * y1 + y2 - 2 * y3 + l1 + m1 + 1):
                    pts.add((x1, x2, x3, y1, y2, y3))
    return pts


def test_criterion_03_generalized_string_polytope_cross_check():
    lam = A2.weight(1, 1)
    a = pullback_vector(A2, SL3_SUBSETS, SL3_WORDS, [lam, lam])
    computed = set(lattice_points(A2, SL3_WORD, a, level=1))
    fixture = full_inequality_fixture(1, 1, 1, 1)
    assert computed <= fixture and fixture <= computed
    report(3, f"all {len(computed)} level-1 string points match the six-line system, both ways")


def canonical(edge_list, root, nverts):
    """BFS relabeling of a colored digraph from the root; colors ascending."""
    succ = {}
    for u, i, v in edge_list:
        succ.setdefault(u, {})[i] = v
    order = {root: 0}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for i in sorted(succ.get(u, {})):
            v = succ[u][i]
            if v not in order:
                order[v] = len(order)
                queue.append(v)
    assert len(order) == nverts
    return (nverts, tuple(sorted((order[u], i, order[v]) for u, i, v in edge_list)))


def test_criterion_04_crystal_figures():
    graph = generate_crystal(A2, A2.weight(1, 1))
    assert graph.vertex_count == 8
    # figure: two chains of colors (1,2,2,1) and (2,1,1,2) from top to bottom
    figure_edges = [
        (0, 1, 1), (1, 2, 2), (2, 2, 3), (3, 1, 7),
        (0, 2, 4), (4, 1, 5), (5, 1, 6), (6, 2, 7),
    ]
    assert canonical(graph.edges, graph.highest, graph.vertex_count) == canonical(figure_edges, 0, 8)

    dem = demazure_crystal(A2, A2.weight(1, 1), (2, 1))
    assert len(dem) == 5
    dem_graph = graph_from_elements(A2, dem)
    demazure_figure = [(0, 1, 1), (1, 2, 2), (2, 2, 3), (0, 2, 4)]
    assert canonical(dem_graph.edges, dem_graph.highest, dem_graph.vertex_count) == canonical(demazure_figure, 0, 5)
    report(4, "B(ϖ1+ϖ2) and its s2s1-Demazure crystal match the figures as colored digraphs")


def test_criterion_05_pullback_vector_example():
    subsets = SubsetSequence([(1, 2), (3,)])
    words = WordSequence([(1, 2, 1), (3,)])
    rng = random.Random(812)
    for _ in range(10):
        l1 = A3.weight([rng.randint(0, 6) for _ in range(3)])
        l2 = A3.weight([rng.randint(0, 6) for _ in range(3)])
        vec = pullback_vector(A3, subsets, words, [l1, l2])
        expected = (
            (0, pairing(A3, l1, 2) + pairing(A3, l2, 2), pairing(A3, l1, 1) + pairing(A3, l2, 1)),
            (pairing(A3, l2, 3),),
        )
        assert split_blocks(vec, words.block_sizes) == expected
    report(5, "pullback 4-tuple matches the displayed formula at 10 random dominant weights")


def test_criterion_06_flag_bott_vectors_example():
    tower = flag_bott_vectors(A3, SubsetSequence([(1, 2), (1, 2)]))
    assert tower[(2, 1)][0] == (2, 1, 0)
    assert tower[(2, 1)][1] == (1, 2, 0)
    report(6, "tower vectors (2,1,0) and (1,2,0) reproduced")


def test_criterion_07_projection_matrix_example():
    proj = projection_map(A3, SubsetSequence([(1, 2), (3,)]), WordSequence([(1, 2, 1), (3,)]))
    assert proj.matrix == ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    report(7, "projection matrix [[1,0,1,0],[0,1,0,0],[0,0,0,1]] reproduced")


def test_criterion_08_signed_count_vs_crystal_sweep():
    start = time.monotonic()
    memo = {}

    def saturated(word, a):
        key = (word, a)
        if key not in memo:
            top = highest_path(A2, a[0] * A2.fundamental_weight(word[0]))
            if len(word) == 1:
                current = {TensorElement((top,))}
            else:
                current = {TensorElement((top,) + b.factors) for b in saturated(word[1:], a[1:])}
            memo[key] = close_set(A2, current, word[:1], 10**6)
        return memo[key]

    rng = random.Random(55)
    checked = 0
    for length in range(1, 6):
        for word in product((1, 2), repeat=length):
            for a in product(range(3), repeat=length):
                count = TwistedCube(A2, word, a).signed_lattice_count()
                elements = saturated(word, a)
                assert count == len(elements), (word, a)
                if rng.random() < 0.005:
                    # the shared-suffix saturation is the defining construction
                    assert elements == gen_demazure_crystal(A2, word, a).elements
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(8, f"signed lattice count = crystal cardinality on {checked} cases in {elapsed:.1f}s")


# Golden rationals: independent sympy region-split derivation
# (scripts/derive_cube_golden.py), cross-gated by seeded MC below.
SL4_GOLDEN = {
    (0, 0, 0): Fraction(212, 3),
    (1, 0, 0): Fraction(-644, 3),
    (0, 1, 0): Fraction(-288),
    (0, 0, 1): Fraction(-236, 3),
}


def test_golden_rationals_match_their_derivation():
    """SL4_GOLDEN is what scripts/derive_cube_golden.py prints; its extra (2,0,0) moment
    is checked against the exact engine."""
    pytest.importorskip("sympy")
    script = Path(__file__).resolve().parents[1] / "scripts" / "derive_cube_golden.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True).stdout
    derived = {}
    for line in out.splitlines():
        name, value = (part.strip() for part in line.split(":"))
        m = (0, 0, 0) if name == "signed volume" else tuple(int(t) for t in name.split("(")[1].rstrip(")").split(","))
        derived[m] = Fraction(value)
    assert {m: derived[m] for m in SL4_GOLDEN} == SL4_GOLDEN
    cube = TwistedCube(A3, (1, 2, 1, 3), (0, 4, 2, 2))
    proj = projection_map(A3, SubsetSequence([(1, 2), (3,)]), WordSequence([(1, 2, 1), (3,)]))
    for m in set(derived) - set(SL4_GOLDEN):
        assert cube.pushforward_moments(proj, m) == derived[m]


def test_criterion_09_exact_vs_monte_carlo_measure():
    start = time.monotonic()
    cube = TwistedCube(A3, (1, 2, 1, 3), (0, 4, 2, 2))
    proj = projection_map(A3, SubsetSequence([(1, 2), (3,)]), WordSequence([(1, 2, 1), (3,)]))
    # the cube comes from (λ1, λ2) = (2ϖ1+4ϖ2, 2ϖ3) via the pullback vector
    derived_a = pullback_vector(
        A3, SubsetSequence([(1, 2), (3,)]), WordSequence([(1, 2, 1), (3,)]),
        [A3.weight(2, 4, 0), A3.weight(0, 0, 2)],
    )
    assert derived_a == (0, 4, 2, 2)

    assert cube.signed_volume() == SL4_GOLDEN[(0, 0, 0)]
    for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        assert cube.pushforward_moments(proj, m) == SL4_GOLDEN[m]

    est, err = cube.mc_volume(1_000_000, seed=2026)
    assert abs(est - float(SL4_GOLDEN[(0, 0, 0)])) < 4 * err
    for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        est, err = cube.mc_moment(proj, m, 1_000_000, seed=2026)
        assert abs(est - float(SL4_GOLDEN[m])) < 4 * err
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(9, f"exact volume/moments match goldens and 4σ MC bands in {elapsed:.1f}s")


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for rs in (A2, A3):
        coords = list(product(range(3), repeat=rs.n))
        dims = {c: rs.weyl_dimension(rs.weight(*c)) for c in coords}
        for c1, c2 in product(coords, repeat=2):
            if dims[c1] * dims[c2] > 5000:
                continue
            lam, mu = rs.weight(*c1), rs.weight(*c2)
            table = tensor_decompose(rs, [lam, mu]).as_dict()
            oracle = highest_weight_decompose(
                rs, tensor_product_elements(rs, [lam, mu]), check_closed=False
            )
            assert table == dict(oracle), (rs.n, c1, c2)
            checked += 1
    elapsed = time.monotonic() - start
    report(10, f"lattice-point route equals crystal decomposition on {checked} pairs in {elapsed:.1f}s")


def axiom_corpus():
    corpus = []
    for rs, weights in (
        (A2, [(1, 1), (2, 1), (3, 0), (2, 2)]),
        (A3, [(1, 0, 1), (0, 2, 0), (1, 1, 0)]),
    ):
        for w in weights:
            corpus.append((rs, generate_crystal(rs, rs.weight(*w)).vertices))
    corpus.append((A2, tensor_product_elements(A2, [A2.weight(1, 1), A2.weight(1, 0)])))
    corpus.append((A3, tensor_product_elements(A3, [A3.weight(1, 0, 0), A3.weight(0, 0, 1)])))
    corpus.append((A2, tuple(gen_demazure_crystal(A2, SL3_WORD, (0, 1, 1, 0, 1, 1)).elements)))
    return corpus


def test_criterion_11_crystal_axiom_suite():
    elements = 0
    for rs, batch in axiom_corpus():
        alpha = {i: rs.simple_root_as_weight(i) for i in range(1, rs.n + 1)}
        for b in batch:
            elements += 1
            for i in range(1, rs.n + 1):
                eps, ph = epsilon(rs, b, i), phi(rs, b, i)
                assert ph - eps == pairing(rs, wt(rs, b), i)
                c = path_f(rs, b, i)
                assert (c is None) == (ph == 0)
                if c is not None:
                    assert path_e(rs, c, i) == b
                    assert wt(rs, c).coords == (wt(rs, b) - alpha[i]).coords
                    assert epsilon(rs, c, i) == eps + 1
                d = path_e(rs, b, i)
                assert (d is None) == (eps == 0)
                if d is not None:
                    assert path_f(rs, d, i) == b
    report(11, f"e/f inversion and wt/ε/φ bookkeeping hold on {elements} corpus elements")


def test_svg_smoke_support_in_exact_box():
    # one-block flag case: word (1,2,1) over A2, cube in R^3 projecting to R^2
    subsets = SubsetSequence([(1, 2)])
    words = WordSequence([(1, 2, 1)])
    a = pullback_vector(A2, subsets, words, [A2.weight(1, 1)])
    cube = TwistedCube(A2, words.flat, a)
    proj = projection_map(A2, subsets, words)
    assert proj.rows == 2
    hist = mc_histogram(cube, proj, 12, 100_000, seed=77)
    box = projected_box(cube, proj)
    for idx, value in [(idx, hist.values[idx]) for idx in product(range(12), repeat=2)]:
        if value != 0:
            for axis, k in enumerate(idx):
                lo, hi = hist.edges[axis][k], hist.edges[axis][k + 1]
                assert float(box[axis][0]) <= lo and hi <= float(box[axis][1])
    svg = _histogram_svg(hist)
    assert svg.startswith("<svg") and "<rect" in svg
    report("SVG", "rendered support lies inside the exact bounding box")
