"""Path-model crystals: operators, axioms, generation, tensor products."""

import hashlib
import json
from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcubes.cli import _graph_json, main
from crystalcubes.crystal import (
    DEFAULT_BUDGET,
    CrystalGraph,
    PathElement,
    TensorElement,
    _dual,
    _f_strings,
    _path_string,
    _tensor_string,
    epsilon,
    generate_crystal,
    graph_from_elements,
    highest_path,
    is_highest,
    path_e,
    path_f,
    wt,
)
from crystalcubes.demazure import gen_demazure_crystal_weights
from crystalcubes.rootsys import PRESETS, BudgetExceededError, RootSystem, Weight
from oracles import (
    f_string,
    first_highest_vertex,
    highest_weight_decompose,
    pairing,
    phi,
    tensor,
    tensor_product_elements,
)
from test_acceptance import canonical

A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")
B2 = RootSystem([[2, -1], [-2, 2]])
C2 = RootSystem([[2, -2], [-1, 2]])
G2 = RootSystem([[2, -1], [-3, 2]])
B3 = RootSystem.preset("B3")


def alpha(rs, i):
    return rs.simple_root_as_weight(i)


class TestLoweringOperator:
    def test_single_step(self):
        b = highest_path(A2, A2.weight(1, 0))
        c = path_f(A2, b, 1)
        assert wt(A2, c).coords == (A2.weight(1, 0) - alpha(A2, 1)).coords

    def test_zero_pairing_kills(self):
        b = highest_path(A2, A2.weight(1, 0))
        assert path_f(A2, b, 2) is None

    def test_two_branches_of_length_four(self):
        # the adjoint crystal has chains f1 f2 f2 f1 and f2 f1 f1 f2 from the top
        b = highest_path(A2, A2.weight(1, 1))
        chain_a = b
        for i in (1, 2, 2, 1):
            chain_a = path_f(A2, chain_a, i)
            assert chain_a is not None
        chain_b = b
        for i in (2, 1, 1, 2):
            chain_b = path_f(A2, chain_b, i)
            assert chain_b is not None
        assert chain_a == chain_b  # both reach the lowest element


class TestRaisingOperator:
    def test_highest_killed(self):
        b = highest_path(A2, A2.weight(1, 1))
        assert path_e(A2, b, 1) is None and path_e(A2, b, 2) is None

    def test_inverse_pair(self):
        b = highest_path(A2, A2.weight(1, 0))
        assert path_e(A2, path_f(A2, b, 1), 1) == b

    def test_raise_to_highest_in_depth_steps(self):
        graph = generate_crystal(A2, A2.weight(1, 1))
        top = graph.vertices[graph.highest]
        # BFS depths from the top along f-edges
        depth = {graph.highest: 0}
        frontier = [graph.highest]
        while frontier:
            nxt = []
            for u in frontier:
                for (src, i, dst) in graph.edges:
                    if src == u and dst not in depth:
                        depth[dst] = depth[u] + 1
                        nxt.append(dst)
            frontier = nxt
        for k, b in enumerate(graph.vertices):
            steps = 0
            cur = b
            while True:
                nxt = next((path_e(A2, cur, i) for i in (1, 2) if path_e(A2, cur, i) is not None), None)
                if nxt is None:
                    break
                cur = nxt
                steps += 1
            assert cur == top
            assert steps == depth[k]


class TestStatistics:
    def test_highest_values(self):
        lam = A2.weight(2, 1)
        b = highest_path(A2, lam)
        for i in (1, 2):
            assert epsilon(A2, b, i) == 0
            assert phi(A2, b, i) == pairing(A2, lam, i)

    def test_lowest_weight_of_standard(self):
        verts = generate_crystal(A2, A2.weight(1, 0)).vertices
        lowest = [b for b in verts if all(phi(A2, b, i) == 0 for i in (1, 2))]
        assert len(lowest) == 1
        assert wt(A2, lowest[0]).coords == (0, -1)  # w0(ϖ1) = -ϖ2

    def test_tensor_epsilon_matches_chain_length(self):
        # ε of a tensor element equals the literal number of raising steps
        verts1 = generate_crystal(A2, A2.weight(1, 0)).vertices
        verts2 = generate_crystal(A2, A2.weight(1, 1)).vertices
        for b1 in verts1:
            for b2 in verts2:
                t = tensor(b1, b2)
                for i in (1, 2):
                    count = 0
                    cur = t
                    while (nxt := path_e(A2, cur, i)) is not None:
                        cur = nxt
                        count += 1
                    assert epsilon(A2, t, i) == count
                    count = 0
                    cur = t
                    while (nxt := path_f(A2, cur, i)) is not None:
                        cur = nxt
                        count += 1
                    assert phi(A2, t, i) == count


class TestGeneration:
    def test_adjoint_count_and_shape(self):
        graph = generate_crystal(A2, A2.weight(1, 1))
        assert graph.vertex_count == 8
        assert len(graph.edges) == 8

    def test_trivial(self):
        graph = generate_crystal(A2, A2.zero_weight())
        assert graph.vertex_count == 1 and not graph.edges

    def test_a3_w2(self):
        assert generate_crystal(A3, A3.weight(0, 1, 0)).vertex_count == A3.weyl_dimension(A3.weight(0, 1, 0))

    def test_counts_match_weyl_dimension(self):
        for coords in [(1, 0), (0, 2), (2, 1), (3, 0)]:
            lam = A2.weight(*coords)
            assert generate_crystal(A2, lam).vertex_count == A2.weyl_dimension(lam)

    def test_degree_bounds_per_label(self):
        graph = generate_crystal(A2, A2.weight(2, 1))
        out_deg = {}
        in_deg = {}
        for u, i, v in graph.edges:
            out_deg[(u, i)] = out_deg.get((u, i), 0) + 1
            in_deg[(v, i)] = in_deg.get((v, i), 0) + 1
        assert all(d == 1 for d in out_deg.values())
        assert all(d == 1 for d in in_deg.values())

    def test_segment_invariants(self):
        for rs in (A2, B2, G2):
            for b in generate_crystal(rs, rs.weight(1, 1)).vertices:
                assert sum(n for _, n in b.segs) == b.den
                assert all(n > 0 for _, n in b.segs)
                assert gcd(b.den, *(n for _, n in b.segs)) == 1
                assert all(b.segs[k][0] != b.segs[k + 1][0] for k in range(len(b.segs) - 1))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            generate_crystal(A2, A2.weight(-1, 1))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            generate_crystal(A2, A2.weight(3, 3), budget=10)

    def test_size_checked_before_building(self):
        """|B(3,3,3,3)| = 1,048,576 for A4 is over the budget before any operator runs."""
        rs = RootSystem.preset("A4")
        with pytest.raises(BudgetExceededError, match="crystal of 1048576 elements exceeds budget of 200000 elements"):
            generate_crystal(rs, rs.weight(3, 3, 3, 3), budget=200_000)
        assert not rs._f_cache

    @pytest.mark.parametrize("rs,coords", [(A2, (2, 1)), (A3, (1, 0, 1)), (B2, (1, 1)), (G2, (1, 0))])
    def test_budget_is_exact(self, rs, coords):
        """The budget caps |B(λ)| itself: it passes at |B(λ)| and raises one below."""
        lam = rs.weight(*coords)
        size = rs.weyl_dimension(lam)
        assert generate_crystal(rs, lam, budget=size).vertex_count == size
        with pytest.raises(BudgetExceededError):
            generate_crystal(rs, lam, budget=size - 1)


class TestTensor:
    def test_first_factor_priority(self):
        lam, mu = A2.weight(1, 1), A2.weight(1, 0)
        t = tensor(highest_path(A2, lam), highest_path(A2, mu))
        out = path_f(A2, t, 1)
        assert out.factors[0] == path_f(A2, highest_path(A2, lam), 1)
        assert out.factors[1] == highest_path(A2, mu)

    def test_mixed_rank_rejected(self):
        with pytest.raises(ValueError):
            tensor(highest_path(A2, A2.weight(1, 0)), highest_path(A3, A3.weight(1, 0, 0)))

    def test_cartan_component_isomorphic(self):
        # component of b_λ ⊗ b_μ inside B(λ) ⊗ B(μ) matches B(λ+μ) as a colored graph
        lam, mu = A2.weight(1, 0), A2.weight(0, 1)
        seed = tensor(highest_path(A2, lam), highest_path(A2, mu))
        component = {seed}
        frontier = [seed]
        while frontier:
            b = frontier.pop()
            for i in (1, 2):
                for op in (path_f, path_e):
                    c = op(A2, b, i)
                    if c is not None and c not in component:
                        component.add(c)
                        frontier.append(c)
        direct = generate_crystal(A2, lam + mu)
        embedded = graph_from_elements(A2, component)
        assert canonical(embedded.edges, embedded.highest, embedded.vertex_count) == canonical(
            direct.edges, direct.highest, direct.vertex_count
        )

    def test_standard_square_decomposes(self):
        elems = tensor_product_elements(A2, [A2.weight(1, 0), A2.weight(1, 0)])
        assert len(elems) == 9
        dec = highest_weight_decompose(A2, elems)
        assert dict(dec) == {(2, 0): 1, (0, 1): 1}

    def test_product_over_budget_rejected(self):
        lams = [A2.weight(1, 0), A2.weight(1, 0)]
        assert len(tensor_product_elements(A2, lams, budget=9)) == 9
        with pytest.raises(BudgetExceededError):
            tensor_product_elements(A2, lams, budget=8)


class TestDecompose:
    def test_single_crystal(self):
        verts = generate_crystal(A2, A2.weight(2, 0)).vertices
        assert dict(highest_weight_decompose(A2, verts)) == {(2, 0): 1}

    def test_adjoint_square(self):
        elems = tensor_product_elements(A2, [A2.weight(1, 1), A2.weight(1, 1)])
        dec = highest_weight_decompose(A2, elems)
        assert dict(dec) == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}

    def test_w1_tensor_w2(self):
        elems = tensor_product_elements(A2, [A2.weight(1, 0), A2.weight(0, 1)])
        dec = highest_weight_decompose(A2, elems)
        assert dict(dec) == {(1, 1): 1, (0, 0): 1}

    def test_character_identity(self):
        # weight multiset of B(λ)⊗B(μ) equals that of the decomposed sum
        from collections import Counter

        for c1, c2 in [((1, 0), (0, 1)), ((1, 1), (1, 0))]:
            lam, mu = A2.weight(*c1), A2.weight(*c2)
            elems = tensor_product_elements(A2, [lam, mu])
            lhs = Counter(wt(A2, b).coords for b in elems)
            rhs = Counter()
            for nu, count in highest_weight_decompose(A2, elems).items():
                for b in generate_crystal(A2, A2.weight(*nu)).vertices:
                    rhs[wt(A2, b).coords] += count
            assert lhs == rhs

    def test_not_e_closed_rejected(self):
        verts = generate_crystal(A2, A2.weight(1, 0)).vertices
        lowered = [b for b in verts if epsilon(A2, b, 1) + epsilon(A2, b, 2) > 0]
        with pytest.raises(ValueError):
            highest_weight_decompose(A2, lowered)


dominant_a2 = st.tuples(st.integers(0, 2), st.integers(0, 2))
f_strings = st.lists(st.integers(1, 2), min_size=0, max_size=6)


@settings(max_examples=60, deadline=None)
@given(coords=dominant_a2, word=f_strings, i=st.integers(1, 2))
def test_crystal_axioms(coords, word, i):
    """e/f inversion and wt/ε/φ bookkeeping along random lowering strings."""
    lam = A2.weight(*coords)
    b = highest_path(A2, lam)
    for j in word:
        nxt = path_f(A2, b, j)
        if nxt is None:
            break
        b = nxt
    assert phi(A2, b, i) - epsilon(A2, b, i) == pairing(A2, wt(A2, b), i)
    c = path_f(A2, b, i)
    if c is None:
        assert phi(A2, b, i) == 0
    else:
        assert path_e(A2, c, i) == b
        assert wt(A2, c).coords == (wt(A2, b) - alpha(A2, i)).coords
        assert epsilon(A2, c, i) == epsilon(A2, b, i) + 1
    d = path_e(A2, b, i)
    if d is None:
        assert epsilon(A2, b, i) == 0
    else:
        assert path_f(A2, d, i) == b


@settings(max_examples=40, deadline=None)
@given(
    coords1=dominant_a2,
    coords2=dominant_a2,
    word=f_strings,
    i=st.integers(1, 2),
)
def test_tensor_axioms(coords1, coords2, word, i):
    """Same bookkeeping on two-factor tensor elements."""
    b = TensorElement((highest_path(A2, A2.weight(*coords1)), highest_path(A2, A2.weight(*coords2))))
    for j in word:
        nxt = path_f(A2, b, j)
        if nxt is None:
            break
        b = nxt
    assert phi(A2, b, i) - epsilon(A2, b, i) == pairing(A2, wt(A2, b), i)
    c = path_f(A2, b, i)
    if c is not None:
        assert path_e(A2, c, i) == b
        assert wt(A2, c).coords == (wt(A2, b) - alpha(A2, i)).coords
    d = path_e(A2, b, i)
    if d is not None:
        assert path_f(A2, d, i) == b


# -- the path model over Fraction durations, kept as the oracle for the integer-scaled one


def fraction_segs(p):
    """The segments of p with each duration n_j / den as a Fraction."""
    return tuple((v, Fraction(n, p.den)) for v, n in p.segs)


def from_fraction_segs(segs):
    """The PathElement of Fraction segments summing to 1: durations over the lcm of their denominators."""
    den = lcm(*(d.denominator for _, d in segs))
    return PathElement(tuple((v, int(d * den)) for v, d in segs), den)


def fraction_heights(segs, i):
    """Breakpoint values of h(t) = ⟨π(t), α_i^∨⟩."""
    hs = [Fraction(0)]
    for v, d in segs:
        hs.append(hs[-1] + v[i - 1] * d)
    return hs


def fraction_crossing(segs, times, hs, j, target):
    """Time inside segment j-1 at which h reaches target."""
    return times[j - 1] + segs[j - 1][1] * (target - hs[j - 1]) / (hs[j] - hs[j - 1])


def fraction_rebuild(rs, segs, times, t0, t1, i):
    """Reflect directions on [t0, t1], dropping empty pieces and merging equal neighbours."""
    out = []
    for j, (v, d) in enumerate(segs):
        a, b = times[j], times[j + 1]
        cuts = [a] + [t for t in (t0, t1) if a < t < b] + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi == lo:
                continue
            w = rs.reflect(v, i) if t0 <= lo and hi <= t1 else v
            if out and out[-1][0] == w:
                out[-1] = (w, out[-1][1] + hi - lo)
            else:
                out.append((w, hi - lo))
    return tuple(out)


def fraction_f(rs, segs, i):
    hs = fraction_heights(segs, i)
    m = min(hs)
    if hs[-1] - m < 1:
        return None
    # t0: last time h = m (a breakpoint); t1: first time h = m+1 after t0
    target = m + 1
    j0 = max(j for j, h in enumerate(hs) if h == m)
    j1 = next(j for j in range(j0 + 1, len(hs)) if hs[j] >= target)
    times = list(accumulate((d for _, d in segs), initial=Fraction(0)))
    return fraction_rebuild(rs, segs, times, times[j0], fraction_crossing(segs, times, hs, j1, target), i)


def fraction_e(rs, segs, i):
    hs = fraction_heights(segs, i)
    m = min(hs)
    if m > -1:
        return None
    # t1: first time h = m (a breakpoint); t0: last time h = m+1 before t1
    target = m + 1
    j1 = hs.index(m)
    j0 = next(j for j in range(j1, 0, -1) if hs[j - 1] >= target)
    times = list(accumulate((d for _, d in segs), initial=Fraction(0)))
    return fraction_rebuild(rs, segs, times, fraction_crossing(segs, times, hs, j0, target), times[j1], i)


def oracle_path_op(rs, p, i, raising):
    """f_i (or e_i) of one path, computed over Fraction durations."""
    segs = (fraction_e if raising else fraction_f)(rs, fraction_segs(p), i)
    return None if segs is None else from_fraction_segs(segs)


def oracle_eps_phi_path(p, i):
    """(ε_i, φ_i) of one path: −min of h(t) = ⟨π(t), α_i^∨⟩, and h(1) − min."""
    heights = fraction_heights(fraction_segs(p), i)
    low = min(heights)
    assert low.denominator == 1
    return -low, heights[-1] - low


# -- the Kashiwara signature rule written out once per statistic and operator, kept as the oracle


def oracle_epsilon(b, i):
    eps = 0
    for f in reversed(b.factors):
        ef, _ = oracle_eps_phi_path(f, i)
        eps = max(ef, eps - f.endpoint()[i - 1])
    return eps


def oracle_phi(b, i):
    ph = None
    for f in b.factors:
        _, pf = oracle_eps_phi_path(f, i)
        ph = pf if ph is None else max(pf, ph + f.endpoint()[i - 1])
    return ph


def oracle_operator(rs, b, i, raising):
    """f_i (or e_i) acts on the first factor k with φ_i(b_k) > (≥ for e_i) ε_i(b_{k+1} ⊗ ... ⊗ b_r)."""
    factors = b.factors
    for k, f in enumerate(factors):
        _, pf = oracle_eps_phi_path(f, i)
        rest = oracle_epsilon(TensorElement(factors[k + 1 :]), i) if k < len(factors) - 1 else None
        if rest is None or pf > rest or (raising and pf == rest):
            child = oracle_path_op(rs, f, i, raising)
            return None if child is None else TensorElement(factors[:k] + (child,) + factors[k + 1 :])


@st.composite
def tensor_elements(draw):
    """A root system and a random element of B(λ_1) ⊗ ... ⊗ B(λ_r), r = 2 or 3."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]))
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        b = highest_path(rs, rs.weight(*draw(st.tuples(*[st.integers(0, 2)] * rs.n))))
        for j in draw(st.lists(st.integers(1, rs.n), max_size=6)):
            b = path_f(rs, b, j) or b
        factors.append(b)
    return rs, TensorElement(factors)


@settings(max_examples=80, deadline=None)
@given(drawn=tensor_elements())
def test_signature_rule_matches_oracle(drawn):
    rs, b = drawn
    for i in range(1, rs.n + 1):
        assert epsilon(rs, b, i) == oracle_epsilon(b, i)
        assert phi(rs, b, i) == oracle_phi(b, i)
        assert path_f(rs, b, i) == oracle_operator(rs, b, i, raising=False)
        assert path_e(rs, b, i) == oracle_operator(rs, b, i, raising=True)


@st.composite
def small_tensors(draw):
    """A root system and b_1 ⊗ ... ⊗ b_r, r = 1-3, over A2, A3, B2, C2, G2 and B3, each b_k
    an element of B(λ_k) for λ_k = 0 or a sum of one or two fundamental weights."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2, B3]), label="root system")
    factors = []
    for _ in range(draw(st.integers(1, 3), label="factors")):
        lam = [0] * rs.n
        for u in draw(st.lists(st.integers(0, rs.n - 1), max_size=2), label="fundamental weights"):
            lam[u] += 1
        factors.append(draw(st.sampled_from(generate_crystal(rs, lam).vertices), label="factor"))
    return rs, TensorElement(factors)


@settings(max_examples=80, deadline=None)
@given(drawn=small_tensors())
def test_one_scan_strings_match_per_step_rule(drawn):
    """For every letter, the scan finds no string exactly when ε_i > 0, and otherwise the
    closure meets the elements of the per-step walk (`path_f` on the whole tensor each step)
    in its order, φ_i + 1 of them; the first factor, as a bare path, likewise."""
    rs, t = drawn
    for i in range(1, rs.n + 1):
        for b, string in ((t, _tensor_string), (t.factors[0], _path_string)):
            top = epsilon(rs, b, i) == 0
            assert (string(rs, b, i) != []) == top
            if top:
                closed = _f_strings(rs, {b: ()}, i, DEFAULT_BUDGET)
                assert list(closed) == string(rs, b, i) == f_string(rs, b, i)
                assert list(closed.values()) == [(k,) for k in range(phi(rs, b, i) + 1)]


def test_operators_reject_an_element_of_another_rank():
    """A path or tensor whose rank is not the root system's raises ValueError naming both ranks."""
    rank3, rank2 = PathElement.straight((1, 0, 1)), PathElement.straight((1, 1))
    with pytest.raises(ValueError, match="rank 3 .* rank 2"):
        path_f(A2, rank3, 1)
    with pytest.raises(ValueError, match="rank 3 .* rank 2"):
        epsilon(A2, rank3, 2)
    with pytest.raises(ValueError, match="rank 3 .* rank 2"):
        is_highest(A2, rank3)
    with pytest.raises(ValueError, match="rank 2 .* rank 3"):
        path_f(A3, rank2, 3)
    with pytest.raises(ValueError, match="rank 2 .* rank 3"):
        path_e(A3, TensorElement([rank2]), 3)
    with pytest.raises(ValueError, match="rank 2 .* rank 3"):
        wt(A3, highest_path(A2, (1, 1)))
    with pytest.raises(ValueError, match="rank 2 .* rank 3"):
        wt(A3, TensorElement([rank2, rank2]))


@st.composite
def path_model_crystals(draw):
    """A root system and the elements of a small B(λ), or of a random B_{I,λ_1..λ_r} with
    1-3 blocks, over A2, A3, B2, C2, G2; slopes 2 and 3 make denominators other than 1."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    r = draw(st.integers(0, 3), label="blocks (0: B(λ))")
    left, coords = (2 if rs is G2 else 3), []
    for _ in range(max(r, 1) * rs.n):
        coords.append(draw(st.integers(0, min(2, left)), label="weight coordinate"))
        left -= coords[-1]
    if r == 0:
        return rs, generate_crystal(rs, coords).vertices
    subsets = [sorted(draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset")) for _ in range(r)]
    lams = [coords[k * rs.n : (k + 1) * rs.n] for k in range(r)]
    return rs, gen_demazure_crystal_weights(rs, subsets, lams).elements


@settings(max_examples=100, deadline=None)
@given(drawn=path_model_crystals())
def test_integer_paths_match_fraction_model(drawn):
    """f_i, e_i, ε_i and φ_i on every path and tensor element equal the Fraction path model's."""
    rs, elements = drawn
    for b in elements:
        for f in b.factors if isinstance(b, TensorElement) else (b,):
            for i in range(1, rs.n + 1):
                assert (epsilon(rs, f, i), phi(rs, f, i)) == oracle_eps_phi_path(f, i)
                assert path_f(rs, f, i) == oracle_path_op(rs, f, i, raising=False)
                assert path_e(rs, f, i) == oracle_path_op(rs, f, i, raising=True)
        if isinstance(b, TensorElement):
            for i in range(1, rs.n + 1):
                assert epsilon(rs, b, i) == oracle_epsilon(b, i)
                assert phi(rs, b, i) == oracle_phi(b, i)
                assert path_f(rs, b, i) == oracle_operator(rs, b, i, raising=False)
                assert path_e(rs, b, i) == oracle_operator(rs, b, i, raising=True)


@st.composite
def fresh_crystals(draw):
    """A fresh root system, so that every path in it comes out of its operators, with the
    elements of a small B(λ) or of a random B_{I,λ_1..λ_r}.  Over A2, A3, B2, C2 and G2 the
    weights are as in `path_model_crystals`; over F4, B(λ) has λ = ϖ1, ϖ3 or ϖ4, and
    B_{I,λ} has 1-2 blocks with weights 0, ϖ1 or ϖ4."""
    name = draw(st.sampled_from(["A2", "A3", "B2", "C2", "G2", "F4"]), label="root system")
    rs = RootSystem(PRESETS[name])
    r = draw(st.integers(0, 2 if name == "F4" else 3), label="blocks (0: B(λ))")
    if name == "F4":
        picks = (1, 3, 4) if r == 0 else (0, 1, 4)
        # one fundamental index per block, so each weight is one ϖ_u (or 0)
        fundamentals = [draw(st.sampled_from(picks), label="ϖ") for _ in range(max(r, 1))]
        lams = [[int(k == u) for k in range(1, 5)] for u in fundamentals]
    else:
        left, coords = (2 if name == "G2" else 3), []
        for _ in range(max(r, 1) * rs.n):
            coords.append(draw(st.integers(0, min(2, left)), label="weight coordinate"))
            left -= coords[-1]
        lams = [coords[k * rs.n : (k + 1) * rs.n] for k in range(max(r, 1))]
    if r == 0:
        return rs, generate_crystal(rs, lams[0]).vertices
    subsets = [sorted(draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset")) for _ in range(r)]
    return rs, gen_demazure_crystal_weights(rs, subsets, lams).elements


@settings(max_examples=60, deadline=None)
@given(drawn=fresh_crystals())
def test_carried_state_matches_segments(drawn):
    """The endpoint and the (ε_i, φ_i) that the operators carry to their results equal the
    endpoint summed from the segments and the Fraction path model's ε_i and φ_i.

    `_ef` is the flat list [ε_1, φ_1, ..., ε_n, φ_n]: each pair is known in both slots or in
    neither, and every known pair is checked.  A hand-built copy of each path, given to e_i
    alone, knows every pair after it, and the dual of its dual is the path."""
    rs, elements = drawn
    for b in elements:
        for i in range(1, rs.n + 1):
            path_f(rs, b, i)
            path_e(rs, b, i)
    paths = set(rs._paths.values())
    assert len(paths) > 1 or len(elements) == 1
    for p in paths:
        assert p._end == tuple(Fraction(sum(v[k] * n for v, n in p.segs), p.den) for k in range(rs.n))
        assert len(p._ef) == 2 * rs.n
        for idx in range(rs.n):
            ef = tuple(p._ef[2 * idx : 2 * idx + 2])
            assert ef == (None, None) or ef == oracle_eps_phi_path(p, idx + 1)
    for b in elements:  # f_i and e_i have run on every element, so each of its paths knows every pair
        for f in b.factors if isinstance(b, TensorElement) else (b,):
            assert None not in f._ef
    # e_i alone fills the slots of the path it is given, from its walk on the dual path;
    # a cold root system, so that no cached result answers for the fresh copy
    cold = RootSystem(rs.cartan)
    for p in paths:
        fresh = PathElement(p.segs, p.den)
        for i in range(1, rs.n + 1):
            path_e(cold, fresh, i)
        for idx in range(rs.n):
            assert tuple(fresh._ef[2 * idx : 2 * idx + 2]) == oracle_eps_phi_path(p, idx + 1)
        dual = _dual(p)
        assert dual._end == tuple(-c for c in p._end) and _dual(dual) == p
        assert dual._ef[::2] == p._ef[1::2] and dual._ef[1::2] == p._ef[::2]


# -- B(λ) by breadth-first search under every f_i, kept as the oracle for the closure along w_0;
# its graph is assembled here, apart from graph_from_elements


def bfs_crystal(rs, lam):
    start = highest_path(rs, lam)
    seen = {start}
    queue = deque([start])
    while queue:
        b = queue.popleft()
        for i in range(1, rs.n + 1):
            c = path_f(rs, b, i)
            if c is not None and c not in seen:
                seen.add(c)
                queue.append(c)
    labels = range(1, rs.n + 1)
    verts = tuple(sorted(seen, key=fraction_key))
    index = {b: k for k, b in enumerate(verts)}
    edges = sorted((index[b], i, index[c]) for b in verts for i in labels if (c := path_f(rs, b, i)) in index)
    highest = next(
        k for k, b in enumerate(verts) if all(oracle_epsilon(TensorElement([b]), i) == 0 for i in labels)
    )
    weights = tuple(Weight(sum(v[k] * d for v, d in fraction_segs(b)) for k in range(rs.n)).coords for b in verts)
    return CrystalGraph(verts, weights, tuple(edges), highest)


@st.composite
def small_dominant_weights(draw):
    """A root system and a dominant λ with coordinate sum at most 3 (2 for G2)."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]))
    coords = draw(st.tuples(*[st.integers(0, 2)] * rs.n).filter(lambda c: sum(c) <= (2 if rs is G2 else 3)))
    return rs, rs.weight(*coords)


@settings(max_examples=40, deadline=None)
@given(drawn=small_dominant_weights())
def test_generate_crystal_matches_bfs(drawn):
    rs, lam = drawn
    assert generate_crystal(rs, lam) == bfs_crystal(rs, lam)


def fraction_key(b):
    """Vertex order with every path coordinate and duration n_j / den as a Fraction, kept as
    the oracle for the integer keys that vertex order sorts on."""
    factors = b.factors if isinstance(b, TensorElement) else (b,)
    key = tuple(tuple((tuple(Fraction(x) for x in v), Fraction(n, f.den)) for v, n in f.segs) for f in factors)
    return key if isinstance(b, TensorElement) else key[0]


@settings(max_examples=40, deadline=None)
@given(drawn=small_dominant_weights(), data=st.data())
def test_vertex_order_matches_fraction_order(drawn, data):
    rs, lam = drawn
    elements = generate_crystal(rs, lam).vertices
    assert list(elements) == sorted(elements, key=fraction_key)
    assert tuple(b.factors[0] for b in tensor_product_elements(rs, [lam])) == elements
    other = rs.fundamental_weight(data.draw(st.integers(1, rs.n), label="i"))
    pairs = tensor_product_elements(rs, [lam, other])
    assert list(graph_from_elements(rs, pairs).vertices) == sorted(pairs, key=fraction_key)


# sha256 of the crystal JSON artifacts of ϖ1..ϖ4, one after the other, captured before the
# root operators were spliced: vertex order and edges of types D and F stay byte for byte
FUNDAMENTAL_CRYSTALS = {
    "D4": ((8, 28, 8, 8), "cffe30df1b51fd0859878c39a1ad81a74c23b6cc62ec05d1faedbbf9b7cac509"),
    "F4": ((52, 1274, 273, 26), "8fedf7240727c5d1ca4a81caf76ce57762a05b9f9e4c3abc81de91ce98603f37"),
}


@pytest.mark.parametrize("name", sorted(FUNDAMENTAL_CRYSTALS))
def test_fundamental_crystals_of_d4_and_f4(name):
    rs = RootSystem.preset(name)
    dims, digest = FUNDAMENTAL_CRYSTALS[name]
    artifacts = hashlib.sha256()
    for i, want in enumerate(dims, start=1):
        lam = rs.fundamental_weight(i)
        graph = generate_crystal(rs, lam)
        assert graph.vertex_count == rs.weyl_dimension(lam) == want
        artifacts.update((json.dumps(_graph_json(graph), sort_keys=True, separators=(",", ":")) + "\n").encode())
    assert artifacts.hexdigest() == digest


# sha256 of CLI artifacts whose paths have denominators above 1 (up to 60 for G2), each in
# the command's default format, captured before the root operators became one pass each
# and graph assembly read flat sort keys: vertex order, edges, weights and Ω stay byte for byte
DENOMINATOR_ARTIFACTS = [
    ("B2", "crystal", {"weight": [2, 1]}, "384ecefd8ab944d50cb94460d024eca7ffa03d5e8f37845542ad9de7094dc108"),
    ("B2", "demazure", {"weight": [2, 1], "word": [2, 1, 2]}, "7c2bec230ca94f1e0596d6ee4464f9beda7ef562eee42bc32560c8a0921fc51c"),
    ("B2", "gen-demazure", {"subsets": [[1, 2], [1]], "weights": [[2, 1], [2, 0]]},
     "2da20c0910d75b0eec257465cdf5233335b8b38db5cf3a6e6b417241fe8129de"),
    ("B2", "lattice-points", {"word": [1, 2, 1, 2], "a": [2, 1, 0, 2]},
     "69f80b7fb557ee36a1f5af2accda509036d595729262699b167df9180cc301c2"),
    ("C3", "crystal", {"weight": [1, 0, 1]}, "898abea7c1a0f21602df99db9efefff56b450226dd9a182caa0b1f3cd5eb6b55"),
    ("C3", "demazure", {"weight": [1, 0, 1], "word": [2, 1, 3, 2, 1, 3]},
     "45571a154ed0102c95474c35360473c51a0d8e0b9475d0621b0e23ab83981c5a"),
    ("C3", "gen-demazure", {"subsets": [[2, 3], [1, 2, 3]], "weights": [[0, 0, 1], [1, 0, 1]]},
     "cbfb8a84179ec0b393f9a1212837dd6724315a061948bd7e8dbb7465d15f1b0b"),
    ("C3", "lattice-points", {"word": [1, 2, 1, 3, 2], "a": [1, 0, 2, 1, 2]},
     "b35f5b5be50298c60f80b2b31c64e1fed986b5ed463136cd294294a181a9a479"),
    ("G2", "crystal", {"weight": [1, 1]}, "92be86e6c6020c5f961f811562876ffa2e9c998d1dffd8d0aef6d67d145127d1"),
    ("G2", "demazure", {"weight": [1, 1], "word": [2, 1, 2, 1]}, "36821838d5374bf6053b9fe33df88888942fd1878f82541cba85b3c1573ebcad"),
    ("G2", "gen-demazure", {"subsets": [[1, 2], [2]], "weights": [[1, 1], [0, 1]]},
     "edfa328fc0ef9917a10ba20f81227317a9d262e82a99ab81ad1cf8d9cbb90683"),
    ("G2", "lattice-points", {"word": [2, 1, 2, 1], "a": [1, 1, 2, 0]},
     "a2eec67c0f0893b8b3f2035ad95a1dff72ec53775a52fb073698bfc4c1a9647c"),
    # B(ρ) of A4: 1,024 vertices and 2,304 edges
    ("A4", "crystal", {"weight": [1, 1, 1, 1]}, "685162384b1eb2e27143955d1d47b141cb1776e6ebc402c6ecda03b3c2423bea"),
]


@pytest.mark.parametrize(
    "root_system,command,params,digest",
    DENOMINATOR_ARTIFACTS,
    ids=[f"{rs}-{cmd}" for rs, cmd, _, _ in DENOMINATOR_ARTIFACTS],
)
def test_artifacts_with_denominators(tmp_path, root_system, command, params, digest):
    config = {"root_system": root_system, "command": command, "params": params, "output": {"path": "out"}}
    (tmp_path / "job.json").write_text(json.dumps(config))
    assert main(["--config", str(tmp_path / "job.json"), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


# -- one-factor tensors and the highest vertex of a set that is not closed under e_i


@pytest.mark.parametrize("name, coords", [("A2", (1, 1)), ("B2", (1, 1)), ("C2", (1, 1)), ("G2", (1, 1)), ("B3", (1, 0, 1))])
def test_one_factor_tensor_operators_match_the_path(name, coords):
    """On one factor the signature rule picks that factor: f_i and e_i of (p,) are (op(p),) or
    None; an index out of range raises with the operator caches cold and warm, and is never cached."""
    rs = RootSystem.preset(name)
    lam = rs.weight(*coords)
    top = TensorElement((highest_path(rs, lam),))

    def index_checked():
        for i in (0, rs.n + 1):
            for op in (path_f, path_e):
                with pytest.raises(IndexError):
                    op(rs, top, i)
        assert all(1 <= i <= rs.n for _, i in [*rs._f_cache, *rs._e_cache])

    index_checked()
    assert not rs._f_cache and not rs._e_cache
    paths = generate_crystal(rs, lam).vertices
    assert len(paths) == rs.weyl_dimension(lam)
    for p in paths:
        for i in range(1, rs.n + 1):
            for op in (path_f, path_e):
                via_tensor = op(rs, TensorElement((p,)), i)
                child = op(rs, p, i)
                assert via_tensor == (None if child is None else TensorElement((child,)))
    index_checked()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_highest_vertex_of_a_set_not_closed_under_e(data):
    """A random part of B(λ) ⊗ B(μ): the highest vertex is the first one in vertex order with
    ε_i = 0 for every i, as a scan of every vertex finds it."""
    rs = data.draw(st.sampled_from([A2, B2, C2, G2]), label="root system")
    lams = [rs.weight(*data.draw(st.tuples(*[st.integers(0, 1)] * rs.n), label="weight")) for _ in range(2)]
    elements = tensor_product_elements(rs, lams)
    keep = data.draw(st.lists(st.booleans(), min_size=len(elements), max_size=len(elements)), label="kept")
    graph = graph_from_elements(rs, [b for b, k in zip(elements, keep) if k])
    assert graph.highest == first_highest_vertex(rs, graph)


# -- input checks of hand-built elements


def test_tensor_of_no_factors_rejected():
    with pytest.raises(ValueError, match="at least one factor"):
        TensorElement(())


def test_non_integral_lowest_height_rejected():
    """An A1 path that dips to height -1/2 and returns: ε_1 would be 1/2."""
    a1 = RootSystem.preset("A1")
    p = PathElement((((-1,), 1), ((1,), 1)), 2)
    for op in (epsilon, path_f, path_e):
        with pytest.raises(ValueError, match="non-integral path height"):
            op(a1, p, 1)


@pytest.mark.parametrize("segs,den,message", [
    # would hash and compare as b_{ϖ_1}, the path over den 1, and take its cached f_1
    ((((1, 0), 1),), 2, "summing to den"),
    # is b_{ϖ_1}, but would compare unequal to it
    ((((1, 0), 2),), 2, "no common factor"),
    ((((1, 0), 0), ((0, 1), 1)), 1, "positive integers"),
    ((), 1, "positive integers"),
    ((((1, 0), 1), ((1,), 1)), 2, "one rank"),
    ((((1, 0), 1), ((1, 0), 1)), 2, "must differ"),
])
def test_hand_built_path_rejected(segs, den, message):
    """A path built by hand must be in the form that equality and hashing compare."""
    with pytest.raises(ValueError, match=message):
        PathElement(segs, den)


def test_lazy_endpoint_matches_carried_endpoint():
    """A path built without `end` sums its segments into its endpoint when it is made."""
    assert PathElement((((1, 0), 1), ((-1, 1), 1)), 2).endpoint() == (0, Fraction(1, 2))
    for b in generate_crystal(B2, (1, 1)).vertices:
        bare = PathElement(b.segs, b.den)
        assert bare._end == b.endpoint()
        assert bare.endpoint() == b.endpoint()
