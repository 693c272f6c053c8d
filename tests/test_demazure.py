"""Demazure and generalized Demazure crystals, string parametrizations."""

import json
from collections import Counter, defaultdict
from dataclasses import replace
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcubes import cli, demazure
from crystalcubes.crystal import (
    PathElement,
    TensorElement,
    _close,
    _factors,
    epsilon,
    generate_crystal,
    graph_from_elements,
    highest_path,
    is_highest,
    path_e,
    path_f,
    wt,
)
from crystalcubes.demazure import (
    demazure_crystal,
    gen_demazure_crystal,
    gen_demazure_crystal_weights,
)
from crystalcubes.rootsys import (
    PRESETS,
    BudgetExceededError,
    InvariantError,
    RootSystem,
    SubsetSequence,
    Weight,
    WordSequence,
)
from crystalcubes.stringpoly import fiber_string_points, hat_lattice_points, multiplicity, tensor_decompose
from oracles import saturate_all_tensor
from test_stringpoly import reduced_longest_words

A2 = RootSystem.preset("A2")
A3 = RootSystem.preset("A3")
B2 = RootSystem([[2, -1], [-2, 2]])
C2 = RootSystem([[2, -2], [-1, 2]])
G2 = RootSystem([[2, -1], [-3, 2]])
B3 = RootSystem.preset("B3")
C3 = RootSystem.preset("C3")

SL3_SUBSETS = SubsetSequence([(1, 2), (1, 2)])
SL3_WORDS = WordSequence([(1, 2, 1), (1, 2, 1)])
SL3_WORD = (1, 2, 1, 1, 2, 1)
SL3_A = (0, 1, 1, 0, 1, 1)  # pullback vector of λ = μ = ϖ1 + ϖ2


def word_length(rs, word):
    """Coxeter length of s_{word}: the positive roots it sends negative, counted from
    its matrix on root coefficients (independent of the descent walk in `is_reduced`)."""
    c = rs.cartan
    cols = [tuple(int(r == j) for r in range(rs.n)) for j in range(rs.n)]  # column j: the image of α_j
    for i in reversed(word):
        cols = [
            tuple(b - sum(beta[j] * c[i - 1][j] for j in range(rs.n)) * (r == i - 1) for r, b in enumerate(beta))
            for beta in cols
        ]
    images = ([sum(beta[j] * cols[j][r] for j in range(rs.n)) for r in range(rs.n)] for beta in rs.positive_roots())
    return sum(all(x <= 0 for x in image) for image in images)


def all_reduced_words(rs, word):
    """All reduced words of the element s_{word}, by peeling left descents."""
    out = set()
    n = rs.n
    length = word_length(rs, word)
    if length == 0:
        return {()}
    for i in range(1, n + 1):
        shorter = (i,) + tuple(word)
        if word_length(rs, shorter) == length - 1:
            for rest in all_reduced_words(rs, shorter):
                out.add((i,) + rest)
    return out


class TestDemazureCrystal:
    def test_figure_count(self):
        assert len(demazure_crystal(A2, A2.weight(1, 1), (2, 1))) == 5

    def test_empty_word(self):
        assert demazure_crystal(A2, A2.weight(1, 1), ()) == frozenset({highest_path(A2, A2.weight(1, 1))})

    def test_longest_gives_full_crystal(self):
        full = demazure_crystal(A2, A2.weight(1, 1), A2.longest_word([1, 2]))
        assert len(full) == 8

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError):
            demazure_crystal(A2, A2.weight(1, 1), (1, 1))

    def test_word_independence_rank2(self):
        lam = A2.weight(2, 1)
        words = all_reduced_words(A2, (1, 2, 1))
        assert words == {(1, 2, 1), (2, 1, 2)}
        sets = {frozenset(demazure_crystal(A2, lam, w)) for w in words}
        assert len(sets) == 1

    def test_word_independence_rank3(self):
        lam = A3.weight(1, 0, 1)
        for seed_word in [(1, 3), (1, 2, 1, 3), (2, 1, 3, 2)]:
            words = all_reduced_words(A3, seed_word)
            assert len(words) > 1
            sets = {frozenset(demazure_crystal(A3, lam, w)) for w in words}
            assert len(sets) == 1


class TestGenDemazure:
    def test_single_letter_string(self):
        for a in range(4):
            crystal = gen_demazure_crystal(A2, (1,), (a,))
            assert crystal.element_count == a + 1

    def test_zero_vector(self):
        crystal = gen_demazure_crystal(A2, (1, 2, 1), (0, 0, 0))
        assert crystal.element_count == 1

    def test_sl3_pullback_count(self):
        # identical crystal graph to B_{I,λ,μ}, hence 64 = dim V(λ)⊗V(μ) elements
        crystal = gen_demazure_crystal(A2, SL3_WORD, SL3_A)
        assert crystal.element_count == 64

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gen_demazure_crystal(A2, (1,), (-1,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_demazure_crystal(A2, (1, 2), (1,))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            gen_demazure_crystal(A2, (), ())

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            gen_demazure_crystal(A2, SL3_WORD, SL3_A, budget=10)

    @pytest.mark.parametrize(
        "build, size",
        [
            (lambda budget: gen_demazure_crystal_weights(A2, [[1, 2], [1, 2]], [(1, 1), (1, 0)], budget=budget), 24),
            # singleton blocks: every block but the innermost closes tensors
            (lambda budget: gen_demazure_crystal(A2, SL3_WORD, SL3_A, budget), 64),
        ],
        ids=["weights", "word"],
    )
    def test_budget_counts_every_tensor(self, build, size):
        """The running count stops a saturation at exactly |B| − 1 and lets it through at |B|."""
        assert build(size).element_count == size
        with pytest.raises(BudgetExceededError, match=rf"^saturation exceeded budget of {size - 1} elements$"):
            build(size - 1)


class TestGenDemazureWeights:
    def test_r1_full_crystal(self):
        crystal = gen_demazure_crystal_weights(A2, SubsetSequence([(1, 2)]), [A2.weight(1, 1)])
        assert crystal.element_count == 8

    def test_all_zero_weights(self):
        crystal = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [A2.zero_weight(), A2.zero_weight()])
        assert crystal.element_count == 1

    def test_sl3_count_64(self):
        lam = A2.weight(1, 1)
        crystal = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
        assert crystal.element_count == 64
        assert crystal.element_count == A2.weyl_dimension(lam) ** 2

    def test_components_are_full_crystals(self):
        # I1 = [n]: every connected component is a full B(ν)
        lam = A2.weight(1, 1)
        crystal = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
        comps = crystal.components()
        assert [size for size, _ in comps] == [27, 10, 10, 8, 8, 1]
        for size, nu in comps:
            assert type(nu) is tuple and all(type(x) is int for x in nu)
            assert A2.weyl_dimension(nu) == size

    def test_singleton_blocks_degenerate_to_word_shape(self):
        subsets = SubsetSequence([(1,), (2,), (1,)])
        lams = [A2.weight(2, 0), A2.weight(0, 1), A2.weight(1, 0)]
        via_weights = gen_demazure_crystal_weights(A2, subsets, lams)
        via_word = gen_demazure_crystal(A2, (1, 2, 1), (2, 1, 1))
        assert via_weights.elements == via_word.elements
        assert via_weights.omega_vectors() == via_word.omega_vectors()

    def test_zero_weight_factor_kept(self):
        # prepending ([n], 0) keeps b_0 as an honest factor and fixes the graph
        lam = A2.weight(1, 0)
        plain = gen_demazure_crystal_weights(A2, SubsetSequence([(1, 2)]), [lam])
        padded = gen_demazure_crystal_weights(
            A2, SubsetSequence([(1, 2), (1, 2)]), [A2.zero_weight(), lam]
        )
        assert padded.element_count == plain.element_count
        for b in padded.elements:
            assert len(b.factors) == 2
            assert b.factors[0] == highest_path(A2, A2.zero_weight())

    def test_one_block_over_budget_raises_from_the_closure(self):
        """One block closes bare paths; the running count still stops it, with the same message."""
        subsets, lams = [(1, 2)], [A2.weight(1, 1)]
        with pytest.raises(BudgetExceededError, match=r"^saturation exceeded budget of 7 elements$"):
            gen_demazure_crystal_weights(A2, subsets, lams, budget=7)
        crystal = gen_demazure_crystal_weights(A2, subsets, lams, budget=8)
        assert crystal.element_count == 8
        assert all(type(b) is PathElement for b in crystal.elements)

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            gen_demazure_crystal_weights(A2, SL3_SUBSETS, [A2.weight(-1, 0), A2.weight(1, 1)])


class TestOmega:
    def test_top_element_zero(self):
        crystal = gen_demazure_crystal(A2, SL3_WORD, SL3_A)
        tops = [b for b in crystal.elements if all(epsilon(A2, b, i) == 0 for i in (1, 2))]
        zero = (0,) * 6
        omegas = crystal.omega_map()
        assert any(omegas[b] == zero for b in tops)

    def test_single_string(self):
        crystal = gen_demazure_crystal(A2, (1,), (3,))
        for b, xs in crystal.omega_map().items():
            rebuilt = rebuild_from_omega(A2, (1,), (3,), xs)
            assert rebuilt == b

    def test_round_trip_sl3(self):
        crystal = gen_demazure_crystal(A2, SL3_WORD, SL3_A)
        for b, xs in crystal.omega_map().items():
            assert rebuild_from_omega(A2, SL3_WORD, SL3_A, xs) == b

    def test_injective_and_nonnegative(self):
        crystal = gen_demazure_crystal(A2, SL3_WORD, SL3_A)
        omegas = list(crystal.omega_map().values())
        assert len(set(omegas)) == len(omegas)
        assert all(x >= 0 for xs in omegas for x in xs)

    def test_blocked_matches_flat_on_sl3(self):
        lam = A2.weight(1, 1)
        flat = gen_demazure_crystal(A2, SL3_WORD, SL3_A)
        blocked = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
        assert set(flat.omega_vectors()) == set(blocked.omega_vectors())

    def test_blocked_matches_flat_on_a3_mixed(self):
        from crystalcubes.bundles import pullback_vector

        subsets, words = A3.blocks([(1, 2, 3), (2,)])
        lams = [A3.weight(1, 0, 0), A3.weight(0, 1, 0)]
        a = pullback_vector(A3, subsets, words, lams)
        flat = gen_demazure_crystal(A3, words.flat, a)
        blocked = gen_demazure_crystal_weights(A3, subsets, lams, words)
        assert set(flat.omega_vectors()) == set(blocked.omega_vectors())
        assert flat.element_count == blocked.element_count

    def test_monotone_growth(self):
        word = (1, 2, 1)
        small = set(gen_demazure_crystal(A2, word, (1, 0, 1)).omega_vectors())
        for bigger in [(1, 1, 1), (2, 0, 1), (2, 1, 2)]:
            big = set(gen_demazure_crystal(A2, word, bigger).omega_vectors())
            assert small <= big

    def test_blocked_peeling_takes_plain_lists(self):
        lam = A2.weight(1, 1)
        crystal = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
        for words in ([[1, 2, 1], [1, 2, 1]], None):
            plain = gen_demazure_crystal_weights(A2, [[1, 2], [1, 2]], [[1, 1], [1, 1]], words)
            assert plain.omega_map() == crystal.omega_map()

    @pytest.mark.parametrize(
        "words,lams",
        [
            ([[1, 2, 1], [1, 2]], [[1, 1], [1, 1]]),  # not a longest word of W_{1,2}
            ([[1, 2, 1], [1, 1, 2]], [[1, 1], [1, 1]]),  # not reduced
            ([[1, 2, 1]], [[1, 1], [1, 1]]),  # one word for two subsets
            (SL3_WORDS, [[1, 1], [-1, 2]]),  # a weight that is not dominant
            (SL3_WORDS, [[1, 1]]),  # one weight for two subsets
        ],
    )
    def test_blocked_peeling_rejects_bad_words_and_weights(self, words, lams):
        with pytest.raises(ValueError):
            gen_demazure_crystal_weights(A2, [[1, 2], [1, 2]], lams, words)


def gen_demazure_artifact(rs, **params):
    """The gen-demazure JSON document that the CLI handler's artifact renders to, its subsets and
    words checked first; the artifact holds tuples, which the JSON writes as arrays."""
    if "subsets" in params:
        params["subsets"], params["words"] = rs.blocks(params["subsets"], params.get("words"))
    artifact = cli._gen_demazure(rs, params, cli.JobConfig(rs, "gen-demazure", params))[0]
    return json.loads(cli._render(artifact, None, "json"))


class TestExport:
    def test_json_dict(self):
        doc = gen_demazure_artifact(A2, word=[1, 2], a=[1, 1])
        assert doc["element_count"] == 5
        assert doc["omega_vectors"] == sorted(doc["omega_vectors"])
        assert doc["shape"] == {"kind": "word", "a": [1, 1]}

    def test_weights_json_shape(self):
        lam = A2.weight(1, 1)
        doc = gen_demazure_artifact(A2, subsets=SL3_SUBSETS, weights=[lam, lam], words=SL3_WORDS)
        assert doc["shape"]["kind"] == "weights"
        assert doc["block_sizes"] == [3, 3]


def word_shape_oracle(rs, word, a):
    """The word shape written out on its own, kept as the oracle: element → Ω-vector.

    Saturation tensors b_{a_k ϖ_{i_k}} on the left and closes under f_{i_k},
    innermost letter first; Ω raises maximally along i_k and drops the exposed
    b_{a_k ϖ_{i_k}}, one letter at a time.  A one-letter word's elements are keyed
    as the bare paths that the saturation holds them as.
    """
    tops = [highest_path(rs, a_k * rs.fundamental_weight(i)) for i, a_k in zip(word, a)]
    current = {()}
    for top, i in zip(reversed(tops), reversed(word)):
        current = {(top,) + factors for factors in current}
        frontier = list(current)
        while frontier:
            c = path_f(rs, TensorElement(frontier.pop()), i)
            if c is not None and c.factors not in current:
                current.add(c.factors)
                frontier.append(c.factors)
    omegas = {}
    for factors in current:
        b, xs = TensorElement(factors), []
        for k, i in enumerate(word):
            x = 0
            while (c := path_e(rs, b, i)) is not None:
                b, x = c, x + 1
            xs.append(x)
            assert b.factors[0] == tops[k]
            if k < len(word) - 1:
                b = TensorElement(b.factors[1:])
        omegas[TensorElement(factors) if len(factors) > 1 else factors[0]] = tuple(xs)
    return omegas


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_word_shape_is_singleton_block_case(data):
    rs = data.draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    letters = st.integers(1, rs.n)
    word = tuple(data.draw(st.lists(letters, min_size=1, max_size=4 if rs.n == 2 else 3), label="word"))
    a = tuple(data.draw(st.lists(st.integers(0, 2), min_size=len(word), max_size=len(word)), label="a"))

    via_word = gen_demazure_crystal(rs, word, a)
    subsets = SubsetSequence([(i,) for i in word])
    lams = [a_k * rs.fundamental_weight(i) for i, a_k in zip(word, a)]
    via_blocks = gen_demazure_crystal_weights(rs, subsets, lams, WordSequence(subsets.sets))
    assert via_word.elements == via_blocks.elements
    assert via_word.omega_vectors() == via_blocks.omega_vectors()
    word_doc = gen_demazure_artifact(rs, word=list(word), a=list(a))
    blocks_doc = gen_demazure_artifact(rs, subsets=subsets, weights=lams, words=WordSequence(subsets.sets))
    assert word_doc.pop("shape") == {"kind": "word", "a": list(a)}
    assert blocks_doc.pop("shape")["kind"] == "weights"
    assert word_doc == blocks_doc

    oracle = word_shape_oracle(rs, word, a)
    assert via_word.elements == set(oracle)
    assert via_word.omega_map() == oracle


def test_string_word_rejected():
    with pytest.raises(TypeError):
        gen_demazure_crystal(A2, "12", (1, 1))
    with pytest.raises(TypeError):
        gen_demazure_crystal(A2, (1, 2), "11")


def graph_components(crystal):
    """Components read off the sorted in-set crystal graph, kept as the oracle for
    `GenDemazureCrystal.components`, which raises one element per Ω tail to its piece's
    one highest element and never builds the graph."""
    g = graph_from_elements(crystal.rs, crystal.elements)
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, _, v in g.edges:
        parent[find(u)] = find(v)
    groups = {}
    for k in range(g.vertex_count):
        groups.setdefault(find(k), []).append(k)
    # (size, *highest weights), so a piece with other than one highest element matches no pair
    out = [
        (len(members), *sorted(g.weights[k] for k in members if is_highest(crystal.rs, g.vertices[k])))
        for members in groups.values()
    ]
    return sorted(out, key=lambda c: (-c[0], c[1:]))


@st.composite
def small_block_crystals(draw):
    """A random B_{I,λ_1..λ_r} over A2, A3, B2, C2, G2, B3, C3: 1-3 blocks, each a random
    subset with a dominant weight, the weight coordinates summing to at most 3 (2 for G2,
    B3 and C3), with its tops b_{λ_k}."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2, B3, C3]), label="root system")
    r = draw(st.integers(1, 3), label="blocks")
    subsets = [sorted(draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset")) for _ in range(r)]
    left, coords = (2 if rs in (G2, B3, C3) else 3), []
    for _ in range(r * rs.n):
        coords.append(draw(st.integers(0, min(2, left)), label="weight coordinate"))
        left -= coords[-1]
    lams = [rs.weight(coords[k * rs.n:(k + 1) * rs.n]) for k in range(r)]
    return gen_demazure_crystal_weights(rs, subsets, lams), [highest_path(rs, lam) for lam in lams]


@st.composite
def repeated_letter_crystals(draw):
    """A random B_{i,a} over A2, A3, B2, C2, G2 whose word of 2-4 letters repeats a letter, with
    entries of a at most 2: singleton blocks, so each Ω tail is all but the first entry."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    word = draw(st.lists(st.integers(1, rs.n), min_size=1, max_size=3), label="word")
    word.insert(draw(st.integers(0, len(word)), label="at"), draw(st.sampled_from(word), label="repeat"))
    a = draw(st.lists(st.integers(0, 2), min_size=len(word), max_size=len(word)), label="a")
    return gen_demazure_crystal(rs, word, a)


@settings(max_examples=60, deadline=None)
@given(crystal=st.one_of(small_block_crystals().map(itemgetter(0)), repeated_letter_crystals()))
def test_components_match_graph_oracle(crystal):
    """The set is closed under every e_i, which `components` relies on, and its
    pieces are those of the crystal graph."""
    for b in crystal.elements:
        for i in range(1, crystal.rs.n + 1):
            c = path_e(crystal.rs, b, i)
            assert c is None or c in crystal.elements
    assert crystal.components() == graph_components(crystal)


def test_one_block_components_raise_one_element(monkeypatch):
    """With one block every Ω tail is (), so `components` makes one walk, from b_λ: at most
    one e_i call per label."""
    rs = RootSystem.preset("A4")
    crystal = gen_demazure_crystal_weights(rs, [[1, 2, 3, 4]], [(2, 1, 1, 2)])
    calls = []

    def counted(rs, b, i):
        calls.append(i)
        return path_e(rs, b, i)

    monkeypatch.setattr(demazure, "path_e", counted)
    assert crystal.components() == [(6125, (2, 1, 1, 2))]
    assert len(calls) <= rs.n


def test_omega_map_is_read_only():
    """The Ω map is also the crystal's element store, so it is handed out read-only."""
    crystal = gen_demazure_crystal_weights(A2, [[1, 2]], [(1, 1)])
    components = crystal.components()
    b = next(iter(crystal.elements))
    omega = crystal.omega_map()
    with pytest.raises(AttributeError):  # a read-only view has no pop
        omega.pop(b)
    with pytest.raises(TypeError):
        del omega[b]
    with pytest.raises(TypeError):
        omega[b] = (0, 0, 0)
    assert crystal.element_count == len(crystal.elements) == 8
    assert crystal.components() == components


def is_int_tuple(w) -> bool:
    return type(w) is tuple and all(type(x) is int for x in w)


def test_results_are_int_tuples_built_without_weights(monkeypatch):
    """Graph weights and component weights are tuples of ints, and given `Weight` inputs,
    `tensor_decompose`, `multiplicity` and `components` construct no `Weight`."""
    lams, nu, full = [A3.weight(1, 0, 1), A3.weight(0, 1, 0)], A3.weight(1, 1, 1), [[1, 2, 3], [1, 2, 3]]
    crystal = gen_demazure_crystal_weights(A3, full, lams)
    for graph in (generate_crystal(A3, lams[0]), graph_from_elements(A3, crystal.elements)):
        assert all(map(is_int_tuple, graph.weights))

    def no_weight(self, coords):
        raise AssertionError("a Weight was constructed")

    monkeypatch.setattr(Weight, "__init__", no_weight)
    table = tensor_decompose(A3, lams)
    assert multiplicity(A3, full, lams, nu) == table.as_dict()[nu.coords] == 1
    components = crystal.components()
    assert all(type(size) is int and is_int_tuple(w) for size, w in components)
    assert Counter(w for _, w in components) == Counter(table.as_dict())
    assert sum(size for size, _ in components) == crystal.element_count


def test_components_reject_a_set_not_closed_under_e():
    """Without the highest element b_{λ_1} ⊗ b_{λ_2}, raising leaves the set: a program defect."""
    lam = A2.weight(1, 1)
    crystal = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
    top = TensorElement((highest_path(A2, lam), highest_path(A2, lam)))
    assert top in crystal.elements
    broken = replace(crystal, _omega={b: xs for b, xs in crystal.omega_map().items() if b != top})
    with pytest.raises(InvariantError, match="leaves the generalized Demazure crystal"):
        broken.components()


# -- Ω peeled element by element, kept as the oracle for the Ω recorded while saturating,
# and its inverse on the word shape


def peel_oracle(rs, tops, blocks, b):
    """Ω: raise maximally along each block's letters, then drop the exposed top path; b is a
    bare path when there is one block."""
    xs = []
    for k, (top, block) in enumerate(zip(tops, blocks)):
        for i in block:
            x = 0
            while (c := path_e(rs, b, i)) is not None:
                b, x = c, x + 1
            xs.append(x)
        if _factors(b)[0] != top:
            raise ValueError("element is not in the generalized Demazure crystal (peeling failed)")
        if k < len(blocks) - 1:
            b = TensorElement(b.factors[1:])
    return tuple(xs)


def rebuild_from_omega(rs, word, a, xs):
    """Inverse of Ω on B_{i,a}: apply the nested f-pattern f_{i_1}^{x_1}(b_{a_1 ϖ_{i_1}} ⊗ ...),
    unwrapped to a bare path for a one-letter word."""
    tops = [highest_path(rs, a_k * rs.fundamental_weight(i)) for i, a_k in zip(word, a)]
    tail = ()
    for k in reversed(range(len(word))):
        current = TensorElement((tops[k],) + tail)
        for _ in range(xs[k]):
            current = path_f(rs, current, word[k])
            if current is None:
                raise ValueError("exponent pattern leaves the crystal")
        tail = current.factors
    return TensorElement(tail) if len(tail) > 1 else tail[0]


@st.composite
def small_word_crystals(draw):
    """A random B_{i,a} over A2, A3, B2, C2, G2 with 1-3 letters and entries of a at most 2,
    with its tops b_{a_k ϖ_{i_k}}."""
    rs = draw(st.sampled_from([A2, A3, B2, C2, G2]), label="root system")
    word = draw(st.lists(st.integers(1, rs.n), min_size=1, max_size=3), label="word")
    a = draw(st.lists(st.integers(0, 2), min_size=len(word), max_size=len(word)), label="a")
    tops = [highest_path(rs, a_k * rs.fundamental_weight(i)) for i, a_k in zip(word, a)]
    return gen_demazure_crystal(rs, word, a), tops


@settings(max_examples=80, deadline=None)
@given(crystal_tops=st.one_of(small_word_crystals(), small_block_crystals()))
def test_memoized_omega_matches_oracle(crystal_tops):
    crystal, tops = crystal_tops
    expected = {b: peel_oracle(crystal.rs, tops, crystal.words.blocks, b) for b in crystal.elements}
    assert crystal.omega_map() == expected


def test_peel_oracle_rejects_foreign_element():
    lam = A2.weight(1, 1)
    crystal = gen_demazure_crystal_weights(A2, SL3_SUBSETS, [lam, lam], SL3_WORDS)
    foreign = TensorElement((highest_path(A2, A2.weight(2, 2)), highest_path(A2, lam)))
    assert foreign not in crystal.elements
    with pytest.raises(ValueError, match="peeling failed"):
        peel_oracle(A2, [highest_path(A2, lam)] * 2, SL3_WORDS.blocks, foreign)


def test_closure_rejects_a_string_without_its_top():
    """f_1 b_{ϖ_1} has ε_1 = 1, and its 1-string's top b_{ϖ_1} is not in the start set: the
    string property that the recorded Ω rests on fails, a defect of the program."""
    below_top = path_f(A2, highest_path(A2, A2.fundamental_weight(1)), 1)
    assert epsilon(A2, below_top, 1) == 1
    with pytest.raises(InvariantError, match="without its top"):
        _close(A2, {below_top: ()}, (1,), 10**6)


def test_recorded_omega_calls_no_raising_operator():
    """Building and reading Ω, decomposing a tensor product and reading a fiber call no e_i."""
    c3, a3, g2 = RootSystem.preset("C3"), RootSystem.preset("A3"), RootSystem.preset("G2")
    crystal = gen_demazure_crystal_weights(c3, [[1, 2, 3], [2, 3]], [(1, 0, 1), (0, 1, 1)])
    assert len(crystal.omega_map()) == crystal.element_count == 5418
    assert tensor_decompose(a3, [(1, 0, 1), (1, 1, 1)]).total() == 12
    assert len(fiber_string_points(g2, [[1, 2], [1, 2]], [(1, 0), (0, 1)], (0, 0, 0, 0, 0, 0))) == 64
    for rs in (c3, a3, g2):
        assert rs._f_cache and not rs._e_cache


@pytest.mark.parametrize("name,coords", [("A3", (1, 0, 1)), ("B2", (1, 1)), ("G2", (1, 0)), ("C3", (0, 1, 1))])
def test_operator_caches_hold_paths_only(name, coords):
    """The f-cache of a fresh root system, once B(λ) is built, is exactly the crystal graph's
    f-edges: an f_i with no result leaves no entry.  Neither does an e_i with none, when the
    components of a generalized Demazure crystal of two blocks are read."""
    rs = RootSystem.preset(name)
    graph = generate_crystal(rs, coords)
    verts = graph.vertices
    assert rs._f_cache == {(verts[u], i): verts[v] for u, i, v in graph.edges}
    assert not rs._e_cache
    rs = RootSystem.preset(name)
    crystal = gen_demazure_crystal_weights(rs, [[1], range(1, rs.n + 1)], [(1,) + (0,) * (rs.n - 1), coords])
    assert len(crystal.components()) > 1
    assert rs._e_cache and None not in rs._e_cache.values() and None not in rs._f_cache.values()


@pytest.mark.parametrize("rs", [A2, A3, B2, C2, G2, B3, C3], ids=["A2", "A3", "B2", "C2", "G2", "B3", "C3"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fibers_match_peel_oracle(rs, data):
    """The fiber over each projected point x holds the first-block heads of the oracle's Ω over
    the elements of B_{I,λ} whose tail is x; the first block is [n], with 1-2 blocks after it."""
    r = data.draw(st.integers(2, 3), label="blocks")
    subsets = [range(1, rs.n + 1)]
    subsets += [sorted(data.draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset")) for _ in range(r - 1)]
    left, coords = (2 if rs in (G2, B3, C3) else 3), []
    for _ in range(r * rs.n):
        coords.append(data.draw(st.integers(0, min(2, left)), label="weight coordinate"))
        left -= coords[-1]
    lams = [rs.weight(coords[k * rs.n:(k + 1) * rs.n]) for k in range(r)]
    crystal = gen_demazure_crystal_weights(rs, subsets, lams)
    tops = [highest_path(rs, lam) for lam in lams]
    head = len(crystal.words.blocks[0])
    heads = defaultdict(set)
    for b in crystal.elements:
        xs = peel_oracle(rs, tops, crystal.words.blocks, b)
        heads[xs[head:]].add(xs[:head])
    assert hat_lattice_points(rs, subsets, lams) == tuple(sorted(heads))
    for x, expected in heads.items():
        assert fiber_string_points(rs, subsets, lams, x) == tuple(sorted(expected))


# -- the innermost block closed on bare paths, against the all-tensor closure


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bare_innermost_closure_matches_all_tensor_closure(data):
    name = data.draw(st.sampled_from(["A2", "A3", "B2", "B3", "C2", "C3", "G2"]), label="preset")
    rs = RootSystem.preset(name)
    r = data.draw(st.integers(1, 3), label="blocks")
    subsets = [sorted(data.draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset")) for _ in range(r)]
    words = [data.draw(reduced_longest_words(rs, s), label="word") for s in subsets]
    left, coords = (3 if name in ("A2", "A3", "B2", "C2") else 2), []
    for _ in range(r * rs.n):
        coords.append(data.draw(st.integers(0, min(2, left)), label="weight coordinate"))
        left -= coords[-1]
    lams = [rs.weight(coords[k * rs.n:(k + 1) * rs.n]) for k in range(r)]
    crystal = gen_demazure_crystal_weights(rs, subsets, lams, words)
    assert crystal.elements == saturate_all_tensor(rs, [highest_path(rs, lam) for lam in lams], crystal.words.blocks)
    if r == 1:
        assert all(type(b) is PathElement for b in crystal.elements)
    else:
        assert all(type(b) is TensorElement and len(b.factors) == r for b in crystal.elements)


# -- one block is the Demazure crystal, held as bare paths


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_block_is_the_demazure_crystal(data):
    """B_{I,λ} with one block is B_{w_0(I)}(λ): the same bare paths that `demazure_crystal`
    closes along the same reduced word."""
    rs = data.draw(st.sampled_from([A2, A3, B2, C2, G2, B3, C3]), label="root system")
    subset = sorted(data.draw(st.sets(st.integers(1, rs.n), min_size=1), label="subset"))
    word = data.draw(reduced_longest_words(rs, subset), label="word")
    coords = data.draw(st.lists(st.integers(0, 2 if rs.n == 2 else 1), min_size=rs.n, max_size=rs.n), label="λ")
    lam = rs.weight(coords)
    crystal = gen_demazure_crystal_weights(rs, [subset], [lam], [word])
    assert crystal.elements == demazure_crystal(rs, lam, word)


def test_no_route_builds_a_one_factor_tensor(monkeypatch):
    """With `TensorElement._of_valid` refusing fewer than two factors, tensor products,
    fibers and gen-demazure artifacts of one to three blocks are built over every preset."""
    of_valid = TensorElement._of_valid

    def two_or_more(cls, factors):
        if len(factors) < 2:
            raise AssertionError(f"one-factor tensor built: {factors!r}")
        return of_valid(factors)

    monkeypatch.setattr(TensorElement, "_of_valid", classmethod(two_or_more))
    for name in PRESETS:
        rs = RootSystem.preset(name)
        full, lam = list(range(1, rs.n + 1)), rs.fundamental_weight(1)
        for r in (1, 2, 3):
            assert tensor_decompose(rs, [lam] * r).total() > 0
        assert len(fiber_string_points(rs, [full], [lam], ())) == rs.weyl_dimension(lam)
        assert fiber_string_points(rs, [full, [1]], [lam, lam], (0,))
        for subsets in ([full], [full, [1]], [[1], full]):
            doc = gen_demazure_artifact(rs, subsets=subsets, weights=[lam] * len(subsets))
            assert doc["element_count"] == len(doc["omega_vectors"])
        for word in ([1], [rs.n, 1]):
            assert gen_demazure_artifact(rs, word=word, a=[1] * len(word))["element_count"] > 1
