"""Slow definitional routes, kept as oracles for the fast ones in `src/`.

`pairing` and `phi` give ⟨λ, α_i^∨⟩ and φ_i(b) = ε_i(b) + ⟨wt(b), α_i^∨⟩ for the tests
only; `src/` reads weight coordinates and the (ε_i, φ_i) stored on each path directly.

`tensor_decompose` reads tensor-product multiplicities off projected lattice points
of string polytopes.  The first helpers get them by definition instead: list all of
B(λ_1) ⊗ ... ⊗ B(λ_r) and count its highest elements by weight (Kashiwara, Duke
Math. J. 71, 1993).

`bundles` computes the pullback vector and the shift weight in one ownership pass,
and the degeneration and tower vectors as tail sums.  The next helpers evaluate each
displayed formula term by term; the pullback vector comes in blocks, and
`split_blocks` cuts the flat-letter vector of `src/` to match.

`RootSystem.type_a_enumeration` walks the Dynkin diagram of I from an endpoint; the
next helper searches the orderings of I for a type-A path instead.

`crystal._close` walks each f_i-string down from its top and records the string
entries of every element it meets; `close_set` closes a bare set instead, walking
an f_i-chain from every element until it meets one already present.
`demazure._saturate` closes the innermost block on bare paths, and
`graph_from_elements` tests only the vertices no f-edge enters for the highest one.
The last helpers keep tensors throughout, close them with `close_set`, and scan
every vertex in order.

`crystal._f_strings` reads a tensor's whole f_i-string off one signature scan and
stops a path's at the φ_i = 0 carried to its last element; `f_string` walks the string
with one `path_f` per step instead, re-running the signature rule on the whole tensor
each time, until f_i has no result.

`stringpoly.lattice_points` reads a string polytope's lattice points off the Ω map of
a crystal.  `untwisted_cube_points` enumerates the twisted cube of the same (i, a)
instead, for cubes with no lattice point on an open branch.
"""

from collections import Counter
from itertools import islice, permutations, product

from crystalcubes.crystal import DEFAULT_BUDGET, TensorElement, _vertex_order, epsilon, is_highest, path_e, path_f, wt
from crystalcubes.demazure import demazure_crystal
from crystalcubes.rootsys import BudgetExceededError, RootSystem, UnsupportedInputError, Weight


def pairing(rs: RootSystem, lam, i: int) -> int:
    """⟨λ, α_i^∨⟩: a coordinate read-off in the ϖ-basis, λ read through `RootSystem.weight`."""
    rs._check_index(i)
    return rs.weight(lam).coords[i - 1]


def phi(rs: RootSystem, b, i: int) -> int:
    """φ_i(b) = ε_i(b) + ⟨wt(b), α_i^∨⟩."""
    return epsilon(rs, b, i) + wt(rs, b).coords[i - 1]


def tensor(b1, b2) -> TensorElement:
    """Flatten-and-concatenate tensor product of elements."""
    left = b1.factors if isinstance(b1, TensorElement) else (b1,)
    right = b2.factors if isinstance(b2, TensorElement) else (b2,)
    return TensorElement(left + right)


def tensor_product_elements(rs: RootSystem, lams, budget: int = DEFAULT_BUDGET) -> list:
    """Full element set of B(λ_1) ⊗ ... ⊗ B(λ_r) (the Cartesian product set), each B(λ)
    listed in vertex order as the Demazure crystal B_{w_0}(λ)."""
    w0 = rs.longest_word(range(1, rs.n + 1))
    components = []
    total = 1
    for lam in lams:
        verts = _vertex_order(demazure_crystal(rs, lam, w0, budget))
        total *= len(verts)
        if total > budget:
            raise BudgetExceededError(f"tensor crystal exceeds budget of {budget} elements")
        components.append(verts)
    return [TensorElement(fs) for fs in product(*components)]


def highest_weight_decompose(rs: RootSystem, elements, check_closed: bool = True) -> Counter:
    """Multiset of component highest weights: wt(b) over all b with ε_i(b) = 0 for all i.

    The input must be closed under the raising operators, so that components
    are counted by their genuine highest elements.
    """
    elems = list(elements)
    if check_closed:
        elem_set = set(elems)
        for b in elems:
            for i in range(1, rs.n + 1):
                c = path_e(rs, b, i)
                if c is not None and c not in elem_set:
                    raise ValueError("element set is not closed under raising operators")
    out: Counter = Counter()
    for b in elems:
        if is_highest(rs, b):
            out[wt(rs, b).coords] += 1
    return out


def split_blocks(flat, sizes) -> tuple:
    """A tuple in flat-letter order cut into per-block tuples of the given sizes."""
    letters = iter(flat)
    return tuple(tuple(islice(letters, size)) for size in sizes)


def pullback_vector(rs: RootSystem, subsets, words, lams) -> tuple:
    """a_k(l) = ⟨λ_k, α_s^∨⟩ + Σ ⟨λ_j, α_s^∨⟩ over later blocks j where s appears in none of
    blocks k+1..j, placed at the last occurrence l of s within block k; zero elsewhere."""
    subsets, words = rs.blocks(subsets, words)
    lams = rs.block_weights(subsets, lams)
    blocks = words.blocks
    r = len(blocks)
    letters_of = [set(b) for b in blocks]
    out = []
    for k, block in enumerate(blocks):
        row = [0] * len(block)
        for l, s in enumerate(block):
            if l != max(q for q, t in enumerate(block) if t == s):
                continue
            total = pairing(rs, lams[k], s)
            for j in range(k + 1, r):
                if any(s in letters_of[t] for t in range(k + 1, j + 1)):
                    continue
                total += pairing(rs, lams[j], s)
            row[l] = int(total)
        out.append(tuple(row))
    return tuple(out)


def mu_weight(rs: RootSystem, subsets, words, lams) -> Weight:
    """Σ_j Σ_{s not among the letters of blocks 1..j} ⟨λ_j, α_s^∨⟩ ϖ_s."""
    subsets, words = rs.blocks(subsets, words)
    lams = rs.block_weights(subsets, lams)
    coords = [0] * rs.n
    seen: set[int] = set()
    for block, lam in zip(words.blocks, lams):
        seen.update(block)
        for s in range(1, rs.n + 1):
            if s not in seen:
                coords[s - 1] += lam.coords[s - 1]
    return Weight(coords)


def degeneration_vectors(rs: RootSystem, subsets, lams) -> list[tuple]:
    """a_k(l) = ⟨λ_k + ... + λ_r, α^∨_{u_{k,l}} + ... + α^∨_{u_{k,m_k}}⟩, padded with a zero."""
    subsets = rs.subsets(subsets)
    lams = rs.block_weights(subsets, lams)
    out = []
    for k, subset in enumerate(subsets.sets):
        enum = rs.type_a_enumeration(subset)
        tail_weight = lams[k]
        for lam in lams[k + 1 :]:
            tail_weight = tail_weight + lam
        vec = []
        for l in range(len(enum)):
            vec.append(int(sum(pairing(rs, tail_weight, u) for u in enum[l:])))
        vec.append(0)
        out.append(tuple(vec))
    return out


def flag_bott_vectors(rs: RootSystem, subsets) -> dict:
    """a^{(k,j)}_l(p) = ⟨α_{u_{k,l}} + ... + α_{u_{k,m_k}}, α^∨_{u_{j,p}} + ... + α^∨_{u_{j,m_j}}⟩,
    zero on the padded slots l = m_k + 1 and p = m_j + 1."""
    subsets = rs.subsets(subsets)
    enums = [rs.type_a_enumeration(s) for s in subsets.sets]
    c = rs.cartan
    vectors: dict = {}
    for k in range(1, subsets.r):
        mk = len(enums[k])
        for j in range(k):
            mj = len(enums[j])
            vecs = []
            for l in range(mk + 1):
                if l == mk:
                    vecs.append((0,) * (mj + 1))
                    continue
                row = []
                for p in range(mj):
                    total = 0
                    for s in enums[k][l:]:
                        for t in enums[j][p:]:
                            total += c[t - 1][s - 1]
                    row.append(total)
                row.append(0)
                vecs.append(tuple(row))
            vectors[(k + 1, j + 1)] = tuple(vecs)
    return vectors


def type_a_enumeration(rs: RootSystem, subset) -> tuple:
    """The first ordering u_1..u_m of I, in lexicographic order, with the pairings of
    a type-A path: ⟨α_{u_s}, α_{u_t}^∨⟩ = -1 when |s - t| = 1 and 0 for |s - t| > 1."""
    c = rs.cartan
    for order in permutations(sorted(subset)):
        if all(
            c[v - 1][u - 1] == (-1 if abs(s - t) == 1 else 0)
            for s, u in enumerate(order)
            for t, v in enumerate(order)
            if s != t
        ):
            return order
    raise UnsupportedInputError(f"Levi on {tuple(subset)} is not of type A")


def close_set(rs: RootSystem, elements, word, budget: int = DEFAULT_BUDGET) -> set:
    """The set of elements closed under f_{i_1}^* ... f_{i_N}^*, the last letter applied first."""
    for i in reversed(word):
        out = set(elements)
        for b in list(out):
            while (b := path_f(rs, b, i)) is not None and b not in out:
                out.add(b)
                if len(out) > budget:
                    raise BudgetExceededError(f"saturation exceeded budget of {budget} elements")
        elements = out
    return set(elements)


def f_string(rs: RootSystem, b, i: int) -> list:
    """b, f_i b, f_i^2 b, ... down to the last element f_i acts on, one `path_f` per step."""
    string = [b]
    while (b := path_f(rs, b, i)) is not None:
        string.append(b)
    return string


def saturate_all_tensor(rs: RootSystem, tops, blocks, budget: int = DEFAULT_BUDGET) -> frozenset:
    """b_{λ_1} ⊗ (... ⊗ b_{λ_r}) closed under each block's letters, innermost block first,
    every element a tensor from the start (b_{λ_r} as the one-factor tensor); a one-block
    result is unwrapped to the bare paths that `demazure._saturate` holds it as."""
    tails = [()]
    for top, block in zip(reversed(tops), reversed(blocks)):
        current = close_set(rs, {TensorElement((top,) + tail) for tail in tails}, block, budget)
        tails = [b.factors for b in current]
    return frozenset(current) if len(tops) > 1 else frozenset(b.factors[0] for b in current)


def first_highest_vertex(rs: RootSystem, graph):
    """The index of the first vertex, in vertex order, with ε_i = 0 for every i, or None."""
    return next((k for k, b in enumerate(graph.vertices) if is_highest(rs, b)), None)


def untwisted_cube_points(rs: RootSystem, word, a):
    """The lattice points of the twisted cube of (word, a), enumerated from x_N down to x_1,
    or None at the first lattice prefix where some A_l ≥ 2, whose open branch 0 < x_l < A_l
    holds a lattice point.  With no such prefix the cube is untwisted: every lattice point
    has A_l(x) ≤ x_l ≤ 0 for every l, with A_l read off the Cartan matrix as
    A_l(x) = -Σ_{j≥l, i_j=i_l} a_j - Σ_{j>l} ⟨α_{i_j}, α_{i_l}^∨⟩ x_j."""
    n = len(word)
    tails = [()]  # (x_{l+1}, ..., x_N) of every lattice prefix
    for l in range(n - 1, -1, -1):
        const = -sum(a[j] for j in range(l, n) if word[j] == word[l])
        grown = []
        for tail in tails:
            bound = const - sum(rs.cartan[word[l] - 1][word[j] - 1] * x for j, x in enumerate(tail, l + 1))
            if bound >= 2:
                return None
            grown.extend((x, *tail) for x in range(bound, 1))
        tails = grown
    return tails
