"""Integer-vector formulas attached to a subset sequence and weights.

Pure exact arithmetic over fundamental-weight coordinates: the pullback
line-bundle vector, the leftover shift weight, degeneration vectors, and the
tower structure vectors for type-A Levi blocks.  No geometric objects are
modeled; the integer vectors are the artifact.  The pullback vector a is one
tuple of ints in flat-letter order, as Ω values are; `bundle_report` splits it
into blocks by `words.block_sizes`.

The pullback vector a and the shift weight μ split the pairings ⟨λ_j, α_s^∨⟩
by one ownership rule: the pairing goes to the last occurrence of s in the
latest block k ≤ j whose word holds s, or to μ_s when no block up to j holds
s.  So for every letter s the entries of a at s plus μ_s sum to Σ_j ⟨λ_j, α_s^∨⟩.
"""

from __future__ import annotations

from itertools import accumulate, islice

from .rootsys import RootSystem, Weight


def _owned(rs: RootSystem, subsets, words, lams) -> tuple[tuple[int, ...], Weight]:
    """(a, μ) from one pass over the blocks under the ownership rule of the module docstring."""
    subsets, words = rs.blocks(subsets, words)
    lams = rs.block_weights(subsets, lams)
    a = [0] * len(words.flat)
    mu = [0] * rs.n
    owner: dict[int, int] = {}  # letter → flat position of its latest last occurrence
    letters = enumerate(words.flat)
    for size, lam in zip(words.block_sizes, lams):
        owner.update((s, p) for p, s in islice(letters, size))
        for s, pairing in enumerate(lam.coords, 1):
            if s in owner:
                a[owner[s]] += pairing
            else:
                mu[s - 1] += pairing
    return tuple(a), Weight(mu)


def pullback_vector(rs: RootSystem, subsets, words, lams) -> tuple[int, ...]:
    """a_k(l) = ⟨λ_k, α_s^∨⟩ + Σ ⟨λ_j, α_s^∨⟩ over later blocks where s never reappears,
    placed at the last occurrence l of s within block k; zero elsewhere.
    a is one tuple in flat-letter order; words=None means the longest words."""
    return _owned(rs, subsets, words, lams)[0]


def mu_weight(rs: RootSystem, subsets, words, lams) -> Weight:
    """Shift weight: Σ_j Σ_{s not among the letters of blocks 1..j} d_{j,s} ϖ_s;
    words=None means the longest words."""
    return _owned(rs, subsets, words, lams)[1]


def _tail_sums(xs) -> tuple:
    """(x_1 + ... + x_m, x_2 + ... + x_m, ..., x_m, 0)."""
    return tuple(accumulate(reversed(xs), initial=0))[::-1]


def degeneration_vectors(rs: RootSystem, subsets, lams) -> list[tuple]:
    """a_k(l) = ⟨λ_k + ... + λ_r, α^∨_{u_{k,l}} + ... + α^∨_{u_{k,m_k}}⟩, padded with a zero."""
    subsets = rs.subsets(subsets)
    lams = rs.block_weights(subsets, lams)
    enums = [rs.type_a_enumeration(s) for s in subsets.sets]  # in block order: the first bad block is named
    tail = [0] * rs.n
    out = []
    for enum, lam in zip(reversed(enums), reversed(lams)):
        tail = [t + c for t, c in zip(tail, lam.coords)]
        out.append(_tail_sums([tail[u - 1] for u in enum]))
    return out[::-1]


def flag_bott_vectors(rs: RootSystem, subsets) -> dict:
    """{(k, j): rows} for j < k, where rows[l-1] is the vector a^{(k,j)}_l of length m_j + 1:
    a^{(k,j)}_l(p) = ⟨α_{u_{k,l}} + ... + α_{u_{k,m_k}}, α^∨_{u_{j,p}} + ... + α^∨_{u_{j,m_j}}⟩,
    zero on the padded slots l = m_k + 1 and p = m_j + 1."""
    subsets = rs.subsets(subsets)
    enums = [rs.type_a_enumeration(s) for s in subsets.sets]
    c = rs.cartan
    vectors = {}
    for k in range(1, subsets.r):
        for j in range(k):
            # row s holds the tail sums over p of ⟨α_s, α^∨_{u_{j,p}}⟩; tail-sum each column over s
            rows = [_tail_sums([c[t - 1][s - 1] for t in enums[j]]) for s in enums[k]]
            vectors[(k + 1, j + 1)] = tuple(zip(*map(_tail_sums, zip(*rows))))
    return vectors


def bundle_report(rs: RootSystem, subsets, lams, words=None) -> dict:
    """JSON-ready bundle of (a, μ, degeneration vectors, tower vectors) for one job."""
    subsets, words = rs.blocks(subsets, words)
    a, mu = _owned(rs, subsets, words, lams)
    entries = iter(a)
    deg = degeneration_vectors(rs, subsets, lams)
    tower = flag_bott_vectors(rs, subsets)
    return {
        "words": [list(b) for b in words.blocks],
        "pullback_vector": [list(islice(entries, m)) for m in words.block_sizes],
        "mu": list(mu.coords),
        "degeneration_vectors": [list(v) for v in deg],
        "tower_vectors": {f"{k},{j}": [list(v) for v in vs] for (k, j), vs in sorted(tower.items())},
    }
