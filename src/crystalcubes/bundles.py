"""Integer-vector formulas attached to a subset sequence and weights.

Pure exact arithmetic over fundamental-weight coordinates: the pullback
line-bundle vector, the leftover shift weight, degeneration vectors, and the
tower structure vectors for type-A Levi blocks.  No geometric objects are
modeled; the integer vectors are the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import RootSystem, Weight


@dataclass(frozen=True)
class PullbackVector:
    """Per-block integer lists; nonzero only at last occurrences of each letter."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)


@dataclass(frozen=True)
class BottTowerData:
    """vectors[(k, j)][l-1] is the integer vector a^{(k,j)}_l of length m_j + 1, for j < k."""

    vectors: dict

    def __getitem__(self, key):
        return self.vectors[key]

    def to_json_dict(self) -> dict:
        return {f"{k},{j}": [list(v) for v in vs] for (k, j), vs in sorted(self.vectors.items())}


def pullback_vector(rs: RootSystem, subsets, words, lams) -> PullbackVector:
    """a_k(l) = ⟨λ_k, α_s^∨⟩ + Σ ⟨λ_j, α_s^∨⟩ over later blocks where s never reappears,
    placed at the last occurrence l of s within block k; zero elsewhere.
    words=None means the longest words."""
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
            total = rs.pairing(lams[k], s)
            for j in range(k + 1, r):
                if any(s in letters_of[t] for t in range(k + 1, j + 1)):
                    continue
                total += rs.pairing(lams[j], s)
            row[l] = int(total)
        out.append(tuple(row))
    return PullbackVector(tuple(out))


def mu_weight(rs: RootSystem, subsets, words, lams) -> Weight:
    """Shift weight: Σ_j Σ_{s not among the letters of blocks 1..j} d_{j,s} ϖ_s;
    words=None means the longest words."""
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
            vec.append(int(sum(rs.pairing(tail_weight, u) for u in enum[l:])))
        vec.append(0)
        out.append(tuple(vec))
    return out


def flag_bott_vectors(rs: RootSystem, subsets) -> BottTowerData:
    """a^{(k,j)}_l(p) = ⟨α_{u_{k,l}} + ... + α_{u_{k,m_k}}, α^∨_{u_{j,p}} + ... + α^∨_{u_{j,m_j}}⟩,
    zero on the padded slots l = m_k + 1 and p = m_j + 1."""
    subsets = rs.subsets(subsets)
    enums = [rs.type_a_enumeration(s) for s in subsets.sets]
    c = rs.cartan.entries
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
    return BottTowerData(vectors)


def bundle_report(rs: RootSystem, subsets, lams, words=None) -> dict:
    """JSON-ready bundle of (a, μ, degeneration vectors, tower vectors) for one job."""
    subsets, words = rs.blocks(subsets, words)
    a = pullback_vector(rs, subsets, words, lams)
    mu = mu_weight(rs, subsets, words, lams)
    deg = degeneration_vectors(rs, subsets, lams)
    tower = flag_bott_vectors(rs, subsets)
    return {
        "words": [list(b) for b in words.blocks],
        "pullback_vector": [list(b) for b in a.blocks],
        "mu": list(mu.coords),
        "degeneration_vectors": [list(v) for v in deg],
        "tower_vectors": tower.to_json_dict(),
    }
