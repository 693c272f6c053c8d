"""Grossberg-Karshon twisted cubes: density, exact signed measure, lattice counts, Monte Carlo.

The cube for a word i and integer vector a is carved out by affine forms

    A_l(x) = -⟨a_l ϖ_{i_l} + ... + a_N ϖ_{i_N}, α_{i_l}^∨⟩ - Σ_{j>l} ⟨α_{i_j}, α_{i_l}^∨⟩ x_j,

with coordinate l admitted when A_l(x) ≤ x_l ≤ 0 (closed) or 0 < x_l < A_l(x)
(open), and density (-1)^N sign(x_1)...sign(x_N), sign(x) = -1 for x ≤ 0.

Volumes, moments and lattice counts rest on one two-case branch identity.  For
any h with antiderivative H, H(0) = 0,
  * A ≤ 0, closed branch:  ∫_{[A,0]} sign(x) h(x) dx = -(H(0) - H(A)) = H(A),
  * A > 0, open branch:    ∫_{(0,A)} sign(x) h(x) dx = H(A) - H(0) = H(A),
so both equal ∫_0^A h.  For a polynomial p with antidifference S,
S(v) - S(v-1) = p(v) and S(0) = 0, and an integer A (the forms have integer
coefficients, so A_l is an integer at lattice points),
  * A ≤ 0, closed branch:  Σ_{v=A}^{0} sign(v) p(v) = -(S(0) - S(A-1)) = S(A-1),
  * A > 0, open branch:    Σ_{v=1}^{A-1} sign(v) p(v) = S(A-1) - S(0) = S(A-1),
so both equal S(A-1) = Σ_{0<v<A} p(v), read as a polynomial in A.

Summing x_1 innermost (A_l only involves later coordinates, which makes
step-then-substitute well founded) gives Σ or ∫ of ρ·p = (-1)^N p_N with p_0 = p and
p_l = T_l(p_{l-1}) evaluated at x_l = A_l, where T_l is the antiderivative in x_l
vanishing at 0 (volumes, moments) or the antidifference S(x_l - 1) (lattice counts).
One recursion, `_sum_out`, runs both on integer numerators over one denominator, which
only the step multiplies; its one polynomial operation, substitution, also expands p_0.

The recursion never needs the N coordinates one by one.  The coefficient of a
later x_j in A_l is -⟨α_{i_j}, α_{i_l}^∨⟩, which depends on the letter i_j
alone, so A_l sees the coordinates after l only through the letter sums
z_u = Σ_{j>l, i_j=u} x_j.  A moment integrand Π_r (Σ_j M_{rj} x_j)^{m_r} sees
them through the sums over classes of coordinates that share a letter and
their entries in every row with m_r > 0 (for `projection_map`, one class per
(block, letter) row).  So p_l is a polynomial in x_{l+1} and one variable per
class, the cube-side form of the tower of flag fibrations taken down to single
letters: its number of variables depends on the rank and the moment, not on N.

Each monomial is stored as one int with every exponent in a fixed-width bit field
(packed exponent vectors: Monagan-Pearce, CASC 2007), so a product of monomials is
one integer addition and the power of a variable is a shift and a mask.  No
exponent exceeds the degree bound |m| + N (see `_sum_out`), so fields of
(|m| + N).bit_length() bits never carry into each other.

Monte Carlo samples down the same tower: for l = N-1 down to 0, x_l = A_l(x)·u_l
with u uniform in [0, 1)^N, so x_l is uniform on its branch, [A_l, 0] or (0, A_l).  Every
sample lies in `bounding_box`; histograms bin over its image under L; one interval rule gives both.
The weight (-1)^N Π A_l is ρ times the Π |A_l| that undoes the sampling density
(sign(x_l)·|A_l| = A_l on either branch), so E[w·f(Lx)] = ∫ ρ f(Lx) dx and every
sample lies in the support.  Histograms find each sample's cell by arithmetic on
the bin edges, checked against the same edges, and add the weights in sample order,
as one np.histogramdd pass would, so no histogram byte depends on how the samples
are chunked.  Moments sum each chunk before adding it to the running sums, so they
agree across chunk sizes only up to rounding.  NumPy loads with the first Monte Carlo call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import index

from .rootsys import InvariantError, RootSystem

# rows per Monte Carlo chunk, small enough that a chunk's temporaries stay in cache; it
# bounds memory and never changes a histogram byte, but moments round per chunk
_CHUNK = 1 << 14


class MVPolynomial:
    """Sparse multivariate polynomial: packed exponent vector → exact coefficient.

    A monomial is one int whose bits [v·width, (v+1)·width) hold the exponent of x_v, so
    the product of two monomials is the sum of their keys as long as no exponent reaches
    2^width; the caller picks `width` from a bound on the total degree.  The terms dict
    is stored as given: zero coefficients are dropped only where a sum can cancel."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: dict):
        self.width = width
        self.terms = terms

    def substitute(self, idx: int, value: "MVPolynomial") -> "MVPolynomial":
        """Replace variable idx by a polynomial in the remaining variables, by Horner's
        rule: q_K, then q_K·value + q_{K-1}, ..., where q_k collects the x_idx^k terms."""
        shift = idx * self.width
        mask = (1 << self.width) - 1
        by_power: dict = {}
        for e, c in self.terms.items():
            k = (e >> shift) & mask
            by_power.setdefault(k, {})[e - (k << shift)] = c
        value_terms = tuple(value.terms.items())
        out: dict = {}
        for k in range(max(by_power, default=0), -1, -1):
            acc = by_power.get(k, {})
            for e1, c1 in out.items():
                for e2, c2 in value_terms:
                    key = e1 + e2
                    acc[key] = acc.get(key, 0) + c1 * c2
            out = acc
        return MVPolynomial(self.width, {e: c for e, c in out.items() if c})

    def constant_value(self) -> Fraction:
        if self.terms.keys() - {0}:
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0))


def _power_integral(k: int) -> tuple[int, tuple[int, ...]]:
    """∫_0^x t^k dt = x^{k+1} / (k+1), as (denominator, coefficients)."""
    return k + 1, (0,) * (k + 1) + (1,)


@cache
def _strict_power_sum(k: int) -> tuple[int, tuple[int, ...]]:
    """Σ_{0<v<x} v^k = S_k(x) - x^k as (denominator, coefficients), for every integer x.

    Faulhaber: S_m(x) = Σ_{v=1}^{x} v^m satisfies
    (m+1) S_m = (x+1)^{m+1} - 1 - Σ_{j<m} C(m+1, j) S_j, and S_m(0) = 0.
    """
    sums: list[list[Fraction]] = []
    for m in range(k + 1):
        s = [Fraction(math.comb(m + 1, i)) for i in range(m + 2)]
        s[0] -= 1
        for j, sj in enumerate(sums):
            for i, c in enumerate(sj):
                s[i] -= math.comb(m + 1, j) * c
        sums.append([c / (m + 1) for c in s])
    s = sums[k]
    s[k] -= 1
    d = math.lcm(*(c.denominator for c in s))
    return d, tuple(int(c * d) for c in s)


@dataclass(frozen=True)
class ProjectionMap:
    """Integer matrix L, read once here: one or more rows of one length, entries by operator.index;
    `projection_map` builds the 0/1 block matrix that sends coordinate (k,l) to the row of
    letter i_{k,l} in I_k, rows (k, u), u ∈ I_k, block by block."""

    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix):
        rows = tuple(tuple(map(index, row)) for row in matrix)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("a projection needs one or more rows, all of one length")
        object.__setattr__(self, "matrix", rows)

    @property
    def rows(self) -> int:
        return len(self.matrix)


def projection_map(rs: RootSystem, subsets, words=None) -> ProjectionMap:
    subsets, words = rs.blocks(subsets, words)
    rows = [(k, u) for k, subset in enumerate(subsets.sets) for u in subset]
    cols = [(k, letter) for k, block in enumerate(words.blocks) for letter in block]
    return ProjectionMap(tuple(tuple(int(r == c) for c in cols) for r in rows))


class TwistedCube:
    """Pair (i, a) with its derived affine bound forms; a may have negative entries."""

    def __init__(self, rs: RootSystem, word, a):
        self.rs = rs
        self.word = tuple(map(index, word))
        self.a = tuple(map(index, a))
        if not self.word:
            raise ValueError("the word must not be empty")
        if len(self.word) != len(self.a):
            raise ValueError("word and integer vector lengths differ")
        for i in self.word:
            rs._check_index(i)
        n = len(self.word)
        c = rs.cartan
        forms = []
        for l in range(n):
            const = -sum(self.a[j] for j in range(l, n) if self.word[j] == self.word[l])
            coeffs = {}
            for j in range(l + 1, n):
                coef = -c[self.word[l] - 1][self.word[j] - 1]
                if coef:
                    coeffs[j] = coef
            forms.append((const, coeffs))
        self.forms = tuple(forms)

    @property
    def dim(self) -> int:
        return len(self.word)

    # -- exact integration and lattice counts --------------------------------

    def _sum_out(self, step, moment=()) -> Fraction:
        """(-1)^N p_N for p_0 = Π (Lx)_r^{m_r} over the (row, m_r) pairs of `moment`: at
        each coordinate l, x_l^k becomes step(k) = (d, f), that is Σ_j f_j x_l^j / d,
        and then x_l becomes A_l.

        Slot 0, the low bits of each packed key, holds x_l; slot v ≥ 1 holds y_v, the
        sum of the coordinates j ≥ l of class v, which share a letter and their entries
        in every row of `moment`.  Slot 0 is free before x_1, so p_0 is built by the
        same substitution: x^{m_r} goes into slot 0, then x := (Lx)_r, row by row.
        Before its step, x_l is split off its class, y_v := x + y_v, or y_v := x at the
        class's last coordinate, which drops the class.  The polynomial is kept as integer
        numerators over one denominator, which only the steps multiply (by the lcm of
        their d); the gcd of numerators and denominator is divided out after each coordinate.
        """
        slots: dict = {}
        class_of = [slots.setdefault((i, *(row[j] for row, _ in moment)), len(slots) + 1)
                    for j, i in enumerate(self.word)]
        last = {v: l for l, v in enumerate(class_of)}
        # p_0 has total degree |m|; each step raises it by at most 1, and both substitutions
        # (y_v := x + y_v, x := A_l) are affine, so no exponent ever exceeds |m| + N and
        # fields of this width never carry into each other
        width = (sum(power for _, power in moment) + self.dim).bit_length()
        mask = (1 << width) - 1
        unit = [1 << (v * width) for v in range(len(slots) + 1)]
        p, den = MVPolynomial(width, {0: 1}), 1
        for row, power in moment:
            p = MVPolynomial(width, {e + power: c for e, c in p.terms.items()})
            p = p.substitute(0, MVPolynomial(width, {unit[v]: c for v, c in zip(class_of, row) if c}))
        for l, v in enumerate(class_of):
            p = p.substitute(v, MVPolynomial(width, {unit[0]: 1} if last[v] == l else {unit[0]: 1, unit[v]: 1}))
            rows = {k: step(k) for k in {e & mask for e in p.terms}}
            scale = math.lcm(*(d for d, _ in rows.values()))
            rows = {k: [(j, fj * (scale // d)) for j, fj in enumerate(f) if fj] for k, (d, f) in rows.items()}
            terms: dict = {}
            for e, c in p.terms.items():
                k = e & mask
                rest = e - k
                for j, fj in rows[k]:
                    key = rest + j
                    terms[key] = terms.get(key, 0) + c * fj
            den *= scale
            const, coeffs = self.forms[l]
            bound = {unit[class_of[j]]: c for j, c in coeffs.items()}
            if const:
                bound[0] = const
            p = MVPolynomial(width, {e: c for e, c in terms.items() if c}).substitute(0, MVPolynomial(width, bound))
            g = math.gcd(den, *p.terms.values())
            if g > 1:
                den //= g
                p = MVPolynomial(width, {e: c // g for e, c in p.terms.items()})
        return (-1) ** self.dim * Fraction(p.constant_value(), den)

    def _rows(self, projection: ProjectionMap):
        """The projection's rows, each of N entries (`ProjectionMap` checked the rest)."""
        if len(projection.matrix[0]) != self.dim:
            raise ValueError("projection source dimension mismatch")
        return projection.matrix

    def _multi_index(self, projection: ProjectionMap, multi_index):
        """m, one nonnegative integer per row, and the projection's rows."""
        m = tuple(map(index, multi_index))
        if len(m) != projection.rows:
            raise ValueError("multi-index length must match the projection target dimension")
        if any(t < 0 for t in m):
            raise ValueError("multi-index entries must be nonnegative")
        return m, self._rows(projection)

    def signed_volume(self) -> Fraction:
        """∫ ρ dx, exactly."""
        return self._sum_out(_power_integral)

    def pushforward_moments(self, projection: ProjectionMap, multi_index) -> Fraction:
        """∫ (Lx)^m ρ(x) dx, exactly; m = 0 reduces to the signed volume."""
        m, rows = self._multi_index(projection, multi_index)
        return self._sum_out(_power_integral, [(row, k) for row, k in zip(rows, m) if k])

    def signed_lattice_count(self) -> int:
        """Σ_{x ∈ Z^N} ρ(x), honoring the closed/open branch asymmetry exactly."""
        count = self._sum_out(_strict_power_sum)
        if count.denominator != 1:
            raise InvariantError(f"signed lattice count {count} is not an integer")
        return int(count)

    # -- Monte Carlo ------------------------------------------------------------

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        """Coordinate intervals guaranteed to contain the region, by interval
        arithmetic over the boxes of later coordinates (processed last to first)."""
        box = [(0, 0)] * self.dim
        for l in range(self.dim - 1, -1, -1):
            lo, hi = _span(*self.forms[l], box)
            box[l] = (min(0, lo), max(0, hi))
        return tuple(box)

    def mc_sample(self, rng: np.random.Generator, rows: int):
        """(points, weights) of `rows` samples drawn by rng down the tower: x_l = A_l(x)·u_l
        for l = N-1 down to 0 with u = rng.random((rows, N)), and weight (-1)^N Π A_l."""
        import numpy as np
        pts = rng.random((rows, self.dim))
        weights = np.full(rows, (-1.0) ** self.dim)
        for l in range(self.dim - 1, -1, -1):
            const, coeffs = self.forms[l]
            bound = np.full(rows, float(const))
            for j, c in coeffs.items():
                bound += float(c) * pts[:, j]
            pts[:, l] *= bound
            weights *= bound
        return pts, weights

    def _mc_stream(self, samples: int, seed: int, shards: int):
        """`mc_sample` chunks of at most _CHUNK rows: shard k draws its samples/shards points
        from its own stream, the k-th child that SeedSequence(seed).spawn would make, made
        when its turn comes, so memory does not grow with shards.  A stream gives the same
        values drawn at once or in chunks, so no sample depends on _CHUNK."""
        import numpy as np
        samples, shards = index(samples), index(shards)
        if samples <= 0:
            raise ValueError("sample count must be positive")
        if shards < 1 or samples % shards:
            raise ValueError("shards must divide the sample count")
        per = samples // shards
        entropy = np.random.SeedSequence(seed).entropy
        for k in range(shards):
            rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(k,)))
            for start in range(0, per, _CHUNK):
                yield self.mc_sample(rng, min(_CHUNK, per - start))

    def mc_volume(self, samples: int, seed: int, shards: int = 1):
        """(estimate, standard error) for the signed volume: the zero moment."""
        return self.mc_moment(ProjectionMap(((0,) * self.dim,)), (0,), samples, seed, shards)

    def mc_moment(self, projection: ProjectionMap, multi_index, samples: int, seed: int, shards: int = 1):
        """(estimate, standard error) for a pushforward moment: the mean of
        g = w·(Lx)^m over the sample stream, from the running sums of g and g²."""
        import numpy as np
        m, rows = self._multi_index(projection, multi_index)
        lt = np.array(rows, dtype=float).T
        s1 = s2 = 0.0
        for pts, g in self._mc_stream(samples, seed, shards):
            if any(m):
                proj = pts @ lt
                for t, power in enumerate(m):
                    if power:
                        g = g * proj[:, t] ** power
            s1 += g.sum()
            s2 += g @ g
        mean = s1 / samples
        return float(mean), math.sqrt(max(s2 / samples - mean * mean, 0.0)) / math.sqrt(samples)


@dataclass(frozen=True)
class SignedHistogram:
    """Signed histogram of the projected density over a rectangular bin grid."""

    edges: tuple[tuple[float, ...], ...]
    values: np.ndarray
    samples: int

    def total(self) -> float:
        return float(self.values.sum())


def mc_histogram(cube: TwistedCube, projection: ProjectionMap, bins, samples: int, seed: int,
                 shards: int = 1) -> SignedHistogram:
    """Deterministic signed histogram over `projected_box`, which holds every Lx: bin value = (Σ w
    over the samples whose Lx falls in the bin) / samples, an estimate of ∫_bin of the pushforward."""
    import numpy as np
    lt = np.array(cube._rows(projection), dtype=float).T
    bins = _bin_counts(bins, projection.rows)
    edges = [np.linspace(float(a), float(b), n + 1) for n, (a, b) in zip(bins, projected_box(cube, projection))]
    padded = np.zeros(tuple(b + 2 for b in bins))
    for pts, weights in cube._mc_stream(samples, seed, shards):
        _add_to_bins(padded, edges, pts @ lt, weights)
    hist = padded[(slice(1, -1),) * len(bins)] / samples
    return SignedHistogram(tuple(tuple(map(float, e)) for e in edges), hist, samples)


def _bin_counts(bins, rows: int) -> tuple[int, ...]:
    """One positive bin count per target dimension, from a sequence or one int for all."""
    bins = (index(bins),) * rows if hasattr(bins, "__index__") else tuple(map(index, bins))
    if len(bins) != rows or any(b <= 0 for b in bins):
        raise ValueError("need one positive bin count per target dimension")
    return bins


def _add_to_bins(padded: np.ndarray, edges, points: np.ndarray, weights: np.ndarray) -> None:
    """Add each weight, in sample order, to its cell of `padded` (the bins and an outlier
    cell at each end) by np.histogramdd's rule, so the bins equal one histogramdd pass for
    any chunking.  A helper, so that its temporaries die before the next chunk is drawn."""
    import numpy as np
    flat = np.zeros(len(weights), dtype=np.intp)
    for edge, x in zip(edges, points.T):
        flat *= len(edge) + 1
        flat += _cells(edge, x)
    np.add.at(padded.reshape(-1), flat, weights)


def _cells(edge: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell of each x among the n bins of edge = linspace(a, b, n + 1) and the outlier cells
    0 and n + 1, by np.histogramdd's rule: np.searchsorted(edge, x, side="right"), the k
    with edge[k-1] ≤ x < edge[k], except that x = b goes to the last bin n.

    For b > a no search runs: k is read off (x - a)·n/(b - a), which rounding leaves at
    most one cell off, and corrected once against the edges padded with -inf and +inf.
    A zero-span axis, where every edge is a, keeps the search."""
    import numpy as np
    a, b, n = edge[0], edge[-1], len(edge) - 1
    if b > a:
        k = np.clip(np.floor((x - a) * (n / (b - a))), -1, n).astype(np.intp) + 1
        bounds = np.concatenate(([-np.inf], edge, [np.inf]))
        k -= x < bounds[k]
        k += x >= bounds[k + 1]
    else:
        k = np.searchsorted(edge, x, side="right")
    k[x == b] -= 1
    return k


def projected_box(cube: TwistedCube, projection: ProjectionMap) -> tuple[tuple[int, int], ...]:
    """Exact image intervals of the cube's bounding box under the integer rows of L."""
    box = cube.bounding_box()
    return tuple(_span(0, dict(enumerate(row)), box) for row in cube._rows(projection))


def _span(const: int, coeffs: dict, box) -> tuple[int, int]:
    """[min, max] of const + Σ_j c_j x_j over the box: const + Σ_j min/max(c_j·lo_j, c_j·hi_j)."""
    ends = [(c * box[j][0], c * box[j][1]) for j, c in coeffs.items()]
    return const + sum(map(min, ends)), const + sum(map(max, ends))

