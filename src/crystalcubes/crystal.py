"""Littelmann path realization of the crystals B(λ) and their tensor products.

A crystal element is a piecewise-linear path from the origin, stored as merged
(direction, duration) segments whose integer durations share one denominator
per path, so the path model runs on integers alone.  The root operators cut
the path where t ↦ ⟨π(t), α_i^∨⟩ attains its minimum and reflect the middle
stretch; tensor elements carry the Kashiwara rule, with the first factor
receiving f_i whenever φ_i(b1) > ε_i(b2).

An operator splices its result: the segments outside the reflected stretch are
copied, only the pieces inside are reflected, through a per-root-system memo of
s_i on directions, and only the two seams can merge.  It carries state to the
child instead of summing segments again: the endpoint moves by ∓α_i, and the
(ε_i, φ_i) that the height profile gave for the parent, stored in its `_ef`,
moves by (±1, ∓1), so ε, φ, `is_highest` and the signature rule read them there.

One closure builds every crystal here and in `demazure`: `_close` saturates a
set under f_{i_1}^* ... f_{i_N}^* along a word.  B(λ) is the Demazure crystal
B_{w_0}(λ), so `generate_crystal` closes {b_λ} along a reduced word of w_0;
`demazure` closes along any reduced word for B_w(λ), and block by block for
the generalized Demazure crystals B_{I,λ}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, sub

from .rootsys import BudgetExceededError, RootSystem, Weight

DEFAULT_BUDGET = 10**6


class PathElement:
    """Piecewise-linear path: segments ((direction, n_j), ...) run for times n_j / den.

    The durations are positive integers with Σ n_j = den and gcd(den, n_1, ...) = 1,
    and adjacent directions differ, so equal paths have equal segment tuples.
    ``_end`` holds the endpoint and ``_ef[i - 1]`` holds (ε_i, φ_i) once known.
    """

    __slots__ = ("segs", "den", "_hash", "_end", "_ef")

    def __init__(self, segs, den: int, end=None):
        self.segs = segs
        self.den = den
        self._hash = hash(segs)
        self._end = end
        self._ef = {}

    @staticmethod
    def straight(coords) -> "PathElement":
        coords = tuple(coords)
        return PathElement(((coords, 1),), 1, coords)

    def endpoint(self) -> tuple:
        if self._end is None:
            n, den = len(self.segs[0][0]), self.den
            total = [0] * n
            for v, d in self.segs:
                for k in range(n):
                    total[k] += v[k] * d
            self._end = tuple(t // den if t % den == 0 else Fraction(t, den) for t in total)
        return self._end

    def __eq__(self, other):
        return isinstance(other, PathElement) and self.segs == other.segs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PathElement({self.segs!r}, {self.den!r})"


class TensorElement:
    """Ordered tensor product of path elements; leftmost factor is the first."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("tensor element needs at least one factor")
        ranks = {len(f.segs[0][0]) for f in factors}
        if len(ranks) != 1:
            raise ValueError("tensor factors live in different root systems")
        self.factors = factors
        self._hash = hash(factors)

    @classmethod
    def _of_valid(cls, factors: tuple) -> "TensorElement":
        """A tensor of factors taken out of valid tensors of one root system: no rank check."""
        b = object.__new__(cls)
        b.factors = factors
        b._hash = hash(factors)
        return b

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TensorElement({self.factors!r})"


def _factors(b) -> tuple:
    return b.factors if isinstance(b, TensorElement) else (b,)


def _vertex_order(elements) -> list:
    """Elements sorted by their segments, the durations n_j / den compared as rationals.

    Scaled to the lcm L of every denominator in the set, n_j · (L // den)
    compares as n_j / den does, so the keys are integer tuples.
    """
    elements = list(elements)
    scale = lcm(*{f.den for b in elements for f in _factors(b)})

    def segs_key(f):
        k = scale // f.den
        return tuple((v, n * k) for v, n in f.segs)

    def key(b):
        return tuple(map(segs_key, b.factors)) if isinstance(b, TensorElement) else segs_key(b)

    return sorted(elements, key=key)


def _heights(p: PathElement, idx: int) -> list:
    """Breakpoint values of den · h(t), h(t) = ⟨π(t), α_i^∨⟩ (coordinate idx of the path),
    after storing (ε_i, φ_i) = (−min h, h(1) − min h) in p._ef."""
    hs = list(accumulate((v[idx] * n for v, n in p.segs), initial=0))
    m = min(hs)
    eps, rest = divmod(-m, p.den)
    if rest:
        raise ValueError("non-integral path minimum; element is outside the integral path class")
    p._ef[idx] = (eps, (hs[-1] - m) // p.den)
    return hs


def _eps_phi_path(p: PathElement, idx: int):
    cached = p._ef.get(idx)
    if cached is None:
        _heights(p, idx)
        cached = p._ef[idx]
    return cached


def _scaled(segs, s: int):
    return segs if s == 1 else [(v, n * s) for v, n in segs]


def _f_path(rs: RootSystem, p: PathElement, i: int) -> PathElement | None:
    """Reflect [t0, t1]: t0 the last time h is minimal (breakpoint j0), t1 the first time after
    it that h is one higher, inside segment j; the pieces after t1 are the tail."""
    idx = i - 1
    if p._ef.get(idx, (0, 1))[1] == 0:  # φ_i = 0 known
        return None
    hs = _heights(p, idx)
    eps, phi = p._ef[idx]
    if phi == 0:
        return None
    segs, m = p.segs, -eps * p.den
    target = m + p.den
    j0 = len(hs) - 1 - hs[::-1].index(m)
    j = j0
    while hs[j + 1] < target:
        j += 1
    (v, n), reflect = segs[j], rs._reflections[idx]
    s, cut = _crossing(v[idx], target - hs[j])
    mid = [(reflect[w], d * s) for w, d in segs[j0:j]]
    mid.append((reflect[v], cut))
    tail = _scaled(segs[j + 1 :], s)
    if cut < n * s:
        tail = [(v, n * s - cut), *tail]
    end = tuple(map(sub, p.endpoint(), rs._alpha_cols[idx]))
    child = _splice(_scaled(segs[:j0], s), mid, tail, p.den * s, end)
    child._ef[idx] = (eps + 1, phi - 1)
    return child


def _e_path(rs: RootSystem, p: PathElement, i: int) -> PathElement | None:
    """Reflect [t0, t1]: t1 the first time h is minimal (breakpoint j1), t0 the last time before
    it that h is one higher, inside segment j; the pieces before t0 are the head."""
    idx = i - 1
    if p._ef.get(idx, (1, 0))[0] == 0:  # ε_i = 0 known
        return None
    hs = _heights(p, idx)
    eps, phi = p._ef[idx]
    if eps == 0:
        return None
    segs, m = p.segs, -eps * p.den
    target = m + p.den
    j1 = hs.index(m)
    j = j1 - 1
    while hs[j] < target:
        j -= 1
    (v, n), reflect = segs[j], rs._reflections[idx]
    s, cut = _crossing(v[idx], target - hs[j])
    head = _scaled(segs[:j], s)
    if cut:
        head = [*head, (v, cut)]
    mid = [(reflect[v], n * s - cut)]
    mid += [(reflect[w], d * s) for w, d in segs[j + 1 : j1]]
    end = tuple(map(add, p.endpoint(), rs._alpha_cols[idx]))
    child = _splice(head, mid, _scaled(segs[j1:], s), p.den * s, end)
    child._ef[idx] = (eps - 1, phi + 1)
    return child


def _crossing(c: int, rise: int) -> tuple:
    """(s, cut): den · h, of slope c along a segment, rises by `rise` after cut / s of its
    den-units, and s is the least scale making cut whole (the denominator of rise / c divides c)."""
    s = abs(c) // gcd(rise, c)
    return s, rise * s // c


def _splice(head, mid, tail, den: int, end) -> PathElement:
    """The path head + mid + tail, durations over den, merged at the two seams only.

    Adjacent pieces inside each part come from adjacent segments (mid reflected by
    s_i, a bijection) or from the two sides of a cut where the slope is not 0, so
    they differ.  Scaling by s and cutting once keeps gcd(durations) = 1, so only a
    merge at a seam can leave a common factor to divide out.
    """
    segs = list(head)
    merged = False
    for part in (mid, tail):
        if segs and part and segs[-1][0] == part[0][0]:
            segs[-1] = (segs[-1][0], segs[-1][1] + part[0][1])
            segs += part[1:]
            merged = True
        else:
            segs += part
    if merged:
        g = gcd(*(n for _, n in segs))
        if g > 1:
            segs = [(v, n // g) for v, n in segs]
            den //= g
    return PathElement(tuple(segs), den, end)


# -- public crystal operations ------------------------------------------------


def wt(rs: RootSystem, b) -> Weight:
    """Endpoint weight of a path, or the coordinate sum over tensor factors."""
    if isinstance(b, TensorElement):
        total = [0] * rs.n
        for f in b.factors:
            for k, x in enumerate(f.endpoint()):
                total[k] += x
        return Weight(total)
    return Weight(b.endpoint())


def _signature(factors, idx: int, strict: bool = True) -> tuple:
    """Kashiwara's signature rule on b_1 ⊗ ... ⊗ b_r: (ε_i of the tensor, the index k of the
    factor that f_i, for strict, or e_i acts on).

    Read right to left, ε_i(b_k ⊗ ... ⊗ b_r) = ε_k + max(0, E − φ_k) for E = ε_i(b_{k+1} ⊗
    ... ⊗ b_r), as ⟨wt(b_k), α_i^∨⟩ = φ_k − ε_k.  The operator acts on the first b_k with
    φ_k > E (f_i) or φ_k ≥ E (e_i), and on the last factor if there is none.
    """
    total, k = 0, len(factors) - 1
    for j in range(k, -1, -1):
        f = factors[j]
        eps, phi = f._ef.get(idx) or _eps_phi_path(f, idx)
        if phi > total or (phi == total and not strict):
            k = j
        total = eps + total - phi if total > phi else eps
    return total, k


def epsilon(rs: RootSystem, b, i: int) -> int:
    rs._check_index(i)
    return _signature(_factors(b), i - 1)[0]


def is_highest(rs: RootSystem, b) -> bool:
    """ε_i(b) = 0 for every i: b is the highest-weight element of its component."""
    factors = _factors(b)
    return all(_signature(factors, idx)[0] == 0 for idx in range(rs.n))


def phi(rs: RootSystem, b, i: int) -> int:
    """φ_i(b) = ε_i(b) + ⟨wt(b), α_i^∨⟩."""
    return epsilon(rs, b, i) + wt(rs, b).coords[i - 1]


_MISSING = object()


def _cached(op, cache_name: str):
    """op memoized per root system in rs.<cache_name>, with results interned in rs._paths."""

    def cached(rs: RootSystem, b: PathElement, i: int):
        cache = getattr(rs, cache_name)
        key = (b, i)
        res = cache.get(key, _MISSING)
        if res is _MISSING:
            res = op(rs, b, i)
            if res is not None:
                res = rs._paths.setdefault(res, res)
            cache[key] = res
        return res

    return cached


_f_path_cached = _cached(_f_path, "_f_cache")
_e_path_cached = _cached(_e_path, "_e_cache")


def _apply(rs: RootSystem, b, i: int, op, strict: bool):
    """op on a path; on a tensor, op on the factor the signature rule picks."""
    rs._check_index(i)
    if not isinstance(b, TensorElement):
        return op(rs, b, i)
    factors = b.factors
    k = _signature(factors, i - 1, strict)[1]
    child = op(rs, factors[k], i)
    if child is None:
        return None
    return TensorElement._of_valid(factors[:k] + (child,) + factors[k + 1 :])


def path_f(rs: RootSystem, b, i: int):
    """Kashiwara lowering operator; None exactly when φ_i(b) = 0."""
    return _apply(rs, b, i, _f_path_cached, strict=True)


def path_e(rs: RootSystem, b, i: int):
    """Kashiwara raising operator; None exactly when ε_i(b) = 0."""
    return _apply(rs, b, i, _e_path_cached, strict=False)


def highest_path(rs: RootSystem, lam) -> PathElement:
    """The straight-line path b_λ for dominant λ, interned in rs._paths."""
    lam = rs.weight(lam)
    if not lam.is_dominant():
        raise ValueError("highest path needs a dominant integral weight")
    path = PathElement.straight(lam.coords)
    return rs._paths.setdefault(path, path)


# -- crystal graphs -----------------------------------------------------------


@dataclass(frozen=True)
class CrystalGraph:
    """Colored digraph with canonical vertex indices; edge (u, i, v) means f_i(u) = v."""

    vertices: tuple
    weights: tuple
    edges: tuple  # (src_index, label, dst_index)
    highest: int | None

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        verts = [{"index": k, "weight": list(w.coords)} for k, w in enumerate(self.weights)]
        return {
            "vertex_count": self.vertex_count,
            "highest": self.highest,
            "vertices": verts,
            "edges": [list(e) for e in self.edges],
        }

    def to_edge_lines(self) -> str:
        lines = [f"{u} -> {v} [label={i}]" for (u, i, v) in self.edges]
        return "\n".join(lines) + "\n"


def graph_from_elements(rs: RootSystem, elements) -> CrystalGraph:
    """Crystal graph on an explicit element set; edges are f-edges staying in the set."""
    elems = set(elements)
    verts = _vertex_order(elems)
    index = {b: k for k, b in enumerate(verts)}
    edges = []
    highest = None
    for b in verts:
        if highest is None and is_highest(rs, b):
            highest = index[b]
        for i in range(1, rs.n + 1):
            c = path_f(rs, b, i)
            if c is not None and c in elems:
                edges.append((index[b], i, index[c]))
    return CrystalGraph(tuple(verts), tuple(wt(rs, b) for b in verts), tuple(sorted(edges)), highest)


def _f_power_closure(rs: RootSystem, elements, i: int, budget: int):
    out = set(elements)
    for b in list(out):
        c = b
        while True:
            c = path_f(rs, c, i)
            if c is None or c in out:
                # an element already present had (or will have) its chain walked
                break
            out.add(c)
            if len(out) > budget:
                raise BudgetExceededError(f"saturation exceeded budget of {budget} elements")
    return out


def _close(rs: RootSystem, elements, word, budget: int):
    """Closure of elements under f_{i_1}^* ... f_{i_N}^*, the last letter applied first."""
    for i in reversed(word):
        elements = _f_power_closure(rs, elements, i, budget)
    return elements


def generate_crystal(rs: RootSystem, lam, budget: int = DEFAULT_BUDGET) -> CrystalGraph:
    """The crystal graph of B(λ) = B_{w_0}(λ): {b_λ} closed along a reduced word of w_0;
    |B(λ)| = weyl_dimension(λ)."""
    start = highest_path(rs, lam)
    return graph_from_elements(rs, _close(rs, {start}, rs.longest_word(range(1, rs.n + 1)), budget))
