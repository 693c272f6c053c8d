"""Littelmann path realization of the crystals B(λ) and their tensor products.

A crystal element is a piecewise-linear path from the origin, stored as merged
(direction, duration) segments whose integer durations share one denominator
per path, so the path model runs on integers alone.  The root operators cut
the path where t ↦ ⟨π(t), α_i^∨⟩ attains its minimum and reflect the middle
stretch; tensor elements carry the Kashiwara rule, with the first factor
receiving f_i whenever φ_i(b1) > ε_i(b2).

Each operator is one pass over the segments.  f_i walks them forward, keeping
the last breakpoint where den · h is lowest and the first segment after it
along which h has risen by one; e_i makes the same walk from the end, on
h(t) − h(1).  The pass also gives (ε_i, φ_i) and rejects a path whose lowest
or final height is not an integer.  Both operators then call one splice,
`_splice`: the segments outside the reflected stretch are copied, the pieces
inside are reflected through a per-root-system memo of s_i on directions, and
only the two seams can merge.  An operator carries state to the child instead
of summing segments again: the endpoint moves by ∓α_i, and the parent's
(ε_i, φ_i), held in slots 2i − 2 and 2i − 1 of the flat list `_ef`, moves by
(±1, ∓1), so ε, φ, `is_highest` and the signature rule read them there.  The
operator caches keep paths only: a call with no result is answered again from
a known φ_i = 0 (f_i) or ε_i = 0 (e_i) before any walk.  A one-block crystal is
held as bare paths; on a one-factor tensor built by hand, the signature rule
picks its one factor.  `graph_from_elements` sorts vertices on flat integer
keys, finds each f-edge with one index lookup, tests only the vertices no
f-edge enters for the highest one, and reads each weight from the endpoint,
whose heights the operators have already checked.

One closure builds every crystal here and in `demazure`: `_close` saturates a
set under f_{i_1}^* ... f_{i_N}^* along a word.  Each letter walks the whole
f_i-string down from every element with ε_i = 0, so the closure meets each
element at its string position and records it: the map it returns sends an
element to its string entries, the Ω-entries of `demazure`.  It never calls e_i.
A path's ε_i is read from its slot, and its string stops at the φ_i = 0 that f_i
carried to the last child; a tensor's whole string comes from one signature
scan, each step applying f_i to the one factor the scan names.  B(λ) is the
Demazure crystal B_{w_0}(λ), so `generate_crystal` closes {b_λ} along a reduced
word of w_0; `demazure` closes along any reduced word for B_w(λ), and block by
block for the generalized Demazure crystals B_{I,λ}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .rootsys import BudgetExceededError, InvariantError, RootSystem, Weight

DEFAULT_BUDGET = 10**6


class PathElement:
    """Piecewise-linear path: segments ((direction, n_j), ...) run for times n_j / den.

    The durations are positive integers with Σ n_j = den and gcd(den, n_1, ...) = 1,
    adjacent directions differ and all have one rank, so equal paths have equal segment
    tuples.  A path built without ``end`` is checked for this and sums its segments into
    ``_end``, the endpoint; the operators and `straight` build paths of this form and
    pass it.  ``_ef`` is the flat list [ε_1, φ_1, ..., ε_n, φ_n] of small ints, each pair
    None until known.
    """

    __slots__ = ("segs", "den", "_hash", "_end", "_ef")

    def __init__(self, segs, den: int, end=None):
        if end is None:
            _check_segments(segs, den)
            total = (sum(v[k] * d for v, d in segs) for k in range(len(segs[0][0])))
            end = tuple(t // den if t % den == 0 else Fraction(t, den) for t in total)
        self.segs = segs
        self.den = den
        self._hash = hash(segs)
        self._end = end
        self._ef = [None] * (2 * len(end))

    @staticmethod
    def straight(coords) -> "PathElement":
        coords = tuple(coords)
        return PathElement(((coords, 1),), 1, coords)

    def endpoint(self) -> tuple:
        return self._end

    def __eq__(self, other):
        return isinstance(other, PathElement) and self.segs == other.segs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PathElement({self.segs!r}, {self.den!r})"


def _check_segments(segs, den: int) -> None:
    """Reject segments that are not in the one form that `PathElement` equality compares."""
    durations = [n for _, n in segs]
    if not segs or min(durations) <= 0 or sum(durations) != den:
        raise ValueError("path durations must be positive integers summing to den")
    if gcd(den, *durations) != 1:
        raise ValueError("path durations and den must have no common factor")
    if len({len(v) for v, _ in segs}) != 1:
        raise ValueError("path directions must all have one rank")
    if any(a[0] == b[0] for a, b in zip(segs, segs[1:])):
        raise ValueError("adjacent path directions must differ")


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
    compares as n_j / den does.  Every factor's scaled durations sum to L, so no
    factor's segments are a proper prefix of another's, and the (direction...,
    duration) records of all factors flatten into one integer key in the same order.
    """
    elements = list(elements)
    scale = lcm(*{f.den for b in elements for f in _factors(b)})

    def key(b):
        flat = []
        for f in _factors(b):
            k = scale // f.den
            for v, n in f.segs:
                flat += v
                flat.append(n * k)
        return flat

    return sorted(elements, key=key)


def _integral(low: int, high: int, den: int) -> tuple:
    """(ε_i, φ_i) = (−low / den, high / den) for the lowest and final values of den · h."""
    eps, rest = divmod(-low, den)
    phi, rest_end = divmod(high, den)
    if rest or rest_end:
        raise ValueError("non-integral path height; element is outside the integral path class")
    return eps, phi


def _eps_phi_path(p: PathElement, idx: int) -> tuple:
    ef, e = p._ef, 2 * idx
    if ef[e] is None:
        h = low = 0
        for v, n in p.segs:
            h += v[idx] * n
            if h < low:
                low = h
        ef[e], ef[e + 1] = _integral(low, h - low, p.den)
    return ef[e], ef[e + 1]


def _f_path(rs: RootSystem, p: PathElement, i: int) -> PathElement | None:
    """Reflect [t0, t1]: t0 the last time h = ⟨π(t), α_i^∨⟩ is minimal (breakpoint `start`), t1
    the first time after it that h is one higher, inside segment `cross`.

    One pass from the start: a new or repeated minimum moves t0 and forgets the crossing."""
    idx, ef, e = i - 1, p._ef, 2 * i - 2
    if ef[e + 1] == 0:
        return None
    segs, den = p.segs, p.den
    h = low = start = 0
    cross = -1
    for k, (v, n) in enumerate(segs):
        nxt = h + v[idx] * n
        if nxt <= low:
            low, start, cross = nxt, k + 1, -1
        elif cross < 0 and nxt >= low + den:
            cross, rise = k, low + den - h
        h = nxt
    eps, phi = ef[e], ef[e + 1] = _integral(low, h - low, den)
    if phi == 0:
        return None
    s, cut = _crossing(segs[cross][0][idx], rise)
    end = tuple(map(sub, p.endpoint(), rs._alpha_cols[idx]))
    child = _splice(rs._reflections[idx], segs, den, s, start, 0, cross, cut, end)
    child._ef[e], child._ef[e + 1] = eps + 1, phi - 1
    return child


def _e_path(rs: RootSystem, p: PathElement, i: int) -> PathElement | None:
    """Reflect [t0, t1]: t1 the first time h is minimal (breakpoint `start`), t0 the last time
    before it that h is one higher, inside segment `cross`.

    The pass of f_i read from the end: den · (h(t) − h(1)) at each breakpoint, walking back."""
    idx, ef, e = i - 1, p._ef, 2 * i - 2
    if ef[e] == 0:
        return None
    segs, den = p.segs, p.den
    h = low = 0
    start = len(segs)
    cross = -1
    for k in range(start - 1, -1, -1):
        v, n = segs[k]
        nxt = h - v[idx] * n
        if nxt <= low:
            low, start, cross = nxt, k, -1
        elif cross < 0 and nxt >= low + den:
            cross, rise = k, low + den - h
        h = nxt
    eps, phi = ef[e], ef[e + 1] = _integral(low - h, -low, den)  # h is now den · (h(0) − h(1))
    if eps == 0:
        return None
    v, n = segs[cross]
    s, cut = _crossing(-v[idx], rise)  # cut: den·s-units from the end of segment `cross`
    end = tuple(map(add, p.endpoint(), rs._alpha_cols[idx]))
    child = _splice(rs._reflections[idx], segs, den, s, cross, n * s - cut, start, 0, end)
    child._ef[e], child._ef[e + 1] = eps - 1, phi + 1
    return child


def _crossing(c: int, rise: int) -> tuple:
    """(s, cut): den · h, of slope c along a segment, rises by `rise` after cut / s of its
    den-units, and s is the least scale making cut whole (the denominator of rise / c divides c)."""
    s = c // gcd(rise, c)
    return s, rise * s // c


def _splice(reflect, segs, den: int, s: int, k0: int, c0: int, k1: int, c1: int, end) -> PathElement:
    """The path of segs, over den · s, with the stretch from c0 units into segment k0 to c1
    units into segment k1 reflected through `reflect`; pieces merged at the two seams only.

    Adjacent pieces inside the head, the reflected middle and the tail come from adjacent
    segments (the middle reflected by s_i, a bijection) or from the two sides of a cut
    where the slope is not 0, so they differ.  Scaling by s and cutting once keeps
    gcd(durations) = 1, so only a merge at a seam can leave a common factor to divide out.
    """
    if s != 1:
        segs = tuple((v, n * s) for v, n in segs)
    out = list(segs[:k0])
    v, n = segs[k0]
    if c0:
        out.append((v, c0))
    head = len(out)
    if k0 == k1:
        out.append((reflect[v], c1 - c0))
    else:
        out.append((reflect[v], n - c0))
        for w, d in segs[k0 + 1 : k1]:
            out.append((reflect[w], d))
        if c1:
            out.append((reflect[segs[k1][0]], c1))
    tail = len(out)
    if k1 < len(segs):
        v, n = segs[k1]
        if n > c1:
            out.append((v, n - c1))
        out += segs[k1 + 1 :]
    merged = False
    for seam in (tail, head):  # the later seam first, so the earlier one keeps its index
        if 0 < seam < len(out) and out[seam - 1][0] == out[seam][0]:
            out[seam - 1 : seam + 1] = [(out[seam][0], out[seam - 1][1] + out[seam][1])]
            merged = True
    den *= s
    if merged:
        g = gcd(*(n for _, n in out))
        if g > 1:
            out = [(v, n // g) for v, n in out]
            den //= g
    return PathElement(tuple(out), den, end)


# -- public crystal operations ------------------------------------------------


def _endpoint(b) -> tuple:
    """The endpoint of a path, or the coordinate sums of a tensor's factors' endpoints."""
    if isinstance(b, TensorElement):
        return tuple(map(sum, zip(*[f.endpoint() for f in b.factors])))
    return b.endpoint()


def wt(rs: RootSystem, b) -> Weight:
    """Endpoint weight of a path, or the coordinate sum over tensor factors."""
    return Weight(_endpoint(b))


def _epsilon(b, idx: int) -> int:
    """ε_i of a path, from its slot and walking it only when unknown, or of a tensor, by the signature rule."""
    if isinstance(b, TensorElement):
        return _signature(b.factors, idx)[0]
    eps = b._ef[2 * idx]
    return _eps_phi_path(b, idx)[0] if eps is None else eps


def _signature(factors, idx: int, strict: bool = True) -> tuple:
    """Kashiwara's signature rule on b_1 ⊗ ... ⊗ b_r: (ε_i of the tensor, the index k of the
    factor that f_i, for strict, or e_i acts on).

    Read right to left, ε_i(b_k ⊗ ... ⊗ b_r) = ε_k + max(0, E − φ_k) for E = ε_i(b_{k+1} ⊗
    ... ⊗ b_r), as ⟨wt(b_k), α_i^∨⟩ = φ_k − ε_k.  The operator acts on the first b_k with
    φ_k > E (f_i) or φ_k ≥ E (e_i), and on the last factor if there is none.
    """
    total, k, e = 0, len(factors) - 1, 2 * idx
    for j in range(k, -1, -1):
        f = factors[j]
        eps, phi = f._ef[e], f._ef[e + 1]
        if eps is None:
            eps, phi = _eps_phi_path(f, idx)
        if phi > total or (phi == total and not strict):
            k = j
        total = eps + total - phi if total > phi else eps
    return total, k


def _check_rank(rs: RootSystem, b) -> None:
    rank = len(_factors(b)[0]._end)
    if rank != rs.n:
        raise ValueError(f"an element of rank {rank} does not belong to a root system of rank {rs.n}")


def epsilon(rs: RootSystem, b, i: int) -> int:
    rs._check_index(i)
    _check_rank(rs, b)
    return _epsilon(b, i - 1)


def is_highest(rs: RootSystem, b) -> bool:
    """ε_i(b) = 0 for every i: b is the highest-weight element of its component."""
    _check_rank(rs, b)
    return not any(_epsilon(b, idx) for idx in range(rs.n))


def _cached(op, cache_name: str):
    """op memoized per root system in rs.<cache_name>, with results interned in rs._paths.

    Only paths are stored: a None result is answered again by op from the (ε_i, φ_i) that
    its first call left in b._ef, before any walk.  The index and the path's rank are checked
    on a miss only: a (b, i) in the cache was checked when it was stored."""

    def cached(rs: RootSystem, b: PathElement, i: int):
        cache = getattr(rs, cache_name)
        res = cache.get((b, i))
        if res is None:
            rs._check_index(i)
            _check_rank(rs, b)
            res = op(rs, b, i)
            if res is not None:
                res = cache[b, i] = rs._paths.setdefault(res, res)
        return res

    return cached


_f_path_cached = _cached(_f_path, "_f_cache")
_e_path_cached = _cached(_e_path, "_e_cache")


def _apply(rs: RootSystem, b: TensorElement, i: int, op, strict: bool):
    """op on the factor of a tensor that the signature rule picks."""
    factors = b.factors
    rs._check_index(i)
    _check_rank(rs, b)
    k = _signature(factors, i - 1, strict)[1]
    child = op(rs, factors[k], i)
    if child is None:
        return None
    return TensorElement._of_valid(factors[:k] + (child,) + factors[k + 1 :])


def path_f(rs: RootSystem, b, i: int):
    """Kashiwara lowering operator; None exactly when φ_i(b) = 0."""
    if isinstance(b, TensorElement):
        return _apply(rs, b, i, _f_path_cached, strict=True)
    return _f_path_cached(rs, b, i)


def path_e(rs: RootSystem, b, i: int):
    """Kashiwara raising operator; None exactly when ε_i(b) = 0."""
    if isinstance(b, TensorElement):
        return _apply(rs, b, i, _e_path_cached, strict=False)
    return _e_path_cached(rs, b, i)


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
    """Colored digraph with canonical vertex indices; edge (u, i, v) means f_i(u) = v.
    weights[k] is the weight of vertex k as its tuple of ϖ-coordinates."""

    vertices: tuple
    weights: tuple
    edges: tuple  # (src_index, label, dst_index)
    highest: int | None

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def graph_from_elements(rs: RootSystem, elements) -> CrystalGraph:
    """Crystal graph on an explicit element set; edges are f-edges staying in the set."""
    verts = _vertex_order(set(elements))
    index = {b: k for k, b in enumerate(verts)}
    edges = []  # appended in (source, label) order, which is their sorted order
    labels = range(1, rs.n + 1)
    for k, b in enumerate(verts):
        for i in labels:
            c = index.get(path_f(rs, b, i))
            if c is not None:
                edges.append((k, i, c))
    # f_i(u) = v gives e_i(v) = u, so no f-edge of the set enters a highest vertex
    entered = {c for _, _, c in edges}
    highest = next((k for k, b in enumerate(verts) if k not in entered and is_highest(rs, b)), None)
    # f_i has read (ε_i, φ_i) of every vertex, or of each factor of a tensor, for every i,
    # and a non-integral height raises; so ⟨wt(b), α_i^∨⟩ = φ_i − ε_i is an integer for
    # every i, the endpoint is a tuple of ints, and it is not checked again
    return CrystalGraph(tuple(verts), tuple(_endpoint(b) for b in verts), tuple(edges), highest)


def _path_string(rs: RootSystem, p: PathElement, i: int) -> list:
    """The f_i-string down from a path p, empty unless ε_i(p) = 0."""
    if _epsilon(p, i - 1):
        return []
    string, phi_slot = [p], 2 * i - 1
    while p._ef[phi_slot] != 0 and (p := path_f(rs, p, i)) is not None:
        string.append(p)
    return string


def _tensor_string(rs: RootSystem, t: TensorElement, i: int) -> list:
    """The f_i-string down from a tensor t, empty unless ε_i(t) = 0: u_j steps on each factor j."""
    factors, total, steps = t.factors, 0, []
    for j in range(len(factors) - 1, -1, -1):
        eps, phi = _eps_phi_path(factors[j], i - 1)
        steps += [j] * (phi - total)  # none when phi <= total
        total = eps + total - phi if total > phi else eps
    if total:
        return []
    string = [t]
    for j in reversed(steps):
        factors = factors[:j] + (path_f(rs, factors[j], i),) + factors[j + 1 :]
        string.append(TensorElement._of_valid(factors))
    return string


def _f_strings(rs: RootSystem, start: dict, i: int, budget: int) -> dict:
    """f_i^* of start, each f_i^k t given the entries (k,) + start[t] for the tops t, ε_i(t) = 0.

    A tensor's string is read off one right-to-left signature scan: factor j keeps
    u_j = max(0, φ_j − E) unmatched pluses, E being ε_i of the factors right of it, and
    ε_i > 0 exactly when minuses are left over.  Each f_i turns the leftmost unmatched +
    into a −, which nothing can match, as every + left of it is matched to a − left of it;
    so the string acts u_j times on each factor j, left to right.  Every f_i-string that
    meets the start set must have its top there (the string property of Demazure
    crystals); a start element that no string walk reaches breaks it."""
    out = {}
    for t, entries in start.items():
        string = _tensor_string(rs, t, i) if isinstance(t, TensorElement) else _path_string(rs, t, i)
        for k, b in enumerate(string):
            out[b] = (k,) + entries
            if len(out) > budget:
                raise BudgetExceededError(f"saturation exceeded budget of {budget} elements")
    if not start.keys() <= out.keys():
        raise InvariantError(f"an f_{i}-string meets the start set without its top")
    return out


def _close(rs: RootSystem, start: dict, word, budget: int) -> dict:
    """Closure of start under f_{i_1}^* ... f_{i_N}^*, the last letter applied first, each element
    mapped to its string entries (x_1, ..., x_N) followed by the entries of the start element
    it was raised from."""
    for i in reversed(word):
        start = _f_strings(rs, start, i, budget)
    return start


def generate_crystal(rs: RootSystem, lam, budget: int = DEFAULT_BUDGET) -> CrystalGraph:
    """The crystal graph of B(λ) = B_{w_0}(λ): {b_λ} closed along a reduced word of w_0.

    |B(λ)| = weyl_dimension(λ) is compared with the budget before any element is built;
    the closure's running count stays as the backstop."""
    start = highest_path(rs, lam)
    size = rs.weyl_dimension(start.endpoint())
    if size > budget:
        raise BudgetExceededError(f"crystal of {size} elements exceeds budget of {budget} elements")
    # the list drops the closure's string entries, which no caller reads, before the graph is built
    return graph_from_elements(rs, list(_close(rs, {start: ()}, rs.longest_word(range(1, rs.n + 1)), budget)))
