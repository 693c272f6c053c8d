"""Littelmann path realization of the crystals B(λ) and their tensor products.

A crystal element is a piecewise-linear path from the origin, stored as merged
(direction, duration) segments whose integer durations share one denominator
per path, so the path model runs on integers alone.  The root operators cut
the path where t ↦ ⟨π(t), α_i^∨⟩ attains its minimum and reflect the middle
stretch; tensor elements carry the Kashiwara rule, with the first factor
receiving f_i whenever φ_i(b1) > ε_i(b2).

One closure builds every crystal here and in `demazure`: `_close` saturates a
set under f_{i_1}^* ... f_{i_N}^* along a word.  B(λ) is the Demazure crystal
B_{w_0}(λ), so `generate_crystal` closes {b_λ} along a reduced word of w_0;
`demazure` closes along any reduced word for B_w(λ), and block by block for
the generalized Demazure crystals B_{I,λ}.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm

from .rootsys import BudgetExceededError, RootSystem, Weight

DEFAULT_BUDGET = 10**6


class PathElement:
    """Piecewise-linear path: segments ((direction, n_j), ...) run for times n_j / den.

    The durations are positive integers with Σ n_j = den and gcd(den, n_1, ...) = 1,
    and adjacent directions differ, so equal paths have equal segment tuples.
    """

    __slots__ = ("segs", "den", "_hash", "_end", "_ef")

    def __init__(self, segs, den: int):
        self.segs = segs
        self.den = den
        self._hash = hash(segs)
        self._end = None
        self._ef = {}

    @staticmethod
    def straight(coords) -> "PathElement":
        return PathElement(((tuple(coords), 1),), 1)

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

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TensorElement({self.factors!r})"


def _vertex_order(elements) -> list:
    """Elements sorted by their segments, the durations n_j / den compared as rationals.

    Scaled to the lcm L of every denominator in the set, n_j · (L // den)
    compares as n_j / den does, so the keys are integer tuples.
    """
    elements = list(elements)
    scale = lcm(*{f.den for b in elements for f in (b.factors if isinstance(b, TensorElement) else (b,))})

    def segs_key(f):
        k = scale // f.den
        return tuple((v, n * k) for v, n in f.segs)

    def key(b):
        return tuple(map(segs_key, b.factors)) if isinstance(b, TensorElement) else segs_key(b)

    return sorted(elements, key=key)


def _height_profile(p: PathElement, idx: int) -> list:
    """Breakpoint values of den · h(t), h(t) = ⟨π(t), α_i^∨⟩ (coordinate idx of the path)."""
    return list(accumulate((v[idx] * n for v, n in p.segs), initial=0))


def _eps_phi_path(p: PathElement, idx: int):
    cached = p._ef.get(idx)
    if cached is None:
        hs = _height_profile(p, idx)
        m = min(hs)
        eps, rest = divmod(-m, p.den)
        if rest:
            raise ValueError("non-integral path minimum; element is outside the integral path class")
        cached = (eps, (hs[-1] - m) // p.den)
        p._ef[idx] = cached
    return cached


def _crossing(p: PathElement, times, hs, j: int, idx: int, target: int):
    """(s, s·t): den · h reaches target at time t / den inside segment j, and s is the least scale making s·t whole.

    Along segment j, den · h grows by the slope c = ⟨v_j, α_i^∨⟩ per unit of t,
    so t = times[j] + (target − hs[j]) / c, whose denominator divides c.
    """
    c = p.segs[j][0][idx]
    rise = target - hs[j]
    s = abs(c) // gcd(rise, c)
    return s, s * times[j] + rise * s // c


def _f_path(rs: RootSystem, p: PathElement, i: int) -> PathElement | None:
    idx = i - 1
    hs = _height_profile(p, idx)
    m = min(hs)
    if hs[-1] - m < p.den:
        return None
    # t0: last time h = m (a breakpoint); t1: first time h = m+1 after t0, inside segment j
    target = m + p.den
    j0 = len(hs) - 1 - hs[::-1].index(m)
    j = next(j for j in range(j0, len(hs) - 1) if hs[j + 1] >= target)
    times = list(accumulate((n for _, n in p.segs), initial=0))
    s, t1 = _crossing(p, times, hs, j, idx, target)
    return _rebuild(rs, p, s, s * times[j0], t1, i)


def _e_path(rs: RootSystem, p: PathElement, i: int) -> PathElement | None:
    idx = i - 1
    hs = _height_profile(p, idx)
    m = min(hs)
    if m > -p.den:
        return None
    # t1: first time h = m (a breakpoint); t0: last time h = m+1 before t1, inside segment j
    target = m + p.den
    j1 = hs.index(m)
    j = next(j for j in range(j1 - 1, -1, -1) if hs[j] >= target)
    times = list(accumulate((n for _, n in p.segs), initial=0))
    s, t0 = _crossing(p, times, hs, j, idx, target)
    return _rebuild(rs, p, s, t0, s * times[j1], i)


def _rebuild(rs: RootSystem, p: PathElement, s: int, t0: int, t1: int, i: int) -> PathElement:
    """Reflect directions on [t0, t1]; the tail translate falls out of the segment encoding.

    Times and durations are in units of 1 / (s · den): the pieces are cut,
    reflected and merged there, then divided by the gcd of their durations.
    """
    segs = []
    a = 0
    for v, n in p.segs:
        b = a + n * s
        cuts = [a, *(t for t in (t0, t1) if a < t < b), b]
        for lo, hi in zip(cuts, cuts[1:]):
            w = rs.reflect(v, i) if t0 <= lo and hi <= t1 else v
            if segs and segs[-1][0] == w:
                segs[-1] = (w, segs[-1][1] + hi - lo)
            else:
                segs.append((w, hi - lo))
        a = b
    g = gcd(*(n for _, n in segs))
    return PathElement(tuple((v, n // g) for v, n in segs), p.den * s // g)


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


def _eps_suffix(factors, idx: int) -> list:
    """Kashiwara's signature rule: entry k is ε_i(b_k ⊗ ... ⊗ b_r), entry r is 0."""
    eps = [0] * (len(factors) + 1)
    for k in range(len(factors) - 1, -1, -1):
        ef, _ = _eps_phi_path(factors[k], idx)
        eps[k] = max(ef, eps[k + 1] - factors[k].endpoint()[idx])
    return eps


def epsilon(rs: RootSystem, b, i: int) -> int:
    rs._check_index(i)
    if isinstance(b, TensorElement):
        return int(_eps_suffix(b.factors, i - 1)[0])
    return _eps_phi_path(b, i - 1)[0]


def is_highest(rs: RootSystem, b) -> bool:
    """ε_i(b) = 0 for every i: b is the highest-weight element of its component."""
    return all(epsilon(rs, b, i) == 0 for i in range(1, rs.n + 1))


def phi(rs: RootSystem, b, i: int) -> int:
    """φ_i(b) = ε_i(b) + ⟨wt(b), α_i^∨⟩."""
    return epsilon(rs, b, i) + int(wt(rs, b).coords[i - 1])


def _cached(op, cache_name: str):
    """op memoized per root system in rs.<cache_name>, with results interned in rs._paths."""

    def cached(rs: RootSystem, b: PathElement, i: int):
        cache = getattr(rs, cache_name)
        key = (b, i)
        if key in cache:
            return cache[key]
        res = op(rs, b, i)
        if res is not None:
            res = rs._paths.setdefault(res, res)
        cache[key] = res
        return res

    return cached


_f_path_cached = _cached(_f_path, "_f_cache")
_e_path_cached = _cached(_e_path, "_e_cache")


def _apply(rs: RootSystem, b, i: int, op, strict: bool):
    """op on a path; on a tensor, op on the factor the signature rule picks.

    That is the first b_k with φ_i(b_k) > ε_i(b_{k+1} ⊗ ... ⊗ b_r) for f_i
    (strict), or ≥ for e_i, and the last factor if there is none.
    """
    rs._check_index(i)
    if not isinstance(b, TensorElement):
        return op(rs, b, i)
    factors, idx = b.factors, i - 1
    eps = _eps_suffix(factors, idx)
    k = 0
    while k < len(factors) - 1:
        pf = _eps_phi_path(factors[k], idx)[1]
        if pf > eps[k + 1] or (not strict and pf == eps[k + 1]):
            break
        k += 1
    child = op(rs, factors[k], i)
    if child is None:
        return None
    return TensorElement(factors[:k] + (child,) + factors[k + 1 :])


def path_f(rs: RootSystem, b, i: int):
    """Kashiwara lowering operator; None exactly when φ_i(b) = 0."""
    return _apply(rs, b, i, _f_path_cached, strict=True)


def path_e(rs: RootSystem, b, i: int):
    """Kashiwara raising operator; None exactly when ε_i(b) = 0."""
    return _apply(rs, b, i, _e_path_cached, strict=False)


def highest_path(rs: RootSystem, lam: Weight) -> PathElement:
    """The straight-line path b_λ for dominant integral λ."""
    coords = lam.coords if isinstance(lam, Weight) else tuple(lam)
    cached = rs._paths.get(("top", coords))
    if cached is not None:
        return cached
    lam = rs.weight(coords)
    if not lam.is_dominant() or not lam.is_integral():
        raise ValueError("highest path needs a dominant integral weight")
    path = PathElement.straight(lam.coords)
    path = rs._paths.setdefault(path, path)
    rs._paths[("top", coords)] = path
    return path


def tensor(b1, b2) -> TensorElement:
    """Flatten-and-concatenate tensor product of elements."""
    left = b1.factors if isinstance(b1, TensorElement) else (b1,)
    right = b2.factors if isinstance(b2, TensorElement) else (b2,)
    return TensorElement(left + right)


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
        verts = [{"index": k, "weight": [_coord_json(c) for c in w.coords]} for k, w in enumerate(self.weights)]
        return {
            "vertex_count": self.vertex_count,
            "highest": self.highest,
            "vertices": verts,
            "edges": [list(e) for e in self.edges],
        }

    def to_edge_lines(self) -> str:
        lines = [f"{u} -> {v} [label={i}]" for (u, i, v) in self.edges]
        return "\n".join(lines) + "\n"

    def canonical_form(self):
        """Isomorphism invariant: BFS relabeling from the highest vertex, colors ascending.

        Works for graphs whose vertices are all reachable from the highest
        vertex, which holds for f-generated crystals; per-color out-degree ≤ 1
        makes the traversal order canonical.
        """
        root = self.highest
        if root is None:
            raise ValueError("canonical_form needs a highest vertex")
        succ = {}
        for u, i, v in self.edges:
            succ.setdefault(u, {})[i] = v
        order = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for i in sorted(succ.get(u, {})):
                v = succ[u][i]
                if v not in order:
                    order[v] = len(order)
                    queue.append(v)
        if len(order) != self.vertex_count:
            raise ValueError("graph is not reachable from the root")
        return (self.vertex_count, tuple(sorted((order[u], i, order[v]) for u, i, v in self.edges)))


def _coord_json(c):
    return c if isinstance(c, int) else str(Fraction(c))


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


def _closure_of_top(rs: RootSystem, lam, budget: int) -> set:
    """B(λ) = B_{w_0}(λ) as a set: {b_λ} closed along a reduced word of w_0."""
    start = highest_path(rs, rs.weight(lam))
    return _close(rs, {start}, rs.longest_word(range(1, rs.n + 1)), budget)


def generate_crystal(rs: RootSystem, lam, budget: int = DEFAULT_BUDGET) -> CrystalGraph:
    """The crystal graph of B(λ); |B(λ)| = weyl_dimension(λ)."""
    return graph_from_elements(rs, _closure_of_top(rs, lam, budget))


def crystal_elements(rs: RootSystem, lam, budget: int = DEFAULT_BUDGET) -> tuple:
    """The elements of B(λ) in vertex order."""
    return tuple(_vertex_order(_closure_of_top(rs, lam, budget)))


def tensor_product_elements(rs: RootSystem, lams, budget: int = DEFAULT_BUDGET) -> list:
    """Full element set of B(λ_1) ⊗ ... ⊗ B(λ_r) (the Cartesian product set)."""
    components = []
    total = 1
    for lam in lams:
        verts = crystal_elements(rs, lam, budget)
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
