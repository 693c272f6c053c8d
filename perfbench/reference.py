"""Reference computations for type A_n, written apart from the package under test.

Nothing here imports crystalcubes.  Every quantity the benchmark checks is
recomputed from a textbook formula:

* Weyl dimension formula, dim V(λ) = Π_{β>0} ⟨λ+ρ, β^∨⟩ / ⟨ρ, β^∨⟩;
* Freudenthal's recursion for the weight multiplicities of V(λ);
* the Racah–Speiser/Klimyk rule for tensor-product multiplicities;
* Demazure characters by Demazure operators, also for the nested
  (generalized) shape e^{λ_1} D_{w_1}(e^{λ_2} D_{w_2}(...));
* a brute-force signed lattice count of a Grossberg–Karshon twisted cube,
  written from the affine forms
      A_l(x) = -⟨a_l ϖ_{i_l} + ... + a_N ϖ_{i_N}, α_{i_l}^∨⟩ - Σ_{j>l} ⟨α_{i_j}, α_{i_l}^∨⟩ x_j;
* the Duistermaat–Heckman volume Π_β ⟨λ, β^∨⟩ / ⟨ρ, β^∨⟩ and barycenter of a
  flag variety.

Weights are tuples in fundamental-weight coordinates.  The positive roots of
A_n are the intervals α_i + ... + α_{j-1} (0 ≤ i < j ≤ n), so a coroot
pairing is a coordinate sum.

Run `python3 perfbench/reference.py` for the self-tests.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product


class TypeA:
    """Weights, roots and Weyl group of A_n in fundamental-weight coordinates."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("rank must be positive")
        self.n = n
        self.alpha = tuple(
            tuple(2 if j == i else -1 if abs(j - i) == 1 else 0 for j in range(n)) for i in range(n)
        )
        self.positive_roots = tuple((i, j) for i in range(n) for j in range(i + 1, n + 1))
        self.rho = (1,) * n

    # -- pairings and coordinates ------------------------------------------

    @staticmethod
    def coroot(lam, root) -> int:
        """⟨λ, β^∨⟩ for β = α_{i+1} + ... + α_j given as the interval (i, j)."""
        i, j = root
        return sum(lam[i:j])

    def cartan_entry(self, i: int, j: int) -> int:
        """⟨α_j, α_i^∨⟩ for 1-based letters."""
        return self.alpha[j - 1][i - 1]

    def inverse_cartan(self, i: int, j: int) -> Fraction:
        """(ϖ_i, ϖ_j) for 0-based indices: min(i,j)(n+1-max(i,j))/(n+1), 1-based."""
        a, b = i + 1, j + 1
        return Fraction(min(a, b) * (self.n + 1 - max(a, b)), self.n + 1)

    def root_coords(self, lam) -> tuple[Fraction, ...]:
        """λ written over the simple roots."""
        return tuple(sum(self.inverse_cartan(i, j) * lam[j] for j in range(self.n)) for i in range(self.n))

    def inner(self, x, y) -> Fraction:
        return sum(self.inverse_cartan(i, j) * x[i] * y[j] for i in range(self.n) for j in range(self.n))

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def minus_roots(self, lam, counts):
        """λ - Σ counts_i α_i."""
        out = list(lam)
        for i, c in enumerate(counts):
            if c:
                for t in range(self.n):
                    out[t] -= c * self.alpha[i][t]
        return tuple(out)

    def root_vector(self, root):
        i, j = root
        return self.minus_roots((0,) * self.n, [-1 if i <= k < j else 0 for k in range(self.n)])

    # -- Weyl group ----------------------------------------------------------

    def reflect(self, mu, i: int):
        """s_{i+1}(μ) = μ - ⟨μ, α_{i+1}^∨⟩ α_{i+1} (0-based i)."""
        k = mu[i]
        return tuple(m - k * a for m, a in zip(mu, self.alpha[i])) if k else tuple(mu)

    def dominant_conjugate(self, mu):
        mu = tuple(mu)
        while True:
            i = next((t for t, c in enumerate(mu) if c < 0), None)
            if i is None:
                return mu
            mu = self.reflect(mu, i)

    def orbit(self, mu) -> set:
        seen = {tuple(mu)}
        frontier = [tuple(mu)]
        while frontier:
            nu = frontier.pop()
            for i in range(self.n):
                r = self.reflect(nu, i)
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        return seen

    def is_reduced_longest(self, word) -> bool:
        """Whether word is a reduced word for w_0: s_{i_1}...s_{i_N} sends ρ to -ρ in N = |Δ⁺| steps."""
        if len(word) != len(self.positive_roots):
            return False
        v = self.rho
        for i in reversed(word):
            v = self.reflect(v, i - 1)
        return v == tuple(-1 for _ in range(self.n))

    # -- dimensions and characters --------------------------------------------

    def weyl_dimension(self, lam) -> int:
        lr = self.add(lam, self.rho)
        num = math.prod(self.coroot(lr, b) for b in self.positive_roots)
        den = math.prod(self.coroot(self.rho, b) for b in self.positive_roots)
        if num % den:
            raise ArithmeticError("Weyl dimension is not an integer")
        return num // den

    def dominant_weights_below(self, lam) -> list:
        """Dominant μ = λ - Σ c_i α_i with c_i ≥ 0, sorted by depth Σ c_i."""
        bounds = [math.floor(c) for c in self.root_coords(lam)]
        out = []
        for c in product(*(range(b + 1) for b in bounds)):
            mu = self.minus_roots(lam, c)
            if all(x >= 0 for x in mu):
                out.append((sum(c), mu))
        out.sort()
        return [mu for _, mu in out]

    def dominant_multiplicities(self, lam) -> dict:
        """Freudenthal: ((λ+ρ,λ+ρ) - (μ+ρ,μ+ρ)) m(μ) = 2 Σ_{β>0} Σ_{k≥1} m(μ+kβ) (μ+kβ, β)."""
        lam = tuple(lam)
        lr = self.add(lam, self.rho)
        top = self.inner(lr, lr)
        roots = [self.root_vector(b) for b in self.positive_roots]
        mult: dict = {}

        def m(nu):
            return mult.get(self.dominant_conjugate(nu), 0)

        for mu in self.dominant_weights_below(lam):
            if mu == lam:
                mult[mu] = 1
                continue
            total = 0
            for beta, bv in zip(self.positive_roots, roots):
                k = 1
                while True:
                    nu = tuple(x + k * y for x, y in zip(mu, bv))
                    mk = m(nu)
                    if not mk:
                        break
                    total += mk * self.coroot(nu, beta)
                    k += 1
            mr = self.add(mu, self.rho)
            gap = top - self.inner(mr, mr)
            value = Fraction(2 * total) / gap
            if value.denominator != 1:
                raise ArithmeticError("Freudenthal recursion gave a non-integer multiplicity")
            if value:
                mult[mu] = int(value)
        return mult

    def character(self, lam) -> Counter:
        """All weights of V(λ) with multiplicity."""
        out: Counter = Counter()
        for mu, k in self.dominant_multiplicities(lam).items():
            for nu in self.orbit(mu):
                out[nu] += k
        return out

    def tensor_multiplicities(self, lams) -> Counter:
        """Klimyk: V(κ) ⊗ V(μ) = Σ_ν m_μ(ν) ε(w) V(w·(κ+ν+ρ) - ρ), folded left over the factors."""
        lams = [tuple(x) for x in lams]
        table: Counter = Counter({lams[0]: 1})
        for mu in lams[1:]:
            weights = self.character(mu)
            nxt: Counter = Counter()
            for kappa, c in table.items():
                for nu, m in weights.items():
                    w = tuple(k + x + 1 for k, x in zip(kappa, nu))
                    sign = 1
                    while True:
                        i = next((t for t, x in enumerate(w) if x < 0), None)
                        if i is None:
                            break
                        w = self.reflect(w, i)
                        sign = -sign
                    if 0 in w:
                        continue
                    nxt[tuple(x - 1 for x in w)] += sign * c * m
            table = Counter({k: v for k, v in nxt.items() if v})
        if any(v < 0 for v in table.values()):
            raise ArithmeticError("Klimyk rule left a negative multiplicity")
        return table

    def demazure_operator(self, char: Counter, letter: int) -> Counter:
        """D_i(e^μ) = (e^μ - e^{s_i μ - α_i}) / (1 - e^{-α_i}), extended linearly."""
        i = letter - 1
        alpha = self.alpha[i]
        out: Counter = Counter()
        for mu, c in char.items():
            k = mu[i]
            if k >= 0:
                for t in range(k + 1):
                    out[tuple(m - t * a for m, a in zip(mu, alpha))] += c
            elif k <= -2:
                for t in range(1, -k):
                    out[tuple(m + t * a for m, a in zip(mu, alpha))] -= c
        return Counter({k: v for k, v in out.items() if v})

    def nested_demazure_character(self, blocks) -> Counter:
        """Character of e^{λ_1} D_{w_1}(... e^{λ_r} D_{w_r}(1)) read innermost first.

        blocks is a sequence of (word, λ); each word acts as D_{i_1}...D_{i_m}, its
        last letter first.  One block (w, λ) is the Demazure character of B_w(λ).
        """
        char: Counter = Counter({(0,) * self.n: 1})
        for word, lam in reversed(list(blocks)):
            char = Counter({self.add(mu, lam): c for mu, c in char.items()})
            for letter in reversed(tuple(word)):
                char = self.demazure_operator(char, letter)
        return char

    # -- twisted cubes and Duistermaat–Heckman -------------------------------

    def cube_forms(self, word, a):
        """The affine forms A_l as (constant, {later index: coefficient})."""
        n = len(word)
        forms = []
        for l in range(n):
            const = -sum(a[j] for j in range(l, n) if word[j] == word[l])
            coeffs = {j: -self.cartan_entry(word[l], word[j]) for j in range(l + 1, n)}
            forms.append((const, {j: c for j, c in coeffs.items() if c}))
        return forms

    def cube_lattice_count(self, word, a) -> int:
        """Σ_{x ∈ Z^N} ρ(x): x_l in [A_l, 0] (closed, sign -1 each) or (0, A_l) (open, sign +1)."""
        forms = self.cube_forms(word, a)
        n = len(word)
        x = [0] * n

        def count(l: int) -> int:
            if l < 0:
                return 1
            const, coeffs = forms[l]
            bound = const + sum(c * x[j] for j, c in coeffs.items())
            total = 0
            if bound <= 0:
                for v in range(bound, 1):
                    x[l] = v
                    total -= count(l - 1)
            else:
                for v in range(1, bound):
                    x[l] = v
                    total += count(l - 1)
            x[l] = 0
            return total

        return (-1) ** n * count(n - 1)

    def cube_box(self, word, a):
        """Coordinate intervals containing the cube, by interval arithmetic from the last letter."""
        forms = self.cube_forms(word, a)
        lo = [Fraction(0)] * len(word)
        hi = [Fraction(0)] * len(word)
        for l in range(len(word) - 1, -1, -1):
            const, coeffs = forms[l]
            bmin = bmax = Fraction(const)
            for j, c in coeffs.items():
                bmin += min(c * lo[j], c * hi[j])
                bmax += max(c * lo[j], c * hi[j])
            lo[l] = min(Fraction(0), bmin)
            hi[l] = max(Fraction(0), bmax)
        return list(zip(lo, hi))

    def flag_a(self, words, lams) -> tuple:
        """Exponent vector of an iterated full flag (every block all of [n]).

        Block k puts ⟨λ_k, α_s^∨⟩ at the last occurrence of each letter s in its
        word and 0 elsewhere: every letter recurs in every later block, so no
        later weight carries over.
        """
        out = []
        for word, lam in zip(words, lams):
            last = {s: q for q, s in enumerate(word)}
            out.extend(lam[s - 1] if last[s] == q else 0 for q, s in enumerate(word))
        return tuple(out)

    def dh_volume(self, lam) -> Fraction:
        """Duistermaat–Heckman volume of the flag variety polarized by λ."""
        num = math.prod(self.coroot(lam, b) for b in self.positive_roots)
        den = math.prod(self.coroot(self.rho, b) for b in self.positive_roots)
        return Fraction(num, den)

    def dh_barycenter_sum(self, lams) -> tuple[Fraction, ...]:
        """Σ_k λ_k over the simple roots: minus the degree-1 moments summed over blocks, per volume."""
        total = tuple(sum(col) for col in zip(*lams))
        return self.root_coords(total)

    def reduced_words_longest(self, limit: int = 64) -> list:
        """Up to limit reduced words of w_0, in lexicographic order (depth-first over descents)."""
        out: list = []

        def walk(v, word):
            if len(out) >= limit:
                return
            if all(x < 0 for x in v):
                out.append(tuple(reversed(word)))
                return
            for i in range(self.n):
                if v[i] > 0:
                    walk(self.reflect(v, i), word + [i + 1])

        walk(self.rho, [])
        return out


def self_test() -> list[str]:
    """Hand-known values; returns the failures (empty when all hold)."""
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got!r}, want {want!r}")

    for n in range(1, 5):
        t = TypeA(n)
        expect(f"A{n} dim V(rho)", t.weyl_dimension(t.rho), 2 ** len(t.positive_roots))
        expect(f"A{n} dim V(w1)", t.weyl_dimension((1,) + (0,) * (n - 1)), n + 1)
        lam = tuple(range(1, n + 1))
        expect(f"A{n} Freudenthal total", sum(t.character(lam).values()), t.weyl_dimension(lam))
        w0 = t.reduced_words_longest(1)[0]
        expect(f"A{n} w0 word", t.is_reduced_longest(w0), True)
        expect(f"A{n} Demazure(w0) = character", t.nested_demazure_character([(w0, lam)]), t.character(lam))
        a = t.flag_a([w0], [lam])
        expect(f"A{n} flag cube count", t.cube_lattice_count(w0, a), t.weyl_dimension(lam))
    a2 = TypeA(2)
    expect(
        "A2 adjoint square",
        dict(a2.tensor_multiplicities([(1, 1), (1, 1)])),
        {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1},
    )
    expect("A2 adjoint zero weight", a2.character((1, 1))[(0, 0)], 2)
    expect("A2 V(w1)xV(w1)", dict(a2.tensor_multiplicities([(1, 0), (1, 0)])), {(2, 0): 1, (0, 1): 1})
    expect("A2 Demazure s1", dict(a2.nested_demazure_character([((1,), (2, 1))])), {(2, 1): 1, (0, 2): 1, (-2, 3): 1})
    expect("A2 DH (2,1)", a2.dh_volume((2, 1)), Fraction(3))
    expect("A2 barycenter (2,1)", tuple(-3 * c for c in a2.dh_barycenter_sum([(2, 1)])), (-5, -4))
    expect("A1 cube count a=3", TypeA(1).cube_lattice_count((1,), (3,)), 4)
    expect("A1 cube count a=-1", TypeA(1).cube_lattice_count((1,), (-1,)), 0)
    expect("A1 cube count a=-3", TypeA(1).cube_lattice_count((1,), (-3,)), -2)
    expect("A1 DH", TypeA(1).dh_volume((5,)), Fraction(5))
    expect("A3 w0 words", len(TypeA(3).reduced_words_longest(100)), 16)
    return bad


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("reference self-test:", "ok" if not failures else f"{len(failures)} failures")
    raise SystemExit(1 if failures else 0)
