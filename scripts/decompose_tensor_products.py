#!/usr/bin/env python3
"""Tensor-product decompositions via projected lattice points of string polytopes.

Decomposes the adjoint square (for A2, the SL(3) worked example) and then
sweeps small dominant weights, cross-checking every table against the
crystal-graph decomposition oracle: the weights of the highest elements of
B(λ) ⊗ B(μ), where B(λ) is the Demazure crystal B_{w_0}(λ).  The adjoint
representation has the highest root as its highest weight.

Run:  python scripts/decompose_tensor_products.py [rank | preset]
      (a type-A rank such as 3, or a preset name such as B2, G2 or B3; default A2)
"""

import sys
from collections import Counter
from itertools import product

from crystalcubes.crystal import TensorElement, is_highest, wt
from crystalcubes.demazure import demazure_crystal
from crystalcubes.rootsys import RootSystem
from crystalcubes.stringpoly import tensor_decompose


def show_table(rs, coords1, coords2):
    lam, mu = rs.weight(*coords1), rs.weight(*coords2)
    table = tensor_decompose(rs, [lam, mu])
    w0 = rs.longest_word(range(1, rs.n + 1))
    pairs = map(TensorElement, product(demazure_crystal(rs, lam, w0), demazure_crystal(rs, mu, w0)))
    oracle = Counter(wt(rs, b).coords for b in pairs if is_highest(rs, b))
    status = "ok" if table.as_dict() == dict(oracle) else "MISMATCH"
    terms = " + ".join(
        f"{c}·V({','.join(map(str, nu))})" if c > 1 else f"V({','.join(map(str, nu))})"
        for nu, c in table.entries
    )
    print(f"V({coords1}) ⊗ V({coords2}) = {terms}   [{status}]")
    return status == "ok"


def highest_root(rs):
    """The positive root of greatest height, in ϖ-coordinates."""
    beta = max(rs.positive_roots(), key=sum)
    return sum((b * rs.simple_root_as_weight(j) for j, b in enumerate(beta, start=1)), start=rs.zero_weight()).coords


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "2"
    rs = RootSystem.preset(f"A{name}" if name.isdigit() else name)

    print("== adjoint square ==")
    adjoint = highest_root(rs)
    show_table(rs, adjoint, adjoint)

    print("\n== sweep of small dominant weights ==")
    menu = [c for c in product(range(2), repeat=rs.n) if any(c)]
    good = True
    for c1 in menu:
        for c2 in menu:
            good &= show_table(rs, c1, c2)
    print("\nall tables matched the crystal oracle" if good else "\nMISMATCH FOUND")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
