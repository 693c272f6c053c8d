"""Brute-force crystal decomposition, kept as the oracle for the lattice-point route.

`tensor_decompose` reads tensor-product multiplicities off projected lattice points
of string polytopes.  These helpers get them by definition instead: list all of
B(λ_1) ⊗ ... ⊗ B(λ_r) and count its highest elements by weight (Kashiwara, Duke
Math. J. 71, 1993).
"""

from collections import Counter
from itertools import product

from crystalcubes.crystal import DEFAULT_BUDGET, TensorElement, _vertex_order, is_highest, path_e, wt
from crystalcubes.demazure import demazure_crystal
from crystalcubes.rootsys import BudgetExceededError, RootSystem


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
