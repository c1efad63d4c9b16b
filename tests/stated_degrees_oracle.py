"""The automorphism search that once decided whether stated degrees are the
computed class-group grading in another basis: the reference the lattice
criterion of ``model._check_stated_degrees`` is tested against.

It looks for a unimodular map W on the free part, then a unit u and a
free-part shear s on each torsion factor separately, carrying the computed
degrees onto the stated ones.  A basis it finds is a true basis change, but
with two or more torsion factors it misses those that mix the factors, such
as a swap of two Z/2 residues.  It takes time phi(t) * t^r per factor.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import mul

from toricfol.intlinalg import _bareiss
from toricfol.ratlinalg import solve_sparse


def stated_degrees_reachable(group, computed, stated) -> bool:
    """True when the search finds an automorphism carrying computed onto stated."""
    if stated == computed:
        return True
    r, moduli, nvars = group.rank, group.torsion, len(computed)
    if len(stated) != nvars or any(len(d.free) != r or d.moduli != moduli for d in stated):
        return False

    # Row i of W solves W_i . computed_j = stated_j[i], one equation per j.
    equations = [dict(enumerate(d.free)) for d in computed]
    w_rows = []
    for i in range(r):
        sol = solve_sparse(equations, [stated[j].free[i] for j in range(nvars)], r)
        if sol is None or any(x.denominator != 1 for x in sol):
            return False
        w_rows.append(sol)
    if abs(_bareiss(w_rows)) != 1:
        return False

    new_free = [tuple(sum(map(mul, row, d.free)) for row in w_rows) for d in computed]
    for k, t in enumerate(moduli):
        cur = [d.residues[k] for d in computed]
        want = [d.residues[k] for d in stated]
        if not any(
            all(
                (u * c + sum(si * fi for si, fi in zip(s, nf))) % t == wv
                for c, nf, wv in zip(cur, new_free, want)
            )
            for u in range(1, t)
            if gcd(u, t) == 1
            for s in product(range(t), repeat=r)
        ):
            return False
    return True
