"""Grading-aware polynomial queries: degrees, enumeration, lattice counts."""

from __future__ import annotations

from math import lcm
from operator import index, mul

from .degrees import DegreeClass
from .model import ToricModel
from .halfspaces import count_integer_points
from .poly import Polynomial


def homogeneous_degree(model: ToricModel, f: Polynomial) -> DegreeClass | None:
    """Common degree of all terms of f, or None when terms disagree.

    The zero polynomial carries no degree at all and is rejected loudly,
    so callers can tell "no degree" apart from "mixed degrees".
    """
    d = degree_vector(model, f)
    if d is None:
        return None
    return DegreeClass._trusted(tuple(d[: model.rank]), tuple(d[model.rank :]), model.moduli)


def degree_vector(model: ToricModel, f: Polynomial) -> list[int] | None:
    """deg(f) as one int per row of ``model.degree_rows``, or None when the
    terms of f disagree: one dot product per row and term, free rows
    compared exactly and torsion rows mod t_k, their residues reduced."""
    if f.nvars != model.nvars:
        raise ValueError("variable count mismatch")
    if f.is_zero():
        raise ValueError("the zero polynomial has no degree")
    out = []
    for row, t in zip(model.degree_rows, (0,) * model.rank + model.moduli):
        found = {sum(map(mul, row, m)) for m in f.terms}
        if t:
            found = {x % t for x in found}
        if len(found) > 1:
            return None
        out.append(found.pop())
    return out


def monomials_of_degree(model: ToricModel, alpha: DegreeClass) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given degree class, largest first.

    Termination is certified by the model's positive grading functional,
    which every model carries.

    The descent fixes the exponents heaviest variable first, by weight
    under the functional, and tracks the gap between alpha and the degree
    so far, with the functional's value as coordinate 0.  A variable
    moves coordinate k of the gap by deg[k]/weight per unit of functional
    it spends, so a completion exists only if every gap coordinate lies
    between the functional left times the least and the greatest of
    these rates over the variables still to be fixed (both 0 once none
    is left).  Each bound is linear in the current exponent, so the
    exponents kept form one range.  Only exponents without a completion
    of degree alpha are skipped, and the result is sorted, so it equals
    that of the unpruned walk.

    A graded piece is fixed by the model alone, so each model keeps a
    memo from degree class to basis: the descent runs on the first query
    of a class and later queries return the same tuple.  A tuple is
    immutable, so callers may share it; the memo lives as long as its
    model.  A class from another grading group is refused on every call.
    """
    model._check_group(alpha)
    memo = model._monomial_bases
    basis = memo.get(alpha)
    if basis is None:
        basis = memo[alpha] = _enumerate_monomials(model, alpha)
    return basis


def _enumerate_monomials(model: ToricModel, alpha: DegreeClass) -> tuple[tuple[int, ...], ...]:
    """The pruned descent behind ``monomials_of_degree``, on a checked class."""
    nvars = model.nvars
    # The functional, scaled to integers, is coordinate 0 of every step
    # and of the gap; the free degrees are the others.
    functional = model.positive_functional
    scale = lcm(*(c.denominator for c in functional))
    functional = [c.numerator * (scale // c.denominator) for c in functional]
    steps = [(sum(map(mul, functional, d.free)),) + d.free for d in model.degrees]
    order = sorted(range(nvars), key=lambda j: -steps[j][0])

    # levels[t]: the variable fixed at depth t, its step, and the bounds
    # e*c <= p*gap[k] - q*gap[0] that keep gap[k] between gap[0] times the
    # least and the greatest rate step[k]/step[0] of the variables after
    # it (both 0 when none is left).  A bound with c = 0 does not depend
    # on e and is left out.  Leaves stay exact: the free degrees have full
    # rank, so each side of each coordinate keeps a bound, and no variable
    # after the last one kept moves that coordinate.
    unit = lcm(*(s[0] for s in steps))
    rates = [[x * (unit // s[0]) for x in s] for s in steps]  # over unit
    levels = []
    for t, j in enumerate(order):
        s = steps[j]
        columns = list(zip(*(rates[i] for i in order[t + 1 :]))) or [(0,)] * len(s)
        bounds = [
            (k, p, q, p * s[k] - q * s[0])
            for k, column in enumerate(columns)
            for p, q in ((unit, min(column)), (-unit, -max(column)))
            if p * s[k] != q * s[0]
        ]
        levels.append((j, s, bounds))

    torsion = list(zip(model.degree_rows[model.rank :], model.moduli, alpha.residues))
    out: list[tuple[int, ...]] = []
    exps = [0] * nvars

    def descend(t: int, gap: tuple[int, ...]):
        if t == nvars:
            if all(sum(map(mul, row, exps)) % m == c for row, m, c in torsion):
                out.append(tuple(exps))
            return
        j, step, bounds = levels[t]
        lo, hi = 0, gap[0] // step[0]
        for k, p, q, c in bounds:
            rhs = p * gap[k] - q * gap[0]
            if c > 0:
                if rhs // c < hi:
                    hi = rhs // c
            elif -(rhs // -c) > lo:
                lo = -(rhs // -c)
        for e in range(lo, hi + 1):
            exps[j] = e
            descend(t + 1, tuple(g - e * x for g, x in zip(gap, step)) if e else gap)

    descend(0, (sum(map(mul, functional, alpha.free)),) + alpha.free)
    return tuple(m for m, _ in Polynomial._trusted(nvars, dict.fromkeys(out, 1)).sorted_terms())


def count_lattice_points(model: ToricModel, coefficients) -> int:
    """Lattice points of the polytope cut out by <m, ray> >= -a_ray.

    Counted slice by slice by ``halfspaces.count_integer_points``.  Errors
    out when the model has no rays, the divisor is not effective, or the
    polytope is unbounded (incomplete fan or degenerate divisor).
    """
    if model.rays is None:
        raise ValueError("lattice-point counting needs a ray-based model")
    coefficients = list(map(index, coefficients))
    if len(coefficients) != model.nvars:
        raise ValueError("divisor coefficient count mismatch")
    if any(a < 0 for a in coefficients):
        raise ValueError("divisor is not effective")
    return count_integer_points([(ray, -a) for ray, a in zip(model.rays, coefficients)], model.n)
