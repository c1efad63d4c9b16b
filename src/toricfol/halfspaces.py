"""Exact Fourier-Motzkin elimination for small integer halfspace systems.

An inequality is a pair (coeffs, rhs) of ints meaning coeffs . x >= rhs.
Used to certify strictly positive grading functionals and to box lattice
polytopes; system sizes here are tiny, so the quadratic blowup of
elimination is irrelevant.

Elimination stays in the integers: each combined inequality is divided
by the gcd of its coefficients and right-hand side, the one primitive
representative of its class of positive multiples, which is also what
deduplication compares.  Only the bounds read off during back
substitution are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Inequality = tuple[tuple[int, ...], int]


def _eliminate_last(ineqs: list[Inequality]) -> list[Inequality]:
    pos, neg, keep = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[-1]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            keep.append((coeffs[:-1], rhs))
    for pc, pr in pos:
        cp = pc[-1]
        for nc, nr in neg:
            cn = -nc[-1]
            keep.append((tuple(cn * a + cp * b for a, b in zip(pc[:-1], nc[:-1])), cn * pr + cp * nr))
    out = {}
    for coeffs, rhs in keep:
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs, rhs = tuple(a // g for a in coeffs), rhs // g
        out.setdefault((coeffs, rhs))
    return list(out)


def feasible_point(ineqs: list[Inequality], nvars: int) -> tuple[Fraction, ...] | None:
    """Some rational x with coeffs . x >= rhs for all inequalities, else None."""
    stages = [list(ineqs)]
    for _ in range(nvars):
        stages.append(_eliminate_last(stages[-1]))
    if any(rhs > 0 for _, rhs in stages[-1]):
        return None
    point: list[Fraction] = []
    for k in range(1, nvars + 1):
        lo, hi = None, None
        for coeffs, rhs in stages[nvars - k]:
            c = coeffs[k - 1]
            if c == 0:
                continue
            bound = Fraction(rhs - sum(a * v for a, v in zip(coeffs, point)), c)
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None:
            point.append(lo)
        elif hi is not None:
            point.append(min(hi, Fraction(0)))
        else:
            point.append(Fraction(0))
    return tuple(point)


def coordinate_interval(
    ineqs: list[Inequality], nvars: int, coord: int
) -> tuple[bool, Fraction | None, Fraction | None]:
    """(feasible, lower, upper) of one coordinate over the polyhedron.

    A None bound means unbounded in that direction.
    """
    # Move the tracked coordinate to the front, then eliminate the rest.
    perm = [coord] + [j for j in range(nvars) if j != coord]
    system = [(tuple(coeffs[j] for j in perm), rhs) for coeffs, rhs in ineqs]
    for _ in range(nvars - 1):
        system = _eliminate_last(system)
    lo, hi = None, None
    for coeffs, rhs in system:
        c = coeffs[0]
        if c == 0:
            if rhs > 0:
                return False, None, None
            continue
        b = Fraction(rhs, c)
        if c > 0:
            lo = b if lo is None else max(lo, b)
        else:
            hi = b if hi is None else min(hi, b)
    if lo is not None and hi is not None and lo > hi:
        return False, None, None
    return True, lo, hi
