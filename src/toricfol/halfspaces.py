"""Exact Fourier-Motzkin elimination for small integer halfspace systems.

An inequality is a pair (coeffs, rhs) of ints meaning coeffs . x >= rhs.
Used to certify strictly positive grading functionals and to slice lattice
polytopes.

Each step combines every pair of opposite-signed inequalities, so the
stages grow quadratically per step and doubly exponentially overall, most
of them redundant.  Chernikov's rule prunes them: every inequality
carries the set of original inequalities it was combined from, and once
k variables are eliminated a combination of more than k + 1 of them is
implied by the others and dropped (Chernikov, "The convolution of finite
systems of linear inequalities", 1965; Kohler, 1967).  Where
deduplication meets one inequality twice it keeps the smaller set.  Only
redundant inequalities go, so every projection, and with it every
feasible point, lattice count and unboundedness message, is unchanged.

Elimination stays in the integers: each combined inequality is divided
by the gcd of its coefficients and right-hand side, the one primitive
representative of its class of positive multiples, which is also what
deduplication compares.  Only the bounds read off during back
substitution are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

Inequality = tuple[tuple[int, ...], int]


def _eliminate_last(ineqs: dict[Inequality, int], limit: int) -> dict[Inequality, int]:
    """Eliminate the last variable from ``ineqs``, each mapped to the set
    of original inequalities it combines, as a bitmask of their indices;
    a combination of more than ``limit`` of them is dropped (Chernikov's
    rule)."""
    pos, neg, keep = [], [], []
    for (coeffs, rhs), sources in ineqs.items():
        c = coeffs[-1]
        if c > 0:
            pos.append((coeffs, rhs, sources))
        elif c < 0:
            neg.append((coeffs, rhs, sources))
        else:
            keep.append((coeffs[:-1], rhs, sources))
    for pc, pr, ps in pos:
        cp = pc[-1]
        for nc, nr, ns in neg:
            sources = ps | ns
            if sources.bit_count() > limit:
                continue
            cn = -nc[-1]
            keep.append((tuple(cn * a + cp * b for a, b in zip(pc[:-1], nc[:-1])), cn * pr + cp * nr, sources))
    out: dict[Inequality, int] = {}
    for coeffs, rhs, sources in keep:
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs, rhs = tuple(a // g for a in coeffs), rhs // g
        seen = out.get((coeffs, rhs))
        if seen is None or sources.bit_count() < seen.bit_count():
            out[coeffs, rhs] = sources
    return out


def _projections(ineqs: list[Inequality], nvars: int) -> list[list[Inequality]]:
    """The Fourier-Motzkin stages: entry k is the projection of the system
    onto its first nvars - k variables, so entry nvars holds constants."""
    stages = [list(ineqs)]
    current: dict[Inequality, int] = {}
    for i, ineq in enumerate(ineqs):
        current.setdefault(ineq, 1 << i)
    for k in range(1, nvars + 1):
        current = _eliminate_last(current, k + 1)
        stages.append(list(current))
    return stages


def feasible_point(ineqs: list[Inequality], nvars: int) -> tuple[Fraction, ...] | None:
    """Some rational x with coeffs . x >= rhs for all inequalities, else None."""
    stages = _projections(ineqs, nvars)
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


def count_integer_points(ineqs: list[Inequality], nvars: int) -> int:
    """The number of integer x with coeffs . x >= rhs for all inequalities.

    Stage nvars-1-k projects onto coordinates 0..k, so on a slice with
    coordinates 0..k-1 fixed its inequalities give coordinate k's integer
    interval; one without coordinate k is carried to a later stage and
    checked there.  Only points of the projections are visited, and the
    last interval is counted, not walked.  ``ValueError`` when the
    polyhedron is nonempty and unbounded.
    """
    stages = _projections(ineqs, nvars)
    if any(rhs > 0 for _, rhs in stages[-1]):
        return 0
    # A nonempty polyhedron is bounded iff every stage bounds its last
    # coordinate on both sides; the first stage that does not names the
    # first unbounded coordinate.
    levels = []
    for k in range(nvars):
        stage = [(coeffs[:k], coeffs[k], rhs) for coeffs, rhs in stages[nvars - 1 - k]]
        lower, upper = [q for q in stage if q[1] > 0], [q for q in stage if q[1] < 0]
        if not (lower and upper):
            raise ValueError(f"polytope is unbounded in coordinate {k}")
        levels.append((lower, upper))

    def count(k: int, point: tuple[int, ...]) -> int:
        # c x_k >= rhs - prefix . point: a ceiling for c > 0, a floor for c < 0
        lower, upper = levels[k]
        lo = max(-((sum(map(mul, prefix, point)) - rhs) // c) for prefix, c, rhs in lower)
        hi = min((rhs - sum(map(mul, prefix, point))) // c for prefix, c, rhs in upper)
        if k == nvars - 1:
            return max(0, hi - lo + 1)
        return sum(count(k + 1, point + (x,)) for x in range(lo, hi + 1))

    return count(0, ())
