"""Dense rational Gauss-Jordan, Fraction Fourier-Motzkin, the box walk of
integer points and the gcds of all k x k minors: the references the sparse
solver, the integer halfspace elimination, the slice-wise count and the
Smith normal form are tested against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd

from toricfol.intlinalg import IntMatrix


def solve_dense(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """A particular solution of rows . x = rhs with free variables at zero.

    Returns None when the system is inconsistent.  Deterministic: pivots
    are chosen as the first row with a nonzero entry in column order.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    m = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][-1]:
            return None
    x = [Fraction(0)] * ncols
    for prow, pcol in pivots:
        x[pcol] = m[prow][-1]
    return x


def _fm_normalize(ineq):
    coeffs, rhs = ineq
    scale = sum(abs(c) for c in coeffs) or abs(rhs) or Fraction(1)
    return tuple(c / scale for c in coeffs), rhs / scale


def _fm_eliminate_last(ineqs):
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
        for nc, nr in neg:
            cp, cn = pc[-1], nc[-1]
            coeffs = tuple(-cn * a + cp * b for a, b in zip(pc[:-1], nc[:-1]))
            keep.append((coeffs, -cn * pr + cp * nr))
    return list(dict.fromkeys(_fm_normalize(q) for q in keep))


def fm_feasible_point(ineqs, nvars: int) -> tuple[Fraction, ...] | None:
    """Fourier-Motzkin on Fractions, each inequality scaled to unit L1 norm:
    the reference ``halfspaces.feasible_point`` is tested against."""
    stages = [[(tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in ineqs]]
    for _ in range(nvars):
        stages.append(_fm_eliminate_last(stages[-1]))
    if any(rhs > 0 for _, rhs in stages[-1]):
        return None
    point: list[Fraction] = []
    for k in range(1, nvars + 1):
        lo, hi = None, None
        for coeffs, rhs in stages[nvars - k]:
            c = coeffs[k - 1]
            if c == 0:
                continue
            bound = (rhs - sum(a * v for a, v in zip(coeffs, point))) / c
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


def fm_coordinate_interval(ineqs, nvars: int, coord: int):
    """(feasible, lower, upper) of one coordinate by Fraction Fourier-Motzkin:
    the reference for ``halfspaces.coordinate_interval``."""
    perm = [coord] + [j for j in range(nvars) if j != coord]
    system = [
        (tuple(Fraction(coeffs[j]) for j in perm), Fraction(rhs)) for coeffs, rhs in ineqs
    ]
    for _ in range(nvars - 1):
        system = _fm_eliminate_last(system)
    lo, hi = None, None
    for coeffs, rhs in system:
        c = coeffs[0]
        if c == 0:
            if rhs > 0:
                return False, None, None
        elif c > 0:
            b = rhs / c
            lo = b if lo is None else max(lo, b)
        else:
            b = rhs / c
            hi = b if hi is None else min(hi, b)
    if lo is not None and hi is not None and lo > hi:
        return False, None, None
    return True, lo, hi


def box_count(ineqs, nvars: int) -> int:
    """Integer points of coeffs . x >= rhs by brute force over the exact
    bounding box, each coordinate's interval by ``fm_coordinate_interval``.
    ``ValueError`` names the first unbounded coordinate of a nonempty
    polyhedron."""
    box = []
    for i in range(nvars):
        feasible, lo, hi = fm_coordinate_interval(ineqs, nvars, i)
        if not feasible:
            return 0
        if lo is None or hi is None:
            raise ValueError(f"polytope is unbounded in coordinate {i}")
        box.append(range(ceil(lo), floor(hi) + 1))
    return sum(
        all(sum(a * x for a, x in zip(coeffs, point)) >= rhs for coeffs, rhs in ineqs)
        for point in product(*box)
    )


def minor_gcds(a: IntMatrix) -> list[int]:
    """gcd of all k x k minors, k = 1..min(rows, cols); brute-force oracle."""
    out = []
    k_max = min(a.rows, a.cols)
    for k in range(1, k_max + 1):
        g = 0
        for ri in combinations(range(a.rows), k):
            for ci in combinations(range(a.cols), k):
                g = gcd(g, IntMatrix.from_rows([[a.entries[i][j] for j in ci] for i in ri]).det())
        out.append(g)
    return out
