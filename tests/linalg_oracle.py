"""Dense rational Gauss-Jordan: the reference the sparse solver is tested against."""

from __future__ import annotations

from fractions import Fraction


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
