"""Sparse exact rational linear solving.

The one linear solver of the package.  Rows are ``{column: value}``
dicts, so a system with a few nonzeros per row, such as the Koszul
pair-coefficient system, costs time in its nonzeros and fill-in rather
than in rows x columns.  The elimination is structured in the sense of
LaMacchia & Odlyzko (CRYPTO '90): columns are taken in order and each
is pivoted on the sparsest live row that still reaches it.

Taking columns in order makes the pivot columns the leftmost
independent ones, whichever row supplies each pivot.  The particular
solution with every other unknown at zero is therefore the same vector
a dense Gauss-Jordan in column order returns; the dense version is kept
as the test oracle in ``tests/linalg_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction


def solve_sparse(
    rows: list[dict[int, Fraction]], rhs: list[Fraction], ncols: int
) -> list[Fraction] | None:
    """A particular solution of rows . x = rhs with free unknowns at zero.

    ``rows[i]`` maps a column in ``range(ncols)`` to its coefficient;
    absent columns and explicit zeros are zero.  The caller's dicts are
    not modified.  Returns None when the system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    live: dict[int, dict[int, Fraction]] = {}
    b: list[Fraction] = []
    hits: list[set[int]] = [set() for _ in range(ncols)]  # column -> live rows reaching it
    for i, (row, value) in enumerate(zip(rows, rhs)):
        entries = {}
        for c, v in row.items():
            if not 0 <= c < ncols:
                raise ValueError(f"column {c} outside range({ncols})")
            if v:
                entries[c] = Fraction(v)
                hits[c].add(i)
        live[i] = entries
        b.append(Fraction(value))

    # A live row never reaches a column already eliminated, so a pivot
    # row only has entries in its own column and later ones.
    pivots: list[tuple[int, Fraction, dict[int, Fraction], Fraction]] = []
    for c in range(ncols):
        if not hits[c]:
            continue
        p = min(hits[c], key=lambda i: (len(live[i]), i))
        prow = live.pop(p)
        for cc in prow:
            hits[cc].discard(p)
        pivot = prow.pop(c)
        bp = b[p]
        for i in hits[c]:
            row = live[i]
            factor = row.pop(c) / pivot
            for cc, v in prow.items():
                new = row.get(cc, 0) - factor * v
                if new:
                    if cc not in row:
                        hits[cc].add(i)
                    row[cc] = new
                elif cc in row:
                    del row[cc]
                    hits[cc].discard(i)
            if bp:
                b[i] -= factor * bp
        pivots.append((c, pivot, prow, bp))

    # Every live row is now empty, so its right-hand side must vanish.
    if any(b[i] for i in live):
        return None
    x = [Fraction(0)] * ncols
    for c, pivot, prow, bp in reversed(pivots):
        x[c] = (bp - sum(v * x[cc] for cc, v in prow.items() if x[cc])) / pivot
    return x
