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

The elimination is fraction-free.  Each row and its right-hand side are
scaled to integers by the lcm of their denominators; eliminating column
c from row i by the pivot row replaces row_i with
(p/g) row_i - (a/g) prow, where a and p are the entries of the two rows
in c and g = gcd(a, p), and then divides row i and its right-hand side
by their content.  Every such row is a nonzero multiple of the row a
``Fraction`` elimination would hold at the same step, so the pattern of
zeros is the same, and with it the sparsest-row pivot, its tie-break and
the pivot columns; the particular solution is unique, so it is the same
vector too.  Only the back-substitution divides, with ``poly.exact_div``:
its pivots are ints, and so is the right-hand side less the known terms
when no later unknown is nonzero, where ``/`` would give a float.  Each
unknown is canonical, as the polynomial kernel keeps coefficients: an
``int`` when it is integral, else a ``Fraction``.

A row whose entries and right-hand side are all ``int`` is already its
own integer scaling, so it is stored as read, with its zeros dropped,
and skips the lcm of the denominators.  The Koszul rows are such rows,
since the polynomial kernel keeps integral coefficients as ints.  Every
entry is still checked for its column range and its type, and the row
is copied, never aliased.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import Coefficient, exact_div


def _exact(v) -> bool:
    """An int or a Fraction; a bool is refused, though Python counts it an int."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def solve_sparse(
    rows: list[dict[int, int | Fraction]], rhs: list[int | Fraction], ncols: int
) -> list[Coefficient] | None:
    """A particular solution of rows . x = rhs with free unknowns at zero.

    ``rows[i]`` maps a column in ``range(ncols)`` to its coefficient;
    absent columns and explicit zeros are zero.  Every coefficient and
    right-hand side must be an ``int`` or a ``Fraction``, not a ``bool``
    (``TypeError`` otherwise).  Every entry returned is canonical: an
    ``int`` when it is integral, else a ``Fraction``, never a float.
    The caller's dicts are not modified.  Returns None when the system is
    inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    live: dict[int, dict[int, int]] = {}
    b: list[int] = []
    hits: list[set[int]] = [set() for _ in range(ncols)]  # column -> live rows reaching it
    for i, (row, value) in enumerate(zip(rows, rhs)):
        entries = {}
        integral = type(value) is int
        for c, v in row.items():
            if not 0 <= c < ncols:
                raise ValueError(f"column {c} outside range({ncols})")
            if type(v) is not int:
                if not _exact(v):
                    raise TypeError(f"coefficient {v!r} is neither an int nor a Fraction")
                integral = False
            if v:
                entries[c] = v
                hits[c].add(i)
        if type(value) is not int and not _exact(value):
            raise TypeError(f"right-hand side {value!r} is neither an int nor a Fraction")
        if integral:  # already the integer row: entries is a fresh dict
            live[i] = entries
            b.append(value)
            continue
        den = lcm(value.denominator, *(v.denominator for v in entries.values()))
        live[i] = {c: v.numerator * (den // v.denominator) for c, v in entries.items()}
        b.append(value.numerator * (den // value.denominator))

    # A live row never reaches a column already eliminated, so a pivot
    # row only has entries in its own column and later ones.
    pivots: list[tuple[int, int, dict[int, int], int]] = []
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
            a = row.pop(c)
            g = gcd(a, pivot)
            s, t = pivot // g, a // g  # row_i <- s * row_i - t * prow
            if s != 1:
                for cc in row:
                    row[cc] *= s
                b[i] *= s
            for cc, v in prow.items():
                new = row.get(cc, 0) - t * v
                if new:
                    if cc not in row:
                        hits[cc].add(i)
                    row[cc] = new
                elif cc in row:
                    del row[cc]
                    hits[cc].discard(i)
            if bp:
                b[i] -= t * bp
            content = gcd(b[i], *row.values())
            if content > 1:
                for cc in row:
                    row[cc] //= content
                b[i] //= content
        pivots.append((c, pivot, prow, bp))

    # Every live row is now empty, so its right-hand side must vanish.
    if any(b[i] for i in live):
        return None
    x: list[Coefficient] = [0] * ncols
    for c, pivot, prow, bp in reversed(pivots):
        x[c] = exact_div(bp - sum(v * x[cc] for cc, v in prow.items() if x[cc]), pivot)
    return x
