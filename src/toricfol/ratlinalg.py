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

The elimination is fraction-free and reads the rows alone.  Each row is
scaled to integers by the lcm of its denominators; eliminating column c
from row i by the pivot row replaces row_i with (p/g) row_i - (a/g) prow,
where a and p are the entries of the two rows in c and g = gcd(a, p),
and then divides row i by its own content.  Every such row is a nonzero
multiple of the row a ``Fraction`` elimination would hold at the same
step, so the pattern of zeros is the same, and with it the sparsest-row
pivot, its tie-break and the pivot columns.  The right-hand side takes
no part in these choices: with it or without it, the content divides
the row by a positive factor, which keeps its pattern.

``Elimination`` records every row update and pivot row, and its
``solve`` applies them to a right-hand side, whose values stay ints or
``Fraction``s, then back-substitutes.  With the free unknowns at zero
the particular solution is unique, so it is the vector the ``Fraction``
elimination returns.  Every division is ``poly.exact_div``, since ``/``
on two ints gives a float, and each unknown is canonical, as the
polynomial kernel keeps coefficients: an ``int`` when it is integral,
else a ``Fraction``.

A row whose entries are all ``int`` is already its own integer scaling,
so it is stored as read, with its zeros dropped, and skips the lcm of
the denominators.  The Koszul rows are such rows, since the polynomial
kernel keeps integral coefficients as ints.  Every entry is still
checked for its column range and its type, and the row is copied, never
aliased.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import Coefficient, exact_div


def _exact(v) -> bool:
    """An int or a Fraction; a bool is refused, though Python counts it an int."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


class Elimination:
    """A row system eliminated once, for any number of right-hand sides.

    ``updates`` holds each row operation (i, p, s, t, content), row i
    becoming (s row_i - t row_p) / content; ``pivots`` holds (column,
    pivot, rest of the pivot row, its row index).  Solves change nothing.
    """

    __slots__ = ("nrows", "ncols", "scales", "updates", "pivots", "dead")

    def __init__(self, rows: list[dict[int, int | Fraction]], ncols: int):
        live: dict[int, dict[int, int]] = {}
        self.nrows, self.ncols = len(rows), ncols
        self.scales: dict[int, int] = {}  # row -> the lcm that cleared its denominators
        hits: list[set[int]] = [set() for _ in range(ncols)]  # column -> live rows reaching it
        for i, row in enumerate(rows):
            entries = {}
            integral = True
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
            if integral:  # already the integer row: entries is a fresh dict
                live[i] = entries
                continue
            den = self.scales[i] = lcm(*(v.denominator for v in entries.values()))
            live[i] = {c: v.numerator * (den // v.denominator) for c, v in entries.items()}

        # A live row never reaches a column already eliminated, so a pivot
        # row only has entries in its own column and later ones.
        self.updates: list[tuple[int, int, int, int, int]] = []
        self.pivots: list[tuple[int, int, tuple[tuple[int, int], ...], int]] = []
        for c in range(ncols):
            if not hits[c]:
                continue
            p = min(hits[c], key=lambda i: (len(live[i]), i))
            prow = live.pop(p)
            for cc in prow:
                hits[cc].discard(p)
            pivot = prow.pop(c)
            for i in hits[c]:
                row = live[i]
                a = row.pop(c)
                g = gcd(a, pivot)
                s, t = pivot // g, a // g  # row_i <- s * row_i - t * prow
                if s != 1:
                    for cc in row:
                        row[cc] *= s
                for cc, v in prow.items():
                    new = row.get(cc, 0) - t * v
                    if new:
                        if cc not in row:
                            hits[cc].add(i)
                        row[cc] = new
                    elif cc in row:
                        del row[cc]
                        hits[cc].discard(i)
                content = gcd(*row.values()) or 1  # gcd() is 0 on an emptied row
                if content > 1:
                    for cc in row:
                        row[cc] //= content
                self.updates.append((i, p, s, t, content))
            self.pivots.append((c, pivot, tuple(prow.items()), p))
        self.dead = tuple(live)  # every live row is now empty

    def solve(self, rhs: list[int | Fraction]) -> list[Coefficient] | None:
        """As ``solve_sparse``, with the rows of this elimination."""
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        if not {int}.issuperset(map(type, rhs)):
            for value in rhs:
                if not _exact(value):
                    raise TypeError(f"right-hand side {value!r} is neither an int nor a Fraction")
        b: list[Coefficient] = list(rhs)
        for i, den in self.scales.items():
            b[i] *= den
        for i, p, s, t, content in self.updates:
            bi, bp = b[i], b[p]
            if bi or bp:
                b[i] = s * bi - t * bp if content == 1 else exact_div(s * bi - t * bp, content)
        if any(b[i] for i in self.dead):
            return None
        x: list[Coefficient] = [0] * self.ncols
        for c, pivot, prow, p in reversed(self.pivots):
            value = b[p]
            for cc, v in prow:
                if x[cc]:
                    value -= v * x[cc]
            x[c] = exact_div(value, pivot)
        return x


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
    inconsistent.  A caller with several right-hand sides for one system
    builds its ``Elimination`` once instead.
    """
    return Elimination(rows, ncols).solve(rhs)
