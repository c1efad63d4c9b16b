"""Exact integer linear algebra: determinants, Smith normal form, cokernels.

Everything here runs on arbitrary-precision Python ints; no floats are
ever produced.  The Smith normal form is the workhorse behind divisor
class groups (cokernels of ray pairing matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import index


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for row in self.entries:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"integer entries required, got {type(x).__name__}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def _trusted(cls, entries) -> "IntMatrix":
        """The matrix of these rows as given, without re-validation: only for
        a tuple of equally long tuples of ints."""
        m = object.__new__(cls)
        m.__dict__["entries"] = entries
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(map(index, row)) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix-vector product."""
        if self.cols != len(vec):
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def det(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss(self.entries)

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _bareiss(rows) -> int:
    """Determinant of a square matrix given as rows of ints, fraction-free."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal, d_1 | d_2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(k))


def _pivot(m: list[list[int]], start: int, rows: int, cols: int):
    """Deterministic pivot: smallest nonzero |entry|, ties by lowest row then column."""
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            e = abs(m[i][j])
            if e and (best is None or e < best[0]):
                best = (e, i, j)
                if e == 1:
                    return best[1], best[2]
    return (best[1], best[2]) if best else None


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over Z with transforms.

    Returns (U, D, V) with U*A*V = D, |det U| = |det V| = 1, D diagonal
    with nonnegative entries in a divisibility chain.  Deterministic for
    a given input (fixed pivot rule, no randomization).
    """
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, k):
        if i != k:
            m[i], m[k] = m[k], m[i]
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        if j != k:
            for row in m:
                row[j], row[k] = row[k], row[j]
            for row in v:
                row[j], row[k] = row[k], row[j]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        for j in range(cols):
            m[dst][j] += q * m[src][j]
        for j in range(rows):
            u[dst][j] += q * u[src][j]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        loc = _pivot(m, t, rows, cols)
        if loc is None:
            break
        swap_rows(loc[0], t)
        swap_cols(loc[1], t)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders survive; re-pivot on the smaller entry
        # Divisibility repair: fold any entry the pivot misses back into column t.
        bad = None
        p = m[t][t]
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    return SmithDecomposition(
        u=IntMatrix._trusted(tuple(map(tuple, u))),
        d=IntMatrix._trusted(tuple(map(tuple, m))),
        v=IntMatrix._trusted(tuple(map(tuple, v))),
    )


def minor_gcds(a: IntMatrix) -> list[int]:
    """gcd of all k x k minors, k = 1..min(rows, cols); brute-force oracle."""
    out = []
    k_max = min(a.rows, a.cols)
    for k in range(1, k_max + 1):
        g = 0
        for ri in combinations(range(a.rows), k):
            for ci in combinations(range(a.cols), k):
                g = gcd(g, _bareiss([[a.entries[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """Cokernel Z^N / image(A) in invariant-factor form.

    rank        free rank r
    torsion     invariant factors t_1 | t_2 | ... (each >= 2)
    projector   (r + m) x N integer matrix; the first r rows send a vector
                of Z^N to its free coordinates, the last m rows to the
                torsion coordinates prior to reduction mod t_i.
    """

    rank: int
    torsion: tuple[int, ...]
    projector: IntMatrix

    def reduce(self, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Class of an integer vector: (free part, torsion residues in [0, t_i))."""
        vec = tuple(vec)
        if self.projector.rows == 0:
            return (), ()
        img = self.projector.apply(vec)
        free = img[: self.rank]
        residues = tuple(x % t for x, t in zip(img[self.rank :], self.torsion))
        return free, residues

    def primary_form(self) -> tuple[tuple[int, int], ...]:
        """Torsion as prime powers (p, p^lambda), for display."""
        out = []
        for t in self.torsion:
            for p, k in _factorize(t):
                out.append((p, p**k))
        return tuple(sorted(out))

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{q}" for _, q in self.primary_form())
        return " + ".join(parts) if parts else "0"


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def cokernel(a: IntMatrix) -> AbelianGroupPresentation:
    """Presentation of Z^rows / image(A), A acting on column vectors.

    For a ray pairing matrix (one row per ray, one column per lattice
    basis vector) this is the Weil divisor class group, and column j of the
    projector, its torsion entries read mod t_k, is the multidegree of the
    j-th variable.
    """
    n = a.rows
    snf = smith_normal_form(a)
    factors = snf.invariant_factors()
    tors_rows = [i for i, d in enumerate(factors) if d >= 2]
    free_rows = [i for i, d in enumerate(factors) if d == 0] + list(range(len(factors), n))
    proj = tuple(snf.u.entries[i] for i in free_rows + tors_rows)
    return AbelianGroupPresentation(
        rank=len(free_rows),
        torsion=tuple(factors[i] for i in tors_rows),
        projector=IntMatrix._trusted(proj) if proj else IntMatrix.zero(0, n),
    )
