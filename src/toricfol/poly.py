"""Sparse multivariate polynomials over exact rationals.

A monomial is an exponent tuple; a polynomial maps exponent tuples to
nonzero exact rational coefficients in canonical form: an ``int`` when
the coefficient is integral, a ``Fraction`` only when its denominator is
not 1.  Integer inputs thus never pay for ``Fraction`` arithmetic, and
``exact_div`` is the one place where a coefficient is divided.  The
canonical term order (for printing, leading terms and division) is
graded reverse lexicographic on the raw exponents, independent of any
toric grading, with ``heap_key`` its one key.  While every exponent of
every factor is below 128, ``sum_of_products`` sums a monomial as the int
whose little-endian byte j is exponent j: no byte of a product reaches
256, so the key of a product is the sum of the keys.  ``divide_exact``
returns the zero quotient of a zero numerator before any lead search.
A polynomial takes all of its partials on the first request and keeps
them, so X(f) and the Jacobian checks of one f share them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, index, le, sub
from typing import Iterable, Mapping

Exponents = tuple[int, ...]
Coefficient = int | Fraction  # canonical: a Fraction never has denominator 1


def heap_key(m: Exponents):
    """The grevlex order reversed, as a flat tuple: ascending in this key is
    descending in the term order, so a min-heap pops the leading monomial."""
    return (-sum(m),) + m[::-1]


def _exact_coefficient(c) -> Coefficient:
    """c as a canonical exact coefficient; a float or complex is refused, not rounded."""
    if type(c) is int:
        return c
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact coefficient {c!r}; use an int or a Fraction")
    return _canonical(Fraction(c))


def _canonical(c: Coefficient) -> Coefficient:
    """An exact rational as an int when it is integral, else as the Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def exact_div(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b in canonical form.  On two ints ``/`` would give a float, so
    their quotient comes from ``divmod`` and is a Fraction only when the
    remainder is not zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canonical(a / b)


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _packed(terms: dict[Exponents, Coefficient], high: int) -> list[tuple[int, Coefficient]] | None:
    """The terms under their byte keys, or None when an exponent reaches 128,
    which sets a bit of ``high``, or 256, which ``int.from_bytes`` refuses."""
    out = []
    try:
        for m, c in terms.items():
            k = int.from_bytes(m, "little")
            if k & high:
                return None
            out.append((k, c))
    except ValueError:  # an exponent of 256 or more, or a negative one
        return None
    return out


def sum_of_products(nvars: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
    """The sum of a * b over the pairs, in one dict of exact sums, keyed by
    bytes when every factor packs and by exponent tuples otherwise; terms
    come in the order of the pairs, then of a's terms, then of b's."""
    factors = [(a.terms, b.terms) for a, b in pairs]
    high = int.from_bytes(b"\x80" * nvars, "little")
    packed = [(_packed(a, high), _packed(b, high)) for a, b in factors]
    sums: dict = {}
    if all(a is not None and b is not None for a, b in packed):
        for a, b in packed:
            for k1, c1 in a:
                for k2, c2 in b:
                    k = k1 + k2
                    old = sums.get(k)
                    sums[k] = c1 * c2 if old is None else old + c1 * c2
        return Polynomial._trusted(
            nvars, {tuple(k.to_bytes(nvars, "little")): _canonical(c) for k, c in sums.items() if c}
        )
    for a, b in factors:
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = monomial_mul(m1, m2)
                old = sums.get(m)
                sums[m] = c1 * c2 if old is None else old + c1 * c2
    return Polynomial._from_sums(nvars, sums)


class Polynomial:
    """Immutable sparse polynomial with canonical exact coefficients: an
    int when integral, else a Fraction.  The constructor accepts any int,
    Fraction or other exact rational and refuses floats."""

    __slots__ = ("nvars", "terms", "_partials")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coefficient] | None = None):
        clean: dict[Exponents, Coefficient] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"exponent tuple {m} does not have {nvars} entries")
                c = _exact_coefficient(c)
                if c:
                    clean[tuple(map(index, m))] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Coefficient]) -> "Polynomial":
        """A polynomial that owns ``terms`` as given, without re-validation.

        Only for results the class builds itself, whose keys are already
        int tuples of length nvars and whose values are nonzero and
        canonical.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def _from_sums(cls, nvars: int, sums: dict[Exponents, Coefficient]) -> "Polynomial":
        """A polynomial from exact sums the caller accumulated on trusted
        keys: zeros are dropped and each coefficient is made canonical once."""
        return cls._trusted(nvars, {m: _canonical(c) for m, c in sums.items() if c})

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, j: int, power: int = 1, coeff=1) -> "Polynomial":
        if not 0 <= j < nvars:
            raise IndexError(f"variable index {j} out of range")
        m = tuple(power if i == j else 0 for i in range(nvars))
        return cls(nvars, {m: coeff})

    @classmethod
    def monomial(cls, exponents: Iterable[int], coeff=1) -> "Polynomial":
        m = tuple(exponents)
        return cls(len(m), {m: coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        return sorted(self.terms.items(), key=lambda t: heap_key(t[0]))

    def leading_term(self) -> tuple[Exponents, Coefficient]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=heap_key)
        return m, self.terms[m]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            old = terms.get(m)
            if old is None:
                terms[m] = c
                continue
            s = old + c
            if s:
                terms[m] = _canonical(s)
            else:
                del terms[m]
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return sum_of_products(self.nvars, ((self, other),))

    def scale(self, c) -> "Polynomial":
        c = _exact_coefficient(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._trusted(
            self.nvars, {m: _canonical(c * v) for m, v in self.terms.items()}
        )

    def mul_monomial(self, exponents: Exponents, coeff=1) -> "Polynomial":
        if len(exponents) != self.nvars:
            raise ValueError(f"exponent tuple {exponents} does not have {self.nvars} entries")
        shift = tuple(map(index, exponents))
        c = _exact_coefficient(coeff)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._trusted(
            self.nvars, {monomial_mul(m, shift): _canonical(c * v) for m, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term()
        return self.scale(exact_div(1, c))

    def partial_derivative(self, j: int) -> "Polynomial":
        if not 0 <= j < self.nvars:
            raise IndexError(f"variable index {j} out of range")
        return self.partials()[j]

    def partials(self) -> tuple["Polynomial", ...]:
        """(df/dz_0, ..., df/dz_(n-1)), computed on the first request and
        kept in a slot: the polynomial is immutable, so every caller that
        asks for its partials shares one tuple."""
        try:
            return self._partials
        except AttributeError:
            pass
        out = []
        for j in range(self.nvars):
            # m -> m - e_j is injective, so each term is assigned exactly once.
            terms: dict[Exponents, Coefficient] = {}
            for m, c in self.terms.items():
                if m[j]:
                    terms[m[:j] + (m[j] - 1,) + m[j + 1 :]] = _canonical(c * m[j])
            out.append(Polynomial._trusted(self.nvars, terms))
        object.__setattr__(self, "_partials", tuple(out))
        return self._partials

    def evaluate(self, point) -> Fraction:
        """Exact value at a point of int or Fraction coordinates."""
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        for v in point:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"cannot evaluate exactly at {type(v).__name__} {v!r}")
        total = Fraction(0)
        for m, c in self.terms.items():
            factor = c
            for v, e in zip(point, m):
                if e:
                    factor = factor * v**e
            total += factor
        return total

    # -- division ----------------------------------------------------------

    def divide_exact(self, den: "Polynomial") -> "Polynomial | None":
        """Quotient q with self == q * den, or None when den does not divide.

        Leading-term division is complete here: when rem is a multiple of
        den, the leading term of rem is divisible by the leading term of
        den under any monomial order, so a single failed step certifies
        non-divisibility.
        """
        quotient, remainder = self._divide(den)
        return None if remainder else quotient

    def _divide(self, den: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(q, r) with self == q * den + r, from the division loop behind
        ``divide_exact``: r is zero when den divides, and otherwise what
        is left of self when the loop stops, its leading monomial the
        first one that the leading monomial of den does not divide.

        What is left of self sits in a term dict whose monomials are
        pushed once each on a heap ordered by ``heap_key``; a cancelled
        monomial stays in the dict at zero until it is popped.  Each
        popped coefficient is put in canonical form, and each quotient
        coefficient comes from ``exact_div``, so the quotient is
        canonical.  Groebner division, by many divisors at once, runs in
        ``groebner.divide_terms`` on packed monomials instead: a one-off
        division by one divisor reuses no monomial, and packing would
        cost more than it saves.
        """
        self._check(den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return self, self  # 0 = 0 * den + 0
        lead, lc = den.leading_term()
        tail = [(m, c) for m, c in den.terms.items() if m != lead]
        terms = dict(self.terms)
        heap = [(heap_key(m), m) for m in terms]
        heapify(heap)
        quotient: dict[Exponents, Coefficient] = {}
        while heap:
            m = heappop(heap)[1]
            c = terms.pop(m)
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            if not c:
                continue
            if not monomial_divides(lead, m):
                terms[m] = c
                break
            shift = monomial_div(m, lead)
            q = quotient[shift] = exact_div(c, lc)
            for t, tc in tail:
                t = monomial_mul(t, shift)
                old = terms.get(t)
                if old is None:
                    terms[t] = -q * tc
                    heappush(heap, (heap_key(t), t))
                else:
                    terms[t] = old - q * tc
        return Polynomial._trusted(self.nvars, quotient), Polynomial._from_sums(self.nvars, terms)

    # -- printing ----------------------------------------------------------

    def to_string(self, names: list[str] | tuple[str, ...]) -> str:
        if len(names) != self.nvars:
            raise ValueError("name list length mismatch")
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            factors = [
                names[j] if e == 1 else f"{names[j]}^{e}" for j, e in enumerate(m) if e
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        generic = [f"x{i}" for i in range(self.nvars)]
        return f"Polynomial({self.to_string(generic)})"
