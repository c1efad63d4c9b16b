"""Sparse multivariate polynomials over exact rationals.

A polynomial maps exponent tuples, its public ``terms`` view, to nonzero
exact rational coefficients in canonical form: an ``int`` when the
coefficient is integral, a ``Fraction`` only when its denominator is not
1.  Integer inputs thus never pay for ``Fraction`` arithmetic, and
``exact_div`` is the one place where a coefficient is divided.  The term
order (for printing, leading terms and division) is graded reverse
lexicographic on the raw exponents, independent of any toric grading.
A polynomial takes all of its partials on the first request and keeps
them, so X(f) and the Jacobian checks of one f share them.

Products, divisions and the term order run on one packed layout, the
heap layout of Monagan & Pearce, "Sparse polynomial division using a
heap" (J. Symb. Comput. 46, 2011).  In a ``Layout`` of B bits, exponent
j gets a B-bit field at bit j*B whose top bit is a guard, so e_(n-1) is
highest; the total degree d sits above the fields, at S = n*B, and the
key is ``fields - (d << S)``.  While every exponent stays below 2^(B-1):

- the key of a product is the sum of the keys, and of a quotient the
  difference;
- a smaller key is a larger monomial in grevlex: a higher degree first,
  then a smaller e_(n-1), then a smaller e_(n-2), and so on; so the
  smallest key is the lead, and a min-heap of keys pops the leading term;
- a divides b exactly when ``(key_b - key_a) & GUARD`` is zero, GUARD
  being the guard bits: the degree term is a multiple of 2^S, and the
  lowest field with e_b < e_a borrows and sets its guard bit.

A layout holds every monomial of total degree below 2^(B-1).  Layouts
start at B = 8, where a pack or an unpack is one ``int.from_bytes`` or
``to_bytes`` call, and widen by doubling B.  A polynomial keeps the keys
of the product or division that made it, or packs itself once in the
narrowest layout that holds it.  ``sum_of_products`` adds those keys,
and ``divide_terms``, the one division loop, divides them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from operator import add, index, mul
from typing import Iterable, Mapping, NamedTuple, TypeVar

Exponents = tuple[int, ...]
Coefficient = int | Fraction  # canonical: a Fraction never has denominator 1
V = TypeVar("V")


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


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


class Layout:
    """Exponent tuples of one length packed into ints, ``bits`` bits per
    exponent, as the module docstring describes."""

    __slots__ = ("nvars", "bits", "limit", "shift", "mask", "guard", "weights")

    def __init__(self, nvars: int, bits: int):
        self.nvars = nvars
        self.bits = bits
        self.limit = 1 << (bits - 1)  # every exponent stays below
        self.shift = nvars * bits
        self.mask = (1 << self.shift) - 1  # the fields
        offsets = range(0, self.shift, bits)
        self.guard = sum(self.limit << o for o in offsets)
        # e_j adds 1 to field j and takes 1 from the negated degree
        self.weights = [(1 << o) - (1 << self.shift) for o in offsets]

    def pack(self, terms: Mapping[Exponents, V]) -> dict[int, V]:
        """The dict with each exponent tuple replaced by its key, in order;
        at 8 bits an exponent of 256 or more raises ValueError."""
        out, shift, weights = {}, self.shift, self.weights
        if self.bits == 8:
            from_bytes = int.from_bytes
            for m, v in terms.items():
                out[from_bytes(m, "little") - (sum(m) << shift)] = v
        else:
            for m, v in terms.items():
                out[sum(map(mul, m, weights))] = v
        return out

    def unpack(self, keyed: Mapping[int, V]) -> dict[Exponents, V]:
        """The dict with each key replaced by its exponent tuple, in order."""
        out, mask, nvars, bits = {}, self.mask, self.nvars, self.bits
        if bits == 8:
            for k, v in keyed.items():
                out[tuple((k & mask).to_bytes(nvars, "little"))] = v
        else:
            field, offsets = (1 << bits) - 1, range(0, self.shift, bits)
            for k, v in keyed.items():
                out[tuple([(k >> o) & field for o in offsets])] = v
        return out


@cache
def _layout(nvars: int, bits: int) -> Layout:
    """One layout per (nvars, bits), built on first use."""
    return Layout(nvars, bits)


def layout_for(nvars: int, degree: int) -> Layout:
    """The narrowest layout, from 8 bits up by doubling, that holds every
    monomial of total degree at most ``degree``."""
    bits = 8
    while degree >= 1 << (bits - 1):
        bits *= 2
    return _layout(nvars, bits)


class Divisor(NamedTuple):
    """A polynomial as the division loop reads it: packed lead, tail
    monomials and coefficients in parallel lists, and lead coefficient."""

    lead: int
    tail_monos: list[int]
    tail_coeffs: list[Coefficient]
    lc: Coefficient = 1


def divide_terms(
    terms: dict, divisors: list[Divisor], guard: int, modulus: int | None, memo: dict, quotient: dict | None = None
) -> dict:
    """Divide the packed ``terms`` by ``divisors``; return the remainder.

    Each step cancels the leading term of what is left with the first
    divisor whose lead divides it, or moves it to the remainder, which
    so comes out full and in descending order.  ``terms`` is consumed; a
    cancelled monomial stays in it at zero until popped, so each is in
    the heap once.  ``guard`` is the layout's guard mask.  With
    ``modulus`` None the coefficients are exact, made canonical when
    popped; otherwise ints reduced mod that prime when popped, and the
    divisors' tails must be reduced already.

    Every divisor is monic unless ``quotient`` is given: then the one
    exact divisor keeps its lead coefficient, which divides each popped
    coefficient into ``quotient``, and its tail stays as it is, so an
    integral quotient by an integer divisor makes no ``Fraction``.

    ``memo`` maps a popped monomial either to ``(i, shifted)``, its first
    matching divisor and that divisor's tail monomials multiplied up to
    it, or to the number k of leading divisors known not to divide it.  It
    is valid only while ``divisors`` is append-only; a one-off division
    passes a fresh one.
    """
    heap = list(terms)
    heapify(heap)
    rem = {}
    get, push, pop = terms.get, heappush, heappop
    while heap:
        m = pop(heap)
        c = terms.pop(m)
        if modulus:
            c %= modulus
        elif type(c) is not int and c.denominator == 1:
            c = c.numerator
        if not c:
            continue
        hit = memo.get(m, 0)
        if type(hit) is tuple:
            i, shifted = hit
            d = divisors[i]
        else:
            for i in range(hit, len(divisors)):
                d = divisors[i]
                if not (m - d.lead) & guard:
                    break
            else:
                memo[m] = len(divisors)
                rem[m] = c
                continue
            shift = m - d.lead
            shifted = [t + shift for t in d.tail_monos]
            memo[m] = i, shifted
        if quotient is not None:
            c = quotient[m - d.lead] = exact_div(c, d.lc)
        for t, tc in zip(shifted, d.tail_coeffs):
            old = get(t)
            if old is None:
                terms[t] = -c * tc
                push(heap, t)
            else:
                terms[t] = old - c * tc
    return rem


def sum_of_products(nvars: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
    """The sum of a * b over the pairs, in one dict of exact sums keyed in
    the narrowest layout that holds every product, so that the key of a
    product is the sum of its factors' keys; the result keeps those keys.
    Terms come in the order of the pairs, then of a's terms, then of b's."""
    packings = [(a.packed(), b.packed()) for a, b in pairs if a.terms and b.terms]
    layout = layout_for(nvars, max([da + db for (_, _, da), (_, _, db) in packings] or [0]))
    sums: dict = {}
    for (la, a, _), (lb, b, _) in packings:
        b = (b if lb is layout else layout.pack(lb.unpack(b))).items()
        for k1, c1 in (a if la is layout else layout.pack(la.unpack(a))).items():
            for k2, c2 in b:
                k = k1 + k2
                old = sums.get(k)
                sums[k] = c1 * c2 if old is None else old + c1 * c2
    return Polynomial._from_keyed(nvars, layout, sums)


class Polynomial:
    """Immutable sparse polynomial with canonical exact coefficients: an
    int when integral, else a Fraction.  The constructor accepts any int,
    Fraction or other exact rational and refuses floats."""

    __slots__ = ("nvars", "terms", "_partials", "_packing")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coefficient] | None = None):
        clean: dict[Exponents, Coefficient] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"exponent tuple {m} does not have {nvars} entries")
                c = _exact_coefficient(c)
                if c:
                    clean[tuple(map(index, m))] = c
            if nvars and min(map(min, terms)) < 0:  # no layout holds a negative exponent
                raise ValueError(f"negative exponent in {min(terms, key=min)}")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_packing", None)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Coefficient], packing=None) -> "Polynomial":
        """A polynomial that owns ``terms`` as given, without re-validation,
        and ``packing``, when given, as the one ``packed`` would make.

        Only for results the class builds itself, whose keys are already
        int tuples of length nvars and whose values are nonzero and
        canonical.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_packing", packing)
        return p

    @classmethod
    def _from_sums(cls, nvars: int, sums: dict[Exponents, Coefficient]) -> "Polynomial":
        """A polynomial from exact sums the caller accumulated on trusted
        keys: zeros are dropped and each coefficient is made canonical once."""
        return cls._trusted(nvars, {m: _canonical(c) for m, c in sums.items() if c})

    @classmethod
    def _from_keyed(cls, nvars: int, layout: Layout, sums: dict[int, Coefficient]) -> "Polynomial":
        """``_from_sums`` on keys packed in ``layout``, which must hold
        them; the polynomial keeps the keys as its packing."""
        keyed = {k: _canonical(c) for k, c in sums.items() if c}
        return cls._trusted(nvars, layout.unpack(keyed), (layout, keyed, -(min(keyed) >> layout.shift) if keyed else -1))

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

    def packed(self) -> tuple[Layout, dict[int, Coefficient], int]:
        """(layout, terms keyed in it in the order of ``terms``, total
        degree), as the module docstring describes; kept, never changed."""
        packing = self._packing
        if packing is None:
            terms, layout = self.terms, _layout(self.nvars, 8)
            try:  # 8-bit keys hold the degree exactly while every exponent is below 256
                keyed = layout.pack(terms)
                degree = -(min(keyed) >> layout.shift) if keyed else -1
            except ValueError:
                degree = max(map(sum, terms))
            if degree >= layout.limit:
                layout = layout_for(self.nvars, degree)
                keyed = layout.pack(terms)
            packing = layout, keyed, degree
            object.__setattr__(self, "_packing", packing)
        return packing

    def keyed(self, layout: Layout) -> dict[int, Coefficient]:
        """The terms keyed in ``layout``, which must hold them: the kept
        dict when it is in that layout, else a fresh one."""
        own, keyed, _ = self.packed()
        return keyed if own is layout else layout.pack(self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        """The terms in descending term order: ascending packed keys."""
        return [term for _, term in sorted(zip(self.packed()[1], self.terms.items()))]

    def leading_term(self) -> tuple[Exponents, Coefficient]:
        """The term of the smallest packed key."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return min(zip(self.packed()[1], self.terms.items()))[1]

    def total_degree(self) -> int:
        """The degree above the fields of the smallest key; -1 for zero."""
        return self.packed()[2]

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
        if min(shift, default=0) < 0:
            raise ValueError(f"negative exponent in {shift}")
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

        While what is left of self is a multiple of den, its lead is a
        multiple of den's, so the remainder is zero exactly when den divides.
        """
        quotient, remainder = self._divide(den)
        return None if remainder else quotient

    def _divide(self, den: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(q, r) with self == q * den + r from ``divide_terms`` with den as
        its one divisor, in the wider of their layouts: r is zero exactly
        when den divides self, and otherwise lead(den) divides no term of r."""
        self._check(den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return self, self  # 0 = 0 * den + 0
        layout = max(self.packed()[0], den.packed()[0], key=lambda layout: layout.bits)
        tail = dict(den.keyed(layout))
        lead = min(tail)
        lc = tail.pop(lead)
        divisor = Divisor(lead, list(tail), list(tail.values()), lc)
        quotient: dict = {}
        rem = divide_terms(dict(self.keyed(layout)), [divisor], layout.guard, None, {}, quotient)
        return Polynomial._from_keyed(self.nvars, layout, quotient), Polynomial._from_keyed(self.nvars, layout, rem)

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
