"""The term order, the product loop and the division as first written, on
exponent tuples: the references the packed layout, ``poly.sum_of_products``
and ``poly.divide_terms`` are tested against."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import le, sub

from toricfol.poly import Polynomial, exact_div, monomial_mul


def grevlex_key(m: tuple[int, ...]):
    """Graded reverse lexicographic order, ascending; a packed key sorts
    the other way round."""
    return (sum(m), tuple(-e for e in reversed(m)))


def heap_key(m: tuple[int, ...]):
    """The grevlex order reversed, as a flat tuple: ascending in this key is
    descending in the term order, so a min-heap pops the leading monomial."""
    return (-sum(m),) + m[::-1]


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def monomial_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def sum_of_products(nvars: int, pairs) -> Polynomial:
    """The sum of a * b over the pairs by the tuple loop: one exponent tuple
    per product, summed in one dict in the order the products come."""
    sums: dict = {}
    for a, b in pairs:
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                old = sums.get(m)
                sums[m] = c1 * c2 if old is None else old + c1 * c2
    return Polynomial._from_sums(nvars, sums)


def divide(f: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(q, r) with f == q * den + r by the tuple heap loop that stops at the
    first leading monomial lead(den) does not divide: r is zero exactly
    when den divides f, and then q is the quotient."""
    lead, lc = max(den.terms.items(), key=lambda t: grevlex_key(t[0]))
    tail = [(m, c) for m, c in den.terms.items() if m != lead]
    terms = dict(f.terms)
    heap = [(heap_key(m), m) for m in terms]
    heapify(heap)
    quotient: dict = {}
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
    return Polynomial._trusted(f.nvars, quotient), Polynomial._from_sums(f.nvars, terms)
