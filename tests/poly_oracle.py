"""The grevlex key and the product loop as first written: the references
``poly.heap_key`` and ``poly.sum_of_products`` are tested against."""

from __future__ import annotations

from toricfol.poly import Polynomial


def grevlex_key(m: tuple[int, ...]):
    """Graded reverse lexicographic order, ascending; ``heap_key`` sorts
    the other way round."""
    return (sum(m), tuple(-e for e in reversed(m)))


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
