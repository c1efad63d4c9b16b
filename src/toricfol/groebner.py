"""Buchberger-based ideal computations at desk scale.

``buchberger`` follows Gebauer & Moeller, "On an installation of
Buchberger's algorithm" (J. Symb. Comput. 6, 1988), at the level of
Buchberger's two criteria:

- each basis element is stored monic, with its leading monomial taken
  once, when it enters the basis;
- pending pairs sit in a heap keyed by (degree of lcm, i, j): the normal
  selection strategy, ties broken by pair index;
- a pair is skipped when its leading monomials are coprime, or by the
  chain criterion: some other element k has a leading monomial dividing
  the pair's lcm and neither (i, k) nor (j, k) is still pending;
- every division, here and in ``reduce_poly``, runs the one kernel
  ``poly.divide_terms``: first matching reducer, on a mutable term dict.

The result is then minimalized and each survivor's tail is reduced once
against the others.  Leading terms cannot change after minimalization
and the remainder of a tail modulo a Groebner basis is its unique normal
form, so one sweep gives the reduced basis.  The term order is grevlex,
and for it the reduced Groebner basis of an ideal is unique; the criteria
and the selection order change the work done, never the basis returned,
and so never a downstream certificate.

The dimension checks ``only_origin_check`` and
``regular_subsequence_check`` try the same pair loop modulo the fixed
prime ``P = 2**31 - 1`` first (Arnold, "Modular algorithms for computing
Groebner bases", J. Symb. Comput. 35, 2003).  Each generator's
denominators are cleared and its integer coefficients reduced mod P.
The generators are quasi-homogeneous for a grading with a positive
functional, so every graded piece of the ideal is spanned by finitely
many integer vectors, whose rank can only drop mod P.  The Hilbert
function of the quotient can therefore only grow, and the dimension
read from the leading monomials of the mod-P basis bounds the rational
one from above.  That certifies ``dimension <= 0`` and, with Krull's
bound ``dimension >= n - k`` for k homogeneous generators of a proper
ideal, ``dimension == n - k``.  Any other outcome, including a generator
that vanishes mod P, falls back to the exact computation, so a verdict
never depends on the prime.  Membership mod P proves nothing over Q, so
``sing_inside_irrelevant`` stays exact.

Exact coefficients are ints wherever they are integral, and ``c / lc``
on two ints would give a float, so every exact coefficient division
goes through ``poly.exact_div``.  Mod P every divisor is monic and the
kernel divides nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations

from .poly import (
    Divisor,
    Polynomial,
    as_divisor,
    divide_terms,
    exact_div,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

EMPTY_VARIETY = -1
INCONCLUSIVE = "inconclusive"
P = 2**31 - 1  # the prime of the modular first step


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple[Polynomial, ...]

    @property
    def nvars(self) -> int:
        return self.generators[0].nvars

    @cached_property
    def divisors(self) -> list[Divisor]:
        """The generators split at their leading terms, built once per basis."""
        return [as_divisor(g) for g in self.generators]


def reduce_poly(f: Polynomial, gens) -> Polynomial:
    """Full remainder of f on division by gens (first matching reducer).

    ``gens`` is a sequence of polynomials or a ``GroebnerBasis``, whose
    divisors are then reused from one call to the next.
    """
    if isinstance(gens, GroebnerBasis):
        divisors = gens.divisors
    else:
        divisors = [as_divisor(g) for g in gens]
    return Polynomial(f.nvars, dict(divide_terms(dict(f.terms), divisors)))


def _spoly_terms(a: Divisor, b: Divisor, lcm) -> dict:
    # Both leads are monic and cancel; only the tails are combined.
    terms: dict = {}
    shift = monomial_div(lcm, a.lead)
    for m, c in a.tail:
        terms[monomial_mul(m, shift)] = c
    shift = monomial_div(lcm, b.lead)
    for m, c in b.tail:
        t = monomial_mul(m, shift)
        terms[t] = terms.get(t, 0) - c
    return terms


def _nonzero_generators(gens) -> list[Polynomial]:
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("no nonzero generators")
    for g in polys:
        if g.nvars != polys[0].nvars:
            raise ValueError("variable count mismatch among generators")
    return polys


def _monic(lm, lc, tail, modulus) -> Divisor:
    if modulus is None:
        return Divisor(lm, 1, [(m, exact_div(c, lc)) for m, c in tail])
    inv = pow(lc, -1, modulus)
    return Divisor(lm, 1, [(m, c * inv % modulus) for m, c in tail])


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    polys = _nonzero_generators(gens)
    basis = _pair_loop([as_divisor(g.monic()) for g in polys], None)
    return GroebnerBasis(generators=_interreduce(basis, polys[0].nvars))


def _pair_loop(basis: list[Divisor], modulus: int | None) -> list[Divisor]:
    """Extend the monic divisors in ``basis`` to a Groebner basis, with
    exact rational coefficients or, given a prime ``modulus``, ints mod it."""
    heap: list = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(k):
        lm_k = basis[k].lead
        for i in range(k):
            lcm = monomial_lcm(basis[i].lead, lm_k)
            heappush(heap, (sum(lcm), i, k, lcm))
            pending.add((i, k))

    for k in range(1, len(basis)):
        add_pairs(k)
    while heap:
        _, i, j, lcm = heappop(heap)
        pending.discard((i, j))
        if lcm == monomial_mul(basis[i].lead, basis[j].lead):
            continue  # coprime leading terms: s-polynomial reduces to zero
        if _chain_criterion(i, j, lcm, basis, pending):
            continue
        rem = list(divide_terms(_spoly_terms(basis[i], basis[j], lcm), basis, modulus=modulus))
        if rem:
            (lm, lc), tail = rem[0], rem[1:]
            basis.append(_monic(lm, lc, tail, modulus))
            add_pairs(len(basis) - 1)
    return basis


def _modular_leads(polys: list[Polynomial]) -> list | None:
    """Leading monomials of a Groebner basis of the polys mod P, or None
    when some poly vanishes mod P once its denominators are cleared."""
    basis = []
    for g in polys:
        den = math.lcm(*(c.denominator for c in g.terms.values()))
        terms = {m: c.numerator * (den // c.denominator) % P for m, c in g.terms.items()}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            return None
        lm = max(terms, key=grevlex_key)
        lc = terms.pop(lm)
        basis.append(_monic(lm, lc, terms.items(), P))
    return [d.lead for d in _pair_loop(basis, P)]


def _chain_criterion(i: int, j: int, lcm, basis, pending) -> bool:
    for k in range(len(basis)):
        if k == i or k == j or not monomial_divides(basis[k].lead, lcm):
            continue
        if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
            return True
    return False


def _interreduce(basis: list[Divisor], nvars: int) -> tuple[Polynomial, ...]:
    # Minimalize: drop generators whose leading term is divisible by a
    # smaller one; divisibility implies order, so an ascending sweep that
    # compares against survivors only is enough.
    kept: list[Divisor] = []
    for d in sorted(basis, key=lambda d: grevlex_key(d.lead)):
        if not any(monomial_divides(h.lead, d.lead) for h in kept):
            kept.append(d)
    reduced = []
    for i, (lm, lc, tail) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        terms = {lm: lc}
        terms.update(divide_terms(dict(tail), others))
        reduced.append(Polynomial(nvars, terms))
    return tuple(reversed(reduced))


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Canonical remainder modulo the ideal; zero iff f belongs to it."""
    if f.nvars != gb.nvars:
        raise ValueError("variable count mismatch")
    if f.is_zero():
        return f
    return reduce_poly(f, gb)


def ideal_dimension(gb: GroebnerBasis) -> int:
    """Affine Krull dimension of the quotient; EMPTY_VARIETY when 1 is inside."""
    return _lead_dimension([g.leading_term()[0] for g in gb.generators], gb.nvars)


def _lead_dimension(lms, nvars: int) -> int:
    """The dimension read from the leading monomials of a Groebner basis by
    the standard combinatorial rule: the largest set of variables
    containing the support of no leading monomial."""
    if any(sum(m) == 0 for m in lms):
        return EMPTY_VARIETY
    supports = [frozenset(j for j, e in enumerate(m) if e) for m in lms]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def _modular_first(gens, accept, record) -> bool:
    """accept(dimension), decided by the mod-P basis when it says yes and by
    the exact basis otherwise; record["path"] names the one that decided."""
    polys = _nonzero_generators(gens)
    leads = _modular_leads(polys)
    if leads is not None and accept(_lead_dimension(leads, polys[0].nvars)):
        path, answer = "modular", True
    else:
        path, answer = "exact", accept(ideal_dimension(buchberger(polys)))
    if record is not None:
        record["path"] = path
    return answer


def regular_subsequence_check(f: Polynomial, indices, *, record: dict | None = None) -> bool:
    """Whether the selected partials cut a variety of codimension len(indices).

    Precondition: f is quasi-homogeneous for a grading with a positive
    functional.  When ``record`` is given, record["path"] is "modular" or
    "exact", the computation that decided.
    """
    indices = sorted(set(indices))
    partials = [f.partial_derivative(j) for j in indices]
    if any(p.is_zero() for p in partials):
        return False
    wanted = f.nvars - len(indices)
    return _modular_first(partials, lambda dim: dim == wanted, record)


def only_origin_check(gens, *, record: dict | None = None) -> bool:
    """Whether the common zero set of gens is contained in {0}.

    Precondition: the gens are quasi-homogeneous for a grading with a
    positive functional, as every model's is.  Their zero set is then a
    cone, and a cone of dimension at most zero is the origin or empty.
    When ``record`` is given, record["path"] is "modular" or "exact", the
    computation that decided.
    """
    return _modular_first(gens, lambda dim: dim <= 0, record)


def _power_cap(gens, cap):
    if cap is not None:
        return cap
    return 2 * (1 + max(g.total_degree() for g in gens))


def _power_in_ideal(gb: GroebnerBasis, exponents, cap: int) -> bool:
    base = Polynomial.monomial(exponents)
    power = Polynomial.constant(len(exponents), 1)
    for _ in range(cap):
        power = power * base
        if normal_form(power, gb).is_zero():
            return True
    return False


def sing_inside_irrelevant(model, f: Polynomial, cap: int | None = None) -> str:
    """Whether the singular cone of {f = 0} sits inside the removed locus.

    "yes": every irrelevant generator has a bounded power inside the
    Jacobian ideal.  "no": a coordinate indicator point witnesses a
    singular point outside the removed locus.  Otherwise "inconclusive".
    """
    partials = [f.partial_derivative(j) for j in range(f.nvars)]
    nonzero = [p for p in partials if not p.is_zero()]
    if not nonzero:
        raise ValueError("all partial derivatives vanish identically")
    irr = model.irrelevant_ideal()

    # Witness search on indicator points of coordinate subspaces.
    for bits in _indicator_points(f.nvars):
        if all(p.evaluate(bits) == 0 for p in partials) and f.evaluate(bits) == 0:
            if any(_monomial_value(g, bits) for g in irr):
                return "no"

    gb = buchberger(nonzero)
    cap = _power_cap(nonzero, cap)
    if all(_power_in_ideal(gb, g, cap) for g in irr):
        return "yes"
    return INCONCLUSIVE


def _indicator_points(nvars: int):
    for mask in range(1, 2**nvars):
        yield tuple((mask >> j) & 1 for j in range(nvars))


def _monomial_value(exponents, bits) -> int:
    return all(bits[j] for j, e in enumerate(exponents) if e)
