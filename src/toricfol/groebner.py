"""Buchberger-based ideal computations at desk scale.

Every verdict is a dimension read from the leads of a Groebner basis,
which is never interreduced (``_leads``); ``ideal_dimension`` is the
exact one.  Minimalization drops only leads another lead divides, so
these leads span the initial ideal of the reduced basis, whose dimension
they give (Cox, Little & O'Shea, ch. 9 section 3); for the unit ideal
they hold 1.

When every generator is a single term, as every partial of a Fermat- or
Delsarte-type sum is, the generators are that basis: the s-polynomial of
two terms is zero (Cox, Little & O'Shea, ch. 2 section 6).  Their
monomials are the leads, duplicates and non-minimal ones included, and
no loop runs.  Otherwise the leads are those of the pair loop's basis.

The pair loop follows Gebauer & Moeller, "On an installation of
Buchberger's algorithm" (J. Symb. Comput. 6, 1988), at the level of
Buchberger's two criteria:

- the generators enter in ascending order of their top total degree,
  and each is divided by the basis admitted so far as it enters; only a
  nonzero remainder is admitted, so generators that share a lead, like
  the partials of a dense form, do not all stay on as divisors;
- each basis element is stored monic, with its leading monomial taken
  once, when it enters the basis;
- pending pairs sit in a heap keyed by (degree of lcm, i, j): the normal
  selection strategy, ties broken by pair index;
- a pair is skipped when its leading monomials are coprime, or by the
  chain criterion: some other element k has a leading monomial dividing
  the pair's lcm and neither (i, k) nor (j, k) is still pending;
- every division runs the one loop ``divide_terms``: first matching
  reducer, on a mutable dict of packed terms;
- the pair loop only appends to its basis, so one memo serves all of its
  divisions: the first matching reducer of a monomial and that reducer's
  tail multiplied up to it are found once, not once per s-polynomial,
  as F4 reuses its multiplied reducer rows (Faugere, "A new efficient
  algorithm for computing Groebner bases (F4)", JPAA 139, 1999).

The term order is grevlex.  The criteria and the selection order change
the work done, never the initial ideal, and so never a verdict.  Nor
does the reduction on entry: a remainder is its generator less a
combination of elements already in the ideal, and the generator is that
remainder plus the same combination, so the admitted elements generate
the same ideal.  The initial ideal depends only on the ideal and the
order, so the leads of the finished basis span the same initial ideal
and give the same dimension.

Inside Groebner work a monomial is one int in the packed layout that
``poly`` describes, and each generator enters as the packing it keeps.
The pair heap, the coprime check and the lcm stay on tuples; a pair whose
lcm degree the layout cannot hold moves the basis to a wider one.

The dimension checks ``only_origin_check`` and
``regular_subsequence_check`` try the same pair loop modulo the fixed
prime ``P = 2**30 - 35`` first (Arnold, "Modular algorithms for computing
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
never depends on the prime.  Single terms take the same route with no
loop: mod P their monomials stay the leads unless P divides a term's
numerator, and then that generator vanishes mod P.
``sing_inside_irrelevant`` stays exact: a chart ideal is not
homogeneous, so a unit ideal mod P proves nothing.

Only a dimension is read from the mod-P basis, so the mod-P loop stops
as soon as the leading monomials include a constant or a pure power of
every variable.  Each element the loop has made lies in the ideal mod P,
so its lead lies in the initial ideal, and a monomial ideal holding a
pure power of every variable has dimension at most zero.  A partial
basis thus already bounds the dimension mod P by zero, and the
Hilbert-function argument carries that to Q.  It also gives the same
dimension as the full run: the leads only grow, and a constant lead can
come only from a constant generator.  A quasi-homogeneous generator of
positive degree never reduces to a constant: each division step takes
away a monomial multiple of a quasi-homogeneous divisor that matches one
of its terms, so what is left stays quasi-homogeneous of the same
positive degree, and so does every s-polynomial made from such elements.

Both loops return at once when an admitted element has a constant lead.
Then 1 lies in the ideal, and ``_lead_dimension`` reads EMPTY_VARIETY
from that lead whatever else the partial basis holds.  A chart ideal of
``sing_inside_irrelevant`` is not homogeneous, so it can reach 1
partway through its pairs; a constant generator enters first and ends
the loop before any pair.

Exact coefficients are ints wherever they are integral, and ``c / lc``
on two ints would give a float, so every exact coefficient division
goes through ``poly.exact_div``: each divisor is made monic once, so
the division loop divides no coefficient here.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import combinations

from .poly import (
    Divisor,
    Exponents,
    Layout,
    Polynomial,
    divide_terms,
    exact_div,
    layout_for,
    monomial_lcm,
    monomial_mul,
)

EMPTY_VARIETY = -1
# The prime of the modular first step: 2**30 - 35, the largest prime below
# 2**30, so every coefficient reduced mod P is one 30-bit CPython digit.
P = 1073741789


def _monic(terms: dict, modulus) -> Divisor:
    """The nonzero packed ``terms`` divided by their leading coefficient;
    the lead is the smallest key."""
    lm = min(terms)
    lc = terms.pop(lm)
    if modulus is None:
        coeffs = [exact_div(c, lc) for c in terms.values()]
    else:
        inv = pow(lc, -1, modulus)
        coeffs = [c * inv % modulus for c in terms.values()]
    return Divisor(lm, list(terms), coeffs)


def _spoly_terms(a: Divisor, b: Divisor, lcm: int) -> dict:
    # Both leads are monic and cancel; only the tails are combined.
    terms: dict = {}
    shift = lcm - a.lead
    for m, c in zip(a.tail_monos, a.tail_coeffs):
        terms[m + shift] = c
    shift = lcm - b.lead
    for m, c in zip(b.tail_monos, b.tail_coeffs):
        t = m + shift
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


def _repack(d: Divisor, old: Layout, new: Layout) -> Divisor:
    lead, *tail = new.pack(old.unpack(dict.fromkeys([d.lead, *d.tail_monos])))
    return Divisor(lead, tail, d.tail_coeffs)


def _pair_loop(
    gens: list[dict], modulus: int | None, layout: Layout, stats: dict | None = None
) -> tuple[list[Divisor], Layout]:
    """A Groebner basis of the nonzero term dicts ``gens``, packed in
    ``layout``, which must hold them, and left unchanged, with exact
    rational coefficients or, given a prime ``modulus``, ints mod it, whose
    values must then be reduced and nonzero.  Returns the basis as monic
    divisors in the returned layout.

    The generators enter in ascending order of their top total degree,
    ties in the given order; each is first divided by the basis admitted
    so far, with the pair loop's own memo, and only a nonzero remainder
    is admitted.  So the basis starts with the reduced generators, and a
    generator in the span of earlier ones leaves no element.

    The loop returns at once when an admitted element has a constant
    lead: 1 is then in the ideal.  Mod P, where only a dimension is read
    off, it also returns once the leading monomials include a pure power
    of every variable, which is exactly when the dimension they give is
    at most zero.  Either way the basis returned is a partial one.  When
    ``stats`` is given it receives pairs_reduced, basis_size and
    stopped_early, which is True when the loop returned on one of these
    two rules, before the queue of pairs ran out.

    Every term the loop makes lies below the lcm of its pair, so it has at
    most that lcm's degree.  When a pair is admitted whose lcm degree the
    layout cannot hold, the basis moves to a wider one and the memo,
    whose keys are packed, starts again.
    """
    nvars, start = layout.nvars, layout
    basis: list[Divisor] = []
    leads: list[Exponents] = []  # the leading monomials as tuples
    heap: list = []
    pending: set[tuple[int, int]] = set()
    memo: dict = {}  # one per loop and layout: ``basis`` only grows
    unbounded = set(range(nvars))  # variables with no pure-power lead
    reduced = 0
    done = False  # a constant lead; mod P, also a pure power of every variable

    def admit(terms):
        nonlocal layout, memo, done
        d = _monic(terms, modulus)
        [lm_k] = layout.unpack({d.lead: None})
        k = len(basis)
        basis.append(d)
        leads.append(lm_k)
        support = [j for j, e in enumerate(lm_k) if e]
        if len(support) == 1:
            unbounded.discard(support[0])
        done = not support or (modulus is not None and not unbounded)
        if done:
            return
        top = 0
        for i in range(k):
            lcm = monomial_lcm(leads[i], lm_k)
            degree = sum(lcm)
            if degree > top:
                top = degree
            heappush(heap, (degree, i, k, lcm))
            pending.add((i, k))
        if top >= layout.limit:
            wider = layout_for(nvars, top)
            basis[:] = [_repack(d, layout, wider) for d in basis]
            layout, memo = wider, {}

    for g in sorted(gens, key=lambda g: -(min(g) >> start.shift)):
        # a generator that enters after the basis moved is packed anew
        g = dict(g) if layout is start else layout.pack(start.unpack(g))
        rem = divide_terms(g, basis, layout.guard, modulus, memo)
        if rem:
            admit(rem)
            if done:
                break
    while heap and not done:
        _, i, j, lcm = heappop(heap)
        pending.discard((i, j))
        if lcm == monomial_mul(leads[i], leads[j]):
            continue  # coprime leading terms: s-polynomial reduces to zero
        [lcm] = layout.pack({lcm: None})
        if _chain_criterion(i, j, lcm, basis, pending, layout.guard):
            continue
        reduced += 1
        spoly = _spoly_terms(basis[i], basis[j], lcm)
        rem = divide_terms(spoly, basis, layout.guard, modulus, memo)
        if rem:
            admit(rem)
    if stats is not None:
        stats.update(pairs_reduced=reduced, basis_size=len(basis), stopped_early=done)
    return basis, layout


def _leads(polys: list[Polynomial], modulus: int | None, stats: dict | None = None) -> list | None:
    """Leading monomials of a Groebner basis of the nonzero polys, exact or
    mod the prime ``modulus``; None means some poly vanishes mod it once
    its denominators are cleared.

    When every poly is a single term they are their own basis, since the
    s-polynomial of two terms is zero, so their monomials are returned
    and no loop runs.  Otherwise these are the leads of the basis
    ``_pair_loop`` makes, partial mod the prime when the loop stops
    early, and ``stats`` receives the loop's."""
    if all(len(g.terms) == 1 for g in polys):
        if modulus and any(c.numerator % modulus == 0 for g in polys for c in g.terms.values()):
            return None
        return [m for g in polys for m in g.terms]
    layout = layout_for(polys[0].nvars, max(g.total_degree() for g in polys))
    gens = []
    for g in polys:
        terms = g.keyed(layout)
        if modulus:
            den = math.lcm(*(c.denominator for c in terms.values()))
            terms = {k: c.numerator * (den // c.denominator) % modulus for k, c in terms.items()}
            terms = {k: c for k, c in terms.items() if c}
            if not terms:
                return None
        gens.append(terms)
    basis, layout = _pair_loop(gens, modulus, layout, stats)
    return list(layout.unpack(dict.fromkeys(d.lead for d in basis)))


def _chain_criterion(i: int, j: int, lcm: int, basis: list[Divisor], pending, guard: int) -> bool:
    for k in range(len(basis)):
        if k == i or k == j or (lcm - basis[k].lead) & guard:
            continue
        if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
            return True
    return False


def ideal_dimension(gens) -> int:
    """Affine Krull dimension of the quotient by the ideal of gens, read
    from the leads of the exact pair loop's basis; EMPTY_VARIETY when 1 is
    inside.  Zero gens are skipped; raises ValueError when none is left."""
    return _lead_dimension(_leads(_nonzero_generators(gens), None))


def _lead_dimension(lms) -> int:
    """The dimension read from the leading monomials of a Groebner basis by
    the standard combinatorial rule: the largest set of variables
    containing the support of no leading monomial.  A variable with a
    pure-power lead is in no such set, so only the others are searched."""
    supports = [frozenset(j for j, e in enumerate(m) if e) for m in lms]
    if not all(supports):
        return EMPTY_VARIETY
    bounded = {j for sup in supports if len(sup) == 1 for j in sup}
    free = [j for j in range(len(lms[0])) if j not in bounded]
    for size in range(len(free), -1, -1):
        for subset in combinations(free, size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def _modular_first(gens, accept, record) -> bool:
    """accept(dimension), decided by the mod-P basis when it says yes and by
    the exact basis otherwise; record["path"] names the one that decided,
    and record["modular"] holds the mod-P loop's stats, None when no loop
    ran: a generator vanishes mod P, or every generator is a single term."""
    polys = _nonzero_generators(gens)
    stats: dict = {}
    leads = _leads(polys, P, stats)
    if leads is not None and accept(_lead_dimension(leads)):
        path, answer = "modular", True
    else:
        path, answer = "exact", accept(ideal_dimension(polys))
    if record is not None:
        record["path"] = path
        record["modular"] = stats or None
    return answer


def regular_subsequence_check(f: Polynomial, indices, *, record: dict | None = None) -> bool:
    """Whether the selected partials cut a variety of codimension len(indices).

    Precondition: f is quasi-homogeneous for a grading with a positive
    functional.  When ``record`` is given, record["path"] is "modular" or
    "exact", the computation that decided, and record["modular"] holds the
    mod-P loop's pairs_reduced, basis_size and stopped_early, or None when
    no loop ran.
    """
    every = f.partials()
    partials = [every[j] for j in sorted(set(indices))]
    if not all(partials):
        return False
    wanted = f.nvars - len(partials)
    return _modular_first(partials, lambda dim: dim == wanted, record)


def only_origin_check(gens, *, record: dict | None = None) -> bool:
    """Whether the common zero set of gens is contained in {0}.

    Precondition: the gens are quasi-homogeneous for a grading with a
    positive functional, as every model's is.  Their zero set is then a
    cone, and a cone of dimension at most zero is the origin or empty.
    When ``record`` is given, record["path"] is "modular" or "exact", the
    computation that decided, and record["modular"] holds the mod-P loop's
    pairs_reduced, basis_size and stopped_early, or None when no loop ran.
    The mod-P loop stops as soon as its leads certify ``dimension <= 0``.
    """
    return _modular_first(gens, lambda dim: dim <= 0, record)


def sing_inside_irrelevant(model, f: Polynomial, *, record: dict | None = None) -> str:
    """Whether the singular cone of {f = 0} sits inside the removed locus.

    Precondition: f is quasi-homogeneous, so f lies in its Jacobian ideal.
    A model checks that for each irrelevant generator z^S the degrees of
    the variables in S are a basis of Cl (x) Q, so every orbit in
    {z^S != 0} meets the chart {z_S = 1}.  "yes" when the partials
    restricted to every chart generate the unit ideal, "no" otherwise;
    record["chart"], when given, is the first failing generator or None.
    """
    failing = None
    for gen in model.irrelevant_ideal():
        chart = [p for p in (_set_to_one(p, gen) for p in f.partials()) if p]
        if not chart or ideal_dimension(chart) != EMPTY_VARIETY:
            failing = gen
            break
    if record is not None:
        record["chart"] = failing
    return "yes" if failing is None else "no"


def _set_to_one(p: Polynomial, support) -> Polynomial:
    """p with every variable in the support set to 1."""
    sums: dict = {}
    for m, c in p.terms.items():
        key = tuple(0 if s else e for e, s in zip(m, support))
        sums[key] = sums.get(key, 0) + c
    return Polynomial._from_sums(p.nvars, sums)
