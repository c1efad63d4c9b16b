"""Buchberger's algorithm as first written: the reference the fast engine is tested against.

Selection scans the whole pair set for the smallest (lcm degree, i, j),
leading terms are recomputed at every step, the only criterion is the
coprime one, and interreduction restarts after every change.  Slow but
plainly correct.  The engine keeps no reduced basis of its own, since
every verdict reads the leads of its unreduced pair-loop basis; so
``engine_reduced_basis`` interreduces that basis here, and
``tests/test_groebner_oracle.py`` requires it to equal ``buchberger``'s
reduced basis, and ``Polynomial.divide_exact`` to return the oracle's
quotients.  ``reduce_poly`` is also the tests' membership check: f lies
in an ideal exactly when its remainder modulo a Groebner basis of it is
zero.

The engine keeps no remainder function of its own, since no verdict
reads a normal form.  ``kernel_remainder`` packs a polynomial and its
divisors with ``packed_divisor`` and runs the engine's one division loop,
``toricfol.poly.divide_terms``, on them, so that the loop is compared
with ``reduce_poly`` on any divisor list.

``pair_loop`` is the engine's pair loop on exponent tuples: the same
entry (generators sorted by top degree and reduced as they enter), pair
heap, coprime and chain criteria, memo of shifted reducers and stop
rules (a constant lead; mod P, a pure power of every variable), with a
division kernel that finds each monomial's reducer by comparing tuples.
``pair_loop_basis`` runs it exact or mod P, and
``tests/test_modular.py`` requires the packed loop to give the same
basis, coefficient for coefficient, leads and pair counts.  Its exact
leads are the reference dimension there, where ``buchberger`` is far too
slow.  ``lead_dimension`` reads a dimension from leads by walking every
subset of the variables, the reference for ``groebner._lead_dimension``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, repeat
from typing import NamedTuple

from poly_oracle import grevlex_key, heap_key, monomial_div, monomial_divides

from toricfol import groebner, poly
from toricfol.groebner import P
from toricfol.poly import (
    Polynomial,
    exact_div,
    layout_for,
    monomial_lcm,
    monomial_mul,
)


def reduce_poly(f: Polynomial, gens) -> Polynomial:
    """Full remainder of f on division by gens (first matching reducer)."""
    leads = [g.leading_term() for g in gens]
    rem: dict = {}
    work = f
    while work:
        lm, lc = work.leading_term()
        for g, (glm, glc) in zip(gens, leads):
            if monomial_divides(glm, lm):
                work = work - g.mul_monomial(monomial_div(lm, glm), Fraction(lc) / glc)
                break
        else:
            rem[lm] = lc
            work = Polynomial(f.nvars, {m: c for m, c in work.terms.items() if grevlex_key(m) < grevlex_key(lm)})
    return Polynomial(f.nvars, rem)


def packed_divisor(g: Polynomial, layout) -> poly.Divisor:
    """The nonzero g, made monic, as ``poly.divide_terms`` reads a divisor in ``layout``."""
    return groebner._monic(layout.pack(g.terms), None)


def kernel_remainder(f: Polynomial, gens) -> Polynomial:
    """The remainder of f on division by the nonzero gens, from
    ``poly.divide_terms`` in a layout that holds every degree."""
    layout = layout_for(f.nvars, max(g.total_degree() for g in (f, *gens)))
    divisors = [packed_divisor(g, layout) for g in gens]
    rem = poly.divide_terms(layout.pack(f.terms), divisors, layout.guard, None, {})
    return Polynomial._trusted(f.nvars, layout.unpack(rem))


def divisor_terms(d: poly.Divisor, layout) -> dict:
    """The monic divisor d as an exponent-tuple term dict, lead first."""
    return layout.unpack({d.lead: 1, **dict(zip(d.tail_monos, d.tail_coeffs))})


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = monomial_lcm(fm, gm)
    return f.mul_monomial(monomial_div(lcm, fm), Fraction(1) / fc) - g.mul_monomial(
        monomial_div(lcm, gm), Fraction(1) / gc
    )


def buchberger(gens) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("no nonzero generators")
    nvars = basis[0].nvars
    for g in basis:
        if g.nvars != nvars:
            raise ValueError("variable count mismatch among generators")

    pairs = set(combinations(range(len(basis)), 2))
    while pairs:
        best = None
        for i, j in pairs:
            lcm = monomial_lcm(basis[i].leading_term()[0], basis[j].leading_term()[0])
            rank = (sum(lcm), i, j)
            if best is None or rank < best[0]:
                best = (rank, (i, j), lcm)
        _, (i, j), lcm = best
        pairs.discard((i, j))
        lm_i = basis[i].leading_term()[0]
        lm_j = basis[j].leading_term()[0]
        if lcm == monomial_mul(lm_i, lm_j):
            continue  # coprime leading terms: s-polynomial reduces to zero
        rem = reduce_poly(_spoly(basis[i], basis[j]), basis)
        if rem:
            basis.append(rem.monic())
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))
    return _interreduce(basis)


def _interreduce(basis) -> tuple[Polynomial, ...]:
    # Minimalize (drop generators whose leading term is divisible by a
    # smaller one; divisibility implies order, so an ascending sweep that
    # compares against survivors only is enough), then fully tail-reduce.
    kept: list[Polynomial] = []
    for g in sorted(basis, key=lambda g: grevlex_key(g.leading_term()[0])):
        lm = g.leading_term()[0]
        if not any(monomial_divides(h.leading_term()[0], lm) for h in kept):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            rest = kept[:i] + kept[i + 1 :]
            if not rest:
                continue
            red = reduce_poly(kept[i], rest)
            if red.is_zero():
                kept.pop(i)
                changed = True
                break
            red = red.monic()
            if red != kept[i]:
                kept[i] = red
                changed = True
                break
    return tuple(sorted(kept, key=lambda g: grevlex_key(g.leading_term()[0]), reverse=True))


def engine_basis(gens, stats: dict | None = None) -> list[Polynomial]:
    """The engine's exact ``_pair_loop`` basis of the nonzero gens, unreduced
    and unchecked: its coefficients are the kernel's own.  ``stats``
    receives the loop's."""
    polys = groebner._nonzero_generators(gens)
    layout = layout_for(polys[0].nvars, max(g.total_degree() for g in polys))
    basis, layout = groebner._pair_loop([g.keyed(layout) for g in polys], None, layout, stats)
    return [Polynomial._trusted(layout.nvars, divisor_terms(d, layout)) for d in basis]


def engine_reduced_basis(gens) -> tuple[Polynomial, ...]:
    """The engine's exact basis interreduced by ``_interreduce``: the
    reduced basis, which must equal ``buchberger(gens)``."""
    return _interreduce(engine_basis(gens))


def divide_exact(f: Polynomial, den: Polynomial) -> Polynomial | None:
    """``Polynomial.divide_exact`` as first written: a fresh polynomial per step."""
    lm, lc = den.leading_term()
    q: dict = {}
    rem = f
    while rem:
        rm, rc = rem.leading_term()
        if not monomial_divides(lm, rm):
            return None
        m = monomial_div(rm, lm)
        c = Fraction(rc) / lc
        q[m] = c
        rem = rem - den.mul_monomial(m, c)
    return Polynomial(f.nvars, q)


class Divisor(NamedTuple):
    """A monic polynomial split at its leading term, on exponent tuples."""

    lead: tuple
    tail_monos: list
    tail_coeffs: list


def _monic(lm, lc, tail: dict, modulus) -> Divisor:
    if modulus is None:
        coeffs = [exact_div(c, lc) for c in tail.values()]
    else:
        inv = pow(lc, -1, modulus)
        coeffs = [c * inv % modulus for c in tail.values()]
    return Divisor(lm, list(tail), coeffs)


def divide_terms(terms: dict, divisors: list[Divisor], modulus, memo: dict) -> dict:
    """The remainder of ``terms`` on division by the monic ``divisors``,
    first matching reducer, in descending order; ``memo`` as in
    ``toricfol.poly.divide_terms``."""
    heap = [(heap_key(m), m) for m in terms]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
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
                if monomial_divides(d.lead, m):
                    break
            else:
                memo[m] = len(divisors)
                rem[m] = c
                continue
            shifted = list(map(monomial_mul, d.tail_monos, repeat(monomial_div(m, d.lead))))
            memo[m] = i, shifted
        for t, tc in zip(shifted, d.tail_coeffs):
            old = terms.get(t)
            if old is None:
                terms[t] = -c * tc
                heappush(heap, (heap_key(t), t))
            else:
                terms[t] = old - c * tc
    return rem


def _spoly_terms(a: Divisor, b: Divisor, lcm) -> dict:
    terms: dict = {}
    shift = monomial_div(lcm, a.lead)
    for m, c in zip(a.tail_monos, a.tail_coeffs):
        terms[monomial_mul(m, shift)] = c
    shift = monomial_div(lcm, b.lead)
    for m, c in zip(b.tail_monos, b.tail_coeffs):
        t = monomial_mul(m, shift)
        terms[t] = terms.get(t, 0) - c
    return terms


def _chain_criterion(i: int, j: int, lcm, basis, pending) -> bool:
    for k in range(len(basis)):
        if k == i or k == j or not monomial_divides(basis[k].lead, lcm):
            continue
        if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
            return True
    return False


def pair_loop(gens: list[dict], modulus, stats: dict) -> list[Divisor]:
    """``toricfol.groebner._pair_loop`` on exponent tuples: the nonzero
    term dicts ``gens`` entered in ascending order of top total degree,
    each reduced by the basis so far, then extended to a Groebner basis;
    partial when the loop stops at a constant lead or, mod P, at leads of
    dimension at most zero.  ``stats`` receives pairs_reduced, basis_size
    and stopped_early."""
    basis: list[Divisor] = []
    heap: list = []
    pending: set = set()
    memo: dict = {}
    unbounded = set(range(len(next(iter(gens[0])))))
    reduced = 0
    done = False

    def admit(rem):
        nonlocal done
        lm = next(iter(rem))
        basis.append(_monic(lm, rem.pop(lm), rem, modulus))
        k = len(basis) - 1
        support = [j for j, e in enumerate(lm) if e]
        if len(support) == 1:
            unbounded.discard(support[0])
        done = not support or (modulus is not None and not unbounded)
        if done:
            return
        for i in range(k):
            lcm = monomial_lcm(basis[i].lead, lm)
            heappush(heap, (sum(lcm), i, k, lcm))
            pending.add((i, k))

    for g in sorted(gens, key=lambda g: max(map(sum, g))):
        rem = divide_terms(dict(g), basis, modulus, memo)
        if rem:
            admit(rem)
            if done:
                break
    while heap and not done:
        _, i, j, lcm = heappop(heap)
        pending.discard((i, j))
        if lcm == monomial_mul(basis[i].lead, basis[j].lead):
            continue
        if _chain_criterion(i, j, lcm, basis, pending):
            continue
        reduced += 1
        rem = divide_terms(_spoly_terms(basis[i], basis[j], lcm), basis, modulus, memo)
        if rem:
            admit(rem)
    stats.update(pairs_reduced=reduced, basis_size=len(basis), stopped_early=done)
    return basis


def modular_generators(polys) -> list[dict] | None:
    """The polys with denominators cleared and coefficients reduced mod P,
    or None when one of them vanishes mod P."""
    gens = []
    for g in polys:
        den = math.lcm(*(c.denominator for c in g.terms.values()))
        terms = {m: c.numerator * (den // c.denominator) % P for m, c in g.terms.items()}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            return None
        gens.append(terms)
    return gens


def pair_loop_basis(polys, modulus, stats: dict) -> list[dict] | None:
    """The basis ``toricfol.groebner._pair_loop`` makes, whose leads
    ``_leads`` reads unless every poly is a single term, exact or mod the
    prime ``modulus``, made by ``pair_loop``: one monic term
    dict per element, lead first; None when a poly vanishes mod it."""
    gens = [g.terms for g in polys] if modulus is None else modular_generators(polys)
    if gens is None:
        return None
    return [{d.lead: 1, **dict(zip(d.tail_monos, d.tail_coeffs))} for d in pair_loop(gens, modulus, stats)]


def lead_dimension(lms) -> int:
    """The largest set of variables containing the support of no leading
    monomial, by walking every subset; EMPTY_VARIETY for a constant lead."""
    nvars = len(lms[0])
    if any(sum(m) == 0 for m in lms):
        return groebner.EMPTY_VARIETY
    supports = [frozenset(j for j, e in enumerate(m) if e) for m in lms]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def exact_leads(polys) -> list:
    """The leads of the exact ``pair_loop`` basis of the polys, zeros skipped."""
    return [next(iter(g)) for g in pair_loop_basis([g for g in polys if not g.is_zero()], None, {})]
