"""Buchberger's algorithm as first written: the reference the fast engine is tested against.

Selection scans the whole pair set for the smallest (lcm degree, i, j),
leading terms are recomputed at every step, the only criterion is the
coprime one, and interreduction restarts after every change.  Slow but
plainly correct; ``tests/test_groebner_oracle.py`` requires
``toricfol.groebner`` and ``Polynomial.divide_exact`` to return the same
reduced bases, remainders and quotients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from toricfol.groebner import GroebnerBasis
from toricfol.poly import (
    Polynomial,
    grevlex_key,
    monomial_div,
    monomial_divides,
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


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = monomial_lcm(fm, gm)
    return f.mul_monomial(monomial_div(lcm, fm), Fraction(1) / fc) - g.mul_monomial(
        monomial_div(lcm, gm), Fraction(1) / gc
    )


def buchberger(gens) -> GroebnerBasis:
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
    return GroebnerBasis(generators=_interreduce(basis))


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
