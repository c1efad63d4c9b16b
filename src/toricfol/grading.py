"""Grading-aware polynomial queries: degrees, enumeration, lattice counts."""

from __future__ import annotations

from itertools import product
from math import ceil, floor, lcm
from operator import mul

from .degrees import DegreeClass
from .model import ToricModel
from .halfspaces import coordinate_interval
from .poly import Polynomial, grevlex_key


def homogeneous_degree(model: ToricModel, f: Polynomial) -> DegreeClass | None:
    """Common degree of all terms of f, or None when terms disagree.

    The zero polynomial carries no degree at all and is rejected loudly,
    so callers can tell "no degree" apart from "mixed degrees".  Each term
    costs one dot product per row of ``model.degree_rows``: free parts
    are compared exactly, torsion parts mod t_k.  Those sums are ints and
    the residues are reduced, so the class is built without re-validation.
    """
    if f.nvars != model.nvars:
        raise ValueError("variable count mismatch")
    if f.is_zero():
        raise ValueError("the zero polynomial has no degree")
    rows = model.degree_rows
    moduli = model.moduli
    free_rows, torsion_rows = rows[: model.rank], rows[model.rank :]
    terms = iter(f.terms)
    first = next(terms)
    free = [sum(map(mul, row, first)) for row in free_rows]
    residues = [sum(map(mul, row, first)) % t for row, t in zip(torsion_rows, moduli)]
    for m in terms:
        for row, want in zip(free_rows, free):
            if sum(map(mul, row, m)) != want:
                return None
        for row, t, want in zip(torsion_rows, moduli, residues):
            if sum(map(mul, row, m)) % t != want:
                return None
    return DegreeClass._trusted(tuple(free), tuple(residues), moduli)


def monomials_of_degree(model: ToricModel, alpha: DegreeClass) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given degree class, largest first.

    Termination is certified by the model's positive grading functional,
    which every model carries.

    The descent fixes the exponents of the variables in order and cuts a
    branch as soon as no completion of it can have degree alpha:

    - on a free coordinate where no variable still to be fixed has a
      negative degree, the accumulated degree can only grow, so it may
      not exceed the target; where none has a positive degree it may not
      fall below it, so a coordinate no later variable changes must
      already match;
    - a monomial of degree alpha has functional value exactly the
      budget, so the last variable must spend what is left: its exponent
      is forced, and there is no leaf when the division is inexact.

    Only branches without a monomial of degree alpha are cut, and the
    result is sorted, so it equals that of the unpruned walk.

    A graded piece is fixed by the model alone, so each model keeps a
    memo from degree class to basis: the descent runs on the first query
    of a class and later queries return the same tuple.  A tuple is
    immutable, so callers may share it; the memo lives as long as its
    model.  A class from another grading group is refused on every call.
    """
    model._check_group(alpha)
    memo = model._monomial_bases
    basis = memo.get(alpha)
    if basis is None:
        basis = memo[alpha] = _enumerate_monomials(model, alpha)
    return basis


def _enumerate_monomials(model: ToricModel, alpha: DegreeClass) -> tuple[tuple[int, ...], ...]:
    """The pruned descent behind ``monomials_of_degree``, on a checked class."""
    nvars, rank = model.nvars, model.rank
    # Scaling the functional by a positive integer keeps every weight
    # positive and every quotient remaining // weight unchanged, and turns
    # the whole descent into integer arithmetic.
    functional = model.positive_functional
    scale = lcm(*(c.denominator for c in functional))
    functional = [int(c * scale) for c in functional]
    weights = [sum(map(mul, functional, d.free)) for d in model.degrees]
    budget = sum(map(mul, functional, alpha.free))
    if budget < 0:
        return ()

    # grows[j] / shrinks[j]: free coordinates that the variables j, j+1, ...
    # can only increase / only decrease.
    free_rows = model.degree_rows[:rank]
    grows = [tuple(range(rank))] * (nvars + 1)
    shrinks = list(grows)
    for j in reversed(range(nvars)):
        grows[j] = tuple(k for k in grows[j + 1] if free_rows[k][j] >= 0)
        shrinks[j] = tuple(k for k in shrinks[j + 1] if free_rows[k][j] <= 0)

    target = alpha.free
    torsion = list(zip(model.degree_rows[rank:], model.moduli, alpha.residues))
    out: list[tuple[int, ...]] = []
    exps = [0] * nvars

    def descend(j: int, remaining: int, acc: tuple[int, ...]):
        if j == nvars:
            if acc == target and all(sum(map(mul, row, exps)) % t == c for row, t, c in torsion):
                out.append(tuple(exps))
            return
        if j == nvars - 1:
            e, rest = divmod(remaining, weights[j])
            choices = () if rest else (e,)
        else:
            choices = range(remaining // weights[j] + 1)
        d = model.degrees[j].free
        up, down = grows[j], shrinks[j]
        for e in choices:
            nxt = tuple(a + e * x for a, x in zip(acc, d)) if e else acc
            # On up and down, variable j moves acc the same way as the
            # variables after it, so a larger e cannot repair a miss.
            if any(nxt[k] > target[k] for k in up) or any(nxt[k] < target[k] for k in down):
                break
            exps[j] = e
            descend(j + 1, remaining - e * weights[j], nxt)
        exps[j] = 0

    descend(0, budget, (0,) * rank)
    return tuple(sorted(out, key=grevlex_key, reverse=True))


def count_lattice_points(model: ToricModel, coefficients) -> int:
    """Lattice points of the polytope cut out by <m, ray> >= -a_ray.

    Brute force over the exact bounding box.  Errors out when the model
    has no rays, the divisor is not effective, or the polytope is
    unbounded (incomplete fan or degenerate divisor).
    """
    if model.rays is None:
        raise ValueError("lattice-point counting needs a ray-based model")
    coefficients = [int(a) for a in coefficients]
    if len(coefficients) != model.nvars:
        raise ValueError("divisor coefficient count mismatch")
    if any(a < 0 for a in coefficients):
        raise ValueError("divisor is not effective")
    ineqs = [(ray, -a) for ray, a in zip(model.rays, coefficients)]
    ranges = []
    for i in range(model.n):
        feasible, lo, hi = coordinate_interval(ineqs, model.n, i)
        if not feasible:
            return 0
        if lo is None or hi is None:
            raise ValueError(
                f"polytope is unbounded in coordinate {i}; model {model.name} "
                "is not complete or the divisor is degenerate"
            )
        ranges.append(range(ceil(lo), floor(hi) + 1))
    count = 0
    for point in product(*ranges):
        if all(
            sum(r * x for r, x in zip(ray, point)) >= -a
            for ray, a in zip(model.rays, coefficients)
        ):
            count += 1
    return count
