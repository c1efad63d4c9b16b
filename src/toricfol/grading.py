"""Grading-aware polynomial queries: degrees, enumeration, lattice counts."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm

from .degrees import DegreeClass
from .model import ToricModel
from .halfspaces import coordinate_interval
from .poly import Polynomial, grevlex_key


def homogeneous_degree(model: ToricModel, f: Polynomial) -> DegreeClass | None:
    """Common degree of all terms of f, or None when terms disagree.

    The zero polynomial carries no degree at all and is rejected loudly,
    so callers can tell "no degree" apart from "mixed degrees".
    """
    if f.nvars != model.nvars:
        raise ValueError("variable count mismatch")
    if f.is_zero():
        raise ValueError("the zero polynomial has no degree")
    found: DegreeClass | None = None
    for m in f.terms:
        d = model.monomial_degree(m)
        if found is None:
            found = d
        elif d != found:
            return None
    return found


def is_quasi_homogeneous(model: ToricModel, f: Polynomial) -> bool:
    return (not f.is_zero()) and homogeneous_degree(model, f) is not None


def monomials_of_degree(
    model: ToricModel, alpha: DegreeClass, cap: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given degree class, largest first.

    Termination is certified by the model's positive grading functional;
    models without one (mixed-sign degrees that span a halfline) must be
    queried with an explicit exponent cap.
    """
    if len(alpha.free) != model.rank or alpha.moduli != model.moduli:
        raise ValueError("degree class belongs to a different grading group")
    nvars = model.nvars
    functional = model.positive_functional
    if functional is None and cap is None:
        raise ValueError(
            f"model {model.name} has no positive grading functional; "
            "supply an exponent cap explicitly"
        )

    if functional is not None:
        # Scaling the functional by a positive integer keeps every weight
        # positive and every quotient remaining // weight unchanged, and
        # turns the whole descent into integer arithmetic.
        scale = lcm(*(c.denominator for c in functional))
        functional = [int(c * scale) for c in functional]
        weights = [
            sum(c * x for c, x in zip(functional, d.free)) for d in model.degrees
        ]
        budget = sum(c * a for c, a in zip(functional, alpha.free))
        if budget < 0:
            return ()
    else:
        weights = [0] * nvars
        budget = 0

    free_target = list(alpha.free)
    out: list[tuple[int, ...]] = []
    exps = [0] * nvars

    def descend(j: int, remaining: int, free_acc: list[int]):
        if j == nvars:
            if free_acc == free_target:
                res = [
                    sum(e * d.residues[k] for e, d in zip(exps, model.degrees)) % t
                    for k, t in enumerate(model.moduli)
                ]
                if tuple(res) == alpha.residues:
                    out.append(tuple(exps))
            return
        top = remaining // weights[j] if functional is not None else cap
        d = model.degrees[j]
        for e in range(top + 1):
            exps[j] = e
            descend(
                j + 1,
                remaining - e * weights[j],
                [a + e * x for a, x in zip(free_acc, d.free)] if e else free_acc,
            )
        exps[j] = 0

    descend(0, budget, [0] * model.rank)
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
    ineqs = [
        (tuple(Fraction(x) for x in ray), Fraction(-a))
        for ray, a in zip(model.rays, coefficients)
    ]
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
