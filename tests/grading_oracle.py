"""Unpruned monomial enumeration, summed variable degrees and the box walk
of lattice points: the references the pruned descent, the degree-row kernel
and the slice-wise count are tested against."""

from __future__ import annotations

from math import lcm

from linalg_oracle import box_count
from poly_oracle import grevlex_key

from toricfol.degrees import DegreeClass


def degree_of_monomial(variable_degrees, exponents) -> DegreeClass:
    """Sum of exponent-weighted variable degrees."""
    if len(variable_degrees) != len(exponents):
        raise ValueError("exponent length mismatch")
    acc = DegreeClass.zero(len(variable_degrees[0].free), variable_degrees[0].moduli)
    for d, e in zip(variable_degrees, exponents):
        if e:
            acc = acc + d.scale(e)
    return acc


def monomials_of_degree_unpruned(model, alpha) -> tuple[tuple[int, ...], ...]:
    """Every exponent vector of degree alpha, largest first, by the plain walk.

    Visits every exponent vector whose (scaled) functional weight fits the
    budget and tests the degree only at the leaves.
    """
    if len(alpha.free) != model.rank or alpha.moduli != model.moduli:
        raise ValueError("degree class belongs to a different grading group")
    nvars = model.nvars
    scale = lcm(*(c.denominator for c in model.positive_functional))
    functional = [int(c * scale) for c in model.positive_functional]
    weights = [sum(c * x for c, x in zip(functional, d.free)) for d in model.degrees]
    budget = sum(c * a for c, a in zip(functional, alpha.free))
    if budget < 0:
        return ()

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
        top = remaining // weights[j]
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


def count_lattice_points_box(model, coefficients) -> int:
    """Lattice points of <m, ray> >= -a_ray by the box walk of ``box_count``."""
    return box_count([(ray, -a) for ray, a in zip(model.rays, coefficients)], model.n)
