"""Seeded random inputs and property checks shared by the test modules.

``random_int_matrix`` and ``random_quasi_homogeneous`` draw test inputs
from a caller's seeded ``random.Random``; ``check_smith`` lists every
Smith decomposition invariant one matrix breaks; ``euler_suite`` runs the
radial derivative identity on random samples; ``default_models`` is the
small set of varieties the suites sweep.
"""

from __future__ import annotations

import random
from fractions import Fraction

from linalg_oracle import minor_gcds
from toricfol.families import multiprojective, rational_scroll, torsion_surface, weighted_projective
from toricfol.grading import monomials_of_degree
from toricfol.intlinalg import IntMatrix, smith_normal_form
from toricfol.model import ToricModel
from toricfol.normalform import euler_check
from toricfol.poly import Polynomial


def random_int_matrix(rng: random.Random, max_dim: int = 6, max_entry: int = 5) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)] for _ in range(rows)]
    )


def check_smith(a: IntMatrix) -> list[str]:
    """All decomposition invariants for one matrix; returns failure notes."""
    bad = []
    snf = smith_normal_form(a)
    if snf.u.mul(a).mul(snf.v) != snf.d:
        bad.append("U*A*V != D")
    if abs(snf.u.det()) != 1:
        bad.append("U not unimodular")
    if abs(snf.v.det()) != 1:
        bad.append("V not unimodular")
    factors = snf.invariant_factors()
    for i in range(len(factors) - 1):
        d1, d2 = factors[i], factors[i + 1]
        if d1 == 0 and d2 != 0:
            bad.append("zero factor before a nonzero one")
        if d1 != 0 and d2 % d1:
            bad.append(f"chain broken: {d1} does not divide {d2}")
    for i in range(snf.d.rows):
        for j in range(snf.d.cols):
            if i != j and snf.d.entries[i][j]:
                bad.append("D not diagonal")
    if any(f < 0 for f in factors):
        bad.append("negative invariant factor")
    gcds = minor_gcds(a)
    prod = 1
    for k, g in enumerate(gcds, start=1):
        prod = prod * factors[k - 1]
        if prod != g:
            bad.append(f"minor gcd mismatch at k={k}: product {prod} vs gcd {g}")
    return bad


def random_quasi_homogeneous(
    rng: random.Random, model: ToricModel, max_total_degree: int = 6, max_terms: int = 4
) -> Polynomial:
    """Nonzero quasi-homogeneous sample: random seed monomial, then a few
    random coefficients on its full degree piece."""
    nv = model.nvars
    while True:
        budget = rng.randint(1, max_total_degree)
        exps = [0] * nv
        for _ in range(budget):
            exps[rng.randrange(nv)] += 1
        alpha = model.monomial_degree(exps)
        basis = monomials_of_degree(model, alpha)
        if not basis:
            continue
        picked = rng.sample(basis, min(len(basis), rng.randint(1, max_terms)))
        terms = {}
        for m in picked:
            num = rng.choice([x for x in range(-5, 6) if x])
            terms[m] = Fraction(num, rng.randint(1, 3))
        return Polynomial(nv, terms)


def euler_suite(models, per_model: int = 50, seed: int = 7, max_total_degree: int = 6):
    """Radial derivative identity on random quasi-homogeneous samples."""
    rng = random.Random(seed)
    failures = []
    for model in models:
        for t in range(per_model):
            f = random_quasi_homogeneous(rng, model, max_total_degree)
            for i, holds in enumerate(euler_check(model, f)):
                if not holds:
                    failures.append(
                        f"{model.name} trial {t}: radial {i} fails on {f.to_string(model.variable_names)}"
                    )
    return failures


def default_models():
    return [
        weighted_projective(1, 1),
        weighted_projective(1, 2),
        weighted_projective(1, 2, 3),
        multiprojective(1, 1),
        multiprojective(2, 1),
        rational_scroll(1, 1),
        torsion_surface(),
    ]
