"""Randomized property suites, shared by the test suite and the CLI selftest."""

from __future__ import annotations

import random
from fractions import Fraction

from .grading import count_lattice_points, homogeneous_degree, monomials_of_degree
from .intlinalg import IntMatrix, minor_gcds, smith_normal_form
from .model import ToricModel
from .normalform import euler_check
from .poly import Polynomial


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
    if not snf.u.is_unimodular():
        bad.append("U not unimodular")
    if not snf.v.is_unimodular():
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


def snf_suite(trials: int = 200, seed: int = 20240, max_dim: int = 6, max_entry: int = 5):
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        a = random_int_matrix(rng, max_dim, max_entry)
        bad = check_smith(a)
        if bad:
            failures.append(f"trial {t}: {'; '.join(bad)} on\n{a}")
    return failures


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


def additivity_suite(models, per_model: int = 25, seed: int = 11):
    rng = random.Random(seed)
    failures = []
    for model in models:
        for t in range(per_model):
            f = random_quasi_homogeneous(rng, model, 4)
            g = random_quasi_homogeneous(rng, model, 4)
            want = homogeneous_degree(model, f) + homogeneous_degree(model, g)
            got = homogeneous_degree(model, f * g)
            if got != want:
                failures.append(f"{model.name} trial {t}: {got} != {want}")
    return failures


def counting_suite(model: ToricModel, max_coefficient: int = 3, budget: int = 200):
    """Enumeration versus polytope lattice count on small effective divisors."""
    from itertools import product as iproduct

    failures = []
    ranges = [range(max_coefficient + 1)] * model.nvars
    seen = 0
    for coeffs in iproduct(*ranges):
        if seen >= budget:
            break
        seen += 1
        alpha = model.monomial_degree(coeffs)
        count = count_lattice_points(model, coeffs)
        enum = len(monomials_of_degree(model, alpha))
        if count != enum:
            failures.append(f"{model.name} divisor {coeffs}: {enum} monomials vs {count} points")
    return failures


def division_suite(models, per_model: int = 20, seed: int = 23):
    rng = random.Random(seed)
    failures = []
    for model in models:
        for t in range(per_model):
            q = random_quasi_homogeneous(rng, model, 3)
            den = random_quasi_homogeneous(rng, model, 3)
            got = (q * den).divide_exact(den)
            if got != q:
                failures.append(f"{model.name} trial {t}: quotient mismatch")
    return failures


def default_models():
    from .families import (
        multiprojective,
        rational_scroll,
        torsion_surface,
        weighted_projective,
    )

    return [
        weighted_projective(1, 1),
        weighted_projective(1, 2),
        weighted_projective(1, 2, 3),
        multiprojective(1, 1),
        multiprojective(2, 1),
        rational_scroll(1, 1),
        torsion_surface(),
    ]


def run_all(fast: bool = False):
    """name -> (ok, detail); fast mode shrinks the random sample sizes."""
    models = default_models()
    trials = 60 if fast else 200
    per = 10 if fast else 50
    suites = {
        "smith_normal_form": snf_suite(trials=trials),
        "euler_identity": euler_suite(models, per_model=per),
        "degree_additivity": additivity_suite(models, per_model=max(5, per // 2)),
        "exact_division": division_suite(models, per_model=max(5, per // 2)),
        "lattice_counting": counting_suite(models[0], max_coefficient=2, budget=30)
        + counting_suite(models[3], max_coefficient=2, budget=30)
        + counting_suite(models[6], max_coefficient=2, budget=30),
    }
    return {
        name: (not failures, failures[:3]) for name, failures in suites.items()
    }
