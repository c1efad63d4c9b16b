"""Seeded complete fans from ``stellar_fans`` against the brute-force oracles.

Every fan must build; its class group must match the invariant factors
that ``minor_gcds`` reads off its ray matrix; and lattice-point counting
must agree with monomial enumeration and the box walk on eight effective
divisors.
"""

import random
from functools import cache

import pytest
from grading_oracle import count_lattice_points_box
from linalg_oracle import minor_gcds

from stellar_fans import stellar_fan
from toricfol.grading import count_lattice_points, monomials_of_degree
from toricfol.intlinalg import IntMatrix
from toricfol.model import build_from_rays

FANS = [(n, seed) for n in (2, 3, 4) for seed in range(5)]


@cache
def fan_model(n: int, seed: int):
    rng = random.Random(f"{n}:{seed}")
    rays, cones = stellar_fan(rng, n, steps=rng.randint(1, 4), quotient=seed % 2 == 1)
    return rays, build_from_rays(n, rays, max_cones=cones, name=f"stellar-{n}-{seed}")


@pytest.mark.parametrize("n, seed", FANS)
def test_class_group_matches_the_minor_gcds(n, seed):
    rays, model = fan_model(n, seed)
    gcds = minor_gcds(IntMatrix.from_rows(rays))
    factors = [g // previous for previous, g in zip([1] + gcds, gcds)]
    assert model.class_group.rank == len(rays) - n
    assert model.class_group.torsion == tuple(d for d in factors if d > 1)


@pytest.mark.parametrize("n, seed", FANS)
def test_lattice_points_count_the_monomials(n, seed):
    rays, model = fan_model(n, seed)
    rng = random.Random(f"{n}:{seed}:divisors")
    for _ in range(8):
        coeffs = tuple(rng.randint(0, 2) for _ in rays)
        want = len(monomials_of_degree(model, model.monomial_degree(coeffs)))
        assert count_lattice_points(model, coeffs) == count_lattice_points_box(model, coeffs) == want, coeffs


def test_a_sparse_piece_on_the_rank_four_fan():
    # Z^4 + Z/5 + Z/5: two monomials among many splits of the functional,
    # since the fourth free coordinate has degrees of both signs.
    rays, model = fan_model(4, 3)
    assert model.class_group.rank == 4 and model.class_group.torsion == (5, 5)
    coeffs = (0, 1, 1, 1, 2, 1, 2, 2)
    basis = monomials_of_degree(model, model.monomial_degree(coeffs))
    assert len(basis) == count_lattice_points(model, coeffs) == count_lattice_points_box(model, coeffs) == 2


def test_fans_reach_torsion_and_picard_rank_three():
    groups = [fan_model(n, seed)[1].class_group for n, seed in FANS]
    assert any(g.torsion for g in groups)
    assert any(g.rank >= 3 and g.torsion for g in groups)
    assert max(g.rank for g in groups) >= 5
