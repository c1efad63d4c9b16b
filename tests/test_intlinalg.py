import random
from fractions import Fraction

import pytest

from toricfol.intlinalg import (
    IntMatrix,
    cokernel,
    minor_gcds,
    smith_normal_form,
)
from toricfol.selfcheck import check_smith, random_int_matrix


def test_snf_identity():
    a = IntMatrix.identity(2)
    snf = smith_normal_form(a)
    assert snf.d == IntMatrix.identity(2)
    assert snf.u == IntMatrix.identity(2)
    assert snf.v == IntMatrix.identity(2)


def test_snf_torsion_surface_pairing():
    # pairing rows of the rays (2,-1), (-1,2), (-1,-1)
    a = IntMatrix.from_rows([(2, -1), (-1, 2), (-1, -1)])
    snf = smith_normal_form(a)
    assert snf.invariant_factors() == (1, 3)
    assert snf.u.mul(a).mul(snf.v) == snf.d


def test_snf_octahedron_pairing():
    rays = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    group = cokernel(IntMatrix.from_rows(rays))
    assert group.rank == 5
    assert group.torsion == (2, 2)


def test_snf_empty_and_zero():
    snf = smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))
    assert snf.invariant_factors() == (0, 0)
    empty = smith_normal_form(IntMatrix(()))
    assert empty.d.rows == 0


def test_cokernel_projective_plane():
    group = cokernel(IntMatrix.from_rows([(1, 0), (0, 1), (-1, -1)]))
    assert group.rank == 1
    assert group.torsion == ()
    degs = [group.reduce((1 if i == j else 0 for i in range(3))) for j in range(3)]
    frees = {d[0] for d in degs}
    assert len(frees) == 1  # all three variables share one degree generator
    assert abs(degs[0][0][0]) == 1


def test_cokernel_torsion_surface_degrees():
    group = cokernel(IntMatrix.from_rows([(2, -1), (-1, 2), (-1, -1)]))
    assert group.rank == 1
    assert group.torsion == (3,)
    # free parts all equal up to sign, residues exhaust Z/3 (up to automorphism)
    degs = [group.reduce((1 if i == j else 0 for i in range(3))) for j in range(3)]
    assert len({abs(d[0][0]) for d in degs}) == 1
    assert sorted(r for (_, (r,)) in degs) == [0, 1, 2]


def test_cokernel_projector_kills_image_columns():
    rng = random.Random(5)
    for _ in range(25):
        a = random_int_matrix(rng, max_dim=5)
        group = cokernel(a)
        for j in range(a.cols):
            free, residues = group.reduce(a.col(j))
            assert not any(free)
            assert not any(residues)


def test_cokernel_rank_counts_rays():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 3)
        rays = []
        for i in range(n):
            rays.append(tuple(1 if j == i else 0 for j in range(n)))
        for _ in range(rng.randint(1, 3)):
            rays.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        group = cokernel(IntMatrix.from_rows(rays))
        assert group.rank == len(rays) - n


def test_kernel_vectors_primitive_and_exact(family_models):
    # The radial fields are free rows of a unimodular transform: exact
    # relations among the rays that extend to a basis of Z^nvars.
    for model in family_models:
        if model.rays is None:
            continue
        a = IntMatrix.from_rows(model.rays).transpose()
        assert len(model.radial) == model.rank
        for vec in model.radial:
            assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in a.entries)
        factors = smith_normal_form(IntMatrix.from_rows(model.radial)).invariant_factors()
        assert factors == (1,) * model.rank
    # The ray relation of P(1,2,3) is its weight vector.
    from toricfol import weighted_projective

    assert weighted_projective(1, 2, 3).radial == ((1, 2, 3),)


def test_snf_random_properties():
    rng = random.Random(99)
    for _ in range(60):
        a = random_int_matrix(rng, max_dim=5, max_entry=5)
        assert check_smith(a) == []


def test_minor_gcds_known():
    a = IntMatrix.from_rows([(2, 0), (0, 4)])
    assert minor_gcds(a) == [2, 8]
    assert smith_normal_form(a).invariant_factors() == (2, 4)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(TypeError):
        IntMatrix(((1.5,),))
    with pytest.raises(ValueError):
        IntMatrix.identity(2).mul(IntMatrix.identity(3))


def test_determinant_bareiss():
    a = IntMatrix.from_rows([(2, 3, 1), (0, 1, -1), (4, 0, 2)])
    # cofactor expansion by hand: 2*(2-0) - 3*(0+4) + 1*(0-4) = -12
    assert a.det() == -12
    assert IntMatrix.from_rows([(1, 2), (2, 4)]).det() == 0


@pytest.mark.parametrize("entry", [1.5, 2.0, Fraction(3, 2)])
def test_from_rows_refuses_non_integers(entry):
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[entry, 2]])
