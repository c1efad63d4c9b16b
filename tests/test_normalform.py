import random
from dataclasses import replace
from fractions import Fraction

import pytest
from test_ratlinalg import KOSZUL_FIXTURES, _koszul_fields

from toricfol.families import FIXTURE_BUILDERS

from toricfol.degrees import DegreeClass
from toricfol.foliation import VectorField, invariance_cofactor
from toricfol.grading import homogeneous_degree, monomials_of_degree
from toricfol.normalform import (
    DecompositionError,
    KoszulDecomposition,
    euler_check,
    koszul_decompose,
    pair_degree,
    reconstruct,
    verify_decomposition,
)
from toricfol.poly import Polynomial
from toricfol.selfcheck import random_quasi_homogeneous


def test_euler_check_monomials(family_models):
    rng = random.Random(40)
    for model in family_models:
        f = random_quasi_homogeneous(rng, model, 4)
        assert all(euler_check(model, f))


def test_euler_check_fermat_surface(surface_z3):
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert euler_check(surface_z3, f) == [True]
    assert surface_z3.theta(0, homogeneous_degree(surface_z3, f)) == 3


def test_euler_check_random_product(p1p1):
    rng = random.Random(41)
    for _ in range(5):
        f = random_quasi_homogeneous(rng, p1p1, 4)
        assert euler_check(p1p1, f) == [True, True]


def test_torsion_fermat_published_coefficients_verify():
    from toricfol.families import torsion_fermat_fixture

    fix = torsion_fermat_fixture(3)
    model, f = fix.model, fix.hypersurface
    third = Fraction(-1, 3)
    dec = KoszulDecomposition(
        index_set=(0, 1, 2),
        pairs=(
            ((0, 1), Polynomial(3, {(0, 1, 0): third})),
            ((0, 2), Polynomial.zero(3)),
            ((1, 2), Polynomial(3, {(1, 0, 0): third})),
        ),
        cofactor=Polynomial.zero(3),
        radial_index=0,
        theta_value=3,
    )
    assert verify_decomposition(model, f, fix.field, dec)

    flipped = KoszulDecomposition(
        index_set=(0, 1, 2),
        pairs=(
            ((0, 1), Polynomial(3, {(0, 1, 0): -third})),
            ((0, 2), Polynomial.zero(3)),
            ((1, 2), Polynomial(3, {(1, 0, 0): third})),
        ),
        cofactor=Polynomial.zero(3),
        radial_index=0,
        theta_value=3,
    )
    assert not verify_decomposition(model, f, fix.field, flipped)


def test_zero_decomposition_verifies_zero_field(p2):
    f = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    dec = KoszulDecomposition(
        index_set=(0, 1, 2),
        pairs=(),
        cofactor=Polynomial.zero(3),
        radial_index=0,
        theta_value=2,
    )
    assert verify_decomposition(p2, f, VectorField.zero(3), dec)


def test_solver_round_trip_torsion_fermat():
    from toricfol.families import torsion_fermat_fixture

    for m in (3, 6):
        fix = torsion_fermat_fixture(m)
        dec = koszul_decompose(fix.model, fix.hypersurface, fix.field)
        assert verify_decomposition(fix.model, fix.hypersurface, fix.field, dec)
        assert dec.cofactor.is_zero()
        got = reconstruct(fix.model, fix.hypersurface, dec)
        assert all(a == b for a, b in zip(got.components, fix.field.components))


def test_solver_on_radial_field(surface_z3):
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    radial = VectorField.radial(surface_z3, 0)
    dec = koszul_decompose(surface_z3, f, radial)
    assert all(p.is_zero() for _, p in dec.pairs)
    assert dec.cofactor == Polynomial.constant(3, 3)  # theta(alpha) * 1
    assert verify_decomposition(surface_z3, f, radial, dec)


def test_solver_subset_split_field():
    from toricfol.families import split_field_fixture

    fix = split_field_fixture(1, 2, (1, 1))
    x1 = fix.field_parts[0]
    dec = koszul_decompose(
        fix.model, fix.hypersurface, x1, radial_index=0, index_set=fix.subset
    )
    assert dec.cofactor.is_zero()
    assert verify_decomposition(fix.model, fix.hypersurface, x1, dec)
    # single pair on a two-index set; the coefficient is forced
    assert dec.pair(0, 1) == Polynomial(4, {(2, 0, 0, 0): -1})


def test_degree_law_on_solver_output():
    from toricfol.families import torsion_fermat_fixture

    fix = torsion_fermat_fixture(3)
    model, f = fix.model, fix.hypersurface
    dec = koszul_decompose(model, f, fix.field)
    alpha = homogeneous_degree(model, f)
    d = DegreeClass((2,), (0,), (3,))
    for (j, k), p in dec.pairs:
        if p.is_zero():
            continue
        assert homogeneous_degree(model, p) == pair_degree(model, d, alpha, j, k)


def test_cofactor_consistency():
    from toricfol.families import split_field_fixture, torsion_fermat_fixture

    fer = torsion_fermat_fixture(3)
    dec = koszul_decompose(fer.model, fer.hypersurface, fer.field)
    assert dec.cofactor == invariance_cofactor(fer.model, fer.field, fer.hypersurface)


def test_solver_full_index_four_variables():
    # full-slot decompositions on products and weighted spaces
    from toricfol.families import biproj_pairs_fixture, wps_pairs_fixture

    for fix, idx in (
        (biproj_pairs_fixture(1, [1], [1]), 0),
        (biproj_pairs_fixture(1, [2], [Fraction(1, 3)]), 1),
        (wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)), 0),
    ):
        dec = koszul_decompose(fix.model, fix.hypersurface, fix.field, radial_index=idx)
        assert verify_decomposition(fix.model, fix.hypersurface, fix.field, dec)


def test_solver_round_trip_on_constructed_fields(family_models):
    # build X = sum Q_jk (df_j d_k - df_k d_j) + h * R_0 from random pieces;
    # such a field is invariant by construction with cofactor theta * h, and
    # the solver must always find some exact decomposition back
    from toricfol.grading import monomials_of_degree

    rng = random.Random(71)
    for model in family_models:
        nv = model.nvars
        trials = 0
        while trials < 3:
            f = random_quasi_homogeneous(rng, model, 3)
            alpha = homogeneous_degree(model, f)
            if model.theta(0, alpha) == 0:
                continue
            trials += 1
            theta = model.theta(0, alpha)
            partials = [f.partial_derivative(j) for j in range(nv)]
            comps = [Polynomial.zero(nv) for _ in range(nv)]
            used = False
            for j in range(nv):
                for k in range(j + 1, nv):
                    delta = alpha + model.degrees[j] + model.degrees[k] - alpha
                    basis = monomials_of_degree(model, delta)
                    if not basis or rng.random() < 0.4:
                        continue
                    q = Polynomial(nv, {rng.choice(basis): Fraction(rng.randint(-2, 2))})
                    if q.is_zero():
                        continue
                    used = True
                    comps[k] = comps[k] + q * partials[j]
                    comps[j] = comps[j] - q * partials[k]
            h_basis = monomials_of_degree(model, alpha)
            h = Polynomial(nv, {rng.choice(h_basis): Fraction(rng.randint(1, 3))})
            for j in range(nv):
                comps[j] = comps[j] + h * Polynomial.variable(
                    nv, j, coeff=model.radial[0][j]
                )
            x = VectorField(tuple(comps))
            if x.is_zero():
                continue
            dec = koszul_decompose(model, f, x, radial_index=0)
            assert verify_decomposition(model, f, x, dec), model.name
            assert dec.cofactor == h.scale(theta)


def test_decompose_requires_invariance(p2):
    f = Polynomial.variable(3, 0)
    x = VectorField.from_components(3, {0: Polynomial.variable(3, 1)})
    with pytest.raises(ValueError):
        koszul_decompose(p2, f, x)


def test_decompose_rejects_zero_theta(p1p1):
    f = Polynomial(4, {(0, 0, 1, 1): 1})  # degree (0, 2): first Euler factor is 0
    radial2 = VectorField.radial(p1p1, 1)
    with pytest.raises(ValueError, match="^radial field 1 has zero Euler factor"):
        koszul_decompose(p1p1, f, radial2, radial_index=0)
    dec = koszul_decompose(p1p1, f, radial2, radial_index=1)
    assert dec.cofactor == Polynomial.constant(4, 2)


def test_decompose_rejects_field_outside_subset(p1p1):
    f = Polynomial(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    x = VectorField.from_components(4, {2: Polynomial.variable(4, 2)})
    with pytest.raises(ValueError):
        koszul_decompose(p1p1, f, x, radial_index=0, index_set=(0, 1))


def test_decompose_rejects_radial_not_on_subset(p1p1):
    f = Polynomial(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    x = VectorField.from_components(4, {0: Polynomial.variable(4, 0)})
    with pytest.raises(ValueError, match="^radial field 2 is not supported on the index set$"):
        koszul_decompose(p1p1, f, x, radial_index=1, index_set=(0, 1))


def test_decompose_without_pair_columns_raises(p1p1):
    # On P^1 x P^1 the invariant field z0 z3^2 d/dz0 of f = z0^2 z2^3 forces
    # every pair coefficient into a negative degree, so the system has no
    # columns, while its residual -z1 z3^2 d/dz1 is nonzero.
    f = Polynomial(4, {(2, 0, 3, 0): 1})
    field = VectorField.from_components(4, {0: Polynomial(4, {(1, 0, 0, 2): 1})})
    for _ in range(2):  # a miss, then a hit on the stored system
        with pytest.raises(DecompositionError) as info:
            koszul_decompose(p1p1, f, field)
        assert info.value.residual == {"z1_1": "-z1_1*z2_1^2"}


@pytest.mark.parametrize(
    "name,args",
    [
        ("wps-pairs", ((1, 2, 1, 2), (4, 2, 4, 2))),
        ("wps-pairs", ((1, 1, 1), (4, 4, 4))),
        ("biproj-pairs", (1, [2], [Fraction(1, 3)])),
        ("biproj-pairs", (3, [2, 1], [1, 1])),
        ("torsion-fermat", (3,)),
        ("torsion-fermat", (6,)),
        ("split-field", (2, 1, (1, 2))),
    ],
    ids=str,
)
def test_pair_coefficients_are_canonical(name, args):
    # The pairs are built without re-validation from the solver's values,
    # so a float or an integral Fraction would pass into them unnoticed.
    # The monomial-hypersurface family breaks the hypotheses and has no
    # decomposition to check.
    from toricfol.families import FIXTURE_BUILDERS

    fix = FIXTURE_BUILDERS[name](*args)
    field = fix.field if fix.subset is None else fix.field.restrict(fix.subset)
    dec = koszul_decompose(
        fix.model, fix.hypersurface, field, radial_index=fix.radial_index, index_set=fix.subset
    )
    assert verify_decomposition(fix.model, fix.hypersurface, field, dec)
    for _, p in dec.pairs:
        for c in p.terms.values():
            assert c and (type(c) is int or (type(c) is Fraction and c.denominator > 1)), (name, c)


@pytest.mark.parametrize(
    "kwargs,named",
    [
        ({"index_set": [0, 1, 2, 3, 7]}, "7"),
        ({"index_set": [0, 7]}, "7"),
        ({"radial_index": 5}, "5"),
    ],
    ids=["index-past-the-variables", "index-set-with-stray-entry", "radial-index-past-the-rank"],
)
def test_decompose_rejects_out_of_range_indices(kwargs, named):
    from toricfol.families import biproj_pairs_fixture

    fix = biproj_pairs_fixture(1, [1], [1])
    with pytest.raises(ValueError, match=rf"\b{named}\b.*outside range|outside range.*\b{named}\b"):
        koszul_decompose(fix.model, fix.hypersurface, fix.field, **kwargs)


def test_decompose_enumerates_each_pair_degree_once(monkeypatch):
    # On P^1 x P^1 the four mixed pairs share one degree: six pairs, three
    # degrees.  On P(1,2,1,2) the pairs (z1,z2) and (z2,z3) reach the same
    # degree from the variable degrees (1,2) and (2,1): again three.
    from toricfol import normalform
    from toricfol.families import biproj_pairs_fixture, wps_pairs_fixture

    # A second decomposition with the same hypersurface, twist and index
    # set reuses the model's stored system: it enumerates no basis and
    # eliminates no rows.
    calls, eliminations = [], []
    enumerate_monomials = normalform.monomials_of_degree
    eliminate = normalform.Elimination

    def counting(model, alpha):
        calls.append(alpha)
        return enumerate_monomials(model, alpha)

    def counting_rows(rows, ncols):
        eliminations.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(normalform, "monomials_of_degree", counting)
    monkeypatch.setattr(normalform, "Elimination", counting_rows)
    for fix in (biproj_pairs_fixture(1, [1], [1]), wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2))):
        calls.clear()
        eliminations.clear()
        dec = koszul_decompose(fix.model, fix.hypersurface, fix.field)
        assert len(dec.pairs) == 6
        assert len(calls) == len(set(calls)) == 3, fix.name
        assert len(eliminations) == 1
        twin = fix.field + fix.field  # another field of the same degree
        again = koszul_decompose(fix.model, fix.hypersurface, twin)
        assert len(calls) == 3 and len(eliminations) == 1, fix.name
        assert again == _fresh_decompose(fix.model, fix.hypersurface, twin)


def _decompose_or_residual(model, f, field, **kwargs):
    try:
        return koszul_decompose(model, f, field, **kwargs)
    except DecompositionError as exc:
        return exc.residual


def _fresh_decompose(model, f, field, **kwargs):
    """The decomposition on a new copy of the model, which holds no system."""
    return _decompose_or_residual(replace(model), f, field, **kwargs)


@pytest.mark.parametrize("name,args", KOSZUL_FIXTURES, ids=str)
def test_decomposition_on_a_warm_model_equals_a_fresh_one(name, args):
    # Every field is decomposed twice in a row on the fixture's one model:
    # a miss (the model may hold another field's system), then a hit.
    fix = FIXTURE_BUILDERS[name](*args)
    kwargs = {"radial_index": fix.radial_index, "index_set": fix.subset}
    for field in _koszul_fields(fix):
        want = _fresh_decompose(fix.model, fix.hypersurface, field, **kwargs)
        for _ in range(2):
            assert _decompose_or_residual(fix.model, fix.hypersurface, field, **kwargs) == want


def _roundtrip_field(rng, model, f, twist, indices):
    """sum P_jk (f_j d_k - f_k d_j) + (g/theta) R_0 on the index set, with
    seeded P_jk and g of their forced degrees."""
    alpha = homogeneous_degree(model, f)

    def seeded(delta):
        basis = monomials_of_degree(model, delta)
        picked = rng.sample(basis, min(len(basis), 3))
        return Polynomial(model.nvars, {m: rng.randint(1, 5) for m in picked})

    pairs = [
        ((j, k), seeded(pair_degree(model, twist, alpha, j, k)))
        for a, j in enumerate(indices)
        for k in indices[a + 1 :]
    ]
    dec = KoszulDecomposition(indices, tuple(pairs), seeded(twist), 0, model.theta(0, alpha))
    return reconstruct(model, f, dec)


def test_interleaved_keys_never_share_a_system():
    # On one P^1 x P^1, alternate between two hypersurfaces, two twists and
    # index sets; radial field 0 lives on {z1_0, z1_1}, so every index set
    # carries it.  f3 = (z1_0^2 + z1_1^2)(z2_0 + z2_1)^2 has equal partials
    # in z2_0 and z2_1, so on (0, 1, 2) and (0, 1, 3) the systems differ
    # only in which slot each row belongs to.  Each decomposition equals
    # the one on a fresh model.
    from toricfol import multiprojective

    rng = random.Random(26)
    model = multiprojective(1, 1)
    f1 = Polynomial(4, {(2, 0, 2, 0): 1, (0, 2, 0, 2): 1, (1, 1, 1, 1): 3})
    f2 = Polynomial(4, {(2, 0, 0, 2): 2, (0, 2, 2, 0): 1})
    square = Polynomial(4, {(0, 0, 2, 0): 1, (0, 0, 1, 1): 2, (0, 0, 0, 2): 1})
    f3 = Polynomial(4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1}) * square
    full, pair = (0, 1, 2, 3), (0, 1)
    keys = [
        (f1, DegreeClass((1, 1)), full),
        (f2, DegreeClass((1, 1)), full),
        (f1, DegreeClass((2, 1)), full),
        (f1, DegreeClass((1, 1)), pair),
        (f1, DegreeClass((0, 0)), pair),
        (f3, DegreeClass((1, 1)), (0, 1, 2)),
        (f3, DegreeClass((1, 1)), (0, 1, 3)),
    ]
    fields = [(f, _roundtrip_field(rng, model, f, twist, indices), indices) for f, twist, indices in keys]
    for f, field, indices in fields + fields[::-1] + fields:
        dec = koszul_decompose(model, f, field, index_set=indices)
        assert dec == _fresh_decompose(model, f, field, index_set=indices)
        assert verify_decomposition(model, f, field, dec)
        assert len(model._koszul_system) == 1  # only the last system is kept
