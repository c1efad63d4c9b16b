import random
from fractions import Fraction

import pytest
from grading_oracle import degree_of_monomial

from toricfol.degrees import DegreeClass
from toricfol.foliation import (
    DegreeInconsistencyError,
    VectorField,
    component_degree_candidates,
    foliation_degree,
    invariance_cofactor,
    lie_g_membership,
    singular_scheme_minors,
)
from toricfol.grading import homogeneous_degree, monomials_of_degree
from toricfol.poly import Polynomial
from toricfol.selfcheck import random_quasi_homogeneous


def test_foliation_degree_biproj_pairs():
    from toricfol.families import biproj_pairs_fixture

    fix = biproj_pairs_fixture(3, [1, 2], [1, 1])
    assert foliation_degree(fix.model, fix.field) == DegreeClass((1, 1))


def test_foliation_degree_torsion_fermat():
    from toricfol.families import torsion_fermat_fixture

    for m in (3, 6):
        fix = torsion_fermat_fixture(m)
        assert foliation_degree(fix.model, fix.field) == DegreeClass((m - 1,), (0,), (3,))


def test_foliation_degree_inconsistent_pair_reported():
    from toricfol.families import monomial_hypersurface_fixture

    fix = monomial_hypersurface_fixture(1, 1)
    with pytest.raises(DegreeInconsistencyError) as err:
        foliation_degree(fix.model, fix.field)
    forced = dict(err.value.conflicts)
    assert forced[0] == DegreeClass((0, 2))
    assert forced[2] == DegreeClass((2, 0))


def test_foliation_degree_zero_field():
    from toricfol.families import multiprojective

    model = multiprojective(1, 1)
    with pytest.raises(ValueError):
        foliation_degree(model, VectorField.zero(4))


def test_radial_application_is_euler(family_models):
    rng = random.Random(8)
    for model in family_models:
        for _ in range(6):
            f = random_quasi_homogeneous(rng, model, 5)
            alpha = homogeneous_degree(model, f)
            for i in range(model.rank):
                radial = VectorField.radial(model, i)
                assert radial.apply_to(f) == f.scale(model.theta(i, alpha))


def test_apply_to_wps_pairs_cancels():
    from toricfol.families import wps_pairs_fixture

    fix = wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2))
    assert fix.field.apply_to(fix.hypersurface).is_zero()


def test_apply_to_torsion_fermat_cancels():
    from toricfol.families import torsion_fermat_fixture

    fix = torsion_fermat_fixture(3)
    assert fix.field.apply_to(fix.hypersurface).is_zero()


def test_invariance_cofactor_monomial_case():
    from toricfol.families import monomial_hypersurface_fixture

    for a, b in ((1, 1), (2, 3), (5, 5)):
        fix = monomial_hypersurface_fixture(a, b)
        g = invariance_cofactor(fix.model, fix.field, fix.hypersurface)
        want = Polynomial(4, {(0, 0, 0, 2): a, (0, 2, 0, 0): b})
        assert g == want
        # the cofactor inherits the field's degree defect: its two terms
        # force (0,2) and (2,0), so it is not quasi-homogeneous either
        assert homogeneous_degree(fix.model, g) is None


def test_invariance_cofactor_absent():
    from toricfol.families import multiprojective

    model = multiprojective(1, 1)
    x = VectorField.from_components(4, {0: Polynomial.variable(4, 1)})
    f = Polynomial.variable(4, 0)
    assert invariance_cofactor(model, x, f) is None


def test_cofactor_linearity(p1p1):
    rng = random.Random(15)
    f = Polynomial(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    r1 = VectorField.radial(p1p1, 0)
    r2 = VectorField.radial(p1p1, 1)
    g1 = invariance_cofactor(p1p1, r1, f)
    g2 = invariance_cofactor(p1p1, r2, f)
    both = invariance_cofactor(p1p1, r1 + r2, f)
    assert both == g1 + g2


def test_cofactor_of_radial_is_theta(family_models):
    rng = random.Random(16)
    for model in family_models:
        f = random_quasi_homogeneous(rng, model, 4)
        alpha = homogeneous_degree(model, f)
        for i in range(model.rank):
            g = invariance_cofactor(model, VectorField.radial(model, i), f)
            assert g == Polynomial.constant(model.nvars, model.theta(i, alpha))


def test_lie_membership_radial(p1p1):
    member, witness = lie_g_membership(p1p1, VectorField.radial(p1p1, 0))
    assert member
    assert witness[0] == Polynomial.constant(4, 1)
    assert witness[1].is_zero()


def test_lie_membership_constructed(p2):
    f = Polynomial(3, {(1, 1, 0): 1})  # z0 z1
    scaled = VectorField(
        tuple(f * Polynomial.variable(3, j) for j in range(3))
    )
    member, witness = lie_g_membership(p2, scaled)
    assert member
    assert witness[0] == f


def test_lie_membership_several_monomials(p1p1):
    # X = g0 R0 + g1 R1 with g0 and g1 of several terms, one a Fraction:
    # each monomial is one solve against the same radial rows, and since
    # the radial fields are independent the witness is (g0, g1).
    g0 = Polynomial(4, {(1, 0, 1, 0): 2, (0, 1, 0, 1): -1, (1, 0, 0, 1): Fraction(1, 3)})
    g1 = Polynomial(4, {(1, 0, 1, 0): 1, (0, 1, 1, 0): 5})
    field = VectorField(
        tuple(
            g0 * Polynomial.variable(4, j, coeff=p1p1.radial[0][j])
            + g1 * Polynomial.variable(4, j, coeff=p1p1.radial[1][j])
            for j in range(4)
        )
    )
    assert lie_g_membership(p1p1, field) == (True, [g0, g1])


def test_lie_membership_rejected():
    from toricfol.families import torsion_fermat_fixture

    fix = torsion_fermat_fixture(3)
    member, witness = lie_g_membership(fix.model, fix.field)
    assert not member and witness is None


def test_degree_invariant_under_radial_shift(family_models):
    # adding g * R_i with deg(g) equal to the twist never changes the twist
    rng = random.Random(21)
    for model in family_models:
        nv = model.nvars
        g = random_quasi_homogeneous(rng, model, 3)
        d = homogeneous_degree(model, g)
        base = VectorField(
            tuple(g * Polynomial.variable(nv, j, coeff=j + 1) for j in range(nv))
        )
        assert foliation_degree(model, base) == d
        radial_shift = VectorField(
            tuple(
                g * Polynomial.variable(nv, j, coeff=model.radial[0][j])
                for j in range(nv)
            )
        )
        assert foliation_degree(model, base + radial_shift) == d


def test_minors_projective_plane(p2):
    x = VectorField.from_components(3, {0: Polynomial.variable(3, 1)})
    minors = singular_scheme_minors(p2, x)
    z0, z1, z2 = (Polynomial.variable(3, j) for j in range(3))
    assert minors == [-(z1 * z1), -(z1 * z2), Polynomial.zero(3)]


def test_minors_of_radial_vanish(p1p1):
    minors = singular_scheme_minors(p1p1, VectorField.radial(p1p1, 0))
    assert all(m.is_zero() for m in minors)


def test_minor_count_matches_combinations(scroll11):
    x = VectorField.from_components(4, {0: Polynomial.variable(4, 2)})
    minors = singular_scheme_minors(scroll11, x)
    assert len(minors) == 4  # C(4, 3)


def test_lie_membership_reuses_a_given_degree():
    from toricfol.families import biproj_pairs_fixture, monomial_hypersurface_fixture, torsion_fermat_fixture

    for fix in (biproj_pairs_fixture(3, [1, 2], [1, 1]), torsion_fermat_fixture(3)):
        d = foliation_degree(fix.model, fix.field)
        assert lie_g_membership(fix.model, fix.field, d) == lie_g_membership(fix.model, fix.field)
    # a direct call without a degree still validates the field
    bad = monomial_hypersurface_fixture(1, 1)
    with pytest.raises(DegreeInconsistencyError):
        lie_g_membership(bad.model, bad.field)
    with pytest.raises(ValueError):
        lie_g_membership(bad.model, VectorField.zero(bad.model.nvars))


def _fields_to_divide():
    """Every fixture field of the modular tests, and on every family model
    a radial multiple g * R_i and a field of degree zero whose component
    j is a random form of degree deg z_j, so that components lacking
    their variable and both answers of the membership test occur."""
    from test_modular import FIXTURES
    from toricfol.grading import monomials_of_degree
    from toricfol.selfcheck import default_models

    fields = [(fix.model, fix.field) for fix in FIXTURES]
    rng = random.Random(12)
    for model in default_models():
        nv = model.nvars
        for i in range(model.rank):
            g = random_quasi_homogeneous(rng, model, 3)
            radial = VectorField.radial(model, i)
            fields.append((model, VectorField(tuple(g * p for p in radial.components))))
        comps = []
        for j in range(nv):
            basis = monomials_of_degree(model, model.monomial_degree([int(i == j) for i in range(nv)]))
            comps.append(Polynomial(nv, {m: rng.choice([-2, -1, 1, 3]) for m in basis}))
        fields.append((model, VectorField(tuple(comps))))
    return fields


def _membership(model, field):
    try:
        return lie_g_membership(model, field)
    except ValueError as exc:
        return type(exc)


def test_division_by_a_variable_matches_divide_exact(monkeypatch):
    import toricfol.foliation as foliation

    lacking = divided = 0
    fields = _fields_to_divide()
    for _, field in fields:
        nv = field.nvars
        for j, p in enumerate(field.components):
            if p.is_zero():
                continue
            want = p.divide_exact(Polynomial.variable(nv, j))
            assert foliation._divide_by_variable(p, j) == want
            lacking += want is None
            divided += want is not None
    assert lacking >= 10 and divided >= 20, (lacking, divided)
    got = [_membership(model, field) for model, field in fields]
    monkeypatch.setattr(
        foliation, "_divide_by_variable", lambda p, j: p.divide_exact(Polynomial.variable(p.nvars, j))
    )
    assert got == [_membership(model, field) for model, field in fields]
    answers = [g[0] for g in got if type(g) is tuple]
    assert sum(answers) >= 10 and answers.count(False) >= 5, answers


# -- component degrees against degrees summed from the variable degrees ------


def _oracle_candidates(model, field):
    """``component_degree_candidates`` as first written, each term's degree
    summed from the variable degrees by ``degree_of_monomial``."""
    out = []
    for j in field.support():
        found = {degree_of_monomial(model.degrees, m) for m in field.components[j].terms}
        if len(found) != 1:
            raise ValueError(f"component {j} is not quasi-homogeneous")
        out.append((j, found.pop() - model.degrees[j]))
    return out


def _oracle_degree(model, field):
    candidates = _oracle_candidates(model, field)
    if not candidates:
        raise ValueError("the zero vector field has no degree")
    first_j, d = candidates[0]
    for j, dj in candidates[1:]:
        if dj != d:
            raise DegreeInconsistencyError([(first_j, d), (j, dj)])
    return d


def _outcome(fn, model, field):
    try:
        return fn(model, field)
    except ValueError as exc:
        return type(exc), str(exc)


def _seeded_fields(rng, model):
    """(kind, field) pairs: consistent fields z_j * h_j with every h_j of one
    degree, the same with one component times a variable (inconsistent) or
    plus such a multiple (not quasi-homogeneous), and the zero field."""
    nv = model.nvars
    z = [Polynomial.variable(nv, j) for j in range(nv)]
    out = [("zero", VectorField.zero(nv))]
    for _ in range(3):
        exps = [0] * nv
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(nv)] += 1
        basis = monomials_of_degree(model, model.monomial_degree(exps))
        support = rng.sample(range(nv), rng.randint(2, min(nv, 4)))
        comps = {
            j: z[j] * Polynomial(nv, {m: rng.choice([-3, -1, 1, Fraction(1, 2)]) for m in rng.sample(basis, min(len(basis), 3))})
            for j in support
        }
        out.append(("consistent", VectorField.from_components(nv, comps)))
        j, k = support[-1], rng.randrange(nv)
        out.append(("inconsistent", VectorField.from_components(nv, {**comps, j: comps[j] * z[k]})))
        out.append(("mixed", VectorField.from_components(nv, {**comps, j: comps[j] + comps[j] * z[k]})))
    return out


def test_component_degrees_match_the_summed_oracle(family_models):
    from test_grading import fixture_models
    from test_stellar_fans import FANS, fan_model

    models = family_models + fixture_models() + [fan_model(n, seed)[1] for n, seed in FANS]
    assert any(m.moduli for m in models) and any(m.rank >= 3 for m in models)
    rng = random.Random(28)
    kinds = {"zero": 0, "consistent": 0, "inconsistent": 0, "mixed": 0, "torsion": 0}
    for model in models:
        for kind, field in _seeded_fields(rng, model):
            want = _outcome(_oracle_degree, model, field)
            assert _outcome(foliation_degree, model, field) == want
            assert _outcome(component_degree_candidates, model, field) == _outcome(_oracle_candidates, model, field)
            if kind == "consistent":
                assert isinstance(want, DegreeClass)
                got = foliation_degree(model, field)
                assert hash(got) == hash(want) and type(got.free) is tuple and type(got.residues) is tuple
                kinds["torsion"] += bool(model.moduli)
            else:
                error = {"zero": ValueError, "inconsistent": DegreeInconsistencyError, "mixed": ValueError}[kind]
                assert want[0] is error, (kind, want)
            kinds[kind] += 1
    assert min(kinds.values()) >= 5, kinds
