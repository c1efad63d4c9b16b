import random
import re
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from toricfol.degrees import DegreeClass
from toricfol.grading import homogeneous_degree, monomials_of_degree
from toricfol.intlinalg import IntMatrix, cokernel
from toricfol.model import build_from_pairing_rows, build_from_presentation, build_from_rays
from toricfol.selfcheck import random_quasi_homogeneous


def test_projective_plane_from_rays(p2):
    assert p2.variable_names == ("z0", "z1", "z2")
    assert p2.class_group.describe() == "Z"
    assert [d.free for d in p2.degrees] == [(1,), (1,), (1,)]
    assert p2.radial[0] == (1, 1, 1)


def test_torsion_surface_from_rays(surface_z3):
    assert surface_z3.class_group.rank == 1
    assert surface_z3.moduli == (3,)
    assert [str(d) for d in surface_z3.degrees] == ["(1,[0])", "(1,[2])", "(1,[1])"]
    assert surface_z3.radial[0] == (1, 1, 1)


def test_product_line_from_rays(p1p1):
    assert p1p1.class_group.describe() == "Z^2"
    assert [d.free for d in p1p1.degrees] == [(1, 0), (1, 0), (0, 1), (0, 1)]


def test_scroll_presentation(scroll11):
    assert [d.free for d in scroll11.degrees] == [(1, 0), (1, 0), (-1, 1), (-1, 1)]
    assert scroll11.radial[0] == (1, 1, -1, -1)
    assert scroll11.radial[1] == (0, 0, 1, 1)


def test_presentation_weights_give_radial():
    model = build_from_presentation(2, [DegreeClass((w,)) for w in (1, 1, 2)])
    assert model.radial[0] == (1, 1, 2)


def test_presentation_rank_deficiency_rejected():
    with pytest.raises(ValueError):
        build_from_presentation(1, [DegreeClass((1, 1)), DegreeClass((2, 2)), DegreeClass((0, 0))])


def test_rays_validation():
    with pytest.raises(ValueError):  # non-primitive
        build_from_rays(2, [(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(ValueError):  # duplicate
        build_from_rays(2, [(1, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):  # not spanning
        build_from_rays(2, [(1, 0), (-1, 0)])
    with pytest.raises(ValueError):  # principal divisor (degree zero variable)
        build_from_rays(2, [(1, 0), (-1, 0), (0, 1)])


def test_radial_fields_are_ray_relations(family_models):
    for model in family_models:
        if model.rays is None:
            continue
        for field in model.radial:
            for coord in range(model.n):
                assert sum(a * ray[coord] for a, ray in zip(field, model.rays)) == 0


def test_theta_on_weighted_space():
    from toricfol import weighted_projective

    model = weighted_projective(1, 2, 3)
    for d in (0, 1, 5, 12):
        assert model.theta(0, DegreeClass((d,))) == d


def test_theta_on_torsion_surface(surface_z3):
    assert surface_z3.theta(0, DegreeClass((6,), (0,), (3,))) == 6
    assert surface_z3.theta(0, DegreeClass.zero(1, (3,))) == 0


def test_theta_torsion_only_class_is_still_realizable(surface_z3):
    # (0,[1]) is hit by the Laurent monomial z1/z2: representatives may
    # have negative entries, the Euler factor is well defined regardless.
    assert surface_z3.theta(0, DegreeClass((0,), (1,), (3,))) == 0


def _fixture_models():
    from toricfol.families import (
        biproj_pairs_fixture,
        monomial_hypersurface_fixture,
        octahedron_rays,
        split_field_fixture,
        torsion_fermat_fixture,
        wps_pairs_fixture,
    )

    fixtures = [
        wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
        wps_pairs_fixture((1, 1, 1, 1), (2, 2, 2, 2)),
        wps_pairs_fixture((1, 1, 1), (4, 4, 4)),
        biproj_pairs_fixture(1, [1], [1]),
        biproj_pairs_fixture(3, [2, 1], [1, 1]),
        torsion_fermat_fixture(3),
        torsion_fermat_fixture(6),
        split_field_fixture(1, 2),
        split_field_fixture(1, 2, (1, 2)),
        split_field_fixture(2, 1),
        monomial_hypersurface_fixture(2, 3),
        monomial_hypersurface_fixture(5, 5),
        monomial_hypersurface_fixture(1, 1),
    ]
    return [fix.model for fix in fixtures] + [build_from_rays(3, octahedron_rays())]


def test_radial_data_is_the_free_degree_rows(family_models):
    # theta reads alpha.free[i]; the oracle is sum_j a_ij m_j over an
    # integer representative m, here a random Laurent exponent vector.
    rng = random.Random(23)
    checked = 0
    for model in family_models + _fixture_models():
        for i in range(model.rank):
            assert model.radial[i] == model.degree_rows[i]
        for _ in range(12):
            exps = [rng.randint(-2, 4) for _ in range(model.nvars)]
            other = DegreeClass(
                tuple(rng.randint(-3, 6) for _ in range(model.rank)),
                tuple(rng.randrange(t) for t in model.moduli),
                model.moduli,
            )
            alpha = model.monomial_degree(exps)
            for i in range(model.rank):
                assert model.theta(i, other) == other.free[i]
                assert model.theta(i, alpha) == alpha.free[i]
                assert sum(a * m for a, m in zip(model.radial[i], exps)) == alpha.free[i]
                checked += 1
    assert checked >= 400


def test_theta_checks_index_and_group(surface_z3, p2):
    with pytest.raises(IndexError):
        surface_z3.theta(1, DegreeClass.zero(1, (3,)))
    with pytest.raises(ValueError):
        surface_z3.theta(0, DegreeClass.zero(1))


def test_theta_well_defined_across_monomials(family_models):
    rng = random.Random(17)
    for model in family_models:
        for _ in range(8):
            f = random_quasi_homogeneous(rng, model, 5)
            alpha = homogeneous_degree(model, f)
            monos = monomials_of_degree(model, alpha)
            if len(monos) < 2:
                continue
            for i in range(model.rank):
                vals = {
                    sum(a * e for a, e in zip(model.radial[i], m))
                    for m in monos
                }
                assert len(vals) == 1
                assert vals.pop() == model.theta(i, alpha)


def test_irrelevant_ideal_projective(p2):
    assert sorted(p2.irrelevant_ideal()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_irrelevant_ideal_rank_one_is_origin(surface_z3, p2):
    from toricfol import weighted_projective

    for model in (surface_z3, p2, weighted_projective(1, 2, 3)):
        gens = model.irrelevant_ideal()
        hit = {j for g in gens for j, e in enumerate(g) if e}
        singles = all(sum(1 for e in g if e) == 1 for g in gens)
        assert singles and hit == set(range(model.nvars))


def test_irrelevant_ideal_product(p1p1):
    gens = set(p1p1.irrelevant_ideal())
    assert gens == {
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    }


def test_irrelevant_ideal_needs_cones():
    model = build_from_rays(2, [(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(ValueError):
        model.irrelevant_ideal()


def test_nonnegative_coordinates(p1p1, scroll11):
    from toricfol import rational_scroll

    assert p1p1.nonnegative_coordinates() == (0, 1)
    assert scroll11.nonnegative_coordinates() == (1,)
    assert rational_scroll(0, 0).nonnegative_coordinates() == (0, 1)
    assert rational_scroll(-2, 0).nonnegative_coordinates() == (0, 1)


def test_positive_functional_certifies(family_models):
    for model in family_models:
        c = model.positive_functional
        assert c is not None
        for d in model.degrees:
            assert sum(ci * x for ci, x in zip(c, d.free)) > 0


def test_random_ray_models_self_consistent():
    # fuzz: arbitrary primitive spanning rays in the plane; whatever builds
    # (rays that positively span) must satisfy the relation, counting and
    # Euler invariants
    from math import gcd

    from grading_oracle import count_lattice_points_box

    from toricfol.grading import count_lattice_points, monomials_of_degree

    rng = random.Random(77)
    built = 0
    for _ in range(120):
        count = rng.randint(3, 5)
        rays = []
        while len(rays) < count:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v == (0, 0) or gcd(*v) != 1 or v in rays:
                continue
            rays.append(v)
        try:
            model = build_from_rays(2, rays)
        except ValueError:
            continue
        built += 1
        for field in model.radial:
            for coord in range(2):
                assert sum(a * r[coord] for a, r in zip(field, rays)) == 0
        group = cokernel(IntMatrix.from_rows(rays))
        for j in range(model.nvars):
            free, residues = group.reduce(tuple(1 if i == j else 0 for i in range(model.nvars)))
            assert DegreeClass(free, residues, model.moduli) == model.degrees[j]
        from toricfol.selfcheck import random_quasi_homogeneous

        f = random_quasi_homogeneous(rng, model, 4)
        alpha = homogeneous_degree(model, f)
        from toricfol.foliation import VectorField

        for i in range(model.rank):
            radial = VectorField.radial(model, i)
            assert radial.apply_to(f) == f.scale(model.theta(i, alpha))
        coeffs = tuple(rng.randint(0, 2) for _ in range(model.nvars))
        # A positive functional makes every such polytope bounded.
        points = count_lattice_points(model, coeffs)
        assert points == count_lattice_points_box(model, coeffs)
        assert points == len(monomials_of_degree(model, model.monomial_degree(coeffs)))
    assert built >= 20


def test_alignment_rejects_unreachable_targets(surface_z3):
    from toricfol.model import ModelInputError

    def build(degrees):
        return build_from_rays(
            2, surface_z3.rays, max_cones=surface_z3.max_cones, degrees=degrees
        )

    bad = [
        DegreeClass((1,), (0,), (3,)),
        DegreeClass((1,), (0,), (3,)),
        DegreeClass((1,), (1,), (3,)),
    ]
    with pytest.raises(ModelInputError):
        build(bad)
    with pytest.raises(ModelInputError):  # the free degrees generate only 2Z
        build(
            [
                DegreeClass((2,), (0,), (3,)),
                DegreeClass((2,), (2,), (3,)),
                DegreeClass((2,), (1,), (3,)),
            ]
        )
    assert build(surface_z3.degrees).degrees == surface_z3.degrees


def _direct(**changes):
    from toricfol.model import ToricModel

    fields = dict(
        name="P2",
        n=2,
        variable_names=("x", "y", "z"),
        degrees=(DegreeClass((1,)),) * 3,
        rays=((1, 0), (0, 1), (-1, -1)),
        max_cones=((0, 1), (1, 2), (0, 2)),
    )
    fields.update(changes)
    return ToricModel(**fields)


def test_direct_construction_checks_every_invariant():
    assert _direct().class_group.describe() == "Z"
    one = DegreeClass((1,))
    bad = [
        (dict(variable_names=(), degrees=(), rays=None, max_cones=None), "has no variables"),
        (dict(variable_names=("x", "y")), "2 variable names for 3 degrees"),
        (dict(rays=((1, 0), (0, 1))), "2 rays for 3 degrees"),
        (dict(rays=((1, 0, 0), (0, 1, 0), (-1, -1, 0))), "a ray does not have n=2 coordinates"),
        (dict(degrees=(one, one, DegreeClass((1,), (1,), (2,)))), "different grading groups"),
        (
            dict(n=1, degrees=(DegreeClass((1, 1)),) * 3, rays=None, max_cones=None),
            "rank deficient",
        ),
        (dict(n=1, rays=None, max_cones=None), "3 degrees for n=1, rank=1; expected 2"),
        (dict(max_cones=((0, 1), (1, 3), (0, 2))), "cone {y,?} references an unknown ray"),
        (dict(max_cones=((0, 1, 2),)), "does not have 2 distinct rays"),
        (dict(max_cones=((0, 0), (1, 2), (0, 2))), "does not have 2 distinct rays"),
        (dict(max_cones=((0, 1), (1, 0), (1, 2), (0, 2))), "{y,x} is listed twice"),
        (dict(degrees=(one, one, DegreeClass((-1,)))), "not complete"),
    ]
    for changes, reason in bad:
        with pytest.raises(ValueError, match=re.escape(reason)):
            _direct(**changes)
    with pytest.raises(ValueError, match=re.escape("cone {x,w} has linearly dependent rays")):
        _direct(
            variable_names=("x", "y", "z", "w"),
            degrees=(DegreeClass((1, 0)), DegreeClass((0, 1)), DegreeClass((0, 1)), DegreeClass((1, 1))),
            rays=((1, 0), (0, 1), (0, -1), (-1, 0)),
            max_cones=((0, 3), (0, 1)),
        )


def test_direct_construction_checks_irrelevant_generators():
    from toricfol.families import rational_scroll
    from toricfol.model import ModelInputError

    gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _direct(irrelevant_generators=gens).irrelevant_ideal() == gens
    bad = [
        (((1, 1),), "(1, 1) does not have 3 entries"),
        (((2, 1, 0),), "(2, 1, 0) is not squarefree"),
        (((1, -1, 0),), "(1, -1, 0) is not squarefree"),
        (((0, 0, 0),), "(0, 0, 0) is the constant monomial"),
        (((1, 1, 0), (0, 1, 1), (1, 1, 0)), "(1, 1, 0) is listed twice"),
        # the two generators once accepted on a model with three variables
        (((2, 0), (7, 7, 7, 7)), "(2, 0) does not have 3 entries"),
    ]
    for generators, reason in bad:
        with pytest.raises(ModelInputError, match=re.escape(f"irrelevant generator {reason}")) as err:
            _direct(irrelevant_generators=generators)
        assert err.value.entry == "irrelevant"
        with pytest.raises(ModelInputError, match=re.escape(reason)):
            build_from_presentation(2, [DegreeClass((1,))] * 3, irrelevant_generators=generators)
    # every Hirzebruch presentation still builds
    for twists in [(0,), (1,), (1, 1), (2, 3, 1), (-1, -3)]:
        assert len(rational_scroll(*twists).irrelevant_ideal()) == 2 * len(twists)


def test_malformed_cones_are_tagged_on_both_routes():
    from toricfol.model import ModelInputError

    with pytest.raises(ModelInputError, match="listed twice") as err:
        build_from_rays(2, [(1, 0), (0, 1), (-1, -1)], max_cones=[(0, 1), (1, 0)])
    assert err.value.entry == "cones"
    with pytest.raises(ModelInputError, match="linearly dependent rays"):
        build_from_rays(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], max_cones=[(0, 2)])
    with pytest.raises(ModelInputError, match="distinct rays"):
        build_from_presentation(2, [DegreeClass((1,))] * 3, max_cones=[(0, 1, 2)])


def test_presentation_charts_must_be_simplicial():
    from toricfol.model import ModelInputError

    # P^1 x P^1 by its degrees: z1*z2 leaves two variables of one factor
    degrees = [DegreeClass((1, 0)), DegreeClass((1, 0)), DegreeClass((0, 1)), DegreeClass((0, 1))]
    good = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    assert build_from_presentation(2, degrees, irrelevant_generators=good).irrelevant_ideal() == tuple(good)
    with pytest.raises(ModelInputError, match=re.escape("irrelevant generator z1*z2 needs 2 variables with independent")) as err:
        build_from_presentation(2, degrees, irrelevant_generators=[(1, 1, 0, 0)])
    assert err.value.entry == "irrelevant"
    with pytest.raises(ModelInputError, match=re.escape("irrelevant generator z1 needs 2 variables")):
        build_from_presentation(2, degrees, irrelevant_generators=[(1, 0, 0, 0)])
    # the cone {z1,z2} leaves z3*z4, again one factor
    with pytest.raises(ModelInputError, match=re.escape("irrelevant generator z3*z4 of cone {z1,z2} needs")) as err:
        build_from_presentation(2, degrees, max_cones=[(0, 1)])
    assert err.value.entry == "cones"
    assert len(build_from_presentation(2, degrees, max_cones=[(1, 3), (0, 2)]).irrelevant_ideal()) == 2


@pytest.mark.parametrize("route", ["parse_case", "weighted_projective", "multiprojective", "torsion_surface"])
def test_models_with_display_degrees_solve_positivity_once(monkeypatch, route):
    import toricfol.model
    from toricfol import families
    from toricfol.casefile import parse_case

    calls = []
    solve = toricfol.model.feasible_point

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(toricfol.model, "feasible_point", counted)
    build = {
        "parse_case": lambda: parse_case(
            "[model]\ndimension = 2\nvariables = x y z\nrays = (2,-1) (-1,2) (-1,-1)\n"
            "torsion = 3\ndegrees = (1,[0]) (1,[2]) (1,[1])\ncones = {1,2} {2,3} {1,3}\n"
        ).model,
        "weighted_projective": lambda: families.weighted_projective(1, 2, 3),
        "multiprojective": lambda: families.multiprojective(1, 1),
        "torsion_surface": families.torsion_surface,
    }[route]
    model = build()
    assert model.positive_functional is not None
    assert len(calls) == 1


def _ray_models_with_computed_degrees(family_models):
    """Each ray model beside the same fan built with no stated degrees."""
    for model in family_models + _fixture_models():
        if model.rays is not None:
            yield model, build_from_pairing_rows(model.n, model.rays, max_cones=model.max_cones)


def test_computed_degrees_are_the_classes_of_unit_vectors(family_models):
    # Oracle: reduce e_j through the cokernel, the computation the builder
    # replaced by reading column j of the projector.
    checked = 0
    for model, computed in _ray_models_with_computed_degrees(family_models):
        group = cokernel(IntMatrix.from_rows(model.rays))
        for j, degree in enumerate(computed.degrees):
            free, residues = group.reduce(tuple(1 if i == j else 0 for i in range(model.nvars)))
            assert degree == DegreeClass(free, residues, group.torsion)
            assert all(type(x) is int for x in degree.free + degree.residues + degree.moduli)
            checked += 1
    assert checked >= 30


S_Z3_CASE = (
    "[model]\ndimension = 2\nvariables = x y z\nrays = (2,-1) (-1,2) (-1,-1)\n"
    "torsion = 3\ndegrees = {}\ncones = {{1,2}} {{2,3}} {{1,3}}\n"
)


def test_stated_degrees_equal_to_computed_skip_the_search(monkeypatch, family_models):
    import toricfol.model
    from toricfol import families
    from toricfol.casefile import parse_case

    # Built before counting: these builds state no degrees.
    pairs = list(_ray_models_with_computed_degrees(family_models))
    calls = []
    smith = toricfol.model.smith_normal_form

    def counted(*args):
        calls.append(args)
        return smith(*args)

    monkeypatch.setattr(toricfol.model, "smith_normal_form", counted)
    for _, computed in pairs:
        again = build_from_pairing_rows(
            computed.n, computed.rays, max_cones=computed.max_cones, degrees=computed.degrees
        )
        assert again.degrees == computed.degrees
    assert families.weighted_projective(1, 2, 3).degrees == tuple(DegreeClass((w,)) for w in (1, 2, 3))
    assert parse_case(S_Z3_CASE.format("(1,[2]) (1,[1]) (1,[0])")).model.degrees[0] == DegreeClass((1,), (2,), (3,))
    assert calls == []
    # Stated degrees in another basis still take one Smith form.
    surface = families.torsion_surface()
    assert [str(d) for d in surface.degrees] == ["(1,[0])", "(1,[2])", "(1,[1])"]
    assert len(calls) == 1


@pytest.mark.parametrize("degrees", ["(1,[2]) (1,[1]) (1,[1])", "(1,[0]) (1,[2]) (1,[2])"])
def test_one_changed_residue_is_a_located_degrees_error(degrees):
    from toricfol.casefile import CaseError, parse_case

    with pytest.raises(CaseError) as err:
        parse_case(S_Z3_CASE.format(degrees))
    (problem,) = err.value.problems
    assert problem.line == 6
    assert problem.message.startswith("model construction failed: ")
    assert "stated degrees miss the ray relation of coordinate 1" in problem.message


def _accepts(computed, stated) -> bool:
    from toricfol.model import ModelInputError, _check_stated_degrees

    try:
        _check_stated_degrees(computed.rays, computed.class_group, computed.degrees, stated)
    except ModelInputError:
        return False
    return True


def _basis_change(rng, computed, scale=1):
    """computed.degrees under a seeded unimodular W on the free part, then a
    unit u and a shear s of the new free part on each torsion factor.  With
    scale > 1, W has determinant +-scale and no basis change is reached."""
    r, moduli = computed.rank, computed.moduli
    w = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            w[i] = [-x for x in w[i]]
        else:
            q = rng.choice((-2, -1, 1, 2))
            w[i] = [a + q * b for a, b in zip(w[i], w[j])]
    w[0] = [scale * x for x in w[0]]
    units = [rng.choice([u for u in range(1, t) if gcd(u, t) == 1]) for t in moduli]
    shears = [[rng.randrange(t) for _ in range(r)] for t in moduli]
    out = []
    for d in computed.degrees:
        free = tuple(sum(map(mul, row, d.free)) for row in w)
        residues = tuple(
            u * c + sum(map(mul, s, free)) for u, c, s in zip(units, d.residues, shears)
        )
        out.append(DegreeClass(free, residues, moduli))
    return out


def _perturbed(rng, degrees):
    """degrees with one free coordinate or residue changed."""
    out = list(degrees)
    j = rng.randrange(len(out))
    d = out[j]
    k = rng.randrange(len(d.free) + len(d.moduli))
    if k < len(d.free):
        free = list(d.free)
        free[k] += rng.choice((-2, -1, 1, 2))
        out[j] = DegreeClass(tuple(free), d.residues, d.moduli)
    else:
        residues = list(d.residues)
        k -= len(d.free)
        residues[k] += rng.randrange(1, d.moduli[k])
        out[j] = DegreeClass(d.free, tuple(residues), d.moduli)
    return out


def test_stated_degree_check_agrees_with_the_automorphism_search(family_models):
    from stated_degrees_oracle import stated_degrees_reachable

    rng = random.Random(19)
    outcomes = {True: 0, False: 0}
    for _, computed in _ray_models_with_computed_degrees(family_models):
        for _ in range(8):
            stated = _basis_change(rng, computed)
            candidates = (
                stated,
                _basis_change(rng, computed, scale=2),
                _perturbed(rng, stated),
                _perturbed(rng, computed.degrees),
            )
            for candidate in candidates:
                got = _accepts(computed, candidate)
                want = stated_degrees_reachable(computed.class_group, computed.degrees, candidate)
                # The search is complete with at most one torsion factor;
                # with more, an automorphism it finds is still a basis change.
                if len(computed.moduli) <= 1:
                    assert got == want, (computed.name, [str(d) for d in candidate])
                else:
                    assert got or not want, (computed.name, [str(d) for d in candidate])
                outcomes[got] += 1
    assert outcomes[True] >= 150 and outcomes[False] >= 300, outcomes


def test_octahedron_residues_may_mix_but_not_collapse():
    from stated_degrees_oracle import stated_degrees_reachable

    from toricfol.families import octahedron_rays
    from toricfol.model import ModelInputError

    computed = build_from_rays(3, octahedron_rays())
    assert computed.moduli == (2, 2)

    def residues(change):
        return [DegreeClass(d.free, change(*d.residues), d.moduli) for d in computed.degrees]

    swap = residues(lambda a, b: (b, a))
    mix = residues(lambda a, b: (a, a + b))
    for stated in (swap, mix):
        assert build_from_rays(3, octahedron_rays(), degrees=stated).degrees == tuple(stated)
        # The per-factor search misses a basis change that mixes the factors.
        assert not stated_degrees_reachable(computed.class_group, computed.degrees, stated)
    with pytest.raises(ModelInputError, match="do not generate the grading group"):
        build_from_rays(3, octahedron_rays(), degrees=residues(lambda a, b: (a, a)))


def test_changed_residue_on_a_large_group_is_rejected_quickly():
    from time import perf_counter

    from toricfol.model import ModelInputError

    # Primitive rays of the index-7 sublattice x + 3y = 0 mod 7.
    rays = [(1, 2), (-1, -2), (3, -1), (-3, 1), (4, 1), (-4, -1), (2, -3), (-2, 3)]
    computed = build_from_rays(2, rays)
    assert computed.class_group.describe() == "Z^6 + Z/7"
    first = computed.degrees[0]
    stated = (DegreeClass(first.free, (first.residues[0] + 1,), (7,)),) + computed.degrees[1:]
    start = perf_counter()
    with pytest.raises(ModelInputError, match="ray relation"):
        build_from_rays(2, rays, degrees=stated)
    assert perf_counter() - start < 0.1


def test_positive_functional_matches_the_fraction_oracle(family_models):
    from grading_oracle import count_lattice_points_box
    from linalg_oracle import fm_feasible_point

    from toricfol.grading import count_lattice_points

    rng = random.Random(5)
    counted = 0
    for model in family_models + _fixture_models():
        free_rows = model.degree_rows[: model.rank]
        assert model.positive_functional == fm_feasible_point(
            [(col, 1) for col in zip(*free_rows)], model.rank
        )
        if model.rays is None:
            continue
        for _ in range(3):
            coeffs = tuple(rng.randint(0, 2) for _ in range(model.nvars))
            assert count_lattice_points(model, coeffs) == count_lattice_points_box(model, coeffs)
            counted += 1
    assert counted >= 30


# A float or a non-integral Fraction is refused, not truncated: 1.9 would
# otherwise build the ray (1, 0) and with it P^2.
@pytest.mark.parametrize(
    "build",
    [
        lambda: build_from_rays(2, [(1.9, 0), (0, 1), (-1, -1)]),
        lambda: build_from_rays(2, [(Fraction(3, 2), 0), (0, 1), (-1, -1)]),
        lambda: build_from_pairing_rows(2, [(1, 0), (0, 1.0), (-1, -1)]),
        lambda: build_from_pairing_rows(2, [(1, 0), (0, 1), (-1, -1)], max_cones=[(0, 1.5), (1, 2), (0, 2)]),
    ],
    ids=["ray-float", "ray-fraction", "pairing-row-float", "cone-index-float"],
)
def test_builders_refuse_non_integers(build):
    with pytest.raises(TypeError):
        build()
