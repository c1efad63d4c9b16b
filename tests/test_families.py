import random
from fractions import Fraction

import pytest

from toricfol.degrees import DegreeClass
from toricfol.families import (
    biproj_pairs_fixture,
    check_fixture,
    monomial_hypersurface_fixture,
    multiprojective,
    octahedron_rays,
    rational_scroll,
    split_field_fixture,
    torsion_fermat_fixture,
    torsion_surface,
    weighted_projective,
    wps_pairs_fixture,
)
from toricfol.foliation import invariance_cofactor
from toricfol.intlinalg import IntMatrix, cokernel
from toricfol.model import build_from_presentation


def test_weighted_projective_standard():
    p2 = weighted_projective(1, 1, 1)
    assert p2.class_group.describe() == "Z"
    assert [d.free[0] for d in p2.degrees] == [1, 1, 1]


def test_weighted_projective_nontrivial_weights():
    for w in ((1, 2), (1, 1, 2), (1, 2, 3)):
        model = weighted_projective(*w)
        assert [d.free[0] for d in model.degrees] == list(w)
        assert model.radial[0] == w


def test_weighted_projective_validation():
    with pytest.raises(ValueError):
        weighted_projective(2, 4)
    with pytest.raises(ValueError):
        weighted_projective(3)
    with pytest.raises(ValueError):
        weighted_projective(1, 0)


def test_multiprojective_degrees():
    model = multiprojective(2, 3)
    assert model.class_group.describe() == "Z^2"
    assert model.nvars == 7
    assert [d.free for d in model.degrees[:3]] == [(1, 0)] * 3
    assert [d.free for d in model.degrees[3:]] == [(0, 1)] * 4
    line = multiprojective(1)
    assert line.class_group.describe() == "Z"


def test_scroll_degrees_and_irrelevant():
    model = rational_scroll(1, 1)
    assert [d.free for d in model.degrees] == [(1, 0), (1, 0), (-1, 1), (-1, 1)]
    gens = set(model.irrelevant_ideal())
    assert gens == {
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    }


def test_scroll_zero_twists_match_product():
    scroll = rational_scroll(0, 0)
    product = multiprojective(1, 1)
    assert [d.free for d in scroll.degrees] == [d.free for d in product.degrees]


def test_scroll_shift_equivalence():
    # twists (1,2) and (0,1) describe the same surface after a shear
    a = rational_scroll(1, 2)
    b = rational_scroll(0, 1)
    shear = [[1, -1], [0, 1]]  # acts on free degrees: (x, y) -> (x - y, y)
    sheared = sorted(
        (x * shear[0][0] + y * shear[0][1], y) for (x, y) in (d.free for d in b.degrees)
    )
    assert sheared == sorted(d.free for d in a.degrees)


def test_torsion_surface_display():
    model = torsion_surface()
    assert model.class_group.rank == 1 and model.moduli == (3,)
    assert [str(d) for d in model.degrees] == ["(1,[0])", "(1,[2])", "(1,[1])"]
    assert model.radial[0] == (1, 1, 1)
    assert model.monomial_degree((1, 1, 1)) == DegreeClass((3,), (0,), (3,))


def test_octahedron_class_group():
    group = cokernel(IntMatrix.from_rows(octahedron_rays()))
    assert group.describe() == "Z^5 + Z/2 + Z/2"


def test_ray_and_presentation_routes_agree():
    pairs = [
        (multiprojective(1, 1), [(1, 0), (1, 0), (0, 1), (0, 1)]),
        (weighted_projective(1, 2, 3), [(1,), (2,), (3,)]),
    ]
    for ray_model, frees in pairs:
        pres = build_from_presentation(
            ray_model.n,
            [DegreeClass(f) for f in frees],
            variable_names=ray_model.variable_names,
        )
        assert [d.free for d in pres.degrees] == [d.free for d in ray_model.degrees]
        assert pres.radial == ray_model.radial


def test_wps_pairs_invariance_random_instances():
    rng = random.Random(51)
    instances = [
        ((1, 1), (3, 3)),
        ((1, 2), (2, 1)),
        ((1, 2, 1, 2), (4, 2, 4, 2)),
        ((1, 1, 1, 1), (2, 2, 2, 2)),
        ((1, 3, 1, 3), (6, 2, 6, 2)),
        ((2, 3, 2, 3), (15, 10, 15, 10)),
    ]
    for w, d in instances:
        nterms = (len(w) + 1) // 2
        coeffs = [Fraction(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(nterms)]
        fix = wps_pairs_fixture(w, d, coeffs)
        assert fix.field.apply_to(fix.hypersurface).is_zero()


def test_wps_pairs_odd_variable_count_lone_term():
    fix = wps_pairs_fixture((1, 1, 1), (4, 4, 4))
    assert fix.field.apply_to(fix.hypersurface).is_zero()
    assert fix.hypersurface.terms.get((0, 0, 4)) == 2  # lone term kept its coefficient


def test_wps_pairs_constraint_validation():
    with pytest.raises(ValueError):  # no common weighted power
        wps_pairs_fixture((1, 2), (3, 2))
    with pytest.raises(ValueError):  # pair sums differ
        wps_pairs_fixture((1, 1, 2, 2), (4, 4, 2, 2))


def test_biproj_pairs_validation():
    with pytest.raises(ValueError):
        biproj_pairs_fixture(2, [1], [1])
    with pytest.raises(ValueError):
        biproj_pairs_fixture(3, [1], [1, 2])


def test_torsion_fermat_validation():
    with pytest.raises(ValueError):
        torsion_fermat_fixture(4)
    with pytest.raises(ValueError):
        torsion_fermat_fixture(0)


def test_split_field_parts_invariant_separately():
    for c in ((1, 1), (2, Fraction(1, 3))):
        for a1, a2 in ((1, 2), (2, 2), (1, 1)):
            fix = split_field_fixture(a1, a2, c)
            for part in fix.field_parts:
                g = invariance_cofactor(fix.model, part, fix.hypersurface)
                assert g is not None and g.is_zero()


def test_every_fixture_checks_clean():
    fixtures = [
        wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
        biproj_pairs_fixture(1, [1], [1]),
        biproj_pairs_fixture(3, [2, 1], [1, 1]),
        torsion_fermat_fixture(3),
        torsion_fermat_fixture(6),
        split_field_fixture(1, 2, (1, 2)),
        monomial_hypersurface_fixture(2, 3),
    ]
    for fix in fixtures:
        _, results = check_fixture(fix)
        bad = [r for r in results if not r.passed]
        assert not bad, f"{fix.name}: {[(r.name, r.expected, r.actual) for r in bad]}"
        assert all(r.provenance in {"published", "derived", "trivial"} for r in results)


@pytest.mark.parametrize(
    "build",
    [
        lambda: weighted_projective(1.7, 1, 1),
        lambda: multiprojective(Fraction(3, 2), 1),
        lambda: rational_scroll(1, 0.5),
        lambda: wps_pairs_fixture((1, 2, 1, 2.0), (4, 2, 4, 2)),
        lambda: wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, Fraction(5, 2))),
        lambda: biproj_pairs_fixture(3.0, [1, 1], [1, 1]),
        lambda: torsion_fermat_fixture(Fraction(7, 2)),
        lambda: split_field_fixture(1.5, 2),
        lambda: monomial_hypersurface_fixture(2, 3.5),
    ],
    ids=[
        "weighted-projective",
        "multiprojective",
        "rational-scroll",
        "wps-pairs-weight",
        "wps-pairs-power",
        "biproj-pairs",
        "torsion-fermat",
        "split-field",
        "monomial-hypersurface",
    ],
)
def test_family_builders_refuse_non_integers(build):
    with pytest.raises(TypeError):
        build()
