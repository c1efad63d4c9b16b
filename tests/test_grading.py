import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from grading_oracle import count_lattice_points_box, degree_of_monomial, monomials_of_degree_unpruned
from toricfol.degrees import DegreeClass
from toricfol.families import (
    biproj_pairs_fixture,
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
from toricfol.grading import count_lattice_points, homogeneous_degree, monomials_of_degree
from toricfol.model import build_from_presentation, build_from_rays
from toricfol.poly import Polynomial
from toricfol.selfcheck import default_models, random_quasi_homogeneous


def test_homogeneous_degree_product_quadric(p1p1):
    f = Polynomial(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    assert homogeneous_degree(p1p1, f) == DegreeClass((1, 1))


def test_torsion_degrees_add_mod_three(surface_z3):
    z2 = Polynomial.variable(3, 1)
    z3 = Polynomial.variable(3, 2)
    # (1,[2]) + (1,[1]) = (2,[0])
    assert homogeneous_degree(surface_z3, z2 * z3) == DegreeClass((2,), (0,), (3,))


def test_homogeneous_degree_torsion_fermat(surface_z3):
    m = 6
    f = Polynomial(3, {(m, 0, 0): 1, (0, m, 0): 1, (0, 0, m): 1})
    assert homogeneous_degree(surface_z3, f) == DegreeClass((m,), (0,), (3,))


def test_homogeneous_degree_mixed_and_zero(p2):
    mixed = Polynomial(3, {(1, 0, 0): 1, (2, 0, 0): 1})
    assert homogeneous_degree(p2, mixed) is None
    with pytest.raises(ValueError, match="zero polynomial"):
        homogeneous_degree(p2, Polynomial.zero(3))
    with pytest.raises(ValueError, match="variable count"):
        homogeneous_degree(p2, Polynomial.variable(2, 0))


def test_degree_additivity_random(family_models):
    rng = random.Random(2)
    for model in family_models:
        for _ in range(10):
            f = random_quasi_homogeneous(rng, model, 4)
            g = random_quasi_homogeneous(rng, model, 4)
            assert homogeneous_degree(model, f * g) == homogeneous_degree(
                model, f
            ) + homogeneous_degree(model, g)


def test_derivative_degree_law(family_models):
    # a nonzero partial of a degree-alpha element has degree alpha - deg(z_j)
    rng = random.Random(3)
    for model in family_models:
        for _ in range(6):
            f = random_quasi_homogeneous(rng, model, 5)
            alpha = homogeneous_degree(model, f)
            for j in range(model.nvars):
                df = f.partial_derivative(j)
                if not df.is_zero():
                    assert homogeneous_degree(model, df) == alpha - model.degrees[j]


def test_nonnegative_coordinate_law(family_models):
    # on an eligible coordinate every monomial degree is nonnegative
    rng = random.Random(4)
    for model in family_models:
        for k in model.nonnegative_coordinates():
            for _ in range(10):
                f = random_quasi_homogeneous(rng, model, 5)
                assert homogeneous_degree(model, f).free[k] >= 0


def test_monomial_counts_projective(p2):
    assert len(monomials_of_degree(p2, DegreeClass((2,)))) == 6
    assert len(monomials_of_degree(p2, DegreeClass((0,)))) == 1
    assert monomials_of_degree(p2, DegreeClass((-1,))) == ()


def test_monomial_counts_product(p1p1):
    assert len(monomials_of_degree(p1p1, DegreeClass((1, 1)))) == 4
    assert len(monomials_of_degree(p1p1, DegreeClass((3, 2)))) == 12


def test_monomials_weighted_line():
    from toricfol import weighted_projective

    model = weighted_projective(1, 2)
    got = set(monomials_of_degree(model, DegreeClass((4,))))
    # brute-force oracle over the exponent box
    oracle = {
        (a, b) for a in range(5) for b in range(5) if a + 2 * b == 4
    }
    assert got == oracle == {(4, 0), (2, 1), (0, 2)}


def test_monomials_respect_torsion(surface_z3):
    for free in range(4):
        for res in range(3):
            alpha = DegreeClass((free,), (res,), (3,))
            for m in monomials_of_degree(surface_z3, alpha):
                assert surface_z3.monomial_degree(m) == alpha


def test_degree_class_entries_must_be_integers():
    # int() would truncate 1.7 to the class 1
    for args in (((1.7,),), ((1,), (1.0,), (2,)), ((1,), (1,), (2.0,))):
        with pytest.raises(TypeError):
            DegreeClass(*args)
    assert DegreeClass((1,), (5,), (3,)) == DegreeClass((1,), (2,), (3,))


def test_scroll_enumeration_terminates(scroll11):
    got = monomials_of_degree(scroll11, DegreeClass((0, 1)))
    # z2_i sections of the twist-1 bundle: z1_j * z2_i combinations
    assert len(got) == 4
    for m in got:
        assert scroll11.monomial_degree(m) == DegreeClass((0, 1))


def test_count_lattice_points_projective(p2):
    assert count_lattice_points(p2, (2, 0, 0)) == 6
    assert count_lattice_points(p2, (0, 0, 0)) == 1


def test_count_matches_enumeration_cross_oracle(p2, p1p1, surface_z3):
    for model, max_c in ((p2, 3), (p1p1, 2), (surface_z3, 3)):
        for coeffs in product(range(max_c + 1), repeat=model.nvars):
            alpha = model.monomial_degree(coeffs)
            assert count_lattice_points(model, coeffs) == count_lattice_points_box(model, coeffs) == len(
                monomials_of_degree(model, alpha)
            )


def test_count_rejects_bad_input(p2):
    with pytest.raises(ValueError):
        count_lattice_points(p2, (-1, 0, 0))
    for coefficient in (Fraction(3, 2), 1.0):  # refused, not truncated to 1
        with pytest.raises(TypeError):
            count_lattice_points(p2, (coefficient, 0, 0))
    with pytest.raises(ValueError, match="not complete"):  # no fan on these rays is complete
        build_from_rays(2, [(1, 0), (0, 1), (1, 2)])
    from toricfol import rational_scroll

    with pytest.raises(ValueError):  # presentation model carries no rays
        count_lattice_points(rational_scroll(1), (1, 1, 1))


# -- the integer kernel against its slow oracles ------------------------------


def fixture_models():
    return [
        wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)).model,
        biproj_pairs_fixture(3, [1, 1], [1, 1]).model,
        torsion_fermat_fixture(3).model,
        split_field_fixture(1, 2).model,
        monomial_hypersurface_fixture(2, 3).model,
        build_from_rays(3, octahedron_rays()),
    ]


def mixed_sign_models():
    """Degree presentations with no positive functional, as (n, degrees)."""
    return [
        (1, [DegreeClass((), (1,), (2,))]),  # rank 0: no free grading at all
        (1, [DegreeClass((1,)), DegreeClass((-1,))]),
        (2, [DegreeClass((1, 0)), DegreeClass((-1, 1)), DegreeClass((0, -1)), DegreeClass((2, 1))]),
        (2, [DegreeClass((1,), (1,), (2,)), DegreeClass((-1,), (0,), (2,)), DegreeClass((2,), (1,), (2,))]),
    ]


def degree_oracle(model, f):
    """Common degree of the terms of f by summing variable degrees, or None."""
    found = {degree_of_monomial(model.degrees, m) for m in f.terms}
    return found.pop() if len(found) == 1 else None


def sample_degrees(rng, model, count, max_total):
    """Degrees of random monomials, then random classes (often unreachable)."""
    out = []
    for _ in range(count):
        exps = [0] * model.nvars
        for _ in range(rng.randint(0, max_total)):
            exps[rng.randrange(model.nvars)] += 1
        out.append(degree_of_monomial(model.degrees, exps))
    for _ in range(count):
        out.append(
            DegreeClass(
                tuple(rng.randint(-2, max_total) for _ in range(model.rank)),
                tuple(rng.randrange(t) for t in model.moduli),
                model.moduli,
            )
        )
    return out


def test_enumeration_matches_unpruned_oracle(family_models):
    rng = random.Random(31)
    for model in family_models + fixture_models():
        max_total = 3 if model.nvars > 6 else 5
        for alpha in sample_degrees(rng, model, 8, max_total):
            want = monomials_of_degree_unpruned(model, alpha)
            assert monomials_of_degree(model, alpha) == want, (model.name, alpha)


def listing_order_models():
    """Models whose descent order differs from their listing order."""
    heavy = [(1, 0), (0, 1), (1, 1), (2, 3), (3, 1)]
    return [
        weighted_projective(1, 1, 2, 5),
        rational_scroll(2, 3, 1),
        rational_scroll(1, 1),
        multiprojective(2, 1),
        torsion_surface(),
        build_from_presentation(3, [DegreeClass(d) for d in heavy], name="heavy-rank-2"),
    ]


def listing_orders(model):
    """Variable orders: heavy variables first and last, variables with a
    negative degree first, and the listing reversed."""
    functional = model.positive_functional

    def weight(j):
        return sum(map(mul, functional, model.degrees[j].free))

    js = range(model.nvars)
    return {
        "heavy-first": sorted(js, key=lambda j: -weight(j)),
        "heavy-last": sorted(js, key=weight),
        "negative-first": sorted(js, key=lambda j: min(model.degrees[j].free) >= 0),
        "reversed": list(reversed(js)),
    }


@pytest.mark.parametrize("base", listing_order_models(), ids=lambda m: m.name)
def test_enumeration_matches_unpruned_oracle_in_every_listing_order(base):
    # The descent fixes the variables heaviest first, whatever their listing.
    rng = random.Random(base.name)
    alphas = sample_degrees(rng, base, 6, 5)
    for label, order in listing_orders(base).items():
        model = build_from_presentation(base.n, [base.degrees[j] for j in order])
        for alpha in alphas:
            got = monomials_of_degree(model, alpha)
            assert got == monomials_of_degree_unpruned(model, alpha), (label, alpha)
            # the same monomials as in the listing given, moved with their variables
            moved = {tuple(m[order.index(j)] for j in range(model.nvars)) for m in got}
            assert moved == set(monomials_of_degree(base, alpha)), (label, alpha)


def test_enumeration_memo_matches_unpruned_oracle():
    # Every model is built twice; the two instances are equal but each
    # keeps its own memo.  Each degree is asked twice of each instance,
    # interleaved, so first queries and repeated ones both meet the oracle.
    rng = random.Random(37)
    builds = zip(default_models() + fixture_models(), default_models() + fixture_models())
    queries = 0
    for a, b in builds:
        assert a == b and a is not b
        max_total = 3 if a.nvars > 6 else 5
        for alpha in sample_degrees(rng, a, 6, max_total):
            want = monomials_of_degree_unpruned(a, alpha)
            for model in (a, b, a, b):
                assert monomials_of_degree(model, alpha) == want, (model.name, alpha)
                queries += 1
    assert queries >= 4 * 12 * 13, queries


def test_repeated_query_returns_the_same_basis():
    model = multiprojective(1, 1)
    alpha = DegreeClass((4, 2))
    first = monomials_of_degree(model, alpha)
    assert len(first) == 15
    assert monomials_of_degree(model, alpha) is first
    assert monomials_of_degree(model, DegreeClass((4, 2))) is first


def test_degree_from_another_group_refused_on_every_call():
    model = multiprojective(1, 1)
    alpha = DegreeClass((2, 1))
    basis = monomials_of_degree(model, alpha)
    assert monomials_of_degree(model, alpha) is basis  # the memo has had a hit
    for foreign in (DegreeClass((2,)), DegreeClass((2, 1), (0,), (3,)), DegreeClass((2, 1, 0))):
        for _ in range(3):
            with pytest.raises(ValueError, match="different grading group"):
                monomials_of_degree(model, foreign)
    assert monomials_of_degree(model, alpha) is basis


def test_mixed_sign_models_rejected_at_construction():
    # Their graded pieces are infinite, so no enumeration could terminate.
    for n, degrees in mixed_sign_models():
        with pytest.raises(ValueError, match="no positive grading functional"):
            build_from_presentation(n, degrees)


def test_enumeration_negative_and_unreachable(p2, surface_z3, scroll11):
    for model, alpha in (
        (p2, DegreeClass((-3,))),
        (scroll11, DegreeClass((-1, 0))),
        (scroll11, DegreeClass((3, -1))),
        (surface_z3, DegreeClass((-1,), (0,), (3,))),
        (surface_z3, DegreeClass((0,), (1,), (3,))),
    ):
        assert monomials_of_degree(model, alpha) == () == monomials_of_degree_unpruned(model, alpha)


def test_homogeneous_degree_matches_summed_oracle(family_models):
    rng = random.Random(33)
    for model in family_models + fixture_models():
        for _ in range(8):
            f = random_quasi_homogeneous(rng, model, 5)
            g = random_quasi_homogeneous(rng, model, 5)
            for h in (f, g, f * g, f + g):
                if not h.is_zero():
                    assert homogeneous_degree(model, h) == degree_oracle(model, h)


def test_homogeneous_degree_deliberately_mixed(family_models):
    rng = random.Random(34)
    for model in family_models:
        for _ in range(6):
            f = random_quasi_homogeneous(rng, model, 4)
            x = Polynomial.variable(model.nvars, rng.randrange(model.nvars))
            mixed = f + f * x  # deg(f) and deg(f) + deg(x) differ: no variable has degree 0
            assert degree_oracle(model, mixed) is None
            assert homogeneous_degree(model, mixed) is None


def test_homogeneous_degree_torsion_residues_reduced(surface_z3):
    # raw residue sums of z1^3, z2^3, z3^3 are 0, 6 and 3: all 0 mod 3
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): -1})
    assert homogeneous_degree(surface_z3, f) == DegreeClass((3,), (0,), (3,))
    assert degree_oracle(surface_z3, f) == DegreeClass((3,), (0,), (3,))
    # same free degree, residues 1 and 2 mod 3
    g = Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1})
    assert homogeneous_degree(surface_z3, g) is None


def test_monomial_degree_matches_oracle(family_models):
    rng = random.Random(35)
    for model in family_models + fixture_models():
        for _ in range(10):
            exps = [rng.randint(0, 4) for _ in range(model.nvars)]
            assert model.monomial_degree(exps) == degree_of_monomial(model.degrees, exps)
        with pytest.raises(ValueError):
            model.monomial_degree([0] * (model.nvars + 1))


@pytest.mark.parametrize("t", [0, 1, -2])
def test_degree_class_rejects_bad_modulus(t):
    with pytest.raises(ValueError, match="at least 2"):
        DegreeClass((1,), (0,), (t,))


def _assert_exact_class(d):
    """Every field a tuple of exact ints, as the checked constructor leaves it."""
    for part in (d.free, d.residues, d.moduli):
        assert type(part) is tuple and all(type(x) is int for x in part), d


def test_degree_arithmetic_equals_the_checked_constructor(family_models):
    # a + b, a - b and homogeneous_degree build their classes without
    # re-validation; each must equal, and hash like, the class the checked
    # constructor makes of the unreduced sums, and reach the same memo entry.
    rng = random.Random(39)
    built = {"sum": 0, "difference": 0, "polynomial": 0, "negative": 0, "torsion": 0}
    for model in family_models + fixture_models():
        degrees = sample_degrees(rng, model, 3, 2 if model.nvars > 6 else 3)
        cases = []
        for a in degrees:
            for b in degrees:
                for kind, got, sign in (("sum", a + b, 1), ("difference", a - b, -1)):
                    want = DegreeClass(
                        tuple(x + sign * y for x, y in zip(a.free, b.free)),
                        tuple(x + sign * y for x, y in zip(a.residues, b.residues)),
                        model.moduli,
                    )
                    cases.append((kind, got, want))
        for _ in range(4):
            f = random_quasi_homogeneous(rng, model, 4)
            if f.is_zero():
                continue
            m = next(iter(f.terms))
            want = DegreeClass(
                tuple(sum(e * d.free[i] for e, d in zip(m, model.degrees)) for i in range(model.rank)),
                tuple(sum(e * d.residues[k] for e, d in zip(m, model.degrees)) for k in range(len(model.moduli))),
                model.moduli,
            )
            cases.append(("polynomial", homogeneous_degree(model, f), want))
        for n, (kind, got, want) in enumerate(cases):
            _assert_exact_class(got)
            assert got == want and hash(got) == hash(want), (model.name, kind, got, want)
            built[kind] += 1
            built["negative"] += any(x < 0 for x in got.free)
            built["torsion"] += bool(got.moduli)
            if kind != "polynomial" and sum(got.free) > 6:
                continue  # keep the enumerations small
            # Alternate which class is asked first, so the memo entry is
            # made by each kind of class and found by the other.
            first, second = (want, got) if n % 2 else (got, want)
            assert monomials_of_degree(model, second) is monomials_of_degree(model, first)
    assert min(built.values()) >= 20, built
