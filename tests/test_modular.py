"""The modular first step of the dimension checks against the exact path.

``only_origin_check`` and ``regular_subsequence_check`` may answer from a
Groebner basis mod P = 2^30 - 35.  Each answer here is compared with the
exact dimension read from the leads of the tuple oracle's exact pair
loop, ``groebner_oracle.exact_leads``, and the recorded path is checked:
the dense quasi-smooth ladder must be certified mod P, and a singular
hypersurface must be handed over to the exact path.  The mod-P loop of
``only_origin_check`` stops once its leads bound the dimension by zero;
the recorded pair counts show where.  The exact fallback,
``ideal_dimension(gens)``, reads the leads of the pair loop's unreduced
basis, which must give the dimension of the reduced one.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest

import groebner_oracle as oracle
from poly_oracle import monomial_divides
from toricfol.families import (
    biproj_pairs_fixture,
    monomial_hypersurface_fixture,
    split_field_fixture,
    torsion_fermat_fixture,
    weighted_projective,
    wps_pairs_fixture,
)
from toricfol.groebner import (
    P,
    _lead_dimension,
    _leads,
    _pair_loop,
    only_origin_check,
    regular_subsequence_check,
)
from toricfol.poly import Polynomial, layout_for


def nonzero_partials(f):
    return [p for p in (f.partial_derivative(j) for j in range(f.nvars)) if not p.is_zero()]


def exact_dimension(gens):
    """The dimension read from the leads of the tuple oracle's exact basis."""
    return _lead_dimension(oracle.exact_leads(gens))


def origin_check(gens, record=None):
    record = {} if record is None else record
    answer = only_origin_check(gens, record=record)
    assert answer is (exact_dimension(gens) <= 0)
    return answer, record["path"]


def weighted_monomials(weights, degree):
    if len(weights) == 1:
        return [(degree // weights[0],)] if degree % weights[0] == 0 else []
    return [
        (e,) + rest
        for e in range(degree // weights[0] + 1)
        for rest in weighted_monomials(weights[1:], degree - e * weights[0])
    ]


def dense_poly(rng, weights, degree):
    """Every monomial of the degree; pure powers get 1 + 7c and the others
    7c with c = +-1, so mod 7 it is a Fermat-type sum of pure powers and
    the hypersurface is quasi-smooth by construction."""
    n = len(weights)
    pure = {tuple(degree // w if i == j else 0 for i in range(n)) for j, w in enumerate(weights)}
    terms = {}
    for m in weighted_monomials(weights, degree):
        c = 7 * rng.choice((-1, 1))
        terms[m] = c + 1 if m in pure else c
    return Polynomial(n, terms)


def nodal_poly(rng, weights, degree):
    """A dense hypersurface singular at a seeded point (1, p_1, ..., p_n)
    with every p_j outside {0, 1}.  weights[0] must be 1.

    A polynomial with no monomial x_0^degree and no x_0^(degree - w_j) x_j
    is singular at (1, 0, ..., 0); substituting x_j - p_j x_0^(w_j) for
    x_j keeps it quasi-homogeneous and moves the singular point."""
    n = len(weights)
    point = [rng.choice([-3, -2, -1, 2, 3, 5]) for _ in range(1, n)]
    x0 = Polynomial.variable(n, 0)
    moved = [x0] + [Polynomial.variable(n, j) - (x0 ** weights[j]).scale(point[j - 1]) for j in range(1, n)]
    f = Polynomial.zero(n)
    for m in weighted_monomials(weights, degree):
        if sum(m[1:]) <= 1:
            continue  # the constant and linear terms of the chart x_0 = 1
        term = Polynomial.constant(n, rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        for j, e in enumerate(m):
            term = term * moved[j] ** e
        f = f + term
    return f, (1, *point)


FIXTURES = [
    wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
    wps_pairs_fixture((1, 1, 1), (3, 3, 3), (2, -3)),
    biproj_pairs_fixture(1, [1], [1]),
    biproj_pairs_fixture(1, [2], [3]),
    biproj_pairs_fixture(3, [2, 1], [1, 1]),
    torsion_fermat_fixture(3),
    torsion_fermat_fixture(6),
    split_field_fixture(1, 2, (1, 2)),
    split_field_fixture(2, 3, (-5, 7)),
    split_field_fixture(3, 4),
    monomial_hypersurface_fixture(2, 2),
    monomial_hypersurface_fixture(2, 3),
    monomial_hypersurface_fixture(1, 4),
]


@pytest.mark.parametrize("fix", FIXTURES, ids=lambda fix: fix.name)
def test_fixture_families_agree_with_exact(fix):
    f = fix.hypersurface
    answer, path = origin_check(nonzero_partials(f))
    assert path == "modular" if answer else path == "exact"
    if fix.subset is not None:
        partials = [f.partial_derivative(j) for j in fix.subset]
        exact = exact_dimension(partials) == f.nvars - len(fix.subset)
        assert regular_subsequence_check(f, fix.subset) is exact


@pytest.mark.parametrize("fix", [fx for fx in FIXTURES if fx.name.startswith("monomial")], ids=lambda fix: fix.name)
def test_monomial_hypersurfaces_hand_over_to_exact(fix):
    assert origin_check(nonzero_partials(fix.hypersurface)) == (False, "exact")


LADDER = [
    ((1, 1, 1), 3),  # P^2 cubic
    ((1, 1, 1, 1), 3),  # P^3 cubic
    ((1, 1, 1, 1, 1), 3),  # P^4 cubic
    ((1, 1, 1, 1, 1), 2),  # P^4 quadric
    ((1, 1, 2), 4),  # P(1,1,2) quartic
    ((1, 2, 3), 6),  # P(1,2,3) sextic
    ((1, 1, 2, 3), 6),  # P(1,1,2,3) sextic
]


@pytest.mark.parametrize("weights, degree", LADDER)
def test_dense_ladder_certified_mod_p(weights, degree):
    f = dense_poly(random.Random(f"{weights}:{degree}"), weights, degree)
    assert origin_check(nonzero_partials(f)) == (True, "modular")


@pytest.mark.parametrize("weights, degree", [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)])
def test_regular_subsequences_agree_with_exact(weights, degree):
    f = dense_poly(random.Random(f"{weights}:{degree}"), weights, degree)
    for k in range(1, f.nvars + 1):
        for indices in combinations(range(f.nvars), k):
            record = {}
            answer = regular_subsequence_check(f, indices, record=record)
            partials = [f.partial_derivative(j) for j in indices]
            assert answer is (exact_dimension(partials) == f.nvars - k)
            assert record["path"] == "modular"
            # the loop stops only at leads of dimension <= 0; here all partials reach them
            assert record["modular"]["stopped_early"] is (k == f.nvars)


NODAL = [((1, 1, 1), 3), ((1, 1, 1), 4), ((1, 1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6), ((1, 1, 2, 3), 6)]


@pytest.mark.parametrize("weights, degree", NODAL)
@pytest.mark.parametrize("seed", [1, 2])
def test_nodal_hypersurfaces_hand_over_to_exact(weights, degree, seed):
    f, point = nodal_poly(random.Random(seed), weights, degree)
    assert f.evaluate(point) == 0
    assert all(p.evaluate(point) == 0 for p in nonzero_partials(f))
    record = {}
    assert origin_check(nonzero_partials(f), record) == (False, "exact")
    # a singular point outside the origin keeps some variable free of a pure-power lead
    assert record["modular"]["stopped_early"] is False


@pytest.mark.parametrize("weights, degree", NODAL[:3])
def test_nodal_regular_sequence_hands_over_to_exact(weights, degree):
    # all the partials of a singular hypersurface are no regular sequence,
    # and only the exact loop can say so
    f = nodal_poly(random.Random(1), weights, degree)[0]
    record = {}
    assert regular_subsequence_check(f, range(f.nvars), record=record) is False
    assert record["path"] == "exact"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "weights, degree, nodal", [(w, d, False) for w, d in LADDER] + [(w, d, True) for w, d in NODAL]
)
def test_packed_loop_matches_tuple_oracle(weights, degree, nodal, seed):
    # The coefficients decide which pairs reduce to zero and which leads
    # appear, so the packed loop must follow the tuple loop step for step,
    # mod P and exactly.
    rng = random.Random(f"{weights}:{degree}:{seed}")
    f = nodal_poly(rng, weights, degree)[0] if nodal else dense_poly(rng, weights, degree)
    gens = nonzero_partials(f)
    want_stats = {}
    want = oracle.pair_loop_basis(gens, None, want_stats)
    stats = {}
    assert [g.terms for g in oracle.engine_basis(gens, stats)] == want
    assert stats == want_stats
    want_stats = {}
    want = oracle.pair_loop_basis(gens, P, want_stats)
    stats = {}
    assert _leads(gens, P, stats) == [next(iter(g)) for g in want]
    assert stats == want_stats
    layout = layout_for(f.nvars, max(g.total_degree() for g in gens))
    basis, layout = _pair_loop([layout.pack(g) for g in oracle.modular_generators(gens)], P, layout, {})
    assert [oracle.divisor_terms(d, layout) for d in basis] == want
    record = {}
    only_origin_check(gens, record=record)
    assert record["modular"] == want_stats
    assert record["path"] == ("exact" if nodal else "modular")


def test_p2_cubic_certified_after_three_reductions():
    # The three partials share the lead x_0^2; reduced on entry, they
    # leave three elements with distinct leads before any pair.
    gens = nonzero_partials(dense_poly(random.Random(1), (1, 1, 1), 3))
    record = {}
    assert origin_check(gens, record) == (True, "modular")
    assert record["modular"] == {"pairs_reduced": 3, "basis_size": 6, "stopped_early": True}


@pytest.mark.parametrize("weights, degree", LADDER)
def test_early_stop_leads_give_the_exact_dimension(weights, degree):
    # The stopped loop's leads lie in the exact initial ideal and read off
    # the dimension of the exact reduced basis.
    gens = nonzero_partials(dense_poly(random.Random(f"{weights}:{degree}"), weights, degree))
    stats = {}
    leads = _leads(gens, P, stats)
    assert stats["stopped_early"]
    exact = oracle.exact_leads(gens)
    assert all(any(monomial_divides(e, m) for e in exact) for m in leads)
    assert _lead_dimension(leads) == _lead_dimension(exact) == 0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "weights, degree, nodal", [(w, d, False) for w, d in LADDER] + [(w, d, True) for w, d in NODAL]
)
def test_exact_leads_give_the_reduced_basis_dimension(weights, degree, nodal, seed):
    # The exact fallback reads the unreduced basis of the pair loop.
    rng = random.Random(seed)
    f = nodal_poly(rng, weights, degree)[0] if nodal else dense_poly(rng, weights, degree)
    gens = nonzero_partials(f)
    basis = oracle.engine_basis(gens)
    reduced = oracle._interreduce(basis)
    assert _lead_dimension([g.leading_term()[0] for g in basis]) == _lead_dimension(
        [g.leading_term()[0] for g in reduced]
    )


def V(j, c=1, p=2):
    return Polynomial.variable(3, j, power=p, coeff=c)


def test_modulus_is_a_prime_below_2_to_30():
    # below 2^30 a reduced coefficient is one CPython digit
    assert 2 < P < 2**30
    assert all(P % d for d in range(2, isqrt(P) + 1))
    # ... and the largest one
    assert all(any(n % d == 0 for d in range(2, isqrt(n) + 1)) for n in range(P + 1, 2**30))


def test_generator_vanishing_mod_p_falls_back():
    # P * x^2 has every coefficient divisible by P, so no mod-P loop runs
    record = {}
    assert origin_check([V(0, P), V(1), V(2)], record) == (True, "exact")
    assert record["modular"] is None
    assert origin_check([V(0, 3 * P) + V(1, -P), V(1), V(2)]) == (True, "exact")


def test_leading_coefficient_divisible_by_p():
    # mod P the first generator loses its leading term x^2 and becomes y^2
    assert origin_check([V(0, P) + V(1), V(1) + V(2), V(2)]) == (True, "exact")
    xy = Polynomial.monomial((1, 1, 0))
    assert origin_check([V(0, P) + V(1), V(0) - xy, V(2)]) == (True, "modular")


def test_rational_coefficients():
    third, fifth = Fraction(1, 3), Fraction(-2, 5)
    assert origin_check([V(0, third) + V(1, fifth), V(1, fifth), V(2, Fraction(7, 11))]) == (True, "modular")
    # clearing the denominator P leaves x^2 + P*y^2, which is x^2 mod P
    assert origin_check([V(0, Fraction(1, P)) + V(1), V(0) + V(2), V(1, Fraction(1, P))]) == (True, "modular")
    # ... and here P*x^2 + y^2, so mod P the ideal loses x^2
    assert origin_check([V(0) + V(1, Fraction(1, P)), V(1), V(2)]) == (True, "exact")
    assert origin_check([V(0, third) - V(1, third), V(1, fifth) - V(2, fifth)]) == (False, "exact")


def test_zero_generators_are_skipped_and_errors_kept():
    assert origin_check([V(0), Polynomial.zero(3), V(1), V(2)]) == (True, "modular")
    with pytest.raises(ValueError, match="no nonzero generators"):
        only_origin_check([Polynomial.zero(3)])
    with pytest.raises(ValueError, match="variable count mismatch"):
        only_origin_check([V(0), Polynomial.variable(2, 0)])


def test_dense_p4_quartic_certified():
    # no exact basis is within reach here; mod P it takes about 0.15 s
    f = dense_poly(random.Random(4), (1, 1, 1, 1, 1), 4)
    record = {}
    assert only_origin_check(nonzero_partials(f), record=record) is True
    assert record["path"] == "modular"
