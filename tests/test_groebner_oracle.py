"""The Groebner engine against the slow reference in ``groebner_oracle``.

The reduced Groebner basis of an ideal is unique for the term order, so
the engine's exact pair-loop basis, interreduced by the oracle
(``engine_reduced_basis``), must be exactly the oracle's generators, in
the same order, whatever pairs the engine skips.  The one division loop, ``divide_terms``,
must return the oracle's remainder on any divisor list, Groebner basis
or not, which pins the first-matching-reducer rule.
"""

import random
from fractions import Fraction

import pytest

import groebner_oracle as oracle
from property_suites import default_models, random_quasi_homogeneous
from toricfol.families import (
    biproj_pairs_fixture,
    monomial_hypersurface_fixture,
    split_field_fixture,
    torsion_fermat_fixture,
    weighted_projective,
    wps_pairs_fixture,
)
from toricfol.degrees import DegreeClass
from toricfol.grading import monomials_of_degree
from toricfol.groebner import ideal_dimension, only_origin_check
from toricfol.poly import Polynomial

def assert_same_basis(gens) -> int:
    """The oracle's basis size."""
    want = oracle.buchberger(gens)
    assert oracle.engine_reduced_basis(gens) == want, gens
    return len(want)


def random_generator_sets(count: int, seed: int):
    rng = random.Random(seed)
    models = default_models()
    for t in range(count):
        model = models[t % len(models)]
        size = rng.randint(1, 3)
        yield [random_quasi_homogeneous(rng, model, max_total_degree=4) for _ in range(size)]


def test_random_quasi_homogeneous_sets_match_oracle():
    grown = 0
    for gens in random_generator_sets(210, seed=41):
        grown += assert_same_basis(gens) > len(gens)
    assert grown >= 20  # not only inputs that are already reduced bases


FIXTURES = [
    wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
    wps_pairs_fixture((1, 1, 1, 1), (2, 2, 2, 2)),
    wps_pairs_fixture((1, 1, 1), (4, 4, 4)),
    biproj_pairs_fixture(1, [1], [1]),
    biproj_pairs_fixture(3, [2, 1], [1, 1]),
    torsion_fermat_fixture(3),
    torsion_fermat_fixture(6),
    split_field_fixture(1, 2),
    split_field_fixture(2, 1, (1, 2)),
    monomial_hypersurface_fixture(2, 3),
    monomial_hypersurface_fixture(1, 1),
]


@pytest.mark.parametrize("fix", FIXTURES, ids=lambda fix: fix.name)
def test_fixture_jacobian_ideals_match_oracle(fix):
    f = fix.hypersurface
    partials = [f.partial_derivative(j) for j in range(f.nvars)]
    assert_same_basis([p for p in partials if not p.is_zero()])


def test_dense_jacobian_ideals_match_oracle():
    # Every monomial of the degree present: many pairs, many skipped by the criteria.
    rng = random.Random(5)
    for model in (weighted_projective(1, 1, 1), weighted_projective(1, 1, 1, 1)):
        monomials = monomials_of_degree(model, DegreeClass((3,)))
        f = Polynomial(model.nvars, {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for m in monomials})
        partials = [f.partial_derivative(j) for j in range(model.nvars)]
        assert oracle.engine_reduced_basis(partials) == oracle.buchberger(partials)


def V(nv, j, p=1, c=1):
    return Polynomial.variable(nv, j, power=p, coeff=c)


def test_edge_cases_match_oracle():
    x, y, z = (V(3, j) for j in range(3))
    one = Polynomial.constant(3, 1)
    zero = Polynomial.zero(3)
    f, g = x * y - z * z, y * y - x * z
    cases = {
        "duplicated": [f, g, f, g.scale(3)],
        "unit ideal": [f, one.scale(5), g],
        "zeros mixed in": [zero, f, zero, g, zero],
        "one generator": [f.scale(Fraction(-2, 3))],
        "coprime leads": [x * x + y, y * y * y - z, z * z * z + one],
        "coprime monomials": [x * x, y * y, z * z * z],
    }
    for gens in cases.values():
        assert_same_basis(gens)
    assert oracle.engine_reduced_basis(cases["unit ideal"]) == (one,)


def test_no_nonzero_generator_still_raises():
    with pytest.raises(ValueError):
        ideal_dimension([Polynomial.zero(2)])
    with pytest.raises(ValueError):
        oracle.engine_reduced_basis([Polynomial.zero(2)])
    with pytest.raises(ValueError):
        oracle.buchberger([Polynomial.zero(2)])


def _random_poly(rng, nvars, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[m] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return Polynomial(nvars, terms)


def test_reduce_poly_matches_oracle_on_arbitrary_divisors():
    # Random divisor lists are almost never Groebner bases, so the
    # remainder depends on which reducer is tried first.
    rng = random.Random(17)
    order_dependent = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        divisors = [_random_poly(rng, nvars, max_terms=3, max_exp=2) for _ in range(rng.randint(1, 4))]
        divisors = [d for d in divisors if not d.is_zero()]
        f = _random_poly(rng, nvars, max_terms=6, max_exp=4)
        want = oracle.reduce_poly(f, divisors)
        assert oracle.kernel_remainder(f, divisors) == want
        if want != oracle.reduce_poly(f, divisors[::-1]):
            order_dependent += 1
    assert order_dependent >= 20


def test_reduce_poly_first_match_wins():
    x, y = V(2, 0), V(2, 1)
    f = x * x * y
    one = Polynomial.constant(2, 1)
    assert oracle.kernel_remainder(f, [x * y - one, x * x - y]) == x
    assert oracle.kernel_remainder(f, [x * x - y, x * y - one]) == y * y
    assert oracle.kernel_remainder(Polynomial.zero(2), [x]).is_zero()


def test_divide_exact_matches_oracle():
    rng = random.Random(29)
    divisible = zeros = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        den = _random_poly(rng, nvars, max_terms=3, max_exp=2)
        if den.is_zero():
            continue
        q = _random_poly(rng, nvars, max_terms=3, max_exp=2)
        f = q * den if rng.random() < 0.5 else q * den + _random_poly(rng, nvars, max_terms=1)
        if rng.random() < 0.1:
            f = Polynomial.zero(nvars)
        zeros += f.is_zero()
        want = oracle.divide_exact(f, den)
        assert f.divide_exact(den) == want
        divisible += want is not None
    assert divisible >= 100 and zeros >= 20


def _m(*exponents, c=1):
    return Polynomial.monomial(exponents, c)


def test_overflowing_degrees_repack_and_match_oracle(monkeypatch):
    # A layout of B-bit fields holds exponents and degrees below 2^(B-1);
    # layouts start at 8 bits and double.  Here the lcm of a pair or the
    # generators themselves cross a limit, or a generator is reduced on
    # entry after the move, and the answers must not change.
    import toricfol.groebner as groebner

    repacks = []
    repack = groebner._repack
    monkeypatch.setattr(
        groebner, "_repack", lambda d, old, new: repacks.append((old.limit, new.limit)) or repack(d, old, new)
    )
    n = 12000  # 2n < 2^15 <= 3n: the first lcm past the limit is a new element's
    cases = {
        # the same move from 8-bit fields: 2 * 50 < 2^7 <= 3 * 50
        "new element past 8 bits": ([_m(50, 1, 0) - _m(0, 0, 51), _m(1, 50, 0) - _m(0, 0, 51)], 8, 3),
        "new element": ([_m(n, 1, 0) - _m(0, 0, n + 1), _m(1, n, 0) - _m(0, 0, n + 1)], 16, 3),
        "generators": ([_m(17000, 1), _m(1, 17000), _m(17001, 0) + _m(0, 17001)], 16, 2),
        "wide generators": ([_m(40000, 0) - _m(0, 40000), _m(1, 39999)], 32, 0),
        "wider than 2^31": ([_m(2**31 + 3, 0) - _m(0, 2**31 + 3), _m(2, 2**31 + 1)], 64, 0),
        # the third generator enters after the move and reduces to y^17002 there
        "reduced after the move": ([_m(17000, 1), _m(1, 17000), _m(17001, 1) + _m(0, 17002)], 16, 2),
    }
    answers = []
    for name, (gens, bits, repacked) in cases.items():
        repacks.clear()
        stats, want_stats = {}, {}
        got = [g.terms for g in oracle.engine_basis(gens, stats)]
        assert got == oracle.pair_loop_basis(gens, None, want_stats), name
        assert stats == want_stats, name
        # the loop started at ``bits`` and the basis held ``repacked``
        # elements when its fields doubled
        assert repacks == [(2 ** (bits - 1), 2 ** (2 * bits - 1))] * repacked, name
        record = {}
        answer = only_origin_check(gens, record=record)
        assert answer is (ideal_dimension(gens) <= 0)
        answers.append((answer, record["path"]))
    assert answers == [(False, "exact")] * 2 + [(True, "modular")] * 3 + [(False, "exact")]
    basis = oracle.engine_basis(cases["reduced after the move"][0])
    assert [g.leading_term()[0] for g in basis] == [(17000, 1), (1, 17000), (0, 17002)]
    gb = oracle.buchberger([_m(1, 0) - _m(0, 1), _m(0, 2) - _m(0, 0)])
    f = _m(50000, 1) + _m(3, 49998, c=Fraction(1, 2))
    # the division loop on a basis in 32-bit fields
    assert oracle.kernel_remainder(f, gb) == oracle.reduce_poly(f, gb)
