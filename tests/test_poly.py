import random
from fractions import Fraction

import pytest

from toricfol.poly import Polynomial, grevlex_key, heap_key


def P(nvars, terms):
    return Polynomial(nvars, terms)


def test_ring_ops_basic():
    z1 = Polynomial.variable(2, 0)
    z2 = Polynomial.variable(2, 1)
    assert (z1 * z2).terms == {(1, 1): 1}
    f = z1 + z2
    assert (f + (-f)).is_zero()
    assert (f - f).is_zero()


def test_mul_collects_and_cancels():
    # (x + y)(x - y) = x^2 - y^2
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}


def test_coefficients_stay_exact():
    f = P(1, {(1,): Fraction(1, 3)})
    g = f + f + f
    assert g.terms == {(1,): 1}
    assert (f * f).terms == {(2,): Fraction(1, 9)}


def test_power():
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    assert (x + one) ** 2 == x * x + x.scale(2) + one
    assert (x ** 0) == one
    with pytest.raises(ValueError):
        x ** -1


def test_partial_derivative():
    x, m = Polynomial.variable(1, 0), 7
    assert (x ** m).partial_derivative(0) == (x ** (m - 1)).scale(m)
    assert Polynomial.constant(1, 5).partial_derivative(0).is_zero()
    with pytest.raises(IndexError):
        x.partial_derivative(3)


def test_divide_exact_difference_of_squares():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    q = (x * x - y * y).divide_exact(x - y)
    assert q == x + y


def test_divide_exact_fails_cleanly():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x * y + Polynomial.constant(2, 1)).divide_exact(x) is None
    with pytest.raises(ZeroDivisionError):
        x.divide_exact(Polynomial.zero(2))


def test_divide_round_trip_random():
    import random

    rng = random.Random(3)
    for _ in range(30):
        nv = rng.randint(1, 3)
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = tuple(rng.randint(0, 2) for _ in range(nv))
                terms[m] = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2))
            return Polynomial(nv, terms)
        q, den = rand_poly(), rand_poly()
        if den.is_zero():
            continue
        assert (q * den).divide_exact(den) == q


def test_orders():
    # grevlex: x*y^2 > x^2 in degree, x^2*y > x*z^2 by the reversed tiebreak
    assert grevlex_key((1, 2, 0)) > grevlex_key((2, 0, 0))
    assert grevlex_key((2, 1, 0)) > grevlex_key((1, 0, 2))


def test_heap_keys_reverse_the_term_orders():
    import random

    rng = random.Random(8)
    monos = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(60)}
    assert sorted(monos, key=heap_key) == sorted(monos, key=grevlex_key, reverse=True)


def test_leading_term_and_monic():
    f = P(2, {(2, 0): 2, (0, 2): 4})
    m, c = f.leading_term()
    assert m == (2, 0) and c == 2  # grevlex tie broken toward earlier variables
    assert f.monic().leading_term()[1] == 1
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading_term()


def test_to_string_canonical():
    f = P(2, {(1, 0): 1, (0, 1): Fraction(-1, 2), (0, 0): 3})
    assert f.to_string(["x", "y"]) == "x - 1/2*y + 3"
    assert Polynomial.zero(2).to_string(["x", "y"]) == "0"


def test_evaluate_is_exact_only():
    f = P(2, {(2, 0): 1, (0, 1): Fraction(1, 2)})
    assert f.evaluate((2, 4)) == 6
    val = f.evaluate((Fraction(1, 3), -1))
    assert val == Fraction(-7, 18) and isinstance(val, Fraction)
    for point in [(2.0, 4), (2, 4.0), (1j, 0), ("2", 4)]:
        with pytest.raises(TypeError):
            f.evaluate(point)


def test_variable_count_guard():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        P(2, {(1,): 1})


def _random_poly(rng, nvars, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(nvars, terms)


def _assert_well_formed(p, nvars):
    assert p.nvars == nvars
    for m, c in p.terms.items():
        assert type(m) is tuple and len(m) == nvars
        assert all(type(e) is int and e >= 0 for e in m)
        assert type(c) is Fraction and c != 0
    assert p == Polynomial(nvars, p.terms)


def test_internal_results_are_well_formed_random():
    # every result the class builds itself must look exactly like a checked one
    rng = random.Random(41)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        f, g = _random_poly(rng, nvars), _random_poly(rng, nvars)
        results = [f + g, f - g, -f, f * g, f ** rng.randint(0, 3), f + (-f)]
        results.append(f.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        shift = tuple(rng.randint(0, 2) for _ in range(nvars))
        results.append(f.mul_monomial(shift, rng.randint(-2, 2)))
        results.extend(f.partial_derivative(j) for j in range(nvars))
        if not g.is_zero():
            results.append((f * g).divide_exact(g))
            q = f.divide_exact(g)
            if q is not None:
                results.append(q)
        for r in results:
            _assert_well_formed(r, nvars)
        if not g.is_zero():
            assert (f * g).divide_exact(g) == f


def test_mul_monomial_validates_the_shift():
    f = P(2, {(1, 0): 1, (0, 1): 2})
    assert f.mul_monomial([1, 2]).terms == {(2, 2): 1, (1, 3): 2}
    with pytest.raises(ValueError):
        f.mul_monomial((1,))


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0, 0): 1})
    p = Polynomial(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)} and type(p.terms[(0, 1)]) is Fraction


def test_inexact_coefficients_and_exponents_refused():
    # A float would be stored as its binary fraction, 0.1 as
    # 3602879701896397/36028797018963968; an exponent 1.9 would become 1.
    for bad in (0.1, 1.0, 2j):
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): bad})
        with pytest.raises(TypeError):
            Polynomial.constant(2, bad)
        with pytest.raises(TypeError):
            P(1, {(1,): 1}).scale(bad)
        with pytest.raises(TypeError):
            P(1, {(1,): 1}).mul_monomial((1,), bad)
    for exps in ((1.9, 2), (1.0, 2)):
        with pytest.raises(TypeError):
            Polynomial.monomial(exps)
        with pytest.raises(TypeError):
            Polynomial(2, {exps: 1})
        with pytest.raises(TypeError):
            P(2, {(0, 1): 1}).mul_monomial(exps)
    assert Polynomial(1, {(1,): Fraction(1, 10)}).terms == {(1,): Fraction(1, 10)}
    assert P(1, {(1,): 3}).scale(Fraction(1, 3)) == P(1, {(1,): 1})
