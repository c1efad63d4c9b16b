import random
from fractions import Fraction

import pytest

import groebner_oracle as oracle
import poly_oracle
from poly_oracle import grevlex_key
from toricfol.poly import Polynomial, exact_div, layout_for, sum_of_products


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


def test_partials_are_computed_once_and_match_the_terms_random():
    # one tuple per polynomial, whoever asks, equal to the term-by-term rule
    rng = random.Random(30)
    for _ in range(100):
        nvars = rng.randint(1, 4)
        f = _random_poly(rng, nvars)
        every = f.partials()
        assert type(every) is tuple and len(every) == nvars
        assert f.partials() is every
        for j in range(nvars):
            assert f.partial_derivative(j) is every[j]
            want = {m[:j] + (m[j] - 1,) + m[j + 1 :]: c * m[j] for m, c in f.terms.items() if m[j]}
            assert every[j].terms == want
            _assert_well_formed(every[j], nvars)


@pytest.mark.parametrize("nvars", [1, 3])
def test_partial_derivative_refuses_an_index_out_of_range(nvars):
    # a bare index into the kept tuple would read -1 as the last variable
    f = Polynomial.variable(nvars, 0, power=2)
    f.partials()
    for j in (-1, nvars):
        with pytest.raises(IndexError):
            f.partial_derivative(j)


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


def test_divide_exact_of_zero(monkeypatch):
    x = Polynomial.variable(3, 0)
    den = x * x - x
    with monkeypatch.context() as m:  # a zero numerator is not divided: nothing is packed
        m.setattr(Polynomial, "packed", lambda self: pytest.fail("packed"))
        q = Polynomial.zero(3).divide_exact(den)
    assert q.is_zero() and q.nvars == 3
    with pytest.raises(ZeroDivisionError):
        Polynomial.zero(3).divide_exact(Polynomial.zero(3))
    with pytest.raises(ValueError):
        Polynomial.zero(2).divide_exact(x)
    with pytest.raises(ValueError):
        x.divide_exact(Polynomial.variable(2, 0))


def test_division_leaves_a_full_remainder():
    # (q, r) behind divide_exact: f = q * den + r, and r is zero exactly
    # when den divides f, else lead(den) divides no term of r
    rng = random.Random(17)
    left = 0
    for _ in range(200):
        nvars = rng.randint(1, 4)
        f, den = _random_poly(rng, nvars), _random_poly(rng, nvars, max_terms=3)
        if den.is_zero():
            continue
        q, r = f._divide(den)
        assert f == q * den + r
        assert (f.divide_exact(den) is None) == bool(r)
        lead = den.leading_term()[0]
        assert not any(all(a <= b for a, b in zip(lead, m)) for m in r.terms)
        left += len(r.terms) > 1
        _assert_well_formed(q, nvars)
        _assert_well_formed(r, nvars)
    assert left >= 50


def _boundary_poly(rng, nvars, top):
    """Up to three terms, each with one exponent near ``top`` and small
    others, int or Fraction coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = [rng.randint(0, 2) for _ in range(nvars)]
        m[rng.randrange(nvars)] = top - rng.randint(0, 2)
        c = rng.choice([-3, -2, 1, 2, 6])
        terms[tuple(m)] = c if rng.random() < 0.6 else Fraction(c, rng.randint(2, 3))
    return Polynomial(nvars, terms)


def test_division_matches_the_tuple_oracle_random():
    # The packed loop against the tuple loop it replaced: the same quotient
    # whenever the divisor divides, and f = q * den + r always, on int and
    # Fraction coefficients, divisors that are not monic, and exponents on
    # both sides of the 8-bit and 16-bit layouts' limits.
    rng = random.Random(32)
    divided = widths = 0
    seen = set()
    for trial in range(600):
        nvars = rng.randint(1, 4)
        if trial % 3:
            den = _random_poly(rng, nvars, max_terms=3)
            q = _random_poly(rng, nvars)
        else:
            top = rng.choice([127, 128, 129, 32767, 32768, 32769])
            den = _boundary_poly(rng, nvars, rng.choice([2, top]))
            q = _boundary_poly(rng, nvars, top)
        if den.is_zero():
            continue
        f = q * den if rng.random() < 0.6 else q * den + _random_poly(rng, nvars, max_terms=2)
        got_q, got_r = f._divide(den)
        want_q, want_r = poly_oracle.divide(f, den)
        assert f == got_q * den + got_r
        assert bool(got_r) == bool(want_r)
        if not want_r:
            assert list(got_q.terms.items()) == list(want_q.terms.items())
            assert f.divide_exact(den) == want_q
            divided += 1
        _assert_well_formed(got_q, nvars)
        _assert_well_formed(got_r, nvars)
        seen.add(max(f.packed()[0].bits, den.packed()[0].bits))
    assert divided >= 300 and seen == {8, 16, 32}, (divided, seen)


def test_division_by_a_non_monic_integer_makes_no_fraction(monkeypatch):
    # The divisor keeps its lead coefficient: its tail stays in ints, and
    # each popped coefficient is divided by the lead one, so an integral
    # quotient makes no Fraction anywhere in the loop.
    x, y, z = (Polynomial.variable(3, j) for j in range(3))
    den = (x * x).scale(6) - (x * y).scale(4) + (z * z).scale(10)
    q = (x * y).scale(5) - (y * z).scale(7) + Polynomial.constant(3, 3)
    f = q * den
    f.packed(), den.packed()
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
    got = f.divide_exact(den)
    assert made == []
    assert got == q and all(type(c) is int for c in got.terms.values())


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
    # Ascending packed keys are descending grevlex, in every layout width,
    # and each key unpacks to its monomial.
    rng = random.Random(8)
    for degree in (9, 127, 128, 32767, 32768):
        layout = layout_for(3, degree)
        monos = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(60)}
        monos |= {(degree - a - b, a, b) for a, b in ((0, 0), (1, 0), (0, 1), (2, 3))}
        keyed = layout.pack(dict.fromkeys(monos))
        assert list(layout.unpack(dict.fromkeys(sorted(keyed)))) == sorted(monos, key=grevlex_key, reverse=True)
        assert list(layout.unpack(keyed)) == list(monos)


def test_leading_term_is_the_grevlex_maximum():
    rng = random.Random(12)
    for _ in range(200):
        nvars = rng.randint(1, 5)
        p = _random_poly(rng, nvars, max_terms=8, max_exp=4)
        if p:
            m = max(p.terms, key=grevlex_key)
            assert p.leading_term() == (m, p.terms[m])
            assert [t for t, _ in p.sorted_terms()] == sorted(p.terms, key=grevlex_key, reverse=True)


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


def _is_canonical(c) -> bool:
    """A nonzero int that is not a bool, or a Fraction that is not integral."""
    return (type(c) is int or (type(c) is Fraction and c.denominator != 1)) and c != 0


def _assert_well_formed(p, nvars):
    assert p.nvars == nvars
    for m, c in p.terms.items():
        assert type(m) is tuple and len(m) == nvars
        assert all(type(e) is int and e >= 0 for e in m)
        assert _is_canonical(c), (m, c)
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
    assert p.terms == {(0, 1): 2} and type(p.terms[(0, 1)]) is int
    # integral Fractions and bools are stored as ints, other Fractions as given
    p = Polynomial(3, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): True, (0, 0, 1): Fraction(-3, 6)})
    assert p.terms == {(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 1): Fraction(-1, 2)}
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]


def test_exact_div_is_canonical_and_never_a_float():
    cases = [
        (6, 3, 2), (6, -3, -2), (-7, 2, Fraction(-7, 2)), (7, -2, Fraction(-7, 2)),
        (0, 5, 0), (1, -1, -1), (Fraction(3, 2), Fraction(3, 4), 2),
        (Fraction(1, 2), 3, Fraction(1, 6)), (4, Fraction(2, 3), 6), (5, Fraction(2, 3), Fraction(15, 2)),
    ]
    for a, b, want in cases:
        got = exact_div(a, b)
        assert got == want and type(got) is type(want), (a, b, got)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


# An all-Fraction reference for the ring operations, on plain term dicts.
def _ref(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _as_fractions(p):
    """p with every coefficient held as a Fraction, integral or not."""
    return Polynomial._trusted(p.nvars, _ref(p))


def _mixed_poly(rng, nvars, degree=None, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if degree is None:
            m = tuple(rng.randint(0, 2) for _ in range(nvars))
        else:
            cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
            m = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        den = rng.choice([1, 1, 2, 3, 4])
        terms[m] = Fraction(rng.choice([-6, -3, -2, -1, 1, 2, 3, 4]), den)
    return Polynomial(nvars, terms)


def test_canonical_coefficients_match_fraction_arithmetic():
    # Mixed integral and non-integral inputs; every result must equal the
    # same computation done on Fractions throughout, and be canonical.
    rng = random.Random(2024)
    kinds = {int: 0, Fraction: 0}
    for _ in range(120):
        nvars = rng.randint(1, 3)
        f, g, h = (_mixed_poly(rng, nvars) for _ in range(3))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        shift = tuple(rng.randint(0, 2) for _ in range(nvars))
        checks = [
            (f + g, _ref_add(_ref(f), _ref(g))),
            (f - g, _ref_add(_ref(f), {m: -v for m, v in _ref(g).items()})),
            (f * g, _ref_mul(_ref(f), _ref(g))),
            (f.scale(c), {m: c * v for m, v in _ref(f).items() if c}),
            (
                f.mul_monomial(shift, c),
                {tuple(x + y for x, y in zip(m, shift)): c * v for m, v in _ref(f).items() if c},
            ),
        ]
        for j in range(nvars):
            want = {m[:j] + (m[j] - 1,) + m[j + 1 :]: v * m[j] for m, v in _ref(f).items() if m[j]}
            checks.append((f.partial_derivative(j), want))
        product = f * g
        checks.append((product.divide_exact(g), _ref(f)))
        assert product.divide_exact(g).terms == oracle.divide_exact(_as_fractions(product), _as_fractions(g)).terms
        # the division loop itself yields canonical remainder terms
        rem = oracle.kernel_remainder(product + h, [g, h])
        assert all(_is_canonical(c) for c in rem.terms.values())
        want = oracle.reduce_poly(_as_fractions(product + h), [_as_fractions(g), _as_fractions(h)])
        checks.append((rem, _ref(want)))
        for got, want in checks:
            assert got.terms == want
            _assert_well_formed(got, nvars)
            for v in got.terms.values():
                kinds[type(v)] += 1
    for _ in range(40):
        gens = [_mixed_poly(rng, 3, degree=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        raw = oracle.engine_basis(gens)
        got = oracle.engine_reduced_basis(gens)
        want = oracle.buchberger([_as_fractions(g) for g in gens])
        assert [g.terms for g in got] == [_ref(w) for w in want]
        for g in raw:
            _assert_well_formed(g, 3)
        for g in got:
            _assert_well_formed(g, 3)
            for v in g.terms.values():
                kinds[type(v)] += 1
    # both kinds of coefficient are exercised, not integers alone
    assert kinds[Fraction] >= 800 and kinds[int] >= 800, kinds


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
    # No layout holds a negative exponent.
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 2): 1, (0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 2): 0})
    with pytest.raises(ValueError):
        Polynomial.monomial((0, -1))
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0, power=-1)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).mul_monomial((-1, 0))
    assert Polynomial(1, {(1,): Fraction(1, 10)}).terms == {(1,): Fraction(1, 10)}
    assert P(1, {(1,): 3}).scale(Fraction(1, 3)) == P(1, {(1,): 1})


# -- the product kernel against the tuple loop --------------------------------


def _factor(rng, nvars, top):
    """Up to five terms with exponents up to ``top`` and int or Fraction
    coefficients; sometimes zero."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        m = tuple(rng.randint(0, top) for _ in range(nvars))
        c = rng.choice([-3, -1, 1, 2, 5])
        terms[m] = c if rng.random() < 0.6 else Fraction(c, rng.randint(2, 4))
    return Polynomial(nvars, terms)


def _same_terms_in_order(got, want):
    assert got.nvars == want.nvars
    assert list(got.terms.items()) == list(want.terms.items())
    _assert_well_formed(got, got.nvars)


def test_products_match_the_tuple_loop_random():
    rng = random.Random(28)
    for _ in range(300):
        nvars = rng.randint(1, 6)
        top = rng.choice([2, 3, 127])
        pairs = [(_factor(rng, nvars, top), _factor(rng, nvars, top)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:  # a pair that cancels the first: the sum is zero there
            a, b = pairs[0]
            pairs.append((a, -b))
        _same_terms_in_order(sum_of_products(nvars, pairs), poly_oracle.sum_of_products(nvars, pairs))
        a, b = pairs[0]
        _same_terms_in_order(a * b, poly_oracle.sum_of_products(nvars, [(a, b)]))


def test_products_at_the_byte_boundary():
    # A product is keyed in the narrowest layout that holds the sum of its
    # factors' degrees: 8-bit fields below 128, 16-bit ones below 2^15.
    # Crossing either limit widens the product's layout past both of its
    # factors'; widened or not, it equals the tuple loop, term for term
    # and in order.
    x = Polynomial.variable(3, 0)
    rng = random.Random(5)
    widenings = []
    for top, bits in ((64, 8), (65, 16), (32704, 16), (32705, 32)):
        for _ in range(20):
            a = _factor(rng, 3, 3) + Polynomial.monomial((top, 1, 0), rng.choice([1, Fraction(1, 2)]))
            b = _factor(rng, 3, 3) + x.mul_monomial((59, 0, 2)) - x  # degrees top + 1 and 62
            pairs = [(a, b), (b, a)]
            got = sum_of_products(3, pairs)
            layout = got.packed()[0]
            assert layout.bits == bits, top
            widenings.append(layout.bits > max(a.packed()[0].bits, b.packed()[0].bits))
            _same_terms_in_order(got, poly_oracle.sum_of_products(3, pairs))
    assert widenings == [False] * 20 + [True] * 20 + [False] * 20 + [True] * 20
    # a polynomial packs itself in the narrowest layout of its degree
    for e, bits in ((127, 8), (128, 16), (32767, 16), (32768, 32)):
        assert Polynomial.monomial((e, 0, 0)).packed()[0].bits == bits
    p = Polynomial.monomial((127, 0, 127), 2)
    assert (p * p).terms == {(254, 0, 254): 4}
