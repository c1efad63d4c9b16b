import random
from fractions import Fraction
from itertools import combinations

import groebner_oracle as oracle
from poly_oracle import grevlex_key
from toricfol.groebner import (
    EMPTY_VARIETY,
    P,
    _lead_dimension,
    _leads,
    _set_to_one,
    ideal_dimension,
    only_origin_check,
    regular_subsequence_check,
    sing_inside_irrelevant,
)
from toricfol.poly import Divisor, Polynomial, divide_terms, layout_for
from linalg_oracle import solve_dense
from test_poly import _is_canonical


def V(nv, j, p=1, c=1):
    return Polynomial.variable(nv, j, power=p, coeff=c)


def normal_form(f, gb):
    """The canonical remainder of f modulo the ideal of the reduced basis gb."""
    return oracle.reduce_poly(f, gb)


def test_buchberger_fixed_points():
    z1, z2 = V(2, 0), V(2, 1)
    gb = oracle.engine_reduced_basis([z1, z2])
    assert set(gb) == {z1, z2}
    single = oracle.engine_reduced_basis([z1.scale(3)])
    assert single == (z1,)


def test_buchberger_classic_pair():
    # z1^2 - z2 and z2^2 force z1^4 into the ideal
    z1, z2 = V(2, 0), V(2, 1)
    gb = oracle.engine_reduced_basis([z1 * z1 - z2, z2 * z2])
    assert normal_form(z1 ** 4, gb).is_zero()
    assert not normal_form(z1 ** 3, gb).is_zero()


def test_normal_form_membership():
    z1, z2 = V(2, 0), V(2, 1)
    gens = [z1 * z1 - z2, z2 * z2]
    gb = oracle.engine_reduced_basis(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()
    assert normal_form(z1, oracle.engine_reduced_basis([z1 * z1])) == z1


def test_membership_matches_bounded_combination_oracle():
    # NF(f) == 0 iff f = sum q_i g_i solvable with bounded-degree q_i
    rng = random.Random(12)
    z1, z2 = V(2, 0), V(2, 1)
    gens = [z1 * z1 - z2, z1 * z2 + z2]
    gb = oracle.engine_reduced_basis(gens)

    def combination_oracle(f, bound=4):
        monos = [
            (a, b) for a in range(bound + 1) for b in range(bound + 1) if a + b <= bound
        ]
        cols = []
        for g in gens:
            for m in monos:
                cols.append(g.mul_monomial(m))
        rows_idx = sorted({mm for c in cols for mm in c.terms} | set(f.terms))
        matrix = [[c.terms.get(r, Fraction(0)) for c in cols] for r in rows_idx]
        rhs = [f.terms.get(r, Fraction(0)) for r in rows_idx]
        return solve_dense(matrix, rhs) is not None

    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = (rng.randint(0, 2), rng.randint(0, 2))
            terms[m] = Fraction(rng.choice([-2, -1, 1, 2]))
        f = Polynomial(2, terms)
        if f.is_zero():
            continue
        assert normal_form(f, gb).is_zero() == combination_oracle(f)


def test_reduced_basis_invariants():
    from poly_oracle import monomial_divides

    z1, z2, z3 = (V(3, j) for j in range(3))
    gens = oracle.engine_reduced_basis([z1 * z2 - z3 * z3, z2 * z2 - z1 * z3])
    for g in gens:
        assert g.leading_term()[1] == 1  # monic
    for i, g in enumerate(gens):
        lm = g.leading_term()[0]
        for j, h in enumerate(gens):
            if i == j:
                continue
            lmh = h.leading_term()[0]
            # reduced: no leading term divides any term of another generator
            assert not any(monomial_divides(lmh, m) for m in g.terms)
    # every s-polynomial reduces to zero
    from groebner_oracle import _spoly

    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert normal_form(_spoly(gens[i], gens[j]), gens).is_zero()


def test_buchberger_order_stable():
    z1, z2, z3 = (V(3, j) for j in range(3))
    gens = [z1 * z2 - z3 * z3, z2 * z2 - z1 * z3, z1 ** 2 - z2 * z3]
    reference = oracle.engine_reduced_basis(gens)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        assert oracle.engine_reduced_basis([gens[i] for i in perm]) == reference


def test_ideal_dimension_coordinate_subspace():
    # (z1, ..., zs) inside s + t variables has dimension t
    for s, t in ((1, 2), (2, 1), (3, 2)):
        nv = s + t
        assert ideal_dimension([V(nv, j) for j in range(s)]) == t


def test_ideal_dimension_fermat_jacobian(p2):
    d = 4
    partials = [V(3, j, p=d - 1, c=d) for j in range(3)]
    assert ideal_dimension(partials) == 0


def test_ideal_dimension_unit_ideal():
    one = Polynomial.constant(2, 1)
    assert ideal_dimension([one]) == EMPTY_VARIETY


def test_generators_enter_reduced_in_degree_order():
    # The third generator is the difference of the first two, so it
    # reduces to zero on entry and leaves no element; the cubic enters
    # after the linear form that is given last, reduced to y^3.
    x, y, z = (V(3, j) for j in range(3))
    for gens, leads in (
        ([x * x - y * z, x * x + y * y - y * z, y * y], [(2, 0, 0), (0, 2, 0)]),
        ([x ** 3 + y ** 3, x], [(1, 0, 0), (0, 3, 0)]),
    ):
        stats, want_stats = {}, {}
        basis = oracle.engine_basis(gens, stats)
        assert [g.terms for g in basis] == oracle.pair_loop_basis(gens, None, want_stats)
        assert stats == want_stats == {"pairs_reduced": 0, "basis_size": 2, "stopped_early": False}
        assert [g.leading_term()[0] for g in basis] == leads
        assert oracle.engine_reduced_basis(gens) == oracle.buchberger(gens)


def test_constant_generator_reduces_no_pair():
    x, y = V(2, 0), V(2, 1)
    gens = [x * x + y, Polynomial.constant(2, 3), x * y]
    stats = {}
    assert oracle.engine_basis(gens, stats) == [Polynomial.constant(2, 1)]
    assert stats == {"pairs_reduced": 0, "basis_size": 1, "stopped_early": True}
    assert ideal_dimension(gens) == EMPTY_VARIETY
    stats = {}
    assert _lead_dimension(_leads(gens, P, stats)) == EMPTY_VARIETY
    assert stats == {"pairs_reduced": 0, "basis_size": 1, "stopped_early": True}


def test_chart_reaching_one_stops_there():
    # On the split-field (1,2) fixture one chart ideal of the partials
    # has no constant generator and reaches 1 at its first S-pair; the
    # loop returns there, with pairs still queued, as the oracle's does.
    from toricfol.families import split_field_fixture

    fix = split_field_fixture(1, 2, (1, 2))
    f = fix.hypersurface
    partials = [f.partial_derivative(j) for j in range(f.nvars)]
    seen = []
    for gen in fix.model.irrelevant_ideal():
        chart = [p for p in (_set_to_one(p, gen) for p in partials) if not p.is_zero()]
        stats, want_stats = {}, {}
        basis = oracle.engine_basis(chart, stats)
        assert [g.terms for g in basis] == oracle.pair_loop_basis(chart, None, want_stats)
        assert stats == want_stats
        assert basis[-1] == Polynomial.constant(f.nvars, 1)
        assert stats["stopped_early"]
        if stats["pairs_reduced"]:
            assert all(g.total_degree() > 0 for g in chart)
            seen.append((stats["pairs_reduced"], stats["basis_size"], len(chart)))
    assert seen == [(1, 5, 4)]


def test_lead_dimension_matches_the_full_enumeration():
    # Leaving out the variables with a pure-power lead changes no answer.
    rng = random.Random(47)
    kinds = set()
    for _ in range(600):
        nv = rng.randint(1, 5)
        lms = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(nv)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.05:
            lms.insert(rng.randrange(len(lms) + 1), (0,) * nv)
        if rng.random() < 0.2:
            lms = [m for m in lms if sum(map(bool, m)) != 1] or [(1,) * nv]
        want = oracle.lead_dimension(lms)
        assert _lead_dimension(lms) == want, lms
        pure = any(sum(map(bool, m)) == 1 for m in lms)
        kinds.add("unit" if want == EMPTY_VARIETY else ("pure" if pure else "no pure power"))
        kinds.add(want)
    assert {"unit", "pure", "no pure power", 0, 1, 2, 3} <= kinds


def test_ideal_dimension_monomial_oracle():
    # brute force: dimension = nvars - min cover by zeroed variables
    rng = random.Random(31)
    for _ in range(40):
        nv = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, 2) for _ in range(nv))
            if any(m):
                gens.append(Polynomial.monomial(m))
        if not gens:
            continue
        dim = ideal_dimension(gens)
        best = None
        for size in range(nv + 1):
            for zeros in combinations(range(nv), size):
                if all(any(m[j] for j in zeros) for m in (g.leading_term()[0] for g in gens)):
                    best = nv - size
                    break
            if best is not None:
                break
        assert dim == best


SINGLE_TERM_COEFFICIENTS = (1, -3, 7, P, -2 * P, Fraction(1, P), Fraction(P, 7), Fraction(-2, 5), Fraction(3, 4))


def _random_term(rng, nvars):
    exponents = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars))
    return Polynomial.monomial(exponents, rng.choice(SINGLE_TERM_COEFFICIENTS))


def _vanishes_mod_p(gens) -> bool:
    return any(c.numerator % P == 0 for g in gens for c in g.terms.values())


def _refuse_pair_loop(*args, **kwargs):
    raise AssertionError("the pair loop ran on single-term generators")


def test_single_term_generators_are_their_own_basis(monkeypatch):
    # A set of terms is a Groebner basis, since the s-polynomial of two
    # terms is zero.  Every dimension check reads the terms' monomials
    # without entering the pair loop, and agrees with the oracle's loop;
    # mod P it hands over to the exact check exactly when P divides a
    # coefficient's numerator, and it records no loop stats.
    from toricfol import groebner

    monkeypatch.setattr(groebner, "_pair_loop", _refuse_pair_loop)
    rng = random.Random(27)
    seen = set()
    for trial in range(400):
        nvars = rng.randint(1, 4)
        gens = [_random_term(rng, nvars) for _ in range(rng.randint(1, 5))]
        x = V(nvars, 0)
        gens += [
            Polynomial.zero(nvars),
            gens[0],  # a duplicate
            gens[0].scale(rng.choice(SINGLE_TERM_COEFFICIENTS)),  # a multiple of it
            x * x, x * x * V(nvars, nvars - 1),  # x^2 and a non-minimal x^2 y
        ][: rng.randint(0, 5)]
        if trial % 10 == 0:
            gens.append(Polynomial.constant(nvars, rng.choice(SINGLE_TERM_COEFFICIENTS)))
        rng.shuffle(gens)
        want = _lead_dimension(oracle.exact_leads(gens))
        assert ideal_dimension(gens) == want, gens
        record = {}
        answer = only_origin_check(gens, record=record)
        assert answer is (want <= 0), gens
        assert record["modular"] is None
        assert record["path"] == ("modular" if answer and not _vanishes_mod_p(gens) else "exact")
        seen.add((want, record["path"]))
    assert {(EMPTY_VARIETY, "modular"), (EMPTY_VARIETY, "exact"), (0, "modular"), (0, "exact")} <= seen
    assert {(1, "exact"), (2, "exact"), (3, "exact")} <= seen


def test_delsarte_partials_are_their_own_basis(monkeypatch):
    # Each variable of a Delsarte-type sum lies in one term, so each
    # partial is a single term and no regular-subsequence check loops.
    from toricfol import groebner

    monkeypatch.setattr(groebner, "_pair_loop", _refuse_pair_loop)
    rng = random.Random(28)
    seen = set()
    for _ in range(300):
        nvars = rng.randint(2, 5)
        order = list(range(nvars))
        rng.shuffle(order)
        if rng.random() < 0.1:
            order.pop()  # a variable f does not involve: its partial is zero
        f = Polynomial.zero(nvars)
        while order:  # each term takes the next one to three variables
            size = rng.randint(1, 3)
            exponents = [0] * nvars
            for j in order[:size]:
                exponents[j] = rng.randint(1, 3)
            f = f + Polynomial.monomial(exponents, rng.choice(SINGLE_TERM_COEFFICIENTS))
            order = order[size:]
        indices = rng.sample(range(nvars), rng.randint(1, nvars))
        partials = [f.partial_derivative(j) for j in indices]
        want = all(partials) and _lead_dimension(oracle.exact_leads(partials)) == nvars - len(indices)
        record = {"path": None}
        assert regular_subsequence_check(f, indices, record=record) is want, (f, indices)
        if all(partials):
            assert record["modular"] is None
            assert record["path"] == ("modular" if want and not _vanishes_mod_p(partials) else "exact")
        seen.add((want, record["path"]))
    assert {(True, "modular"), (True, "exact"), (False, "exact"), (False, None)} <= seen


def test_regular_subsequence_fermat(p2):
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert regular_subsequence_check(f, [0, 1, 2])
    assert regular_subsequence_check(f, [0, 1])


def test_regular_subsequence_product_monomial():
    f = Polynomial(2, {(1, 1): 1})  # partials z2, z1
    assert regular_subsequence_check(f, [0, 1])


def test_regular_subsequence_zero_partial():
    f = Polynomial(2, {(2, 0): 1})
    assert not regular_subsequence_check(f, [1])


def test_regular_subsequence_split_field_case():
    from toricfol.families import split_field_fixture

    fix = split_field_fixture(1, 2)
    assert regular_subsequence_check(fix.hypersurface, fix.subset)
    partials = [fix.hypersurface.partial_derivative(j) for j in fix.subset]
    assert ideal_dimension(partials) == 2


def test_only_origin_biproj_pairs():
    from toricfol.families import biproj_pairs_fixture

    fix = biproj_pairs_fixture(1, [1], [1])
    partials = [fix.hypersurface.partial_derivative(j) for j in range(4)]
    assert only_origin_check(partials) is True


def test_only_origin_fermat_surface():
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    partials = [f.partial_derivative(j) for j in range(3)]
    assert only_origin_check(partials) is True


def test_only_origin_monomial_case_fails():
    from toricfol.families import monomial_hypersurface_fixture

    fix = monomial_hypersurface_fixture(2, 2)
    partials = [
        p
        for p in (fix.hypersurface.partial_derivative(j) for j in range(4))
        if not p.is_zero()
    ]
    assert only_origin_check(partials) is False


def test_zero_dim_plus_positive_grading_forces_pure_powers(p2):
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1})
    partials = [f.partial_derivative(j) for j in range(3)]
    gb = oracle.engine_reduced_basis(partials)
    if ideal_dimension(partials) == 0:
        lms = [g.leading_term()[0] for g in gb]
        for j in range(3):
            assert any(
                all(e == 0 for i, e in enumerate(m) if i != j) and m[j] > 0 for m in lms
            )


def test_sing_inside_irrelevant_cases():
    from toricfol.families import monomial_hypersurface_fixture, split_field_fixture

    good = split_field_fixture(1, 2)
    assert sing_inside_irrelevant(good.model, good.hypersurface) == "yes"
    bad = monomial_hypersurface_fixture(2, 3)
    assert sing_inside_irrelevant(bad.model, bad.hypersurface) == "no"


def test_sing_inside_irrelevant_trivial(p2):
    f = Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert sing_inside_irrelevant(p2, f) == "yes"
    # every partial of a constant vanishes, so the first chart already fails
    record = {}
    assert sing_inside_irrelevant(p2, Polynomial.constant(3, 3), record=record) == "no"
    assert record["chart"] == p2.irrelevant_ideal()[0]


MODULUS = 2**31 - 1


def _random_coefficient(rng, kind):
    if kind is Fraction:
        return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.choice([1, 2, 3, 5]))
    if kind is int:
        return rng.choice([-6, -3, -2, -1, 1, 2, 4, 9])
    return rng.randrange(-(MODULUS**2), MODULUS**2)


def _random_divisor(rng, nvars, kind, layout):
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            terms[tuple(rng.randint(0, 2) for _ in range(nvars))] = _random_coefficient(rng, kind)
    if kind != "mod":
        return oracle.packed_divisor(Polynomial(nvars, terms), layout)
    terms = {m: c % MODULUS for m, c in terms.items() if c % MODULUS}
    if not terms:
        return _random_divisor(rng, nvars, kind, layout)
    lm = max(terms, key=grevlex_key)
    inv = pow(terms.pop(lm), -1, MODULUS)
    [lead] = layout.pack({lm: None})
    return Divisor(lead, list(layout.pack(terms)), [c * inv % MODULUS for c in terms.values()])


def test_memo_changes_no_division():
    # As in the Groebner pair loop: one memo lives across many divisions
    # while divisors are appended between them.  With it or with a fresh
    # one per division the kernel must yield the same remainder.
    rng = random.Random(314)
    reused = resumed = 0
    for kind in (int, Fraction, "mod"):
        modulus = MODULUS if kind == "mod" else None
        for _ in range(25):
            nvars = rng.randint(1, 3)
            layout = layout_for(nvars, 12)
            divisors = [_random_divisor(rng, nvars, kind, layout)]
            memo = {}
            for _ in range(15):
                if rng.random() < 0.4:
                    divisors.append(_random_divisor(rng, nvars, kind, layout))
                terms = {
                    tuple(rng.randint(0, 4) for _ in range(nvars)): _random_coefficient(rng, kind)
                    for _ in range(rng.randint(1, 6))
                }
                terms = layout.pack(terms)
                cached = {m for m, v in memo.items() if type(v) is tuple}
                scanned = {m for m, v in memo.items() if type(v) is int and v < len(divisors)}
                fresh = {}
                want = divide_terms(dict(terms), divisors, layout.guard, modulus, fresh)
                got = divide_terms(dict(terms), divisors, layout.guard, modulus, memo)
                assert list(got.items()) == list(want.items())
                assert all(_is_canonical(c) if modulus is None else 0 < c < modulus for c in got.values())
                # a fresh memo ends holding exactly the monomials this division reduced
                reduced = {m for m, v in fresh.items() if type(v) is tuple}
                reused += len(reduced & cached)
                resumed += len(reduced & scanned)
    # the memo is read, not only written: cached reducers are reused, and
    # scans that found none resume at a later divisor and succeed
    assert reused >= 1500 and resumed >= 100, (reused, resumed)
