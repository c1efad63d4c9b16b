"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact arithmetic; stated wall-clock budgets are
asserted too.
"""

import json
import time
from fractions import Fraction
from itertools import product

from toricfol import (
    DegreeClass,
    IntMatrix,
    cokernel,
    count_lattice_points,
    monomials_of_degree,
    octahedron_rays,
    poincare_bound,
    singular_scheme_minors,
)
from toricfol.audit import audit_case
from toricfol.casefile import CaseFile, render_case
from toricfol.cli import run as cli_run
from toricfol.families import (
    biproj_pairs_fixture,
    monomial_hypersurface_fixture,
    multiprojective,
    rational_scroll,
    split_field_fixture,
    torsion_fermat_fixture,
    torsion_surface,
    weighted_projective,
    wps_pairs_fixture,
)
from toricfol.foliation import invariance_cofactor
from toricfol.groebner import (
    only_origin_check,
    regular_subsequence_check,
    sing_inside_irrelevant,
)
from toricfol.normalform import KoszulDecomposition, koszul_decompose, verify_decomposition
from toricfol.poly import Polynomial
from toricfol.selfcheck import check_smith, default_models, euler_suite, random_int_matrix


def _verdict(tag: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {tag}: {'pass' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{tag} failed: {detail}"


def test_criterion_01_class_groups():
    t0 = time.monotonic()
    checks = []
    for w in ((1, 1), (1, 2), (1, 2, 3)):
        start = time.monotonic()
        model = weighted_projective(*w)
        checks.append(model.class_group.describe() == "Z")
        checks.append([d.free[0] for d in model.degrees] == list(w))
        checks.append(time.monotonic() - start < 1.0)
    for dims in ((1, 1), (2, 3)):
        start = time.monotonic()
        checks.append(multiprojective(*dims).class_group.describe() == "Z^2")
        checks.append(time.monotonic() - start < 1.0)
    start = time.monotonic()
    surf = torsion_surface()
    checks.append(surf.class_group.rank == 1 and surf.moduli == (3,))
    # degrees match the stated convention on the nose (automorphism applied)
    checks.append([str(d) for d in surf.degrees] == ["(1,[0])", "(1,[2])", "(1,[1])"])
    checks.append(time.monotonic() - start < 1.0)
    start = time.monotonic()
    oct_group = cokernel(IntMatrix.from_rows(octahedron_rays()))
    checks.append(oct_group.rank == 5 and oct_group.torsion == (2, 2))
    checks.append(time.monotonic() - start < 1.0)
    _verdict("01 class groups", all(checks), f"{time.monotonic() - t0:.2f}s")


def test_criterion_02_euler_identity_suite():
    failures = euler_suite(default_models(), per_model=50, seed=202, max_total_degree=6)
    _verdict("02 euler identities", not failures, f"{len(failures)} failures")


def test_criterion_03_invariance_fixtures():
    ok = True
    for w, d in (((1, 2, 1, 2), (4, 2, 4, 2)), ((1, 1, 1, 1), (2, 2, 2, 2)), ((1, 3, 1, 3), (6, 2, 6, 2))):
        fix = wps_pairs_fixture(w, d)
        g = invariance_cofactor(fix.model, fix.field, fix.hypersurface)
        ok = ok and g is not None and g.is_zero()
    for n, a, b in ((1, [Fraction(2, 3)], [Fraction(5)]), (3, [1, Fraction(1, 2)], [3, 2])):
        fix = biproj_pairs_fixture(n, a, b)
        g = invariance_cofactor(fix.model, fix.field, fix.hypersurface)
        ok = ok and g is not None and g.is_zero()
    for m in (3, 6):
        fix = torsion_fermat_fixture(m)
        g = invariance_cofactor(fix.model, fix.field, fix.hypersurface)
        ok = ok and g is not None and g.is_zero()
    for c in ((1, 1), (Fraction(3, 2), 2)):
        fix = split_field_fixture(1, 2, c)
        for part in fix.field_parts:
            g = invariance_cofactor(fix.model, part, fix.hypersurface)
            ok = ok and g is not None and g.is_zero()
    for a in (1, 2, 3, 5):
        for b in (1, 2, 3, 5):
            fix = monomial_hypersurface_fixture(a, b)
            g = invariance_cofactor(fix.model, fix.field, fix.hypersurface)
            want = Polynomial(4, {(0, 0, 0, 2): a, (0, 2, 0, 0): b})
            ok = ok and g == want
    _verdict("03 invariance fixtures", ok)


def test_criterion_04_normal_form():
    start = time.monotonic()
    fix = torsion_fermat_fixture(3)
    model, f, x = fix.model, fix.hypersurface, fix.field
    third = Fraction(-1, 3)
    published = KoszulDecomposition(
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
    ok = verify_decomposition(model, f, x, published)
    dec = koszul_decompose(model, f, x)
    ok = ok and verify_decomposition(model, f, x, dec)
    from toricfol.grading import homogeneous_degree
    from toricfol.normalform import pair_degree, reconstruct

    rebuilt = reconstruct(model, f, dec)
    ok = ok and all(a == b for a, b in zip(rebuilt.components, x.components))
    alpha = homogeneous_degree(model, f)
    deg_f = DegreeClass((2,), (0,), (3,))
    for (j, k), p in dec.pairs:
        if not p.is_zero():
            ok = ok and homogeneous_degree(model, p) == pair_degree(model, deg_f, alpha, j, k)
    elapsed = time.monotonic() - start
    _verdict("04 normal form", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_05_poincare_bounds():
    ok = True
    fix = torsion_fermat_fixture(3)
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    row = report.rows[0]
    ok = ok and (row.bound, row.actual, row.slack) == (4, 3, 1)

    fix = biproj_pairs_fixture(1, [1], [1])
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    ok = ok and [(r.bound, r.actual, r.slack) for r in report.rows] == [(3, 1, 2), (3, 1, 2)]

    sharp = wps_pairs_fixture((1, 1, 1, 1), (2, 2, 2, 2))
    report = audit_case(sharp.model, sharp.field, sharp.hypersurface)
    ok = ok and report.verdict == "bound-holds" and report.rows[0].slack == 0

    zero = DegreeClass((0, 0))
    ok = ok and poincare_bound(rational_scroll(0), zero, 1) == 1  # single twist: fiber bound +1
    ok = ok and poincare_bound(rational_scroll(0), zero, 0) == 2
    ok = ok and poincare_bound(rational_scroll(0, 0), zero, 1) == 2
    ok = ok and poincare_bound(rational_scroll(0, 0), zero, 0) == 2
    ok = ok and poincare_bound(rational_scroll(-2, 0), zero, 1) == 2
    ok = ok and poincare_bound(rational_scroll(-2, 0), zero, 0) == 1 + 2  # 1 - a_1
    ok = ok and poincare_bound(rational_scroll(-1, -3), zero, 1) == 2
    ok = ok and poincare_bound(rational_scroll(-1, -3), zero, 0) == 4  # -min(a_i + a_j)
    _verdict("05 poincare bounds", ok)


def test_criterion_06_quasi_smoothness_certificates():
    start = time.monotonic()
    ok = True
    for fix in (biproj_pairs_fixture(1, [1], [1]), torsion_fermat_fixture(3), torsion_fermat_fixture(6)):
        partials = [fix.hypersurface.partial_derivative(j) for j in range(fix.model.nvars)]
        ok = ok and only_origin_check([p for p in partials if not p.is_zero()]) is True
    bad = monomial_hypersurface_fixture(2, 3)
    partials = [p for p in (bad.hypersurface.partial_derivative(j) for j in range(4)) if not p.is_zero()]
    ok = ok and only_origin_check(partials) is False
    split = split_field_fixture(1, 2)
    ok = ok and regular_subsequence_check(split.hypersurface, split.subset) is True
    ok = ok and sing_inside_irrelevant(split.model, split.hypersurface) == "yes"
    ok = ok and sing_inside_irrelevant(bad.model, bad.hypersurface) == "no"
    elapsed = time.monotonic() - start
    _verdict("06 quasi-smoothness certificates", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_07_hypothesis_necessity(tmp_path, capsys):
    fix = monomial_hypersurface_fixture(5, 5)
    case = CaseFile(model=fix.model, hypersurface=fix.hypersurface, field=fix.field)
    path = tmp_path / "necessity.case"
    path.write_text(render_case(case))
    code = cli_run(["audit", "--case", str(path), "--format", "machine"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    fails = [k for k, v in doc["hypotheses"].items() if v != "pass"]
    ok = code == 2 and doc["inequality_violated"] and len(fails) >= 2
    with capsys.disabled():
        _verdict("07 hypothesis necessity", ok, f"exit={code} fails={fails}")


def test_criterion_08_counting_cross_oracle():
    ok = True
    p2 = weighted_projective(1, 1, 1)
    for d, want in enumerate((1, 3, 6, 10, 15, 21, 28)):
        alpha = DegreeClass((d,))
        ok = ok and len(monomials_of_degree(p2, alpha)) == want
        ok = ok and count_lattice_points(p2, (d, 0, 0)) == want
    p1p1 = multiprojective(1, 1)
    for a, b in product(range(4), repeat=2):
        alpha = DegreeClass((a, b))
        want = (a + 1) * (b + 1)
        ok = ok and len(monomials_of_degree(p1p1, alpha)) == want
        ok = ok and count_lattice_points(p1p1, (a, 0, b, 0)) == want
    surf = torsion_surface()
    for free in range(5):
        for res in range(3):
            alpha = DegreeClass((free,), (res,), (3,))
            enum = len(monomials_of_degree(surf, alpha))
            # effective divisor representative with the same class, if any
            rep = None
            for coeffs in product(range(free + 1), repeat=3):
                if sum(coeffs) == free and surf.monomial_degree(coeffs) == alpha:
                    rep = coeffs
                    break
            if rep is None:
                ok = ok and enum == 0
            else:
                ok = ok and enum == count_lattice_points(surf, rep)
    _verdict("08 counting cross-oracle", ok)


def _substitute(p: Polynomial, values) -> Polynomial:
    """p with its variables replaced by the univariate polynomials ``values``."""
    total = Polynomial.zero(1)
    for m, c in p.terms.items():
        term = Polynomial.constant(1, c)
        for v, e in zip(values, m):
            term = term * v**e
        total = total + term
    return total


def test_criterion_09_singular_scheme_spot_check():
    # The points (1, a, -1/a) with a^6 + a^3 - 1 = 0, in the ring
    # Q[a]/(a^6 + a^3 - 1), where 1/a = a^5 + a^2.
    fix = torsion_fermat_fixture(3)
    minors = singular_scheme_minors(fix.model, fix.field)
    a = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    modulus = a**6 + a**3 - one

    def vanishes(point):
        """Whether each minor at the point is a multiple of the modulus."""
        return [_substitute(m, point).divide_exact(modulus) is not None for m in minors]

    on_scheme = vanishes((one, a, -(a**5) - a**2))
    off_scheme = [vanishes((one, a, a)), vanishes((one, a, -(a**5)))]
    ok = all(on_scheme) and all(not all(vs) for vs in off_scheme)
    _verdict("09 singular scheme residual", ok, f"{len(on_scheme)} minors vanish mod a^6 + a^3 - 1 exactly")


def test_criterion_10_smith_property_suite():
    import random

    start = time.monotonic()
    rng = random.Random(1310)
    bad = []
    for t in range(200):
        a = random_int_matrix(rng, max_dim=6, max_entry=5)
        problems = check_smith(a)
        if problems:
            bad.append((t, problems))
    elapsed = time.monotonic() - start
    _verdict(
        "10 smith normal form suite",
        not bad and elapsed < 30.0,
        f"{elapsed:.2f}s, {len(bad)} failures",
    )
