import json
import random
from pathlib import Path

import pytest

from toricfol import audit
from toricfol.audit import AuditOptions, audit_case, poincare_bound
from toricfol.casefile import parse_case
from toricfol.degrees import DegreeClass
from toricfol.families import (
    biproj_pairs_fixture,
    monomial_hypersurface_fixture,
    multiprojective,
    rational_scroll,
    split_field_fixture,
    torsion_fermat_fixture,
    weighted_projective,
    wps_pairs_fixture,
)
from toricfol.foliation import VectorField
from toricfol.grading import monomials_of_degree
from toricfol.groebner import only_origin_check, regular_subsequence_check, sing_inside_irrelevant
from toricfol.normalform import koszul_decompose
from toricfol.poly import Polynomial


def test_bound_weighted_projective():
    for w in ((1, 1, 1), (1, 2, 3), (2, 3, 5)):
        model = weighted_projective(*w)
        maxpair = max(a + b for i, a in enumerate(w) for b in w[i + 1 :])
        for d in (0, 1, 4):
            assert poincare_bound(model, DegreeClass((d,)), 0) == d + maxpair


def test_bound_multiprojective_plus_two():
    model = multiprojective(2, 3)
    deg = DegreeClass((1, 4))
    assert poincare_bound(model, deg, 0) == 1 + 2
    assert poincare_bound(model, deg, 1) == 4 + 2


def test_bound_scroll_fiber_coordinate():
    assert poincare_bound(rational_scroll(1), DegreeClass((0, 2)), 1) == 2 + 1
    assert poincare_bound(rational_scroll(1, 1), DegreeClass((0, 2)), 1) == 2 + 2
    assert poincare_bound(rational_scroll(2, 3, 1), DegreeClass((0, 0)), 1) == 2


def test_bound_scroll_base_coordinate_formulas():
    zero = DegreeClass((0, 0))
    # all twists zero
    assert poincare_bound(rational_scroll(0), zero, 0) == 2
    assert poincare_bound(rational_scroll(0, 0), zero, 0) == 2
    # one negative twist, the rest zero
    assert poincare_bound(rational_scroll(-2, 0), zero, 0) == 1 - (-2)
    # two negative twists
    assert poincare_bound(rational_scroll(-1, -3), zero, 0) == -(-1 + -3)


def test_bound_rejects_ineligible_coordinate():
    model = rational_scroll(1, 1)
    with pytest.raises(ValueError):
        poincare_bound(model, DegreeClass((0, 0)), 0)


def test_bound_subset_restriction():
    model = multiprojective(1, 1)
    deg = DegreeClass((1, 3))
    assert poincare_bound(model, deg, 0, subset=(0, 1)) == 1 + 2
    assert poincare_bound(model, deg, 1, subset=(0, 1)) == 3 + 0


def test_audit_wps_pairs_instance():
    fix = wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2))
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert report.verdict == "bound-holds"
    assert [(r.bound, r.actual, r.slack) for r in report.rows] == [(4 - 3 + 4, 4, 1)]
    assert all(v == "pass" for _, v in report.hypotheses)


def test_audit_torsion_fermat_slack_one():
    fix = torsion_fermat_fixture(3)
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    row = report.rows[0]
    assert (row.bound, row.actual, row.slack, row.sharp) == (4, 3, 1, False)
    assert report.verdict == "bound-holds"


def test_audit_biproj_pairs_slack_two():
    fix = biproj_pairs_fixture(1, [1], [2])
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert [(r.k, r.slack) for r in report.rows] == [(0, 2), (1, 2)]


def test_audit_sharp_wps_instance():
    # pair sum equals the maximum pairwise weight sum: slack 0
    fix = wps_pairs_fixture((1, 1, 1, 1), (3, 3, 3, 3))
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert report.verdict == "bound-holds"
    assert report.rows[0].slack == 0 and report.rows[0].sharp


def test_audit_split_field_subset():
    fix = split_field_fixture(1, 2, (1, 1))
    report = audit_case(
        fix.model,
        fix.field,
        fix.hypersurface,
        AuditOptions(radial_index=0, subset=fix.subset),
    )
    assert report.verdict == "bound-holds"
    assert report.quasi_smoothness == "quasi-sing-in-irrelevant"
    by_k = {r.k: r for r in report.rows}
    assert by_k[0].bound == 1 + 2
    assert by_k[1].bound == 3 + 0 and by_k[1].sharp  # alpha = 3 attained exactly


def test_audit_monomial_case_violations_and_breach():
    fix = monomial_hypersurface_fixture(5, 5)
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert report.verdict == "bound-not-asserted"
    assert report.inequality_violated
    names = [n for n, v in report.hypotheses if v != "pass"]
    assert "consistent_field_degree" in names
    assert "quasi_smoothness" in names
    slacks = [r.slack for cand in report.candidates for r in cand.rows]
    assert min(slacks) < 0


def test_audit_monomial_small_exponents_hold_numerically():
    # hypotheses still fail, but the raw inequality happens to hold
    fix = monomial_hypersurface_fixture(1, 1)
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert report.verdict == "bound-not-asserted"
    assert not report.inequality_violated


def test_audit_attaches_decomposition():
    fix = torsion_fermat_fixture(3)
    report = audit_case(
        fix.model,
        fix.field,
        fix.hypersurface,
        AuditOptions(attach_decomposition=True),
    )
    assert report.decomposition is not None
    entries = report.decomposition.to_strings(fix.model.variable_names)
    assert entries["P[z1,z2]"] == "-1/3*z2"


def _record_partials(monkeypatch) -> list:
    """(polynomial, tuple) per request of ``Polynomial.partials``.  The list
    keeps both alive, so each distinct tuple is one fill of the memo."""
    asked = []
    partials = Polynomial.partials

    def recording(p):
        out = partials(p)
        asked.append((p, out))
        return out

    monkeypatch.setattr(Polynomial, "partials", recording)
    return asked


def _fills(asked) -> list:
    """The id of the polynomial behind each distinct partials tuple, in
    request order."""
    seen = {}
    for p, out in asked:
        seen.setdefault(id(out), p)
    return [id(p) for p in seen.values()]


def test_audit_computes_the_partials_of_a_fresh_polynomial_once(monkeypatch):
    # The invariance check, the strong check, the attached Koszul solve and
    # the public entries asked afterwards all read the partials f computed
    # on the first request.
    fix = torsion_fermat_fixture(3)
    f = Polynomial(fix.model.nvars, fix.hypersurface.terms)  # keeps no partials yet
    asked = _record_partials(monkeypatch)
    report = audit_case(fix.model, fix.field, f, AuditOptions(attach_decomposition=True))
    assert report.quasi_smoothness == "strong"
    assert report.decomposition == koszul_decompose(fix.model, f, fix.field)
    assert only_origin_check([p for p in f.partials() if p]) is True
    assert len(asked) > 3 and _fills(asked) == [id(f)]


def test_subset_audit_computes_the_partials_of_a_fresh_polynomial_once(monkeypatch):
    # The regular-subsequence and chart checks of the subset route read the
    # partials f keeps, and answer as their public entries do.
    fix = split_field_fixture(1, 2, (1, 1))
    f = Polynomial(fix.model.nvars, fix.hypersurface.terms)
    asked = _record_partials(monkeypatch)
    report = audit_case(fix.model, fix.field, f, AuditOptions(radial_index=0, subset=fix.subset))
    assert report.quasi_smoothness == "quasi-sing-in-irrelevant"
    record = {}
    assert report.evidence["regular_subset"] == regular_subsequence_check(f, fix.subset)
    assert report.evidence["sing_in_irrelevant"] == sing_inside_irrelevant(fix.model, f, record=record)
    assert report.evidence["sing_in_irrelevant_chart"] == record["chart"]
    assert len(asked) > 3 and _fills(asked) == [id(f)]


def test_audit_calls_each_groebner_check_by_its_public_name(monkeypatch):
    # A wrapper put on a public name in the audit's namespace sees every
    # Groebner check of both quasi-smoothness routes.
    calls = []
    for name in ("only_origin_check", "regular_subsequence_check", "sing_inside_irrelevant"):
        original = getattr(audit, name)
        monkeypatch.setattr(audit, name, lambda *a, _n=name, _f=original, **k: calls.append(_n) or _f(*a, **k))
    fix = split_field_fixture(1, 2, (1, 1))
    report = audit_case(fix.model, fix.field, fix.hypersurface, AuditOptions(radial_index=0, subset=fix.subset))
    assert report.quasi_smoothness == "quasi-sing-in-irrelevant"
    assert calls == ["regular_subsequence_check", "sing_inside_irrelevant"]
    calls.clear()
    fix = torsion_fermat_fixture(3)
    assert audit_case(fix.model, fix.field, fix.hypersurface).quasi_smoothness == "strong"
    assert calls == ["only_origin_check"]


def test_attached_decomposition_equals_public_solve_on_golden_cases():
    # The audit hands its own degrees and cofactor to the Koszul solve; on
    # every golden case file, subset audits included, the attached result
    # is the one koszul_decompose computes from scratch.
    attached = 0
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        case = parse_case(doc["outputs"]["export"]["stdout"])
        opts = AuditOptions(
            radial_index=case.radial_index,
            subset=case.subset,
            attach_decomposition=True,
        )
        report = audit_case(case.model, case.field, case.hypersurface, opts)
        if report.decomposition is None:
            assert report.decomposition_note.startswith("decomposition skipped"), path.name
            continue
        field = case.field if case.subset is None else case.field.restrict(case.subset)
        want = koszul_decompose(
            case.model, case.hypersurface, field, radial_index=case.radial_index, index_set=case.subset
        )
        assert report.decomposition == want, path.name
        attached += 1
    assert attached >= 10


def test_audit_pairwise_witnesses():
    # the attached decomposition certifies the finer per-pair bound
    fix = split_field_fixture(1, 2, (1, 1))
    report = audit_case(
        fix.model,
        fix.field,
        fix.hypersurface,
        AuditOptions(radial_index=0, subset=fix.subset, attach_decomposition=True),
    )
    by_k = {w.k: w for w in report.witnesses}
    assert by_k[0].pair == (0, 1) and by_k[0].bound == 3
    assert by_k[1].bound == 3 and by_k[1].attained  # alpha = 3 hit exactly


def test_audit_determinism():
    fix = torsion_fermat_fixture(3)
    a = audit_case(fix.model, fix.field, fix.hypersurface)
    b = audit_case(fix.model, fix.field, fix.hypersurface)
    assert a == b
    assert a.to_json() == b.to_json()
    assert a.to_text(fix.model.variable_names) == b.to_text(fix.model.variable_names)


def test_report_keys_stable():
    fix = torsion_fermat_fixture(3)
    doc = audit_case(fix.model, fix.field, fix.hypersurface).to_dict()
    for key in ("model", "deg_f", "deg_v", "eligible_k", "hypotheses", "verdict", "bounds"):
        assert key in doc
    row = doc["bounds"][0]
    for key in ("k", "bound", "actual", "slack", "sharp"):
        assert key in row
    json.dumps(doc)  # machine-serializable throughout


def test_audit_rejects_degenerate_subsets():
    fix = split_field_fixture(1, 2, (1, 1))
    with pytest.raises(ValueError):
        audit_case(fix.model, fix.field, fix.hypersurface, AuditOptions(subset=(0,)))
    with pytest.raises(ValueError):  # restriction kills the field entirely
        audit_case(fix.model, fix.field_parts[0], fix.hypersurface, AuditOptions(subset=(2, 3)))


@pytest.mark.parametrize(
    "options, message",
    [
        (AuditOptions(radial_index=3), r"radial_index 3 outside range\(1\)"),
        (AuditOptions(radial_index=3, subset=(0, 1)), r"radial_index 3 outside range\(1\)"),
        (AuditOptions(subset=(0, 7)), r"index_set entries outside range\(3\): \[7\]"),
    ],
    ids=["radial-index-full-route", "radial-index-subset-route", "subset-entry-subset-route"],
)
def test_audit_rejects_out_of_range_indices(options, message):
    # A library caller's options are checked as koszul_decompose checks them,
    # on both routes, before any hypothesis is evaluated.
    fix = wps_pairs_fixture((1, 1, 1), (3, 3, 3))
    assert fix.model.rank == 1 and fix.model.nvars == 3
    with pytest.raises(ValueError, match=message):
        audit_case(fix.model, fix.field, fix.hypersurface, options)
    with pytest.raises(ValueError, match=message):
        koszul_decompose(fix.model, fix.hypersurface, fix.field, options.radial_index, options.subset)


def test_audit_negative_twist_sharp():
    # weighted pair instance whose field twist is negative; the bound still
    # lands exactly on the hypersurface degree
    fix = wps_pairs_fixture((1, 2), (2, 1))
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert report.deg_field == "-1"
    assert report.verdict == "bound-holds"
    assert report.rows[0].sharp and report.rows[0].bound == 2


def test_audit_scroll_coordinate_hypersurface():
    # fiber coordinate hypersurface on a twisted scroll: invariant, with a
    # unit-ideal partial system (empty singular cone counts as strong)
    from toricfol.foliation import VectorField
    from toricfol.poly import Polynomial

    model = rational_scroll(-1, 0)
    f = Polynomial.variable(4, 2)  # degree (1, 1)
    x = VectorField.from_components(
        4, {2: Polynomial(4, {(1, 0, 1, 0): 1})}
    )  # z1_1 * z2_1 on the z2_1 slot
    report = audit_case(model, x, f)
    assert report.verdict == "bound-holds"
    assert report.quasi_smoothness == "strong"
    assert report.lie_g == "not-member"
    assert {(r.k, r.bound, r.actual) for r in report.rows} == {(0, 3, 1), (1, 2, 1)}


def test_theorem_holds_on_all_clean_fixtures():
    cases = [
        wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
        wps_pairs_fixture((1, 1), (5, 5)),
        wps_pairs_fixture((1, 1, 1, 1), (2, 2, 2, 2)),
        biproj_pairs_fixture(1, [1], [1]),
        biproj_pairs_fixture(3, [1, 2], [3, 1]),
        torsion_fermat_fixture(3),
        torsion_fermat_fixture(6),
    ]
    for fix in cases:
        report = audit_case(fix.model, fix.field, fix.hypersurface)
        assert report.verdict == "bound-holds", fix.name
        assert all(r.slack >= 0 for r in report.rows)


def _fermat_mod7(model, degree, seed, drop=()):
    """Every monomial of the degree except ``drop``: pure powers get
    1 + 7c and all others 7c, with a seeded sign c = +-1.

    Modulo 7 this is a Fermat sum, whose partials vanish together only at
    the origin; reduction mod p can only enlarge the singular cone, so
    with every pure power kept the hypersurface is strongly quasi-smooth.
    """
    rng = random.Random(seed)
    terms = {}
    for m in monomials_of_degree(model, DegreeClass((degree,))):
        c = 7 * rng.choice((-1, 1))
        if m not in drop:
            terms[m] = c + 1 if sum(map(bool, m)) == 1 else c
    return Polynomial(model.nvars, terms)


def _audit_dense(weights, degree, drop=()):
    model = weighted_projective(*weights)
    f = _fermat_mod7(model, degree, seed=1, drop=drop)
    field = VectorField.from_components(model.nvars, {0: f.partial_derivative(1), 1: -f.partial_derivative(0)})
    return audit_case(model, field, f)


@pytest.mark.parametrize("weights, degree", [((1, 1, 2, 3), 6), ((1, 1, 1, 1, 1), 3)])
def test_audit_dense_hypersurface_strongly_quasi_smooth(weights, degree):
    report = _audit_dense(weights, degree)
    assert report.quasi_smoothness == "strong"
    assert report.verdict == "bound-holds"


def test_audit_evidence_carries_the_modular_loop():
    # The strong check's mod-P loop stops at its certificate.  Neither it
    # nor a subset audit's regular-subsequence loop shows in the
    # serialized report.
    report = _audit_dense((1, 1, 1), 3)
    assert report.evidence["quasi_smoothness_path"] == "modular"
    assert report.evidence["quasi_smoothness_modular"] == {
        "pairs_reduced": 3,
        "basis_size": 6,
        "stopped_early": True,
    }
    fix = split_field_fixture(1, 2, (1, 1))
    report = audit_case(fix.model, fix.field, fix.hypersurface, AuditOptions(radial_index=0, subset=fix.subset))
    assert report.evidence["quasi_smoothness_path"] == "modular"
    assert report.evidence["quasi_smoothness_modular"] == {
        "pairs_reduced": 0,
        "basis_size": 2,
        "stopped_early": False,
    }
    assert "modular" not in report.to_json()
    # The Fermat partials are single terms, their own basis: no loop runs
    fix = torsion_fermat_fixture(3)
    report = audit_case(fix.model, fix.field, fix.hypersurface)
    assert report.evidence["quasi_smoothness_path"] == "modular"
    assert report.evidence["quasi_smoothness_modular"] is None


def test_mixed_degrees_name_two_terms_of_different_degrees():
    model = weighted_projective(1, 1, 2)
    f = Polynomial(3, {(4, 0, 0): 1, (0, 2, 0): 3, (0, 0, 2): -1})  # degrees 4, 2, 4
    field = VectorField.from_components(3, {0: Polynomial.variable(3, 1)})
    report = audit_case(model, field, f)
    assert dict(report.hypotheses)["quasi_homogeneous_hypersurface"] == "fail: mixed degrees"
    (m1, d1), (m2, d2) = report.evidence["mixed_degree_terms"]
    assert (m1, d1, m2, d2) == ((4, 0, 0), DegreeClass((4,)), (0, 2, 0), DegreeClass((2,)))
    # a quasi-homogeneous f records none, and no witness is serialized
    fix = torsion_fermat_fixture(3)
    passing = audit_case(fix.model, fix.field, fix.hypersurface)
    assert passing.evidence["mixed_degree_terms"] is None
    assert "mixed_degree_terms" not in report.to_json()


def test_radial_field_keeps_its_verified_coefficients():
    # X = 2g R_1 - g R_2 on P^1 x P^1, with g = z1_1 z2_1 of the field's degree
    model = multiprojective(1, 1)

    def radial_combination(coefficients):
        return [
            sum((c * Polynomial.variable(4, j, coeff=model.radial[i][j]) for i, c in enumerate(coefficients)), Polynomial.zero(4))
            for j in range(4)
        ]

    f = g = Polynomial.variable(4, 0) * Polynomial.variable(4, 2)
    components = radial_combination((g.scale(2), g.scale(-1)))
    field = VectorField.from_components(4, {j: p for j, p in enumerate(components) if p})
    report = audit_case(model, field, f)
    assert dict(report.hypotheses)["field_outside_radial_span"] == "fail: field is radial"
    witness = report.evidence["radial_coefficients"]
    assert witness == [g.scale(2), g.scale(-1)]
    assert radial_combination(witness) == components
    fix = torsion_fermat_fixture(3)
    assert audit_case(fix.model, fix.field, fix.hypersurface).evidence["radial_coefficients"] is None


def test_failed_invariance_keeps_the_division_where_it_stopped():
    # The cyclic field z1 -> z2 -> z3 -> z1 does not leave the Fermat cubic
    # invariant: X(f) = 3 (z1^2 z2 + z2^2 z3 + z3^2 z1) is no multiple of f.
    model = weighted_projective(1, 1, 1)
    z = [Polynomial.variable(3, j) for j in range(3)]
    f = z[0] ** 3 + z[1] ** 3 + z[2] ** 3
    field = VectorField((z[1], z[2], z[0]))
    report = audit_case(model, field, f)
    assert dict(report.hypotheses)["invariant_hypersurface"] == "fail: no polynomial cofactor"
    assert report.cofactor == "none"
    lead = f.leading_term()[0]
    # adding z1 d/dz1 makes the division take one step, q = 3, first
    for field, want_q in ((field, Polynomial.zero(3)), (VectorField((z[0] + z[1], z[2], z[0])), Polynomial.constant(3, 3))):
        q, r = audit_case(model, field, f).evidence["invariance_witness"]
        assert q == want_q
        assert field.apply_to(f) == q * f + r
        assert r and not all(a <= b for a, b in zip(lead, r.leading_term()[0]))
    # a pass records none, and no witness is serialized
    fix = torsion_fermat_fixture(3)
    passing = audit_case(fix.model, fix.field, fix.hypersurface)
    assert passing.evidence["invariance_witness"] is None
    assert "invariance_witness" not in report.to_json()


def test_audit_dense_sextic_without_pure_power_fails():
    # Without z3^2 every partial vanishes at (0, 0, 0, 1): no monomial of
    # degree 6 is z3 times another variable of weight 3.
    report = _audit_dense((1, 1, 2, 3), 6, drop={(0, 0, 0, 2)})
    assert report.quasi_smoothness == "fails"
