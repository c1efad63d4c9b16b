"""The exact chart test of ``sing_inside_irrelevant`` against the old
indicator-scan and power-search heuristic, kept in ``irrelevant_oracle``.

Wherever the heuristic decides, the chart test must give the same
answer.  A node at (1, p_1, ..., p_n) with every p_j outside {0, 1}, as
``nodal_poly`` seeds it, is beyond the heuristic; the chart test answers
"no" and names the chart that meets the singular cone.  On every chart,
the leads of the pair loop's unreduced basis must give the dimension of
the reduced basis.
"""

import random

import groebner_oracle as oracle
from irrelevant_oracle import sing_inside_irrelevant_heuristic
from test_modular import FIXTURES, dense_poly, nodal_poly

from toricfol.audit import AuditOptions, audit_case
from toricfol.families import monomial_hypersurface_fixture, weighted_projective
from toricfol.foliation import VectorField
from toricfol.groebner import (
    EMPTY_VARIETY,
    _lead_dimension,
    _set_to_one,
    ideal_dimension,
    sing_inside_irrelevant,
)
from toricfol.parsing import parse_polynomial

# (weights, degree) on P^2, P(1,1,2), P^3 and P(1,2,3), three seeds each
LADDER = [((1, 1, 1), 3), ((1, 1, 1), 4), ((1, 1, 2), 4), ((1, 1, 1, 1), 3), ((1, 2, 3), 6)]
SEEDS = range(3)


def _cases():
    """(model, f, nodal) triples: 30 inputs the heuristic decides, then the
    seeded nodal hypersurfaces, whose nodes have no coordinate 0 or 1."""
    cases = [(fix.model, fix.hypersurface, False) for fix in FIXTURES]
    for alpha, beta in [(1, 1), (2, 3)]:
        fix = monomial_hypersurface_fixture(alpha, beta)
        cases.append((fix.model, fix.hypersurface, False))
    for w, d in LADDER:
        for seed in SEEDS:
            cases.append((weighted_projective(*w), dense_poly(random.Random(seed), w, d), False))
            cases.append((weighted_projective(*w), nodal_poly(random.Random(seed), w, d)[0], True))
    return cases


def test_chart_test_agrees_with_the_heuristic_and_decides_nodes():
    decided = 0
    for model, f, nodal in _cases():
        want = sing_inside_irrelevant_heuristic(model, f)
        record = {}
        answer = sing_inside_irrelevant(model, f, record=record)
        assert (record["chart"] is None) is (answer == "yes")
        if want != "inconclusive":
            decided += 1
            assert answer == want, (model.name, f)
        if nodal:
            # no coordinate of the node vanishes, so the first chart meets it
            assert answer == "no" and record["chart"] == model.irrelevant_ideal()[0], (model.name, f)
    assert decided == 30


def test_chart_leads_give_the_reduced_basis_dimension():
    # Every chart ideal, not only the first failing one: the chart test
    # reads the unreduced basis of the pair loop.
    charts = units = 0
    for model, f, _ in _cases():
        partials = [f.partial_derivative(j) for j in range(f.nvars)]
        for gen in model.irrelevant_ideal():
            chart = [p for p in (_set_to_one(p, gen) for p in partials) if not p.is_zero()]
            reduced = oracle.engine_reduced_basis(chart)
            want = _lead_dimension([g.leading_term()[0] for g in reduced])
            assert ideal_dimension(chart) == want, (model.name, f, gen)
            charts += 1
            units += want == EMPTY_VARIETY
    assert charts >= 150 and 0 < units < charts, (charts, units)


def test_moved_nodal_cubic_fails_and_names_its_cone():
    # the nodal cubic with its node moved to (1:2:1), out of reach of any
    # 0/1 indicator point and of every power z^k of an irrelevant generator
    p2 = weighted_projective(1, 1, 1)
    names = ("x", "y", "z")
    f = parse_polynomial("-x^3 + 2*x^2*z - x*z^2 + y^2*z - 4*y*z^2 + 4*z^3", names)
    assert all(f.partial_derivative(j).evaluate((1, 2, 1)) == 0 for j in range(3))
    field = VectorField.from_components(3, {0: parse_polynomial("y", names)})
    report = audit_case(p2, field, f, AuditOptions(subset=(0, 1)))
    assert report.quasi_smoothness == "fails"
    assert dict(report.hypotheses)["quasi_smoothness"].endswith("singular cone escapes the removed locus")
    assert report.verdict == "bound-not-asserted"
    # the first chart, x = 1, of the cone spanned by the rays of y and z
    chart = report.evidence["sing_in_irrelevant_chart"]
    assert chart == p2.irrelevant_ideal()[0] == (1, 0, 0)
