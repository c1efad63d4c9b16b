"""The report writers against the json module they stand in for.

``machine_json(doc)`` must equal ``json.dumps(doc, indent=2,
sort_keys=True)`` byte for byte, on any document a report could hold,
and ``AuditReport.to_json()``, which writes a report from its fields,
must equal that text of ``report.to_dict()``.
"""

import json
import random
from fractions import Fraction
from functools import cache

import pytest

from test_stellar_fans import FANS, fan_model
from toricfol.audit import (
    AuditOptions,
    AuditReport,
    BoundRow,
    DegreeCandidate,
    PairwiseWitness,
    audit_case,
    machine_json,
)
from toricfol.degrees import DegreeClass
from toricfol.families import (
    biproj_pairs_fixture,
    monomial_hypersurface_fixture,
    split_field_fixture,
    torsion_fermat_fixture,
    wps_pairs_fixture,
)
from toricfol.foliation import VectorField
from toricfol.grading import monomials_of_degree
from toricfol.poly import Polynomial

# Non-ASCII text, both JSON escapes, control characters and a lone surrogate.
ALPHABET = 'ab Z09_-"\\/\n\t\r\x00\x1f\x7f\u00e9\u0662\u00a0\u2003\u4e2d\U0001f600\ud800'


def _text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _scalar(rng):
    return rng.choice(
        [
            lambda: _text(rng),
            lambda: rng.choice([True, False, None]),
            lambda: rng.randint(-10, 10),
            lambda: rng.choice([-1, 1]) * rng.randrange(10**99, 10**100),
            lambda: rng.choice([0.5, -2.25, 1e100, 0.1]),
        ]
    )()


def _value(rng, depth):
    kind = rng.random()
    if depth == 0 or kind < 0.4:
        return _scalar(rng)
    items = [_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind < 0.6:
        return items
    if kind < 0.7:
        return tuple(items)
    return {_text(rng): item for item in items}


def test_matches_the_json_module_on_random_documents():
    rng = random.Random(2024)
    for _ in range(500):
        doc = {_text(rng): _value(rng, 4) for _ in range(rng.randint(0, 5))}
        assert machine_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{}, {"a": []}, {"a": {}}, {"a": ()}, {"": [[], {}, [[]]]}])
def test_empty_containers(doc):
    assert machine_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_unencodable_value_raises_as_the_json_module_does():
    with pytest.raises(TypeError, match="not JSON serializable"):
        machine_json({"a": [object()]})


# -- AuditReport.to_json ------------------------------------------------------


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _assert_writes_its_dict(report):
    assert report.to_json() == _dumps(report.to_dict())


def _int(rng):
    return rng.choice([rng.randint(-10, 10), rng.choice([-1, 1]) * rng.randrange(10**99, 10**100)])


def _rows(rng, count=None):
    return tuple(
        BoundRow(k=rng.randint(0, 5), bound=_int(rng), actual=_int(rng), slack=_int(rng), sharp=rng.random() < 0.5)
        for _ in range(rng.randint(0, 3) if count is None else count)
    )


def _candidates(rng, count=None, rows=None):
    return tuple(
        DegreeCandidate(
            rng.randint(0, 5), rng.choice([_text(rng), DegreeClass((_int(rng), 1), (2,), (3,))]), _rows(rng, rows)
        )
        for _ in range(rng.randint(0, 3) if count is None else count)
    )


def _witnesses(rng, count=None):
    return tuple(
        PairwiseWitness(rng.randint(0, 5), (rng.randint(0, 5), rng.randint(0, 5)), _int(rng), rng.random() < 0.5)
        for _ in range(rng.randint(0, 3) if count is None else count)
    )


@cache
def _attached():
    fix = torsion_fermat_fixture(3)
    return audit_case(fix.model, fix.field, fix.hypersurface, AuditOptions(attach_decomposition=True)).decomposition


def _random_report(rng, **fields):
    hypotheses = [(_text(rng), _text(rng)) for _ in range(rng.randint(0, 6))]
    if hypotheses and rng.random() < 0.2:
        hypotheses.append((hypotheses[0][0], _text(rng)))  # a repeated name: the last status stands
    values = dict(
        model=_text(rng),
        deg_field=_text(rng),
        deg_hypersurface=_text(rng),
        eligible=tuple(rng.sample(range(6), rng.randint(0, 3))),
        quasi_smoothness=_text(rng),
        lie_g=_text(rng),
        cofactor=_text(rng),
        hypotheses=tuple(hypotheses),
        rows=_rows(rng),
        candidates=_candidates(rng),
        verdict=_text(rng),
        inequality_violated=rng.random() < 0.5,
        decomposition=rng.choice([None, _attached()]),
        decomposition_note=rng.choice(["", _text(rng)]),
        subset=rng.choice([None, (), tuple(sorted(rng.sample(range(6), rng.randint(1, 4))))]),
        witnesses=_witnesses(rng),
    )
    values.update(fields)
    return AuditReport(**values)


def test_report_writes_its_dict_on_random_fields():
    rng = random.Random(29)
    for _ in range(500):
        _assert_writes_its_dict(_random_report(rng))


SHAPES = {
    "no-subset": lambda rng: dict(subset=None),
    "empty-subset": lambda rng: dict(subset=()),
    "subset": lambda rng: dict(subset=(0, 2, 3)),
    "no-witnesses": lambda rng: dict(witnesses=()),
    "one-witness": lambda rng: dict(witnesses=_witnesses(rng, 1)),
    "three-witnesses": lambda rng: dict(witnesses=_witnesses(rng, 3)),
    "no-candidates": lambda rng: dict(candidates=()),
    "candidate-without-rows": lambda rng: dict(candidates=_candidates(rng, 1, rows=0)),
    "candidates-with-rows": lambda rng: dict(candidates=_candidates(rng, 2, rows=2)),
    "no-eligible-no-rows": lambda rng: dict(eligible=(), rows=()),
    "rows": lambda rng: dict(rows=_rows(rng, 3)),
    "no-hypotheses": lambda rng: dict(hypotheses=()),
    "no-decomposition": lambda rng: dict(decomposition=None, decomposition_note=""),
    "attached": lambda rng: dict(decomposition=_attached(), decomposition_note=""),
    "note": lambda rng: dict(decomposition=None, decomposition_note='decomposition failed: "x"\n'),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_report_writes_each_optional_shape(shape):
    rng = random.Random(shape)
    for _ in range(20):
        report = _random_report(rng, **SHAPES[shape](rng))
        _assert_writes_its_dict(report)
        doc = json.loads(report.to_json())
        assert ("subset" in doc) == (report.subset is not None)
        assert ("pairwise" in doc) == bool(report.witnesses)
        assert ("decomposition" in doc) == (report.decomposition is not None or bool(report.decomposition_note))


def _fixtures():
    return [
        wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
        wps_pairs_fixture((1, 1, 1, 1), (3, 3, 3, 3)),
        biproj_pairs_fixture(1, [1], [2]),
        biproj_pairs_fixture(3, [2, 1], [1, 1]),
        torsion_fermat_fixture(3),
        torsion_fermat_fixture(6),
        split_field_fixture(1, 2, (1, 2)),
        split_field_fixture(2, 3, (-3, 5)),
        monomial_hypersurface_fixture(2, 3),
        monomial_hypersurface_fixture(5, 5),
    ]


@pytest.mark.parametrize("fix", _fixtures(), ids=lambda fix: fix.name)
def test_fixture_reports_write_their_dict(fix):
    # with and without the attached decomposition, whose pairwise
    # witnesses or skip note join the document
    for attach in (False, True):
        opts = AuditOptions(radial_index=fix.radial_index, subset=fix.subset, attach_decomposition=attach)
        _assert_writes_its_dict(audit_case(fix.model, fix.field, fix.hypersurface, opts))


def test_failing_hypothesis_report_writes_its_dict():
    fix = monomial_hypersurface_fixture(5, 5)
    report = audit_case(fix.model, fix.field, fix.hypersurface, AuditOptions(attach_decomposition=True))
    assert report.verdict == "bound-not-asserted" and report.candidates and not report.rows
    assert report.decomposition_note.startswith("decomposition skipped")
    _assert_writes_its_dict(report)


@pytest.mark.parametrize("n, seed", FANS)
def test_stellar_fan_reports_write_their_dict(n, seed):
    # torsion and Picard rank up to five
    model = fan_model(n, seed)[1]
    nv = model.nvars
    rng = random.Random(f"{n}:{seed}:reports")
    z = [Polynomial.variable(nv, j) for j in range(nv)]
    anticanonical = monomials_of_degree(model, model.monomial_degree([1] * nv))
    f = Polynomial(nv, {m: rng.randint(1, 5) for m in rng.sample(anticanonical, min(4, len(anticanonical)))})
    basis = monomials_of_degree(model, model.monomial_degree([1] + [0] * (nv - 1)))
    h = Polynomial(nv, {m: rng.choice([-2, 1, Fraction(1, 3)]) for m in basis})
    fields = [
        VectorField.from_components(nv, {0: z[0] * h, 1: z[1] * h}),  # consistent
        VectorField.from_components(nv, {0: z[0] * h * z[1], 1: z[1] * h}),  # inconsistent: candidates
    ]
    written = 0
    for field in fields:
        for subset in (None, (0, 1)):
            try:
                report = audit_case(model, field, f, AuditOptions(subset=subset, attach_decomposition=True))
            except ValueError:
                continue
            _assert_writes_its_dict(report)
            written += 1
    assert written >= 2
