"""Degree-bound audits for invariant hypersurfaces.

The bound per eligible grading coordinate is the field twist plus the
largest pairwise sum of variable degrees (restricted to the chosen index
subset when one is given).  The audit checks every hypothesis, compares
bound against actual degree, and reports a structured verdict; failed
hypotheses downgrade the verdict but never suppress the numeric
comparison, since observing a violated inequality under broken
hypotheses is itself informative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from json.encoder import encode_basestring_ascii

from .degrees import DegreeClass
from .foliation import (
    DegreeInconsistencyError,
    VectorField,
    _invariance_division,
    component_degree_candidates,
    foliation_degree,
    lie_g_membership,
)
from .grading import homogeneous_degree
from .groebner import only_origin_check, regular_subsequence_check, sing_inside_irrelevant
from .model import ToricModel
from .normalform import KoszulDecomposition, _check_indices, _decompose
from .poly import Polynomial


def machine_json(doc: dict) -> str:
    """The json module's indent-2, sorted-key text of doc, byte for byte.

    With an indent the json module encodes in pure Python, one generator
    step per value.  Here one recursive join over dicts (whose keys are
    str), lists and tuples builds the same text.  Strings are quoted by
    the C ``encode_basestring_ascii``; None, bools and ints are written
    as the json module writes them, and any other value by ``json.dumps``.
    """
    return _json_value(doc, "\n")


def _json_value(value, newline: str) -> str:
    # The scalar tests follow the json module's own order.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_value(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value)  # a float, or the json module's TypeError


@dataclass(frozen=True)
class AuditOptions:
    radial_index: int = 0
    subset: tuple[int, ...] | None = None
    attach_decomposition: bool = False


@dataclass(frozen=True)
class BoundRow:
    k: int  # 0-based free coordinate
    bound: int
    actual: int
    slack: int
    sharp: bool

    def to_dict(self) -> dict:
        return dict(k=self.k + 1, bound=self.bound, actual=self.actual, slack=self.slack, sharp=self.sharp)

    def to_text(self) -> str:
        return (
            f"k={self.k + 1}: bound={self.bound} actual={self.actual} "
            f"slack={self.slack} sharp={'yes' if self.sharp else 'no'}"
        )


@dataclass(frozen=True)
class DegreeCandidate:
    """Bound rows computed from one component's forced twist (used when
    the field has no single consistent degree)."""

    component: int
    deg_field: DegreeClass
    rows: tuple[BoundRow, ...]


@dataclass(frozen=True)
class PairwiseWitness:
    """The tightest per-pair bound an attached decomposition certifies:
    actual <= twist_k + deg(z_i)_k + deg(z_j)_k for some pair with a
    nonzero coefficient."""

    k: int
    pair: tuple[int, int]
    bound: int
    attained: bool


@dataclass(frozen=True)
class AuditReport:
    model: str
    deg_field: str
    deg_hypersurface: str
    eligible: tuple[int, ...]
    quasi_smoothness: str  # strong | quasi-sing-in-irrelevant | fails
    lie_g: str  # member | not-member | not-evaluated
    cofactor: str
    hypotheses: tuple[tuple[str, str], ...]  # (name, "pass" | "fail: reason")
    rows: tuple[BoundRow, ...]
    candidates: tuple[DegreeCandidate, ...]
    verdict: str  # bound-holds | bound-not-asserted | bound-violated
    inequality_violated: bool
    decomposition: KoszulDecomposition | None = None
    decomposition_note: str = ""
    subset: tuple[int, ...] | None = None
    witnesses: tuple[PairwiseWitness, ...] = ()
    # Raw values behind the hypothesis statuses, by name (deg_hypersurface,
    # deg_field, cofactor, lie_g_member, strongly_quasi_smooth, ...); not
    # serialized.  quasi_smoothness_path is "modular" when a basis mod a
    # prime certified the Groebner dimension check of quasi_smoothness, and
    # "exact" otherwise; quasi_smoothness_modular holds that mod-P loop's
    # pairs_reduced, basis_size and stopped_early, or None when none ran:
    # when a generator vanishes mod P, or when every generator is a single
    # term and so its own basis.  On a subset, sing_in_irrelevant_chart is
    # the irrelevant generator whose chart meets the singular cone, or None.
    # Three witnesses name what a failure rests on: mixed_degree_terms, on
    # mixed degrees, holds two terms of f as (exponents, degree) with
    # different degrees; radial_coefficients, on a radial field, the
    # verified g_i of X = sum_i g_i R_i; invariance_witness, on a division
    # of X(f) by f that fails, its (q, r) with X(f) = q*f + r, r the full
    # remainder: lead(f) divides no term of r.  Each is None otherwise.
    evidence: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "model": self.model,
            "deg_f": self.deg_field,
            "deg_v": self.deg_hypersurface,
            "eligible_k": [k + 1 for k in self.eligible],
            "quasi_smoothness": self.quasi_smoothness,
            "lie_g": self.lie_g,
            "cofactor": self.cofactor,
            "hypotheses": {name: value for name, value in self.hypotheses},
            "bounds": [row.to_dict() for row in self.rows],
            "candidates": [
                {
                    "component": cand.component + 1,
                    "deg_f": str(cand.deg_field),
                    "bounds": [row.to_dict() for row in cand.rows],
                }
                for cand in self.candidates
            ],
            "verdict": self.verdict,
            "inequality_violated": self.inequality_violated,
        }
        if self.subset is not None:
            doc["subset"] = [j + 1 for j in self.subset]
        if self.decomposition is not None or self.decomposition_note:
            doc["decomposition"] = self.decomposition_note or "attached"
        if self.witnesses:
            doc["pairwise"] = [
                {
                    "k": w.k + 1,
                    "pair": [w.pair[0] + 1, w.pair[1] + 1],
                    "bound": w.bound,
                    "attained": w.attained,
                }
                for w in self.witnesses
            ]
        return doc

    def to_json(self) -> str:
        """``machine_json(self.to_dict())``, written in one pass from the
        fields: the keys in sorted order, each value at its depth."""
        enc = encode_basestring_ascii
        parts = [
            '{\n  "bounds": ', _rows_json(self.rows, "\n  "),
            ',\n  "candidates": ', _candidates_json(self.candidates),
            ',\n  "cofactor": ', enc(self.cofactor),
        ]
        if self.decomposition is not None or self.decomposition_note:
            parts += ',\n  "decomposition": ', enc(self.decomposition_note or "attached")
        parts += (
            ',\n  "deg_f": ', enc(self.deg_field),
            ',\n  "deg_v": ', enc(self.deg_hypersurface),
            ',\n  "eligible_k": ', _one_based_json(self.eligible),
            ',\n  "hypotheses": ', _hypotheses_json(self.hypotheses),
            ',\n  "inequality_violated": ', _BOOL[self.inequality_violated],
            ',\n  "lie_g": ', enc(self.lie_g),
            ',\n  "model": ', enc(self.model),
        )
        if self.witnesses:
            parts += ',\n  "pairwise": ', _witnesses_json(self.witnesses)
        parts += ',\n  "quasi_smoothness": ', enc(self.quasi_smoothness)
        if self.subset is not None:
            parts += ',\n  "subset": ', _one_based_json(self.subset)
        parts += ',\n  "verdict": ', enc(self.verdict), "\n}"
        return "".join(parts)

    def to_text(self, names=None) -> str:
        lines = [f"model: {self.model}"]
        lines.append(f"deg_f: {self.deg_field}")
        lines.append(f"deg_v: {self.deg_hypersurface}")
        lines.append(f"eligible_k: {' '.join(str(k + 1) for k in self.eligible) or '-'}")
        if self.subset is not None:
            lines.append(f"subset: {' '.join(str(j + 1) for j in self.subset)}")
        lines.append(f"quasi_smoothness: {self.quasi_smoothness}")
        lines.append(f"lie_g: {self.lie_g}")
        lines.append(f"cofactor: {self.cofactor}")
        for name, value in self.hypotheses:
            lines.append(f"hypothesis {name}: {value}")
        lines.extend(row.to_text() for row in self.rows)
        for cand in self.candidates:
            lines.append(f"candidate component {cand.component + 1}: deg_f={cand.deg_field}")
            lines.extend("  " + row.to_text() for row in cand.rows)
        if self.decomposition is not None and names is not None:
            for key, value in self.decomposition.to_strings(names).items():
                lines.append(f"decomposition {key}: {value}")
        elif self.decomposition_note:
            lines.append(f"decomposition: {self.decomposition_note}")
        for w in self.witnesses:
            lines.append(
                f"pairwise k={w.k + 1}: bound={w.bound} via pair "
                f"({w.pair[0] + 1},{w.pair[1] + 1})"
                + (" attained" if w.attained else "")
            )
        lines.append(f"inequality_violated: {'yes' if self.inequality_violated else 'no'}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


# Writers for AuditReport.to_json: each value as _json_value writes it at
# its depth, the values of a report's top-level keys opening at "\n  ".
_BOOL = ("false", "true")


def _list_json(items: list[str], newline: str) -> str:
    """A list opening at ``newline`` of items written one level deeper."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _one_based_json(indices: tuple[int, ...]) -> str:
    return _list_json([int.__repr__(j + 1) for j in indices], "\n  ")


def _rows_json(rows: tuple[BoundRow, ...], newline: str) -> str:
    item = newline + "  "
    key = item + "  "
    fmt = int.__repr__
    return _list_json([
        f'{{{key}"actual": {fmt(r.actual)},{key}"bound": {fmt(r.bound)},{key}"k": {fmt(r.k + 1)},'
        f'{key}"sharp": {_BOOL[r.sharp]},{key}"slack": {fmt(r.slack)}{item}}}'
        for r in rows
    ], newline)


def _candidates_json(candidates: tuple[DegreeCandidate, ...]) -> str:
    return _list_json([
        '{\n      "bounds": ' + _rows_json(c.rows, "\n      ")
        + ',\n      "component": ' + int.__repr__(c.component + 1)
        + ',\n      "deg_f": ' + encode_basestring_ascii(str(c.deg_field)) + "\n    }"
        for c in candidates
    ], "\n  ")


def _hypotheses_json(hypotheses: tuple[tuple[str, str], ...]) -> str:
    if not hypotheses:
        return "{}"
    enc = encode_basestring_ascii
    return "{\n    " + ",\n    ".join(
        [enc(name) + ": " + enc(status) for name, status in sorted(dict(hypotheses).items())]
    ) + "\n  }"


def _witnesses_json(witnesses: tuple[PairwiseWitness, ...]) -> str:
    fmt = int.__repr__
    return _list_json([
        f'{{\n      "attained": {_BOOL[w.attained]},\n      "bound": {fmt(w.bound)},\n      "k": {fmt(w.k + 1)},'
        f'\n      "pair": [\n        {fmt(w.pair[0] + 1)},\n        {fmt(w.pair[1] + 1)}\n      ]\n    }}'
        for w in witnesses
    ], "\n  ")


def poincare_bound(
    model: ToricModel, deg_field: DegreeClass, k: int, subset=None
) -> int:
    """Field twist plus the largest pairwise sum of variable degrees at k."""
    if k not in model.nonnegative_coordinates():
        raise ValueError(
            f"coordinate {k} admits negative degrees; the bound is not asserted there"
        )
    indices = tuple(range(model.nvars)) if subset is None else tuple(sorted(set(subset)))
    if len(indices) < 2:
        raise ValueError("need at least two variables to form a pair")
    best = max(
        model.degrees[i].free[k] + model.degrees[j].free[k]
        for a, i in enumerate(indices)
        for j in indices[a + 1 :]
    )
    return deg_field.free[k] + best


def _rows_for(model, deg_field, deg_v, eligible, subset) -> tuple[BoundRow, ...]:
    rows = []
    for k in eligible:
        bound = poincare_bound(model, deg_field, k, subset=subset)
        actual = deg_v.free[k]
        rows.append(BoundRow(k=k, bound=bound, actual=actual, slack=bound - actual, sharp=bound == actual))
    return tuple(rows)


@dataclass
class _Case:
    """What the hypothesis checkers read: the inputs, the options in force
    and the evidence recorded by the checkers that ran before."""

    model: ToricModel
    field: VectorField  # as given
    audited: VectorField  # restricted to the subset when one is given
    f: Polynomial
    options: AuditOptions
    subset: tuple[int, ...] | None
    evidence: dict


def _check_quasi_homogeneous(case: _Case):
    deg_v = homogeneous_degree(case.model, case.f)
    if deg_v is not None:
        return "pass", {"deg_hypersurface": deg_v, "mixed_degree_terms": None}
    return "fail: mixed degrees", {"deg_hypersurface": None, "mixed_degree_terms": _terms_of_two_degrees(case)}


def _terms_of_two_degrees(case: _Case):
    """The leading monomial of f and the first one after it of another
    degree, each as (exponents, degree); f must have mixed degrees."""
    first, *rest = (m for m, _ in case.f.sorted_terms())
    want = homogeneous_degree(case.model, Polynomial.monomial(first))
    for m in rest:
        deg = homogeneous_degree(case.model, Polynomial.monomial(m))
        if deg != want:
            return (first, want), (m, deg)
    raise AssertionError("f has a single degree")


def _check_field_degree(case: _Case):
    try:
        return "pass", {"deg_field": foliation_degree(case.model, case.field), "candidates": []}
    except DegreeInconsistencyError as exc:
        candidates = component_degree_candidates(case.model, case.field)
        return f"fail: {exc}", {"deg_field": None, "candidates": candidates}
    except ValueError as exc:
        raise ValueError(f"vector field unusable: {exc}") from None


def _check_invariance(case: _Case):
    cofactor = witness = None
    if case.evidence["deg_hypersurface"] is not None:
        q, r = _invariance_division(case.audited, case.f)
        cofactor, witness = (None, (q, r)) if r else (q, None)
    status = "pass" if cofactor is not None else "fail: no polynomial cofactor"
    return status, {"cofactor": cofactor, "invariance_witness": witness}


def _check_radial_span(case: _Case):
    member = witness = None
    # Restricting a consistent field to a subset keeps its degree, and the
    # audited field is never zero, so a measured degree is reused as is.
    deg_field = case.evidence["deg_field"]
    if deg_field is not None or case.subset is not None:
        try:
            member, witness = lie_g_membership(case.model, case.audited, deg_field)
        except (DegreeInconsistencyError, ValueError):
            pass
    if member is None:
        status = "fail: field degree inconsistent"
    else:
        status = "fail: field is radial" if member else "pass"
    return status, {"lie_g_member": member, "radial_coefficients": witness}


def _check_quasi_smoothness(case: _Case):
    """Strong quasi-smoothness on the full variable set; on an index subset,
    a regular subsequence plus a singular cone inside the removed locus.
    The evidence carries the report's quasi_smoothness label, the path
    that decided its Groebner dimension check and the mod-P loop's stats."""
    if case.evidence["deg_hypersurface"] is None:
        return "fail: hypersurface not quasi-homogeneous", {
            "quasi_smoothness": "fails",
            "quasi_smoothness_path": "exact",
            "quasi_smoothness_modular": None,
        }
    model = case.model
    record = {"path": "exact", "modular": None}
    if case.subset is None:
        nonzero = [p for p in case.f.partials() if p]
        strong = only_origin_check(nonzero, record=record) if nonzero else False
        if strong:
            status, label = "pass", "strong"
        else:
            status, label = "fail: singular cone escapes the origin", "fails"
        return status, {
            "quasi_smoothness": label,
            "strongly_quasi_smooth": strong,
            "quasi_smoothness_path": record["path"],
            "quasi_smoothness_modular": record["modular"],
        }
    problems = []
    regular = regular_subsequence_check(case.f, case.subset, record=record)
    if not regular:
        problems.append("selected partials are not a regular subsequence")
    radial = model.radial[case.options.radial_index]
    if any(radial[j] for j in range(model.nvars) if j not in case.subset):
        problems.append("radial field not supported on the subset")
    sing = sing_inside_irrelevant(model, case.f, record=record)
    if sing == "no":
        problems.append("singular cone escapes the removed locus")
    if not problems:
        status, label = "pass", "quasi-sing-in-irrelevant"
    else:
        status, label = "fail: " + "; ".join(problems), "fails"
    return status, {
        "quasi_smoothness": label,
        "regular_subset": regular,
        "sing_in_irrelevant": sing,
        "sing_in_irrelevant_chart": record["chart"],
        "quasi_smoothness_path": record["path"],
        "quasi_smoothness_modular": record["modular"],
    }


def _check_eligible(case: _Case):
    eligible = case.model.nonnegative_coordinates()
    status = "pass" if eligible else "fail: no all-nonnegative coordinate"
    return status, {"eligible": eligible}


# The hypotheses in report order.  Each checker returns its status
# ("pass" or "fail: reason") and its evidence, the raw values behind that
# status; later checkers read the evidence of earlier ones.
HYPOTHESES = (
    ("quasi_homogeneous_hypersurface", _check_quasi_homogeneous),
    ("consistent_field_degree", _check_field_degree),
    ("invariant_hypersurface", _check_invariance),
    ("field_outside_radial_span", _check_radial_span),
    ("quasi_smoothness", _check_quasi_smoothness),
    ("eligible_coordinates", _check_eligible),
)


def audit_case(
    model: ToricModel,
    field: VectorField,
    f: Polynomial,
    options: AuditOptions = AuditOptions(),
) -> AuditReport:
    """Full hypothesis check and bound comparison for one case.

    Hypothesis failures become report entries, not exceptions; only
    malformed inputs raise.
    """
    subset = tuple(sorted(set(options.subset))) if options.subset is not None else None
    _check_indices(model, options.radial_index, subset or ())
    if subset is not None and len(subset) < 2:
        raise ValueError("an index subset needs at least two variables")
    audited = field if subset is None else field.restrict(subset)
    if subset is not None and audited.is_zero():
        raise ValueError("field restricted to the index subset is zero")

    case = _Case(model, field, audited, f, options, subset, evidence={})
    hypotheses = []
    for name, check in HYPOTHESES:
        status, evidence = check(case)
        hypotheses.append((name, status))
        case.evidence.update(evidence)
    ev = case.evidence
    deg_v, deg_field, eligible = ev["deg_hypersurface"], ev["deg_field"], ev["eligible"]

    rows: tuple[BoundRow, ...] = ()
    cand_blocks: tuple[DegreeCandidate, ...] = ()
    if deg_v is not None and eligible:
        if deg_field is not None:
            rows = _rows_for(model, deg_field, deg_v, eligible, subset)
        cand_blocks = tuple(
            DegreeCandidate(comp, cand, _rows_for(model, cand, deg_v, eligible, subset))
            for comp, cand in ev["candidates"]
        )

    violated = any(r.slack < 0 for r in rows + tuple(r for c in cand_blocks for r in c.rows))
    all_pass = all(v == "pass" for _, v in hypotheses)
    if not all_pass:
        verdict = "bound-not-asserted"
    else:
        verdict = "bound-violated" if violated else "bound-holds"

    decomposition = None
    note = ""
    witnesses: list[PairwiseWitness] = []
    if options.attach_decomposition:
        if all_pass and deg_v is not None:
            # The evidence was computed on the audited field, and a
            # restriction of a consistent field keeps its degree.
            indices = tuple(range(model.nvars)) if subset is None else subset
            try:
                decomposition = _decompose(
                    model, f, audited, options.radial_index, indices, deg_v, ev["cofactor"], deg_field
                )
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                note = f"decomposition failed: {exc}"
        else:
            note = "decomposition skipped: hypotheses do not hold"
    if decomposition is not None and deg_field is not None and deg_v is not None:
        nonzero = decomposition.nonzero_pairs()
        for k in eligible:
            if not nonzero:
                break
            options_k = [
                (deg_field.free[k] + model.degrees[i].free[k] + model.degrees[j].free[k], (i, j))
                for i, j in nonzero
            ]
            value, pair = min(options_k)
            witnesses.append(
                PairwiseWitness(k=k, pair=pair, bound=value, attained=value == deg_v.free[k])
            )

    member = ev["lie_g_member"]
    cofactor = ev["cofactor"]
    return AuditReport(
        model=model.name,
        deg_field=str(deg_field) if deg_field is not None else "inconsistent",
        deg_hypersurface=str(deg_v) if deg_v is not None else "mixed",
        eligible=eligible,
        quasi_smoothness=ev["quasi_smoothness"],
        lie_g="not-evaluated" if member is None else ("member" if member else "not-member"),
        cofactor=cofactor.to_string(model.variable_names) if cofactor is not None else "none",
        hypotheses=tuple(hypotheses),
        rows=rows,
        candidates=cand_blocks,
        verdict=verdict,
        inequality_violated=violated,
        decomposition=decomposition,
        decomposition_note=note,
        subset=subset,
        witnesses=tuple(witnesses),
        evidence=ev,
    )
