"""Every benchmark case, built in-process at seed 1, passes its own check.

The benchmark in ``perfbench/`` builds its workloads from the public
library; running each case once here means that a name it imports or a
result it expects that goes missing fails the test suite, not only the
next benchmark run.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from toricfol import audit, foliation, normalform  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_case_passes_its_check(workload, tmp_path):
    cases = workloads.build(workload, seed=1, smoke=False, workdir=str(tmp_path))
    assert cases
    problems = []
    for case in cases:
        out, obj = case.run()
        problem = case.check(out, obj)
        if problem is not None:
            problems.append(f"{case.name}: {problem}")
    assert not problems


def test_casefile_batch_repeats_identically(tmp_path):
    # The benchmark runs its case list pass after pass in one process and
    # fails when a later pass prints anything the first did not, as state
    # left behind by one in-process CLI call would make it.
    cases = workloads.build("casefile-batch", seed=1, smoke=False, workdir=str(tmp_path))
    first = [case.run() for case in cases]
    assert [case.run() for case in cases] == first


@pytest.mark.parametrize("seed", [1, 97])
def test_roundtrip_audit_attaches_the_public_decomposition(seed, tmp_path, monkeypatch):
    # Each koszul-roundtrip case audits with a decomposition attached; it
    # must equal what koszul_decompose computes on the same inputs, on the
    # case's model (which holds the system of the decomposition before it)
    # and on a fresh copy of it.
    audits = []
    audit_case = audit.audit_case

    def capture(model, field, f, options):
        report = audit_case(model, field, f, options)
        audits.append((model, field, f, options, report))
        return report

    monkeypatch.setattr(audit, "audit_case", capture)
    cases = workloads.build("koszul-roundtrip", seed=seed, smoke=False, workdir=str(tmp_path))
    for case in cases:
        case.run()
    assert len(audits) == len(cases) == 20
    for model, field, f, options, report in audits:
        assert options.attach_decomposition and options.subset is None
        want = normalform.koszul_decompose(model, f, field, radial_index=options.radial_index)
        assert report.decomposition == want
        assert normalform.koszul_decompose(replace(model), f, field, radial_index=options.radial_index) == want


def test_roundtrip_audit_computes_the_cofactor_once(tmp_path, monkeypatch):
    # every cofactor, public or inside an audit, is one call of the helper
    calls = []
    cofactor = foliation._invariance_division

    def counting(field, f):
        calls.append(field)
        return cofactor(field, f)

    for module in (foliation, audit, normalform):
        monkeypatch.setattr(module, "_invariance_division", counting)
    cases = workloads.build("koszul-roundtrip", seed=1, smoke=False, workdir=str(tmp_path))
    for case in cases:
        calls.clear()
        out, report = case.run()
        assert report.decomposition is not None
        assert len(calls) == 1, case.name


def test_roundtrip_audit_computes_the_field_degree_once(tmp_path, monkeypatch):
    # the radial-span check reuses the degree the field-degree check measured
    calls = []
    degree = foliation.foliation_degree

    def counting(model, field):
        calls.append(field)
        return degree(model, field)

    for module in (foliation, audit):
        monkeypatch.setattr(module, "foliation_degree", counting)
    cases = workloads.build("koszul-roundtrip", seed=1, smoke=False, workdir=str(tmp_path))
    for case in cases:
        calls.clear()
        out, report = case.run()
        assert report.evidence["lie_g_member"] is False, case.name
        assert len(calls) == 1, case.name
