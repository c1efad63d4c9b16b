"""Every benchmark case, built in-process at seed 1, passes its own check.

The benchmark in ``perfbench/`` builds its workloads from the public
library; running each case once here means that a name it imports or a
result it expects that goes missing fails the test suite, not only the
next benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

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
