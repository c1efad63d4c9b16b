"""Byte-identical CLI output for every fixture family and its exported case file.

The files under tests/golden/ pin, per fixture: ``fixture --format machine``,
the text report of ``fixture``, the ``export``ed case file,
``audit --format machine`` on that file with and without ``--decompose``,
and ``classgroup --format machine`` on that file, each with its exit
code.  After an intended output change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from toricfol.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "wps-pairs-1212": ["wps-pairs", "--omega", "1,2,1,2", "--d", "4,2,4,2"],
    "wps-pairs-1111": ["wps-pairs", "--omega", "1,1,1,1", "--d", "2,2,2,2"],
    "wps-pairs-111": ["wps-pairs", "--omega", "1,1,1", "--d", "4,4,4"],
    "biproj-pairs-n1": ["biproj-pairs", "--n", "1", "--a", "1", "--b", "1"],
    "biproj-pairs-n3": ["biproj-pairs", "--n", "3", "--a", "2,1", "--b", "1,1"],
    "torsion-fermat-m3": ["torsion-fermat", "--m", "3"],
    "torsion-fermat-m6": ["torsion-fermat", "--m", "6"],
    "split-field-1-2": ["split-field", "--alpha1", "1", "--alpha2", "2"],
    "split-field-1-2-c12": ["split-field", "--alpha1", "1", "--alpha2", "2", "--c", "1,2"],
    "split-field-2-1": ["split-field", "--alpha1", "2", "--alpha2", "1"],
    "monomial-hypersurface-2-3": ["monomial-hypersurface", "--alpha", "2", "--beta", "3"],
    "monomial-hypersurface-5-5": ["monomial-hypersurface", "--alpha", "5", "--beta", "5"],
    "monomial-hypersurface-1-1": ["monomial-hypersurface", "--alpha", "1", "--beta", "1"],
}


def _cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def outputs(fixture_argv, workdir: Path) -> dict:
    exported = _cli(["export", *fixture_argv])
    path = workdir / "exported.case"
    path.write_text(exported["stdout"], encoding="utf-8")
    audit = ["audit", "--case", str(path), "--format", "machine"]
    return {
        "fixture_machine": _cli(["fixture", *fixture_argv, "--format", "machine"]),
        "fixture_text": _cli(["fixture", *fixture_argv]),
        "export": exported,
        "audit_machine": _cli(audit),
        "audit_decompose_machine": _cli([*audit, "--decompose"]),
        "classgroup_machine": _cli(["classgroup", "--case", str(path), "--format", "machine"]),
    }


@pytest.mark.parametrize("label", sorted(CASES))
def test_output_matches_golden(label, tmp_path):
    want = json.loads((GOLDEN / f"{label}.json").read_text(encoding="utf-8"))
    got = outputs(CASES[label], tmp_path)
    assert list(got) == list(want["outputs"])
    for name, result in got.items():
        assert result == want["outputs"][name], f"{label}: {name} differs"


def record():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in CASES.items():
            doc = {"argv": argv, "outputs": outputs(argv, Path(tmp))}
            text = json.dumps(doc, indent=1, sort_keys=False) + "\n"
            (GOLDEN / f"{label}.json").write_text(text, encoding="utf-8")
            print(f"recorded {label}", file=sys.stderr)


if __name__ == "__main__":
    record()
