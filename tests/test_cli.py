import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import toricfol
from toricfol.cli import build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


OCTAHEDRON_CASE = """
[model]
dimension = 3
variables = a b c d e f g h
rays = (1,1,1) (1,1,-1) (1,-1,1) (1,-1,-1) (-1,1,1) (-1,1,-1) (-1,-1,1) (-1,-1,-1)
"""


def test_classgroup_octahedron(tmp_path, capsys):
    path = tmp_path / "oct.case"
    path.write_text(OCTAHEDRON_CASE)
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 0
    assert "Z^5 + Z/2 + Z/2" in out
    # The computed degrees with their two Z/2 residues swapped: a basis
    # change that mixes the torsion factors.
    path.write_text(
        OCTAHEDRON_CASE
        + "torsion = 2 2\ndegrees = (1,-1,0,0,1,[1],[1]) (-1,1,0,1,0,[0],[1]) (-1,1,1,0,0,[1],[0])"
        + " (1,0,0,0,0,[0],[0]) (0,1,0,0,0,[0],[0]) (0,0,1,0,0,[0],[0]) (0,0,0,1,0,[0],[0])"
        + " (0,0,0,0,1,[0],[0])\n"
    )
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 0, out
    assert "deg b = (-1,1,0,1,0,[0],[1])" in out


def test_fixture_torsion_fermat(capsys):
    code, out = invoke(capsys, "fixture", "torsion-fermat", "--m", "3")
    assert code == 0
    assert "bound=4 actual=3" in out
    assert "MISMATCH" not in out


def test_fixture_unknown_name(capsys):
    code, out = invoke(capsys, "fixture", "nope")
    assert code == 1


@pytest.mark.parametrize(
    "params",
    [
        ["wps-pairs", "--omega", "1,1,1", "--d", "2,2,2", "--coeffs", "1"],
        ["wps-pairs", "--omega", "1,x", "--d", "2"],
        ["torsion-fermat"],
        ["nope"],
        ["wps-pairs", "--omega", "1,1", "--d", "2,2", "--coeffs", "1/0"],
        ["split-field", "--alpha1", "1", "--alpha2", "2", "--c", "0.5,1e1"],
        ["torsion-fermat", "--m", "0.5"],
        ["biproj-pairs", "--n", "1", "--a", "1/0", "--b", "1"],
        ["torsion-fermat", "--m", "3", "--omega", "9,9", "--alpha", "7"],
        ["wps-pairs", "--omega", "1,1,1", "--d", "3,3,3", "--m", "2"],
    ],
)
def test_fixture_and_export_share_one_error_path(capsys, params):
    fixture = invoke(capsys, "fixture", *params)
    export = invoke(capsys, "export", *params)
    assert fixture == export
    code, out = fixture
    assert code == 1 and out.startswith("error: ") and out.count("\n") == 1


@pytest.mark.parametrize(
    "params, message",
    [
        (["wps-pairs", "--omega", "1,1", "--d", "2,2", "--coeffs", "1/0"], "--coeffs: zero denominator in '1/0'"),
        (["wps-pairs", "--omega", "1,1", "--d", "2,2", "--coeffs", "1_000"], "--coeffs: exact integer required, got '1_000'"),
        (["split-field", "--alpha1", "1", "--alpha2", "2", "--c", "0.5,1e1"], "--c: exact integer required, got '0.5'"),
        (["monomial-hypersurface", "--alpha", "1_000", "--beta", "2"], "--alpha: exact integer required, got '1_000'"),
        (["split-field", "--alpha1", "1", "--alpha2", "2", "--c", "1"], "two field-half coefficients required"),
        (["wps-pairs", "--omega", "1", "--d", "2"], "need at least two weights"),
        (["torsion-fermat", "--m", "\u0663"], "--m: exact integer required, got '\u0663'"),
        (["torsion-fermat", "--m", "3", "--omega", "9,9", "--alpha", "7"], "torsion-fermat takes no --omega, --alpha"),
        (["split-field", "--alpha1", "1", "--alpha2", "2", "--alpha", "1"], "split-field takes no --alpha"),
        (["monomial-hypersurface", "--alpha", "2", "--beta", "3", "--c", "1,1"], "monomial-hypersurface takes no --c"),
        (["wps-pairs", "--d", "2,2", "--coeffs", "1,1"], "wps-pairs needs --omega and --d"),
        (["biproj-pairs", "--n", "1", "--a", "1", "--b", ""], "biproj-pairs needs --n, --a and --b"),
        (["torsion-fermat", "--m", ""], "torsion-fermat needs --m"),
        (["split-field", "--alpha2", "2", "--c", "1,1"], "split-field needs --alpha1 and --alpha2"),
        (["monomial-hypersurface", "--alpha", "2"], "monomial-hypersurface needs --alpha and --beta"),
    ],
)
def test_fixture_flags_read_numbers_as_case_files_do(capsys, params, message):
    code, out = invoke(capsys, "fixture", *params)
    assert code == 1
    assert out == f"error: cannot build fixture: {message}\n"


def test_audit_monomial_case_exit_two(tmp_path, capsys):
    code, out = invoke(capsys, "export", "monomial-hypersurface", "--alpha", "5", "--beta", "5")
    path = tmp_path / "mono.case"
    path.write_text(out)
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 2
    assert "verdict: bound-not-asserted" in out
    assert "inequality_violated: yes" in out
    assert "fail:" in out


def test_audit_clean_case_exit_zero(tmp_path, capsys):
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    path.write_text(text)
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 0
    assert "verdict: bound-holds" in out


def test_audit_text_machine_numeric_parity(tmp_path, capsys):
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    path.write_text(text)
    _, text_out = invoke(capsys, "audit", "--case", str(path))
    _, machine_out = invoke(capsys, "audit", "--case", str(path), "--format", "machine")
    doc = json.loads(machine_out)
    row = doc["bounds"][0]
    m = re.search(r"k=(\d+): bound=(\d+) actual=(\d+) slack=(\d+)", text_out)
    assert [int(m.group(i)) for i in (1, 2, 3, 4)] == [
        row["k"],
        row["bound"],
        row["actual"],
        row["slack"],
    ]
    assert doc["deg_f"] in text_out and doc["deg_v"] in text_out


def test_degree_command(tmp_path, capsys):
    path = tmp_path / "p2.case"
    path.write_text(
        "[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"
        "[hypersurface]\nf = x^3 + y^3 + z^3\n"
    )
    code, out = invoke(capsys, "degree", "--case", str(path))
    assert code == 0 and "deg_v: 3" in out
    path.write_text(
        "[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"
        "[hypersurface]\nf = x + y^2\n"
    )
    code, out = invoke(capsys, "degree", "--case", str(path))
    assert code == 2 and "mixed" in out


def test_invariance_command(tmp_path, capsys):
    _, text = invoke(capsys, "export", "monomial-hypersurface", "--alpha", "2", "--beta", "3")
    path = tmp_path / "mono.case"
    path.write_text(text)
    code, out = invoke(capsys, "invariance", "--case", str(path))
    assert code == 0
    assert "cofactor: 3*z1_1^2 + 2*z2_1^2" in out

    not_inv = (
        "[model]\ndimension = 1\nvariables = x y\nrays = (1) (-1)\n"
        "[hypersurface]\nf = x\n[field]\nx = y\n"
    )
    path.write_text(not_inv)
    code, out = invoke(capsys, "invariance", "--case", str(path))
    assert code == 2 and "not invariant" in out


def test_decompose_command(tmp_path, capsys):
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    path.write_text(text)
    code, out = invoke(capsys, "decompose", "--case", str(path))
    assert code == 0
    assert "P[z1,z2] = -1/3*z2" in out
    assert "P[z2,z3] = -1/3*z1" in out


def test_decompose_subset_via_flags(tmp_path, capsys):
    _, text = invoke(capsys, "export", "split-field", "--alpha1", "1", "--alpha2", "2")
    path = tmp_path / "split.case"
    path.write_text(text)
    code, out = invoke(capsys, "decompose", "--case", str(path))
    assert code == 0
    assert "P[z1_0,z1_1]" in out


def test_decompose_numbers_the_radial_field_from_one(tmp_path, capsys):
    # as --radial-index and the case file's radial_index do
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    path.write_text(text)
    code, out = invoke(capsys, "decompose", "--case", str(path), "--subset", "z1,z2")
    assert (code, out.strip()) == (2, "decomposition failed: radial field 1 is not supported on the index set")


P2_MODEL = "[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"


@pytest.mark.parametrize(
    "case,flags,message",
    [
        (
            "[hypersurface]\nf = x^3 + y^3 + z^3\n[field]\nx = 0\n",
            (),
            "error: vector field unusable: the zero vector field has no degree",
        ),
        (
            "[hypersurface]\nf = y\n[field]\ny = y^2\n",
            ("--subset", "x,z"),
            "error: field restricted to the index subset is zero",
        ),
    ],
    ids=["all-zero-field", "zero-after-restriction"],
)
def test_decompose_zero_field_exits_one_like_audit(tmp_path, capsys, case, flags, message):
    path = tmp_path / "zero.case"
    path.write_text(P2_MODEL + case)
    for command in ("decompose", "audit"):
        code, out = invoke(capsys, command, "--case", str(path), *flags)
        assert (code, out.strip()) == (1, message), command


def test_constant_hypersurface_on_the_subset_route_is_not_quasi_smooth(tmp_path, capsys):
    # every partial of a constant vanishes, as on the full route, which reports "fails"
    path = tmp_path / "constant.case"
    path.write_text(P2_MODEL + "cones = {1,2} {2,3} {1,3}\n[hypersurface]\nf = 3\n[field]\nx = y\n")
    for flags in ((), ("--subset", "x,y")):
        code, out = invoke(capsys, "audit", "--case", str(path), *flags)
        assert code == 2, flags
        assert "quasi_smoothness: fails" in out and "verdict: bound-not-asserted" in out
    assert "singular cone escapes the removed locus" in out


def test_audit_subset_flag_overrides(tmp_path, capsys):
    # strip the [options] section and pass the subset on the command line
    _, text = invoke(capsys, "export", "split-field", "--alpha1", "1", "--alpha2", "2")
    head = text.split("[options]")[0]
    path = tmp_path / "split.case"
    path.write_text(head)
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 2  # full-field route: not strongly quasi-smooth
    code, out = invoke(
        capsys, "audit", "--case", str(path), "--subset", "z1_0,z1_1", "--radial-index", "1"
    )
    assert code == 0
    assert "verdict: bound-holds" in out
    assert "subset: 1 2" in out


def test_missing_file_exit_one(capsys):
    code, out = invoke(capsys, "classgroup", "--case", "/nonexistent.case")
    assert code == 1


def test_radial_index_flag_out_of_range(tmp_path, capsys):
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    path.write_text(text)
    code, out = invoke(capsys, "decompose", "--case", str(path), "--radial-index", "2")
    assert code == 1
    assert "out of range" in out


def test_parse_error_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.case"
    path.write_text("[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"
                    "[hypersurface]\nf = 1.5*x\n")
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 1
    assert "rational literals" in out


def test_selftest_fast(capsys):
    code, out = invoke(capsys, "selftest", "--fast")
    assert code == 0
    assert "suite smith_normal_form: pass" in out
    assert "suite euler_identity: pass" in out


def test_export_round_trip_through_cli(tmp_path, capsys):
    _, text1 = invoke(capsys, "export", "torsion-fermat", "--m", "6")
    path = tmp_path / "t6.case"
    path.write_text(text1)
    code, out = invoke(capsys, "fixture", "torsion-fermat", "--m", "6", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])


def _torsion_case(tmp_path, capsys, options=""):
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    path.write_text(text + options)
    return path


def test_radial_index_flag_zero_rejected(tmp_path, capsys):
    path = _torsion_case(tmp_path, capsys)
    for command in ("audit", "decompose"):
        code, out = invoke(capsys, command, "--case", str(path), "--radial-index", "0")
        assert code == 1
        assert "radial_index 0 out of range 1..1" in out


def test_power_cap_flag_is_a_usage_error(tmp_path, capsys):
    # the subset route is decided exactly, so no power bound is taken
    path = _torsion_case(tmp_path, capsys)
    for command in ("audit", "decompose"):
        assert run([command, "--case", str(path), "--power-cap", "2"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --power-cap" in captured.err
        assert "Traceback" not in captured.out + captured.err


def test_subset_flag_undeclared_name_rejected(tmp_path, capsys):
    path = _torsion_case(tmp_path, capsys)
    code, out = invoke(capsys, "audit", "--case", str(path), "--subset", "z1,nope")
    assert code == 1
    assert "subset names not declared: nope" in out


@pytest.mark.parametrize("command", ["audit", "decompose"])
@pytest.mark.parametrize(
    "subset, message",
    [
        ("z1", "an index subset needs at least two variables"),
        ("", "an index subset needs at least two variables"),
        ("z1,z1", "subset names repeated: z1"),
        ("z2 z1 z2,z1", "subset names repeated: z2 z1"),
    ],
)
def test_subset_of_fewer_than_two_distinct_variables_rejected(tmp_path, capsys, command, subset, message):
    # the --subset flag and the [options] entry share one validator
    path = _torsion_case(tmp_path, capsys)
    code, out = invoke(capsys, command, "--case", str(path), "--subset", subset)
    assert (code, out) == (1, f"error: {message}\n")
    path = _torsion_case(tmp_path, capsys, f"\n[options]\nsubset = {subset}\n")
    lineno = path.read_text().splitlines().index(f"subset = {subset}") + 1
    code, out = invoke(capsys, command, "--case", str(path))
    assert (code, out) == (1, f"input error:\nline {lineno}: {message}\n")


def test_power_cap_in_case_file_is_an_unknown_option(tmp_path, capsys):
    path = _torsion_case(tmp_path, capsys, "\n[options]\npower_cap = 3\n")
    lineno = path.read_text().splitlines().index("power_cap = 3") + 1
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 1
    assert f"line {lineno}: unknown option 'power_cap'" in out


def test_model_alias_removed(tmp_path, capsys):
    path = _torsion_case(tmp_path, capsys)
    code, _ = invoke(capsys, "classgroup", "--model", str(path))
    assert code == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run([]) == 1
    assert run(["audit", "--no-such-flag"]) == 1
    assert run(["audit", "--format", "yaml"]) == 1
    path = _torsion_case(tmp_path, capsys)
    code, out = invoke(capsys, "audit", "--case", str(path), "--radial-index", "x")
    assert code == 1
    assert "radial_index: exact integer required, got 'x'" in out
    capsys.readouterr()
    assert run(["--help"]) == 0
    assert run(["audit", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_selftest_machine_prints_json_only(capsys):
    code, out = invoke(capsys, "selftest", "--fast", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["smith_normal_form"] == "pass"
    assert set(doc.values()) == {"pass"}


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "--case", "CASE"],
        ["degree", "--case", "CASE"],
        ["invariance", "--case", "CASE"],
        ["decompose", "--case", "CASE"],
        ["audit", "--case", "CASE", "--decompose"],
        ["fixture", "torsion-fermat", "--m", "3"],
        ["selftest", "--fast"],
    ],
)
def test_machine_output_is_the_json_modules_text(tmp_path, capsys, argv):
    _, text = invoke(capsys, "export", "torsion-fermat", "--m", "3")
    path = tmp_path / "tor.case"
    # a model name that needs escapes: a quote, a backslash and non-ASCII
    path.write_text(text.replace("name = S_Z3", 'name = S_"Z3"\\\u00e9\u0662'), encoding="utf-8")
    argv = [str(path) if a == "CASE" else a for a in argv]
    code, out = invoke(capsys, *argv, "--format", "machine")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_fixture_computes_each_groebner_basis_once(capsys, monkeypatch):
    from toricfol import groebner

    # Every lead set, mod P or exact, is read once through ``_leads``; the
    # shared pair loop runs only for generators that are not all single
    # terms, which are their own basis.
    leads, loops = [], []

    def spy(name, calls):
        original = getattr(groebner, name)

        def counting(gens, modulus, *args, **kwargs):
            calls.append("exact" if modulus is None else "modular")
            return original(gens, modulus, *args, **kwargs)

        monkeypatch.setattr(groebner, name, counting)

    spy("_leads", leads)
    spy("_pair_loop", loops)
    split = ["modular"] + ["exact"] * 4 + ["modular", "exact"]
    expected = [
        # the Fermat partials are single terms
        (("torsion-fermat", "--m", "3"), ["modular"], []),
        # the strong check is not certified mod P, so one exact basis decides;
        # then the fixture's subset check: a unit chart, then a failing one;
        # every partial and every chart generator is a single term
        (("monomial-hypersurface", "--alpha", "2", "--beta", "3"), ["modular", "exact", "exact", "exact"], []),
        # the subset audit's regular-subsequence test (certified mod P), one
        # exact basis per chart of its four cones, then the fixture's strong check
        (("split-field", "--alpha1", "1", "--alpha2", "2"), split, split),
    ]
    for params, want_leads, want_loops in expected:
        leads.clear()
        loops.clear()
        code, _ = invoke(capsys, "fixture", *params)
        assert code == 0
        assert leads == want_leads, params
        assert loops == want_loops, params


def test_closed_stdout_exits_one_without_traceback():
    # The reader of stdout is gone before anything is written, as with
    # `toricfol selftest --fast --format machine | head -3` once head exits.
    src = str(Path(toricfol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toricfol.cli", "selftest", "--fast", "--format", "machine"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""  # in particular, no traceback


@pytest.mark.parametrize("t", ["0", "1", "-2"])
def test_bad_torsion_factor_located_error(tmp_path, capsys, t):
    # a modulus below 2 is no cyclic factor; 0 once crashed in DegreeClass
    path = tmp_path / "tor.case"
    path.write_text(
        "[model]\ndimension = 2\nvariables = x y z\n"
        f"torsion = {t}\ndegrees = (1,[0]) (1,[1]) (1,[2])\n"
        "[hypersurface]\nf = x^3 + y^3 + z^3\n"
    )
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 1
    assert f"line 4: torsion factor must be at least 2, got {t}" in out
    assert "Traceback" not in out


def test_model_errors_located(tmp_path, capsys):
    cases = [
        # a presentation without a positive functional: not complete
        ("dimension = 1\nvariables = x y\ndegrees = (1) (-1)\n", 4, "not complete"),
        # rays that do not positively span the plane, located at the rays
        ("dimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (1,2)\n", 4, "not complete"),
        # rays that build, display degrees that are not the grading in any basis
        ("dimension = 1\nvariables = x y\nrays = (1) (-1)\ndegrees = (1) (2)\n", 5, "ray relation of coordinate 1"),
        # no variables at all
        ("dimension = 0\nvariables =\nrays =\n", 4, "has no variables"),
    ]
    path = tmp_path / "bad.case"
    for body, line, reason in cases:
        path.write_text("[model]\n" + body)
        code, out = invoke(capsys, "classgroup", "--case", str(path))
        assert code == 1
        assert f"line {line}: model construction failed: " in out and reason in out, out
        assert "Traceback" not in out


@pytest.mark.parametrize(
    "cones, reason",
    [
        ("{1,2} {1,2}", "is listed twice"),  # the P^2 rays with one cone repeated
        ("{1,2,3}", "does not have 2 distinct rays"),  # a 3-ray cone in dimension 2
        ("{1,2} {2,4}", "references an unknown ray"),
    ],
)
def test_malformed_fans_located_at_cones(tmp_path, capsys, cones, reason):
    path = tmp_path / "fan.case"
    path.write_text(
        "[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"
        f"cones = {cones}\n"
    )
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 1
    assert "line 5: model construction failed: " in out and reason in out, out
    assert "Traceback" not in out


@pytest.mark.parametrize("command", ["degree", "invariance", "decompose", "audit"])
def test_missing_sections_are_input_errors(tmp_path, capsys, command):
    model = "[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"
    path = tmp_path / "part.case"
    path.write_text(model)
    code, out = invoke(capsys, command, "--case", str(path))
    assert code == 1
    assert out.startswith("input error:\n")
    assert f"{command} needs a [hypersurface] section" in out
    path.write_text(model + "[hypersurface]\nf = x^3 + y^3 + z^3\n")
    code, out = invoke(capsys, command, "--case", str(path))
    if command == "degree":
        assert code == 0
    else:
        assert code == 1
        assert out == f"input error:\n{command} needs a [field] section\n"


def _split_case(tmp_path, capsys, subset):
    _, text = invoke(capsys, "export", "split-field", "--alpha1", "1", "--alpha2", "2")
    path = tmp_path / "split.case"
    path.write_text(text.replace("subset = z1_0 z1_1", f"subset = {subset}"))
    return path


def test_subset_quasi_smoothness_decided_without_a_cap(tmp_path, capsys):
    path = _split_case(tmp_path, capsys, "z1_0 z1_1")
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 0
    assert "hypothesis quasi_smoothness: pass" in out
    assert "quasi_smoothness: quasi-sing-in-irrelevant" in out
    assert "verdict: bound-holds" in out


def test_subset_quasi_smoothness_failures(tmp_path, capsys):
    path = _split_case(tmp_path, capsys, "z1_1 z2_1")
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 2
    assert "quasi_smoothness: fails" in out
    assert (
        "fail: selected partials are not a regular subsequence; "
        "radial field not supported on the subset"
    ) in out

    _, text = invoke(capsys, "export", "monomial-hypersurface", "--alpha", "2", "--beta", "3")
    path.write_text(text)
    code, out = invoke(capsys, "audit", "--case", str(path), "--subset", "z1_0,z1_1")
    assert code == 2
    assert "quasi_smoothness: fails" in out
    assert "; singular cone escapes the removed locus" in out


def test_quasi_smoothness_needs_quasi_homogeneous(tmp_path, capsys):
    path = _split_case(tmp_path, capsys, "z1_0 z1_1")
    text = path.read_text()
    f_line = next(line for line in text.splitlines() if line.startswith("f = "))
    path.write_text(text.replace(f_line, f_line + " + z1_0"))
    code, out = invoke(capsys, "audit", "--case", str(path))
    assert code == 2
    assert "quasi_smoothness: fails" in out
    assert "hypothesis quasi_smoothness: fail: hypersurface not quasi-homogeneous" in out


@pytest.mark.parametrize(
    "irrelevant, reason",
    [
        # a parse error inside a generator once escaped as a traceback
        ("x^2*y z w", "irrelevant generator 'w': undeclared variable 'w'"),
        ("x*y 1.5*z", "irrelevant generator '1.5*z': rational literals must be p/q"),
        ("x^2*y z", "model construction failed: model toric(n=2,r=1): irrelevant generator (2, 1, 0) is not squarefree"),
        ("x*y y*z x*y", "irrelevant generator (1, 1, 0) is listed twice"),
        ("1 x", "irrelevant generator (0, 0, 0) is the constant monomial"),
    ],
)
def test_irrelevant_generator_errors_located(tmp_path, capsys, irrelevant, reason):
    path = tmp_path / "irr.case"
    path.write_text(
        f"[model]\ndimension = 2\nvariables = x y z\ndegrees = 1 1 1\nirrelevant = {irrelevant}\n"
    )
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 1
    assert out.startswith("input error:\nline 5: ") and reason in out, out


@pytest.mark.parametrize(
    "entry, lineno",
    [("irrelevant = z1*z2", 5), ("cones = {1,2}", 5)],
)
def test_non_simplicial_chart_located(tmp_path, capsys, entry, lineno):
    # P^1 x P^1 by its degrees: z1*z2, the complement of {z3,z4}, has the
    # degrees of one factor, so its chart misses orbits of {z1*z2 != 0}
    path = tmp_path / "p1p1.case"
    path.write_text(
        f"[model]\ndimension = 2\nvariables = z1 z2 z3 z4\ndegrees = (1,0) (1,0) (0,1) (0,1)\n{entry}\n"
    )
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 1
    assert out.startswith(f"input error:\nline {lineno}: model construction failed: "), out
    assert "for a simplicial chart" in out


def test_irrelevant_line_rejected_beside_rays(tmp_path, capsys):
    # once read and then handed to no builder, so the line was silently dropped
    path = tmp_path / "rays_irr.case"
    path.write_text(
        "[model]\ndimension = 2\nvariables = x y z\nrays = (1,0) (0,1) (-1,-1)\n"
        "cones = {1,2} {2,3} {1,3}\nirrelevant = x^2*y x*y x*y\n"
    )
    code, out = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 1
    assert out.startswith("input error:\nline 6: irrelevant is not read with rays"), out
    path.write_text(path.read_text().replace("irrelevant = x^2*y x*y x*y\n", ""))
    code, _ = invoke(capsys, "classgroup", "--case", str(path))
    assert code == 0


def test_readme_flags_are_accepted():
    # every flag the README's command block shows must parse for its command
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    checked = 0
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if len(words) < 2 or words[0] != "toricfol":
            continue
        accepted = subparsers.choices[words[1]]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z-]*", " ".join(words[2:])):
            assert flag in accepted, f"README shows {flag} for {words[1]}"
            checked += 1
    assert checked >= 10


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    import argparse

    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    try:
        invoke(capsys, "fixture", "torsion-fermat", "--m", "3")
        # the first call builds one top-level parser and one per subcommand
        assert built.count("toricfol") == 1 and len(built) > 1
        first = len(built)
        for argv in [("fixture", "torsion-fermat", "--m", "3"), ("fixture", "nope"), ("classgroup", "--bad")] * 4:
            invoke(capsys, *argv)
        assert len(built) == first
    finally:
        build_parser.cache_clear()


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    case = str(_split_case(tmp_path, capsys, "z1_0 z1_1"))
    split = ("split-field", "--alpha1", "1", "--alpha2", "2")
    sequences = [
        [("audit", "--case", case, "--decompose"), ("audit", "--case", case)],
        [
            ("audit", "--case", case, "--format", "machine", "--subset", "z1_1,z2_1"),
            ("audit", "--case", case, "--format", "machine"),
        ],
        # the field coefficients show in the exported case, not in the fixture report
        [("fixture", *split, "--c=3,5"), ("fixture", *split), ("export", *split, "--c=3,5"), ("export", *split)],
    ]
    for sequence in sequences:
        shared = [invoke(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(invoke(capsys, *argv))
        assert shared == fresh, sequence
        # the flag changes the result, so a flag that stuck would show
        assert shared[-2] != shared[-1], sequence
