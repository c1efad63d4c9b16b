"""Seeded mutation fuzzing of case files and fixture flags through ``cli.run``.

Every call runs in this one process, so the parser that ``cli.run``
builds once is shared by all of them.  Whatever the mutation does to a
case file or a flag, the command must end with exit 0, 1 or 2; an
exception escaping ``run`` would reach the user as a traceback.
"""

import contextlib
import io
import random
import re

from toricfol.cli import run

EXPORTS = [
    ("wps-pairs", "--omega=1,2,1,2", "--d=4,2,4,2"),
    ("biproj-pairs", "--n=1", "--a=1", "--b=2"),
    ("torsion-fermat", "--m=3"),
    ("split-field", "--alpha1=1", "--alpha2=2"),
    ("monomial-hypersurface", "--alpha=2", "--beta=3"),
]

COMMANDS = ["audit", "audit", "classgroup", "degree", "invariance", "decompose"]

NAME = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
INTEGER = re.compile(r"\d+")
# Characters that are no part of a case file's grammar, or are whitespace
# only to Unicode: Arabic-Indic two, a no-break space and a lone point.
STRAY = ["\u0662", "\u00a0", "."]
# What exit 1 prints: located case-file problems, or one error line.
INPUT_ERROR = re.compile(r"input error:\n(line \d+|\w+ needs a \[)|error: ")


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


def _seed_files():
    texts = [_run("export", *params)[1] for params in EXPORTS]
    # the biproj-pairs case on the presentation route, with its irrelevant ideal
    lines = [ln for ln in texts[1].splitlines() if not ln.startswith(("rays", "cones"))]
    at = next(i for i, ln in enumerate(lines) if ln.startswith("degrees"))
    lines.insert(at + 1, "irrelevant = z1_0*z2_0 z1_0*z2_1 z1_1*z2_0 z1_1*z2_1")
    texts.append("\n".join(lines) + "\n")
    return texts


def _mutate(rng, text):
    lines = text.split("\n")
    kind = rng.choice(["drop", "duplicate", "integer", "name", "truncate", "stray"])
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "stray":
        at = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:at] + rng.choice(STRAY) + lines[i][at:]
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        pattern = INTEGER if kind == "integer" else NAME
        hits = [(j, m) for j, ln in enumerate(lines) for m in pattern.finditer(ln)]
        j, m = rng.choice(hits)
        if kind == "integer":
            new = str(rng.randint(0, 9))
        else:
            new = rng.choice([h.group() for _, h in hits] + ["q", "z9"])
        lines[j] = lines[j][: m.start()] + new + lines[j][m.end() :]
    return "\n".join(lines)


def test_mutated_case_files_never_escape(tmp_path):
    seeds = _seed_files()
    path = tmp_path / "fuzz.case"
    for text in seeds:
        path.write_text(text)
        assert _run("audit", "--case", str(path))[0] in (0, 2)
    rng = random.Random(1)
    codes = set()
    for trial in range(600):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        path.write_text(text)
        argv = [rng.choice(COMMANDS), "--case", str(path)] + rng.choice([[], ["--format", "machine"]])
        try:
            code, out = _run(*argv)
        except Exception as exc:  # name the input that escaped
            raise AssertionError(f"trial {trial}: {' '.join(argv)} raised {exc!r} on\n{text}") from exc
        assert code in (0, 1, 2), (trial, text)
        assert "Traceback" not in out
        assert code != 1 or INPUT_ERROR.match(out), (trial, text, out)
        codes.add(code)
    assert codes == {0, 1, 2}


# Fixture flags as the benchmark passes them, signed and rational values
# included; --n stays at most 5 so that every fixture run is quick.
FIXTURES = [
    ["wps-pairs", "--omega=1,2,1,2", "--d=4,2,4,2", "--coeffs=-3,5"],
    ["wps-pairs", "--omega=1,1,1", "--d=3,3,3", "--coeffs=1/2,-2"],
    ["biproj-pairs", "--n=3", "--a=1,-1", "--b=2,1/3"],
    ["torsion-fermat", "--m=6"],
    ["split-field", "--alpha1=1", "--alpha2=2", "--c=-3,5"],
    ["monomial-hypersurface", "--alpha=2", "--beta=3"],
]

VALUES = ["1/0", "0.5", "-1", "x", "", "1,2,3", "\u0662"] + [str(d) for d in range(10)]


def _mutate_flags(rng, params):
    name, flags = params[0], list(params[1:])
    if not flags:
        return params
    i = rng.randrange(len(flags))
    if rng.random() < 0.25:
        del flags[i]
    else:
        flag = flags[i].split("=")[0]
        values = [v for v in VALUES if flag != "--n" or not v.isdigit() or int(v) <= 5]
        flags[i] = f"{flag}={rng.choice(values)}"
    return [name] + flags


def test_mutated_fixture_flags_never_escape():
    for params in FIXTURES:
        assert _run("fixture", *params)[0] == 0
    rng = random.Random(2)
    codes = set()
    for trial in range(150):
        params = rng.choice(FIXTURES)
        for _ in range(rng.randint(1, 2)):
            params = _mutate_flags(rng, params)
        argv = [rng.choice(["fixture", "export"])] + params
        try:
            code, out = _run(*argv)
        except Exception as exc:  # name the flags that escaped
            raise AssertionError(f"trial {trial}: {argv} raised {exc!r}") from exc
        assert code in (0, 1, 2), (trial, argv)
        assert "Traceback" not in out
        codes.add(code)
    assert {0, 1} <= codes
