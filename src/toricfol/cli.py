"""Command-line surface: case files in, verdict reports out.

Exit codes: 0 computed and verified, 1 unusable input, 2 a hypothesis
failed, an expected value mismatched, or an audited inequality broke.
Reports go to stdout in deterministic order; --format machine switches
to JSON with sorted keys.

run(argv) may be called any number of times in one process: the
argparse tree is built on the first call and reused, and each call
gets a fresh namespace from it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from .audit import AuditOptions, audit_case, machine_json
from .casefile import OPTIONS, CaseError, CaseFile, _exact_int, parse_case, parse_option, render_case
from .families import FIXTURE_BUILDERS, check_fixture
from .foliation import invariance_cofactor
from .grading import homogeneous_degree
from .normalform import DecompositionError, koszul_decompose
from .selfcheck import run_all

OK, INPUT_ERROR, FAILED = 0, 1, 2


def _load_case(args, *sections: str) -> CaseFile:
    """The parsed case file; CaseError when it lacks a section the command needs."""
    path = args.case
    if not path:
        raise CaseError([f"no case file given; use --case FILE"])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CaseError([f"cannot read {path}: {exc}"]) from None
    case = parse_case(text)
    missing = [f"{args.command} needs a [{s}] section" for s in sections if getattr(case, s) is None]
    if missing:
        raise CaseError(missing)
    return case


def _emit(doc: dict, text_lines: list[str], fmt: str):
    if fmt == "machine":
        print(machine_json(doc))
    else:
        for line in text_lines:
            print(line)


def _cmd_classgroup(args) -> int:
    case = _load_case(args)
    model = case.model
    doc = {
        "model": model.name,
        "class_group": model.class_group.describe(),
        "rank": model.rank,
        "torsion": list(model.moduli),
        "degrees": {name: str(d) for name, d in zip(model.variable_names, model.degrees)},
        "radial": [list(r) for r in model.radial],
        "eligible_k": [k + 1 for k in model.nonnegative_coordinates()],
    }
    lines = [f"model: {model.name}", f"class_group: {model.class_group.describe()}"]
    lines += [f"deg {n} = {d}" for n, d in zip(model.variable_names, model.degrees)]
    lines += [f"radial {i + 1}: {' '.join(map(str, r))}" for i, r in enumerate(model.radial)]
    lines.append("eligible_k: " + (" ".join(str(k + 1) for k in model.nonnegative_coordinates()) or "-"))
    _emit(doc, lines, args.format)
    return OK


def _cmd_degree(args) -> int:
    case = _load_case(args, "hypersurface")
    deg = homogeneous_degree(case.model, case.hypersurface)
    if deg is None:
        _emit({"deg_v": "mixed"}, ["deg_v: mixed degrees"], args.format)
        return FAILED
    _emit({"deg_v": str(deg)}, [f"deg_v: {deg}"], args.format)
    return OK


def _cmd_invariance(args) -> int:
    case = _load_case(args, "hypersurface", "field")
    field = case.field if case.subset is None else case.field.restrict(case.subset)
    g = invariance_cofactor(case.model, field, case.hypersurface)
    if g is None:
        _emit({"invariant": False}, ["not invariant"], args.format)
        return FAILED
    text = g.to_string(case.model.variable_names)
    _emit({"invariant": True, "cofactor": text}, [f"cofactor: {text}"], args.format)
    return OK


def _audit_options(case: CaseFile, args) -> AuditOptions:
    """The case file's options, each overridden by its flag when given."""
    values = {key: getattr(case, key) for key in OPTIONS}
    for key in OPTIONS:
        text = getattr(args, key)
        if text is not None:
            values[key] = parse_option(case.model, key, text)
    return AuditOptions(**values, attach_decomposition=getattr(args, "decompose", False))


def _cmd_decompose(args) -> int:
    case = _load_case(args, "hypersurface", "field")
    opts = _audit_options(case, args)
    field = case.field if opts.subset is None else case.field.restrict(opts.subset)
    if field.is_zero():  # unusable input, refused as audit refuses it
        raise ValueError(
            "vector field unusable: the zero vector field has no degree"
            if opts.subset is None
            else "field restricted to the index subset is zero"
        )
    names = case.model.variable_names
    try:
        dec = koszul_decompose(
            case.model,
            case.hypersurface,
            field,
            radial_index=opts.radial_index,
            index_set=opts.subset,
        )
    except (DecompositionError, ValueError) as exc:
        _emit({"decomposition": f"failed: {exc}"}, [f"decomposition failed: {exc}"], args.format)
        return FAILED
    entries = dec.to_strings(names)
    lines = [f"{k} = {v}" for k, v in entries.items()]
    _emit({"decomposition": entries}, lines, args.format)
    return OK


def _cmd_audit(args) -> int:
    case = _load_case(args, "hypersurface", "field")
    opts = _audit_options(case, args)
    report = audit_case(case.model, case.field, case.hypersurface, opts)
    if args.format == "machine":
        print(report.to_json())
    else:
        print(report.to_text(case.model.variable_names))
    return OK if report.verdict == "bound-holds" else FAILED


def _parse_fraction_list(text: str, flag: str) -> list[Fraction]:
    """Integers or p/q with q != 0, as a case file writes coefficients."""
    out = []
    for item in text.replace(",", " ").split():
        num, slash, den = item.partition("/")
        q = _exact_int(den, flag) if slash else 1
        if not q:
            raise ValueError(f"{flag}: zero denominator in {item!r}")
        out.append(Fraction(_exact_int(num, flag), q))
    return out


def _parse_int_list(text: str, flag: str) -> list[int]:
    return [_exact_int(x, flag) for x in text.replace(",", " ").split()]


def _cmd_fixture(args) -> int:
    fix = _build_fixture(args)
    report, results = check_fixture(fix)
    doc = {
        "fixture": fix.name,
        "checks": [
            dict(name=r.name, passed=r.passed, expected=r.expected, actual=r.actual, provenance=r.provenance)
            for r in results
        ],
        "audit": report.to_dict(),
    }
    lines = [f"fixture: {fix.name}"]
    for r in results:
        status = "ok" if r.passed else f"MISMATCH (expected {r.expected}, got {r.actual})"
        lines.append(f"check {r.name} [{r.provenance}]: {status}")
    lines.append("")
    lines.append(report.to_text(fix.model.variable_names))
    _emit(doc, lines, args.format)
    mismatch = any(not r.passed for r in results)
    return FAILED if mismatch else OK


def _build_fixture(args):
    """The named fixture built from its flags; any bad input is one ValueError."""
    if args.name not in FIXTURE_BUILDERS:
        raise ValueError(f"unknown fixture {args.name!r}; known: {' '.join(sorted(FIXTURE_BUILDERS))}")
    try:
        return FIXTURE_BUILDERS[args.name](*_fixture_arguments(args))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot build fixture: {exc}") from None


# Each fixture's builder arguments in order, as (flag, parser, required).
# Optional flags come last: one absent or given empty leaves the builder's
# default.  A flag of another fixture is an input error.
_FIXTURE_ARGS = {
    "wps-pairs": (
        ("omega", _parse_int_list, True), ("d", _parse_int_list, True), ("coeffs", _parse_fraction_list, False)
    ),
    "biproj-pairs": (("n", _exact_int, True), ("a", _parse_fraction_list, True), ("b", _parse_fraction_list, True)),
    "torsion-fermat": (("m", _exact_int, True),),
    "split-field": (("alpha1", _exact_int, True), ("alpha2", _exact_int, True), ("c", _parse_fraction_list, False)),
    "monomial-hypersurface": (("alpha", _exact_int, True), ("beta", _exact_int, True)),
}
# Every fixture flag, in the order the parser adds them and names foreign ones.
_FIXTURE_PARAMS = ("m", "n", "a", "b", "c", "omega", "d", "coeffs", "alpha", "beta", "alpha1", "alpha2")


def _fixture_arguments(args) -> list:
    name, spec = args.name, _FIXTURE_ARGS[args.name]
    own = [flag for flag, _, _ in spec]
    foreign = [f"--{p}" for p in _FIXTURE_PARAMS if getattr(args, p) is not None and p not in own]
    if foreign:
        raise ValueError(f"{name} takes no {', '.join(foreign)}")
    if any(needed and not getattr(args, flag) for flag, _, needed in spec):
        *rest, last = [f"--{flag}" for flag, _, needed in spec if needed]
        raise ValueError(f"{name} needs {', '.join(rest)} and {last}" if rest else f"{name} needs {last}")
    return [parse(getattr(args, flag), f"--{flag}") for flag, parse, _ in spec if getattr(args, flag)]


def _cmd_selftest(args) -> int:
    outcome = sorted(run_all(fast=args.fast).items())
    doc = {name: "pass" if ok else f"FAIL: {sample}" for name, (ok, sample) in outcome}
    lines = []
    for name, (ok, sample) in outcome:
        lines.append(f"suite {name}: {'pass' if ok else 'FAIL'}")
        lines.extend(f"  {note}" for note in sample)
    _emit(doc, lines, args.format)
    return OK if all(ok for _, (ok, _) in outcome) else FAILED


def _cmd_export(args) -> int:
    """Render a fixture as a case file (round-trip aid)."""
    fix = _build_fixture(args)
    case = CaseFile(
        model=fix.model,
        hypersurface=fix.hypersurface,
        field=fix.field,
        radial_index=fix.radial_index,
        subset=fix.subset,
    )
    sys.stdout.write(render_case(case))
    return OK


def _add_common(sub):
    sub.add_argument("--case", help="case file path")
    sub.add_argument("--format", choices=("text", "machine"), default="text")


def _add_option_flags(sub):
    sub.add_argument("--radial-index", dest="radial_index", help="1-based radial field")
    sub.add_argument("--subset", help="comma or space separated variable names")


def _add_fixture_params(sub):
    for param in _FIXTURE_PARAMS:
        sub.add_argument(f"--{param}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Every caller gets the same parser, so none may add to it.
    """
    parser = argparse.ArgumentParser(
        prog="toricfol",
        description="Exact toolkit for foliations on compact toric orbifolds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classgroup", help="divisor class group and variable degrees")
    _add_common(sub)
    sub.set_defaults(func=_cmd_classgroup)

    sub = subs.add_parser("degree", help="multidegree of the case hypersurface")
    _add_common(sub)
    sub.set_defaults(func=_cmd_degree)

    sub = subs.add_parser("invariance", help="cofactor of the case field on the hypersurface")
    _add_common(sub)
    sub.set_defaults(func=_cmd_invariance)

    sub = subs.add_parser("decompose", help="pair-field normal form of the case field")
    _add_common(sub)
    _add_option_flags(sub)
    sub.set_defaults(func=_cmd_decompose)

    sub = subs.add_parser("audit", help="hypotheses plus degree-bound comparison")
    _add_common(sub)
    _add_option_flags(sub)
    sub.add_argument("--decompose", action="store_true", help="attach a normal form")
    sub.set_defaults(func=_cmd_audit)

    sub = subs.add_parser("fixture", help="run a named example with expected-value checks")
    sub.add_argument("name")
    sub.add_argument("--format", choices=("text", "machine"), default="text")
    _add_fixture_params(sub)
    sub.set_defaults(func=_cmd_fixture)

    sub = subs.add_parser("export", help="print a named example as a case file")
    sub.add_argument("name")
    _add_fixture_params(sub)
    sub.set_defaults(func=_cmd_export)

    sub = subs.add_parser("selftest", help="randomized property suites")
    sub.add_argument("--fast", action="store_true")
    sub.add_argument("--format", choices=("text", "machine"), default="text")
    sub.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help exits 0
        return INPUT_ERROR if exc.code else OK
    try:
        return args.func(args)
    except CaseError as exc:
        print(f"input error:\n{exc}")
        return INPUT_ERROR
    except BrokenPipeError:
        raise  # stdout is gone, so there is nowhere to report it
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return INPUT_ERROR


def entry():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # flush at interpreter exit cannot fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(INPUT_ERROR)
    sys.exit(code)


if __name__ == "__main__":
    entry()
