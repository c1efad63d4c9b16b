"""Sectioned plain-text case files: model + hypersurface + field + options.

Exact integers and rationals only; every parse failure carries a line
(and, for expressions, column) position.  A case renders back to text
canonically, so parse -> render -> parse is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .degrees import DegreeClass
from .foliation import VectorField
from .model import ModelInputError, ToricModel, build_from_presentation, build_from_rays
from .parsing import ParseError, parse_polynomial
from .poly import Polynomial


class CaseError(Exception):
    """One or more located case-file problems."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("\n".join(str(p) for p in self.problems))


@dataclass(frozen=True)
class Located:
    message: str
    line: int

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass(frozen=True)
class CaseFile:
    model: ToricModel
    hypersurface: Polynomial | None = None
    field: VectorField | None = None
    radial_index: int = 0
    subset: tuple[int, ...] | None = None


_INT = re.compile(r"[+-]?[0-9]+")  # ASCII digits only, as render_case writes them
_SECTIONS = ("model", "hypersurface", "field", "options")
_MODEL_KEYS = ("name", "dimension", "variables", "rays", "torsion", "degrees", "cones", "irrelevant")


def _exact_int(text: str, what: str) -> int:
    text = text.strip()
    if not _INT.fullmatch(text):
        raise ValueError(f"{what}: exact integer required, got {text!r}")
    return int(text)


def _int(text: str, line: int, what: str) -> int:
    try:
        return _exact_int(text, what)
    except ValueError as exc:
        raise CaseError([Located(str(exc), line)]) from None


def _split_groups(text: str, line: int) -> list[str]:
    """Split space-separated groups, keeping (...) and {...} intact."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
            if depth < 0:
                raise CaseError([Located("unbalanced bracket", line)])
        if ch.isspace() and depth == 0:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth:
        raise CaseError([Located("unbalanced bracket", line)])
    if cur:
        out.append("".join(cur))
    return out


def _parse_degree(text: str, moduli, line: int) -> DegreeClass:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    items = [x.strip() for x in body.split(",") if x.strip()]
    free, residues = [], []
    for item in items:
        if item.startswith("[") and item.endswith("]"):
            residues.append(_int(item[1:-1], line, "torsion residue"))
        else:
            free.append(_int(item, line, "degree entry"))
    if len(residues) != len(moduli):
        raise CaseError(
            [Located(f"degree {text.strip()!r} has {len(residues)} residues, model declares {len(moduli)}", line)]
        )
    return DegreeClass(tuple(free), tuple(residues), tuple(moduli))


def _parse_tuple(text: str, line: int, what: str) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise CaseError([Located(f"{what}: expected (a,b,...), got {body!r}", line)])
    return tuple(_int(x, line, what) for x in body[1:-1].split(",") if x.strip())


def _parse_cone(text: str, line: int) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise CaseError([Located(f"cone: expected {{i,j,...}}, got {body!r}", line)])
    idx = tuple(_int(x, line, "cone index") for x in body[1:-1].split(",") if x.strip())
    if any(i < 1 for i in idx):
        raise CaseError([Located("cone indices are 1-based", line)])
    return tuple(i - 1 for i in idx)


def _sections(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    """section -> {key: (line, value)}, in line order; '#' starts a comment.
    A section given twice is one section; an unknown section or a key
    given twice in a section is a located problem."""
    out: dict[str, dict[str, tuple[int, str]]] = {}
    current = None
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                problems.append(Located("unterminated section header", lineno))
                continue
            current = name[1:-1].strip().lower()
            if current not in _SECTIONS:
                problems.append(Located(f"unknown section [{current}]", lineno))
            out.setdefault(current, {})
            continue
        if current is None:
            problems.append(Located("content before any [section] header", lineno))
            continue
        if "=" not in line:
            problems.append(Located("expected key = value", lineno))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out[current]:
            problems.append(Located(f"repeated key {key!r} in [{current}]", lineno))
        out[current][key] = (lineno, value)
    if problems:
        raise CaseError(problems)
    return out


def parse_case(text: str) -> CaseFile:
    sections = _sections(text)
    if "model" not in sections:
        raise CaseError([Located("missing [model] section", 0)])
    entries = sections["model"]
    unknown = [key for key in entries if key not in _MODEL_KEYS]
    if unknown:
        raise CaseError([Located(f"unknown model key {key!r}", entries[key][0]) for key in unknown])

    def need(key):
        if key not in entries:
            raise CaseError([Located(f"[model] is missing {key!r}", 0)])
        return entries[key]

    lineno, value = need("dimension")
    n = _int(value, lineno, "dimension")
    lineno, value = need("variables")
    names = tuple(value.split())
    if len(set(names)) != len(names):
        raise CaseError([Located("duplicate variable name", lineno)])
    name = entries.get("name", (0, ""))[1] or None

    moduli: tuple[int, ...] = ()
    if "torsion" in entries:
        lineno, value = entries["torsion"]
        moduli = tuple(_int(x, lineno, "torsion factor") for x in value.replace(",", " ").split())
        for t in moduli:
            if t < 2:
                raise CaseError([Located(f"torsion factor must be at least 2, got {t}", lineno)])

    degrees = None
    if "degrees" in entries:
        lineno, value = entries["degrees"]
        groups = _split_groups(value, lineno)
        degrees = [_parse_degree(g, moduli, lineno) for g in groups]
        if len(degrees) != len(names):
            raise CaseError([Located(f"{len(degrees)} degrees for {len(names)} variables", lineno)])

    cones = None
    if "cones" in entries:
        lineno, value = entries["cones"]
        cones = [_parse_cone(g, lineno) for g in _split_groups(value, lineno)]

    irrelevant = None
    if "irrelevant" in entries:
        lineno, value = entries["irrelevant"]
        if "rays" in entries:
            raise CaseError([Located("irrelevant is not read with rays: the cones give the irrelevant ideal", lineno)])
        irrelevant = []
        for g in _split_groups(value, lineno):
            try:
                p = parse_polynomial(g, names, line=lineno)
            except ParseError as exc:
                raise CaseError([Located(f"irrelevant generator {g!r}: {exc.message}", lineno)]) from None
            if len(p.terms) != 1 or next(iter(p.terms.values())) != 1:
                raise CaseError([Located(f"irrelevant generator {g!r} is not a plain monomial", lineno)])
            irrelevant.append(next(iter(p.terms)))

    if "rays" in entries:
        lineno, value = entries["rays"]
        rays = [_parse_tuple(g, lineno, "ray") for g in _split_groups(value, lineno)]
        if len(rays) != len(names):
            raise CaseError([Located(f"{len(rays)} rays for {len(names)} variables", lineno)])
        build = partial(build_from_rays, n, rays, degrees=degrees)
    elif degrees is not None:
        lineno = entries["degrees"][0]
        build = partial(build_from_presentation, n, degrees, irrelevant_generators=irrelevant)
    else:
        raise CaseError([Located("[model] needs either rays or degrees", 0)])
    try:
        model = build(max_cones=cones, variable_names=names, name=name)
    except (ValueError, TypeError) as exc:
        # Stated degrees the rays do not reach, a malformed cone or a
        # malformed irrelevant generator is located at its own line.
        if isinstance(exc, ModelInputError):
            lineno = entries[exc.entry][0]
        raise CaseError([Located(f"model construction failed: {exc}", lineno)]) from None
    if "torsion" in entries and model.moduli != moduli:
        built = " ".join(map(str, model.moduli)) or "none"
        message = f"torsion does not match the torsion of the model the rays give ({built})"
        raise CaseError([Located(message, entries["torsion"][0])])

    hypersurface = None
    problems: list = []
    for key, (lineno, value) in sections.get("hypersurface", {}).items():
        if key != "f":
            problems.append(Located(f"unknown hypersurface key {key!r}", lineno))
            continue
        try:
            hypersurface = parse_polynomial(value, names, line=lineno)
        except ParseError as exc:
            problems.append(exc)

    field = None
    if sections.get("field"):
        comps = {}
        for key, (lineno, value) in sections["field"].items():
            if key not in names:
                problems.append(Located(f"field component for undeclared variable {key!r}", lineno))
                continue
            try:
                comps[names.index(key)] = parse_polynomial(value, names, line=lineno)
            except ParseError as exc:
                problems.append(exc)
        if not problems:
            field = VectorField.from_components(len(names), comps)

    options = {}
    for key, (lineno, value) in sections.get("options", {}).items():
        try:
            options[key] = parse_option(model, key, value)
        except ValueError as exc:
            problems.append(Located(str(exc), lineno))
    if problems:
        raise CaseError(problems)
    return CaseFile(model=model, hypersurface=hypersurface, field=field, **options)


def _radial_index(model: ToricModel, text: str) -> int:
    """1-based radial field number -> 0-based index, within 1..rank."""
    idx = _exact_int(text, "radial_index")
    if not 1 <= idx <= model.rank:
        raise ValueError(f"radial_index {idx} out of range 1..{model.rank}")
    return idx - 1


def _subset(model: ToricModel, text: str) -> tuple[int, ...]:
    """Comma or space separated variable names -> sorted 0-based indices,
    at least two of them and no name twice."""
    names = model.variable_names
    items = text.replace(",", " ").split()
    bad = [v for v in items if v not in names]
    if bad:
        raise ValueError(f"subset names not declared: {' '.join(bad)}")
    repeated = dict.fromkeys(v for i, v in enumerate(items) if v in items[:i])
    if repeated:
        raise ValueError(f"subset names repeated: {' '.join(repeated)}")
    if len(items) < 2:
        raise ValueError("an index subset needs at least two variables")
    return tuple(sorted(names.index(v) for v in items))


# One validator per option, shared by the [options] section and the CLI flags.
OPTIONS = {"radial_index": _radial_index, "subset": _subset}


def parse_option(model: ToricModel, key: str, text: str):
    """The CaseFile value of one option given as text; ValueError when unusable."""
    if key not in OPTIONS:
        raise ValueError(f"unknown option {key!r}")
    return OPTIONS[key](model, text.strip())


def render_case(case: CaseFile) -> str:
    model = case.model
    names = model.variable_names
    lines = ["[model]"]
    lines.append(f"name = {model.name}")
    lines.append(f"dimension = {model.n}")
    lines.append(f"variables = {' '.join(names)}")
    if model.rays is not None:
        lines.append("rays = " + " ".join("(" + ",".join(map(str, r)) + ")" for r in model.rays))
    if model.moduli:
        lines.append("torsion = " + " ".join(map(str, model.moduli)))
    lines.append("degrees = " + " ".join(map(str, model.degrees)))
    if model.max_cones is not None:
        lines.append(
            "cones = " + " ".join("{" + ",".join(str(i + 1) for i in c) + "}" for c in model.max_cones)
        )
    if model.irrelevant_generators is not None:
        gens = [Polynomial.monomial(g).to_string(names) for g in model.irrelevant_generators]
        lines.append("irrelevant = " + " ".join(gens))
    if case.hypersurface is not None:
        lines.append("")
        lines.append("[hypersurface]")
        lines.append(f"f = {case.hypersurface.to_string(names)}")
    if case.field is not None:
        lines.append("")
        lines.append("[field]")
        for j, comp in enumerate(case.field.components):
            if not comp.is_zero():
                lines.append(f"{names[j]} = {comp.to_string(names)}")
    opts = []
    if case.radial_index:
        opts.append(f"radial_index = {case.radial_index + 1}")
    if case.subset is not None:
        opts.append("subset = " + " ".join(names[j] for j in case.subset))
    if opts:
        lines.append("")
        lines.append("[options]")
        lines.extend(opts)
    return "\n".join(lines) + "\n"

