"""Seeded inputs and expected values for the three benchmark workloads.

Every workload is built from ``random.Random(seed)`` alone, so one seed
always yields the same cases.  A case carries a ``run`` callable, which
is what the benchmark times (it produces the verdict and its machine
JSON), and a ``check`` callable that compares that output with values
taken from the construction, never from the code under test.

Library functions are always reached through their module at call time
(``toricfol.audit.audit_case``, not a name bound at import), so the
traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import toricfol
import toricfol.cli
from toricfol import audit, casefile, families, normalform
from toricfol.degrees import DegreeClass
from toricfol.foliation import VectorField
from toricfol.poly import Polynomial

@dataclass
class Case:
    """One unit of work: ``run()`` returns ``(machine_json, obj)`` and
    ``check(machine_json, obj)`` returns a problem string or None."""

    name: str
    run: Callable[[], tuple[str, object]]
    check: Callable[[str, object], str | None]


def _expect(doc: str, want: dict) -> str | None:
    """Problem string when the machine JSON disagrees with ``want``."""
    got = json.loads(doc)
    wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
    return f"expected {want}, got {wrong}" if wrong else None


# ---------------------------------------------------------------------------
# seeded polynomial builders


def _coeff(rng: random.Random, span: int = 9) -> int:
    return rng.choice([x for x in range(-span, span + 1) if x])


def _sparse_of_degree(rng, model, alpha, max_terms: int = 3) -> Polynomial:
    """A random polynomial with up to ``max_terms`` monomials of class alpha
    (zero when the class holds no monomial)."""
    basis = toricfol.grading.monomials_of_degree(model, alpha)
    if not basis:
        return Polynomial.zero(model.nvars)
    picked = rng.sample(basis, min(len(basis), max_terms))
    return Polynomial(model.nvars, {m: _coeff(rng, 5) for m in picked})


def _weighted_monomials(weights, degree):
    """Every exponent vector e with sum(w_i e_i) == degree, by direct recursion."""
    out = []

    def descend(j, left, exps):
        if j == len(weights) - 1:
            if left % weights[j] == 0:
                out.append(tuple(exps + [left // weights[j]]))
            return
        for e in range(left // weights[j] + 1):
            descend(j + 1, left - e * weights[j], exps + [e])

    descend(0, degree, [])
    return out


# ---------------------------------------------------------------------------
# koszul-roundtrip


@dataclass(frozen=True)
class RoundTrip:
    label: str
    model: object
    f: Polynomial
    field: VectorField
    twist: DegreeClass
    g: Polynomial


def make_roundtrip(rng, fix, twist: DegreeClass, label: str) -> RoundTrip:
    """X = sum P_jk (f_j d_k - f_k d_j) + (g/theta) R with seeded P_jk and g
    of their forced degrees, assembled by ``normalform.reconstruct``."""
    model, f = fix.model, fix.hypersurface
    alpha = toricfol.grading.homogeneous_degree(model, f)
    nv = model.nvars
    while True:
        pairs = []
        for j in range(nv):
            for k in range(j + 1, nv):
                deg = normalform.pair_degree(model, twist, alpha, j, k)
                pairs.append(((j, k), _sparse_of_degree(rng, model, deg)))
        g = _sparse_of_degree(rng, model, twist)
        if not g.is_zero() and sum(not p.is_zero() for _, p in pairs) >= 2:
            break
    dec = normalform.KoszulDecomposition(
        index_set=tuple(range(nv)),
        pairs=tuple(pairs),
        cofactor=g,
        radial_index=0,
        theta_value=model.theta(0, alpha),
    )
    field = normalform.reconstruct(model, f, dec)
    return RoundTrip(label, model, f, field, twist, g)


def _roundtrip_specs():
    """(label, fixture, twist): the koszul-roundtrip case list."""
    bp1 = families.biproj_pairs_fixture(1, [1], [1])
    tf6 = families.torsion_fermat_fixture(6)
    tf12 = families.torsion_fermat_fixture(12)
    wps = families.wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2))
    t3 = (3,)
    return [
        ("biproj-n1-t22", bp1, DegreeClass((2, 2))),
        ("biproj-n1-t33", bp1, DegreeClass((3, 3))),
        ("torsion-fermat-m6", tf6, DegreeClass((5,), (0,), t3)),
        ("torsion-fermat-m12", tf12, DegreeClass((11,), (0,), t3)),
        ("wps-pairs-1212", wps, DegreeClass((3,))),
    ]


def _roundtrip_case(rt: RoundTrip) -> Case:
    opts = audit.AuditOptions(attach_decomposition=True)
    names = rt.model.variable_names

    def run():
        report = toricfol.audit.audit_case(rt.model, rt.field, rt.f, opts)
        return report.to_json(), report

    want = {
        "verdict": "bound-holds",
        "deg_f": str(rt.twist),
        "cofactor": rt.g.to_string(names),
        "decomposition": "attached",
    }

    def check(doc, report):
        problem = _expect(doc, want)
        if problem:
            return problem
        if not toricfol.normalform.verify_decomposition(rt.model, rt.f, rt.field, report.decomposition):
            return "attached decomposition does not verify"
        return None

    return Case(f"koszul/{rt.label}", run, check)


def koszul_roundtrip(rng, smoke: bool, workdir: str) -> list[Case]:
    """Twenty cases per pass, each under about 0.05 s on an idle host:
    a short pass gives every case dozens of samples in a run.  Six
    seeded fields per biproj class, so that the median latency falls
    inside the (2,2) block and the 90th percentile inside the (3,3)
    block."""
    specs = _roundtrip_specs()
    if smoke:
        return [_roundtrip_case(make_roundtrip(rng, specs[0][1], specs[0][2], "smoke"))]
    reps = {"biproj-n1-t22": 6, "biproj-n1-t33": 6, "wps-pairs-1212": 4}
    return [
        _roundtrip_case(make_roundtrip(rng, fix, twist, f"{label}-{rep}"))
        for label, fix, twist in specs
        for rep in range(reps.get(label, 2))
    ]


# ---------------------------------------------------------------------------
# dense-quasismooth


# Dense coefficients are multiples of this prime, except on the pure powers.
PRIME = 7


def _dense_poly(rng, weights, degree: int) -> Polynomial:
    """Every monomial of the degree, quasi-smooth by construction.

    Pure powers get 1 + 7c and every other monomial 7c, with a seeded
    sign c = ±1 (fixed magnitudes keep the cost from depending much on
    the seed).  Modulo 7 this is the Fermat-type sum of pure powers, whose
    partials vanish together only at the origin because 7 divides no
    exponent.  Reduction mod p can only enlarge the singular cone, so the
    rational hypersurface is strongly quasi-smooth as well.
    """
    n = len(weights)
    pure = {tuple(degree // w if i == j else 0 for i in range(n)) for j, w in enumerate(weights)}
    terms = {}
    for m in _weighted_monomials(weights, degree):
        c = PRIME * rng.choice((-1, 1))
        terms[m] = c + 1 if m in pure else c
    return Polynomial(n, terms)


def _dense_case(rng, weights, degree: int, label: str) -> Case:
    model = families.weighted_projective(*weights)
    nv = model.nvars
    f = _dense_poly(rng, weights, degree)
    field = VectorField.from_components(nv, {0: f.partial_derivative(1), 1: -f.partial_derivative(0)})

    def run():
        report = toricfol.audit.audit_case(model, field, f)
        return report.to_json(), report

    want = {"cofactor": "0", "deg_v": str(degree), "quasi_smoothness": "strong", "verdict": "bound-holds"}
    return Case(f"dense/{label}", run, lambda doc, _report: _expect(doc, want))


def _split_case(rng, a1: int, a2: int) -> Case:
    c = (_coeff(rng), _coeff(rng))
    fix = families.split_field_fixture(a1, a2, c)
    opts = audit.AuditOptions(radial_index=fix.radial_index, subset=fix.subset)
    want = {
        "cofactor": "0",
        "deg_v": f"(1,{a1 + a2})",
        "quasi_smoothness": "quasi-sing-in-irrelevant",
        "verdict": "bound-holds",
    }

    def run():
        report = toricfol.audit.audit_case(fix.model, fix.field, fix.hypersurface, opts)
        return report.to_json(), report

    return Case(f"dense/split-field-{a1}-{a2}", run, lambda doc, _report: _expect(doc, want))


def dense_quasismooth(rng, smoke: bool, workdir: str) -> list[Case]:
    """Eighteen cases per pass, none over about 0.2 s on an idle host:
    a short pass gives every case dozens of samples in a run.  Six P^2
    cubics hold the median latency and three P^3 cubics the slowest
    sixth, with the 90th percentile inside that block.  The split-field
    subset audits exercise ``sing_inside_irrelevant`` and its
    power-membership loop."""
    if smoke:
        return [_dense_case(rng, (1, 1, 1), 3, "P2-cubic"), _split_case(rng, 1, 2)]
    return (
        [_dense_case(rng, (1, 1, 1, 1), 3, f"P3-cubic-{i}") for i in range(3)]
        + [_dense_case(rng, (1, 1, 1), 3, f"P2-cubic-{i}") for i in range(6)]
        + [_dense_case(rng, (1, 1, 1, 1, 1), 2, f"P4-quadric-{i}") for i in range(2)]
        + [_dense_case(rng, (1, 1, 2), 4, f"P112-quartic-{i}") for i in range(2)]
        + [_dense_case(rng, (1, 2, 3), 6, f"P123-sextic-{i}") for i in range(2)]
        + [_split_case(rng, 1, 2), _split_case(rng, 2, 3), _split_case(rng, 3, 4)]
    )


# ---------------------------------------------------------------------------
# casefile-batch


def _cli(argv) -> tuple[str, object]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = toricfol.cli.run(argv)
    return buf.getvalue(), code


def _fixture_specs(rng):
    """Named fixtures at small sizes with seeded coefficients, as
    (name, builder arguments, the same arguments as CLI flags)."""
    def nz():
        return _coeff(rng)

    def csv(*xs):
        return ",".join(map(str, xs))

    c1, c2, c3, c4, a, b, c5, c6 = (nz() for _ in range(8))
    al, be = rng.randint(1, 4), rng.randint(1, 4)
    return [
        ("wps-pairs", ((1, 2, 1, 2), (4, 2, 4, 2), (c1, c2)),
         ["--omega=1,2,1,2", "--d=4,2,4,2", f"--coeffs={csv(c1, c2)}"]),
        ("wps-pairs", ((1, 1, 1), (3, 3, 3), (c3, c4)),
         ["--omega=1,1,1", "--d=3,3,3", f"--coeffs={csv(c3, c4)}"]),
        ("biproj-pairs", (1, [a], [b]), ["--n=1", f"--a={a}", f"--b={b}"]),
        ("torsion-fermat", (3,), ["--m=3"]),
        ("split-field", (1, 2, (c5, c6)), ["--alpha1=1", "--alpha2=2", f"--c={csv(c5, c6)}"]),
        ("monomial-hypersurface", (al, be), [f"--alpha={al}", f"--beta={be}"]),
    ]


def _fixture_case(label, name, params) -> Case:
    argv = ["fixture", name, *params, "--format", "machine"]

    def check(out, code):
        if code != 0:
            return f"exit {code}, expected 0"
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        return f"fixture checks failed: {failed}" if failed else None

    return Case(f"batch/fixture-{label}", lambda: _cli(argv), check)


_LOCATED = re.compile(r"^input error:\nline \d+(, column \d+)?: ", re.M)


def _audit_file_case(label, path, want_code, want) -> Case:
    """``audit --case`` on one file; exit 1 must come with a located error."""
    argv = ["audit", "--case", path, "--format", "machine"]

    def check(out, code):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if want_code == 1:
            return None if _LOCATED.search(out) else f"no located error in {out!r}"
        return _expect(out, want)

    return Case(f"batch/{label}", lambda: _cli(argv), check)


def _corrupt(rng, text: str, kind: str) -> str:
    """Break the hypersurface line of a rendered case file."""
    lines = text.split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith("f = "))
    lhs, rhs = lines[i].split(" = ", 1)
    if kind == "decimal":
        rhs = f"{rng.randint(1, 9)}.5*{rhs}"
    elif kind == "undeclared":
        rhs = f"{rhs} + w{rng.randint(1, 9)}^2"
    else:  # unbalanced bracket
        rhs = f"({rhs}"
    lines[i] = f"{lhs} = {rhs}"
    return "\n".join(lines)


def casefile_batch(rng, smoke: bool, workdir: str) -> list[Case]:
    """Case files rendered with ``render_case`` into workdir, audited through
    the in-process CLI the way a user audits a directory of cases."""
    cases: list[Case] = []
    rendered: list[tuple[str, str, int, dict]] = []  # (label, text, exit code, expected fields)

    fixtures = _fixture_specs(rng)
    if smoke:
        fixtures = fixtures[3:4] + fixtures[5:]
    for i, (name, args, params) in enumerate(fixtures):
        cases.append(_fixture_case(f"{i}-{name}", name, params))
        fix = families.FIXTURE_BUILDERS[name](*args)
        text = casefile.render_case(
            casefile.CaseFile(
                model=fix.model,
                hypersurface=fix.hypersurface,
                field=fix.field,
                radial_index=fix.radial_index,
                subset=fix.subset,
            )
        )
        if name == "monomial-hypersurface":
            rendered.append((f"export-{i}-{name}", text, 2, {"verdict": "bound-not-asserted"}))
        else:
            rendered.append((f"export-{i}-{name}", text, 0, {"verdict": "bound-holds"}))

    small = [
        ("rt-biproj-n1", families.biproj_pairs_fixture(1, [1], [1]), DegreeClass((2, 2))),
        ("rt-torsion-m3", families.torsion_fermat_fixture(3), DegreeClass((2,), (0,), (3,))),
        ("rt-wps-111", families.wps_pairs_fixture((1, 1, 1), (3, 3, 3)), DegreeClass((2,))),
    ]
    if smoke:
        small = small[:1]
    for label, fix, twist in small:
        for rep in range(1 if smoke else 3):
            rt = make_roundtrip(rng, fix, twist, label)
            text = casefile.render_case(casefile.CaseFile(model=rt.model, hypersurface=rt.f, field=rt.field))
            want = {"verdict": "bound-holds", "cofactor": rt.g.to_string(rt.model.variable_names)}
            rendered.append((f"{label}-{rep}", text, 0, want))

    for kind in ("decimal", "undeclared", "unbalanced")[: 1 if smoke else 3]:
        label, text, _, _ = rendered[rng.randrange(len(rendered))]
        rendered.append((f"malformed-{kind}-{label}", _corrupt(rng, text, kind), 1, {}))

    for label, text, code, want in rendered:
        path = os.path.join(workdir, f"{label}.case")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cases.append(_audit_file_case(label, path, code, want))
    return cases


BUILDERS = {
    "koszul-roundtrip": koszul_roundtrip,
    "dense-quasismooth": dense_quasismooth,
    "casefile-batch": casefile_batch,
}


def build(workload: str, seed: int, smoke: bool, workdir: str) -> list[Case]:
    """The workload's fixed case list for this seed, in run order."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), smoke, workdir)
