"""Worked example varieties, foliations and invariant hypersurfaces.

Each family constructor returns a model whose displayed degrees follow
the usual conventions (weights on weighted projective space, one unit
vector per factor on products, action weights on scrolls).  On the ray
route the builder checks that they are the Smith-computed grading in
another basis and keeps only the displayed degrees.  Fixtures bundle a
model, a vector field and a hypersurface with externally known expected
values, each tagged with its provenance: "published" (stated in the
source material), "derived" (worked out by hand ahead of time), or
"trivial".
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import product
from math import gcd
from operator import index

from .audit import AuditOptions, AuditReport, audit_case
from .degrees import DegreeClass
from .foliation import VectorField, invariance_cofactor
from .groebner import only_origin_check, regular_subsequence_check, sing_inside_irrelevant
from .intlinalg import IntMatrix, smith_normal_form
from .model import ToricModel, build_from_pairing_rows, build_from_presentation, build_from_rays
from .normalform import KoszulDecomposition, koszul_decompose, verify_decomposition
from .poly import Polynomial


# ---------------------------------------------------------------------------
# family constructors


def weighted_projective(*weights: int) -> ToricModel:
    """Weighted projective space with the given positive weights.

    Rays are the images of the coordinate vectors in the quotient of
    Z^(n+1) by the weight vector, written in a Smith-derived basis; the
    variable degrees are the weights themselves.
    """
    w = tuple(map(index, weights))
    if len(w) < 2:
        raise ValueError("need at least two weights")
    if any(x < 1 for x in w):
        raise ValueError("weights must be positive")
    if gcd(*w) != 1:
        raise ValueError("weights must have gcd 1")
    count = len(w)
    snf = smith_normal_form(IntMatrix.from_rows([[x] for x in w]))
    # Quotient coordinates are the Smith basis rows beyond the pivot.
    rays = [tuple(snf.u.entries[i][j] for i in range(1, count)) for j in range(count)]
    cones = [tuple(j for j in range(count) if j != skip) for skip in range(count)]
    return build_from_pairing_rows(
        count - 1,
        rays,
        max_cones=cones,
        variable_names=[f"z{j}" for j in range(count)],
        name="P(" + ",".join(map(str, w)) + ")",
        degrees=[DegreeClass((x,)) for x in w],
    )


def multiprojective(*dims: int) -> ToricModel:
    """Product of projective spaces, one grading coordinate per factor."""
    dims = tuple(map(index, dims))
    if not dims or any(d < 1 for d in dims):
        raise ValueError("factor dimensions must be positive")
    n = sum(dims)
    rays = []
    offsets = []
    pos = 0
    for k, d in enumerate(dims):
        offsets.append(pos)
        block = [0] * n
        start = sum(dims[:k])
        for i in range(d):
            unit = [0] * n
            unit[start + i] = 1
            block = [b - u for b, u in zip(block, unit)]
            rays.append(tuple(unit))
        rays.insert(pos, tuple(block))  # the anti-diagonal ray comes first per factor
        pos += d + 1
    names = []
    for k, d in enumerate(dims):
        names.extend(f"z{k+1}_{i}" for i in range(d + 1))
    cones = []
    per_factor = []
    for k, d in enumerate(dims):
        base = offsets[k]
        per_factor.append(
            [tuple(base + j for j in range(d + 1) if j != skip) for skip in range(d + 1)]
        )
    for combo in product(*per_factor):
        cones.append(tuple(sorted(sum(combo, ()))))
    degrees = []
    for k, d in enumerate(dims):
        unit = tuple(1 if i == k else 0 for i in range(len(dims)))
        degrees.extend([DegreeClass(unit)] * (d + 1))
    return build_from_rays(
        n,
        rays,
        max_cones=cones,
        variable_names=names,
        name="x".join(f"P{d}" for d in dims),
        degrees=degrees,
    )


def rational_scroll(*twists: int) -> ToricModel:
    """Projectivized split bundle over the line, by action weights.

    Declared by its degree presentation: two base variables of degree
    (1,0) and one fiber variable of degree (-a_i,1) per twist.  The
    removed locus is asserted to be the usual union of the two
    coordinate planes.
    """
    a = tuple(map(index, twists))
    if not a:
        raise ValueError("need at least one twist")
    nfib = len(a)
    degrees = [DegreeClass((1, 0)), DegreeClass((1, 0))] + [
        DegreeClass((-ai, 1)) for ai in a
    ]
    names = ["z1_1", "z1_2"] + [f"z2_{i+1}" for i in range(nfib)]
    irrelevant = []
    for i in range(2):
        for j in range(nfib):
            e = [0] * (2 + nfib)
            e[i] = 1
            e[2 + j] = 1
            irrelevant.append(tuple(e))
    return build_from_presentation(
        nfib,
        degrees,
        variable_names=names,
        irrelevant_generators=irrelevant,
        name="F(" + ",".join(map(str, a)) + ")",
    )


def torsion_surface() -> ToricModel:
    """The orbifold surface whose class group is Z + Z/3.

    Fan rays (2,-1), (-1,2), (-1,-1); displayed degrees (1,[0]),
    (1,[2]), (1,[1]).
    """
    return build_from_rays(
        2,
        [(2, -1), (-1, 2), (-1, -1)],
        max_cones=[(0, 1), (1, 2), (0, 2)],
        variable_names=["z1", "z2", "z3"],
        name="S_Z3",
        degrees=[
            DegreeClass((1,), (0,), (3,)),
            DegreeClass((1,), (2,), (3,)),
            DegreeClass((1,), (1,), (3,)),
        ],
    )


def octahedron_rays() -> list[tuple[int, int, int]]:
    """The eight sign vectors; the associated threefold has class group
    Z^5 + Z/2 + Z/2 (used only as a class-group test case)."""
    return [tuple(s) for s in product((1, -1), repeat=3)]


# ---------------------------------------------------------------------------
# fixtures


@dataclass(frozen=True)
class Fixture:
    """A (model, field, hypersurface) case with tagged expected values.

    The expected values describe the audit run with the fixture's own
    options: with a subset, the cofactor, radial-span membership and
    slack are those of the field restricted to it.
    """

    name: str
    model: ToricModel
    field: VectorField
    hypersurface: Polynomial
    expected: tuple[tuple[str, object, str], ...]
    subset: tuple[int, ...] | None = None
    radial_index: int = 0
    field_parts: tuple[VectorField, ...] = dataclass_field(default=())


def _mono(nv: int, powers: dict[int, int], coeff=1) -> Polynomial:
    e = [0] * nv
    for j, p in powers.items():
        e[j] = p
    return Polynomial.monomial(e, coeff)


def wps_pairs_fixture(omega, powers, coeffs=None) -> Fixture:
    """Paired-power foliation on weighted projective space.

    Weights and exponents must satisfy a common product w_k * d_k and a
    common pair sum w_2j + w_2j+1; consecutive coordinate pairs then
    cancel exactly, so the pair-power hypersurface is invariant with
    cofactor zero.
    """
    w = tuple(map(index, omega))
    d = tuple(map(index, powers))
    model = weighted_projective(*w)
    if len(w) != len(d):
        raise ValueError("one exponent per weight required")
    if any(x < 1 for x in d):
        raise ValueError("exponents must be positive")
    zeta = {wi * di for wi, di in zip(w, d)}
    if len(zeta) != 1:
        raise ValueError(f"no common weighted power: products {sorted(zeta)}")
    zeta = zeta.pop()
    npairs = len(w) // 2
    xi = {w[2 * j] + w[2 * j + 1] for j in range(npairs)}
    if len(xi) != 1:
        raise ValueError(f"pair sums differ: {sorted(xi)}")
    xi = xi.pop()
    lone = len(w) % 2 == 1
    nterms = npairs + (1 if lone else 0)
    if coeffs is None:
        coeffs = [Fraction(k + 1) for k in range(nterms)]
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != nterms or any(c == 0 for c in coeffs):
        raise ValueError(f"{nterms} nonzero hypersurface coefficients required")

    nv = model.nvars
    comps: dict[int, Polynomial] = {}
    f = Polynomial.zero(nv)
    for k in range(npairs):
        i, j = 2 * k, 2 * k + 1
        comps[i] = _mono(nv, {j: d[j] - 1}, d[j])
        comps[j] = _mono(nv, {i: d[i] - 1}, -d[i])
        f = f + _mono(nv, {i: d[i]}, coeffs[k]) + _mono(nv, {j: d[j]}, coeffs[k])
    if lone:
        f = f + _mono(nv, {nv - 1: d[-1]}, coeffs[-1])
    fieldv = VectorField.from_components(nv, comps)

    maxpair = max(w[i] + w[j] for i in range(nv) for j in range(i + 1, nv))
    expected = (
        ("deg_hypersurface", DegreeClass((zeta,)), "published"),
        ("deg_field", DegreeClass((zeta - xi,)), "published"),
        ("cofactor", Polynomial.zero(nv), "derived"),
        ("strongly_quasi_smooth", True, "published"),
        ("lie_g_member", False, "derived"),
        ("slack", {0: maxpair - xi}, "published"),
    )
    return Fixture(
        name=f"wps-pairs{w}", model=model, field=fieldv, hypersurface=f, expected=expected
    )


def biproj_pairs_fixture(n: int, a, b) -> Fixture:
    """Pair-rotation foliation on a product of two equal projective spaces."""
    n = index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("odd factor dimension required")
    m = (n - 1) // 2
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != m + 1 or len(b) != m + 1:
        raise ValueError(f"{m + 1} coefficients per block required")
    model = multiprojective(n, n)
    nv = model.nvars

    def z1(i):
        return i

    def z2(i):
        return n + 1 + i

    comps: dict[int, Polynomial] = {}
    for k in range(m + 1):
        i, j = 2 * k, 2 * k + 1
        comps[z1(i)] = _mono(nv, {z1(i): 2, z2(j): 1}, a[k])
        comps[z1(j)] = _mono(nv, {z1(i): 2, z2(i): 1}, -a[k])
        comps[z2(i)] = _mono(nv, {z2(i): 2, z1(j): 1}, b[k])
        comps[z2(j)] = _mono(nv, {z2(i): 2, z1(i): 1}, -b[k])
    fieldv = VectorField.from_components(nv, comps)
    f = Polynomial.zero(nv)
    for k in range(n + 1):
        f = f + _mono(nv, {z1(k): 1, z2(k): 1})

    one_one = DegreeClass((1, 1))
    expected = (
        ("deg_hypersurface", one_one, "published"),
        ("deg_field", one_one, "published"),
        ("cofactor", Polynomial.zero(nv), "derived"),
        ("strongly_quasi_smooth", True, "published"),
        ("lie_g_member", False, "derived"),
        ("slack", {0: 2, 1: 2}, "published"),
    )
    return Fixture(
        name=f"biproj-pairs(n={n})", model=model, field=fieldv, hypersurface=f, expected=expected
    )


def torsion_fermat_fixture(m: int) -> Fixture:
    """Fermat hypersurface on the Z/3-torsion surface, exponent 0 mod 3."""
    m = index(m)
    if m < 3 or m % 3:
        raise ValueError("exponent must be a positive multiple of 3")
    model = torsion_surface()
    nv = 3
    fieldv = VectorField.from_components(
        nv,
        {
            0: _mono(nv, {1: m}),
            1: _mono(nv, {0: 1, 2: m - 1}) + _mono(nv, {0: m - 1, 1: 1}, -1),
            2: _mono(nv, {0: 1, 1: m - 1}, -1),
        },
    )
    f = _mono(nv, {0: m}) + _mono(nv, {1: m}) + _mono(nv, {2: m})
    third = Fraction(-1, m)
    dec_pairs = {
        (0, 1): _mono(nv, {1: 1}, third),
        (0, 2): Polynomial.zero(nv),
        (1, 2): _mono(nv, {0: 1}, third),
    }
    t3 = (3,)
    expected = (
        ("deg_hypersurface", DegreeClass((m,), (0,), t3), "published"),
        ("deg_field", DegreeClass((m - 1,), (0,), t3), "published"),
        ("cofactor", Polynomial.zero(nv), "derived"),
        ("strongly_quasi_smooth", True, "published"),
        ("lie_g_member", False, "derived"),
        ("slack", {0: 1}, "published"),
        ("decomposition_pairs", dec_pairs, "published"),
    )
    return Fixture(
        name=f"torsion-fermat(m={m})", model=model, field=fieldv, hypersurface=f, expected=expected
    )


def split_field_fixture(alpha1: int, alpha2: int, c=(1, 1)) -> Fixture:
    """Doubled line with a field splitting into two separately invariant halves.

    The hypersurface is quasi-smooth with singular cone inside the
    removed locus but not strongly quasi-smooth; the first half of the
    field is supported on the first factor's variables, where the
    partials form a regular pair.
    """
    a1, a2 = index(alpha1), index(alpha2)
    if a1 < 1 or a2 < 1:
        raise ValueError("positive exponents required")
    a = a1 + a2
    if len(c) != 2:
        raise ValueError("two field-half coefficients required")
    c1, c2 = (Fraction(x) for x in c)
    if c1 == 0 and c2 == 0:
        raise ValueError("at least one field half must survive")
    model = multiprojective(1, 1)
    nv = 4  # z1_0, z1_1, z2_0, z2_1
    x1 = VectorField.from_components(
        nv,
        {
            0: _mono(nv, {0: 2, 3: a}, c1),
            1: _mono(nv, {0: 2, 2: a}, -c1) + _mono(nv, {0: 2, 2: a1, 3: a2}, -c1),
        },
    )
    x2 = VectorField.from_components(
        nv,
        {
            2: _mono(nv, {2: 2 + a1, 0: 1, 3: a2 - 1}, c2 * a2)
            + _mono(nv, {2: 2, 1: 1, 3: a - 1}, c2 * a),
            3: _mono(nv, {2: a1 + 1 + a2, 0: 1}, -c2 * a)
            + _mono(nv, {2: a1 + 1, 0: 1, 3: a2}, -c2 * a1),
        },
    )
    fieldv = x1 + x2
    f = _mono(nv, {0: 1, 2: a}) + _mono(nv, {1: 1, 3: a}) + _mono(nv, {0: 1, 2: a1, 3: a2})
    expected = (
        ("deg_hypersurface", DegreeClass((1, a)), "published"),
        ("deg_field", DegreeClass((1, a)), "published"),
        ("cofactor_parts", (Polynomial.zero(nv), Polynomial.zero(nv)), "derived"),
        ("strongly_quasi_smooth", False, "derived"),
        ("sing_in_irrelevant", "yes", "published"),
        ("regular_subset", True, "derived"),
        ("subset_decomposition", True, "derived"),
    )
    return Fixture(
        name=f"split-field({a1},{a2})",
        model=model,
        field=fieldv,
        hypersurface=f,
        expected=expected,
        subset=(0, 1),
        radial_index=0,
        field_parts=(x1, x2),
    )


def monomial_hypersurface_fixture(alpha: int, beta: int) -> Fixture:
    """Monomial hypersurface on the doubled line: every hypothesis fails.

    The field is degree-inconsistent, the hypersurface is far from
    quasi-smooth, and for large exponents the degree inequality itself
    is violated, showing the hypotheses are not decorative.
    """
    a, b = index(alpha), index(beta)
    if a < 1 or b < 1:
        raise ValueError("positive exponents required")
    model = multiprojective(1, 1)
    nv = 4
    fieldv = VectorField.from_components(
        nv,
        {
            0: _mono(nv, {0: 1, 3: 2}),
            2: _mono(nv, {2: 1, 1: 2}),
        },
    )
    f = _mono(nv, {0: a, 2: b})
    cof = _mono(nv, {3: 2}, a) + _mono(nv, {1: 2}, b)
    expected = (
        ("deg_hypersurface", DegreeClass((a, b)), "published"),
        ("deg_field", "inconsistent", "derived"),
        ("cofactor", cof, "derived"),
        ("strongly_quasi_smooth", False, "published"),
        ("sing_in_irrelevant", "no", "published"),
    )
    return Fixture(
        name=f"monomial-hypersurface({a},{b})",
        model=model,
        field=fieldv,
        hypersurface=f,
        expected=expected,
    )


FIXTURE_BUILDERS = {
    "wps-pairs": wps_pairs_fixture,
    "biproj-pairs": biproj_pairs_fixture,
    "torsion-fermat": torsion_fermat_fixture,
    "split-field": split_field_fixture,
    "monomial-hypersurface": monomial_hypersurface_fixture,
}


# ---------------------------------------------------------------------------
# fixture verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str
    provenance: str


def _fmt(value, names) -> str:
    if isinstance(value, Polynomial):
        return value.to_string(names)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v, names)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v, names) for v in value) + ")"
    return str(value)


def check_fixture(fix: Fixture) -> tuple[AuditReport, list[CheckResult]]:
    """Audit the fixture once with its own options and compare every tagged
    expected value against that report; only what the audit does not
    compute (field parts, decompositions, the quasi-smoothness test of the
    other branch) is computed here."""
    opts = AuditOptions(radial_index=fix.radial_index, subset=fix.subset)
    report = audit_case(fix.model, fix.field, fix.hypersurface, opts)
    names = fix.model.variable_names
    results = []
    for key, want, tag in fix.expected:
        actual, passed = _run_check(fix, report, key, want)
        results.append(
            CheckResult(
                name=key,
                passed=passed,
                expected=_fmt(want, names),
                actual=_fmt(actual, names),
                provenance=tag,
            )
        )
    return report, results


def _run_check(fix: Fixture, report: AuditReport, key: str, want):
    model, fieldv, f = fix.model, fix.field, fix.hypersurface
    evidence = report.evidence
    if key == "deg_field":
        actual = "inconsistent" if evidence["deg_field"] is None else evidence["deg_field"]
    elif key == "slack":
        actual = {row.k: row.slack for row in report.rows}
    elif key in evidence:
        actual = evidence[key]
    elif key == "strongly_quasi_smooth":
        actual = only_origin_check([p for p in f.partials() if p])
    elif key == "sing_in_irrelevant":
        actual = sing_inside_irrelevant(model, f)
    elif key == "regular_subset":
        actual = regular_subsequence_check(f, fix.subset)
    elif key == "cofactor_parts":
        actual = tuple(invariance_cofactor(model, part, f) for part in fix.field_parts)
    elif key == "decomposition_pairs":
        dec = KoszulDecomposition(
            index_set=tuple(range(model.nvars)),
            pairs=tuple(sorted(want.items())),
            cofactor=Polynomial.zero(model.nvars),
            radial_index=fix.radial_index,
            theta_value=model.theta(fix.radial_index, evidence["deg_hypersurface"]),
        )
        ok = verify_decomposition(model, f, fieldv, dec)
        return "verified" if ok else "rejected", ok
    elif key == "subset_decomposition":
        part = fix.field_parts[0] if fix.field_parts else fieldv
        try:
            dec = koszul_decompose(
                model, f, part, radial_index=fix.radial_index, index_set=fix.subset
            )
        except Exception as exc:  # noqa: BLE001 - report, do not crash the run
            return f"failed: {exc}", False
        ok = verify_decomposition(model, f, part, dec)
        return "verified" if ok else "rejected", ok is want
    else:
        raise KeyError(f"unknown expected-value key {key!r}")
    return actual, actual == want
