"""Quasi-homogeneous vector fields, invariance and singular-scheme data."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .degrees import DegreeClass
from .grading import degree_vector
from .model import ToricModel
from .poly import Polynomial, sum_of_products
from .ratlinalg import Elimination


class DegreeInconsistencyError(ValueError):
    """Component degrees of a vector field force incompatible twists."""

    def __init__(self, conflicts):
        self.conflicts = tuple(conflicts)
        pretty = "; ".join(
            f"component {j} forces {d}" for j, d in self.conflicts
        )
        super().__init__(f"vector field has inconsistent component degrees: {pretty}")


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field sum_j components[j] d/dz_j."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty vector field")
        nv = self.components[0].nvars
        if any(p.nvars != nv for p in self.components):
            raise ValueError("components disagree on variable count")

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    @classmethod
    def zero(cls, nvars: int) -> "VectorField":
        return cls(tuple(Polynomial.zero(nvars) for _ in range(nvars)))

    @classmethod
    def from_components(cls, nvars: int, entries: dict[int, Polynomial]) -> "VectorField":
        comps = [Polynomial.zero(nvars)] * nvars
        for j, p in entries.items():
            comps[j] = p
        return cls(tuple(comps))

    @classmethod
    def radial(cls, model: ToricModel, i: int) -> "VectorField":
        coeffs = model.radial[i]
        return cls(
            tuple(
                Polynomial.variable(model.nvars, j, coeff=coeffs[j])
                for j in range(model.nvars)
            )
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, c) -> "VectorField":
        return VectorField(tuple(p.scale(c) for p in self.components))

    def restrict(self, indices) -> "VectorField":
        """Keep only the listed components, zeroing the rest."""
        keep = set(indices)
        return VectorField(
            tuple(p if j in keep else Polynomial.zero(self.nvars) for j, p in enumerate(self.components))
        )

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.components) if not p.is_zero())

    def apply_to(self, f: Polynomial) -> Polynomial:
        """Directional derivative sum_j components[j] * df/dz_j, summed in
        one term dict from the partials f keeps."""
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return sum_of_products(self.nvars, ((p, df) for p, df in zip(self.components, f.partials()) if p))

    def to_strings(self, names) -> dict[str, str]:
        return {
            names[j]: p.to_string(names)
            for j, p in enumerate(self.components)
            if not p.is_zero()
        }


def component_degree_candidates(
    model: ToricModel, field: VectorField
) -> list[tuple[int, DegreeClass]]:
    """Per nonzero component j, the twist deg(P_j) - deg(z_j) it forces:
    column j of ``model.degree_rows`` taken from the degree row of P_j."""
    rows, rank, moduli = model.degree_rows, model.rank, model.moduli
    out = []
    for j in field.support():
        d = degree_vector(model, field.components[j])
        if d is None:
            raise ValueError(f"component {j} is not quasi-homogeneous")
        free = tuple(d[k] - rows[k][j] for k in range(rank))
        residues = tuple((d[k] - rows[k][j]) % t for k, t in enumerate(moduli, rank))
        out.append((j, DegreeClass._trusted(free, residues, moduli)))
    return out


def foliation_degree(model: ToricModel, field: VectorField) -> DegreeClass:
    """The unique twist d with deg(P_j) = d + deg(z_j) on every nonzero slot.

    Raises DegreeInconsistencyError when two components disagree, naming
    the offending pair, and ValueError on the zero field.
    """
    candidates = component_degree_candidates(model, field)
    if not candidates:
        raise ValueError("the zero vector field has no degree")
    first_j, d = candidates[0]
    for j, dj in candidates[1:]:
        if dj != d:
            raise DegreeInconsistencyError([(first_j, d), (j, dj)])
    return d


def invariance_cofactor(
    model: ToricModel, field: VectorField, f: Polynomial
) -> Polynomial | None:
    """The polynomial g with X(f) = g * f, or None when f is not invariant."""
    g, rest = _invariance_division(field, f)
    return None if rest else g


def _invariance_division(field: VectorField, f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(q, r) with X(f) = q * f + r, r the full remainder of X(f) by f:
    zero exactly when f is invariant with cofactor q, else with no term
    divisible by lead(f).  The audit keeps the pair when r is not zero."""
    if f.is_zero():
        raise ValueError("hypersurface polynomial is zero")
    return field.apply_to(f)._divide(f)


def lie_g_membership(
    model: ToricModel, field: VectorField, degree: DegreeClass | None = None
) -> tuple[bool, list[Polynomial] | None]:
    """Whether the field is an S-linear combination of the radial fields.

    Writes X = sum_i g_i R_i with the g_i quasi-homogeneous of the
    foliation degree.  Component j forces z_j | P_j with quotient
    sum_i a_{i,j} g_i, and matching coefficients decouples into one
    exact r-unknown solve per monomial.  Returns (True, [g_i]) with a
    verified witness, or (False, None).

    ``degree`` is the field's foliation degree when the caller has already
    computed it, which validated the field; when it is None the degree is
    computed here, which raises on a zero or inconsistent field.
    """
    if degree is None:
        foliation_degree(model, field)  # validates quasi-homogeneity
    nv, r = model.nvars, model.rank
    quotients = []
    for j, p in enumerate(field.components):
        if p.is_zero():
            quotients.append(Polynomial.zero(nv))
            continue
        q = _divide_by_variable(p, j)
        if q is None:
            return False, None
        quotients.append(q)
    monomials = sorted({m for q in quotients for m in q.terms}, reverse=True)
    # Every monomial solves against the same r-column rows: eliminate once.
    elimination = Elimination([{i: model.radial[i][j] for i in range(r)} for j in range(nv)], r)
    witness_terms: list[dict] = [dict() for _ in range(r)]
    for m in monomials:
        sol = elimination.solve([quotients[j].terms.get(m, 0) for j in range(nv)])
        if sol is None:
            return False, None
        for i, c in enumerate(sol):
            if c:
                witness_terms[i][m] = c
    witness = [Polynomial(nv, t) for t in witness_terms]
    rebuilt = VectorField.zero(nv)
    for i, g in enumerate(witness):
        rebuilt = rebuilt + VectorField(
            tuple(
                g * Polynomial.variable(nv, j, coeff=model.radial[i][j])
                for j in range(nv)
            )
        )
    if any(a != b for a, b in zip(rebuilt.components, field.components)):
        return False, None
    return True, witness


def _divide_by_variable(p: Polynomial, j: int) -> Polynomial | None:
    """p / z_j, or None when some term of p lacks z_j."""
    if any(not m[j] for m in p.terms):
        return None
    return Polynomial._trusted(p.nvars, {m[:j] + (m[j] - 1,) + m[j + 1 :]: c for m, c in p.terms.items()})


def singular_scheme_minors(model: ToricModel, field: VectorField) -> list[Polynomial]:
    """All maximal minors of the matrix stacking the radial fields over X.

    Their common zero cone maps onto the singular set of the foliation;
    the projection downstairs is not taken.
    """
    nv, r = model.nvars, model.rank
    rows: list[list[Polynomial]] = [
        [Polynomial.variable(nv, j, coeff=model.radial[i][j]) for j in range(nv)]
        for i in range(r)
    ]
    rows.append(list(field.components))
    out = []
    for cols in combinations(range(nv), r + 1):
        out.append(_poly_det([[rows[i][j] for j in cols] for i in range(r + 1)]))
    return out


def _poly_det(mat: list[list[Polynomial]]) -> Polynomial:
    n = len(mat)
    nv = mat[0][0].nvars
    if n == 1:
        return mat[0][0]
    out = Polynomial.zero(nv)
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = mat[0][j] * _poly_det(sub)
        out = out + (term if j % 2 == 0 else -term)
    return out
