"""Koszul normal forms for invariant hypersurfaces.

An invariant field decomposes as a combination of the hamiltonian-like
pair fields (df/dz_j d/dz_k - df/dz_k d/dz_j) plus a cofactor multiple
of a radial field.  The pair coefficients are found by one exact linear
solve over the monomial supports their degrees force; a failure of that
solve under valid hypotheses would falsify the normal form, so it is
raised loudly with the residual system attached.

``koszul_decompose`` is the public entry: it checks its inputs, computes
deg(f), the invariance cofactor g and the field's degree, and hands
them with f to the private ``_decompose``, which reads the partials f
keeps.  ``audit_case`` calls ``_decompose`` directly with the degrees
and the cofactor its hypothesis checks already hold, so an audit with a
decomposition attached divides X(f) by f once.

The matrix of the system depends only on the index set, deg X - deg f
(the twist less deg f) and the partials of f on the index set; the field
gives only the right-hand side, per slot its terms less the radial part
(g / theta) R.  Each model keeps the last system it factored under that
key, so one per model, and a field of the same hypersurface, twist and
index set costs its residual and one solve.  A new key builds the system
from term dicts, with one forced degree per distinct pair of variable
degrees and each basis from the model's memo in ``monomials_of_degree``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .degrees import DegreeClass
from .foliation import (
    DegreeInconsistencyError,
    VectorField,
    _invariance_division,
    foliation_degree,
)
from .grading import homogeneous_degree, monomials_of_degree
from .model import ToricModel
from .poly import Polynomial, exact_div, monomial_mul
from .ratlinalg import Elimination


class DecompositionError(RuntimeError):
    """Raised when the pair-coefficient system is infeasible."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class KoszulDecomposition:
    """X = sum_{j<k} P_{j,k} (df_j d_k - df_k d_j) + (g / theta) R_i on the index set."""

    index_set: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int], Polynomial], ...]
    cofactor: Polynomial
    radial_index: int
    theta_value: int

    def pair(self, j: int, k: int) -> Polynomial:
        for (a, b), p in self.pairs:
            if (a, b) == (j, k):
                return p
        nv = self.cofactor.nvars
        return Polynomial.zero(nv)

    def nonzero_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(jk for jk, p in self.pairs if not p.is_zero())

    def to_strings(self, names) -> dict[str, str]:
        out = {
            f"P[{names[j]},{names[k]}]": p.to_string(names)
            for (j, k), p in self.pairs
            if not p.is_zero()
        }
        out["g"] = self.cofactor.to_string(names)
        out["theta"] = str(self.theta_value)
        return out


def euler_check(model: ToricModel, f: Polynomial) -> list[bool]:
    """Exact Euler identities: sum_j a_{i,j} z_j df/dz_j == theta_i * f per radial field."""
    alpha = homogeneous_degree(model, f)
    if alpha is None:
        raise ValueError("polynomial is not quasi-homogeneous")
    out = []
    for i in range(model.rank):
        radial = VectorField.radial(model, i)
        out.append(radial.apply_to(f) == f.scale(model.theta(i, alpha)))
    return out


def reconstruct(
    model: ToricModel, f: Polynomial, dec: KoszulDecomposition
) -> VectorField:
    """The vector field the decomposition denotes, on the full slot range."""
    nv = model.nvars
    partials = f.partials()
    comps = [Polynomial.zero(nv) for _ in range(nv)]
    for (j, k), p in dec.pairs:
        if p.is_zero():
            continue
        comps[k] = comps[k] + p * partials[j]
        comps[j] = comps[j] - p * partials[k]
    if not dec.cofactor.is_zero():
        scale = Fraction(1, dec.theta_value)
        coeffs = model.radial[dec.radial_index]
        for j in dec.index_set:
            comps[j] = comps[j] + dec.cofactor.scale(scale) * Polynomial.variable(
                nv, j, coeff=coeffs[j]
            )
    return VectorField(tuple(comps))


def pair_degree(
    model: ToricModel, deg_field: DegreeClass, deg_hyp: DegreeClass, j: int, k: int
) -> DegreeClass:
    """Forced degree of the (j, k) pair coefficient."""
    return deg_field + model.degrees[j] + model.degrees[k] - deg_hyp


def _check_indices(model: ToricModel, radial_index: int, indices) -> None:
    """ValueError unless radial_index names a radial field of the model and
    every index a variable."""
    if not 0 <= radial_index < model.rank:
        raise ValueError(f"radial_index {radial_index} outside range({model.rank})")
    bad = [j for j in indices if not 0 <= j < model.nvars]
    if bad:
        raise ValueError(f"index_set entries outside range({model.nvars}): {bad}")


def koszul_decompose(
    model: ToricModel,
    f: Polynomial,
    field: VectorField,
    radial_index: int = 0,
    index_set=None,
) -> KoszulDecomposition:
    """Solve for a decomposition of an invariant field on the index set.

    The field must be supported on the index set and leave {f = 0}
    invariant, and the chosen radial field must be supported there too
    with a nonzero Euler factor on deg(f).  The solution returned is the
    particular one the deterministic elimination produces (free unknowns
    pinned to zero), not a canonical representative.
    """
    nv = model.nvars
    indices = tuple(sorted(set(range(nv) if index_set is None else index_set)))
    _check_indices(model, radial_index, indices)
    outside = [j for j in field.support() if j not in indices]
    if outside:
        raise ValueError(f"field has components outside the index set: {outside}")
    coeffs = model.radial[radial_index]
    if any(coeffs[j] for j in range(nv) if j not in indices):
        raise ValueError(
            f"radial field {radial_index + 1} is not supported on the index set"
        )
    alpha = homogeneous_degree(model, f)
    if alpha is None:
        raise ValueError("hypersurface is not quasi-homogeneous")
    g, rest = _invariance_division(field, f)
    if rest:
        raise ValueError("field does not leave the hypersurface invariant")
    deg_field = foliation_degree(model, field)
    return _decompose(model, f, field, radial_index, indices, alpha, g, deg_field)


def _decompose(
    model: ToricModel,
    f: Polynomial,
    field: VectorField,
    radial_index: int,
    indices: tuple[int, ...],
    alpha: DegreeClass,
    g: Polynomial,
    deg_field: DegreeClass,
) -> KoszulDecomposition:
    """The solve behind ``koszul_decompose``, on checked inputs.

    ``indices`` is sorted and holds the field's support and the radial
    field's; ``alpha`` = deg(f), ``g`` the invariance cofactor and
    ``deg_field`` the field's degree, as the caller has already computed
    them (``audit_case`` passes its evidence).
    """
    nv = model.nvars
    theta = model.theta(radial_index, alpha)
    if theta == 0:
        raise ValueError(
            f"radial field {radial_index + 1} has zero Euler factor on {alpha}; try another index"
        )
    coeffs = model.radial[radial_index]

    # Right-hand side, per slot c: the field's terms less those of
    # (coeffs[c] / theta) g z_c, which is the radial part of X.
    residual: dict[int, dict] = {}
    for c in indices:
        terms = residual[c] = dict(field.components[c].terms)
        if not coeffs[c]:
            continue
        for m, v in g.terms.items():
            mc = m[:c] + (m[c] + 1,) + m[c + 1 :]
            new = terms.get(mc, 0) - exact_div(coeffs[c] * v, theta)
            if new:
                terms[mc] = new
            else:
                del terms[mc]

    # The model keeps the last system it factored (see the module docstring).
    shift = deg_field - alpha
    partials = f.partials()
    key = (indices, shift, tuple(partials[j] for j in indices))
    slot = model._koszul_system
    if not slot or slot[0][0] != key:  # compared, not hashed: a hit is cheap
        slot[:] = [(key, _pair_system(model, partials, indices, shift))]
    pair_list, columns, row_of, elimination = slot[0][1]

    rhs = [0] * (len(row_of) + 1)
    for c in indices:
        for m, v in residual[c].items():
            rhs[row_of.get((c, m), -1)] = v
    solution = elimination.solve(rhs)
    if solution is None:
        names = model.variable_names
        raise DecompositionError(
            "pair-coefficient system is infeasible; the normal form fails here",
            residual={names[c]: Polynomial(nv, t).to_string(names) for c, t in residual.items() if t},
        )

    terms: dict[tuple[int, int], dict] = {jk: {} for jk in pair_list}
    for (jk, m), value in zip(columns, solution):
        if value:
            terms[jk][m] = value
    return KoszulDecomposition(
        index_set=indices,
        pairs=tuple((jk, Polynomial._trusted(nv, terms[jk])) for jk in pair_list),
        cofactor=g,
        radial_index=radial_index,
        theta_value=theta,
    )


def _pair_system(model: ToricModel, partials, indices: tuple[int, ...], shift: DegreeClass):
    """(pairs, columns, (slot, monomial) -> row, elimination) of the pair system.

    Column (jk, m) is the coefficient of m in P_jk, row (c, m) the
    coefficient of m in slot c.
    """
    pair_list = [(j, k) for a, j in enumerate(indices) for k in indices[a + 1 :]]
    columns = []  # (pair, monomial) in deterministic order
    # The (j, k) degree is shift + deg z_j + deg z_k: it is computed once
    # per distinct pair of variable degrees, and its basis fetched once.
    degrees = model.degrees
    forced: dict[tuple[DegreeClass, DegreeClass], DegreeClass] = {}
    bases: dict[DegreeClass, tuple] = {}
    for j, k in pair_list:
        key = (degrees[j], degrees[k])
        if key not in forced:
            forced[key] = shift + degrees[j] + degrees[k]
        delta = forced[key]
        if delta not in bases:
            bases[delta] = monomials_of_degree(model, delta)
        columns.extend(((j, k), m) for m in bases[delta])

    # Each row is a sparse {column: coefficient} dict; the solution does
    # not depend on the order of the rows.  Within one column the
    # (slot, monomial) keys are distinct, so each entry is written once
    # and never accumulated.  The pair (j, k) puts +df/dz_j on slot k and
    # -df/dz_k on slot j.
    rows: dict[tuple[int, tuple], dict[int, int | Fraction]] = {}
    plus = {j: tuple(partials[j].terms.items()) for j in indices}
    minus = {j: tuple((mm, -cc) for mm, cc in plus[j]) for j in indices}
    for col, ((j, k), m) in enumerate(columns):
        for mm, cc in plus[j]:
            rows.setdefault((k, monomial_mul(mm, m)), {})[col] = cc
        for mm, cc in minus[k]:
            rows.setdefault((j, monomial_mul(mm, m)), {})[col] = cc
    # A last, empty row takes every residual term that no pair field
    # reaches: a nonzero one there makes the system inconsistent.
    row_of = {slot_monomial: i for i, slot_monomial in enumerate(rows)}
    return pair_list, columns, row_of, Elimination([*rows.values(), {}], len(columns))


def verify_decomposition(
    model: ToricModel, f: Polynomial, field: VectorField, dec: KoszulDecomposition
) -> bool:
    """Exact reconstruction equality on the index set plus the degree law."""
    alpha = homogeneous_degree(model, f)
    if alpha is None:
        return False
    try:
        deg_field = foliation_degree(model, field)
    except DegreeInconsistencyError:
        return False
    except ValueError:
        deg_field = None  # zero field: fine iff the decomposition is zero too
    rebuilt = reconstruct(model, f, dec)
    for j in dec.index_set:
        if rebuilt.components[j] != field.components[j]:
            return False
    for (j, k), p in dec.pairs:
        if p.is_zero():
            continue
        if deg_field is None:
            return False
        want = pair_degree(model, deg_field, alpha, j, k)
        if homogeneous_degree(model, p) != want:
            return False
    return True
