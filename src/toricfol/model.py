"""Toric orbifold models in homogeneous coordinates.

A model is either built from the rays of a fan (the divisor class group
and variable multidegrees are then computed by Smith reduction of the ray
pairing matrix) or declared directly by a variable degree presentation
(the quotient-construction route).  Either way the model is an immutable
value: one variable per ray, graded by Z^r + torsion.  Everything else is
derived from the degree matrix: the r canonical radial fields are its free
rows, so the Euler factor of a class is simply its k-th free coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import mul

from .degrees import DegreeClass
from .halfspaces import feasible_point
from .intlinalg import (
    AbelianGroupPresentation,
    IntMatrix,
    cokernel,
    smith_normal_form,
    solve_integer_system,
)
from .ratlinalg import solve_sparse


@dataclass(frozen=True)
class RadialField:
    """Diagonal vector field with component a_j * z_j at the j-th slot."""

    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class IrrelevantIdeal:
    """Squarefree monomial generators cutting out the removed locus."""

    generators: tuple[tuple[int, ...], ...]
    cones: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class ToricModel:
    """A complete toric orbifold, stored as its degree matrix.

    Construction fails unless the degrees admit a positive grading
    functional: the rays of a complete fan positively span N_R, so the
    degrees of a compact model always admit one.
    """

    name: str
    n: int
    variable_names: tuple[str, ...]
    degrees: tuple[DegreeClass, ...]
    rays: tuple[tuple[int, ...], ...] | None = None
    max_cones: tuple[tuple[int, ...], ...] | None = None
    irrelevant_generators: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not self.degrees:
            raise ValueError(f"model {self.name} has no variables")
        if self.positive_functional is None:
            raise ValueError(
                f"model {self.name}: the degrees admit no positive grading "
                "functional, so the variety is not complete"
            )

    @property
    def rank(self) -> int:
        return len(self.degrees[0].free)

    @property
    def nvars(self) -> int:
        return len(self.variable_names)

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.degrees[0].moduli

    @cached_property
    def class_group(self) -> AbelianGroupPresentation:
        """The grading group, with the degree matrix as its projector."""
        return AbelianGroupPresentation(
            rank=self.rank, torsion=self.moduli, projector=IntMatrix.from_rows(self.degree_rows)
        )

    def zero_degree(self) -> DegreeClass:
        return DegreeClass.zero(self.rank, self.moduli)

    def variable_degree(self, j: int) -> DegreeClass:
        return self.degrees[j]

    def variable_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not declared by model {self.name}") from None

    @cached_property
    def degree_rows(self) -> tuple[tuple[int, ...], ...]:
        """The degree matrix as integer rows, one entry per variable.

        Row i < rank holds free coordinate i of every variable degree, row
        rank + k its k-th torsion residue.  The degree of a monomial is one
        dot product per row, the torsion ones read mod t_k.
        """
        free = [tuple(d.free[i] for d in self.degrees) for i in range(self.rank)]
        torsion = [tuple(d.residues[k] for d in self.degrees) for k in range(len(self.moduli))]
        return tuple(free + torsion)

    def monomial_degree(self, exponents) -> DegreeClass:
        if len(exponents) != self.nvars:
            raise ValueError("exponent length mismatch")
        rows = self.degree_rows
        r = self.rank
        return DegreeClass(
            tuple(sum(map(mul, row, exponents)) for row in rows[:r]),
            tuple(sum(map(mul, row, exponents)) for row in rows[r:]),
            self.moduli,
        )

    @cached_property
    def positive_functional(self) -> tuple[Fraction, ...] | None:
        """Rational c with c . deg(z_j) > 0 for every j, when one exists.

        Existence certifies that every graded piece is finite, so monomial
        enumeration terminates; a model without one is not constructed.
        """
        if self.rank == 0:
            return None
        free_rows = self.degree_rows[: self.rank]
        ineqs = [(tuple(map(Fraction, col)), Fraction(1)) for col in zip(*free_rows)]
        return feasible_point(ineqs, self.rank)

    # -- radial structure --------------------------------------------------

    @cached_property
    def radial(self) -> tuple[RadialField, ...]:
        """The canonical radial fields: field i has the free degree row i."""
        return tuple(RadialField(row) for row in self.degree_rows[: self.rank])

    def theta(self, i: int, alpha: DegreeClass) -> int:
        """Euler factor of the i-th radial field on classes of degree alpha.

        The field scales a monomial m by sum_j a_ij m_j, and a_ij is the
        free degree row i, so the factor is deg(m).free[i] = alpha.free[i].
        """
        if not 0 <= i < self.rank:
            raise IndexError(f"radial index {i} out of range")
        self._check_group(alpha)
        return alpha.free[i]

    def _check_group(self, alpha: DegreeClass):
        if len(alpha.free) != self.rank or alpha.moduli != self.moduli:
            raise ValueError("degree class belongs to a different grading group")

    def degree_representative(self, alpha: DegreeClass) -> tuple[int, ...] | None:
        """Integer exponent vector (possibly negative) with the given class.

        None when no Laurent monomial has class alpha.
        """
        self._check_group(alpha)
        r, m = self.rank, len(self.moduli)
        rows = [list(row) + [0] * m for row in self.degree_rows[:r]]
        for k, row in enumerate(self.degree_rows[r:]):
            slack = [0] * m
            slack[k] = self.moduli[k]
            rows.append(list(row) + slack)
        sol = solve_integer_system(
            IntMatrix.from_rows(rows), list(alpha.free) + list(alpha.residues)
        )
        return sol[: self.nvars] if sol is not None else None

    def nonnegative_coordinates(self) -> tuple[int, ...]:
        """Free coordinates k where every variable degree is >= 0.

        Every monomial degree is a nonnegative combination of variable
        degrees, so these are exactly the coordinates on which the whole
        coordinate ring has nonnegative degree.  0-based.
        """
        return tuple(
            k for k, row in enumerate(self.degree_rows[: self.rank]) if min(row) >= 0
        )

    def irrelevant_ideal(self) -> IrrelevantIdeal:
        if self.irrelevant_generators is not None:
            return IrrelevantIdeal(self.irrelevant_generators, self.max_cones)
        if self.max_cones is None:
            raise ValueError(f"model {self.name} carries no maximal cone data")
        gens = []
        for cone in self.max_cones:
            inside = set(cone)
            gens.append(tuple(0 if j in inside else 1 for j in range(self.nvars)))
        return IrrelevantIdeal(tuple(gens), self.max_cones)

    def __str__(self) -> str:
        return f"{self.name}: {self.class_group.describe()}"


def _default_names(count: int) -> tuple[str, ...]:
    return tuple(f"z{j+1}" for j in range(count))


def build_from_rays(
    n: int,
    rays,
    max_cones=None,
    variable_names=None,
    name: str | None = None,
) -> ToricModel:
    """Model of the quotient presented by fan rays.

    Rays must be primitive, pairwise distinct and span R^n.  Positivity
    is checked: the degrees must admit a positive grading functional, as
    those of a complete fan do.  The cones are still trusted: their
    completeness and simpliciality are not verified.
    """
    rays = tuple(tuple(int(x) for x in ray) for ray in rays)
    for ray in rays:
        if gcd(*ray) != 1:
            raise ValueError(f"ray {ray} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate ray")
    return build_from_pairing_rows(
        n, rays, max_cones=max_cones, variable_names=variable_names, name=name
    )


def build_from_pairing_rows(
    n: int,
    rows,
    max_cones=None,
    variable_names=None,
    name: str | None = None,
) -> ToricModel:
    """Model from raw lattice pairing rows, one per variable.

    Same as build_from_rays minus the primitivity and distinctness
    checks: quotient-lattice images of coordinate vectors (the weighted
    projective construction) are legitimate pairing rows yet need not be
    primitive when the weights are not well-formed.
    """
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    if len(rows) < n:
        raise ValueError("need at least n rays")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"ray {row} does not have {n} coordinates")
    pairing = IntMatrix.from_rows(rows)
    group = cokernel(pairing)
    if group.rank != len(rows) - n:
        raise ValueError("rays do not span R^n")
    degrees = tuple(
        DegreeClass(*group.reduce(_unit(len(rows), j)), moduli=group.torsion)
        for j in range(len(rows))
    )
    for j, d in enumerate(degrees):
        if d.is_zero():
            raise ValueError(f"variable {j} has degree zero (principal ray divisor)")
    if max_cones is not None:
        max_cones = tuple(tuple(sorted(int(i) for i in cone)) for cone in max_cones)
        for cone in max_cones:
            if cone and not (0 <= cone[0] and cone[-1] < len(rows)):
                raise ValueError(f"cone {cone} references an unknown ray")
    return ToricModel(
        name=name or f"toric(n={n},rays={len(rows)})",
        n=n,
        variable_names=tuple(variable_names) if variable_names else _default_names(len(rows)),
        degrees=degrees,
        rays=rows,
        max_cones=max_cones,
    )


def build_from_presentation(
    n: int,
    degrees,
    variable_names=None,
    irrelevant_generators=None,
    max_cones=None,
    name: str | None = None,
) -> ToricModel:
    """Model declared by variable multidegrees (torus action weights)."""
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("no degrees")
    r = len(degrees[0].free)
    moduli = degrees[0].moduli
    if len(degrees) != n + r:
        raise ValueError(f"{len(degrees)} degrees for n={n}, rank={r}; expected {n + r}")
    for d in degrees:
        if len(d.free) != r or d.moduli != moduli:
            raise ValueError("inconsistent degree ranks")
    free = IntMatrix.from_rows([[d.free[i] for d in degrees] for i in range(r)])
    nonzero = sum(1 for f in smith_normal_form(free).invariant_factors() if f)
    if nonzero != r:
        raise ValueError("free-part degree matrix is rank deficient")
    return ToricModel(
        name=name or f"toric(n={n},r={r})",
        n=n,
        variable_names=tuple(variable_names) if variable_names else _default_names(n + r),
        degrees=degrees,
        max_cones=max_cones,
        irrelevant_generators=(
            tuple(tuple(g) for g in irrelevant_generators)
            if irrelevant_generators is not None
            else None
        ),
    )


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n))


def align_display_basis(model: ToricModel, target_degrees, name: str | None = None) -> ToricModel:
    """Re-express a model so its variable degrees match a stated convention.

    Searches for a grading-group automorphism (unimodular map on the free
    part, a unit and a free-part shear on each torsion factor) carrying
    the computed degrees onto the target ones.  The search is the check
    that the target degrees are the computed grading in another basis;
    the automorphism itself is not kept.
    """
    target = tuple(target_degrees)
    r, moduli = model.rank, model.moduli
    if len(target) != model.nvars:
        raise ValueError("target degree count mismatch")
    for d in target:
        if len(d.free) != r or d.moduli != moduli:
            raise ValueError("target degrees live in a different group")

    cur_free = [[d.free[i] for d in model.degrees] for i in range(r)]
    w_rows = []
    for i in range(r):
        cols = [{k: cur_free[k][j] for k in range(r)} for j in range(model.nvars)]
        sol = solve_sparse(cols, [Fraction(target[j].free[i]) for j in range(model.nvars)], r)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("no integral change of basis reaches the target degrees")
        w_rows.append([int(x) for x in sol])
    w = IntMatrix.from_rows(w_rows)
    if not w.is_unimodular():
        raise ValueError("change of basis is not unimodular")

    new_free = [w.apply([d.free[i] for i in range(r)]) for d in model.degrees]
    for k, t in enumerate(moduli):
        cur = [d.residues[k] for d in model.degrees]
        want = [target[j].residues[k] for j in range(model.nvars)]
        if not any(
            all(
                (u * c + sum(si * fi for si, fi in zip(s, nf))) % t == wv
                for c, nf, wv in zip(cur, new_free, want)
            )
            for u in range(1, t)
            if gcd(u, t) == 1
            for s in product(range(t), repeat=r)
        ):
            raise ValueError(f"no automorphism of Z/{t} matches the target residues")

    return ToricModel(
        name=name or model.name,
        n=model.n,
        variable_names=model.variable_names,
        degrees=target,
        rays=model.rays,
        max_cones=model.max_cones,
        irrelevant_generators=model.irrelevant_generators,
    )
