"""Toric orbifold models in homogeneous coordinates.

A model is either built from the rays of a fan (the divisor class group
and variable multidegrees are then computed by Smith reduction of the ray
pairing matrix) or declared directly by a variable degree presentation
(the quotient-construction route).  Either way the model is an immutable
value: one variable per ray, graded by Z^r + torsion, whose invariants
are checked once, when it is constructed; a builder checks only what is
specific to its own input.  Everything else is derived from the degree
matrix: the r canonical radial fields are its free rows, so the Euler
factor of a class is simply its k-th free coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import index, mul

from .degrees import DegreeClass
from .halfspaces import feasible_point
from .intlinalg import AbelianGroupPresentation, IntMatrix, _bareiss, cokernel, smith_normal_form


class ModelInputError(ValueError):
    """A rejected model input other than the rays: entry is "degrees" for
    stated degrees that are not the class-group grading in any basis,
    "cones" for a malformed cone, "irrelevant" for a malformed irrelevant
    generator."""

    def __init__(self, entry: str, message: str):
        super().__init__(message)
        self.entry = entry


@dataclass(frozen=True)
class ToricModel:
    """A complete toric orbifold, stored as its degree matrix.

    Construction checks, whichever builder made the model:

    - at least one variable, one name (and on the ray route one ray of n
      coordinates) per degree;
    - all degrees in one grading group Z^r + torsion, with a free part of
      rank r and n + r variables;
    - every maximal cone: n distinct indices in range, listed once, and
      on the ray route n linearly independent rays;
    - every stated irrelevant generator: a squarefree, nonconstant
      exponent vector with one entry per variable, listed once;
    - every irrelevant generator z^S, stated or from a cone: r variables
      with independent free degrees, so its chart {z_S = 1} is simplicial;
    - a positive grading functional: the rays of a complete fan
      positively span N_R, so the degrees of a compact model always
      admit one.
    """

    name: str
    n: int
    variable_names: tuple[str, ...]
    degrees: tuple[DegreeClass, ...]
    rays: tuple[tuple[int, ...], ...] | None = None
    max_cones: tuple[tuple[int, ...], ...] | None = None
    irrelevant_generators: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        nvars = len(self.degrees)
        if not nvars:
            raise ValueError(f"model {self.name} has no variables")
        if len(self.variable_names) != nvars:
            self._reject(f"{len(self.variable_names)} variable names for {nvars} degrees")
        if self.rays is not None and len(self.rays) != nvars:
            self._reject(f"{len(self.rays)} rays for {nvars} degrees")
        if self.rays is not None and any(len(ray) != self.n for ray in self.rays):
            self._reject(f"a ray does not have n={self.n} coordinates")
        r = self.rank
        if any(len(d.free) != r or d.moduli != self.moduli for d in self.degrees):
            self._reject("the degrees live in different grading groups")
        if nvars != self.n + r:
            self._reject(f"{nvars} degrees for n={self.n}, rank={r}; expected {self.n + r}")
        # The free rows F have full rank r exactly when det(F F^T) != 0.
        free = self.degree_rows[:r]
        if not _bareiss([[sum(map(mul, a, b)) for b in free] for a in free]):
            self._reject("the free part of the degree matrix is rank deficient")
        if self.max_cones is not None:
            self._check_cones()
        if self.irrelevant_generators is not None:
            self._check_irrelevant()
        if self.rays is None and (self.max_cones is not None or self.irrelevant_generators is not None):
            self._check_charts()
        if self.positive_functional is None:
            self._reject(
                "the degrees admit no positive grading functional, so the variety is not complete"
            )

    def _reject(self, problem: str, entry: str | None = None):
        message = f"model {self.name}: {problem}"
        raise ValueError(message) if entry is None else ModelInputError(entry, message)

    def _check_cones(self):
        seen = set()
        for cone in self.max_cones:
            indices = frozenset(cone)
            if not all(0 <= i < self.nvars for i in cone):
                problem = "references an unknown ray"
            elif len(cone) != self.n or len(indices) != self.n:
                problem = f"does not have {self.n} distinct rays"
            elif indices in seen:
                problem = "is listed twice"
            elif self.rays is not None and not _bareiss([self.rays[i] for i in cone]):
                problem = "has linearly dependent rays"
            else:
                seen.add(indices)
                continue
            names = (self.variable_names[i] if 0 <= i < self.nvars else "?" for i in cone)
            label = "{" + ",".join(names) + "}"
            self._reject(f"cone {label} {problem}", "cones")

    def _check_irrelevant(self):
        seen = set()
        for gen in self.irrelevant_generators:
            gen = tuple(gen)
            if len(gen) != self.nvars:
                problem = f"does not have {self.nvars} entries"
            elif not all(e in (0, 1) for e in gen):
                problem = "is not squarefree: every exponent must be 0 or 1"
            elif not any(gen):
                problem = "is the constant monomial"
            elif gen in seen:
                problem = "is listed twice"
            else:
                seen.add(gen)
                continue
            self._reject(f"irrelevant generator {gen} {problem}", "irrelevant")

    def _check_charts(self):
        # A cone's complement has r variables, and on the ray route
        # _check_cones has already proved every cone independent.
        r, stated = self.rank, self.irrelevant_generators is not None
        for gen in self.irrelevant_ideal():
            support = [j for j, e in enumerate(gen) if e]
            if len(support) == r and _bareiss([[row[j] for j in support] for row in self.degree_rows[:r]]):
                continue
            label = "*".join(self.variable_names[j] for j in support)
            if not stated:
                label += " of cone {" + ",".join(n for n, e in zip(self.variable_names, gen) if not e) + "}"
            problem = f"needs {r} variables with independent free degrees for a simplicial chart"
            self._reject(f"irrelevant generator {label} {problem}", "irrelevant" if stated else "cones")

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
            rank=self.rank, torsion=self.moduli, projector=IntMatrix._trusted(self.degree_rows)
        )

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

    @cached_property
    def _monomial_bases(self) -> dict[DegreeClass, tuple[tuple[int, ...], ...]]:
        """Memo of ``grading.monomials_of_degree``: degree class -> basis."""
        return {}

    @cached_property
    def _koszul_system(self) -> list:
        """``normalform._decompose``'s last factored pair system: empty, or
        one ((index set, deg X - deg f, partials), system) tuple."""
        return []

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
        ineqs = [(col, 1) for col in zip(*free_rows)]
        return feasible_point(ineqs, self.rank)

    # -- radial structure --------------------------------------------------

    @cached_property
    def radial(self) -> tuple[tuple[int, ...], ...]:
        """The canonical radial fields: field i scales z_j by the free
        degree row i, entry j."""
        return self.degree_rows[: self.rank]

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

    def nonnegative_coordinates(self) -> tuple[int, ...]:
        """Free coordinates k where every variable degree is >= 0.

        Every monomial degree is a nonnegative combination of variable
        degrees, so these are exactly the coordinates on which the whole
        coordinate ring has nonnegative degree.  0-based.
        """
        return tuple(
            k for k, row in enumerate(self.degree_rows[: self.rank]) if min(row) >= 0
        )

    def irrelevant_ideal(self) -> tuple[tuple[int, ...], ...]:
        """Squarefree monomial generators cutting out the removed locus."""
        if self.irrelevant_generators is not None:
            return self.irrelevant_generators
        if self.max_cones is None:
            raise ValueError(f"model {self.name} carries no maximal cone data")
        gens = []
        for cone in self.max_cones:
            inside = set(cone)
            gens.append(tuple(0 if j in inside else 1 for j in range(self.nvars)))
        return tuple(gens)

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
    degrees=None,
) -> ToricModel:
    """Model of the quotient presented by fan rays.

    Rays must be primitive, pairwise distinct and span R^n.  The model
    checks the degrees and cones (see ToricModel): each maximal cone is
    n linearly independent rays listed once, and the degrees admit a
    positive grading functional, as those of a complete fan do.  Whether
    the cones cover R^n and meet along common faces is not checked.

    degrees, when given, are the variable degrees to display; they must
    be the computed grading in another basis: they vanish on the ray
    relations and generate the grading group, which one Smith form
    decides (ModelInputError if not).
    """
    rays = tuple(tuple(map(index, ray)) for ray in rays)
    for ray in rays:
        if gcd(*ray) != 1:
            raise ValueError(f"ray {ray} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate ray")
    return build_from_pairing_rows(
        n, rays, max_cones=max_cones, variable_names=variable_names, name=name, degrees=degrees
    )


def build_from_pairing_rows(
    n: int,
    rows,
    max_cones=None,
    variable_names=None,
    name: str | None = None,
    degrees=None,
) -> ToricModel:
    """Model from raw lattice pairing rows, one per variable.

    Same as build_from_rays minus the primitivity and distinctness
    checks: quotient-lattice images of coordinate vectors (the weighted
    projective construction) are legitimate pairing rows yet need not be
    primitive when the weights are not well-formed.
    """
    rows = tuple(tuple(map(index, row)) for row in rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"ray {row} does not have {n} coordinates")
    group = cokernel(IntMatrix._trusted(rows))
    r, torsion = group.rank, group.torsion
    if r != len(rows) - n:
        raise ValueError("rays do not span R^n")
    # Variable j's degree is the class of e_j: column j of the projector.
    proj = group.projector.entries
    computed = tuple(
        DegreeClass._trusted(
            tuple(row[j] for row in proj[:r]),
            tuple(row[j] % t for row, t in zip(proj[r:], torsion)),
            torsion,
        )
        for j in range(len(rows))
    )
    if degrees is not None:
        degrees = tuple(degrees)
        _check_stated_degrees(rows, group, computed, degrees)
    return ToricModel(
        name=name or f"toric(n={n},rays={len(rows)})",
        n=n,
        variable_names=tuple(variable_names) if variable_names else _default_names(len(rows)),
        degrees=computed if degrees is None else degrees,
        rays=rows,
        max_cones=(
            tuple(tuple(sorted(map(index, cone))) for cone in max_cones)
            if max_cones is not None
            else None
        ),
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
    return ToricModel(
        name=name or f"toric(n={n},r={len(degrees) - n})",
        n=n,
        variable_names=tuple(variable_names) if variable_names else _default_names(len(degrees)),
        degrees=degrees,
        max_cones=max_cones,
        irrelevant_generators=(
            tuple(tuple(g) for g in irrelevant_generators)
            if irrelevant_generators is not None
            else None
        ),
    )


def _check_stated_degrees(rows, group: AbelianGroupPresentation, computed, stated):
    """Raise ModelInputError unless stated is computed in another basis.

    By the exact sequence 0 -> M -> Z^N -> Cl -> 0 (Cox 1995, section 1),
    e_j -> stated_j induces a map Cl -> G = Z^r + torsion exactly when it
    vanishes on every ray relation, a column of rows.  Cl and G are
    isomorphic and finitely generated, so that map is a basis change exactly
    when it is onto: when the stated degrees and t_k e_(r+k) have every
    invariant factor 1.
    Stated degrees equal to the computed ones need no check.
    """
    if stated == computed:
        return
    r, moduli = group.rank, group.torsion
    if len(stated) != len(computed):
        raise ModelInputError("degrees", "stated degree count mismatch")
    for d in stated:
        if len(d.free) != r or d.moduli != moduli:
            raise ModelInputError("degrees", "stated degrees live in a different group")
    lifts = [d.free + d.residues for d in stated]
    for i, relation in enumerate(zip(*rows)):
        image = [sum(map(mul, relation, coords)) for coords in zip(*lifts)]
        if any(image[:r]) or any(x % t for x, t in zip(image[r:], moduli)):
            raise ModelInputError("degrees", f"stated degrees miss the ray relation of coordinate {i + 1}")
    size = r + len(moduli)
    lifts += [tuple(t if i == r + k else 0 for i in range(size)) for k, t in enumerate(moduli)]
    matrix = IntMatrix._trusted(tuple(zip(*lifts)))
    if any(f != 1 for f in smith_normal_form(matrix).invariant_factors()):
        raise ModelInputError("degrees", "stated degrees do not generate the grading group")
