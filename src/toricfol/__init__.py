"""Exact-arithmetic toolkit for one-dimensional foliations on compact toric orbifolds.

Builds toric orbifold models in homogeneous coordinates (divisor class
group, graded variables, radial fields), checks invariance of
hypersurfaces under quasi-homogeneous vector fields, computes Koszul
normal forms, and audits the degree bounds those normal forms imply.
"""

from .audit import AuditOptions, AuditReport, audit_case, poincare_bound
from .degrees import DegreeClass
from .foliation import (
    DegreeInconsistencyError,
    VectorField,
    foliation_degree,
    invariance_cofactor,
    lie_g_membership,
    singular_scheme_minors,
)
from .families import (
    FIXTURE_BUILDERS,
    Fixture,
    check_fixture,
    multiprojective,
    octahedron_rays,
    rational_scroll,
    torsion_surface,
    weighted_projective,
)
from .grading import (
    count_lattice_points,
    homogeneous_degree,
    monomials_of_degree,
)
from .groebner import (
    EMPTY_VARIETY,
    ideal_dimension,
    only_origin_check,
    regular_subsequence_check,
    sing_inside_irrelevant,
)
from .intlinalg import (
    AbelianGroupPresentation,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    smith_normal_form,
)
from .model import ModelInputError, ToricModel, build_from_presentation, build_from_rays
from .normalform import (
    DecompositionError,
    KoszulDecomposition,
    euler_check,
    koszul_decompose,
    verify_decomposition,
)
from .poly import Polynomial

__all__ = [
    "AbelianGroupPresentation",
    "AuditOptions",
    "AuditReport",
    "DegreeClass",
    "DegreeInconsistencyError",
    "DecompositionError",
    "EMPTY_VARIETY",
    "FIXTURE_BUILDERS",
    "Fixture",
    "IntMatrix",
    "KoszulDecomposition",
    "ModelInputError",
    "Polynomial",
    "SmithDecomposition",
    "ToricModel",
    "VectorField",
    "audit_case",
    "build_from_presentation",
    "build_from_rays",
    "check_fixture",
    "cokernel",
    "count_lattice_points",
    "euler_check",
    "foliation_degree",
    "homogeneous_degree",
    "ideal_dimension",
    "invariance_cofactor",
    "koszul_decompose",
    "lie_g_membership",
    "monomials_of_degree",
    "multiprojective",
    "octahedron_rays",
    "only_origin_check",
    "poincare_bound",
    "rational_scroll",
    "regular_subsequence_check",
    "sing_inside_irrelevant",
    "singular_scheme_minors",
    "smith_normal_form",
    "torsion_surface",
    "verify_decomposition",
    "weighted_projective",
]
