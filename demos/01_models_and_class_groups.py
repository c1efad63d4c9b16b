"""Building toric orbifold models and reading off their grading data.

A model can come from fan rays (the class group, variable degrees and
radial fields are then computed by exact Smith reduction) or directly
from a table of variable degrees (the quotient-construction route).
"""

from toricfol import (
    IntMatrix,
    build_from_rays,
    cokernel,
    multiprojective,
    octahedron_rays,
    rational_scroll,
    torsion_surface,
    weighted_projective,
)


def show(model):
    print(f"== {model.name}")
    print(f"   class group : {model.class_group.describe()}")
    for name, deg in zip(model.variable_names, model.degrees):
        print(f"   deg {name:6s} = {deg}")
    for i, radial in enumerate(model.radial):
        print(f"   radial field {i + 1}: {radial}")
    try:
        gens = model.irrelevant_ideal()
        from toricfol import Polynomial

        pretty = [Polynomial.monomial(g).to_string(model.variable_names) for g in gens]
        print(f"   removed locus: V({', '.join(pretty)})")
    except ValueError:
        print("   removed locus: (no cone data)")
    print()


# The projective plane, straight from its fan.
show(build_from_rays(2, [(1, 0), (0, 1), (-1, -1)],
                     max_cones=[(0, 1), (1, 2), (0, 2)], name="P2"))

# Weighted projective spaces: degrees are the weights.
show(weighted_projective(1, 1, 2))
show(weighted_projective(1, 2, 3))

# Products of projective spaces: one grading coordinate per factor.
show(multiprojective(1, 1))
show(multiprojective(2, 3))

# Rational scrolls mix signs: the base coordinate of a fiber variable
# carries minus the twist, so some graded pieces are empty.
show(rational_scroll(1, 1))
show(rational_scroll(-2, 0))

# An orbifold surface whose class group has torsion: Z + Z/3.
show(torsion_surface())

# Torsion also shows up for non-simplicial fans; the threefold over the
# octahedron's normal fan is a classic (class group only, no orbifold model).
group = cokernel(IntMatrix.from_rows(octahedron_rays()))
print(f"octahedron threefold class group: {group.describe()}")
