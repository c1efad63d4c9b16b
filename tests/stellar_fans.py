"""Seeded complete simplicial fans, made by stellar subdivision of the fan of P^n.

The fan of P^n has the rays e_1, ..., e_n and -(e_1 + ... + e_n), and
every n of them span a maximal cone.  Each step picks a maximal cone
sigma and the primitive point v on the ray of sum a_i u_i, a_i >= 1, in
its relative interior, and replaces sigma by the n cones spanned by v
and a facet of sigma.  A star subdivision of a complete simplicial fan
is complete and simplicial (Cox, Little & Schenck, "Toric Varieties",
sections 3.3 and 11.1); weights a_i > 1 give orbifold points.

With ``quotient`` every ray is then mapped by (n+1)I - J, J the all-ones
matrix, and made primitive.  An invertible linear map keeps the cones.
This one, of determinant (n+1)^(n-1), takes the rays of P^n to primitive
vectors spanning a sublattice of that index, so the class group gains
torsion, unless the rays a subdivision added fill the lattice back in.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd


def _primitive(v) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v)


def stellar_fan(rng: random.Random, n: int, steps: int, quotient: bool = False):
    """(rays, maximal cones as 0-based ray indices) of a complete fan in R^n."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    cones = list(combinations(range(n + 1), n))
    for _ in range(steps):
        cone = cones.pop(rng.randrange(len(cones)))
        weights = [rng.randint(1, 2) for _ in cone]
        rays.append(_primitive([sum(a * rays[i][j] for a, i in zip(weights, cone)) for j in range(n)]))
        k = len(rays) - 1
        cones += [tuple(sorted(cone[:i] + cone[i + 1 :] + (k,))) for i in range(n)]
    if quotient:
        rays = [_primitive([(n + 1) * x - sum(ray) for x in ray]) for ray in rays]
    return rays, cones
