"""The indicator-point scan and power search that once decided whether the
singular cone of {f = 0} sits inside the removed locus: the reference the
exact chart test of ``groebner.sing_inside_irrelevant`` is tested against.

"no" when a 0/1 point off the removed locus is singular; "yes" when every
irrelevant generator has a power z^(kS), k <= cap, in the Jacobian ideal;
"inconclusive" otherwise.  Both answers it gives are sound, but it decides
neither a singular point with a coordinate outside {0, 1} nor a generator
whose first power in the ideal lies beyond the cap.
"""

from __future__ import annotations

from groebner_oracle import pair_loop_basis, reduce_poly
from toricfol.poly import Polynomial


def _indicator_points(nvars: int):
    for mask in range(1, 2**nvars):
        yield tuple((mask >> j) & 1 for j in range(nvars))


def _power_in_ideal(gb, exponents, cap: int) -> bool:
    base = Polynomial.monomial(exponents)
    power = Polynomial.constant(len(exponents), 1)
    for _ in range(cap):
        power = power * base
        if reduce_poly(power, gb).is_zero():
            return True
    return False


def sing_inside_irrelevant_heuristic(model, f: Polynomial, cap: int | None = None) -> str:
    partials = [f.partial_derivative(j) for j in range(f.nvars)]
    nonzero = [p for p in partials if not p.is_zero()]
    if not nonzero:
        raise ValueError("all partial derivatives vanish identically")
    irr = model.irrelevant_ideal()
    for bits in _indicator_points(f.nvars):
        if all(p.evaluate(bits) == 0 for p in partials) and f.evaluate(bits) == 0:
            if any(all(bits[j] for j, e in enumerate(g) if e) for g in irr):
                return "no"
    gb = [Polynomial(f.nvars, g) for g in pair_loop_basis(nonzero, None, {})]
    if cap is None:
        cap = 2 * (1 + max(g.total_degree() for g in nonzero))
    if all(_power_in_ideal(gb, g, cap) for g in irr):
        return "yes"
    return "inconclusive"
