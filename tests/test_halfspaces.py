import random
from fractions import Fraction

from linalg_oracle import fm_coordinate_interval, fm_feasible_point

from toricfol.halfspaces import coordinate_interval, feasible_point


def _random_system(rng: random.Random):
    nvars = rng.randint(1, 4)
    ineqs = [
        (tuple(rng.randint(-4, 4) for _ in range(nvars)), rng.randint(-4, 4))
        for _ in range(rng.randint(1, 8))
    ]
    return ineqs, nvars


def test_int_elimination_matches_the_fraction_oracle():
    rng = random.Random(2024)
    infeasible = unbounded = bounded = 0
    for _ in range(500):
        ineqs, nvars = _random_system(rng)
        point = feasible_point(ineqs, nvars)
        assert point == fm_feasible_point(ineqs, nvars)
        if point is None:
            infeasible += 1
        else:
            assert all(type(x) is Fraction for x in point)
            assert all(sum(a * x for a, x in zip(c, point)) >= b for c, b in ineqs)
        for coord in range(nvars):
            got = coordinate_interval(ineqs, nvars, coord)
            assert got == fm_coordinate_interval(ineqs, nvars, coord)
            if got[0]:
                if got[1] is None or got[2] is None:
                    unbounded += 1
                else:
                    bounded += 1
    assert min(infeasible, unbounded, bounded) >= 50

