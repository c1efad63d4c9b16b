import random
from fractions import Fraction
from itertools import product

import pytest
from linalg_oracle import box_count, fm_feasible_point

from toricfol.halfspaces import count_integer_points, feasible_point


def _random_system(rng: random.Random, max_vars: int = 4):
    nvars = rng.randint(1, max_vars)
    ineqs = [
        (tuple(rng.randint(-4, 4) for _ in range(nvars)), rng.randint(-4, 4))
        for _ in range(rng.randint(1, 8))
    ]
    return ineqs, nvars


def test_int_elimination_matches_the_fraction_oracle():
    rng = random.Random(2024)
    infeasible = feasible = 0
    for _ in range(500):
        ineqs, nvars = _random_system(rng)
        point = feasible_point(ineqs, nvars)
        assert point == fm_feasible_point(ineqs, nvars)
        if point is None:
            infeasible += 1
        else:
            feasible += 1
            assert all(type(x) is Fraction for x in point)
            assert all(sum(a * x for a, x in zip(c, point)) >= b for c, b in ineqs)
    assert min(infeasible, feasible) >= 50


def test_slice_count_matches_the_box_walk():
    # Infeasible systems count 0, unbounded ones raise on the same first
    # coordinate as the box walk, and bounded ones count the same points.
    # The bounding box of a random system in four variables can hold
    # millions of points, so these have at most three; four-variable
    # systems are boxed in below.
    rng = random.Random(2026)
    seen = {"infeasible": 0, "unbounded": 0, "bounded": 0}
    for _ in range(500):
        ineqs, nvars = _random_system(rng, max_vars=3)
        if rng.random() < 0.5:  # boxed in: bounded unless infeasible
            for i in range(nvars):
                unit = tuple(int(j == i) for j in range(nvars))
                ineqs += [(unit, -2), (tuple(-u for u in unit), -2)]
        try:
            want = box_count(ineqs, nvars)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                count_integer_points(ineqs, nvars)
            assert str(info.value) == str(exc)
            seen["unbounded"] += 1
            continue
        assert count_integer_points(ineqs, nvars) == want
        seen["infeasible" if feasible_point(ineqs, nvars) is None else "bounded"] += 1
    assert min(seen.values()) >= 50, seen
    # Eight random rows in four variables inside the box -2 <= x_i <= 2:
    # the 625 points of the box are walked directly, and any point found
    # satisfies every row.  Unpruned elimination grows such a system to
    # thousands of inequalities; with Chernikov's rule it stays small.
    box = [(tuple(s * int(j == i) for j in range(4)), -2) for i in range(4) for s in (1, -1)]
    counts = {"empty": 0, "points": 0}
    for _ in range(100):
        ineqs = [(tuple(rng.randint(-3, 3) for _ in range(4)), rng.randint(-3, 3)) for _ in range(8)] + box
        want = sum(
            all(sum(a * x for a, x in zip(c, point)) >= b for c, b in ineqs)
            for point in product(range(-2, 3), repeat=4)
        )
        assert count_integer_points(ineqs, 4) == want
        point = feasible_point(ineqs, 4)
        if point is None:
            assert want == 0
        else:
            assert all(sum(a * x for a, x in zip(c, point)) >= b for c, b in ineqs)
        counts["points" if want else "empty"] += 1
    assert min(counts.values()) >= 20, counts
