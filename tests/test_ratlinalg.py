"""The sparse solver against the dense Gauss-Jordan oracle."""

import copy
import random
from fractions import Fraction

import pytest
from linalg_oracle import solve_dense

from toricfol import normalform
from toricfol.families import FIXTURE_BUILDERS
from toricfol.foliation import DegreeInconsistencyError, VectorField, foliation_degree
from toricfol.normalform import DecompositionError, koszul_decompose
from toricfol.ratlinalg import Elimination, solve_sparse


def _oracle(rows, rhs, ncols):
    if not rows:  # the dense oracle reads the width off the first row
        return [Fraction(0)] * ncols
    return solve_dense([[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows], rhs)


def _canonical(v):
    """An integral value as an int, as the polynomial kernel keeps it."""
    return v.numerator if v.denominator == 1 else v


def _assert_canonical(values):
    """Each value as the polynomial kernel keeps it: an int when integral,
    else a Fraction with a denominator above 1; never a float or a bool."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), values


def _random_system(rng, integral=False):
    """A small sparse system; some rows are combinations of earlier ones,
    some are empty, some carry explicit zeros, and some columns are unused.
    Integral values are ints, so rows of ints only, rows mixing ints and
    Fractions and int right-hand sides all occur; with ``integral`` every
    value is an int."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.choice((0.2, 0.4, 0.7))

    def value():
        num, den = rng.randint(-4, 4), rng.choice((1, 1, 2, 3))
        return _canonical(Fraction(num, 1 if integral else den))

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = value(), value()
            rows.append({c: _canonical(s * a.get(c, 0) + t * b.get(c, 0)) for c in set(a) | set(b)})
        else:
            rows.append({c: value() for c in range(ncols) if rng.random() < density})
    if ncols and rng.random() < 0.3:
        dead = rng.randrange(ncols)
        for row in rows:
            row.pop(dead, None)
    if rng.random() < 0.5:  # consistent by construction
        x0 = [value() for _ in range(ncols)]
        rhs = [_canonical(sum((v * x0[c] for c, v in row.items()), Fraction(0))) for row in rows]
    else:
        rhs = [value() for _ in rows]
    return rows, rhs, ncols


def _int_shares(rows, rhs):
    """Per kind, how many rows of the system are of it: rows of ints only
    (right-hand side included), rows mixing ints and Fractions, int
    right-hand sides."""
    kinds = [{type(v) for v in row.values()} for row in rows]
    return {
        "int rows": sum(k == {int} and type(b) is int for k, b in zip(kinds, rhs)),
        "mixed rows": sum(k == {int, Fraction} for k in kinds),
        "int rhs": sum(type(b) is int for b in rhs),
    }


def _wide_system(rng):
    """A sparse system of 20-40 columns with 6-digit coefficients over
    small denominators; a quarter of its rows are combinations of earlier
    ones, so that eliminated rows share large common factors."""
    ncols = rng.randint(20, 40)
    nrows = rng.randint(8, 24)

    def value():
        return _canonical(Fraction(rng.randint(-999_999, 999_999), rng.choice((1, 1, 2, 3, 7, 10, 12))))

    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.25:
            a, b = rng.sample(rows, 2)
            s, t = value(), value()
            rows.append({c: _canonical(s * a.get(c, 0) + t * b.get(c, 0)) for c in set(a) | set(b)})
        else:
            rows.append({c: value() for c in range(ncols) if rng.random() < 0.15})
    if rng.random() < 0.7:  # consistent by construction
        x0 = [value() if rng.random() < 0.6 else 0 for _ in range(ncols)]
        rhs = [_canonical(sum((v * x0[c] for c, v in row.items()), Fraction(0))) for row in rows]
    else:
        rhs = [value() for _ in rows]
    return rows, rhs, ncols


def test_sparse_matches_dense_oracle_on_random_systems():
    rng = random.Random(20240607)
    seen = {"inconsistent": 0, "free unknowns": 0, "zero row": 0, "no columns": 0, "no rows": 0}
    shares = dict.fromkeys(("int rows", "mixed rows", "int rhs"), 0)
    for _ in range(400):
        rows, rhs, ncols = _random_system(rng)
        want = _oracle(rows, rhs, ncols)
        got = solve_sparse(rows, rhs, ncols)
        assert got == want, (rows, rhs, ncols)
        if got is not None:
            _assert_canonical(got)
        seen["inconsistent"] += want is None
        seen["free unknowns"] += want is not None and ncols > len(rows)
        seen["zero row"] += any(not any(row.values()) for row in rows)
        seen["no columns"] += ncols == 0 and bool(rows)
        seen["no rows"] += not rows
        for kind, count in _int_shares(rows, rhs).items():
            shares[kind] += count
    assert min(seen.values()) >= 10, seen
    assert min(shares.values()) >= 100, shares

    # Wide systems with large coefficients: rows reach the content division.
    rng = random.Random(20261018)
    seen = {"systems": 0, "solved": 0, "inconsistent": 0, "rank deficient": 0}
    shares = dict.fromkeys(("int rows", "mixed rows", "int rhs"), 0)
    for _ in range(60):
        rows, rhs, ncols = _wide_system(rng)
        want = _oracle(rows, rhs, ncols)
        got = solve_sparse(rows, rhs, ncols)
        assert got == want, (rows, rhs, ncols)
        if got is not None:
            _assert_canonical(got)
        seen["systems"] += 1
        seen["solved"] += want is not None
        seen["inconsistent"] += want is None
        seen["rank deficient"] += want is not None and any(v == 0 for v in want)
        for kind, count in _int_shares(rows, rhs).items():
            shares[kind] += count
    assert seen["systems"] >= 50 and min(seen.values()) >= 5, seen
    assert min(shares.values()) >= 20, shares


def _state(elimination):
    return copy.deepcopy([getattr(elimination, name) for name in Elimination.__slots__])


def test_one_elimination_solves_many_right_hand_sides():
    # Each system is eliminated once and solved for several right-hand
    # sides: consistent ones from seeded solutions, arbitrary (mostly
    # inconsistent) ones, and the same ones as Fractions, integral or
    # not.  Every solve equals the one-shot solver and the dense oracle.
    rng = random.Random(20261020)
    seen = {"solved": 0, "inconsistent": 0, "fraction rows": 0, "fraction rhs": 0}
    for make in [lambda: _random_system(rng)] * 200 + [lambda: _wide_system(rng)] * 15:
        rows, _, ncols = make()
        before = copy.deepcopy(rows)
        elimination = Elimination(rows, ncols)
        state = _state(elimination)
        for _ in range(2):
            x0 = [_canonical(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))) for _ in range(ncols)]
            consistent = [_canonical(sum((v * x0[c] for c, v in row.items()), Fraction(0))) for row in rows]
            arbitrary = [rng.randint(-3, 3) for _ in rows]
            halves = [Fraction(v, 2) for v in arbitrary]
            for rhs in (consistent, arbitrary, halves, [Fraction(v) for v in consistent]):
                want = _oracle(rows, rhs, ncols)
                got = elimination.solve(rhs)
                assert got == want == solve_sparse(rows, rhs, ncols), (rows, rhs, ncols)
                if got is not None:
                    _assert_canonical(got)
                seen["solved"] += got is not None
                seen["inconsistent"] += got is None
                seen["fraction rhs"] += any(type(v) is Fraction and v.denominator > 1 for v in rhs)
        seen["fraction rows"] += any(type(v) is Fraction for row in rows for v in row.values())
        assert rows == before and _state(elimination) == state
    assert min(seen.values()) >= 50, seen


def test_elimination_refuses_bad_right_hand_sides():
    elimination = Elimination([{0: 1}, {1: 2}], 2)
    with pytest.raises(ValueError, match="length"):
        elimination.solve([1])
    with pytest.raises(ValueError, match="length"):
        elimination.solve([1, 2, 3])
    with pytest.raises(TypeError, match="2.0"):
        elimination.solve([1, 2.0])
    with pytest.raises(TypeError, match="True"):  # Python counts a bool an int
        elimination.solve([True, 2])
    assert elimination.solve([1, 2]) == [1, 1]


def test_sparse_returns_canonical_coefficients():
    # Pivot rows with no later nonzero unknown leave an int over an int
    # pivot, where / would give a float; each unknown must come back an
    # int when it is integral and a Fraction only when it is not.
    for rows, rhs, ncols, want in (
        ([{0: 2}], [3], 1, [Fraction(3, 2)]),
        ([{0: 4, 1: 6}, {1: 3}], [1, 2], 2, [Fraction(-3, 4), Fraction(2, 3)]),
        ([{0: 1}, {0: 3, 2: 5}], [7, 1], 3, [7, 0, -4]),
        ([{1: -3}], [0], 2, [0, 0]),
        ([{0: 2, 1: 1}, {1: 3}], [2, 3], 2, [Fraction(1, 2), 1]),
    ):
        got = solve_sparse(rows, rhs, ncols)
        assert got == want
        _assert_canonical(got)


def test_sparse_refuses_inexact_entries():
    with pytest.raises(TypeError, match="0.5"):
        solve_sparse([{0: 0.5}], [1], 1)
    with pytest.raises(TypeError, match="0.25"):
        solve_sparse([{0: 1}], [0.25], 1)
    with pytest.raises(TypeError):
        solve_sparse([{0: Fraction(1)}], [complex(1, 0)], 1)
    with pytest.raises(TypeError, match="1.5"):  # a float after ints in one row
        solve_sparse([{0: 1, 1: 2, 2: 1.5}], [1], 3)
    with pytest.raises(TypeError, match="2.0"):  # a float right-hand side beside int rows
        solve_sparse([{0: 1}, {1: 2}], [1, 2.0], 2)
    with pytest.raises(TypeError, match="True"):  # Python counts a bool an int
        solve_sparse([{0: 1, 1: True}], [1], 2)


def test_sparse_edge_cases():
    half = Fraction(1, 2)
    assert solve_sparse([], [], 0) == []
    assert solve_sparse([], [], 3) == [0, 0, 0]
    assert solve_sparse([{}, {}], [0, 0], 0) == []
    assert solve_sparse([{}], [half], 0) is None
    assert solve_sparse([{0: 0, 1: 2}], [1], 2) == [0, half]
    assert solve_sparse([{1: 1}, {1: 2}], [1, 3], 2) is None
    with pytest.raises(ValueError):
        solve_sparse([{2: 1}], [1], 2)
    with pytest.raises(ValueError):
        solve_sparse([{0: 1}], [], 1)


def test_sparse_leaves_caller_rows_untouched():
    rng = random.Random(5)
    for integral in (False, True):
        for _ in range(50):
            rows, rhs, ncols = _random_system(rng, integral)
            before = copy.deepcopy((rows, rhs))
            solve_sparse(rows, rhs, ncols)
            assert (rows, rhs) == before


KOSZUL_FIXTURES = [
    ("wps-pairs", ((1, 2, 1, 2), (4, 2, 4, 2))),
    ("wps-pairs", ((1, 1, 1), (4, 4, 4))),
    ("biproj-pairs", (1, [1], [1])),
    ("biproj-pairs", (3, [2, 1], [1, 1])),
    ("torsion-fermat", (3,)),
    ("torsion-fermat", (6,)),
    ("split-field", (1, 2)),
    ("split-field", (2, 1, (1, 2))),
    ("monomial-hypersurface", (2, 3)),
]


def _koszul_fields(fix):
    """The audited field, or each of its components when it has no single degree."""
    field = fix.field if fix.subset is None else fix.field.restrict(fix.subset)
    try:
        foliation_degree(fix.model, field)
    except DegreeInconsistencyError:
        nv = fix.model.nvars
        return [VectorField.from_components(nv, {j: p}) for j, p in enumerate(field.components) if not p.is_zero()]
    return [field]


class _Recording:
    """An elimination that checks every solve against the dense oracle."""

    def __init__(self, systems, rows, ncols):
        self.systems, self.rows, self.ncols = systems, copy.deepcopy(rows), ncols
        self.elimination = Elimination(rows, ncols)

    def solve(self, rhs):
        got = self.elimination.solve(rhs)
        self.systems.append((got, _oracle(self.rows, rhs, self.ncols)))
        return got


@pytest.mark.parametrize("name,args", KOSZUL_FIXTURES, ids=lambda v: str(v))
def test_sparse_matches_dense_oracle_on_koszul_systems(name, args, monkeypatch):
    # The model keeps its last factored system, so the seam is the
    # elimination: each system it builds records every right-hand side
    # solved against it.  Each field is decomposed twice in a row, so the
    # second solve reuses the stored system.
    systems, built = [], []

    def recording(rows, ncols):
        built.append(_Recording(systems, rows, ncols))
        return built[-1]

    monkeypatch.setattr(normalform, "Elimination", recording)
    fix = FIXTURE_BUILDERS[name](*args)
    fields = _koszul_fields(fix)
    for field in [field for field in fields for _ in range(2)]:
        try:
            koszul_decompose(
                fix.model, fix.hypersurface, field, radial_index=fix.radial_index, index_set=fix.subset
            )
        except DecompositionError:
            pass
    assert len(systems) == 2 * len(fields)
    assert 1 <= len(built) <= len(fields)
    for got, want in systems:
        assert got == want
        if got is not None:
            _assert_canonical(got)
