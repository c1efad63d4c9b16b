"""No floating point in the core: every value in ``src/toricfol`` is an int or a Fraction.

Each module is parsed with ``ast``.  A float or complex literal, a call
to ``float(`` or ``complex(``, or an import of ``numpy`` fails the test
with its file and line.

No probabilistic verdicts either: an import of ``random`` or ``secrets``
fails the test too, so no verdict can come to depend on a randomly chosen
prime.  ``selfcheck.py`` is exempt from that rule alone: its suites draw
their test inputs from a seeded ``random.Random``.

No true division either, since ``/`` on two ints is a float and
coefficients are ints wherever they are integral: a ``/`` or ``/=`` fails
the test unless it sits inside ``poly.exact_div``, the one coefficient
division.  Elsewhere a quotient that may be a fraction is built as
``Fraction(num, den)``, as ``halfspaces.py`` builds its bounds.

No silent truncation either: ``int(1.9)`` is 1, so a call to ``int(``
fails the test, and an input that must be an integer goes through
``operator.index``, which refuses a float or a ``Fraction``.
``parsing.py`` and ``casefile.py`` are exempt: they call ``int`` only on
digit strings that a regular expression has already checked.

One polynomial kernel: ``heapify`` may appear only in
``poly.divide_terms``, the one division loop, and ``from_bytes`` or
``to_bytes`` only in ``poly.Layout.pack`` and ``poly.Layout.unpack``, the
one monomial layout's packing.  A use anywhere else, as a name or as an
attribute, fails the test, so neither a second division loop nor a
second packed layout can come back unnoticed.
"""

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parent.parent / "src" / "toricfol"
MODULES = sorted(CORE.glob("*.py"))


def inexact_spots(tree: ast.AST) -> list[str]:
    spots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            spots.append(f"line {node.lineno}: {type(node.value).__name__} literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            spots.append(f"line {node.lineno}: call to {node.func.id}()")
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
            spots += [f"line {node.lineno}: import {name}" for name in names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            spots.append(f"line {node.lineno}: from {node.module} import")
    return spots


RANDOM_SOURCES = ("random", "secrets")
SEEDED_INPUT_MODULES = ("selfcheck.py",)


def random_imports(tree: ast.AST) -> list[str]:
    spots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] in RANDOM_SOURCES]
            spots += [f"line {node.lineno}: import {name}" for name in names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in RANDOM_SOURCES:
            spots.append(f"line {node.lineno}: from {node.module} import")
    return spots


def test_core_modules_found():
    assert len(MODULES) >= 10
    assert CORE / "poly.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats_in_core(path):
    spots = inexact_spots(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not spots, f"{path.name}: " + "; ".join(spots)


def test_detector_sees_each_kind():
    source = "\n".join(
        ["import numpy as np", "from numpy.linalg import solve", "x = 1.5", "y = 0j", "z = float(3)", "w = complex(1, 2)"]
    )
    assert len(inexact_spots(ast.parse(source))) == 6
    assert inexact_spots(ast.parse("from fractions import Fraction\nx = Fraction(3, 2)\n")) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in SEEDED_INPUT_MODULES], ids=lambda p: p.name
)
def test_no_random_sources_in_core(path):
    spots = random_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not spots, f"{path.name}: " + "; ".join(spots)


def test_random_detector_sees_each_kind():
    source = "import random\nimport secrets as s\nfrom random import Random\nfrom secrets import randbelow"
    assert len(random_imports(ast.parse(source))) == 4
    assert random_imports(ast.parse("import math\nfrom fractions import Fraction\n")) == []
    # the exemption is not stale: the exempt module does draw random inputs
    for name in SEEDED_INPUT_MODULES:
        assert random_imports(ast.parse((CORE / name).read_text(encoding="utf-8")))


DIVISION_EXEMPT_FUNCTIONS = {"poly.py": ("exact_div",)}


def true_divisions(tree: ast.AST, exempt_functions=()) -> list[str]:
    """Each ``a / b`` and ``a /= b`` outside the named top-level functions."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in exempt_functions:
            skip.update(id(n) for n in ast.walk(node))
    spots = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            spots.append((node.lineno, f"line {node.lineno}: true division"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            spots.append((node.lineno, f"line {node.lineno}: /="))
    return [text for _, text in sorted(spots)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_true_division_in_core(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    spots = true_divisions(tree, DIVISION_EXEMPT_FUNCTIONS.get(path.name, ()))
    assert not spots, f"{path.name}: " + "; ".join(spots)


def test_division_detector_sees_each_kind():
    source = "a = b / c\nx /= 2\ny = b // c\ndef exact_div(a, b):\n    return a / b\n"
    assert true_divisions(ast.parse(source)) == ["line 1: true division", "line 2: /=", "line 5: true division"]
    assert true_divisions(ast.parse(source), ("exact_div",)) == ["line 1: true division", "line 2: /="]
    # the exemptions are not stale: each exempt place does divide
    for name, functions in DIVISION_EXEMPT_FUNCTIONS.items():
        tree = ast.parse((CORE / name).read_text(encoding="utf-8"))
        assert len(true_divisions(tree)) > len(true_divisions(tree, functions))


INT_EXEMPT_MODULES = ("parsing.py", "casefile.py")


def int_calls(tree: ast.AST) -> list[str]:
    return [
        f"line {node.lineno}: call to int()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in INT_EXEMPT_MODULES], ids=lambda p: p.name
)
def test_no_int_truncation_in_core(path):
    spots = int_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not spots, f"{path.name}: " + "; ".join(spots)


def test_int_detector_sees_each_kind():
    source = "a = int(x)\nb = [int(c * s) for c in xs]\nc = isinstance(a, int)\nd = index(a)\n"
    assert int_calls(ast.parse(source)) == ["line 1: call to int()", "line 2: call to int()"]
    # the exemptions are not stale: each exempt module does call int
    for name in INT_EXEMPT_MODULES:
        assert int_calls(ast.parse((CORE / name).read_text(encoding="utf-8")))


# name -> {module: the functions, as "f" or "Class.f", where it may appear}
CONFINED_NAMES = {
    "heapify": {"poly.py": ("divide_terms",)},
    "from_bytes": {"poly.py": ("Layout.pack",)},
    "to_bytes": {"poly.py": ("Layout.unpack",)},
}


def confined_uses(tree: ast.AST, names, exempt_functions=()) -> list[str]:
    """Each name or attribute in ``names`` outside the named functions,
    each given as "f" at module level or "Class.f" in a class there."""
    skip: set[int] = set()
    for node in tree.body:
        scopes = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
        for name, scope in scopes:
            if name in exempt_functions:
                skip.update(id(n) for n in ast.walk(scope))
    spots = []
    for node in ast.walk(tree):
        # a name, or the attribute of an ast.Attribute
        used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if used in names and id(node) not in skip:
            spots.append((node.lineno, f"line {node.lineno}: {used}"))
    return [text for _, text in sorted(spots)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_division_loop_and_one_layout(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    spots = []
    for name, exempt in CONFINED_NAMES.items():
        spots += confined_uses(tree, {name}, exempt.get(path.name, ()))
    assert not spots, f"{path.name}: " + "; ".join(spots)


def test_confined_name_detector_sees_each_kind():
    source = "\n".join(
        [
            "import heapq",
            "from heapq import heapify",
            "def loop(h):",
            "    heapify(h)",
            "class Layout:",
            "    def pack(self, m):",
            "        return int.from_bytes(m, 'little')",
            "def other(h, k):",
            "    heapq.heapify(h)",
            "    return k.to_bytes(2, 'little')",
        ]
    )
    tree = ast.parse(source)
    names = {"heapify", "from_bytes", "to_bytes"}
    assert confined_uses(tree, names) == [
        "line 4: heapify", "line 7: from_bytes", "line 9: heapify", "line 10: to_bytes"
    ]
    assert confined_uses(tree, names, ("loop", "Layout.pack")) == ["line 9: heapify", "line 10: to_bytes"]
    # the exemptions are not stale: each exempt function uses its name
    for name, exempt in CONFINED_NAMES.items():
        for module, functions in exempt.items():
            tree = ast.parse((CORE / module).read_text(encoding="utf-8"))
            assert len(confined_uses(tree, {name})) > len(confined_uses(tree, {name}, functions))
