"""No floating point in the core: every value in ``src/toricfol`` is an int or a Fraction.

Each module is parsed with ``ast``.  A float or complex literal, a call
to ``float(`` or ``complex(``, or an import of ``numpy`` fails the test
with its file and line.
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
