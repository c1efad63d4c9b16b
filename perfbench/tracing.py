"""Per-layer timing by wrapping toricfol's public functions from outside.

Each traced function is replaced, in every ``toricfol`` module namespace
that holds it, by a wrapper that records a span.  That is where callers
look the name up, so ``toricfol.audit.only_origin_check`` and
``toricfol.families.only_origin_check`` both report as
``groebner.only_origin_check``.  ``ratlinalg.solve_linear`` is imported
by name into several modules, so its spans are labelled by the module
that holds the reference (``ratlinalg.solve_linear.normalform``, ...).

A span's self time is its duration minus the time its child spans
cover.  Bookkeeping done after a call returns (counting rows and
nonzeros, measuring coefficient sizes) is kept out of every span, so it
shows only in the traced run's overall wall time.  A name missing at the
measured commit is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, label or None for "<module>.<function>",
#  label by caller, size recorder name or None)
TARGETS = (
    ("ratlinalg", "solve_linear", None, True, "matrix"),
    ("normalform", "koszul_decompose", None, False, None),
    ("normalform", "verify_decomposition", None, False, None),
    ("grading", "monomials_of_degree", None, False, "monomials"),
    ("grading", "homogeneous_degree", None, False, None),
    ("groebner", "buchberger", None, False, "basis"),
    ("groebner", "reduce_poly", None, False, None),
    ("groebner", "normal_form", None, False, None),
    ("groebner", "only_origin_check", None, False, None),
    ("groebner", "sing_inside_irrelevant", None, False, None),
    ("groebner", "regular_subsequence_check", None, False, None),
    ("cli", "run", None, False, None),
    ("cli", "build_parser", None, False, None),
    ("casefile", "parse_case", None, False, None),
    ("casefile", "render_case", None, False, None),
    ("model", "build_from_rays", "model.build", False, None),
    ("model", "build_from_pairing_rows", "model.build", False, None),
    ("model", "build_from_presentation", "model.build", False, None),
    ("model", "align_display_basis", "model.build", False, None),
    ("intlinalg", "smith_normal_form", None, False, None),
    ("intlinalg", "solve_integer_system", None, False, None),
    ("halfspaces", "feasible_point", None, False, None),
    ("audit", "audit_case", None, False, None),
    ("foliation", "foliation_degree", None, False, None),
    ("foliation", "invariance_cofactor", None, False, None),
    ("foliation", "lie_g_membership", None, False, None),
)


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()), default=0)


def _size_matrix(rec, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    rec["rows"] += len(rows)
    rec["cols"] += len(rows[0]) if rows else 0
    rec["nnz"] += sum(1 for row in rows for x in row if x)


def _size_monomials(rec, args, kwargs, result):
    rec["monomials"] += len(result)


def _size_basis(rec, args, kwargs, result):
    rec["basis_size"] += len(result.generators)
    rec["coeff_bits_max"] = max(rec["coeff_bits_max"], max(_coeff_bits(g) for g in result.generators))


SIZERS = {"matrix": _size_matrix, "monomials": _size_monomials, "basis": _size_basis}


class Tracer:
    """Span recorder: per label, calls, self time and size counters."""

    def __init__(self):
        self.records: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list[float]] = []
        self._overhead = 0.0  # seconds of bookkeeping kept out of every span
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.records.clear()

    def clock(self) -> float:
        """Program time: wall time minus the tracer's own bookkeeping."""
        return time.perf_counter() - self._overhead

    def _wrap(self, fn, label, sizer):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter() - self._overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                now = time.perf_counter()
                duration = now - self._overhead - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec = self.records[label]
                rec["calls"] += 1
                rec["self_s"] += duration - frame[0]
                self._overhead += time.perf_counter() - now
            if sizer is not None:
                now = time.perf_counter()
                sizer(self.records[label], args, kwargs, result)
                self._overhead += time.perf_counter() - now
            return result

        return traced

    def install(self):
        """Patch every toricfol namespace that holds a traced function."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "toricfol" or name.startswith("toricfol."))
        }
        for modname, fname, label, by_caller, sizer in TARGETS:
            home = modules.get(f"toricfol.{modname}")
            original = getattr(home, fname, None) if home is not None else None
            base = label or f"{modname}.{fname}"
            if original is None:
                self.absent.add(base)
                continue
            shared = self._wrap(original, base, SIZERS.get(sizer))
            for holder_name, holder in modules.items():
                if getattr(holder, fname, None) is not original:
                    continue
                caller = holder_name.rsplit(".", 1)[-1]
                if by_caller:
                    wrapper = self._wrap(original, f"{base}.{caller}", SIZERS.get(sizer))
                else:
                    wrapper = shared
                self._patches.append((holder, fname, original))
                setattr(holder, fname, wrapper)

    def uninstall(self):
        for holder, fname, original in reversed(self._patches):
            setattr(holder, fname, original)
        self._patches.clear()
