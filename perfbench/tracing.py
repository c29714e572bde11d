"""Outside-in span tracing of the program's public functions.

``Tracer.install`` replaces every module binding of each traced function
(the defining module, the ``from .x import f`` copies in sibling modules
and the package re-exports) with a wrapper that records a span while an
op is open.  Spans stay in memory as (name, start_ns, end_ns, parent,
op) and are summarised, or written out, after the traced pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = (
    "ratlin.kernel_basis",
    "ratlin.rank",
    "polyhedron.parse_instance_text",
    "polyhedron.is_feasible",
    "polyhedron.active_rows",
    "polyhedron.max_step",
    "lp.solve_lp",
    "lp.verify_unique",
    "circuits.enumerate_circuits",
    "circuits.is_circuit_direction",
    "conformal.decompose",
    "ddstep.exact_dd_step",
    "ddstep.approx_dd_step",
    "ddstep.augment",
    "ocnp.decide_ocnp",
    "reductions.build_reduction",
    "reductions.longest_cycle_oracle",
    "reductions.verify_correspondence",
    "cli.main",
)

# Functions whose results feed a derived metric; their return values are kept.
_KEEP_RESULTS = ("lp.solve_lp", "circuits.enumerate_circuits", "conformal.decompose", "ddstep.augment")


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list = []
        self.results: dict[str, list] = {name: [] for name in _KEEP_RESULTS}
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = self.results.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep is not None:
                keep.append(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == self.package or key.startswith(self.package + ".")
        ]
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self, ops: int) -> dict[str, float]:
        """Per-function calls, total and self seconds, plus the derived counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start

        def inside(idx: int, target: str) -> bool:
            parent = spans[idx][3]
            while parent >= 0:
                if spans[parent][0] == target:
                    return True
                parent = spans[parent][3]
            return False

        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, _, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            if not inside(idx, name):  # recursive calls count once in total time
                out[f"{name}.total_s"] += (end - start) / 1e9
            out[f"{name}.self_s"] += (end - start - child_ns[idx]) / 1e9

        solved = [r for r in self.results["lp.solve_lp"] if hasattr(r, "vertex")]
        found = sum(len(r) for r in self.results["circuits.enumerate_circuits"])
        enum_kernels = sum(
            1
            for idx, span in enumerate(spans)
            if span[0] == "ratlin.kernel_basis" and inside(idx, "circuits.enumerate_circuits")
        )
        out["lp.solve_lp.calls_per_op"] = out["lp.solve_lp.calls"] / ops
        out["lp.solve_lp.max_bits"] = max(
            (_bits(v) for r in solved for v in (*r.vertex.entries, r.value)), default=0
        )
        out["circuits.enumerate_circuits.circuits"] = found
        out["circuits.enumerate_circuits.circuits_per_kernel"] = (
            found / enum_kernels if enum_kernels else 0.0
        )
        out["conformal.decompose.terms"] = sum(len(r.terms) for r in self.results["conformal.decompose"])
        out["ddstep.augment.steps"] = sum(len(r.steps) for r in self.results["ddstep.augment"])
        return out
