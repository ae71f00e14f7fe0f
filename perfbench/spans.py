"""Spans around the engine's public functions, recorded from outside.

``Tracer.install`` wraps every function in ``TRACED`` and rebinds each
attribute of a ``critlocus`` module that holds the original, since
``cli``, ``critical`` and ``koszul`` import names directly.  Each call
becomes a span (name, start, end, parent, request id) kept in flat arrays
and written out by ``dump``.  A span's self time is its duration minus the
durations of its direct children; everything between the root spans'
start and end is covered, so the self times of all spans add up to the
request time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

# (module, attribute path) of every traced callable; "Class.method" is a method
TRACED = [
    ("cli", "main"),
    ("cli", "request_from_args"),
    ("cli", "run"),
    ("cli", "AnalysisReport.render"),
    ("polynomials", "parse_polynomial"),
    ("polynomials", "MultiPoly.partial"),
    ("groebner", "buchberger"),
    ("groebner", "krull_dimension"),
    ("groebner", "quotient_basis"),
    ("groebner", "hilbert_function"),
    ("groebner", "normal_form"),
    ("groebner", "is_unit_mod"),
    ("linalg", "invert"),
    ("linalg", "PolyMatrix.det"),
    ("linalg", "EchelonAccumulator.reduce"),
    ("linalg", "EchelonAccumulator.insert"),
    ("linalg", "KernelTracker.insert"),
    ("koszul", "koszul_homology"),
    ("koszul", "_filtered_homology"),
    ("koszul", "de_rham_and_internal"),
    ("critical", "build_crit"),
    ("critical", "milnor_number"),
    ("critical", "lambda_equivalence_verdict"),
    ("critical", "point_report"),
    ("critical", "validate_splitting"),
    ("critical", "normal_hessian"),
    ("critical", "phi_comparison"),
    ("symplectic", "omega_minus_one"),
    ("symplectic", "zero_locus_one_form"),
]

ROOT_SPAN = "cli.main"
MODULES = tuple(dict.fromkeys(module for module, _ in TRACED))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request_id = 0
        # counters read from return values, keyed by metric name
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if after is not None:
                after(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable in every critlocus module."""
        import critlocus  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items()
                   if k == "critlocus" or k.startswith("critlocus.")]
        for mod_name, path in TRACED:
            owner = sys.modules[f"critlocus.{mod_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self._wrap(f"{mod_name}.{path}", original, _AFTER.get(path))
            self._rebind(owner, attr, original, wrapped)
            if not classes:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w") as out:
            out.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.span_request[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def _homology_counts(counts, report) -> None:
    cells = [v for row in report.table.values() for v in row]
    counts["koszul.slices"] += len(cells)
    counts["koszul.nonzero_slices"] += sum(1 for v in cells if v)


def _basis_counts(counts, gb) -> None:
    counts["groebner.buchberger.basis_size"] += len(gb.generators)


def _insert_counts(counts, combo) -> None:
    if combo is None:
        counts["linalg.KernelTracker.insert.independent"] += 1


_AFTER = {
    "koszul_homology": _homology_counts,
    "buchberger": _basis_counts,
    "KernelTracker.insert": _insert_counts,
}
