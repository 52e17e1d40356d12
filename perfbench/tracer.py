"""Outside-in tracer for the pppa modules.

The solver's source stays untouched.  ``install`` replaces each listed
function with a span-recording wrapper in every ``pppa`` module that
holds it: the defining module and every module that imported it by
name (``solve_psd`` in ``reductions``, ``load_qpb`` in ``cli``, the
re-exports in ``pppa/__init__``).  ``uninstall`` puts the originals back.

A span is ``(name_id, start_ns, end_ns, parent_index, solve_id, nested)``;
``nested`` marks a span opened inside another span of the same name, so
a recursive function's total time is counted once.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT = "cli"

# module -> functions (or Class.method) that get a span.
SPANNED = {
    "qpb": ("load_qpb", "parse_qpb"),
    "classify": ("classify", "is_in_sbar_plus", "is_sbar_nk", "find_dominance_vector",
                 "build_parametric_vector", "blockwise_dominance_vector", "is_z_matrix"),
    "matrices": ("is_psd", "is_pd", "irreducible_components", "tridiag_solve",
                 "comparison_matrix", "SymMatrix.matvec", "SymMatrix.submatrix"),
    "pivoting": ("solve_psd", "solve_pd", "compute_bars", "ratio_test_tau",
                 "second_ratio_test", "apply_pivot", "solution_at_tau"),
    "factors": ("factor_update", "FactorState.for_alpha"),
    "reductions": ("solve_sbar", "solve_sbar_n1", "solve_sbar_nk", "interior_solution",
                   "preprocess_zero_diag", "reduce_nonpositive_row", "flip_variable",
                   "fm_feasibility_2var"),
    "oracle": ("kkt_residual", "recession_check", "find_recession_direction"),
}

# Drivers whose returned SolveOutcome carries the Stats counters of a whole solve.
DRIVERS = ("reductions.solve_sbar", "reductions.solve_sbar_n1", "reductions.solve_sbar_nk")
DRIVER_COUNTERS = ("reductions", "subproblems", "refactorizations")


class Tracer:
    """Span recorder; construct after ``pppa`` is imported, then install/uninstall around traced solves."""

    def __init__(self):
        self.names = [ROOT]
        self.spans: list = []
        self.solve_id = -1
        self.densified: dict[int, int] = {}
        self.driver_stats: dict[int, list[int]] = {}
        self._stack = [-1]
        self._depth = [0]
        self._drivers_open = 0
        self.call_root = self._span(0, lambda fn, *args: fn(*args))
        self._plan = self._build_plan()

    def _span(self, nid: int, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            nested = depth[nid]
            depth[nid] = nested + 1
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] = nested
                spans[idx] = (nid, start, end, parent, self.solve_id, nested > 0)

        return functools.wraps(fn)(wrapper)

    def _driver(self, fn):
        def wrapper(*args, **kwargs):
            self._drivers_open += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._drivers_open -= 1
            if self._drivers_open == 0:
                counts = self.driver_stats.setdefault(self.solve_id, [0] * len(DRIVER_COUNTERS))
                for k, field in enumerate(DRIVER_COUNTERS):
                    counts[k] += getattr(out.stats, field)
            return out

        return functools.wraps(fn)(wrapper)

    def _count_densify(self, full):
        def wrapper(m):
            # Only banded storage leaves _dense unset; this call builds the n x n array.
            if m._dense is None:
                self.densified[self.solve_id] = self.densified.get(self.solve_id, 0) + 1
            return full(m)

        return functools.wraps(full)(wrapper)

    def _build_plan(self) -> list:
        """(owner, attribute, original, wrapper) for every patch ``install`` makes."""
        plan = []
        holders = [m for name, m in sys.modules.items() if name == "pppa" or name.startswith("pppa.")]
        for mod_name, functions in SPANNED.items():
            module = importlib.import_module(f"pppa.{mod_name}")
            for qual in functions:
                name = f"{mod_name}.{qual}"
                self.names.append(name)
                self._depth.append(0)
                nid = len(self.names) - 1
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        plan.append((cls, attr, raw, classmethod(self._span(nid, raw.__func__))))
                    else:
                        plan.append((cls, attr, raw, self._span(nid, raw)))
                    continue
                original = getattr(module, qual)
                wrapped = self._span(nid, self._driver(original) if name in DRIVERS else original)
                for holder in holders:
                    plan += [(holder, attr, original, wrapped)
                             for attr, value in vars(holder).items() if value is original]
        sym = importlib.import_module("pppa.matrices").SymMatrix
        full = sym.__dict__["full"]
        plan.append((sym, "full", full, self._count_densify(full)))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def aggregate(self, group_of: dict[int, object]) -> dict:
        """Per group: {span name: [total_ns, self_ns, calls]}.

        ``group_of`` maps solve ids to group keys; spans of other solves
        are skipped.  Total time counts only spans without an enclosing
        span of the same name; self time subtracts direct children.
        """
        spans = self.spans
        child = [0] * len(spans)
        for nid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for idx, (nid, start, end, _, solve_id, nested) in enumerate(spans):
            key = group_of.get(solve_id)
            if key is None:
                continue
            rec = out.setdefault(key, {}).setdefault(self.names[nid], [0, 0, 0])
            if not nested:
                rec[0] += end - start
            rec[1] += end - start - child[idx]
            rec[2] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name,start_ns,end_ns,parent_index,solve_id,nested\n")
            names = self.names
            fh.writelines(f"{names[n]},{s},{e},{p},{i},{int(d)}\n"
                          for n, s, e, p, i, d in self.spans)
