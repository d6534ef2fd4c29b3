"""Span tracing of poislin's entry points from outside the program.

`Tracer.install()` replaces each entry point listed in SPANS with a wrapper
that records a span: its layer, its duration, the span it ran inside, and
the part of its duration its child spans cover (self time = duration minus
that part).  Functions that poislin modules import by name are replaced in
every module that holds them, methods on their class.  Entry points the
program no longer has are skipped and listed in `missing`.

Spans are aggregated as they close instead of being kept one by one: per
layer the count and time of outermost calls (a call nested in another call
of the same layer counts once), the self time, and per parent-child pair of
layers the count and time.  `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, layer).  A layer's time is the time of its
# outermost calls; engines are reported by self time.
SPANS = [
    ("linalg", "LinearSolver.__init__", "linalg.elim"),
    ("linalg", "LinearSolver.solve", "linalg.solve"),
    ("linalg", "LinearSolver.solve_partial", "linalg.solve"),
    ("linalg", "LinearSolver.null_functional", "linalg.solve"),
    ("linalg", "LinearSolver.is_consistent", "linalg.solve"),
    ("cohomology", "induced_polynomial_module", "cohomology.module"),
    ("cohomology", "GModule.differential_matrix", "cohomology.differential"),
    ("algebroid", "_DualGradedComplex.differential_matrix", "cohomology.differential"),
    ("cohomology", "GModule.coboundary_solver", "cohomology.solver"),
    ("algebroid", "_DualGradedComplex.coboundary_solver", "cohomology.solver"),
    ("cohomology", "cohomology_dimension", "cohomology.rank"),
    ("algebroid", "_DualGradedComplex.h_dim", "cohomology.rank"),
    ("polyalg", "pushforward", "polyalg.pushforward"),
    ("polyalg", "invert_change", "polyalg.invert"),
    ("polyalg", "compose_change", "polyalg.compose"),
    ("polyalg", "Jet.substitute", "polyalg.substitute"),
    ("normalform", "poisson_remainder", "normalform.remainder"),
    ("normalform", "action_remainder", "normalform.remainder"),
    ("normalform", "conjugate_action", "normalform.conjugate"),
    ("normalform", "hermitian_norm", "normalform.norm"),
    ("normalform", "linearize_poisson", "normalform.engine"),
    ("normalform", "linearize_action", "normalform.engine"),
    ("normalform", "levi_decompose", "normalform.engine"),
    ("liealg", "LieAlgebra.__init__", "liealg.validate"),
    ("liealg", "isotropy_from_linear_part", "liealg.validate"),
    ("algebroid", "algebroid_to_poisson", "algebroid.dual"),
    ("algebroid", "poisson_to_algebroid", "algebroid.dual"),
    ("algebroid", "apply_algebroid_change", "algebroid.dual"),
    ("algebroid", "linearize_algebroid", "algebroid.engine"),
    ("algebroid", "levi_algebroid", "algebroid.engine"),
    ("cli", "parse_problem", "cli.parse"),
    ("cli", "_verify_poisson", "cli.verify"),
    ("cli", "_verify_action", "cli.verify"),
    ("cli", "_verify_algebroid", "cli.verify"),
    ("cli", "_emit", "cli.report"),
]

MODULES = ("linalg", "cohomology", "polyalg", "normalform", "liealg", "algebroid", "cli")


def _count_elimination(tracer, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs.get("rows", [])
    ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    tracer.counts["linalg.elim_cells"] += len(rows) * ncols
    tracer.counts["linalg.elim_nnz"] += sum(1 for row in rows for x in row if x)
    if tracer.depth["cohomology.rank"]:
        tracer.counts["cohomology.rank_elims"] += 1


def _reuse_counter(key):
    def post(tracer, result):
        seen = tracer.returned[key]
        if id(result) in seen:
            tracer.counts[key + "_hits"] += 1
        else:
            seen[id(result)] = result   # keep it alive so the id stays unique
    return post


PRE_HOOKS = {"LinearSolver.__init__": _count_elimination}
POST_HOOKS = {
    "induced_polynomial_module": _reuse_counter("cohomology.module"),
    "GModule.coboundary_solver": _reuse_counter("cohomology.solver"),
    "_DualGradedComplex.coboundary_solver": _reuse_counter("cohomology.solver"),
}


class Tracer:
    def __init__(self):
        self.stack = []                      # open spans: [layer, child time]
        self.depth = defaultdict(int)        # open spans per layer
        self.calls = defaultdict(int)        # outermost calls per layer
        self.time = defaultdict(float)       # outermost-call time per layer
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])   # (parent, child) -> count, time
        self.counts = defaultdict(float)
        self.returned = defaultdict(dict)
        self.top_time = 0.0                  # time inside any span
        self.missing = []
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, path, layer):
        pre = PRE_HOOKS.get(path)
        post = POST_HOOKS.get(path)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args, kwargs)
            frame = [layer, 0.0]
            self.stack.append(frame)
            self.depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                self.depth[layer] -= 1
                self.self_time[layer] += elapsed - frame[1]
                if not self.depth[layer]:
                    self.calls[layer] += 1
                    self.time[layer] += elapsed
                if self.stack:
                    parent = self.stack[-1]
                    parent[1] += elapsed
                    edge = self.edges[(parent[0], layer)]
                else:
                    self.top_time += elapsed
                    edge = self.edges[("op", layer)]
                edge[0] += 1
                edge[1] += elapsed
            if post is not None:
                post(self, result)
            return result

        return traced

    def install(self) -> None:
        modules = {name: sys.modules.get(f"poislin.{name}") for name in MODULES}
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "poislin" or name.startswith("poislin."))]
        for module_name, path, layer in SPANS:
            owner = modules.get(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, path, layer)
            if len(parts) > 1:
                self._saved.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, mergeable across processes with `merge`."""
        return {
            "calls": dict(self.calls),
            "time": dict(self.time),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
            "top_time": self.top_time,
            "edges": [[p, c, n, t] for (p, c), (n, t) in sorted(self.edges.items())],
            "missing": list(self.missing),
        }


def merge(total: dict, part: dict) -> dict:
    for key in ("calls", "time", "self_time", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    total["top_time"] = total.get("top_time", 0.0) + part.get("top_time", 0.0)
    edges = {(p, c): [n, t] for p, c, n, t in total.get("edges", [])}
    for p, c, n, t in part.get("edges", []):
        edge = edges.setdefault((p, c), [0, 0.0])
        edge[0] += n
        edge[1] += t
    total["edges"] = [[p, c, n, t] for (p, c), (n, t) in sorted(edges.items())]
    total["missing"] = sorted(set(total.get("missing", [])) | set(part.get("missing", [])))
    return total


def _ratio(hits, calls):
    return hits / calls if calls else 0.0


def per_layer_metrics(snap: dict, ops: int, op_time: float, scale: float,
                      extra: dict) -> dict:
    """Per-op layer figures from merged span totals.  `op_time` is the summed
    wall time of the traced ops; time in no span counts as self.untraced_s.
    Times are multiplied by `scale` (see run.py); counts and ratios are not."""
    calls = defaultdict(int, snap.get("calls", {}))
    time = defaultdict(float, snap.get("time", {}))
    self_time = defaultdict(float, snap.get("self_time", {}))
    counts = defaultdict(float, snap.get("counts", {}))
    per_op = 1.0 / ops if ops else 0.0
    seconds = per_op * scale
    values = {
        "linalg.elim_s": (time["linalg.elim"] * seconds, "s/op"),
        "linalg.elim_calls": (calls["linalg.elim"] * per_op, "count/op"),
        "linalg.elim_cells": (counts["linalg.elim_cells"] * per_op, "count/op"),
        "linalg.elim_nnz": (counts["linalg.elim_nnz"] * per_op, "count/op"),
        "linalg.solve_s": (time["linalg.solve"] * seconds, "s/op"),
        "linalg.solve_calls": (calls["linalg.solve"] * per_op, "count/op"),
        "cohomology.module_s": (time["cohomology.module"] * seconds, "s/op"),
        "cohomology.differential_s": (time["cohomology.differential"] * seconds, "s/op"),
        "cohomology.module_hit_ratio": (
            _ratio(counts["cohomology.module_hits"], calls["cohomology.module"]), "ratio"),
        "cohomology.solver_hit_ratio": (
            _ratio(counts["cohomology.solver_hits"], calls["cohomology.solver"]), "ratio"),
        "cohomology.rank_s": (time["cohomology.rank"] * seconds, "s/op"),
        "cohomology.rank_elims": (
            _ratio(counts["cohomology.rank_elims"], calls["cohomology.rank"]), "count/call"),
        "polyalg.pushforward_s": (time["polyalg.pushforward"] * seconds, "s/op"),
        "polyalg.pushforward_calls": (calls["polyalg.pushforward"] * per_op, "count/op"),
        "polyalg.invert_s": (time["polyalg.invert"] * seconds, "s/op"),
        "polyalg.compose_s": (time["polyalg.compose"] * seconds, "s/op"),
        "polyalg.substitute_s": (time["polyalg.substitute"] * seconds, "s/op"),
        "polyalg.substitute_calls": (calls["polyalg.substitute"] * per_op, "count/op"),
        "normalform.remainder_s": (time["normalform.remainder"] * seconds, "s/op"),
        "normalform.conjugate_s": (time["normalform.conjugate"] * seconds, "s/op"),
        "normalform.norm_s": (time["normalform.norm"] * seconds, "s/op"),
        "normalform.engine_self_s": (self_time["normalform.engine"] * seconds, "s/op"),
        "liealg.validate_s": (time["liealg.validate"] * seconds, "s/op"),
        "liealg.validate_calls": (calls["liealg.validate"] * per_op, "count/op"),
        "algebroid.dual_s": (time["algebroid.dual"] * seconds, "s/op"),
        "algebroid.engine_self_s": (self_time["algebroid.engine"] * seconds, "s/op"),
        "cli.parse_s": (time["cli.parse"] * seconds, "s/op"),
        "cli.verify_s": (time["cli.verify"] * seconds, "s/op"),
        "cli.report_s": (time["cli.report"] * seconds, "s/op"),
        "cli.startup_s": (counts["cli.startup"] * seconds, "s/op"),
    }
    split = defaultdict(float)
    for layer, spent in self_time.items():
        split[layer.split(".")[0]] += spent
    for module in MODULES:
        values[f"self.{module}_s"] = (split[module] * seconds, "s/op")
    values["self.untraced_s"] = (max(op_time - snap.get("top_time", 0.0), 0.0) * seconds, "s/op")
    values.update(extra)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
