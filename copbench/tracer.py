"""Per-layer tracing from outside the library.

:func:`install` replaces every public function of the copcone modules with a
wrapper that records a span (name, parent, start, end) around each call.
A function is replaced in every module that bound it by name, because
``bounds``, ``extremal`` and ``factor`` import ``is_copositive`` and
``is_dnn`` directly; a wrapper installed only on ``cones`` would miss those
calls.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time of its child spans.  The
KKT support enumeration is a generator: its span covers only the time spent
inside the generator, not the consumer's loop body between two points.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernel", "cones", "factor", "bounds", "extremal", "io", "cli")
KKT = "kernel.simplex_stationary_points"
CERTIFY = "cones.certify"  # the whole-matrix simplex_form_min that yields a BoundaryZero
FACTOR_METHODS = {
    "dd": "factor.dd_factorize",
    "posdd": "factor.positive_dd_factorize",
    "cp3": "factor.cp3_factorize",
    "horn6": "factor.horn_orthogonal_factorize",
    "continuation": "factor.factor_continuation",
    "positify": "factor.perturb_positify",
    "heuristic": "factor.heuristic_min_factor",
}

# Column count of the factor each method returns (the others return it bare).
_COLUMNS = {
    FACTOR_METHODS["posdd"]: lambda r: r[0].p,
    FACTOR_METHODS["continuation"]: lambda r: r.factor.p,
    FACTOR_METHODS["positify"]: lambda r: r[1].p,
}

# (parent, child) edges each workload must produce.  An edge missing from a
# traced run means a wrapper was not installed where the call is bound.
REQUIRED = {
    "cop-certify": [
        (None, "cones.is_copositive"),
        ("cones.is_copositive", "kernel.simplex_form_min"),
        ("kernel.simplex_form_min", KKT),
        ("cones.is_copositive", CERTIFY),
        ("cones.copositive_boundary_zeros", "cones.is_copositive"),
        ("cones.copositive_boundary_zeros", KKT),
    ],
    "cop-refute": [
        (None, "cones.is_copositive"),
        ("cones.is_copositive", "kernel.simplex_form_min"),
        ("kernel.simplex_form_min", KKT),
    ],
    "cp-pairs": [
        (None, name) for name in FACTOR_METHODS.values()
    ] + [
        ("factor.horn_orthogonal_factorize", "kernel.lp_feasible"),
        ("factor.cp3_factorize", "cones.is_dnn"),
        ("factor.cp3_factorize", "kernel.pivoted_cholesky"),
        ("factor.heuristic_min_factor", "cones.is_dnn"),
        ("factor.heuristic_min_factor", "kernel.eig_sym"),
        ("bounds.cp_rank_interval", "cones.is_dnn"),
        ("bounds.cp_rank_interval", "bounds.witness_bound"),
        ("bounds.witness_bound", "cones.is_copositive"),
        ("bounds.witness_bound", "extremal.horn_orbit_recognize"),
        ("extremal.classify_rank12", "cones.is_copositive"),
        ("extremal.classify_rank12", "extremal.horn_orbit_recognize"),
        (None, "extremal.orth_column_check"),
        (None, "extremal.anti_dd_check"),
        (None, "extremal.orth_nullspace_check"),
    ],
    "cli": [
        (None, "cli.main"),
        ("cli.main", "io.load_matrix"),
        ("cli.main", "io.canonical_json"),
        ("cli.main", "cones.is_copositive"),
        ("cli.main", "factor.horn_orthogonal_factorize"),
        ("cli.main", "bounds.cp_rank_interval"),
        ("cli.main", "extremal.classify_rank12"),
        ("cli.main", "extremal.anti_dd_check"),
    ],
}


class Tracer:
    """Spans as lists [name, parent index, start ns, end ns, child ns, busy ns
    or None] plus the counts recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.inputs: dict[int, np.ndarray] = {}  # is_copositive span -> symmetrized input
        self.counts: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter_ns(), 0, 0, None])
        return len(self.spans) - 1

    def _charge_parent(self, idx: int, ns: int) -> None:
        parent = self.spans[idx][1]
        if parent is not None:
            self.spans[parent][4] += ns

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        def traced(*args, **kwargs):
            if name == "kernel.simplex_form_min" and tracer._is_certify(args[0]):
                idx = tracer._open(CERTIFY)
            else:
                idx = tracer._open(name)
            if name == "cones.is_copositive":
                a = np.asarray(args[0], dtype=float)
                tracer.inputs[idx] = 0.5 * (a + a.T)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.inputs.pop(idx, None)
                span = tracer.spans[idx]
                span[3] = time.perf_counter_ns()
                tracer._charge_parent(idx, span[3] - span[2])
            tracer._count(name, idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = tracer._open(name)
            order = np.asarray(args[0]).shape[0]

            def run():
                busy = points = 0
                done = False
                try:
                    while True:
                        t0 = time.perf_counter_ns()
                        try:
                            value = next(inner)
                        except StopIteration:
                            done = True
                            return
                        finally:
                            busy += time.perf_counter_ns() - t0
                        points += 1
                        yield value
                finally:
                    span = tracer.spans[idx]
                    span[3] = time.perf_counter_ns()
                    span[5] = busy
                    tracer._charge_parent(idx, busy)
                    if done:
                        tracer.counts["kkt_supports"] += (1 << order) - 1
                    tracer.counts["kkt_points"] += points

            return run()

        traced.__wrapped__ = fn
        return traced

    def _is_certify(self, q) -> bool:
        """True for the call on the whole input matrix that is_copositive
        makes to produce a BoundaryZero; leaf cells pass U'AU instead."""
        if not self.stack or self.spans[self.stack[-1]][0] != "cones.is_copositive":
            return False
        return np.array_equal(np.asarray(q), self.inputs[self.stack[-1]])

    def _count(self, name: str, idx: int, result) -> None:
        parent = self.spans[idx][1]
        from_outside = parent is None or not self.spans[parent][0].startswith("factor.")
        if name in FACTOR_METHODS.values() and from_outside and result is not None:
            self.counts["columns_out"] += _COLUMNS.get(name, lambda r: r.p)(result)
        if name == FACTOR_METHODS["heuristic"]:
            self.counts["heuristic_attempted"] += 1
            self.counts["heuristic_found"] += result is not None
        if name == "io.canonical_json":
            self.counts["report_bytes"] += len(result.encode("utf-8"))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer, in every copcone module
        that holds a reference to them."""
        holders = [m for key, m in sys.modules.items() if key == "copcone" or key.startswith("copcone.")]
        for layer in LAYERS:
            mod = sys.modules[f"copcone.{layer}"]
            names = ["main"] if layer == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
                            self._installed.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._installed):
            setattr(holder, key, fn)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for name, _parent, start, end, child, busy in self.spans:
            dur = busy if busy is not None else end - start
            row = out[name]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child
        return out

    def edges(self) -> set[tuple[str | None, str]]:
        return {(None if p is None else self.spans[p][0], name) for name, p, *_ in self.spans}

    def missing(self, workload: str) -> list[tuple[str | None, str]]:
        seen = self.edges()
        return [edge for edge in REQUIRED[workload] if edge not in seen]

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one pass over the corpus."""
        t = self.table()
        c = self.counts

        def ms(*names, key="ns"):
            return sum(t[n][key] for n in names if n in t) / 1e6 / passes

        def calls(name):
            return t[name]["calls"] / passes if name in t else 0

        supports = c["kkt_supports"] / passes
        points = c["kkt_points"] / passes
        out = {
            "kernel.kkt_calls": (calls(KKT), "count"),
            "kernel.kkt_supports": (supports, "count"),
            "kernel.kkt_points": (points, "count"),
            "kernel.kkt_yield": (points / supports if supports else 0.0, "ratio"),
            "kernel.kkt_ms": (ms(KKT), "ms"),
            "kernel.eig_calls": (calls("kernel.eig_sym"), "count"),
            "kernel.eig_ms": (ms("kernel.eig_sym"), "ms"),
            "kernel.lp_calls": (calls("kernel.lp_feasible"), "count"),
            "kernel.lp_ms": (ms("kernel.lp_feasible"), "ms"),
            "kernel.cholesky_ms": (ms("kernel.pivoted_cholesky"), "ms"),
            "cones.copositive_calls": (calls("cones.is_copositive"), "count"),
            "cones.copositive_ms": (ms("cones.is_copositive"), "ms"),
            "cones.copositive_self_ms": (ms("cones.is_copositive", key="self_ns"), "ms"),
            "cones.certify_ms": (ms(CERTIFY), "ms"),
            "cones.boundary_zeros_ms": (ms("cones.copositive_boundary_zeros"), "ms"),
            "cones.dnn_ms": (ms("cones.is_dnn"), "ms"),
        }
        for short, name in FACTOR_METHODS.items():
            out[f"factor.{short}_ms"] = (ms(name), "ms")
        attempted = c["heuristic_attempted"]
        out.update({
            "factor.columns_out": (c["columns_out"] / passes, "count"),
            "factor.heuristic_found": (c["heuristic_found"] / attempted if attempted else 0.0, "ratio"),
            "bounds.interval_ms": (ms("bounds.cp_rank_interval"), "ms"),
            "bounds.witness_self_ms": (ms("bounds.witness_bound", key="self_ns"), "ms"),
            "extremal.classify_ms": (ms("extremal.classify_rank12"), "ms"),
            "extremal.orbit_ms": (ms("extremal.horn_orbit_recognize"), "ms"),
            "extremal.orth_ms": (ms("extremal.orth_column_check", "extremal.orth_nullspace_check",
                                    "extremal.anti_dd_check"), "ms"),
            "io.load_ms": (ms("io.load_matrix"), "ms"),
            "io.serialize_ms": (ms("io.canonical_json"), "ms"),
            "io.report_bytes": (c["report_bytes"] / passes, "B"),
            "cli.main_ms": (ms("cli.main"), "ms"),
        })
        return out

    def dump(self) -> dict:
        """Spans in a compact form: names once, then [name, parent, start us,
        duration us, self us] relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0
        rows = []
        for name, parent, start, end, child, busy in self.spans:
            dur = busy if busy is not None else end - start
            rows.append([index[name], -1 if parent is None else parent,
                         round((start - t0) / 1e3, 1), round(dur / 1e3, 1), round((dur - child) / 1e3, 1)])
        return {"names": names, "spans": rows}
