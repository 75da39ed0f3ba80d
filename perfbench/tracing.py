"""Spans and counts around the calls into each emsync layer.

The tracer replaces each public function listed in LAYERS, in every emsync
module that binds it, with one wrapper, so calls between modules are seen
as well as calls from the benchmark.  `EpsilonMachine` is traced through
its constructor.  Each call records a span (id, parent id, name, operation,
start, end, self seconds); self time is the span's duration minus that of
its child spans.  Counts are read from return values.  Spans stay in
memory and are written out when the run ends.
"""

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "machine": (
        "parse_machine",
        "EpsilonMachine",
        "check_equivalence",
        "stationary_distribution",
        "random_machine",
    ),
    "graphs": ("strongly_connected_components", "component_period"),
    "pairs": ("build_pair_automaton", "mergeable_pairs", "deadlock_components", "classify"),
    "rates": (
        "pair_matrix",
        "spectral_radius",
        "sync_rate",
        "nsyn_bounds",
        "edge_machine_stats",
        "rate_report",
    ),
    "oracle": ("exact_word_stats", "nonreset_profile", "reset_threshold", "simulate_beliefs"),
    "cli": ("main",),
}

# Counts read from return values: (name, unit, better).
COUNTS = (
    ("pairs.rows", "rows", "lower"),
    ("pairs.deadlock_rows", "rows", "lower"),
    ("pairs.closed_components", "count", "lower"),
    ("pairs.builds_per_op", "1/op", "lower"),
    ("rates.radius_calls_per_op", "1/op", "lower"),
    ("rates.radius_rows", "rows", "lower"),
    ("rates.pair_matrix_bytes", "B", "lower"),
    ("oracle.words", "words/op", "lower"),
    ("oracle.sim_steps", "steps/op", "lower"),
    ("machine.constructed", "1/op", "lower"),
    ("machine.accept_ratio", "ratio", "higher"),
)


def layer_metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer, names in LAYERS.items():
        for name in names:
            specs.append((f"{layer}.{name}.calls", "calls/op", "lower"))
            specs.append((f"{layer}.{name}.self_s", "s/op", "lower"))
    specs.extend(COUNTS)
    specs.append(("trace.overhead_pct", "%", "lower"))
    return specs


def _emsync_modules():
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name == "emsync" or module_name.startswith("emsync.")
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1  # index of the operation in progress
        self._stack = []  # open spans: [span id, seconds spent in children]
        self._next_id = 0
        self._undo = []
        self.tally = defaultdict(float)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every listed function; emsync must already be imported."""
        for layer, names in LAYERS.items():
            home = sys.modules[f"emsync.{layer}"]
            for name in names:
                original = getattr(home, name)
                label = f"{layer}.{name}"
                if isinstance(original, type):
                    init = original.__init__
                    self._undo.append((original, "__init__", init))
                    original.__init__ = self._wrap(label, init)
                    continue
                wrapper = self._wrap(label, original)
                for module in _emsync_modules():
                    if getattr(module, name, None) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def _wrap(self, label, fn):
        observe = getattr(self, "_observe_" + label.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (span_id, parent[0] if parent else None, label, self.op, start, end, duration - frame[1])
                )
                if observe is not None:
                    observe(result if ok else None, args, ok)
            return result

        return traced

    # -- counts from return values -----------------------------------------------

    def _observe_pairs_build_pair_automaton(self, pa, args, ok):
        if ok:
            self.tally["pair_rows"] += pa.count

    def _observe_pairs_mergeable_pairs(self, da, args, ok):
        if ok:
            self.tally["deadlock_rows"] += len(da.deadlock)

    def _observe_pairs_deadlock_components(self, components, args, ok):
        if ok:
            self.tally["closed_components"] += len(components)

    def _observe_rates_spectral_radius(self, value, args, ok):
        self.tally["radius_rows"] += len(args[0])

    def _observe_rates_pair_matrix(self, mat, args, ok):
        if ok:
            k, m, _ = mat.per_symbol.shape
            # computed, not measured: per-symbol tensor plus the summed matrix
            self.tally["pair_matrix_bytes"] = max(self.tally["pair_matrix_bytes"], 8 * (k + 1) * m * m)

    def _observe_oracle_exact_word_stats(self, stats, args, ok):
        if ok:
            self.tally["words"] += stats.word_count

    def _observe_oracle_simulate_beliefs(self, sim, args, ok):
        if ok:
            self.tally["sim_steps"] += sim.runs * sim.length

    def _observe_machine_EpsilonMachine(self, _, args, ok):
        self.tally["accepted"] += ok

    # -- report --------------------------------------------------------------------

    def metrics(self, ops, overhead_pct):
        """Per-layer metrics over `ops` traced operations."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for _, _, label, _, _, _, own in self.spans:
            calls[label] += 1
            self_s[label] += own
        tally = self.tally

        def per(total, count):
            return total / count if count else 0.0

        values = {}
        for layer, names in LAYERS.items():
            for name in names:
                label = f"{layer}.{name}"
                values[label + ".calls"] = calls[label] / ops
                values[label + ".self_s"] = self_s[label] / ops
        values.update(
            {
                "pairs.rows": per(tally["pair_rows"], calls["pairs.build_pair_automaton"]),
                "pairs.deadlock_rows": per(tally["deadlock_rows"], calls["pairs.mergeable_pairs"]),
                "pairs.closed_components": per(
                    tally["closed_components"], calls["pairs.deadlock_components"]
                ),
                "pairs.builds_per_op": calls["pairs.build_pair_automaton"] / ops,
                "rates.radius_calls_per_op": calls["rates.spectral_radius"] / ops,
                "rates.radius_rows": per(tally["radius_rows"], calls["rates.spectral_radius"]),
                "rates.pair_matrix_bytes": tally["pair_matrix_bytes"],
                "oracle.words": tally["words"] / ops,
                "oracle.sim_steps": tally["sim_steps"] / ops,
                "machine.constructed": calls["machine.EpsilonMachine"] / ops,
                "machine.accept_ratio": per(tally["accepted"], calls["machine.EpsilonMachine"]),
                "trace.overhead_pct": overhead_pct,
            }
        )
        return values

    def write(self, path, values, keep=5000):
        """Write the per-layer values and the first `keep` spans as JSON."""
        fields = ("id", "parent", "name", "op", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "metrics": values,
                    "span_count": len(self.spans),
                    "spans": [dict(zip(fields, span)) for span in self.spans[:keep]],
                },
                handle,
            )
