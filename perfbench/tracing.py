"""Span tracer for the traced benchmark run.

``Tracer`` wraps every public function, and every public method and
constructor of every public class, of the package's layer modules.  A
function is replaced at every module that binds it (``from .holonomy
import integrate_wilson`` binds it in cli, gates, trimer and demonstrator
too); methods are replaced on their class.  Leaving the ``with`` block puts
every original object back.

Each call records its duration and the time its traced children took, so
a layer's self time is its calls' time minus their children's.  Calls made
once per sample point (``HOT``) only add to per-function totals; every
other call is also kept as a span (id, parent, run, name, start, end).
Callables passed into a layer (for example the rate callbacks of
``wilson_from_rates``) are not wrapped, so their time counts to the layer
that calls them.  The tracer assumes one thread, as the benchmark runs
scenarios with ``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter

PACKAGE = "triholonomy"
LAYERS = ("shapespace", "connection", "holonomy", "gates", "linking", "trimer", "demonstrator", "cli")

# Called once per sample point, ~1e5 times in a run: totals only, no span each.
HOT = frozenset({
    "connection.eigenframe_rates",
    "connection.guichardet_connection",
    "connection.connection_vector",
    "connection.bloch_area_potential",
    "connection.ControlField.at",
    "shapespace.ShapeLoop.at",
    "shapespace.ShapeLoop.tangent",
    "shapespace.ShapePoint.__init__",
})


def _loop_steps(args, result):
    return args["loop"].steps


# Exact counts: function -> [(counter, amount(bound arguments, result))].
COUNTS = {
    # s values at which the connection (A, psi) is sampled.
    "holonomy.integrate_wilson": [("connection.samples", _loop_steps)],
    "holonomy.dyson_trace": [("connection.samples", _loop_steps)],
    "holonomy.transport_segment": [("connection.samples", lambda a, r: a["n_steps"])],
    "holonomy.wilson_from_rates": [("connection.samples", lambda a, r: a["n_steps"])],
    "gates.interaction_frame": [("connection.samples", _loop_steps)],
    "gates.accumulated_diagonal_phase": [("connection.samples", _loop_steps)],
    "holonomy.su2_exponentials": [("holonomy.su2_steps", lambda a, r: len(r))],
    "holonomy.ordered_product": [("holonomy.lines", lambda a, r: 1)],
    "linking.gauss_linking_integral": [
        ("linking.segment_pairs", lambda a, r: (len(a["c1"].points) - 1) * (len(a["c2"].points) - 1)),
    ],
    "trimer.reconstruct_rotation": [("trimer.samples", lambda a, r: r.times.size)],
    "trimer.effective_momentum_series": [("trimer.windows", lambda a, r: r[0].size)],
}
COUNTERS = ("connection.samples", "holonomy.su2_steps", "holonomy.lines", "gates.calibration_evals",
            "linking.segment_pairs", "linking.bytes_computed", "trimer.samples", "trimer.windows")
# Peak bytes allocated inside each call, as tracemalloc sees numpy's arrays.
ALLOCATION = {"linking.gauss_linking_integral": "linking.bytes_computed"}
CALIBRATION = ("gates.synth_hadamard_gate", "gates.interaction_frame", "gates.calibration_evals")


def _targets():
    """(name, owner, attribute, raw object, function, descriptor type) for each traced callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", module, attr, obj, obj, None))
            elif inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        out.append((f"{layer}.{attr}.{meth}", obj, meth, raw, raw.__func__, type(raw)))
                    elif inspect.isfunction(raw):
                        out.append((f"{layer}.{attr}.{meth}", obj, meth, raw, raw, None))
    return out


class Tracer:
    """Context manager that traces the package's layers while it is active."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter({c: 0 for c in COUNTERS})
        self.spans: list[tuple] = []
        self._stack = [[0.0, None]]  # [child seconds, span id of the nearest recorded ancestor]
        self._open: Counter = Counter()
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- install

    def __enter__(self) -> "Tracer":
        wrappers = {}
        try:
            for name, owner, attr, raw, fn, kind in _targets():
                wrapper = self._wrap(fn, name)
                if kind is None:
                    wrappers[id(fn)] = (fn, wrapper)
                if inspect.isclass(owner):
                    self._patch(owner, attr, raw, wrapper if kind is None else kind(wrapper))
            for mod_name, module in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for attr, obj in list(vars(module).items()):
                        found = wrappers.get(id(obj))
                        if found is not None and found[0] is obj:
                            self._patch(module, attr, obj, found[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- wrappers

    def _wrap(self, fn, name: str):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        if name in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
            return hot

        hooks = COUNTS.get(name, [])
        signature = inspect.signature(fn) if hooks else None
        alloc_counter = ALLOCATION.get(name)
        spans, opened, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, span_id]
            parent = stack[-1][1]
            stack.append(frame)
            opened[name] += 1
            if alloc_counter:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if alloc_counter:
                    counts[alloc_counter] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                dur = t1 - t0
                opened[name] -= 1
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                spans[span_id] = (span_id, parent, self.run_id, name, t0, t1)
            if hooks:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, amount in hooks:
                    counts[counter] += amount(bound.arguments, result)
            if name == CALIBRATION[1] and opened[CALIBRATION[0]]:
                counts[CALIBRATION[2]] += 1
            return result

        return traced

    # -------------------------------------------------------------- results

    def layers(self) -> dict[str, dict]:
        """Calls and self seconds per layer."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, (calls, _total, self_s) in self.stats.items():
            layer = out[name.split(".", 1)[0]]
            layer["calls"] += calls
            layer["self_s"] += self_s
        return out

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names)
