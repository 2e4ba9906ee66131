"""In-memory tracer for the benchmark's per-layer run.

The tracer wraps the public functions of each morsim layer in every
``morsim.*`` module namespace that holds them, which is where callers look
them up (``sweep`` calls ``s_pair`` through ``morsim.sweep.s_pair``, the CLI
calls ``run_sweep`` through ``morsim.cli.run_sweep``, and so on). It also
wraps ``numpy.linalg.solve`` to count the systems solved by size. Wrappers
are installed for one traced pass and removed after it, so untraced passes
run the program's own functions.

Per call it keeps a count, the inclusive time and the self time: the
call's time minus the time of the wrapped calls made directly inside it.
The layer boundaries in ``SPAN_LAYERS`` also get one span per call (id,
parent span, name, start, end, pass number); the leaf layers, called
thousands of times per pass, are only counted and timed. Everything stays
in memory until the run writes ``dump()`` to its trace file.

A function that no longer exists, or that nothing calls, reads as 0 calls.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter_ns

# (layer name, module that defines the function, attribute)
LAYERS = (
    ("cli.main", "morsim.cli", "main"),
    ("sweep.parse_config", "morsim.sweep", "parse_config"),
    ("sweep.preset", "morsim.sweep", "preset"),
    ("sweep.run_sweep", "morsim.sweep", "run_sweep"),
    ("sweep.emit", "morsim.sweep", "emit"),
    ("analytic.s_pair", "morsim.analytic", "s_pair"),
    ("lindblad.probe_response_perturbative", "morsim.lindblad", "probe_response_perturbative"),
    ("lindblad.probe_response_finite", "morsim.lindblad", "probe_response_finite"),
    ("lindblad.build_generator", "morsim.lindblad", "build_generator"),
    ("lindblad.steady_state", "morsim.lindblad", "steady_state"),
    ("observables.transmission_y", "morsim.observables", "transmission_y"),
    ("observables.transmission_x", "morsim.observables", "transmission_x"),
    ("observables.rotation_angle", "morsim.observables", "rotation_angle"),
    ("core.validate_params", "morsim.core", "validate_params"),
)
SPAN_LAYERS = frozenset({"cli.main", "sweep.parse_config", "sweep.preset",
                         "sweep.run_sweep", "sweep.emit"})
OBSERVABLES = ("observables.transmission_y", "observables.transmission_x",
               "observables.rotation_angle")
# Layers whose heap growth is measured, in a separate pass, with tracemalloc.
HEAP_LAYERS = ("sweep.run_sweep", "sweep.emit")

# The per-layer metrics a traced run reports, in order, with their units.
METRICS = (
    ("cli.main.calls", "count"), ("cli.main.s", "s"), ("cli.main.self_s", "s"),
    ("sweep.parse_config.calls", "count"), ("sweep.parse_config.s", "s"),
    ("sweep.preset.calls", "count"), ("sweep.preset.s", "s"),
    ("sweep.run_sweep.calls", "count"), ("sweep.run_sweep.s", "s"),
    ("sweep.run_sweep.self_s", "s"), ("sweep.run_sweep.heap_peak_mb", "MB"),
    ("sweep.emit.calls", "count"), ("sweep.emit.s", "s"), ("sweep.emit.bytes", "B"),
    ("sweep.emit.bytes_per_row", "B/row"), ("sweep.emit.heap_peak_mb", "MB"),
    ("analytic.s_pair.calls", "count"), ("analytic.s_pair.s", "s"),
    ("lindblad.probe_response_perturbative.calls", "count"),
    ("lindblad.probe_response_perturbative.s", "s"),
    ("lindblad.probe_response_finite.calls", "count"),
    ("lindblad.probe_response_finite.s", "s"),
    ("lindblad.probe_response_finite.self_s", "s"),
    ("lindblad.build_generator.calls", "count"), ("lindblad.build_generator.s", "s"),
    ("lindblad.steady_state.calls", "count"), ("lindblad.steady_state.s", "s"),
    ("observables.calls", "count"), ("observables.s", "s"),
    ("core.validate_params.calls", "count"), ("core.validate_params.s", "s"),
    ("core.validate_params.per_point", "calls/point"),
    ("linalg.solve.calls", "count"), ("linalg.solve.systems_3x3", "count"),
    ("linalg.solve.systems_16x16", "count"),
    ("trace.points", "count"), ("trace.passes", "count"),
    ("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"), ("trace.overhead", "ratio"),
)


def _lookup(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


def _systems(args, kwargs) -> tuple[int, int]:
    """(matrix size, number of systems) of one ``numpy.linalg.solve`` call."""
    import numpy

    shape = numpy.shape(args[0] if args else kwargs.get("a"))
    if len(shape) < 2:
        return 0, 0
    return shape[-1], math.prod(shape[:-2])


class Tracer:
    def __init__(self):
        self.passes: list[dict] = []    # per traced pass: stats and solve counts
        self.spans: list[tuple] = []    # (id, parent, name, start_ns, end_ns, pass)
        self.heap_mb: dict[str, float] = {}
        self._stats: dict[str, list[int]] = {}
        self._solves: dict[int, int] = {}
        self._frames: list[list] = []   # open calls: [child_ns, span id or None]
        self._patches: list[tuple] = []
        self._next_span = 0

    # -- installing wrappers ---------------------------------------------

    def _patch(self, original, wrapper, extra_modules=()) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "morsim" or n.startswith("morsim.")]
        for module in [*modules, *extra_modules]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def _uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        record_span = name in SPAN_LAYERS
        frames = self._frames

        def traced(*args, **kwargs):
            frame = [0, self._new_span() if record_span else None]
            frames.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, perf_counter_ns(), frames.pop())
        return traced

    def _wrap_solve(self, fn):
        timed = self._wrap("linalg.solve", fn)

        def counted(*args, **kwargs):
            size, count = _systems(args, kwargs)
            self._solves[size] = self._solves.get(size, 0) + count
            return timed(*args, **kwargs)
        return counted

    def _wrap_heap(self, name: str, fn):
        def measured(*args, **kwargs):
            # Nested in another probe, this call is part of the outer peak.
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.heap_mb[name] = max(self.heap_mb.get(name, 0.0), peak)
        return measured

    def _install(self, heap: bool) -> None:
        for name, module_name, attr in LAYERS:
            if heap and name not in HEAP_LAYERS:
                continue
            original = _lookup(module_name, attr)
            if original is not None:
                wrapper = self._wrap_heap(name, original) if heap else self._wrap(name, original)
                self._patch(original, wrapper)
        solve = _lookup("numpy.linalg", "solve")
        if solve is not None and not heap:
            self._patch(solve, self._wrap_solve(solve), [sys.modules["numpy.linalg"]])

    # -- spans and statistics --------------------------------------------

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    def _close(self, name: str, start: int, end: int, frame: list) -> None:
        duration = end - start
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = [0, 0, 0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[0]
        if self._frames:
            self._frames[-1][0] += duration
        if frame[1] is not None:
            parent = next((f[1] for f in reversed(self._frames) if f[1] is not None), None)
            self.spans.append((frame[1], parent, name, start, end, len(self.passes) + 1))

    @contextmanager
    def traced_pass(self):
        """Trace one pass: wrappers are in place only inside the block."""
        self._stats, self._solves = {}, {}
        self._install(heap=False)
        frame = [0, self._new_span()]
        self._frames.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close("bench.pass", start, perf_counter_ns(), self._frames.pop())
            self._uninstall()
            self.passes.append({"stats": self._stats, "solves": self._solves})

    @contextmanager
    def heap_pass(self):
        """Measure the heap growth inside each call of ``HEAP_LAYERS``.

        tracemalloc runs only inside those calls, so the pass costs little
        more than an untraced one where the layers are idle.
        """
        self._install(heap=True)
        try:
            yield
        finally:
            self._uninstall()

    # -- results ---------------------------------------------------------

    def metrics(self, points: int, rows: int, out_bytes: int,
                traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
        """Per-layer metrics: the median over traced passes of per-pass values."""
        per_pass = [self._pass_values(p, points) for p in self.passes]
        values = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
        values["sweep.emit.bytes"] = out_bytes
        values["sweep.emit.bytes_per_row"] = out_bytes / rows if rows else 0.0
        for name in HEAP_LAYERS:
            values[f"{name}.heap_peak_mb"] = self.heap_mb.get(name, 0.0)
        traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
        values.update({
            "trace.points": points,
            "trace.passes": len(traced_s),
            "trace.pass_s": traced,
            "trace.untraced_pass_s": untraced,
            "trace.overhead": traced / untraced - 1.0,
        })
        return {name: values[name] for name, _ in METRICS}

    @staticmethod
    def _pass_values(record: dict, points: int) -> dict[str, float]:
        stats, solves = record["stats"], record["solves"]
        values = {}
        for name in [layer for layer, _, _ in LAYERS] + ["linalg.solve"]:
            calls, ns, self_ns = stats.get(name, (0, 0, 0))
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = ns / 1e9
            values[f"{name}.self_s"] = self_ns / 1e9
        values["observables.calls"] = sum(values[f"{n}.calls"] for n in OBSERVABLES)
        values["observables.s"] = sum(values[f"{n}.s"] for n in OBSERVABLES)
        values["core.validate_params.per_point"] = values["core.validate_params.calls"] / points
        values["linalg.solve.systems_3x3"] = solves.get(3, 0)
        values["linalg.solve.systems_16x16"] = solves.get(16, 0)
        return values

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "spans": {"columns": ["id", "parent", "name", "start_ns", "end_ns", "pass"],
                      "rows": self.spans},
            "passes": [{"layers": {name: {"calls": c, "ns": ns, "self_ns": self_ns}
                                   for name, (c, ns, self_ns) in p["stats"].items()},
                        "solved_systems_by_size": p["solves"]} for p in self.passes],
            "heap_peak_mb": self.heap_mb,
        }
