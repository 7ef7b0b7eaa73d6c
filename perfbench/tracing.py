"""Span tracing of the program's layers, recorded from outside.

Nothing here edits the program.  :func:`install` replaces the public
entry points of each layer with a wrapper that records one span per
call: an id, the parent span's id, the name, the layer, start and end
(``time.perf_counter``) and the thread.  Spans are kept in memory and
written once, at exit, as Chrome trace-event JSON.

A caller that did ``from module import f`` holds its own reference
to ``f``, bound at import time, so wrapping the defining module alone
would miss it.  :func:`install` therefore rebinds every global, in
every loaded ``repro`` module and in the benchmark's own modules, that
still points at the original function.  Methods are replaced on their
class, which every instance looks up.  The coverage guard in
:func:`coverage_errors` catches a wrapper that was bypassed anyway:
a layer with zero spans on its main workload fails the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Layer -> the workloads on which it does most of the work (the
#: coverage guard's "main" workloads) and those where it should stay
#: flat, with the end-to-end metric each of its metrics moves.
LAYERS: Dict[str, Dict] = {
    "devices": {"metrics": ["devices.eval_s"],
                "moves": ["items_per_s"],
                "main": ["sram-fold", "or-transient"],
                "flat": ["service-mixed"]},
    "circuit": {"metrics": ["circuit.assemblies", "circuit.assemble_s",
                            "circuit.us_per_assembly",
                            "circuit.ensemble_assemblies"],
                "moves": ["items_per_s"],
                "main": ["sram-fold"], "flat": ["service-mixed"]},
    "solver": {"metrics": ["solver.newton_solves",
                           "solver.newton_iterations",
                           "solver.newton_failures",
                           "solver.assemblies_per_iteration", "solver.s"],
               "moves": ["items_per_s"],
               "main": ["sram-fold"], "flat": ["or-transient"]},
    "dc": {"metrics": ["dc.points", "dc.homotopy_failures",
                       "dc.strategy.direct", "dc.strategy.gmin",
                       "dc.strategy.source", "dc.strategy.ensemble",
                       "dc.s"],
           "moves": ["items_per_s"],
           "main": ["sram-fold"], "flat": ["or-transient"]},
    "transient": {"metrics": ["transient.runs", "transient.steps_accepted",
                              "transient.steps_rejected_lte",
                              "transient.steps_rejected_newton",
                              "transient.accept_frac", "transient.s"],
                  "moves": ["items_per_s"],
                  "main": ["or-transient"], "flat": ["sram-fold"]},
    "ensemble": {"metrics": ["ensemble.samples", "ensemble.fallbacks",
                             "ensemble.occupancy",
                             "ensemble.stacked_solve_s", "ensemble.s"],
                 "moves": ["items_per_s"],
                 "main": ["mc-ensemble"],
                 "flat": ["sram-fold", "or-transient", "service-mixed"]},
    "backends": {"metrics": ["backends.solve_s", "backends.factorizations",
                             "backends.dense_solves",
                             "backends.sparse_solves",
                             "backends.fill_ratio"],
                 "moves": ["items_per_s"],
                 "main": ["or-transient"], "flat": ["service-mixed"]},
    "library": {"metrics": ["library.self_s"],
                "moves": ["items_per_s", "setup_s"],
                "main": ["sram-fold", "or-transient", "mc-ensemble",
                         "service-mixed"], "flat": []},
    "experiments": {"metrics": ["experiments.run_s"],
                    "moves": ["items_per_s", "setup_s"],
                    "main": ["sram-fold", "or-transient", "mc-ensemble",
                             "service-mixed"], "flat": []},
    "engine": {"metrics": ["engine.jobs", "engine.cache_hits",
                           "engine.cache_hit_frac", "engine.retried_jobs",
                           "engine.failed_jobs", "engine.run_jobs_s"],
               "moves": ["item_p50_s", "item_p90_s", "items_per_s"],
               "main": ["service-mixed"],
               "flat": ["sram-fold", "or-transient", "mc-ensemble"]},
    "cache": {"metrics": ["cache.get_s", "cache.put_s"],
              "moves": ["item_p50_s", "item_p90_s", "items_per_s"],
              "main": ["service-mixed"],
              "flat": ["sram-fold", "or-transient", "mc-ensemble"]},
    "service": {"metrics": ["service.submit_s", "service.queue_wait_s",
                            "service.run_s", "service.fetch_s",
                            "service.polls_per_job",
                            "service.http_errors"],
                "moves": ["item_p50_s", "item_p90_s"],
                "main": ["service-mixed"],
                "flat": ["sram-fold", "or-transient", "mc-ensemble"]},
}

#: Metrics of the benchmark itself in a traced run.
BENCH_METRICS = ["bench.wall_s", "bench.other_s", "bench.coverage_frac",
                 "bench.spans", "bench.items_per_s_untraced",
                 "bench.items_per_s_traced", "bench.trace_overhead_frac"]

#: Every per-layer metric a traced run prints, in order.
PER_LAYER_METRICS = [m for spec in LAYERS.values()
                     for m in spec["metrics"]] + BENCH_METRICS

#: Counts that repeat exactly for one workload and seed.
DETERMINISTIC = ["circuit.assemblies", "circuit.ensemble_assemblies",
                 "solver.newton_solves", "solver.newton_iterations",
                 "solver.newton_failures", "dc.points",
                 "dc.homotopy_failures", "transient.runs",
                 "transient.steps_accepted", "transient.steps_rejected_lte",
                 "transient.steps_rejected_newton",
                 "backends.factorizations", "ensemble.samples",
                 "ensemble.fallbacks", "engine.jobs", "engine.cache_hits"]


class Tracer:
    """In-memory span recorder shared by every wrapper it makes."""

    def __init__(self):
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.origin = time.perf_counter()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record one span around a block."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, layer, start, end,
                               threading.get_ident()))

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans = self.spans
        ids = self._ids
        get_stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, layer, start, end,
                              threading.get_ident()))

        traced.__perfbench_original__ = fn
        return traced


# -- choosing and installing the wrappers ---------------------------------

def _import_all(package: str) -> None:
    """Import every module of ``package`` so each caller's binding exists
    before the wrappers go in."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)


def _module_functions(module) -> Iterable[Tuple[str, Callable]]:
    """Public plain functions defined in ``module`` itself."""
    for name, obj in vars(module).items():
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or hasattr(obj, "__wrapped__")
                or inspect.isgeneratorfunction(obj)):
            continue
        yield name, obj


def targets() -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, span name, layer)`` for every entry point."""
    for package in ("repro.library", "repro.experiments",
                    "repro.devices", "repro.circuit", "repro.analysis",
                    "repro.engine", "repro.service"):
        _import_all(package)
    # Packages re-export functions under their submodules' names
    # (``repro.analysis.transient``), so fetch the modules themselves.
    backends, dc, ensemble, solver, transient, runner, registry = (
        importlib.import_module(f"repro.{name}") for name in (
            "analysis.backends", "analysis.dc", "analysis.ensemble",
            "analysis.solver", "analysis.transient", "engine.runner",
            "experiments.registry"))
    from repro.circuit.batch import BatchGroup
    from repro.circuit.mna import Assembler
    from repro.engine.cache import ResultCache
    from repro.service.client import ServiceClient

    out: List[Tuple[object, str, str, str]] = [
        (Assembler, "assemble", "Assembler.assemble", "circuit"),
        (Assembler, "assemble_ensemble", "Assembler.assemble_ensemble",
         "circuit"),
        (solver, "newton_solve", "solver.newton_solve", "solver"),
        (solver, "solve_with_homotopy", "solver.solve_with_homotopy",
         "solver"),
        (backends, "solve_linear", "backends.solve_linear", "backends"),
        (dc, "operating_point", "dc.operating_point", "dc"),
        (dc, "dc_sweep", "dc.dc_sweep", "dc"),
        (transient, "transient", "transient.transient", "transient"),
        (runner, "run_jobs", "runner.run_jobs", "engine"),
        (ResultCache, "get", "ResultCache.get", "cache"),
        (ResultCache, "put", "ResultCache.put", "cache"),
        (registry, "run_experiment", "registry.run_experiment",
         "experiments"),
    ]
    for name in ("ensemble_dc", "ensemble_sweep", "ensemble_transient"):
        out.append((ensemble, name, f"ensemble.{name}", "ensemble"))
    for name in ("submit", "job", "result", "wait"):
        out.append((ServiceClient, name, f"ServiceClient.{name}",
                    "service"))
    # Batched device-group kernels: MOSFET/NEMFET groups are the device
    # models; resistor/capacitor/source groups belong to the circuit.
    pending = list(BatchGroup.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "eval" in vars(cls):
            layer = ("devices" if cls.__module__.startswith("repro.devices")
                     else "circuit")
            out.append((cls, "eval", f"{cls.__name__}.eval", layer))
    for package, layer in (("repro.library", "library"),
                           ("repro.experiments", "experiments")):
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith(package + ".") or module is None:
                continue
            if mod_name == "repro.experiments.registry":
                continue
            short = mod_name.rsplit(".", 1)[1]
            for name, _ in _module_functions(module):
                out.append((module, name, f"{short}.{name}", layer))
    return out


def install(tracer: Tracer, extra_modules: Iterable = ()) -> None:
    """Wrap every entry point and rebind every alias of it."""
    entry_points = targets()  # imports every module first
    scanned = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("repro")]
    scanned += list(extra_modules)
    for owner, attr, name, layer in entry_points:
        original = (vars(owner)[attr] if inspect.isclass(owner)
                    else getattr(owner, attr))
        if hasattr(original, "__perfbench_original__"):
            continue  # already wrapped through an alias
        wrapped = tracer.wrap(original, name, layer)
        setattr(owner, attr, wrapped)
        if inspect.isclass(owner):
            continue
        for module in scanned:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped


# -- deriving layer numbers from the spans ----------------------------------

def self_times(spans: List[Tuple]) -> Tuple[Dict[str, float],
                                             Dict[str, float],
                                             Dict[str, int]]:
    """Per-layer self time, per-name self time and per-name call count.

    A span's self time is its duration minus the durations of its
    direct children (spans whose parent is it, on the same thread).
    """
    child_time: Dict[int, float] = {}
    for sid, parent, _n, _l, start, end, _t in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    by_layer: Dict[str, float] = {}
    by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for sid, _p, name, layer, start, end, _t in spans:
        own = (end - start) - child_time.get(sid, 0.0)
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        by_name[name] = by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    return by_layer, by_name, calls


def total_time(spans: List[Tuple], name: str) -> float:
    """Summed inclusive duration of the spans called ``name``."""
    return sum(end - start for _s, _p, n, _l, start, end, _t in spans
               if n == name)


def coverage_errors(workload: str, spans: List[Tuple],
                    layer_self: Dict[str, float], wall: float,
                    tolerance: float) -> List[str]:
    """Why the traced run cannot be trusted, or an empty list.

    * every layer whose main workload this is recorded spans (or, for
      the devices layer, which has no span of its own in the engine's
      pool-free path, device-group eval spans);
    * no span has negative self time (which double-wrapping or broken
      nesting would produce);
    * the self times of all spans sum to ``wall``, the traced wall time
      timed outside the tracer (once per client thread), within
      ``tolerance``: traced-phase time that no span covers, such as
      work between or beside the root spans, leaves it short;
    * at most ``tolerance`` of that wall is the benchmark's own time
      outside every instrumented layer.
    """
    errors = []
    layers_seen = {layer for _s, _p, _n, layer, _a, _b, _t in spans}
    for layer, spec in LAYERS.items():
        if workload in spec["main"] and layer not in layers_seen:
            errors.append(f"layer '{layer}' recorded no spans on its main "
                          f"workload '{workload}'")
    negative = [name for name, value in layer_self.items()
                if value < -1e-6]
    if negative:
        errors.append(f"negative self time in layers {negative}")
    other = layer_self.get("bench", 0.0)
    attributed = sum(v for k, v in layer_self.items() if k != "bench")
    if wall <= 0 or abs(attributed + other - wall) > tolerance * wall:
        errors.append(f"layer self times sum to {attributed + other:.3f} s"
                      f" against {wall:.3f} s of traced wall")
    elif other > tolerance * wall:
        errors.append(f"{other:.3f} s of {wall:.3f} s traced wall is "
                      f"outside every instrumented layer")
    return errors


def write_chrome_trace(path: str, processes: Dict[int, Tuple[str, List]],
                       origin: float) -> None:
    """Write spans of one or more processes as Chrome trace-event JSON
    (gzip-compressed; Perfetto and chrome://tracing read it as is)."""
    events = []
    for pid, (label, spans) in processes.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for sid, parent, name, layer, start, end, tid in spans:
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "pid": pid, "tid": tid,
                           "args": {"id": sid, "parent": parent}})
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle, separators=(",", ":"))
