"""The repository benchmark: one workload per run, in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload sram-fold --seed 1 --seconds 10
    python3 perfbench/run.py --workload service-mixed --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1      # each in turn

``--trace 0`` (the default) measures the end-to-end metrics with no
tracing: set-up time, items per second, item latency and peak memory.
Every process of a run is pinned to one CPU, and times are scaled to
seconds of a reference host by a probe on that CPU that samples how
contended the shared host is (see ``HostSpeed``); the unscaled
host-second figures are in the details line.
``--trace 1`` runs a fixed number of rounds untraced, then the same
number with span recorders on every layer's entry points, and prints
the per-layer metrics, the tracing overhead and a Chrome trace under
``.perfbench_out/``.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The line before it carries the
details: environment, sample counts, hit share and every check.  The
exit status is 0 only when every correctness check passed.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threading before numpy loads, identically on every commit.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("sram-fold", "or-transient", "mc-ensemble",
                  "service-mixed")
#: Set-up is measured in this many fresh processes; the median counts.
SETUP_PROBES = 5
#: Seconds between two host-speed probes.
PROBE_PERIOD_S = 0.05
#: CPU seconds of one host-speed probe on the reference host (about
#: the benchmark host's typical reading); end-to-end times are
#: reported in seconds of that host.
PROBE_REF_S = 1.75e-4
#: Per-layer figures are read from spans and telemetry in the traced
#: run; end-to-end figures never are.
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
         "item_p90_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _prepare() -> None:
    """Make the program importable from the checkout, or refuse."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program sources at {SRC}; run from a full checkout")
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _workdir() -> str:
    path = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    # Engine, cache and service state of this run stay in this
    # directory; a warm user cache would replay old numbers.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(path, "cache")
    return path


def _build(name: str, seed: int, workdir: str, **kwargs):
    import workloads
    return workloads.WORKLOADS[name](seed, workdir, **kwargs)


# -- set-up ------------------------------------------------------------------

def setup_only(args) -> int:
    """Import, build the inputs (for the service: answer /api/health),
    print the monotonic clock at that moment, then tear down."""
    workdir = _workdir()
    try:
        workload = _build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(ready))
    return 0


def measure_setup(args, host: HostSpeed) -> list:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, each from
    just before its spawn to its inputs being ready, as
    ``(host seconds, reference-host seconds)``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, timeout=120, check=True)
        seconds = float(done.stdout.decode().split()[-1]) - start
        samples.append((seconds, seconds / host.slowdown(
            t0, t0 + seconds)))
    return samples


# -- measured runs -----------------------------------------------------------

def run_rounds(workload, rounds=None, seconds=None, tracer=None):
    """Run rounds, a fixed number or until ``seconds`` have passed (and
    the workload's minimum rounds and items are reached); returns a
    ``(calls, seconds, start)`` triple per round."""
    done = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and not workload.threaded:
            with tracer.span("bench.round", "bench"):
                calls = workload.round(len(done), tracer)
        else:
            calls = workload.round(len(done), tracer)
        done.append((calls, time.perf_counter() - t0, t0))
        if rounds is not None:
            if len(done) >= rounds:
                return done
        elif (time.perf_counter() - start >= seconds
              and len(done) >= workload.min_rounds
              and sum(c.items for calls, _, _ in done for c in calls)
              >= workload.min_items):
            return done


class HostSpeed:
    """How fast this run's CPU executes code right now, sampled on a
    thread.

    The benchmark host is shared: other tenants' work slows each of its
    CPUs, independently, by up to 2x for stretches of seconds to
    minutes, which no amount of repetition inside one run averages out.
    Every process of a run is therefore pinned to one CPU (see
    :func:`pin_cpu`), and every ``PROBE_PERIOD_S`` a thread on that CPU
    times a fixed interpreter loop in its own CPU time, so waiting for
    the CPU or the interpreter lock does not count but a contended core
    does.  :meth:`slowdown` says how much slower than the reference
    host the probe ran over an interval; dividing a measured duration
    by it gives seconds of the reference host.  Only a second pass of
    the loop is timed, after the first has refilled the caches the
    program evicted, so the program's own memory traffic does not move
    the probe and a change to the program shows in full.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            # The first pass refills the caches the program evicted,
            # so the program's footprint does not move the timed pass.
            for _ in range(2):
                start = time.thread_time()
                x = 0
                for i in range(2000):
                    x += i * i % 7
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - start))

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time over ``[start, end]`` (the nearest sample
        if none fell inside) relative to the reference host."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples,
                          key=lambda s: abs(s[0] - middle))[1]]
        return statistics.median(inside) / PROBE_REF_S

    def scale(self, rounds) -> list:
        """``rounds`` with each round's duration, and the latency of
        each of its calls, in seconds of the reference host."""
        out = []
        for calls, secs, t0 in rounds:
            k = self.slowdown(t0, t0 + secs)
            out.append(([dataclasses.replace(c, seconds=c.seconds / k)
                         for c in calls], secs / k, t0))
        return out


def pin_cpu() -> int:
    """Pin this process, and every thread and process it starts from
    now on, to the highest-numbered CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _rate(rounds) -> float:
    """Median of the rounds' items per second."""
    return statistics.median(sum(c.items for c in calls) / secs
                             for calls, secs, _ in rounds)


def _latencies(rounds) -> list:
    """Every item's latency: each call's, once per item in it."""
    return [c.seconds for calls, _, _ in rounds for c in calls
            for _ in range(c.items)]


def _verdict(calls, checks):
    attempted = sum(c.items for c in calls)
    failed = sum(c.failed for c in calls)
    failed += sum(c.items for c in checks if not c.ok)
    failed = min(failed, attempted)
    correct = failed == 0 and all(c.ok for c in checks)
    return correct, attempted, failed


def _peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + getattr(workload, "peak_rss_kb", 0)) / 1024.0


def end_to_end(args) -> bool:
    with HostSpeed() as host:
        setup = measure_setup(args, host)
        workdir = _workdir()
        workload = _build(args.workload, args.seed, workdir)
        try:
            rounds = run_rounds(workload, seconds=args.seconds)
        finally:
            workload.close()
    checks = workload.checks()
    correct, attempted, failed = _verdict(
        [c for calls, _, _ in rounds for c in calls], checks)
    scaled = host.scale(rounds)
    latencies, raw_latencies = _latencies(scaled), _latencies(rounds)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "items_per_s": _rate(scaled),
        "item_p50_s": statistics.median(latencies),
        "item_p90_s": _percentile(latencies, 0.9),
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    details = {"cpu": args.cpu,
               "host_slowdown": [secs / ref for (_, secs, _), (_, ref, _)
                                 in zip(rounds, scaled)],
               "host_seconds": {
                   "setup_s": statistics.median(s for s, _ in setup),
                   "items_per_s": _rate(rounds),
                   "item_p50_s": statistics.median(raw_latencies),
                   "item_p90_s": _percentile(raw_latencies, 0.9)},
               "setup_samples_s": [s for s, _ in setup],
               "round_s": [secs for _, secs, _ in rounds],
               "latency_samples": len(latencies), **workload.notes}
    if hasattr(workload, "hit_share"):
        details["cache_hit_share"] = workload.hit_share()
    return _report(correct, attempted, failed, metrics, UNITS, checks,
                   details, workdir)


def traced(args) -> bool:
    with HostSpeed() as host:
        return _traced(args, host)


def _traced(args, host: HostSpeed) -> bool:
    import workloads
    from repro.engine.telemetry import SESSION, SolveStats, collecting

    workdir = _workdir()
    name, seed = args.workload, args.seed
    service = name == "service-mixed"
    spans_out = os.path.join(workdir, "server-spans.json")

    workload = _build(name, seed, workdir)
    try:
        rounds_u = run_rounds(workload, rounds=workload.trace_rounds)
    finally:
        workload.close()
    all_checks = workload.checks()

    tracer = tracing.Tracer()
    if service:
        # A second service, launched with the recorders installed, on
        # a fresh store and cache, runs the same rounds.
        os.makedirs(os.path.join(workdir, "traced"), exist_ok=True)
        workload = _build(name, seed, os.path.join(workdir, "traced"),
                          traced_server=True, spans_out=spans_out)
    else:
        workload = _build(name, seed, workdir)
    tracing.install(tracer, extra_modules=[workloads])
    stats = SolveStats()
    first_record = len(SESSION.records)
    try:
        with collecting(stats):
            phase_start = time.perf_counter()
            rounds_t = run_rounds(workload, rounds=workload.trace_rounds,
                                  tracer=tracer)
            phase_wall = time.perf_counter() - phase_start
        spans = list(tracer.spans)
    finally:
        workload.close()
    records = list(SESSION.records[first_record:])
    all_checks += workload.checks()

    server = {"spans": [], "records": []}
    if service:
        with open(spans_out) as handle:
            server = json.load(handle)
        server["spans"] = [tuple(s) for s in server["spans"]]
        from repro.engine.telemetry import JobRecord
        records += [JobRecord.from_dict(r) for r in server["records"]]
    for record in records:
        stats.merge(record.solves)

    layer_self, name_self, calls = tracing.self_times(spans)
    # Wall time the root spans should cover, timed outside the tracer:
    # the traced phase, once per client thread on the service.
    wall = phase_wall * (workload.CLIENTS if workload.threaded else 1)
    attributed = sum(v for k, v in layer_self.items() if k != "bench")
    errors = tracing.coverage_errors(
        name, spans + server["spans"], layer_self, wall,
        _bounds()["items_per_s"])
    if server["spans"]:
        s_layer, s_name, s_calls = tracing.self_times(server["spans"])
        for table, extra in ((layer_self, s_layer), (name_self, s_name),
                             (calls, s_calls)):
            for key, value in extra.items():
                table[key] = table.get(key, 0) + value

    rate_u = _rate(host.scale(rounds_u))
    rate_t = _rate(host.scale(rounds_t))
    metrics = layer_metrics(spans + server["spans"], layer_self,
                            name_self, calls, stats, records, workload)
    metrics.update({
        "bench.wall_s": phase_wall,
        "bench.other_s": layer_self.get("bench", 0.0),
        "bench.coverage_frac": attributed / wall,
        "bench.spans": len(spans) + len(server["spans"]),
        "bench.items_per_s_untraced": rate_u,
        "bench.items_per_s_traced": rate_t,
        "bench.trace_overhead_frac": rate_u / rate_t - 1.0,
    })
    checks = all_checks + [workloads.Check(f"trace: {e}", False, 0)
                           for e in errors]
    correct, attempted, failed = _verdict(
        [c for calls, _, _ in rounds_u + rounds_t for c in calls], checks)
    units = {m: _unit(m) for m in tracing.PER_LAYER_METRICS}

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json.gz")
    processes = {os.getpid(): ("perfbench", spans)}
    if server["spans"]:
        processes[server["pid"]] = ("repro serve", server["spans"])
    tracing.write_chrome_trace(trace_path, processes, tracer.origin)
    details = {"trace_file": os.path.relpath(trace_path, ROOT),
               "layer_self_s": layer_self,
               "deterministic_counts": {k: metrics[k]
                                        for k in tracing.DETERMINISTIC},
               **workload.notes}
    return _report(correct, attempted, failed,
                   {m: metrics[m] for m in tracing.PER_LAYER_METRICS},
                   units, checks, details, workdir)


def _unit(metric: str) -> str:
    if "_per_s" in metric:
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "occupancy", "fill_ratio",
                        "per_iteration", "per_job")):
        return "ratio"
    if metric == "circuit.us_per_assembly":
        return "us"
    return "count"


def layer_metrics(spans, layer_self, name_self, calls, stats, records,
                  workload) -> dict:
    """The per-layer table, from spans and public telemetry."""
    assemblies = calls.get("Assembler.assemble", 0)
    ens_assemblies = calls.get("Assembler.assemble_ensemble", 0)
    assemble_total = (tracing.total_time(spans, "Assembler.assemble")
                      + tracing.total_time(spans,
                                           "Assembler.assemble_ensemble"))
    attempted_steps = (stats.steps_accepted + stats.steps_rejected_lte
                       + stats.steps_rejected_newton)
    jobs = len(records)
    hits = sum(r.cache_hit for r in records)
    service_jobs = getattr(workload, "jobs", [])
    done = len(service_jobs)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "devices.eval_s": layer_self.get("devices", 0.0),
        "circuit.assemblies": assemblies,
        "circuit.assemble_s": layer_self.get("circuit", 0.0),
        "circuit.us_per_assembly": 1e6 * ratio(
            assemble_total, assemblies + ens_assemblies),
        "circuit.ensemble_assemblies": ens_assemblies,
        "solver.newton_solves": stats.newton_solves,
        "solver.newton_iterations": stats.newton_iterations,
        "solver.newton_failures": stats.newton_failures,
        "solver.assemblies_per_iteration": ratio(
            assemblies + ens_assemblies, stats.newton_iterations),
        "solver.s": layer_self.get("solver", 0.0),
        "dc.points": calls.get("dc.operating_point", 0),
        "dc.homotopy_failures": stats.dc_failures,
        "dc.s": layer_self.get("dc", 0.0),
        "transient.runs": stats.transient_runs,
        "transient.steps_accepted": stats.steps_accepted,
        "transient.steps_rejected_lte": stats.steps_rejected_lte,
        "transient.steps_rejected_newton": stats.steps_rejected_newton,
        "transient.accept_frac": ratio(stats.steps_accepted,
                                       attempted_steps),
        "transient.s": layer_self.get("transient", 0.0),
        "ensemble.samples": stats.ensemble_samples,
        "ensemble.fallbacks": stats.ensemble_fallbacks,
        "ensemble.occupancy": ratio(stats.ensemble_active_iterations,
                                    stats.ensemble_sample_iterations),
        "ensemble.stacked_solve_s": stats.stacked_solve_time,
        "ensemble.s": layer_self.get("ensemble", 0.0),
        "backends.solve_s": layer_self.get("backends", 0.0),
        "backends.factorizations": stats.factorizations,
        "backends.dense_solves": stats.backends.get("dense", 0),
        "backends.sparse_solves": stats.backends.get("sparse", 0),
        "backends.fill_ratio": stats.fill_ratio,
        "library.self_s": layer_self.get("library", 0.0),
        "experiments.run_s": layer_self.get("experiments", 0.0),
        "engine.jobs": jobs,
        "engine.cache_hits": hits,
        "engine.cache_hit_frac": ratio(hits, jobs),
        "engine.retried_jobs": sum(r.attempts > 1 for r in records),
        "engine.failed_jobs": sum(not r.ok for r in records),
        "engine.run_jobs_s": layer_self.get("engine", 0.0),
        "cache.get_s": name_self.get("ResultCache.get", 0.0),
        "cache.put_s": name_self.get("ResultCache.put", 0.0),
        "service.submit_s": name_self.get("ServiceClient.submit", 0.0),
        "service.queue_wait_s": sum(j["queue_wait_s"]
                                    for j in service_jobs),
        "service.run_s": sum(j["run_s"] for j in service_jobs),
        "service.fetch_s": name_self.get("ServiceClient.result", 0.0),
        "service.polls_per_job": ratio(calls.get("ServiceClient.job", 0),
                                       done),
        "service.http_errors": getattr(workload, "http_errors", 0),
    }
    for strategy in ("direct", "gmin", "source", "ensemble"):
        out[f"dc.strategy.{strategy}"] = stats.strategies.get(strategy, 0)
    return out


def _report(correct, attempted, failed, metrics, units, checks, details,
            workdir) -> bool:
    shutil.rmtree(workdir, ignore_errors=True)
    # Checks repeat per round; print each once with its pass count.
    tally = {}
    for check in checks:
        passed, total = tally.get(check.name, (0, 0))
        tally[check.name] = (passed + bool(check.ok), total + 1)
    for name, (passed, total) in tally.items():
        mark = "ok  " if passed == total else "FAIL"
        print(f"  [{mark}] {name} ({passed}/{total})")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    details["environment"] = _environment()
    details["checks"] = [{"name": c.name, "ok": bool(c.ok),
                          "detail": c.detail}
                         for c in checks]
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in metrics.items()}}))
    return correct


def run_all(args) -> bool:
    """Each workload in a fresh process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE)
        lines = done.stdout.decode().splitlines()
        print("\n".join(lines[:-2]), flush=True)
        ok = ok and done.returncode == 0
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so a service subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _prepare()
    args.cpu = pin_cpu()
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return 0 if run_all(args) else 1
    ok = traced(args) if args.trace else end_to_end(args)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
