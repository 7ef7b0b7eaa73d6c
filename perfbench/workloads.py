"""The four benchmark workloads, built from the paper's own experiments.

Each workload turns ``--seed`` into its inputs at set-up, then runs
*rounds*: one round is a fixed amount of work on those inputs, and
the benchmark repeats rounds until the measuring time is up.  A round
returns one :class:`Call` per result it received (a DC sweep, an
engine job of a submitted sweep, a stacked ensemble shard, a service
job), with the number of items in it and the seconds from the
submission of the request it belonged to until that result landed.
After timing, :meth:`Workload.checks` verifies the outputs.

Why these four: each optimisable layer does most of the work in one
workload and almost none in another (see ``tracing.LAYERS``).

* ``sram-fold`` crosses NEMFET pull-in/pull-out folds in DC sweeps:
  homotopy failures, pseudo-transient continuation, and about ten
  assemblies per Newton iteration.
* ``or-transient`` is adaptive transient step control on the Figure 11
  gates with no folds, through the engine with its cache off.
* ``mc-ensemble`` is the stacked lock-step ensemble path (batched LU).
* ``service-mixed`` is HTTP, the sqlite job store, queueing and the
  engine result cache, half cache reads and half cache writes.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.dc import dc_sweep
from repro.analysis.options import ensemble_override
from repro.circuit.netlist import Circuit
from repro.devices.calibration import extract_swing
from repro.devices.nemfet import Nemfet, nemfet_90nm
from repro.devices.variation import (
    VariationModel,
    applied_shifts,
    corner_shifts,
    monte_carlo_shifts,
)
from repro.engine.runner import Job, observing_progress, run_jobs
from repro.errors import ReproError
from repro.experiments.common import gate_point_task
from repro.experiments.ext_fig09_montecarlo import mc_shard_task
from repro.experiments.fig09_keeper_tradeoff import keeper_point_task
from repro.experiments.fig14_butterfly import butterfly_task
from repro.experiments.registry import run_experiment
from repro.library.dynamic_logic import DynamicOrSpec, build_dynamic_or
from repro.library.sram import SramSpec, build_vtc_circuit
from repro.library.yield_analysis import draw_shift_samples, snm_for_shift_batch
from repro.service.client import ServiceClient, ServiceError

#: Fixtures the correctness checks compare against.
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "golden")

#: Room-temperature thermionic swing limit the NEMFET must beat [mV/dec].
THERMIONIC_LIMIT_MV = 60.0


@dataclass
class Call:
    """One result received from the program: how many items it holds,
    and the seconds from submitting its request until it landed."""

    kind: str
    items: int
    seconds: float
    failed: int = 0


@dataclass
class Check:
    """One correctness check; its items count as failed when not ok."""

    name: str
    ok: bool
    items: int
    detail: str = ""


def _landed(kind: str, items: int, start: float, fn, *args):
    """Run ``fn(*args)``; return ``(value or None, Call)`` with the
    call's items landing at the time since ``start``."""
    try:
        value = fn(*args)
        failed = 0
    except ReproError:
        value, failed = None, items
    return value, Call(kind, items, time.perf_counter() - start, failed)


def _batch(jobs, group: str):
    """Submit ``[(fn, args)]`` as one engine sweep with the result cache
    off, as the experiments do; returns ``[(result, seconds from
    submission until that result landed)]``."""
    landed = {}

    def stamp(result, _group):
        landed[result.index] = time.perf_counter()

    start = time.perf_counter()
    with observing_progress(stamp):
        results = run_jobs([Job(fn, args=args, tag=f"{group}[{i}]")
                            for i, (fn, args) in enumerate(jobs)],
                           group=group, cache=None)
    return [(r, landed[r.index] - start) for r in results]


def _golden(name: str) -> Dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as handle:
        return json.load(handle)


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


class Workload:
    """Set-up builds the inputs from the seed; rounds do the work."""

    name = ""
    #: Rounds per phase of a traced run (fixed, so counts repeat).
    trace_rounds = 1
    #: Fewest rounds and items a timed run must complete.
    min_rounds = 1
    min_items = 1
    #: A round's work runs on threads of its own, each carrying its own
    #: root span, instead of on the caller's thread.
    threaded = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.notes: Dict = {}

    def round(self, index: int, tracer=None) -> List[Call]:
        raise NotImplementedError

    def checks(self) -> List[Check]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SramFold(Workload):
    """Hybrid SRAM read VTC and NEMFET gate sweep across pull-in."""

    name = "sram-fold"
    VTC_POINTS = 41

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.spec = SramSpec(variant="hybrid")
        # The seed moves the folds: the access transistor's Vth shift
        # (sigma/mu = 8 %, drawn as the yield analysis draws it) and
        # the offset of the 1 mV NEMFET gate grid.
        draw = draw_shift_samples(self.spec, sigma_rel=0.08, samples=1,
                                  seed=seed)[0]
        self.shift = {"AR": draw["AR"]}
        self.v_in = np.linspace(0.0, self.spec.vdd, self.VTC_POINTS)
        offset = float(rng.uniform(0.0, 1e-3))
        v_pi = nemfet_90nm().pull_in_voltage
        self.v_gate = np.arange(max(0.0, v_pi - 0.06) + offset,
                                v_pi + 0.04, 1e-3)
        self.notes.update(access_vth_shift_v=self.shift["AR"],
                          gate_grid_offset_v=offset,
                          gate_points=len(self.v_gate))
        self.outputs: List[Dict] = []

    # Each sweep builds its circuit, as trace_vtc and
    # measured_nemfet_swing do, so every round is the same work.
    def _vtc(self):
        circuit = build_vtc_circuit(self.spec, "right")
        with applied_shifts(circuit, self.shift):
            return dc_sweep(circuit, "VIN", self.v_in).voltage("q")

    def _swing(self):
        circuit = Circuit("nemfet_swing")
        circuit.vsource("VG", "g", "0", 0.0)
        circuit.vsource("VD", "d", "0", self.spec.vdd)
        circuit.add(Nemfet("M1", "d", "g", "0", nemfet_90nm(), width=1e-6))
        sweep = dc_sweep(circuit, "VG", self.v_gate)
        i_d = np.abs(sweep.branch_current("VD"))
        return extract_swing(self.v_gate, i_d, i_min=1e-12,
                             i_max=1e-4) * 1e3

    def round(self, index: int, tracer=None) -> List[Call]:
        # One request of three sweeps; each sweep's points land when it
        # returns.  The conventional cell is the no-fold control.
        start = time.perf_counter()
        vtc, vtc_call = _landed("hybrid-vtc", self.VTC_POINTS, start,
                                self._vtc)
        conv, conv_call = _landed("conventional-butterfly",
                                  2 * self.VTC_POINTS, start,
                                  butterfly_task, "conventional",
                                  self.VTC_POINTS)
        swing, swing_call = _landed("nemfet-swing", len(self.v_gate),
                                    start, self._swing)
        self.outputs.append({
            "vtc": vtc, "swing": swing,
            "snm_conventional": None if conv is None else conv[0]})
        return [vtc_call, conv_call, swing_call]

    def checks(self) -> List[Check]:
        golden = _golden("fig14")
        vdd = self.spec.vdd
        checks = []
        for out in self.outputs:
            snm = out["snm_conventional"]
            checks.append(Check(
                "conventional SNM matches tests/golden/fig14.json",
                snm is not None and _close(
                    snm, golden["snm_conventional_v"], 1e-6),
                2 * self.VTC_POINTS, f"{snm!r}"))
            q = out["vtc"]
            ok = q is not None
            detail = "sweep failed"
            if ok:
                drops = -np.diff(q)
                snaps = int(np.sum(drops > 0.1 * vdd))
                ok = (q[0] >= 0.95 * vdd and q[-1] <= 0.3 * vdd
                      and bool(np.all(drops >= -1e-9)) and snaps == 1)
                detail = (f"start {q[0]:.4f} V, end {q[-1]:.4f} V, "
                          f"min step {drops.min():.2e} V, snaps {snaps}")
            checks.append(Check(
                "hybrid VTC: starts near Vdd, ends low, non-increasing, "
                "one snap", ok, self.VTC_POINTS, detail))
            swing = out["swing"]
            checks.append(Check(
                "NEMFET swing below 60 mV/dec",
                swing is not None and swing < THERMIONIC_LIMIT_MV,
                len(self.v_gate), f"{swing!r} mV/dec"))
        return checks


class OrTransient(Workload):
    """Figure 11 gate transients (both styles) plus the Figure 9
    golden keeper point, submitted as one engine sweep, cache off."""

    name = "or-transient"
    FAN_INS = (4, 8, 12, 16)
    FIG09 = (8, 3.0, 0.05, 3.0, 2e-6)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        # Fan-out drawn from Figure 10's range.
        self.fan_out = float(rng.uniform(1.0, 5.0))
        self.points = [(style, fi) for fi in self.FAN_INS
                       for style in ("cmos", "hybrid")]
        self.notes.update(fan_out=self.fan_out)
        self.outputs: List[Dict] = []

    def round(self, index: int, tracer=None) -> List[Call]:
        # One sweep over both styles at each fan-in, as Figure 11
        # submits it; the Figure 9 keeper point rides at its end.
        landed = _batch([(gate_point_task, (style, fi, self.fan_out))
                         for style, fi in self.points]
                        + [(keeper_point_task, self.FIG09)],
                        "or-transient")
        calls = []
        out = {}
        for (result, seconds), key in zip(landed,
                                          self.points + ["fig09"]):
            ok = result.ok and all(np.isfinite(result.value))
            calls.append(Call(str(key), 1, seconds, int(not ok)))
            out[key] = tuple(result.value) if ok else None
        self.outputs.append(out)
        return calls

    def checks(self) -> List[Check]:
        golden = _golden("fig09")
        checks = []
        for out in self.outputs:
            for fi in self.FAN_INS:
                cmos, hybrid = out[("cmos", fi)], out[("hybrid", fi)]
                ok = (cmos is not None and hybrid is not None
                      and hybrid[2] < cmos[2])
                checks.append(Check(
                    f"fan-in {fi}: hybrid switching energy below CMOS",
                    ok, 2, f"cmos {cmos and cmos[2]!r} J, "
                           f"hybrid {hybrid and hybrid[2]!r} J"))
            value = out["fig09"]
            # The golden test's own tolerances: DC noise margin at the
            # default 1e-6, the LTE-stepped delay at 5e-3.
            ok = (value is not None
                  and _close(value[0], golden["noise_margin_v"], 1e-6)
                  and _close(value[1], golden["delay_s"], 5e-3))
            checks.append(Check("fig09 point matches tests/golden/fig09.json",
                                ok, 1, f"{value!r}"))
        return checks


class McEnsemble(Workload):
    """Stacked Monte-Carlo populations: the Figure 9 delay population
    (stacked transients) and a conventional-cell SNM population
    (stacked VTC sweeps), both sharded as the experiments shard them."""

    name = "mc-ensemble"
    trace_rounds = 2
    min_rounds = 3
    SAMPLES = 256
    SHARD = 64
    KEEPER_W = 3e-6
    SNM_POINTS = 41
    #: Adaptive-grid delays of a stacked ensemble agree with per-sample
    #: runs at the delay protocol's LTE tolerance, not bit for bit.
    DELAY_RTOL = 2e-2
    #: DC sweeps have no grid: stacked and scalar agree to solver
    #: precision.
    SNM_RTOL = 1e-6
    REFERENCE_SAMPLES = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        gate = build_dynamic_or(DynamicOrSpec(fan_in=8, fan_out=3.0,
                                              style="cmos"))
        gate.set_keeper_width(self.KEEPER_W)
        model = VariationModel(sigma_rel=0.10, n_sigma=3.0)
        devices = list(gate.pulldowns) + [gate.keeper]
        self.delay_maps = monte_carlo_shifts(model, devices, self.SAMPLES,
                                             seed)
        corner = corner_shifts(model, weak=gate.pulldowns,
                               leaky=[gate.keeper])
        self.delay_shards = [self.delay_maps[i:i + self.SHARD]
                             for i in range(0, self.SAMPLES, self.SHARD)]
        # The 3-sigma corner rides as the last sample of the last shard,
        # on the grid of the population it must bound.
        self.delay_shards[-1] = self.delay_shards[-1] + [corner]
        self.cell = SramSpec(variant="conventional")
        self.snm_maps = draw_shift_samples(self.cell, sigma_rel=0.08,
                                           samples=self.SAMPLES,
                                           seed=seed)
        self.outputs: List[Dict] = []

    def round(self, index: int, tracer=None) -> List[Call]:
        calls = []
        delays, snms = [], []
        landed = _batch([(mc_shard_task, (8, 3.0, self.KEEPER_W, shard))
                         for shard in self.delay_shards], "fig09-mc")
        for j, (result, seconds) in enumerate(landed):
            size = len(self.delay_shards[j])
            values = (np.asarray(result.value, dtype=float) if result.ok
                      else np.full(size, np.nan))
            samples = size - (j == len(landed) - 1)  # the corner
            calls.append(Call("delay-shard", samples, seconds,
                              int(np.sum(~np.isfinite(values[:samples])))))
            delays.append(values)
        shards = [self.snm_maps[i:i + self.SHARD]
                  for i in range(0, self.SAMPLES, self.SHARD)]
        landed = _batch([(snm_for_shift_batch,
                          (self.cell, shard, self.SNM_POINTS))
                         for shard in shards], "yield")
        for shard, (result, seconds) in zip(shards, landed):
            values = (np.asarray(result.value, dtype=float) if result.ok
                      else np.full(len(shard), np.nan))
            calls.append(Call("snm-shard", len(shard), seconds,
                              int(np.sum(~np.isfinite(values)))))
            snms.append(values)
        self.outputs.append({"delays": np.concatenate(delays),
                             "snm": np.concatenate(snms)})
        return calls

    def checks(self) -> List[Check]:
        checks = []
        for out in self.outputs:
            population, corner = out["delays"][:-1], out["delays"][-1]
            finite = bool(np.all(np.isfinite(out["delays"])))
            checks.append(Check(
                "3-sigma corner delay bounds the MC population, no NaN",
                finite and corner >= population.max(), self.SAMPLES,
                f"corner {corner:.6e} s, slowest sample "
                f"{np.nanmax(population):.6e} s"))
            snm = out["snm"]
            checks.append(Check(
                "SNM population finite and positive",
                bool(np.all(np.isfinite(snm)) and np.all(snm > 0)),
                self.SAMPLES, f"min {np.nanmin(snm):.6f} V"))
        # Sequential per-sample references for a fixed subset, computed
        # outside the timed region.
        k = self.REFERENCE_SAMPLES
        out = self.outputs[-1]
        with ensemble_override(False):
            ref_delay = np.asarray(mc_shard_task(
                8, 3.0, self.KEEPER_W, self.delay_maps[:k]))
            ref_snm = np.asarray(snm_for_shift_batch(
                self.cell, self.snm_maps[:k], self.SNM_POINTS))
        err = float(np.max(np.abs(out["delays"][:k] - ref_delay)
                           / np.abs(ref_delay)))
        checks.append(Check(
            f"first {k} stacked delays match the sequential reference",
            err <= self.DELAY_RTOL, k, f"max rel err {err:.2e}"))
        err = float(np.max(np.abs(out["snm"][:k] - ref_snm)
                           / np.abs(ref_snm)))
        checks.append(Check(
            f"first {k} stacked SNMs match the sequential reference",
            err <= self.SNM_RTOL, k, f"max rel err {err:.2e}"))
        return checks


def _plain(value):
    """A result-row value as the service renders it to JSON."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    return str(value)


class ServiceMixed(Workload):
    """Two closed-loop clients against a ``repro serve`` subprocess."""

    name = "service-mixed"
    trace_rounds = 5
    min_rounds = 5
    threaded = True
    min_items = 200
    CLIENTS = 2
    POINTS_PER_ROUND = 10
    POLL_S = 0.01
    JOB_TIMEOUT_S = 60.0
    ANALYTIC = (("table1", None), ("fig01", None),
                ("fig17", {"area_units": [1, 4, 16, 64],
                           "delay_budget": None}))

    def __init__(self, seed: int, workdir: str, traced_server: bool = False,
                 spans_out: Optional[str] = None):
        super().__init__(seed, workdir)
        self.spans_out = spans_out
        self.proc = None
        self.peak_rss_kb = 0
        self.lock = threading.Lock()
        self.jobs: List[Dict] = []
        self.samples: Dict[str, Dict] = {}
        self.http_errors = 0
        self._start_server(traced_server)

    # -- server lifetime --------------------------------------------

    def _start_server(self, traced: bool) -> None:
        data = os.path.join(self.workdir, "service")
        cache = os.path.join(self.workdir, "cache")
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--data-dir", data, "--cache-dir", cache,
                      "--workers", "1", "--jobs", "1",
                      "--rate", "1000000", "--burst", "1000000",
                      "--tenant-concurrency", "1000"]
        if traced:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, "-u",
                   os.path.join(here, "serve_traced.py"),
                   self.spans_out] + serve_args
        else:
            cmd = [sys.executable, "-u", "-m", "repro"] + serve_args
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        self.log = open(os.path.join(self.workdir, "server.log"), "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env)
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        address = line.split("http://", 1)[1].split("/", 1)[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        client = ServiceClient(self.host, self.port)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.health()
                break
            except OSError:
                if time.monotonic() > deadline:
                    self.close()
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_kb = int(line.split()[1])
        except OSError:
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        self.proc = None

    # -- load ---------------------------------------------------------

    def round_jobs(self, index: int) -> List[tuple]:
        """Jobs of round ``index``: fresh fig09 points, each submitted
        twice (a cache write, then, ten or more jobs later, a cache
        read), interleaved with analytic jobs."""
        rng = np.random.default_rng([self.seed, index])
        points = [{"sigma_levels": [float(rng.choice([0.05, 0.10, 0.15]))],
                   "keeper_widths": [float(10 ** rng.uniform(
                       math.log10(0.5e-6), math.log10(4e-6)))]}
                  for _ in range(self.POINTS_PER_ROUND)]
        jobs = []
        for repeat in (False, True):
            for k, params in enumerate(points):
                jobs.append(("fig09", params, repeat))
                exp, p = self.ANALYTIC[int(rng.integers(len(self.ANALYTIC)))]
                jobs.append((exp, p, False))
        return jobs

    def round(self, index: int, tracer=None) -> List[Call]:
        queue = list(enumerate(self.round_jobs(index)))
        calls: List[Call] = []

        def client_loop():
            client = ServiceClient(self.host, self.port)
            while True:
                with self.lock:
                    if not queue:
                        return
                    position, (exp, params, repeat) = queue.pop(0)
                calls.append(self._one(client, index, position, exp,
                                       params, repeat))

        def traced_loop():
            with tracer.span("bench.client", "bench"):
                client_loop()

        threads = [threading.Thread(
            target=traced_loop if tracer else client_loop)
            for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return calls

    def _one(self, client, index, position, exp, params, repeat) -> Call:
        start = time.perf_counter()
        try:
            record = client.submit(exp, params=params)
            final = client.wait(record["id"], timeout=self.JOB_TIMEOUT_S,
                                poll=self.POLL_S)
            ok = final["state"] == "succeeded"
            result = client.result(record["id"]) if ok else None
        except (ServiceError, OSError, TimeoutError):
            with self.lock:
                self.http_errors += 1
            return Call(exp, 1, time.perf_counter() - start, failed=1)
        seconds = time.perf_counter() - start
        summary = final.get("summary") or {}
        with self.lock:
            self.jobs.append({
                "experiment": exp, "repeat": repeat, "ok": ok,
                "engine_jobs": summary.get("engine_jobs", 0),
                "cache_hits": summary.get("cache_hits", 0),
                "queue_wait_s": (final["started"] or 0) - final["created"],
                "run_s": (final["finished"] or 0) - (final["started"] or 0)})
            # Keep one result of each kind from the first round for the
            # bit-identity check against a direct run.
            kind = f"{exp}{'-repeat' if repeat else ''}"
            if ok and index == 0 and kind not in self.samples:
                self.samples[kind] = {"params": params, "result": result}
        return Call(exp, 1, seconds, failed=int(not ok))

    def hit_share(self) -> float:
        fig09 = [j for j in self.jobs if j["experiment"] == "fig09"]
        engine = sum(j["engine_jobs"] for j in fig09)
        return sum(j["cache_hits"] for j in fig09) / engine if engine else 0.0

    def checks(self) -> List[Check]:
        checks = [Check("every job succeeded without an HTTP error",
                        self.http_errors == 0
                        and all(j["ok"] for j in self.jobs),
                        len(self.jobs), f"{self.http_errors} HTTP errors")]
        for kind, sample in sorted(self.samples.items()):
            exp = kind.split("-", 1)[0]
            direct = run_experiment(exp, params=sample["params"])
            rows = [[_plain(v) for v in row] for row in direct.rows]
            # JSON round-trips floats exactly, so equal rows are
            # bit-identical results.
            served = json.loads(json.dumps(sample["result"]["rows"]))
            expected = json.loads(json.dumps(rows))
            checks.append(Check(
                f"served {kind} result bit-identical to a direct run",
                served == expected, 1))
        checks.append(Check(
            "a sample of served results was compared",
            len(self.samples) >= 4, 1, f"{sorted(self.samples)}"))
        return checks


WORKLOADS = {cls.name: cls for cls in (SramFold, OrTransient, McEnsemble,
                                       ServiceMixed)}
