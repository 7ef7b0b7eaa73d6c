"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q        # about five minutes

* Two traced runs of one seed give identical deterministic counts on
  every workload, so later changes can cite them as exact counts.
* The traced runs show the contrasts the layer map predicts.
* Without the program sources the benchmark fails and prints no
  result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("sram-fold", "or-transient", "mc-ensemble", "service-mixed")
SEED = 3


def _traced(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = done.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    result["returncode"] = done.returncode
    return result


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced(w), _traced(w)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(traced_twice, workload):
    first, second = traced_twice[workload]
    assert first["correct"] and first["returncode"] == 0
    assert second["correct"] and second["returncode"] == 0
    assert (first["details"]["deterministic_counts"]
            == second["details"]["deterministic_counts"])
    assert set(first["details"]["deterministic_counts"]) \
        == set(tracing.DETERMINISTIC)


def test_predicted_contrasts(traced_twice):
    value = {w: {k: v["value"] for k, v in runs[0]["metrics"].items()}
             for w, runs in traced_twice.items()}
    assert (value["sram-fold"]["solver.assemblies_per_iteration"]
            >= 5 * value["or-transient"]["solver.assemblies_per_iteration"])
    for workload in WORKLOADS:
        samples = value[workload]["ensemble.samples"]
        hits = value[workload]["engine.cache_hits"]
        assert (samples > 0) == (workload == "mc-ensemble"), workload
        assert (hits > 0) == (workload == "service-mixed"), workload
        assert -1.0 < value[workload]["bench.trace_overhead_frac"] < 1.0


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=180)
    assert done.returncode != 0
    assert b'"correct"' not in done.stdout
