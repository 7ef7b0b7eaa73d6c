"""Measure the benchmark over several seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 10             # all workloads
    python3 perfbench/baseline.py --seeds 5 --workload or-transient \\
        --no-write                                        # spread only

Runs every workload once per seed (``--trace 0``, each a fresh
process), prints each end-to-end metric's median, quartiles and
spread (interquartile distance over the median, the figure its bound
in ``BENCHMARK.json`` is compared with) and flags a spread above a
third of its bound.  Unless ``--no-write`` is given it then runs one
traced pass per workload for the per-layer table and writes
``perfbench/baseline.json``: the parent figures a later change is
compared against, with the layer map and the environment they were
measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = done.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    result["returncode"] = done.returncode
    return result


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    baseline = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                "measured": time.strftime("%Y-%m-%d"),
                "layers": tracing.LAYERS, "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"], 0)
                for seed in seeds]
        entry = {"why": next(w["why"] for w in spec["workloads"]
                             if w["name"] == name),
                 "failed_frac": sum(r["failed"] for r in runs)
                 / sum(r["attempted"] for r in runs),
                 "all_correct": all(r["correct"] and not r["returncode"]
                                    for r in runs),
                 "end_to_end": {}}
        ok = ok and entry["all_correct"]
        print(f"== {name}: {len(runs)} runs, correct "
              f"{entry['all_correct']}, failed_frac "
              f"{entry['failed_frac']:.3g}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = spread(values)
            entry["end_to_end"][metric["name"]] = stats
            flag = ("" if stats["spread"] <= bounds[metric["name"]] / 3
                    else "  <-- above a third of its bound")
            print(f"  {metric['name']:12s} median {stats['median']:.6g} "
                  f"{metric['unit']}  q1 {stats['q1']:.6g}  q3 "
                  f"{stats['q3']:.6g}  spread {stats['spread']:.3f} "
                  f"(bound {bounds[metric['name']]}){flag}")
        # The same runs in unscaled host seconds: how much the host-speed
        # scaling narrows each spread.
        for metric in runs[0]["details"]["host_seconds"]:
            stats = spread([r["details"]["host_seconds"][metric]
                            for r in runs])
            entry["end_to_end"][metric]["host_seconds"] = stats
            print(f"  {metric:12s} in host seconds: median "
                  f"{stats['median']:.6g}  spread {stats['spread']:.3f}")
        if not args.no_write:
            traced = run_once(name, seeds[0], spec["run_seconds"], 1)
            ok = ok and traced["correct"]
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v
                                  in traced["metrics"].items()}
            entry["layer_self_s"] = traced["details"]["layer_self_s"]
            print(f"  traced: correct {traced['correct']}, overhead "
                  f"{entry['per_layer']['bench.trace_overhead_frac']:+.3f}")
        entry["environment"] = runs[0]["details"]["environment"]
        baseline["workloads"][name] = entry
    if not args.no_write:
        with open(os.path.join(HERE, "baseline.json"), "w") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
