"""Run every workload on ten seeds, twice, and write the baseline to baseline.json.

Run from the repository root (about 40 minutes):

    python3 perfbench/baseline.py

Each workload named in BENCHMARK.json gets two sets of untraced runs with
seeds 1..10 and one traced run with seed 1, all of ``run_seconds``. For every
end-to-end metric and each set the file holds the median, the quartiles and
the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), and the relative change of
the median from the first set to the second; for the traced run it holds the
per-layer table; and it records the machine. A spread at or above a third of
the metric's bound, or a median change beyond the bound, is flagged and makes
the script exit 1.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    import numpy

    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except FileNotFoundError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu": caches.get("Model name"),
        "l2_cache": caches.get("L2 cache"),
        "l3_cache": caches.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_openmp_thread_cap": nproc,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    result = {"machine": machine(), "run_seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        sets = [[run_once(name, seed, seconds, 0) for seed in SEEDS] for _ in range(SETS)]
        traced = run_once(name, 1, seconds, 1)
        runs = [r for runs in sets for r in runs]
        entry = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failed_ops_frac": summarize([r["failed"] / r["attempted"] for r in runs]),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, bound in bounds.items():
            per_set = [summarize([r["metrics"][metric]["value"] for r in runs])
                       for runs in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            change = (last - first) / first
            worse = change if better[metric] == "lower" else -change
            entry["end_to_end"][metric] = {"sets": per_set, "median_change": change}
            flags = [f"set {i + 1} spread above bound/3"
                     for i, s in enumerate(per_set) if s["spread"] >= bound / 3]
            if worse > bound:
                flags.append("median change beyond bound")
            steady = steady and not flags
            spreads = " ".join(f"{s['spread']:.4f}" for s in per_set)
            print(f"{name:14s} {metric:18s} medians {first:.6g} -> {last:.6g} "
                  f"({change:+.4f})  spreads {spreads}  bound {bound}"
                  + "".join(f"  [{f}]" for f in flags), flush=True)
        result["workloads"][name] = entry
    out = BENCH / "baseline.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
