"""contactlab benchmark: one workload, in this process, for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload lift2_round --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics from the traced ones, the tracing overhead, and the measured gap
between traced and untraced passes, and writes the spans to
``perfbench/out/``. Every op's output is checked
against ``perfbench/refs/``. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Set-up is probed in two groups, before and after the measured window, so
# the median spans the host's drift over the run rather than one moment.
SETUP_PROBES = 8
# Three passes at least, so the median op time of an orbit workload is not
# the mean of two and one slow op on the shared host does not set it.
MIN_PASSES = 3
MIN_GAP_PAIRS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def prepare_environment() -> int:
    """Cap BLAS/OpenMP pools at nproc and import contactlab from ./src.

    Must run before numpy is imported. Exits non-zero, printing no result,
    when the checkout holds no contactlab sources.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    pkg = ROOT / "src" / "contactlab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no contactlab sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import contactlab

    if Path(contactlab.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported contactlab from {contactlab.__file__}")
    return nproc


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the moment it could
    send its first op (imports, config load and validation, map and form)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"benchmark: set-up probe failed with exit code {code}")
    return elapsed


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(wl, refs, seconds: float, tracer=None) -> list[dict]:
    """Closed loop of whole passes until the next pass would overrun.

    With a tracer, odd passes run traced and even passes untraced.
    """
    from refcheck import mismatches

    records: list[dict] = []
    pass_walls: list[float] = []
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = tracer is not None and n_pass % 2 == 1
        t_pass = time.perf_counter()
        for i in range(wl.ops_per_pass):
            op_id = len(records)
            cpu0 = _cpu_seconds()
            if traced:
                tracer.op_id = op_id
                with tracer.installed(), tracer.span("bench.op"):
                    res = wl.run_op(i)
            else:
                res = wl.run_op(i)
            cpu = _cpu_seconds() - cpu0
            name, flow = wl.tolerance_key(i)
            errors = [res.error] if res.error else mismatches(res.output, refs[name], flow)
            records.append({
                "op": op_id, "pass": n_pass, "name": name, "traced": traced,
                "wall": res.wall, "cpu": cpu, "raised": res.error is not None,
                "errors": errors, "point_steps": wl.op_point_steps(i),
                "artifact_bytes": res.artifact_bytes, "tasks": res.tasks,
            })
        pass_walls.append(time.perf_counter() - t_pass)
        n_pass += 1
        elapsed = time.perf_counter() - start
        if n_pass >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            return records


def per_pass_samples(records, ops_per_pass):
    """(seconds per op, point steps per second) samples, one per op on the
    orbit workloads and one per pass on runner3_suite, whose four ops differ
    by design: there a sample is the pass's mean op time."""
    groups: dict[int, list[dict]] = {}
    for r in records:
        groups.setdefault(r["pass"] if ops_per_pass > 1 else r["op"], []).append(r)
    times, rates = [], []
    for ops in groups.values():
        wall = sum(r["wall"] for r in ops)
        times.append(wall / len(ops))
        rates.append(sum(r["point_steps"] for r in ops) / wall)
    return times, rates


def tail_percentile(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            best = (p, cuts[int(p * 10) - 1])
    return best


def end_to_end(records, ops_per_pass, setup_samples) -> dict:
    times, rates = per_pass_samples(records, ops_per_pass)
    failed = sum(1 for r in records if r["errors"])
    return {
        "setup_s": statistics.median(setup_samples),
        "time_to_verdict_s": statistics.median(times),
        "point_steps_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": (len(records) - failed) / len(records),
    }, times


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    10 000 calls each, median of 5 rounds, timed in this process."""
    from spans import Tracer

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrapper("calibrate", noop)
    calls, costs = 10000, []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def per_layer(records, tracer) -> dict:
    from spans import layer_totals

    traced = [r for r in records if r["traced"]]
    n = len(traced)
    names = [m["name"] for m in SPEC["per_layer"]]
    tot = layer_totals(tracer.spans, [r["op"] for r in traced], names)
    out = {}
    for key in names:
        if key in ("dissipation.step_s", "dissipation.state_bytes"):
            out[key] = tot[key]
        elif key in tot:
            out[key] = tot[key] / n
    out["report.load_config.self_s"] = sum(
        s[2] - s[1] for s in tracer.spans if s[4] == -1 and s[0] == "report.load_config"
    )
    wall = sum(r["wall"] for r in traced)
    cpu = sum(r["cpu"] for r in traced)
    out["report.artifact_bytes"] = sum(r["artifact_bytes"] for r in traced) / n
    out["report.tasks"] = sum(r["tasks"] for r in traced) / n
    out["process.cpu_s"] = cpu / n
    out["process.cpu_util"] = cpu / wall
    out["trace.op_wall_s"] = wall / n
    out["trace.unattributed_s"] = tot["bench.op.self_s"] / n
    # Computed, not measured: spans per op times the calibrated cost of one.
    out["trace.overhead_s"] = tot["spans"] / n * span_cost()
    return {key: out[key] for key in names}


def measured_gap(records, ops_per_pass) -> str:
    """Traced minus untraced mean op time over adjacent (untraced, traced)
    pass pairs; unresolved when there are too few pairs to see past drift."""
    passes: dict[int, list[float]] = {}
    for r in records:
        passes.setdefault(r["pass"], []).append(r["wall"])
    gaps = [
        (sum(passes[p + 1]) - sum(passes[p])) / ops_per_pass
        for p in range(0, len(passes) - 1, 2)
    ]
    text = (f"measured traced-minus-untraced gap per op: median "
            f"{statistics.median(gaps):.6g} s over {len(gaps)} pass pairs")
    if len(gaps) < MIN_GAP_PAIRS:
        return text + f" (unresolved: fewer than {MIN_GAP_PAIRS} pairs)"
    q1, _, q3 = statistics.quantiles(gaps, n=4)
    return text + f", quartiles {q1:.6g} .. {q3:.6g} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = prepare_environment()
    import workloads

    wl = workloads.Workload(args.workload)
    paths = wl.input_paths(args.seed)
    if args.setup_probe:
        wl.setup(paths)
        print("ready", flush=True)
        return 0

    from refcheck import load_refs

    refs = load_refs(args.workload)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            wl.setup(paths)
    else:
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        wl.setup(paths)
    records = measure(wl, refs, args.seconds, tracer)
    if not args.trace:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    failed = [r for r in records if r["errors"]]
    for msg in sorted({f"{r['name']}: {r['errors'][0]}" for r in failed}):
        print(f"failed op: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops, "
          f"{len(failed)} failed (failed_ops_frac {len(failed) / len(records):.4g}); "
          f"BLAS/OpenMP threads capped at {nproc}")
    if args.trace:
        metrics = per_layer(records, tracer)
        print(measured_gap(records, wl.ops_per_pass))
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        spans_path = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, times = end_to_end(records, wl.ops_per_pass, setup_samples)
        tail = tail_percentile(times)
        print(f"time_to_verdict_s: {len(times)} samples"
              + (f", p{tail[0]:g} {tail[1]:.6g} s" if tail else
                 ", too few for a tail percentile"))
    for key, value in metrics.items():
        note = " (computed from array sizes)" if key == "dissipation.state_bytes" else ""
        print(f"{key} {value:.6g} {UNITS[key]}{note}")
    result = {
        "correct": not any(r["errors"] and not r["raised"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
