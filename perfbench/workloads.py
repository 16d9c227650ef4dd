"""The benchmark workloads: their inputs, set-up, one op, and the op's output.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. One op is ``report.run`` on one config; a pass runs
each of the workload's configs once (one on the orbit workloads, four on
``runner3_suite``).

``contactlab`` must be importable before this module is imported; run.py puts
the checkout's ``src`` on the path first.
"""
from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from contactlab import dissipation, report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
OUT = BENCH / "out"

# (op name, config path) per workload. Bundled configs are read in place; the
# others live with the benchmark. The orbit configs run r_sequence and then
# verify_bound with the same K, which the runner serves from the r_sequence
# series: r_sequence -> chi_estimate -> classify -> verify_bound(r_series=r).
WORKLOADS = {
    "lift2_round": (("lift2_round", INPUTS / "lift2_round.json"),),
    "flow2_trig": (("flow2_trig", INPUTS / "flow2_trig.json"),),
    "runner3_suite": (
        ("catmap", ROOT / "configs" / "catmap.json"),
        ("identity", ROOT / "configs" / "identity.json"),
        ("shear", ROOT / "configs" / "shear.json"),
        ("n3_metric_lift", INPUTS / "n3_metric_lift.json"),
    ),
}


def nominal_point_steps(cfg) -> int:
    """Grid points x orbit steps of the config's r_sequence and lyapunov work.

    verify_bound reuses the r_sequence series when the K values agree, as the
    runner does, so it adds no steps then.
    """
    n = cfg.n
    grid = cfg.grid or dissipation.default_grid(n)
    lyap = cfg.lyap_grid or dissipation.default_lyapunov_grid(n)
    total, r_k = 0, None
    for task in cfg.tasks:
        name = task["task"]
        if name == "r_sequence":
            r_k = int(task["K"])
            total += grid.q_res**n * grid.fiber_res * r_k
        elif name == "lyapunov":
            total += lyap.q_res**n * lyap.fiber_res * int(task["K"])
        elif name == "verify_bound" and int(task["K"]) != r_k:
            total += grid.q_res**n * grid.fiber_res * int(task["K"])
    return total


@dataclass
class OpResult:
    output: dict | None  # None when the op raised
    error: str | None
    wall: float
    artifact_bytes: int
    tasks: int  # runner tasks started


def has_flow(cfg) -> bool:
    return any(p.get("kind") == "contact_flow" for p in cfg.map_spec)


class Workload:
    """``report.run`` on each of the workload's configs, output redirected to
    a temporary directory.

    The workload seed replaces each config's ``seed`` field, which drives the
    sampled growth and duality classes; nothing else is changed. The orbit
    workloads have no sampled task, so the seed does not change their ops.
    """

    def __init__(self, name: str):
        self.name = name
        self.sources = WORKLOADS[name]
        self.ops_per_pass = len(self.sources)

    def input_paths(self, seed: int) -> list[Path]:
        folder = OUT / f"inputs-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, src in self.sources:
            data = json.loads(src.read_text())
            data["seed"] = seed
            dest = folder / f"{name}.json"
            text = json.dumps(data, indent=2) + "\n"
            if not dest.exists() or dest.read_text() != text:
                dest.write_text(text)
            paths.append(dest)
        return paths

    def setup(self, paths):
        """Load and validate every config; validation builds the form and
        each map primitive."""
        self.configs = [report.load_config(p) for p in paths]
        self.point_steps = [nominal_point_steps(c) for c in self.configs]

    def run_op(self, index) -> OpResult:
        cfg = self.configs[index]
        OUT.mkdir(parents=True, exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            t0 = time.perf_counter()
            try:
                document = report.run(cfg, out_dir=out_dir)
            except Exception as exc:  # a raised op is a failed op, not a crash
                tasks = tasks_started(cfg, getattr(exc, "task_id", None))
                return OpResult(None, repr(exc), time.perf_counter() - t0, 0, tasks)
            wall = time.perf_counter() - t0
            size = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return OpResult(
            summarize_document(document), None, wall, size, len(document["results"])
        )

    def tolerance_key(self, index):
        """(reference name, whether the map has a ContactFlow) of op ``index``."""
        return self.sources[index][0], has_flow(self.configs[index])

    def op_point_steps(self, index):
        return self.point_steps[index]


def tasks_started(cfg, task_id) -> int:
    for i, task in enumerate(cfg.tasks):
        if task_id in (task["task"], f"{task['task']}_{i}"):
            return i + 1
    return len(cfg.tasks)


def summarize_document(document) -> dict:
    """The checked outputs of one runner document, found by result content."""
    out: dict = {"growth": []}
    for res in document["results"].values():
        if "r_series" in res:
            out.update(r_series=res["r_series"], chi_hat=res["chi_hat"], verdict=res["verdict"])
        elif "lyap_hat" in res:
            out["lyap_hat"] = res["lyap_hat"]
        elif "periodic" in res:
            out["homology"] = res["matrix"]
        elif "s_target" in res:
            out.update(s_target=res["s_target"], bound_pass=res["pass"])
        elif "worst_margin" in res:
            out["duality_pass"] = res["pass"]
        elif res.get("mode") in ("abelian", "free"):
            out["growth"].append(
                {"mode": res["mode"], "rate": res["rate"], "classes": res.get("classes")}
            )
    return out
