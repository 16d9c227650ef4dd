"""Write the reference outputs in ``refs/`` that every benchmark op is checked
against. Run once from the repository root at the commit that defines them:

    python3 perfbench/make_refs.py

A runner config whose run raises (the n=3 sampled abelian growth task at the
seed commit) is re-run without the raising task; that task's reference rate
is left null, so only its seed-independent invariant is checked.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run

run.prepare_environment()

from contactlab import report  # noqa: E402

import workloads  # noqa: E402

REFS = workloads.BENCH / "refs"


def runner_ref(cfg):
    data = dict(cfg.raw)
    tasks = list(data["tasks"])
    dropped = None
    out = Path(tempfile.mkdtemp(dir=workloads.OUT))
    try:
        try:
            document = report.run(cfg, out_dir=out)
        except report.TaskError as exc:
            dropped = workloads.tasks_started(cfg, exc.task_id) - 1
            if tasks[dropped]["task"] != "growth":
                raise
            print(f"reference without task {dropped} ({exc})")
            data["tasks"] = tasks[:dropped] + tasks[dropped + 1:]
            document = report.run(report.validate_config(data), out_dir=out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ref = workloads.summarize_document(document)
    ran = iter(ref["growth"])
    ref["growth"] = []
    for i, task in enumerate(tasks):
        if task["task"] != "growth":
            continue
        mode = task.get("mode", "abelian")
        got = None if i == dropped else next(ran)
        sampled = mode == "abelian" and "classes" not in task
        rate = None if got is None or sampled else got["rate"]
        ref["growth"].append({"mode": mode, "rate": rate})
    return ref


def main():
    REFS.mkdir(exist_ok=True)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    for name, sources in workloads.WORKLOADS.items():
        wl = workloads.Workload(name)
        wl.setup(wl.input_paths(0))
        refs = {op: runner_ref(cfg) for (op, _), cfg in zip(sources, wl.configs)}
        (REFS / f"{name}.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
