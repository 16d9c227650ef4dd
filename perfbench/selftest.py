"""Show that the reference check fails when it should and passes when it should.

Run from the repository root (about 2 s):

    python3 perfbench/selftest.py

Real outputs of the three bundled configs are checked against their stored
references, then against references with a wrong verdict or with r_K moved by
1e-3 or 1e-6 relative (each must fail). Every stored reference is also
checked against itself shifted by the largest gap the planned closed-form
cocycle may introduce (each must pass). Exits 1 if any expectation fails.
"""
from __future__ import annotations

import copy
import math
import sys

import numpy as np

import run

run.prepare_environment()

import refcheck  # noqa: E402
import workloads  # noqa: E402

RK4_GAP = 9e-9  # per orbit step at 64 RK4 steps
CLOSED_FORM_GAP = 1.1e-14
OTHER_VERDICT = {"Hyperbolic": "Elliptic-consistent"}


def perturbations(ref):
    """(label, perturbed reference) pairs that the check must reject."""
    r_k = ref["r_series"][-1]
    moved = []
    for rel in (1e-3, 1e-6):
        if abs(r_k) * rel > 1e-9:
            bad = copy.deepcopy(ref)
            bad["r_series"][-1] = r_k * (1 + rel)
            moved.append((f"r_K * (1 + {rel:g})", bad))
    bad = copy.deepcopy(ref)
    bad["verdict"] = OTHER_VERDICT.get(ref["verdict"], "Hyperbolic")
    return moved + [("wrong verdict", bad)]


def as_output(ref, flow):
    """The reference as an op output shifted by the admitted cocycle gap."""
    out = copy.deepcopy(ref)
    gap = RK4_GAP if flow else CLOSED_FORM_GAP
    out["r_series"] = [r + k * gap for k, r in enumerate(ref["r_series"], start=1)]
    out["chi_hat"] = ref["chi_hat"] + gap
    if "homology" in ref:
        log_rho = math.log(max(abs(np.linalg.eigvals(np.array(ref["homology"], float)))))
        for g in out["growth"]:
            if g["rate"] is None:
                g["rate"] = log_rho
    return out


def main() -> int:
    failures = 0

    def expect(ok, label):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}")

    runner = workloads.Workload("runner3_suite")
    runner.setup(runner.input_paths(0))
    runner_refs = refcheck.load_refs("runner3_suite")
    for i in range(3):
        name, flow = runner.tolerance_key(i)
        res = runner.run_op(i)
        ref = runner_refs[name]
        expect(not res.error and not refcheck.mismatches(res.output, ref, flow),
               f"{name}: real output matches its reference")
        for label, bad in perturbations(ref):
            expect(bool(refcheck.mismatches(res.output, bad, flow)),
                   f"{name}: real output rejected against reference with {label}")

    for workload in workloads.WORKLOADS:
        for name, ref in refcheck.load_refs(workload).items():
            flow = workload == "flow2_trig"
            out = as_output(ref, flow)
            expect(not refcheck.mismatches(out, ref, flow),
                   f"{name}: reference shifted by the admitted cocycle gap passes")
            for label, bad in perturbations(ref):
                expect(bool(refcheck.mismatches(out, bad, flow)),
                       f"{name}: shifted reference rejected against reference with {label}")
    print(f"{failures} unexpected results")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
