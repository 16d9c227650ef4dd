"""Compare one op's outputs with the references stored in ``refs/``.

The references were generated at the seed commit by ``make_refs.py``.
Tolerances admit the planned closed-form cocycle (at most 1.1e-14 from the
jet r_k on lifts) and, on flows, RK4's O(h^4) gap of about 9e-9 per orbit
step at 64 integration steps; they still reject a wrong verdict or an r_K
off by 1e-6 relative.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

REL = 1e-12  # round-off on lifts and shears, relative to max(1, |ref|)
FLOW_STEP_ATOL = 2e-8  # per orbit step on maps with a ContactFlow: 2x the RK4 gap
LYAP_REL = 1e-9
GROWTH_ATOL = 1e-6  # sampled-class growth rate against log(spectral radius)


def load_refs(workload: str) -> dict:
    return json.loads((REFS / f"{workload}.json").read_text())


def _close(value, ref, atol) -> bool:
    return value is not None and abs(value - ref) <= REL * max(1.0, abs(ref)) + atol


def mismatches(out: dict, ref: dict, flow: bool) -> list[str]:
    """Every way ``out`` differs from ``ref``; empty when the op is correct."""
    step_atol = FLOW_STEP_ATOL if flow else 0.0
    errs = []
    r, r_ref = out.get("r_series"), ref["r_series"]
    if r is None or len(r) != len(r_ref):
        errs.append("r_series missing or of the wrong length")
    else:
        for k, (a, b) in enumerate(zip(r, r_ref), start=1):
            if not _close(a, b, k * step_atol):
                errs.append(f"r_{k} = {a!r}, reference {b!r}")
                break
    if not _close(out.get("chi_hat"), ref["chi_hat"], 8 * step_atol):
        errs.append(f"chi_hat = {out.get('chi_hat')!r}, reference {ref['chi_hat']!r}")
    for key in ("verdict", "bound_pass", "homology", "duality_pass"):
        if key in ref and out.get(key) != ref[key]:
            errs.append(f"{key} = {out.get(key)!r}, reference {ref[key]!r}")
    if not _close(out.get("s_target"), ref["s_target"], 0.0):
        errs.append(f"s_target = {out.get('s_target')!r}, reference {ref['s_target']!r}")
    if "lyap_hat" in ref:
        lyap = out.get("lyap_hat")
        if lyap is None or not abs(lyap - ref["lyap_hat"]) <= LYAP_REL * abs(ref["lyap_hat"]):
            errs.append(f"lyap_hat = {lyap!r}, reference {ref['lyap_hat']!r}")
    errs.extend(_growth_mismatches(out, ref))
    return errs


def _growth_mismatches(out, ref) -> list[str]:
    """Rates of fixed-class growth tasks match the reference; every abelian
    rate, sampled classes included, matches log(spectral radius)."""
    errs = []
    got = out.get("growth", [])
    want = ref.get("growth", [])
    if len(got) != len(want):
        return [f"{len(got)} growth results, reference {len(want)}"]
    log_rho = None
    if "homology" in ref:
        log_rho = math.log(max(abs(np.linalg.eigvals(np.array(ref["homology"], float)))))
    for i, (g, w) in enumerate(zip(got, want)):
        if g["mode"] != w["mode"]:
            errs.append(f"growth[{i}] mode {g['mode']!r}, reference {w['mode']!r}")
        elif w["rate"] is not None and not _close(g["rate"], w["rate"], 0.0):
            errs.append(f"growth[{i}] rate {g['rate']!r}, reference {w['rate']!r}")
        elif g["mode"] == "abelian" and log_rho is not None and not (
            abs(g["rate"] - log_rho) <= GROWTH_ATOL
        ):
            errs.append(f"growth[{i}] rate {g['rate']!r}, log spectral radius {log_rho!r}")
    return errs
