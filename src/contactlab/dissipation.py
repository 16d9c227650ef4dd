"""Dissipation sequence r_k, growth classification, Lyapunov estimates.

The max over the contact-element space is discretized on a product grid of
fiber directions and base points.  Conformal factors are accumulated along
backward orbits through the cocycle identity: the maps carry their
round-form factors in closed form, and a general form F * alpha_0 enters only
through the coboundary log F(x_k) - log F(x_0), so one orbit step is one map
application and one profile evaluation.

Every map declares how it meets translations of the base (``base_action``
in ``maps``): g(u, q + t) = (u', q' + B t, log c) for every real t supported
on its axes, with B integer.  So the orbit of (u, q + t) is the orbit of
(u, q) moved by B^k t at step k, with the same accumulated round-form
factor, and the orbits run only from the lattice rows that are 0 on those
axes: one base point when g covers every axis.  The profile, with its
positivity and finiteness check (``geometry.profile_values``), is read at
every shift t of each orbit point, which the loop carries as integer
lattice indices (B^k t mod 1), so r_k still reads every grid point; a form
that does not read q (``q_free``) needs only the zero shift.  The Lyapunov
estimate pushes ambient tangent frames through the map with jets
(``ContactMap.push_frame``), from the same reduced base rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra
from .geometry import (
    ContactForm, grid_points, profile_values, q_lattice, read_axes, sphere_grid_array,
    tangent_frame,
)
from .maps import ContactMap


class DissipationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Sampling resolution: base points per axis and fiber directions."""

    q_res: int
    fiber_res: int

    def refined(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.q_res * factor, self.fiber_res * factor)


def default_grid(n: int) -> GridSpec:
    # 64^3 base points at 256 directions is out of desk-scale reach for n=3,
    # so the base grid is coarser there; configs may override.
    return GridSpec(64, 128) if n == 2 else GridSpec(12, 256)


def default_lyapunov_grid(n: int) -> GridSpec:
    return GridSpec(8, 64) if n == 2 else GridSpec(6, 96)


def orbit_starts(n: int, grid: GridSpec, axes: frozenset):
    """Product grid over the base rows that are 0 on ``axes``, as (n, N) arrays."""
    rows = q_lattice(n, grid.q_res, frozenset(range(n)) - axes) / grid.q_res
    return grid_points(sphere_grid_array(n, grid.fiber_res), rows)


@dataclass(frozen=True)
class Thresholds:
    hyperbolic_floor: float = 0.05
    bounded_ceiling: float = 0.5
    increment_tol: float = 1e-3
    residual_frac: float = 0.10


DEFAULT_THRESHOLDS = Thresholds()


class ChiEstimate(NamedTuple):
    chi_hat: float  # least-squares slope over the last half (authoritative)
    chi_last: float  # terminal ratio r_K / K
    residual: float  # rms fit residual relative to the fitted level


# ---------------------------------------------------------------------------
# The r_k sequence
# ---------------------------------------------------------------------------

def r_sequence(
    f: ContactMap, form: ContactForm, K: int, grid: GridSpec | None = None
) -> np.ndarray:
    """Grid maximum of |accumulated log conformal factor| for k = 1..K.

    Accumulation runs along backward orbits x_0, x_1 = g(x_0), ... with
    g = f^-1.  For the form F * alpha_0 the factor of g^k at x_0 is the
    product of the round-form factors c_0(x_j), j < k, times the coboundary
    F(x_k) / F(x_0); ``apply_batch`` returns log c_0 in closed form.
    Orbits start only from the base points that are 0 on the axes of g's
    ``base_action``, and the profile is read at every shift of them along
    those axes.  A profile that comes back 0-d (round, constant, a trig
    form with no terms) reads neither: its coboundary is 0, so it is read once.
    """
    if K < 1:
        raise DissipationError("need K >= 1")
    grid = grid or default_grid(f.n)
    g = f.inverse()
    b, axes = g.base_action
    u, q = orbit_starts(f.n, grid, axes)
    # Integer lattice indices of the shifts t, 0 off the axes (only t = 0
    # when the form does not read q); step k reads the profile at B^k t.
    idx = q_lattice(f.n, grid.q_res, read_axes(form, axes))
    fixed = np.array_equal((b @ idx) % grid.q_res, idx)  # B t = t mod 1 for every t
    t = (idx / grid.q_res)[:, :, None]

    def log_profile(u, q, t):
        # (shifts, N): every grid point, with the shifts leading so the (N,)
        # accumulated factor broadcasts over them; a constant profile is 0-d.
        return np.log(profile_values(form, u[:, None, :], q[:, None, :] + t, DissipationError))

    log_f0 = log_profile(u, q, t)
    acc = np.zeros(u.shape[1])
    out = np.empty(K)
    for k in range(K):
        u, q, log_c = g.apply_batch(u, q)
        if not fixed:
            idx = (b @ idx) % grid.q_res
            t = (idx / grid.q_res)[:, :, None]
        acc += log_c
        dev = acc + (log_profile(u, q, t) - log_f0) if log_f0.ndim else acc
        r = float(np.abs(dev).max())
        if not math.isfinite(r):
            raise DissipationError(
                f"accumulated log conformal factor of the {form.kind} form "
                f"is not finite at k = {k + 1}"
            )
        out[k] = r
    return out


def chi_estimate(r_series) -> ChiEstimate:
    """Two estimators for the linear growth rate of r_k."""
    r = np.asarray(r_series, dtype=float)
    k_total = len(r)
    if k_total < 8:
        raise DissipationError("need at least 8 terms")
    start = k_total // 2
    ks = np.arange(start + 1, k_total + 1, dtype=float)
    slope, intercept = algebra.line_fit(ks, r[start:])
    fit = slope * ks + intercept
    rms = float(np.sqrt(np.mean((r[start:] - fit) ** 2)))
    level = max(float(np.mean(np.abs(fit))), 1e-12)
    return ChiEstimate(float(slope), float(r[-1] / k_total), rms / level)


def classify(r_series, est: ChiEstimate, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Growth-type verdict from r and its ``chi_estimate``; never certifies
    ellipticity, only consistency."""
    r = np.asarray(r_series, dtype=float)
    if est.chi_hat > thresholds.hyperbolic_floor and est.residual < thresholds.residual_frac:
        return "Hyperbolic"
    k_total = len(r)
    tail = r[-1] - r[max(0, (3 * k_total) // 4 - 1)]
    if float(np.max(r)) < thresholds.bounded_ceiling and tail < thresholds.increment_tol:
        return "Elliptic-consistent"
    return "Indeterminate"


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

def lyapunov_estimate(
    f: ContactMap, K: int, grid: GridSpec | None = None
) -> float:
    """(1/K) max over seeds of |log operator norm| of the tangent map of f^K.

    Each chain pushes an orthonormal frame of T(S^{n-1}) + R^n at its seed
    (``geometry.tangent_frame``) through f (``ContactMap.push_frame``), so
    the norms are those of the round metric of the ambient space.  The frame
    is rescaled by its Frobenius norm after each step and its operator norm
    is taken once, after the last: the logs of the scales telescope to
    log |Df^K|.  A scale that is not positive and finite raises
    DissipationError.

    Chains start only from the base rows that are 0 on the axes of f's
    ``base_action``, as in ``r_sequence``.  They give the same chains: along
    those axes f(u, q + t) = (u', q' + B t), so u' does not read q and
    dq'/dq = B, and the tangent map at (u, q + t) is the one at (u, q).
    When f covers every axis that is one base point and the chain depends
    on the fiber orbit alone.

    The estimate is forward-only: it chains f alone.  On the n = 3 lift of
    ``perfbench/inputs/n3_metric_lift.json`` it reads 1.1777 = log 3.247,
    the expanding rate, against s = 1.619 = -log 0.198 from the contracting
    eigenvalue, which forward chains from grid points do not reach.
    """
    if K < 8:
        raise DissipationError("need K >= 8")
    grid = grid or default_lyapunov_grid(f.n)
    u, q = orbit_starts(f.n, grid, f.base_action[1])
    frame = tangent_frame(u)
    acc = np.zeros(u.shape[1])
    for k in range(K):
        u, q, frame = f.push_frame(u, q, frame)
        norms = np.sqrt(np.einsum("ijp,ijp->p", frame, frame))
        if not (norms.min() > 0.0 and math.isfinite(norms.max())):
            raise DissipationError(f"tangent frame norm is not positive and finite at k = {k + 1}")
        if k == K - 1:  # the operator norm is at least Frobenius / sqrt(2n - 1) > 0
            norms = np.linalg.svd(np.moveaxis(frame, 2, 0), compute_uv=False)[:, 0]
        acc += np.log(norms)
        frame /= norms
    return float(np.max(np.abs(acc)) / K)


# ---------------------------------------------------------------------------
# Spectral lower bound and grid refinement
# ---------------------------------------------------------------------------

def verify_bound(
    f: ContactMap, est: ChiEstimate, verdict: str,
    declared_conservative: bool = False, tol: float = 0.05,
) -> dict:
    """Check the spectral lower bound chi >= s on the map's homology action.

    ``est`` and ``verdict`` are the ``chi_estimate`` and ``classify`` of f's
    r_k series; the check compares that fit with s and computes no r_k.
    For maps over the 2-torus the bound is taken on the base block of the
    3x3 action; for the 3-torus on the full action.
    """
    block, block_info = cohomology_block(f)
    s_target = algebra.s_value(block)
    contradiction = declared_conservative and verdict == "Hyperbolic"
    return {
        "s_target": s_target,
        "chi_hat": est.chi_hat,
        "chi_last": est.chi_last,
        "pass": bool(est.chi_hat >= s_target - tol) and not contradiction,
        "verdict": verdict,
        "conservative_contradiction": bool(contradiction),
        "note": (
            "declared-conservative map classified Hyperbolic: "
            "a conservative contactomorphism is elliptic"
            if contradiction
            else ""
        ),
        **block_info,
    }


def cohomology_block(f: ContactMap) -> tuple[algebra.IntMatrix, dict]:
    """The map's action on the first cohomology of the base torus.

    For n = 2 it is the base block of the 3x3 action, returned with the
    JSON fields of the split (the block and the fiber shears l, m); for
    n = 3 it is the full action, with no fields.
    """
    if f.n == 3:
        return f.homology_matrix, {}
    block, shear_l, shear_m = algebra.a_block(f.homology_matrix)
    return block, {"a_block": [list(r) for r in block], "l": shear_l, "m": shear_m}


def refinement_delta(
    f: ContactMap, form: ContactForm, K: int, grid: GridSpec
) -> tuple[float, float, float]:
    """r_K at the grid and at its doubling, plus the relative change."""
    coarse = float(r_sequence(f, form, K, grid)[-1])
    fine = float(r_sequence(f, form, K, grid.refined())[-1])
    denom = max(abs(fine), 1e-12)
    return coarse, fine, abs(fine - coarse) / denom
