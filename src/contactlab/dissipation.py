"""Dissipation sequence r_k, growth classification, Lyapunov estimates.

The max over the contact-element space is discretized on a product grid of
fiber directions and base points.  Conformal factors are accumulated along
backward orbits through the cocycle identity: the maps carry their
round-form factors in closed form, and a general form F * alpha_0 enters only
through the coboundary log F(x_k) - log F(x_0), so one orbit step is one map
application and one profile evaluation.

Base translations along an axis j act on the space of contact elements.
Every primitive declares in ``shift_axes`` the axes along which it commutes
with them: transform(u, q + t e_j) = (u', q' + t e_j, log_c) for every t.
Along the axes that every primitive of g = f^-1 declares (all axes when g
is empty), the orbit of (u, q + o) is the orbit of (u, q) shifted by o, with
the same accumulated round-form factor.  So the orbits run only from the
lattice rows whose coordinates on those axes are 0, and the profile, with
its positivity and finiteness check, is evaluated at every shift o of each
orbit point: r_k still reads every grid point.

When the form and every primitive are ``q_free`` (the fiber image, the
round-form factor and the profile read only the fiber direction), each base
point of the grid repeats the numbers of every other, so the orbit runs on
one base point and the fiber directions alone, and the profile needs no
shifts.  The Lyapunov estimate chains chart Jacobians extracted with jets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra
from .geometry import ContactForm, q_lattice, sphere_grid_array
from .maps import ContactMap, chart_jacobian_batch, homology_action


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


def grid_points(n: int, grid: GridSpec, qs: np.ndarray | None = None):
    """Product grid as (n, N) fiber-direction and base-point arrays.

    The base points are the rows of ``qs``, by default the whole lattice.
    """
    dirs = sphere_grid_array(n, grid.fiber_res)
    if qs is None:
        qs = q_lattice(n, grid.q_res)
    nd, nq = dirs.shape[0], qs.shape[0]
    u = np.repeat(dirs, nq, axis=0).T.copy()
    q = np.tile(qs, (nd, 1)).T.copy()
    return u, q


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
    Orbits start only from the base points that are 0 on the axes g
    commutes with; the profile is read at every shift of them along those
    axes.  When neither g nor the form reads q, one base point is enough.
    """
    if K < 1:
        raise DissipationError("need K >= 1")
    grid = grid or default_grid(f.n)
    g = f.inverse()
    base, shifts = _split_lattice(g, form, grid.q_res)
    u, q = grid_points(f.n, grid, base)

    def log_profile(u, q):
        # (n, shifts, N): every grid point, with the shifts as leading axis
        # so the (N,) accumulated factor broadcasts over them.
        return _log_profile(form, u[:, None, :], q[:, None, :] + shifts)

    log_f0 = log_profile(u, q)
    acc = np.zeros(u.shape[1])
    out = np.empty(K)
    for k in range(K):
        u, q, log_c = g.apply_batch(u, q)
        acc += log_c
        r = float(np.max(np.abs(acc + (log_profile(u, q) - log_f0))))
        if not np.isfinite(r):
            raise DissipationError(
                f"accumulated log conformal factor of the {_form_name(form)} "
                f"is not finite at k = {k + 1}"
            )
        out[k] = r
    return out


def _split_lattice(g: ContactMap, form: ContactForm, q_res: int):
    """Orbit base points and the profile's shifts for ``r_sequence``.

    The axes reduced are those every primitive of g commutes with, and all
    axes when neither g nor the form reads q.  Returns the lattice rows that
    are 0 on the reduced axes, and as an (n, M, 1) array the rows that are 0
    on the other axes; a form that does not read q needs only the zero shift.
    """
    n = g.n
    reduced = frozenset(range(n))
    if not (form.q_free and all(p.q_free for p in g.primitives)):
        reduced = reduced.intersection(*(p.shift_axes for p in g.primitives))
    base = _sublattice(n, q_res, frozenset(range(n)) - reduced)
    shifts = _sublattice(n, q_res, frozenset() if form.q_free else reduced)
    return base, shifts.T[:, :, None]


def _sublattice(n: int, q_res: int, axes: frozenset):
    """The rows of ``q_lattice(n, q_res)`` that are 0 off ``axes``, in order."""
    rows = np.zeros((q_res ** len(axes), n))
    if axes:
        rows[:, sorted(axes)] = q_lattice(len(axes), q_res)
    return rows


def _log_profile(form: ContactForm, u: np.ndarray, q: np.ndarray):
    """log of the form's profile at (n, N) arrays; the profile must be
    positive and finite there."""
    prof = np.asarray(form.profile(list(u), list(q)), dtype=float)
    low, high = float(np.min(prof)), float(np.max(prof))
    if not (low > 0.0 and np.isfinite(high)):
        raise DissipationError(
            f"profile of the {_form_name(form)} is not positive and finite "
            f"on the orbit (sampled min {low}, max {high})"
        )
    return np.log(prof)


def _form_name(form: ContactForm) -> str:
    return f"{form.spec()['kind']} form"


def chi_estimate(r_series) -> ChiEstimate:
    """Two estimators for the linear growth rate of r_k."""
    r = np.asarray(r_series, dtype=float)
    k_total = len(r)
    if k_total < 8:
        raise DissipationError("need at least 8 terms")
    ks = np.arange(1, k_total + 1, dtype=float)
    start = k_total // 2
    slope, intercept = np.polyfit(ks[start:], r[start:], 1)
    fit = slope * ks[start:] + intercept
    rms = float(np.sqrt(np.mean((r[start:] - fit) ** 2)))
    level = max(float(np.mean(np.abs(fit))), 1e-12)
    return ChiEstimate(float(slope), float(r[-1] / k_total), rms / level)


def classify(r_series, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Growth-type verdict; never certifies ellipticity, only consistency."""
    r = np.asarray(r_series, dtype=float)
    est = chi_estimate(r)
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
    """(1/K) max over seeds of |log operator norm| of the chained Jacobians.

    The chained product is rescaled by its Frobenius norm after each step
    and its operator norm is taken once, after the last: the logs of the
    scales telescope to log |J_K ... J_1|.
    """
    if K < 8:
        raise DissipationError("need K >= 8")
    grid = grid or default_lyapunov_grid(f.n)
    u, q = grid_points(f.n, grid)
    npts = u.shape[1]
    d = 2 * f.n - 1
    basis = np.broadcast_to(np.eye(d), (npts, d, d)).copy()
    acc = np.zeros(npts)
    for k in range(K):
        jac, u, q = chart_jacobian_batch(f, u, q)
        basis = np.matmul(np.moveaxis(jac, 2, 0), basis)
        if k < K - 1:
            norms = np.sqrt(np.einsum("pij,pij->p", basis, basis))
        else:
            norms = np.linalg.svd(basis, compute_uv=False)[:, 0]
        acc += np.log(norms)
        basis /= norms[:, None, None]
    return float(np.max(np.abs(acc)) / K)


# ---------------------------------------------------------------------------
# Spectral lower bound and grid refinement
# ---------------------------------------------------------------------------

def verify_bound(
    f: ContactMap,
    form: ContactForm,
    K: int,
    grid: GridSpec | None = None,
    declared_conservative: bool = False,
    tol: float = 0.05,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    r_series: np.ndarray | None = None,
) -> dict:
    """Check the spectral lower bound chi >= s on the map's homology action.

    For maps over the 2-torus the bound is taken on the base block of the
    3x3 action; for the 3-torus on the full action.
    """
    block, block_info = base_action(f)
    s_target = algebra.s_value(block)
    if r_series is None:
        r_series = r_sequence(f, form, K, grid)
    est = chi_estimate(r_series)
    verdict = classify(r_series, thresholds)
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


def base_action(f: ContactMap) -> tuple[algebra.IntMatrix, dict]:
    """The map's action on the first cohomology of the base torus.

    For n = 2 it is the base block of the 3x3 action, returned with the
    JSON fields of the split (the block and the fiber shears l, m); for
    n = 3 it is the full action, with no fields.
    """
    if f.n == 3:
        return homology_action(f), {}
    block, shear_l, shear_m = algebra.a_block(homology_action(f))
    return block, {"a_block": [list(r) for r in block], "l": shear_l, "m": shear_m}


def refinement_delta(
    f: ContactMap, form: ContactForm, K: int, grid: GridSpec
) -> tuple[float, float, float]:
    """r_K at the grid and at its doubling, plus the relative change."""
    coarse = float(r_sequence(f, form, K, grid)[-1])
    fine = float(r_sequence(f, form, K, grid.refined())[-1])
    denom = max(abs(fine), 1e-12)
    return coarse, fine, abs(fine - coarse) / denom
