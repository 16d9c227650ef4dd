"""Flat-Lagrangian shapes, the containment metric, displacement, stable norms.

Shapes are stored as radial functions over a fixed direction grid.  Only the
flat sub-shape (graphs of constant covectors contained in the domain) is
computed; all outputs are inner approximations of the full shape.  A flat
metric is a plain matrix g, checked by ``geometry.metric_matrix``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import IntMatrix
from .geometry import (
    ContactForm, MetricForm, grid_points, metric_matrix, profile_values, q_lattice, read_axes,
    sphere_grid_array,
)


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class StarDomain:
    """Open bounded star-shaped set given by radii over a direction grid."""

    dirs: np.ndarray  # (N, n) unit directions
    rho: np.ndarray  # (N,) positive radii

    def __post_init__(self):
        dirs = np.asarray(self.dirs, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if dirs.ndim != 2 or rho.shape != (dirs.shape[0],):
            raise ShapeError("direction grid and radii sizes disagree")
        if not np.all(np.isfinite(rho)) or np.min(rho) <= 0.0:
            raise ShapeError("radial values must be positive and finite")
        object.__setattr__(self, "dirs", dirs)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.dirs.shape[1]


def direction_grid(n: int, resolution: int | None = None) -> np.ndarray:
    if resolution is None:
        resolution = 256 if n == 2 else 1024
    return sphere_grid_array(n, resolution)


def ball(dirs: np.ndarray, radius: float = 1.0) -> StarDomain:
    return StarDomain(dirs, np.full(dirs.shape[0], float(radius)))


# ---------------------------------------------------------------------------
# Shapes of toric domains
# ---------------------------------------------------------------------------

def flat_shape(form: ContactForm, dirs: np.ndarray, q_res: int) -> StarDomain:
    """Radial function of the flat sub-shape of the domain cut out by the form.

    The constant-covector torus with class v sits inside the domain exactly
    when |v| is below the profile at every base point, so the radius in
    direction u is the minimum of the profile over the q_res lattice.  A
    q-free form is read at one base point.
    """
    dirs = np.asarray(dirs, dtype=float)
    if dirs.size == 0 or q_res < 1:
        raise ShapeError("grids must be nonempty")
    n = dirs.shape[1]
    u, q = grid_points(dirs, q_lattice(n, q_res, read_axes(form, range(n))) / q_res)
    vals = np.broadcast_to(profile_values(form, u, q, ShapeError), u.shape[1:])
    return StarDomain(dirs, vals.reshape(dirs.shape[0], -1).min(axis=1))


def delta(a: StarDomain, b: StarDomain) -> float:
    """Log of the best mutual-containment scaling factor.

    Computed as max |log rho_A - log rho_B|, which equals
    log max(sup rho_A/rho_B, sup rho_B/rho_A) and is exactly symmetric.
    """
    if a.dirs.shape != b.dirs.shape or not np.array_equal(a.dirs, b.dirs):
        raise ShapeError("star domains must share the direction grid")
    return float(np.max(np.abs(np.log(a.rho) - np.log(b.rho))))


def act(i_mat: IntMatrix, a: StarDomain, inverse: IntMatrix | None = None) -> StarDomain:
    """Image of a star domain under a linear cohomology action.

    rho'(u) = rho(w/|w|)/|w| with w = I^{-1} u; the radius at w/|w| is read
    off by nearest-direction lookup on the shared grid (no interpolation).
    When rho is constant, as on a ball, every lookup returns that constant,
    so the lookup is skipped.  A caller that holds I^{-1} exactly passes it
    as ``inverse``, and I is not inverted again.
    """
    i_mat = algebra.as_matrix(i_mat)
    if len(i_mat) != a.n:
        raise ShapeError("matrix and domain dimensions disagree")
    inv = np.array(algebra.mat_inverse(i_mat) if inverse is None else inverse, dtype=float)
    w = a.dirs @ inv.T
    norms = np.linalg.norm(w, axis=1)
    if np.all(a.rho == a.rho[0]):
        return StarDomain(a.dirs, a.rho[0] / norms)
    nearest = _nearest_directions(w / norms[:, None], a.dirs)
    return StarDomain(a.dirs, a.rho[nearest] / norms)


def _nearest_directions(targets: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Index of the closest grid direction for each target.

    Uniform 2-D angle grids get an O(N) analytic lookup; anything else falls
    back to a chunked inner-product argmax so the pairwise table never
    exceeds a few hundred MB.
    """
    n_t = targets.shape[0]
    if dirs.shape[1] == 2 and _is_uniform_angle_grid(dirs):
        k = dirs.shape[0]
        angles = np.arctan2(targets[:, 1], targets[:, 0]) / (2.0 * np.pi)
        return np.rint(angles * k).astype(np.intp) % k
    chunk = max(1, (1 << 24) // max(dirs.shape[0], 1))
    out = np.empty(n_t, dtype=np.intp)
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        out[start:stop] = np.argmax(targets[start:stop] @ dirs.T, axis=1)
    return out


def _is_uniform_angle_grid(dirs: np.ndarray) -> bool:
    k = dirs.shape[0]
    cached = _UNIFORM_GRID_CACHE.get(k)
    if cached is None:
        cached = sphere_grid_array(2, k)
        _UNIFORM_GRID_CACHE[k] = cached
    return dirs.shape == cached.shape and np.array_equal(dirs, cached)


_UNIFORM_GRID_CACHE: dict = {}


def displacement_series(i_mat: IntMatrix, a: StarDomain, k_max: int) -> list[float]:
    """delta(A, I^k A) for k = 1..k_max."""
    i_mat = algebra.as_matrix(i_mat)
    i_inv = algebra.mat_inverse(i_mat)
    power = inv_power = algebra.identity_matrix(len(i_mat))
    deltas = []
    for _ in range(k_max):
        # exact, big ints included: (I^-1)^k is the inverse of I^k
        power = algebra.mat_mul(i_mat, power)
        inv_power = algebra.mat_mul(inv_power, i_inv)
        deltas.append(delta(a, act(power, a, inv_power)))
    return deltas


# ---------------------------------------------------------------------------
# Stable norms and duality
# ---------------------------------------------------------------------------

def stable_norm(g, gamma: Sequence[int]) -> float:
    """Length of the shortest loop of the flat metric g in an integer class."""
    g = metric_matrix(g, ShapeError)
    v = np.asarray(gamma, dtype=float)
    if not np.any(v):
        raise ShapeError("trivial class")
    return float(np.sqrt(v @ g @ v))


def duality_check(g, class_samples: Sequence[Sequence[int]], dirs: np.ndarray) -> dict:
    """Pairing of flat-shape points against loop lengths of the flat metric g.

    Samples the flat-shape boundary at factor 0.999 (shapes are open) and
    asserts (b, gamma) <= loop length for every sampled class.
    """
    g = metric_matrix(g, ShapeError)
    if not class_samples:
        raise ShapeError("need at least one sample class")
    shape = flat_shape(MetricForm(g), dirs, 1)  # q-free: one base point
    boundary = 0.999 * shape.rho[:, None] * shape.dirs
    worst = np.inf
    for gamma in class_samples:
        length = stable_norm(g, gamma)
        margins = length - boundary @ np.asarray(gamma, dtype=float)
        worst = min(worst, float(margins.min()))
    return {
        "metric": g.tolist(),
        "worst_margin": worst,
        "pass": bool(worst >= 0.0),
    }
