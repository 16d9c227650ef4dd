"""Flat-Lagrangian shapes, the containment metric, displacement, stable norms.

A star domain is its radius function, and each caller passes the direction
grid it reads, so acting on a domain composes radius functions and samples
nothing.  Only the flat sub-shape (graphs of constant covectors contained in
the domain) is computed; all outputs are inner approximations of the full
shape.  A flat metric is a plain matrix g, checked by
``geometry.metric_matrix``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """Open bounded star-shaped set in R^n given by its radius function."""

    n: int
    rho: Callable[[np.ndarray], np.ndarray]  # (N, n) unit directions -> (N,) radii


def direction_count(n: int, resolution: int | None = None) -> int:
    """The directions in ``direction_grid``: 256 for n = 2, 1024 otherwise, unless given."""
    return (256 if n == 2 else 1024) if resolution is None else resolution


def direction_grid(n: int, resolution: int | None = None) -> np.ndarray:
    return sphere_grid_array(n, direction_count(n, resolution))


def ball(n: int, radius: float = 1.0) -> StarDomain:
    radius = float(radius)
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ShapeError(f"ball radius must be positive and finite, got {radius}")
    return StarDomain(n, lambda dirs: np.full(dirs.shape[0], radius))


# ---------------------------------------------------------------------------
# Shapes of toric domains
# ---------------------------------------------------------------------------

def flat_shape(form: ContactForm, n: int, q_res: int) -> StarDomain:
    """The flat sub-shape of the domain cut out by the form.

    The constant-covector torus with class v sits inside the domain exactly
    when |v| is below the profile at every base point, so the radius in
    direction u is the minimum of the profile over the q_res lattice.  A
    q-free form is read at one base point.  Reading the radius raises
    ShapeError unless every profile value it samples is positive and finite.
    """
    if q_res < 1:
        raise ShapeError("grids must be nonempty")
    qs = q_lattice(n, q_res, read_axes(form, range(n))) / q_res

    def rho(dirs: np.ndarray) -> np.ndarray:
        u, q = grid_points(dirs, qs)
        vals = np.broadcast_to(profile_values(form, u, q, ShapeError), u.shape[1:])
        return vals.reshape(dirs.shape[0], -1).min(axis=1)

    return StarDomain(n, rho)


def _log_radii(rho: np.ndarray) -> np.ndarray:
    """log rho; raises ShapeError unless every radius is positive and finite."""
    low, high = float(rho.min()), float(rho.max())
    if not (low > 0.0 and math.isfinite(high)):
        raise ShapeError(f"radii must be positive and finite (sampled min {low}, max {high})")
    return np.log(rho)


def delta(a: StarDomain, b: StarDomain, dirs: np.ndarray) -> float:
    """Log of the best mutual-containment scaling factor, read on dirs.

    Computed as max |log rho_A - log rho_B|, which equals
    log max(sup rho_A/rho_B, sup rho_B/rho_A) and is exactly symmetric.
    Raises ShapeError unless both radius arrays are positive and finite.
    """
    log_a = _log_radii(a.rho(dirs))
    return float(np.max(np.abs(log_a - _log_radii(b.rho(dirs)))))


def norms(w: np.ndarray) -> np.ndarray:
    """|w| over the last axis: the squared components summed left to right.

    This is np.linalg.norm(w, axis=-1) bit for bit, without its slow
    reduction over a short axis.
    """
    total = w[..., 0] * w[..., 0]
    for i in range(1, w.shape[-1]):
        total += w[..., i] * w[..., i]
    return np.sqrt(total, out=total)


def _image_rho(rho, inv_t: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The radii of the image domain: rho(w/|w|)/|w| with w = dirs @ inv_t."""
    w = dirs @ inv_t
    w_norms = norms(w)
    return rho(w / w_norms[:, None]) / w_norms


def act(i_mat: IntMatrix, a: StarDomain, inverse: IntMatrix | None = None) -> StarDomain:
    """Image of a star domain under a linear cohomology action.

    rho'(u) = rho(w/|w|)/|w| with w = I^{-1} u, with rho read at w/|w|
    itself.  A caller that holds I^{-1} exactly passes it as ``inverse``,
    and I is not inverted again.
    """
    i_mat = algebra.as_matrix(i_mat)
    if len(i_mat) != a.n:
        raise ShapeError("matrix and domain dimensions disagree")
    inv_t = np.array(algebra.mat_inverse(i_mat) if inverse is None else inverse, dtype=float).T
    return StarDomain(a.n, lambda dirs: _image_rho(a.rho, inv_t, dirs))


def displacement_series(i_mat: IntMatrix, a: StarDomain, k_max: int, dirs: np.ndarray) -> list[float]:
    """delta(A, act(I^k, A)) on dirs for k = 1..k_max, bit for bit.

    I is inverted once, and the loop carries only the exact (big-int)
    power (I^-1)^k: step k reads A's radii at the directions of
    (I^-1)^k u, by ``act``'s image-radius formula, and compares them with
    A's radii on dirs, which are read and checked once, before the loop.
    """
    i_inv = algebra.mat_inverse(algebra.as_matrix(i_mat))
    if len(i_inv) != a.n:
        raise ShapeError("matrix and domain dimensions disagree")
    inv_power = algebra.identity_matrix(a.n)
    log_a = _log_radii(a.rho(dirs))
    deltas = []
    for _ in range(k_max):
        inv_power = algebra.mat_mul(inv_power, i_inv)  # exact, big ints included
        image = _image_rho(a.rho, np.array(inv_power, dtype=float).T, dirs)
        deltas.append(float(np.max(np.abs(log_a - _log_radii(image)))))
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
    rho = flat_shape(MetricForm(g), len(g), 1).rho(dirs)  # q-free: one base point
    boundary = 0.999 * rho[:, None] * dirs
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
