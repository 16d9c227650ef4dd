"""Shared numerical oracles for the test suite."""
from typing import Sequence

import numpy as np
import pytest

from contactlab.algebra import (
    IntMatrix,
    abelian_lengths,
    as_matrix,
    determinant,
    growth_slope,
    identity_matrix,
    length_growth_rate,
    mat_inverse,
    mat_mul,
    s_value,
)
from contactlab.geometry import (
    TWO_PI,
    ContactForm,
    Jet,
    grid_points,
    jsum,
    jval,
    matvec,
    profile_values,
    q_lattice,
    sphere_grid_array,
    tangent_frame,
)
from contactlab.maps import (
    ContactFlow,
    ContactMap,
    MapError,
    MetricHamiltonian,
    ModulatedNormHamiltonian,
    MomentumHamiltonian,
)
from contactlab.shapes import ShapeError, StarDomain, displacement_series


def seed_jets(values: Sequence) -> list[Jet]:
    """Turn m scalars (or arrays) into jets carrying the identity seed."""
    vals = [np.asarray(v, dtype=float) for v in values]
    m = len(vals)
    shape = np.broadcast_shapes(*(v.shape for v in vals)) if vals else ()
    jets = []
    for i, v in enumerate(vals):
        d = np.zeros((m,) + shape)
        d[i] = 1.0
        jets.append(Jet(v if v.shape else float(v), d))
    return jets


def fd_frame(f: ContactMap, u, q, frame, h=1e-5):
    """Central differences of ``apply_batch`` along each column (du, dq) of
    a (2n, m, 1) frame at a batch of one, as a (2n, m) array.

    Column j runs the curve ((u + s du) / |u + s du|, q + s dq), whose
    velocity at s = 0 is (du, dq) when du is perpendicular to u; image q
    differences are taken on the circle.
    """
    n, cols = f.n, []
    for j in range(frame.shape[1]):
        ends = []
        for s in (h, -h):
            us = u + s * frame[:n, j]
            ends.append(f.apply_batch(us / np.linalg.norm(us, axis=0), q + s * frame[n:, j])[:2])
        (u_plus, q_plus), (u_minus, q_minus) = ends
        dq = (q_plus - q_minus + 0.5) % 1.0 - 0.5
        cols.append(np.concatenate([u_plus - u_minus, dq])[:, 0] / (2.0 * h))
    return np.stack(cols, axis=1)


def hamiltonian_gradients(ham, p, q):
    """(dH/dp, dH/dq) of a catalog Hamiltonian as component lists, written
    out from its closed form on jets or arrays: the oracle for ``rates``."""
    zero = [0.0] * ham.n
    if isinstance(ham, MomentumHamiltonian):
        return list(ham.c), zero
    if isinstance(ham, MetricHamiltonian):
        gp = matvec(ham.g)(p)
        h = np.sqrt(jsum([pi * gi for pi, gi in zip(p, gp)]))
        return [gi / h for gi in gp], zero
    assert isinstance(ham, ModulatedNormHamiltonian)
    norm = np.sqrt(jsum([pi * pi for pi in p]))
    mod = 1.0 + ham.eps * np.cos(TWO_PI * q[ham.axis])
    dq = list(zero)
    dq[ham.axis] = -(TWO_PI * ham.eps) * norm * np.sin(TWO_PI * q[ham.axis])
    return [pi / norm * mod for pi in p], dq


def reference_flow(flow: ContactFlow, u: list, q: list):
    """``ContactFlow.transform`` as a component-list RK4 loop over
    ``hamiltonian_gradients``, one jet or array per component, in the same
    association orders: the oracle for the stacked loop."""
    n, h = flow.n, flow.t / flow.steps

    def rhs(z):
        dp, dq = hamiltonian_gradients(flow.hamiltonian, z[:n], z[n:])
        return [-g for g in dq] + dp

    z = [*u, *q]
    log_c = 0.0
    for _ in range(flow.steps):
        k1 = rhs(z)
        k2 = rhs([zi + 0.5 * h * ki for zi, ki in zip(z, k1)])
        k3 = rhs([zi + 0.5 * h * ki for zi, ki in zip(z, k2)])
        k4 = rhs([zi + h * ki for zi, ki in zip(z, k3)])
        z = [
            zi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
        ]
        norm2 = jsum([pi * pi for pi in z[:n]])
        log_c = log_c - 0.5 * np.log(jval(norm2))
        inv = 1.0 / np.sqrt(norm2)
        z = [pi * inv for pi in z[:n]] + z[n:]
    return z[:n], z[n:], log_c


def random_point(rng, n=2):
    """One random point as a batch of one: (u, q), each of shape (n, 1),
    with u a unit direction and q in [0, 1)."""
    u = rng.normal(size=n)
    q = rng.random(n)
    return (u / np.linalg.norm(u))[:, None], q[:, None]


def random_points(rng, n, count):
    """``count`` points drawn one at a time by ``random_point``, stacked as
    (n, count) arrays."""
    pts = [random_point(rng, n) for _ in range(count)]
    return np.hstack([u for u, _ in pts]), np.hstack([q for _, q in pts])


def full_grid(n, grid):
    """Every point of a ``GridSpec``'s product grid, as (n, N) u and q arrays."""
    qs = q_lattice(n, grid.q_res) / grid.q_res
    return grid_points(sphere_grid_array(n, grid.fiber_res), qs)


def conformal_factor_batch(
    f: ContactMap, form: ContactForm, u_arr: np.ndarray, q_arr: np.ndarray
):
    """Conformal factors at (n, N) component arrays, extracted with jets.

    Returns (c, u_image, q_image).  One jet per point is seeded with the
    Reeb vector (0, u) of the round form alpha_0 = u . dq, on which alpha_0
    reads 1; f^* alpha_0 reads u' . dq' on it, so the factor of F alpha_0
    is c = (F(y) / F(x)) u' . dq'.  This is the oracle for the closed-form
    factors that ``apply_batch`` returns.
    """
    reeb = np.concatenate([np.zeros_like(u_arr), u_arr])[:, None, :]
    u2, q2, pushed = f.push_frame(u_arr, q_arr, reeb)
    ratio = profile_values(form, u2, q2, MapError) / profile_values(form, u_arr, q_arr, MapError)
    return ratio * (u2 * pushed[f.n:, 0]).sum(axis=0), u2, q2


def frame_lyapunov(f: ContactMap, K: int, grid, rng=None, per_step_svd=False) -> float:
    """``lyapunov_estimate``'s chain on every point of the full grid.

    With ``rng`` each point's ``tangent_frame`` is first turned by its own
    seeded random orthogonal matrix; with ``per_step_svd`` the frame is
    renormalised by its operator norm at every step, not by its Frobenius
    norm with one operator norm after the last.
    """
    u, q = full_grid(f.n, grid)
    frame = tangent_frame(u)
    if rng is not None:
        d = frame.shape[1]
        turn, _ = np.linalg.qr(rng.normal(size=(u.shape[1], d, d)))
        frame = np.einsum("ikp,pkj->ijp", frame, turn)
    acc = np.zeros(u.shape[1])
    for k in range(K):
        u, q, frame = f.push_frame(u, q, frame)
        if per_step_svd or k == K - 1:
            norms = np.linalg.svd(np.moveaxis(frame, 2, 0), compute_uv=False)[:, 0]
        else:
            norms = np.sqrt((frame * frame).sum(axis=(0, 1)))
        acc += np.log(norms)
        frame /= norms
    return float(np.max(np.abs(acc)) / K)


class CountingForm(ContactForm):
    """Wraps a form and counts its profile reads and the points they cover."""

    def __init__(self, form):
        self.form, self.n, self.q_free = form, form.n, form.q_free
        self.calls = self.points = 0

    def profile(self, u, q):
        self.calls += 1
        self.points += int(np.prod(np.broadcast_shapes(np.shape(u[0]), np.shape(q[0]))))
        return self.form.profile(u, q)

    def describe(self):
        return self.form.describe()


def sample_hyperbolic_lattice_matrices(
    rng: np.random.Generator, dim: int, count: int, entry_cap: int = 5
) -> list[IntMatrix]:
    """Seeded unimodular hyperbolic matrices with entries bounded by entry_cap.

    dim=2 draws products of elementary shears; dim=3 conjugates a hyperbolic
    2x2 block (so the spectrum stays closed under reciprocals, which keeps
    the forward word-length growth rate equal to the spectral invariant).
    """
    out: list[IntMatrix] = []
    while len(out) < count:
        if dim == 2:
            m = identity_matrix(2)
            for _ in range(6):
                k = int(rng.integers(-2, 3))
                shear = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
                m = mat_mul(m, shear)
        else:
            block = sample_hyperbolic_lattice_matrices(rng, 2, 1, entry_cap)[0]
            m3 = (
                (block[0][0], block[0][1], 0),
                (block[1][0], block[1][1], 0),
                (0, 0, 1),
            )
            k = int(rng.integers(-1, 2))
            axis = int(rng.integers(0, 3))
            u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            u[axis][(axis + 1) % 3] = k
            u = as_matrix(u)
            m = mat_mul(mat_mul(u, m3), mat_inverse(u))
        if max(abs(e) for row in m for e in row) > entry_cap:
            continue
        if determinant(m) not in (1, -1):
            continue
        if s_value(m) <= 0.1:
            continue
        out.append(m)
    return out


def abelian_rate(m, classes, n_steps: int) -> float:
    """The growth task's abelian rate: the largest tail slope over the classes."""
    return length_growth_rate(*(abelian_lengths(m, g, n_steps) for g in classes))


def displacement_rate(i_mat, a, k_max: int, dirs) -> float:
    """The displacement task's rate: the tail slope of delta(A, I^k A) on
    dirs, floored at 0."""
    return max(growth_slope(displacement_series(i_mat, a, k_max, dirs)), 0.0)


def random_domain(rng, dirs):
    """A star domain with radii drawn from [0.5, 1.5) on the grid dirs; its
    radius function knows only that grid and raises ShapeError on any other."""
    radii = 0.5 + rng.random(dirs.shape[0])

    def rho(grid):
        if grid.shape != dirs.shape or not np.array_equal(grid, dirs):
            raise ShapeError("a random domain is read only on the grid it was drawn on")
        return radii

    return StarDomain(dirs.shape[1], rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
