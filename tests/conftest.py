"""Shared numerical oracles for the test suite."""
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
    ContactForm,
    chart_encode,
    grid_points,
    profile_values,
    q_lattice,
    select_chart_batch,
    sphere_grid_array,
)
from contactlab.maps import ContactMap, MapError, chart_jacobian_batch
from contactlab.shapes import ShapeError, StarDomain, displacement_series


def circ_diff(a, b, periodic):
    """Componentwise difference; periodic components measured on the circle."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a - b
    per = np.asarray(periodic, dtype=bool)
    d[per] = (d[per] + 0.5) % 1.0 - 0.5
    return d


def fd_jacobian(phi, x, periodic_out, h=1e-5):
    """Central finite differences of a chart map; wrap-aware in the outputs."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    cols = []
    for j in range(m):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.array([float(v) for v in phi(list(xp))])
        fm = np.array([float(v) for v in phi(list(xm))])
        cols.append(circ_diff(fp, fm, periodic_out) / (2.0 * h))
    return np.stack(cols, axis=1)


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


def chart_coords(f, u, q):
    """(chart_in, chart_out, coords) of the map f at a batch of one: the
    charts at the point and at its image, and the point's input chart
    coordinates as floats."""
    u_image, _, _ = f.apply_batch(u, q)
    chart_in = chart_out = 0
    if f.n == 3:
        chart_in = int(select_chart_batch(u[2])[0])
        chart_out = int(select_chart_batch(u_image[2])[0])
    coords = chart_encode(f.n, chart_in, list(u), list(q))
    return chart_in, chart_out, [float(c[0]) for c in coords]


def conformal_factor_batch(
    f: ContactMap, form: ContactForm, u_arr: np.ndarray, q_arr: np.ndarray
):
    """Conformal factors at (n, N) component arrays, extracted with jets.

    Returns (c, u_image, q_image).  Each factor is read off the chart
    Jacobian's column on which the form coefficient is largest.  This is the
    oracle for the closed-form factors that ``apply_batch`` returns.
    """
    npts = u_arr.shape[1]
    jac, u2, q2 = chart_jacobian_batch(f, u_arr, q_arr)
    lam_x = form_rows(form, u_arr, q_arr, f.n, npts)
    lam_y = form_rows(form, u2, q2, f.n, npts)
    jsel = np.argmax(np.abs(lam_x), axis=0)
    points = np.arange(npts)
    denom = lam_x[jsel, points]
    if np.min(np.abs(denom)) < 1e-12:
        raise MapError("degenerate transversal: form vanishes on chart basis")
    return (lam_y * jac[:, jsel, points]).sum(axis=0) / denom, u2, q2


def form_rows(form: ContactForm, u_arr, q_arr, n: int, npts: int) -> np.ndarray:
    """Chart coefficients (fiber coordinates..., dq...) of the form at each
    point, shape (2n - 1, N); the fiber block is always 0."""
    f = profile_values(form, u_arr, q_arr, MapError)
    return np.concatenate([np.zeros((n - 1, npts)), f * u_arr])


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
