import math

import numpy as np
import pytest

from contactlab import algebra as A
from contactlab import shapes as S
from contactlab.report import ConfigError, validate_config
from contactlab.geometry import (
    ConstantForm,
    MetricForm,
    PullbackForm,
    RoundForm,
    TrigForm,
    TrigTerm,
    q_lattice,
)

from conftest import CountingForm, displacement_rate, sample_hyperbolic_lattice_matrices

CAT = ((2, 1), (1, 1))
CAT3 = ((1, 1, 0), (1, 2, 1), (0, 1, 2))


def random_domain(rng, dirs):
    return S.StarDomain(dirs, 0.5 + rng.random(dirs.shape[0]))


@pytest.fixture
def dirs2():
    return S.direction_grid(2)


@pytest.fixture
def q_res():
    return 32


# ---------------------------------------------------------------------------
# StarDomain and metric validation
# ---------------------------------------------------------------------------

def test_star_domain_rejects_nonpositive_radii(dirs2):
    with pytest.raises(S.ShapeError):
        S.StarDomain(dirs2, np.zeros(dirs2.shape[0]))


def test_flat_metric_validation(dirs2):
    # An indefinite g once gave a NaN stable norm, and a GeometryError from
    # duality_check.
    bad = {
        "asymmetric": [[1.0, 0.1], [0.0, 1.0]],
        "singular": [[1.0, 0.0], [0.0, 0.0]],
        "indefinite": [[1, 0], [0, -1]],
        "nan": [[1.0, np.nan], [np.nan, 1.0]],
    }
    for g in bad.values():
        with pytest.raises(S.ShapeError, match="metric"):
            S.stable_norm(g, (0, 1))
        with pytest.raises(S.ShapeError, match="metric"):
            S.duality_check(g, [(0, 1)], dirs2)
    assert S.stable_norm([[4, 0], [0, 1]], (1, 0)) == 2.0


# ---------------------------------------------------------------------------
# flat_shape
# ---------------------------------------------------------------------------

def test_flat_shape_round_is_unit_ball(dirs2, q_res):
    dom = S.flat_shape(RoundForm(), dirs2, q_res)
    assert np.allclose(dom.rho, 1.0)


def test_flat_shape_constant_scales(dirs2, q_res):
    dom = S.flat_shape(ConstantForm(2.0), dirs2, q_res)
    assert np.allclose(dom.rho, 2.0)


def test_flat_shape_trig_min(dirs2, q_res):
    form = TrigForm(1.0, [TrigTerm(0.5, (1, 0))])
    dom = S.flat_shape(form, dirs2, q_res)
    assert np.allclose(dom.rho, 0.5, atol=1e-12)


def test_flat_shape_monotone_and_scaling(dirs2, q_res, rng):
    form1 = TrigForm(1.0, [TrigTerm(0.3, (1, 0))])
    form2 = TrigForm(1.5, [TrigTerm(0.3, (1, 0))])  # pointwise larger
    r1 = S.flat_shape(form1, dirs2, q_res).rho
    r2 = S.flat_shape(form2, dirs2, q_res).rho
    assert np.all(r1 <= r2)
    scaled = S.flat_shape(TrigForm(2.0, [TrigTerm(0.6, (1, 0))]), dirs2, q_res).rho
    assert np.allclose(scaled, 2.0 * r1)


def brute_force_rho(form, dirs, q_res):
    """Minimum of the profile over the whole q_res lattice, one direction at a time."""
    qs = q_lattice(dirs.shape[1], q_res) / q_res
    return np.array([
        np.min(np.broadcast_to(form.profile(list(d[:, None]), list(qs)), qs.shape[1:]))
        for d in dirs
    ])


G3 = [[2, 0.5, 0], [0.5, 1, 0.2], [0, 0.2, 1.5]]


@pytest.mark.parametrize(
    "form",
    [RoundForm(), MetricForm(np.array(G3)), PullbackForm(CAT3, MetricForm(np.array(G3)))],
    ids=["round", "metric", "pullback"],
)
def test_flat_shape_of_a_q_free_form_reads_one_base_point(form):
    dirs = S.direction_grid(3 if form.n == 3 else 2, 256)
    counted = CountingForm(form)
    dom = S.flat_shape(counted, dirs, 8)
    assert counted.points == len(dirs)
    assert np.array_equal(dom.rho, brute_force_rho(form, dirs, 8))


@pytest.mark.parametrize(
    "form, n",
    [
        (TrigForm(1.0, [TrigTerm(0.3, (1, 0), (1, 0)), TrigTerm(0.2, (0, 1), use_sin=True)]), 2),
        (TrigForm(1.0, [TrigTerm(0.4, (1, 0, 0), (1, 0, 0)), TrigTerm(0.1, (0, 2, 1))]), 3),
    ],
    ids=["n2", "n3"],
)
def test_flat_shape_of_a_trig_form_is_the_lattice_minimum(form, n):
    dirs = S.direction_grid(n, 64)
    counted = CountingForm(form)
    dom = S.flat_shape(counted, dirs, 6)
    assert counted.points == len(dirs) * 6 ** n
    assert np.array_equal(dom.rho, brute_force_rho(form, dirs, 6))


def test_flat_shape_metric_is_dual_ball(dirs2, q_res):
    dom = S.flat_shape(MetricForm(np.diag([4.0, 1.0])), dirs2, q_res)
    # boundary: b1^2/4 + b2^2 = 1, radius in direction u is 1/sqrt(u G^{-1} u)
    expected = 1.0 / np.sqrt(dirs2[:, 0] ** 2 / 4.0 + dirs2[:, 1] ** 2)
    assert np.allclose(dom.rho, expected)


# ---------------------------------------------------------------------------
# delta metric
# ---------------------------------------------------------------------------

def test_delta_examples(dirs2):
    ball = S.ball(dirs2)
    assert S.delta(ball, ball) == 0.0
    assert S.delta(ball, S.ball(dirs2, 2.0)) == pytest.approx(math.log(2.0))
    ellipse = S.StarDomain(
        dirs2, 1.0 / np.sqrt(dirs2[:, 0] ** 2 / 4.0 + 4.0 * dirs2[:, 1] ** 2)
    )
    assert S.delta(ball, ellipse) == pytest.approx(math.log(2.0), abs=1e-10)


def test_delta_metric_axioms(rng, dirs2):
    for _ in range(100):
        a, b, c = (random_domain(rng, dirs2) for _ in range(3))
        assert S.delta(a, b) == S.delta(b, a)
        assert S.delta(a, a) == 0.0
        assert S.delta(a, b) >= 0.0
        assert S.delta(a, c) <= S.delta(a, b) + S.delta(b, c) + 1e-12
    d = random_domain(rng, dirs2)
    e = S.StarDomain(dirs2, d.rho.copy())
    assert S.delta(d, e) == 0.0


def test_delta_grid_mismatch(dirs2):
    other = S.direction_grid(2, 128)
    with pytest.raises(S.ShapeError, match="grid"):
        S.delta(S.ball(dirs2), S.ball(other))


# ---------------------------------------------------------------------------
# act
# ---------------------------------------------------------------------------

def test_act_identity(dirs2, rng):
    a = random_domain(rng, dirs2)
    b = S.act(A.identity_matrix(2), a)
    assert np.allclose(b.rho, a.rho)


def test_act_cat_on_ball_radius_is_exact(dirs2):
    # A ball's radius is constant, so act looks nothing up: rho'(u) = 1/|CAT^-1 u|.
    image = S.act(CAT, S.ball(dirs2))
    cat_inv = np.array(((1, -1), (-1, 2)), dtype=float)
    assert np.array_equal(image.rho, 1.0 / np.linalg.norm(dirs2 @ cat_inv.T, axis=1))


def test_act_cat_on_ball_singular_values(dirs2):
    image = S.act(CAT, S.ball(S.direction_grid(2, 4096)))
    svals = np.linalg.svd(np.array(CAT, float), compute_uv=False)
    assert image.rho.max() == pytest.approx(svals[0], abs=1e-4)
    assert image.rho.min() == pytest.approx(svals[1], abs=1e-4)


def smooth_domain(dirs):
    theta = np.arctan2(dirs[:, 1], dirs[:, 0])
    return S.StarDomain(dirs, 1.0 + 0.3 * np.cos(2.0 * theta))


def test_act_group_action_law(rng):
    # Nearest-direction resampling error scales with the grid spacing, so the
    # composition law is checked on a smooth domain at a fine grid.
    dirs = S.direction_grid(2, 32768)
    a = smooth_domain(dirs)
    mats = [((1, 1), (0, 1)), ((1, 0), (-1, 1)), ((0, -1), (1, 0))]
    for i_mat in mats:
        for j_mat in mats:
            lhs = S.act(A.mat_mul(i_mat, j_mat), a)
            rhs = S.act(i_mat, S.act(j_mat, a))
            assert S.delta(lhs, rhs) < 1e-3
    assert np.allclose(S.act(A.identity_matrix(2), a).rho, a.rho)


def lookup_act(i_mat, a):
    """act through the nearest-direction lookup, whatever the domain."""
    inv = np.array(A.mat_inverse(A.as_matrix(i_mat)), dtype=float)
    w = a.dirs @ inv.T
    norms = np.linalg.norm(w, axis=1)
    return a.rho[S._nearest_directions(w / norms[:, None], a.dirs)] / norms


@pytest.mark.parametrize(
    "i_mat, radius",
    [(CAT, 1.0), (CAT3, 1.0), (CAT3, 2.5), (A.mat_pow(CAT, 7), 0.3)],
    ids=["n2", "n3", "n3-scaled", "n2-power-scaled"],
)
def test_act_on_a_constant_domain_matches_the_lookup(i_mat, radius):
    a = S.ball(S.direction_grid(len(i_mat)), radius)
    image = S.act(i_mat, a)
    assert np.array_equal(image.rho, lookup_act(i_mat, a))
    assert np.array_equal(image.dirs, a.dirs)


def test_act_on_a_varying_domain_uses_the_lookup(monkeypatch):
    dirs = S.direction_grid(3)
    a = S.flat_shape(TrigForm(1.0, [TrigTerm(0.4, (1, 0, 0), (1, 0, 0))]), dirs, 4)
    assert not np.all(a.rho == a.rho[0])
    calls = []
    lookup = S._nearest_directions
    monkeypatch.setattr(S, "_nearest_directions", lambda t, d: calls.append(1) or lookup(t, d))
    image = S.act(CAT3, a)
    assert calls and np.array_equal(image.rho, lookup_act(CAT3, a))


def test_equivariance_of_linear_lifts():
    # flat shape of the pulled-back form = act(M^T, flat shape of the form)
    dirs = S.direction_grid(2, 32768)
    base = MetricForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
    m = [[2, 1], [1, 1]]
    lhs = S.flat_shape(PullbackForm(m, base), dirs, 4)
    rhs = S.act(A.mat_transpose(A.as_matrix(m)), S.flat_shape(base, dirs, 4))
    assert S.delta(lhs, rhs) < 1e-3


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------

def test_displacement_identity_and_rotation(dirs2):
    ball = S.ball(dirs2)
    assert displacement_rate(A.identity_matrix(2), ball, 10) == 0.0
    rot = ((0, -1), (1, 0))
    assert displacement_rate(rot, ball, 12) == pytest.approx(0.0, abs=1e-9)


def test_displacement_cat_map(dirs2):
    val = displacement_rate(CAT, S.ball(dirs2), 20)
    assert val == pytest.approx(A.s_value(CAT), abs=1e-2)


def test_displacement_matches_spectrum_random(rng, dirs2):
    dirs3 = S.direction_grid(3)
    for dim, dirs in ((2, dirs2), (3, dirs3)):
        for m in sample_hyperbolic_lattice_matrices(rng, dim, 5):
            val = displacement_rate(m, S.ball(dirs), 20)
            assert val == pytest.approx(A.s_value(m), abs=1e-2)


@pytest.mark.parametrize("i_mat", [CAT, CAT3], ids=["n2", "n3"])
def test_displacement_series_inverts_once_and_matches_act(monkeypatch, rng, i_mat):
    # Carrying (I^-1)^k gives the series that re-inverting each I^k gives.
    dirs = S.direction_grid(len(i_mat))
    k_max = 30
    for a in (S.ball(dirs), random_domain(rng, dirs)):
        expected = [
            S.delta(a, S.act(A.mat_pow(i_mat, k), a)) for k in range(1, k_max + 1)
        ]
        calls = []
        inverse = A.mat_inverse
        monkeypatch.setattr(A, "mat_inverse", lambda m: calls.append(1) or inverse(m))
        assert S.displacement_series(i_mat, a, k_max) == expected
        monkeypatch.setattr(A, "mat_inverse", inverse)
        assert len(calls) == 1


def test_act_takes_the_inverse_it_is_given(rng):
    a = random_domain(rng, S.direction_grid(3))
    m = A.mat_pow(CAT3, 5)
    given = S.act(m, a, A.mat_inverse(m))
    assert np.array_equal(given.rho, S.act(m, a).rho)


def test_displacement_needs_enough_iterates():
    # Fewer than 8 iterates is a config error, through TASK_PARAMS.
    task = {"task": "displacement", "matrix": [list(r) for r in CAT], "k_max": 7}
    with pytest.raises(ConfigError, match="displacement k_max must be an integer >= 8"):
        validate_config({"tasks": [task]})
    validate_config({"tasks": [dict(task, k_max=8)]})


# ---------------------------------------------------------------------------
# stable norm and duality
# ---------------------------------------------------------------------------

def test_stable_norm_examples():
    assert S.stable_norm(np.eye(2), (1, 0)) == 1.0
    assert S.stable_norm(np.eye(2), (3, 4)) == 5.0
    assert S.stable_norm(np.diag([4.0, 1.0]), (1, 0)) == 2.0
    with pytest.raises(S.ShapeError, match="trivial"):
        S.stable_norm(np.eye(2), (0, 0))


def test_stable_norm_is_a_norm(rng):
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    for _ in range(100):
        a = rng.integers(-5, 6, 2)
        b = rng.integers(-5, 6, 2)
        if not a.any() or not b.any() or not (a + b).any():
            continue
        assert S.stable_norm(g, 3 * a) == pytest.approx(3 * S.stable_norm(g, a))
        assert S.stable_norm(g, a + b) <= S.stable_norm(g, a) + S.stable_norm(g, b) + 1e-12


def test_duality_check_examples(dirs2, rng):
    classes = [(1, 0), (0, 1), (2, -3), (-1, 4)]
    for g in (np.eye(2), np.diag([4.0, 1.0])):
        res = S.duality_check(g, classes, dirs2)
        assert res["pass"] and res["worst_margin"] >= 0.0
    with pytest.raises(S.ShapeError, match="trivial"):
        S.duality_check(np.eye(2), [(0, 0)], dirs2)
    with pytest.raises(S.ShapeError):
        S.duality_check(np.eye(2), [], dirs2)
