import math
import warnings

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

from conftest import (
    CountingForm, displacement_rate, random_domain, sample_hyperbolic_lattice_matrices,
)

CAT = ((2, 1), (1, 1))
CAT3 = ((1, 1, 0), (1, 2, 1), (0, 1, 2))


def powers(m, k_max):
    """[m, m^2, ..., m^k_max] by repeated ``mat_mul``."""
    out = [m]
    while len(out) < k_max:
        out.append(A.mat_mul(out[-1], m))
    return out


@pytest.fixture
def dirs2():
    return S.direction_grid(2)


@pytest.fixture
def q_res():
    return 32


# ---------------------------------------------------------------------------
# StarDomain and metric validation
# ---------------------------------------------------------------------------

def test_star_domain_rejects_nonpositive_radii():
    # A ball checks its radius once; any other domain's radii are checked
    # where delta reads them (below).
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(S.ShapeError, match="radius"):
            S.ball(2, radius)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
def test_delta_rejects_a_radius_that_is_not_positive_and_finite(dirs2, bad):
    def rho(dirs):
        radii = np.ones(dirs.shape[0])
        radii[3] = bad
        return radii

    ball, broken = S.ball(2), S.StarDomain(2, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # np.log(0) is never taken
        for a, b in ((ball, broken), (broken, ball)):
            with pytest.raises(S.ShapeError, match="positive and finite"):
                S.delta(a, b, dirs2)


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
    assert np.allclose(S.flat_shape(RoundForm(), 2, q_res).rho(dirs2), 1.0)


def test_flat_shape_constant_scales(dirs2, q_res):
    assert np.allclose(S.flat_shape(ConstantForm(2.0), 2, q_res).rho(dirs2), 2.0)


def test_flat_shape_trig_min(dirs2, q_res):
    form = TrigForm(1.0, [TrigTerm(0.5, (1, 0))])
    assert np.allclose(S.flat_shape(form, 2, q_res).rho(dirs2), 0.5, atol=1e-12)


def test_flat_shape_monotone_and_scaling(dirs2, q_res, rng):
    form1 = TrigForm(1.0, [TrigTerm(0.3, (1, 0))])
    form2 = TrigForm(1.5, [TrigTerm(0.3, (1, 0))])  # pointwise larger
    r1 = S.flat_shape(form1, 2, q_res).rho(dirs2)
    r2 = S.flat_shape(form2, 2, q_res).rho(dirs2)
    assert np.all(r1 <= r2)
    scaled = S.flat_shape(TrigForm(2.0, [TrigTerm(0.6, (1, 0))]), 2, q_res).rho(dirs2)
    assert np.allclose(scaled, 2.0 * r1)


def brute_force_rho(form, dirs, q_res):
    """Minimum of the profile over the whole q_res lattice, one direction at a time."""
    qs = q_lattice(dirs.shape[1], q_res) / q_res
    return np.array([
        np.min(np.broadcast_to(form.profile(list(d[:, None]), list(qs)), qs.shape[1:]))
        for d in dirs
    ])


G3 = [[2, 0.5, 0], [0.5, 1, 0.2], [0, 0.2, 1.5]]
TRIG3 = TrigForm(1.0, [TrigTerm(0.4, (1, 0, 0), (1, 0, 0)), TrigTerm(0.1, (0, 2, 1))])


@pytest.mark.parametrize(
    "form",
    [RoundForm(), MetricForm(np.array(G3)), PullbackForm(CAT3, MetricForm(np.array(G3)))],
    ids=["round", "metric", "pullback"],
)
def test_flat_shape_of_a_q_free_form_reads_one_base_point(form):
    n = 3 if form.n == 3 else 2
    dirs = S.direction_grid(n, 256)
    counted = CountingForm(form)
    rho = S.flat_shape(counted, n, 8).rho(dirs)
    assert counted.points == len(dirs)
    assert np.array_equal(rho, brute_force_rho(form, dirs, 8))


@pytest.mark.parametrize(
    "form, n",
    [(TrigForm(1.0, [TrigTerm(0.3, (1, 0), (1, 0)), TrigTerm(0.2, (0, 1), use_sin=True)]), 2),
     (TRIG3, 3)],
    ids=["n2", "n3"],
)
def test_flat_shape_of_a_trig_form_is_the_lattice_minimum(form, n):
    dirs = S.direction_grid(n, 64)
    counted = CountingForm(form)
    rho = S.flat_shape(counted, n, 6).rho(dirs)
    assert counted.points == len(dirs) * 6 ** n
    assert np.array_equal(rho, brute_force_rho(form, dirs, 6))


def test_flat_shape_metric_is_dual_ball(dirs2, q_res):
    rho = S.flat_shape(MetricForm(np.diag([4.0, 1.0])), 2, q_res).rho(dirs2)
    # boundary: b1^2/4 + b2^2 = 1, radius in direction u is 1/sqrt(u G^{-1} u)
    expected = 1.0 / np.sqrt(dirs2[:, 0] ** 2 / 4.0 + dirs2[:, 1] ** 2)
    assert np.allclose(rho, expected)


# ---------------------------------------------------------------------------
# delta metric
# ---------------------------------------------------------------------------

def test_delta_examples(dirs2):
    ball = S.ball(2)
    assert S.delta(ball, ball, dirs2) == 0.0
    assert S.delta(ball, S.ball(2, 2.0), dirs2) == pytest.approx(math.log(2.0))
    ellipse = S.StarDomain(2, lambda d: 1.0 / np.sqrt(d[:, 0] ** 2 / 4.0 + 4.0 * d[:, 1] ** 2))
    assert S.delta(ball, ellipse, dirs2) == pytest.approx(math.log(2.0), abs=1e-10)


def test_delta_metric_axioms(rng, dirs2):
    for _ in range(100):
        a, b, c = (random_domain(rng, dirs2) for _ in range(3))
        assert S.delta(a, b, dirs2) == S.delta(b, a, dirs2)
        assert S.delta(a, a, dirs2) == 0.0
        assert S.delta(a, b, dirs2) >= 0.0
        assert S.delta(a, c, dirs2) <= S.delta(a, b, dirs2) + S.delta(b, c, dirs2) + 1e-12
    d = random_domain(rng, dirs2)
    e = S.StarDomain(2, lambda dirs: d.rho(dirs).copy())
    assert S.delta(d, e, dirs2) == 0.0


# ---------------------------------------------------------------------------
# act
# ---------------------------------------------------------------------------

def smooth_domain():
    return S.StarDomain(2, lambda d: 1.0 + 0.3 * np.cos(2.0 * np.arctan2(d[:, 1], d[:, 0])))


def trig_shape3():
    return S.flat_shape(TRIG3, 3, 4)


def test_act_identity(dirs2):
    a = smooth_domain()
    assert np.allclose(S.act(A.identity_matrix(2), a).rho(dirs2), a.rho(dirs2))


def test_act_cat_on_ball_radius_is_exact(dirs2):
    # A ball's radius is constant: rho'(u) = 1/|CAT^-1 u|.
    image = S.act(CAT, S.ball(2))
    cat_inv = np.array(((1, -1), (-1, 2)), dtype=float)
    assert np.array_equal(image.rho(dirs2), 1.0 / np.linalg.norm(dirs2 @ cat_inv.T, axis=1))


def test_act_cat_on_ball_singular_values():
    rho = S.act(CAT, S.ball(2)).rho(S.direction_grid(2, 4096))
    svals = np.linalg.svd(np.array(CAT, float), compute_uv=False)
    assert rho.max() == pytest.approx(svals[0], abs=1e-4)
    assert rho.min() == pytest.approx(svals[1], abs=1e-4)


def assert_group_law(mats, a, dirs):
    for i_mat in mats:
        for j_mat in mats:
            lhs = S.act(A.mat_mul(i_mat, j_mat), a)
            rhs = S.act(i_mat, S.act(j_mat, a))
            assert S.delta(lhs, rhs, dirs) <= 1e-12


def test_act_group_action_law():
    # act reads the radius at the exact direction, so the law holds to
    # rounding on a coarse grid.
    dirs = S.direction_grid(2, 256)
    a = smooth_domain()
    assert_group_law([((1, 1), (0, 1)), ((1, 0), (-1, 1)), ((0, -1), (1, 0)), CAT], a, dirs)
    assert np.allclose(S.act(A.identity_matrix(2), a).rho(dirs), a.rho(dirs))


def test_act_group_action_law_on_an_n3_trig_flat_shape():
    mats = [CAT3, ((1, 0, 1), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0))]
    assert_group_law(mats, trig_shape3(), S.direction_grid(3, 256))


def test_equivariance_of_linear_lifts():
    # flat shape of the pulled-back form = act(M^T, flat shape of the form)
    dirs = S.direction_grid(2, 32768)
    base = MetricForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
    m = [[2, 1], [1, 1]]
    lhs = S.flat_shape(PullbackForm(m, base), 2, 4)
    rhs = S.act(A.mat_transpose(A.as_matrix(m)), S.flat_shape(base, 2, 4))
    assert S.delta(lhs, rhs, dirs) <= 1e-12


@pytest.mark.parametrize(
    "base, m",
    [
        (MetricForm(np.array(G3)), CAT3),
        (TrigForm(1.0, [TrigTerm(0.3, (1, 0), (1, 0)), TrigTerm(0.2, (0, 1), use_sin=True)]), CAT),
        (TRIG3, CAT3),
    ],
    ids=["metric-n3", "trig-n2", "trig-n3"],
)
def test_pullback_equivariance_is_exact(base, m):
    # As test_equivariance_of_linear_lifts, for n = 3 and a form that reads
    # q: the lift permutes the base lattice, so both read the same values.
    n = len(m)
    dirs = S.direction_grid(n, 256)
    lhs = S.flat_shape(PullbackForm(m, base), n, 4)
    rhs = S.act(A.mat_transpose(A.as_matrix(m)), S.flat_shape(base, n, 4))
    assert S.delta(lhs, rhs, dirs) <= 1e-12


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------

def test_displacement_identity_and_rotation(dirs2):
    ball = S.ball(2)
    assert displacement_rate(A.identity_matrix(2), ball, 10, dirs2) == 0.0
    rot = ((0, -1), (1, 0))
    assert displacement_rate(rot, ball, 12, dirs2) == pytest.approx(0.0, abs=1e-9)


def test_displacement_cat_map(dirs2):
    val = displacement_rate(CAT, S.ball(2), 20, dirs2)
    assert val == pytest.approx(A.s_value(CAT), abs=1e-2)


def test_displacement_matches_spectrum_random(rng, dirs2):
    dirs3 = S.direction_grid(3)
    for dim, dirs in ((2, dirs2), (3, dirs3)):
        for m in sample_hyperbolic_lattice_matrices(rng, dim, 5):
            val = displacement_rate(m, S.ball(dim), 20, dirs)
            assert val == pytest.approx(A.s_value(m), abs=1e-2)


@pytest.mark.parametrize("i_mat", [CAT, CAT3], ids=["n2", "n3"])
def test_displacement_series_on_a_ball_is_the_written_out_log_norm(i_mat):
    # delta(B, I^k B) = max |log 1 - log(1/|(I^-k) u|)|, bit for bit.
    n = len(i_mat)
    dirs = S.direction_grid(n)
    i_inv = A.mat_inverse(A.as_matrix(i_mat))
    expected = []
    for inv_k in powers(i_inv, 30):
        inv_k = np.array(inv_k, dtype=float)
        image = 1.0 / np.linalg.norm(dirs @ inv_k.T, axis=1)
        expected.append(float(np.max(np.abs(np.log(1.0) - np.log(image)))))
    assert S.displacement_series(i_mat, S.ball(n), 30, dirs) == expected


@pytest.mark.parametrize("i_mat", [CAT, CAT3], ids=["n2", "n3"])
def test_displacement_series_inverts_once_and_matches_act(monkeypatch, i_mat):
    # Carrying (I^-1)^k gives the series that re-inverting each I^k gives,
    # and A's radii on dirs are read once: one rho call per step besides.
    n = len(i_mat)
    dirs = S.direction_grid(n)
    k_max = 30
    for a in (S.ball(n), smooth_domain() if n == 2 else trig_shape3()):
        expected = [
            S.delta(a, S.act(power, a), dirs) for power in powers(i_mat, k_max)
        ]
        calls, reads = [], []
        inverse = A.mat_inverse
        monkeypatch.setattr(A, "mat_inverse", lambda m: calls.append(1) or inverse(m))
        counted = S.StarDomain(n, lambda d, rho=a.rho: reads.append(d is dirs) or rho(d))
        assert S.displacement_series(i_mat, counted, k_max, dirs) == expected
        monkeypatch.setattr(A, "mat_inverse", inverse)
        assert len(calls) == 1
        assert reads.count(True) == 1 and len(reads) == k_max + 1


@pytest.mark.parametrize("n", [2, 3])
def test_norms_are_np_linalg_norm_bit_for_bit(n):
    dirs = S.direction_grid(n)
    i_inv = A.mat_inverse(CAT if n == 2 else CAT3)
    stack = np.stack([dirs @ np.array(p, dtype=float).T for p in powers(i_inv, 30)])
    for w in (dirs, stack[4], stack):  # (N, n) and (k, N, n)
        assert np.array_equal(S.norms(w), np.linalg.norm(w, axis=-1))


def test_act_takes_the_inverse_it_is_given():
    a, dirs = trig_shape3(), S.direction_grid(3)
    m = powers(CAT3, 5)[-1]
    given = S.act(m, a, A.mat_inverse(m))
    assert np.array_equal(given.rho(dirs), S.act(m, a).rho(dirs))


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
