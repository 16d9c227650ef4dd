import math

import numpy as np
import pytest

from contactlab import algebra as A
from contactlab import dissipation as D
from contactlab.geometry import (
    ConstantForm,
    ContactForm,
    MetricForm,
    PullbackForm,
    RoundForm,
    TrigForm,
    TrigTerm,
)
from contactlab.maps import (
    CanonicalLift,
    ContactFlow,
    ContactMap,
    MetricHamiltonian,
    ModulatedNormHamiltonian,
    MomentumHamiltonian,
    Primitive,
    ReebTranslation,
    Shear,
    identity_map,
    make_composite,
)

from conftest import CountingForm, conformal_factor_batch, frame_lyapunov, full_grid

CAT = [[2, 1], [1, 1]]
CAT_S = math.log((3.0 + math.sqrt(5.0)) / 2.0)
FAST = D.GridSpec(4, 64)


def cat_map():
    return make_composite([CanonicalLift(CAT)])


# ---------------------------------------------------------------------------
# r_sequence
# ---------------------------------------------------------------------------

def test_identity_r_is_zero():
    r = D.r_sequence(identity_map(2), RoundForm(), 10, FAST)
    assert np.all(r <= 1e-12)


def test_strict_shear_r_is_zero():
    r = D.r_sequence(make_composite([Shear(0)]), RoundForm(), 10, D.GridSpec(8, 32))
    assert np.all(r <= 1e-9)


@pytest.mark.parametrize(
    "form, reads",
    [
        (RoundForm(), 1),
        (ConstantForm(2.5), 1),
        (TrigForm(1.3, []), 1),
        (MetricForm(np.diag([4.0, 1.0])), 11),
        (TrigForm(1.0, [TrigTerm(0.3, (1, 0))]), 11),
    ],
    ids=["round", "constant", "trig_no_terms", "metric", "trig"],
)
def test_r_sequence_reads_a_pointwise_profile_once(form, reads):
    # A profile that reads neither u nor q has coboundary 0: it is read and
    # checked once.  Any other is read at the start and after each of K steps.
    counted = CountingForm(form)
    r = D.r_sequence(cat_map(), counted, 10, FAST)
    assert counted.calls == reads
    assert np.array_equal(r, D.r_sequence(cat_map(), form, 10, FAST))


def test_constant_form_r_is_the_round_form_r():
    f = make_composite([CanonicalLift(CAT), Shear(0)])
    r = D.r_sequence(f, RoundForm(), 12, FAST)
    assert np.array_equal(D.r_sequence(f, ConstantForm(0.3), 12, FAST), r)


def test_cat_map_r_growth():
    r = D.r_sequence(cat_map(), RoundForm(), 30, D.GridSpec(4, 128))
    assert abs(r[-1] / 30 - CAT_S) < 0.02


def test_r_sequence_matches_direction_stretch_oracle():
    # For linear lifts the grid r_k must equal the max |log direction
    # stretch| of (M^T)^k over the same fiber directions.
    grid = D.GridSpec(3, 64)
    r = D.r_sequence(cat_map(), RoundForm(), 12, grid)
    from contactlab.geometry import sphere_grid_array

    dirs = sphere_grid_array(2, 64).T
    mt = np.array(CAT, float).T
    p = np.eye(2)
    for k in range(12):
        p = mt @ p
        oracle = np.max(np.abs(np.log(np.linalg.norm(p @ dirs, axis=0))))
        assert abs(r[k] - oracle) < 1e-6


def test_r_sequence_reversal():
    grid = D.GridSpec(4, 64)
    f = cat_map()
    r_f = D.r_sequence(f, RoundForm(), 10, grid)
    r_inv = D.r_sequence(f.inverse(), RoundForm(), 10, grid)
    assert np.allclose(r_f, r_inv, atol=1e-6)


def test_r_subadditivity_with_grid_slack():
    grid = D.GridSpec(6, 64)
    for f in (cat_map(), make_composite([CanonicalLift(CAT), ReebTranslation(0.2)])):
        r = D.r_sequence(f, RoundForm(), 12, grid)
        for k in range(1, 12):
            for m in range(1, 12 - k):
                assert r[k + m - 1] <= r[k - 1] + r[m - 1] + 0.05


def test_form_independence_up_to_constants():
    grid = D.GridSpec(8, 64)
    lam = RoundForm()
    factor = TrigForm(1.0, [TrigTerm(0.3, (1, 0))])
    f = cat_map()
    r1 = D.r_sequence(f, lam, 12, grid)
    r2 = D.r_sequence(f, factor, 12, grid)
    bound = 2 * abs(math.log(0.7)) + 0.05
    assert np.max(np.abs(r1 - r2)) <= bound


def test_monotone_refinement_does_not_decrease():
    f = cat_map()
    # Doubling an n=2 grid keeps every coarse sample point, so the max can
    # only go up (mod roundoff).
    coarse = D.r_sequence(f, RoundForm(), 8, D.GridSpec(4, 32))
    fine = D.r_sequence(f, RoundForm(), 8, D.GridSpec(8, 64))
    assert np.all(fine >= coarse - 1e-9)


def test_r_sequence_validation():
    with pytest.raises(D.DissipationError):
        D.r_sequence(identity_map(2), RoundForm(), 0, FAST)


# -- closed-form cocycle plus coboundary against the jet factors ------------

TRIG = TrigForm(1.0, [TrigTerm(0.3, (1, 0), (1, 0)), TrigTerm(0.2, (0, 1), use_sin=True)])
COBOUNDARY_FORMS = {
    "trig": TRIG,
    "metric": MetricForm(np.array([[2.0, 0.5], [0.5, 1.0]])),
    "pullback": PullbackForm([[1, 1], [0, 1]], TRIG),
}


def jet_r_sequence(f, form, K, grid):
    """r_k from jet factors of the given form at every orbit step (the oracle)."""
    g = f.inverse()
    u, q = full_grid(f.n, grid)
    acc = np.zeros(u.shape[1])
    out = np.empty(K)
    for k in range(K):
        c, u, q = conformal_factor_batch(g, form, u, q)
        acc += np.log(c)
        out[k] = np.max(np.abs(acc))
    return out


@pytest.mark.parametrize("name", sorted(COBOUNDARY_FORMS))
def test_coboundary_identity_along_an_orbit(rng, name):
    # log of the product of jet factors of the form along x_0..x_{k-1}
    # = sum of closed-form round factors + log F(x_k) - log F(x_0).
    form = COBOUNDARY_FORMS[name]
    g = make_composite([CanonicalLift(CAT), Shear(0), ReebTranslation(0.2)]).inverse()
    u = rng.normal(size=(2, 300))
    u /= np.linalg.norm(u, axis=0)
    q = rng.random((2, 300))
    log_f0 = np.log(form.profile(list(u), list(q)))
    jet_acc = np.zeros(300)
    closed_acc = np.zeros(300)
    for _ in range(6):
        c, _, _ = conformal_factor_batch(g, form, u, q)
        u, q, log_c = g.apply_batch(u, q)
        jet_acc += np.log(c)
        closed_acc += log_c
        closed = closed_acc + np.log(form.profile(list(u), list(q))) - log_f0
        assert np.max(np.abs(closed - jet_acc)) < 1e-11


@pytest.mark.parametrize("name", sorted(COBOUNDARY_FORMS))
def test_r_sequence_matches_jet_oracle_on_lifts(name):
    form = COBOUNDARY_FORMS[name]
    f = make_composite([CanonicalLift(CAT), Shear(1)])
    grid = D.GridSpec(6, 32)
    r = D.r_sequence(f, form, 10, grid)
    ref = jet_r_sequence(f, form, 10, grid)
    assert np.all(np.abs(r - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_r_sequence_matches_jet_oracle_on_flows():
    # RK4 gap of the closed form: well inside k * 2e-8 at 64 steps.
    f = make_composite([Shear(0), ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=64)])
    grid = D.GridSpec(6, 32)
    r = D.r_sequence(f, TRIG, 8, grid)
    ref = jet_r_sequence(f, TRIG, 8, grid)
    assert np.all(np.abs(r - ref) <= 2e-8 * np.arange(1, 9))


def test_r_sequence_n3_metric_lift_matches_jet_oracle():
    g = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    f = make_composite([CanonicalLift([[1, 1, 0], [1, 2, 1], [0, 1, 2]])])
    grid = D.GridSpec(3, 48)
    r = D.r_sequence(f, MetricForm(g), 8, grid)
    ref = jet_r_sequence(f, MetricForm(g), 8, grid)
    assert np.all(np.abs(r - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


# -- rejected factors --------------------------------------------------------

SIGN_CHANGING = TrigForm(0.1, [TrigTerm(1.0, (1, 0))])  # 0.1 + cos 2 pi q1


@pytest.mark.parametrize("f", [identity_map(2), cat_map()], ids=["identity", "cat"])
def test_sign_changing_profile_rejected(f):
    with pytest.raises(D.DissipationError, match="trig form"):
        D.r_sequence(f, SIGN_CHANGING, 10, FAST)


class HoleForm(ContactForm):
    """Profile that is NaN on half of the base."""

    kind = "hole"

    def profile(self, u, q):
        return np.where(np.asarray(q[0]) < 0.5, 1.0, np.nan)


def test_nan_profile_rejected():
    with pytest.raises(D.DissipationError, match="hole form"):
        D.r_sequence(identity_map(2), HoleForm(), 10, FAST)


class BlowUp(Primitive):
    """Identity on points with an infinite log factor."""

    n = 2

    def transform(self, u, q):
        return list(u), list(q), np.inf

    def inverse(self):
        return self

    def homology(self):
        return A.identity_matrix(3)

    def describe(self):
        return {"kind": "blow_up"}


def test_non_finite_accumulated_factor_rejected():
    with pytest.raises(D.DissipationError, match="round form is not finite"):
        D.r_sequence(make_composite([BlowUp()]), RoundForm(), 10, FAST)


# -- the q-free and shift reductions -----------------------------------------

class Pinned(Primitive):
    """The wrapped primitive with base_action left at its default (no
    axes), so r_sequence and lyapunov_estimate keep the full grid."""

    def __init__(self, prim):
        self.prim = prim
        self.n = prim.n

    def transform(self, u, q):
        return self.prim.transform(u, q)

    def inverse(self):
        return Pinned(self.prim.inverse())

    def homology(self):
        return self.prim.homology()

    def describe(self):
        return self.prim.describe()


def pinned(f):
    return make_composite([Pinned(p) for p in f.primitives], n=f.n)


def full_grid_r_sequence(f, form, K, grid):
    return D.r_sequence(pinned(f), form, K, grid)


Q_FREE_MAPS = {
    "lift": [CanonicalLift(CAT)],
    "shear": [Shear(0), Shear(1, -1)],
    "reeb": [ReebTranslation(0.37)],
    "momentum_flow": [ContactFlow(MomentumHamiltonian([0.2, 0.5]), 1.0, steps=16)],
    "metric_flow": [ContactFlow(MetricHamiltonian(np.diag([4.0, 1.0])), 0.4, steps=16)],
}
METRIC_2 = MetricForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
Q_FREE_FORMS = {
    "round": RoundForm(),
    "metric": METRIC_2,
    "pullback_metric": PullbackForm(CAT, METRIC_2),
}


@pytest.fixture
def apply_sizes(monkeypatch):
    """Number of points in each apply_batch call made during the test."""
    sizes = []
    apply_batch = ContactMap.apply_batch

    def spy(self, u, q):
        sizes.append(u.shape[1])
        return apply_batch(self, u, q)

    monkeypatch.setattr(ContactMap, "apply_batch", spy)
    return sizes


@pytest.mark.parametrize("form_name", sorted(Q_FREE_FORMS))
@pytest.mark.parametrize("map_name", sorted(Q_FREE_MAPS))
def test_q_free_reduction_equals_the_full_grid(apply_sizes, map_name, form_name):
    f = make_composite(Q_FREE_MAPS[map_name])
    form = Q_FREE_FORMS[form_name]
    grid = D.GridSpec(4, 32)
    reduced = D.r_sequence(f, form, 8, grid)
    assert apply_sizes == [32] * 8  # one base point, the fiber directions alone
    full = full_grid_r_sequence(f, form, 8, grid)
    assert apply_sizes[8:] == [16 * 32] * 8
    np.testing.assert_array_equal(reduced, full)


def test_q_dependent_inputs_keep_the_full_grid(apply_sizes):
    # A lift (B = M on every axis) then a modulated flow (I off q1) share
    # no declaration, so a form that reads q needs every base point.
    grid = D.GridSpec(4, 32)
    lift_flow = [CanonicalLift(CAT), ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=8)]
    D.r_sequence(make_composite(lift_flow), TRIG, 8, grid)
    assert apply_sizes == [16 * 32] * 8
    # The modulated flow reads q1 alone, so orbits start only where q2 = 0.
    flow = ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=8)
    D.r_sequence(make_composite([flow]), RoundForm(), 8, grid)
    assert apply_sizes[8:] == [4 * 32] * 8


# map name -> (primitives, points per apply_batch call on GridSpec(4, 32))
SHIFT_MAPS = {
    "shear": ([Shear(0), Shear(1, -1)], 32),
    "modulated_flow": ([ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=16)], 4 * 32),
    "shear_flow": (
        [Shear(0), ContactFlow(ModulatedNormHamiltonian(0.3, axis=1), 0.5, steps=16)],
        4 * 32,
    ),
}
SHIFT_FORMS = {
    "trig": TRIG,
    "round": RoundForm(),
    "pullback": COBOUNDARY_FORMS["pullback"],
}


@pytest.mark.parametrize("form_name", sorted(SHIFT_FORMS))
@pytest.mark.parametrize("map_name", sorted(SHIFT_MAPS))
def test_shift_reduction_matches_the_full_grid(apply_sizes, map_name, form_name):
    prims, points = SHIFT_MAPS[map_name]
    f = make_composite(prims)
    grid = D.GridSpec(4, 32)
    reduced = D.r_sequence(f, SHIFT_FORMS[form_name], 6, grid)
    assert apply_sizes == [points] * 6
    full = full_grid_r_sequence(f, SHIFT_FORMS[form_name], 6, grid)
    assert apply_sizes[6:] == [16 * 32] * 6
    np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-13)


TRIG_3 = TrigForm(1.0, [TrigTerm(0.3, (1, 0, 0), (1, 0, 0)), TrigTerm(0.2, (0, 1, 1), use_sin=True)])


@pytest.mark.parametrize("form", [TRIG_3, RoundForm()], ids=["trig", "round"])
def test_n3_modulated_flow_runs_only_the_axis_it_reads(apply_sizes, form):
    flow = ContactFlow(ModulatedNormHamiltonian(0.3, axis=0, n=3), 0.5, steps=8)
    f = make_composite([flow])
    grid = D.GridSpec(4, 32)
    reduced = D.r_sequence(f, form, 4, grid)
    assert apply_sizes == [4 * 32] * 4  # q2 = q3 = 0
    full = full_grid_r_sequence(f, form, 4, grid)
    assert apply_sizes[4:] == [64 * 32] * 4
    np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-13)


N3_LIFT = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]
# map name -> (primitives, form, grid, K): B != I on every axis, so orbits
# run from q = 0 and the shifts move as B^k t mod 1.
LIFT_TRIG_MAPS = {
    "lift2": ([CanonicalLift(CAT)], TRIG, D.GridSpec(6, 32), 6),
    "lift2_det_minus_one": ([CanonicalLift([[1, 1], [1, 0]])], TRIG, D.GridSpec(6, 32), 6),
    "lift_shear": ([CanonicalLift(CAT), Shear(0)], TRIG, D.GridSpec(6, 32), 6),
    "shear_lift": ([Shear(1, -1), CanonicalLift(CAT)], TRIG, D.GridSpec(5, 32), 6),
    "lift3": ([CanonicalLift(N3_LIFT)], TRIG_3, D.GridSpec(6, 48), 4),
}


@pytest.mark.parametrize("name", sorted(LIFT_TRIG_MAPS))
def test_lift_reduction_matches_the_full_grid(apply_sizes, name):
    prims, form, grid, K = LIFT_TRIG_MAPS[name]
    f = make_composite(prims)
    reduced = D.r_sequence(f, form, K, grid)
    assert apply_sizes == [grid.fiber_res] * K  # q = 0 only
    full = full_grid_r_sequence(f, form, K, grid)
    assert apply_sizes[K:] == [grid.q_res ** f.n * grid.fiber_res] * K
    np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-13)


def test_shifted_profile_check_sees_every_grid_point():
    # 0.1 + cos 2 pi q2 is negative only for |q2 - 1/2| < 0.23.  The flow's
    # orbits start at q2 = 0 and move q2 by less than 0.15 in two steps, so
    # only the shifts reach the grid points where the profile is negative.
    flow = ContactFlow(ModulatedNormHamiltonian(0.3), 0.05, steps=4)
    with pytest.raises(D.DissipationError, match="trig form"):
        D.r_sequence(make_composite([flow]), TrigForm(0.1, [TrigTerm(1.0, (0, 1))]), 2, FAST)


@pytest.mark.parametrize("matrix, grid, K", [(CAT, D.GridSpec(8, 128), 30), (N3_LIFT, D.GridSpec(2, 96), 12)])
def test_round_form_lift_r_k_is_below_the_fiber_supremum(matrix, grid, K):
    # g = f^-1 sends u to M^T u / |M^T u| with log factor -log |M^T u|, so
    # sup |log factor of g^k| is max(log s_max, -log s_min) of (M^T)^k.
    # s_min is read as 1 / s_max of the integer inverse power, which stays
    # well conditioned.
    r = D.r_sequence(make_composite([CanonicalLift(matrix)]), RoundForm(), K, grid)
    mt = np.array(matrix).T
    mt_inv = np.rint(np.linalg.inv(mt)).astype(int)

    def s_max(a, k):
        return np.linalg.norm(np.linalg.matrix_power(a, k).astype(float), 2)

    sup = np.array([max(np.log(s_max(mt, k)), np.log(s_max(mt_inv, k))) for k in range(1, K + 1)])
    assert np.all(r <= sup + 1e-12)
    if len(matrix) == 2:
        assert np.all(sup - r < 1e-3)


# ---------------------------------------------------------------------------
# chi estimation and classification
# ---------------------------------------------------------------------------

def test_chi_estimate_exact_line():
    r = [0.96242 * k for k in range(1, 31)]
    est = D.chi_estimate(r)
    assert est.chi_hat == pytest.approx(0.96242, abs=1e-12)
    assert est.chi_last == pytest.approx(0.96242, abs=1e-12)


def test_chi_estimate_bounded_series():
    r = [0.3] * 40
    est = D.chi_estimate(r)
    assert abs(est.chi_hat) < 1e-12
    assert est.chi_last <= 2 * 0.3 / 40 + 1e-12


def test_chi_estimate_intermediate_growth():
    K = 2000
    r = [math.log(k + 1) for k in range(1, K + 1)]
    assert D.chi_estimate(r).chi_hat < 2e-3


def test_chi_estimate_needs_length():
    with pytest.raises(D.DissipationError):
        D.chi_estimate([1.0] * 5)


def test_classify_examples():
    cat_r = D.r_sequence(cat_map(), RoundForm(), 20, FAST)
    assert D.classify(cat_r, D.chi_estimate(cat_r)) == "Hyperbolic"
    ident_r = D.r_sequence(identity_map(2), RoundForm(), 10, FAST)
    assert D.classify(ident_r, D.chi_estimate(ident_r)) == "Elliptic-consistent"
    reeb_r = D.r_sequence(make_composite([ReebTranslation(0.3)]), RoundForm(), 10, FAST)
    assert D.classify(reeb_r, D.chi_estimate(reeb_r)) == "Elliptic-consistent"
    noisy = [0.3 + 0.4 * ((-1) ** k) for k in range(1, 41)]
    assert D.classify(noisy, D.chi_estimate(noisy)) == "Indeterminate"


def test_chi_homogeneity_under_powers():
    grid = D.GridSpec(3, 64)
    f = cat_map()
    chi1 = D.chi_estimate(D.r_sequence(f, RoundForm(), 14, grid)).chi_hat
    f2 = make_composite(list(f.primitives) * 2, n=f.n)
    chi2 = D.chi_estimate(D.r_sequence(f2, RoundForm(), 14, grid)).chi_hat
    assert chi2 == pytest.approx(2 * chi1, rel=0.05)


# ---------------------------------------------------------------------------
# Lyapunov
# ---------------------------------------------------------------------------

def test_lyapunov_identity_zero():
    assert D.lyapunov_estimate(identity_map(2), 10, D.GridSpec(3, 16)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_lyapunov_cat_map():
    val = D.lyapunov_estimate(cat_map(), 15, D.GridSpec(4, 32))
    assert val == pytest.approx(CAT_S, abs=0.05)


def test_lyapunov_shear_decays():
    # Unipotent derivative growth: the estimate decays like log(k)/k.
    short = D.lyapunov_estimate(make_composite([Shear(0)]), 10, D.GridSpec(4, 16))
    long = D.lyapunov_estimate(make_composite([Shear(0)]), 60, D.GridSpec(4, 16))
    assert long < short
    assert long < 0.1


LYAPUNOV_CHAINS = {
    "cat": ([CanonicalLift(CAT)], D.GridSpec(4, 32)),
    "shear_flow": ([Shear(0), ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=16)], D.GridSpec(3, 16)),
    "n3_lift": ([CanonicalLift([[1, 1, 0], [1, 2, 1], [0, 1, 2]])], D.GridSpec(2, 24)),
}


@pytest.mark.parametrize("prims, grid", LYAPUNOV_CHAINS.values(), ids=LYAPUNOV_CHAINS)
def test_lyapunov_matches_the_per_step_svd_chain(prims, grid):
    f = make_composite(prims)
    got = D.lyapunov_estimate(f, 12, grid)
    assert got == pytest.approx(frame_lyapunov(f, 12, grid, per_step_svd=True), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("prims, grid", LYAPUNOV_CHAINS.values(), ids=LYAPUNOV_CHAINS)
def test_lyapunov_does_not_depend_on_the_frame(prims, grid):
    # The operator norm of Df^K on T(S^{n-1}) + R^n is the same in every
    # orthonormal frame: start each chain from a random turn of its frame.
    f = make_composite(prims)
    got = D.lyapunov_estimate(f, 12, grid)
    turned = frame_lyapunov(f, 12, grid, rng=np.random.default_rng(4))
    assert got == pytest.approx(turned, rel=1e-12)


class NanStep(Primitive):
    """Sends every point to NaN."""

    n = 2
    kind = "nan_step"

    def transform(self, u, q):
        return [ui * np.nan for ui in u], list(q), 0.0

    def inverse(self):
        return self


def test_lyapunov_rejects_a_frame_that_is_not_finite():
    with pytest.raises(D.DissipationError, match="not positive and finite at k = 1"):
        D.lyapunov_estimate(make_composite([NanStep()]), 8, D.GridSpec(2, 8))


@pytest.fixture
def frame_sizes(monkeypatch):
    """Number of points in each frame step of lyapunov_estimate."""
    sizes = []
    push_frame = ContactMap.push_frame

    def spy(f, u, q, frame):
        sizes.append(u.shape[1])
        return push_frame(f, u, q, frame)

    monkeypatch.setattr(ContactMap, "push_frame", spy)
    return sizes


# map name -> (primitives, orbit base points on GridSpec(3, 16) or (2, 24))
LYAPUNOV_MAPS = {
    "lift2": ([CanonicalLift(CAT)], 1),
    "lift3": ([CanonicalLift(N3_LIFT)], 1),
    "shear": ([Shear(0), Shear(1, -1)], 1),
    "reeb": ([ReebTranslation(0.37)], 1),
    "momentum_flow": ([ContactFlow(MomentumHamiltonian([0.2, 0.5]), 1.0, steps=16)], 1),
    "metric_flow": ([ContactFlow(MetricHamiltonian(np.diag([4.0, 1.0])), 0.4, steps=16)], 1),
    "lift_shear": ([CanonicalLift(CAT), Shear(0)], 1),
    "shear_modulated_flow": ([Shear(0), ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=16)], 3),
}


@pytest.mark.parametrize("name", sorted(LYAPUNOV_MAPS))
def test_reduced_lyapunov_equals_the_full_grid(frame_sizes, name):
    prims, base_points = LYAPUNOV_MAPS[name]
    f = make_composite(prims)
    grid = D.GridSpec(3, 16) if f.n == 2 else D.GridSpec(2, 24)
    reduced = D.lyapunov_estimate(f, 8, grid)
    assert frame_sizes == [base_points * grid.fiber_res] * 8
    full = D.lyapunov_estimate(pinned(f), 8, grid)
    assert frame_sizes[8:] == [grid.q_res ** f.n * grid.fiber_res] * 8
    if base_points == 1:
        assert reduced == full  # the chain reads the fiber orbit alone
    else:
        assert reduced == pytest.approx(full, rel=0, abs=1e-13)


# ---------------------------------------------------------------------------
# verify_bound and reports
# ---------------------------------------------------------------------------

def bound_check(f, K, grid, declared_conservative=False):
    """verify_bound on the chi fit and verdict of f's round-form r_k series."""
    r = D.r_sequence(f, RoundForm(), K, grid)
    est = D.chi_estimate(r)
    return D.verify_bound(f, est, D.classify(r, est), declared_conservative)


def test_verify_bound_cat_map():
    res = bound_check(cat_map(), 30, D.GridSpec(4, 128))
    assert res["s_target"] == pytest.approx(CAT_S, abs=1e-9)
    assert res["chi_hat"] == pytest.approx(CAT_S, abs=0.03)
    assert res["pass"] and res["verdict"] == "Hyperbolic"


def test_verify_bound_shear_sharpness():
    res = bound_check(make_composite([Shear(0)]), 10, D.GridSpec(6, 32))
    assert res["s_target"] == pytest.approx(0.0, abs=1e-10)
    assert res["a_block"] == [[1, 0], [0, 1]]
    assert (res["l"], res["m"]) == (-1, 0)
    assert res["pass"]


def test_verify_bound_identity():
    res = bound_check(identity_map(2), 10, FAST)
    assert res["pass"] and res["s_target"] == pytest.approx(0.0, abs=1e-12)


def test_verify_bound_conservative_contradiction_flag():
    # A declared-conservative map classified Hyperbolic must raise the flag.
    res = bound_check(cat_map(), 20, FAST, declared_conservative=True)
    assert res["conservative_contradiction"]
    assert not res["pass"]
    assert "conservative" in res["note"]


def test_refinement_delta_small_for_lift():
    coarse, fine, rel = D.refinement_delta(cat_map(), RoundForm(), 8, D.GridSpec(4, 64))
    assert rel < 0.01
