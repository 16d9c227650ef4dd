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
    ModulatedNormHamiltonian,
    MomentumHamiltonian,
    Primitive,
    ReebTranslation,
    Shear,
    conformal_factor_batch,
    identity_map,
    make_composite,
)

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
    u, q = D.grid_points(f.n, grid)
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

    def profile(self, u, q):
        return np.where(np.asarray(q[0]) < 0.5, 1.0, np.nan)

    def spec(self):
        return {"kind": "hole"}


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
    assert D.classify(cat_r) == "Hyperbolic"
    ident_r = D.r_sequence(identity_map(2), RoundForm(), 10, FAST)
    assert D.classify(ident_r) == "Elliptic-consistent"
    reeb_r = D.r_sequence(make_composite([ReebTranslation(0.3)]), RoundForm(), 10, FAST)
    assert D.classify(reeb_r) == "Elliptic-consistent"
    noisy = [0.3 + 0.4 * ((-1) ** k) for k in range(1, 41)]
    assert D.classify(noisy) == "Indeterminate"


def test_chi_homogeneity_under_powers():
    grid = D.GridSpec(3, 64)
    f = cat_map()
    chi1 = D.chi_estimate(D.r_sequence(f, RoundForm(), 14, grid)).chi_hat
    chi2 = D.chi_estimate(D.r_sequence(f.power(2), RoundForm(), 14, grid)).chi_hat
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


# ---------------------------------------------------------------------------
# verify_bound and reports
# ---------------------------------------------------------------------------

def test_verify_bound_cat_map():
    res = D.verify_bound(cat_map(), RoundForm(), 30, D.GridSpec(4, 128))
    assert res["s_target"] == pytest.approx(CAT_S, abs=1e-9)
    assert res["chi_hat"] == pytest.approx(CAT_S, abs=0.03)
    assert res["pass"] and res["verdict"] == "Hyperbolic"


def test_verify_bound_shear_sharpness():
    res = D.verify_bound(make_composite([Shear(0)]), RoundForm(), 10, D.GridSpec(6, 32))
    assert res["s_target"] == pytest.approx(0.0, abs=1e-10)
    assert res["a_block"] == [[1, 0], [0, 1]]
    assert (res["l"], res["m"]) == (-1, 0)
    assert res["pass"]


def test_verify_bound_identity():
    res = D.verify_bound(identity_map(2), RoundForm(), 10, FAST)
    assert res["pass"] and res["s_target"] == pytest.approx(0.0, abs=1e-12)


def test_verify_bound_conservative_contradiction_flag():
    # A declared-conservative map classified Hyperbolic must raise the flag.
    res = D.verify_bound(
        cat_map(), RoundForm(), 20, FAST, declared_conservative=True
    )
    assert res["conservative_contradiction"]
    assert not res["pass"]
    assert "conservative" in res["note"]


def test_compute_report_fields():
    rep = D.compute_report(cat_map(), RoundForm(), 12, FAST, lyap_K=10)
    assert len(rep.r_series) == 12
    assert all(v >= 0 for v in rep.r_series)
    assert rep.verdict == "Hyperbolic"
    assert rep.lyap_hat == pytest.approx(CAT_S, abs=0.05)
    assert rep.grid["K"] == 12


def test_refinement_delta_small_for_lift():
    coarse, fine, rel = D.refinement_delta(cat_map(), RoundForm(), 8, D.GridSpec(4, 64))
    assert rel < 0.01
