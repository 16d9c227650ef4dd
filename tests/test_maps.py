import math

import numpy as np
import pytest

from contactlab import algebra as A
from contactlab.geometry import (
    CEPoint,
    ConstantForm,
    Direction,
    RoundForm,
    TrigForm,
    TrigTerm,
    chart_dim,
    point_to_chart,
    select_chart,
    wrap,
)
from contactlab.maps import (
    CanonicalLift,
    ContactFlow,
    ContactMap,
    MapError,
    MetricHamiltonian,
    ModulatedNormHamiltonian,
    MomentumHamiltonian,
    ReebTranslation,
    Shear,
    _composite_chart_phi,
    build_primitive,
    chart_jacobian_batch,
    conformal_factor,
    conformal_factor_batch,
    homology_action,
    identity_map,
    make_composite,
)
from conftest import fd_jacobian

CAT = [[2, 1], [1, 1]]


def random_point(rng, n=2):
    return CEPoint(Direction(rng.normal(size=n)), wrap(rng.random(n)))


def primitive_catalog(n):
    if n == 2:
        return [
            CanonicalLift(CAT),
            Shear(0),
            Shear(1),
            ReebTranslation(0.37),
            ContactFlow(MomentumHamiltonian([0.2, 0.5]), 1.0, steps=16),
            ContactFlow(MetricHamiltonian(np.diag([4.0, 1.0])), 0.4, steps=32),
            ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=64),
        ]
    return [
        CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
        ReebTranslation(0.37, n=3),
        ContactFlow(MomentumHamiltonian([0.2, 0.5, -0.1]), 1.0, steps=16),
        ContactFlow(ModulatedNormHamiltonian(0.25, axis=1, n=3), 0.4, steps=64),
    ]


# ---------------------------------------------------------------------------
# Primitives: inverses, homology
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_primitive_inverse_roundtrip(rng, n):
    for prim in primitive_catalog(n):
        f = make_composite([prim])
        g = f.inverse()
        for _ in range(5):
            x = random_point(rng, n)
            y = g.apply(f.apply(x))
            assert np.allclose(y.u.u, x.u.u, atol=1e-8)
            du = (np.array(y.q.q) - np.array(x.q.q) + 0.5) % 1.0 - 0.5
            assert np.allclose(du, 0.0, atol=1e-8)


def test_homology_matrices_of_the_catalog():
    assert homology_action(make_composite([Shear(0)])) == (
        (1, -1, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    assert homology_action(make_composite([Shear(1)])) == (
        (1, 0, -1),
        (0, 1, 0),
        (0, 0, 1),
    )
    lift = make_composite([CanonicalLift(CAT)])
    minv_t = A.mat_transpose(A.mat_inverse(A.as_matrix(CAT)))
    assert A.a_block(homology_action(lift))[0] == minv_t
    assert homology_action(make_composite([ReebTranslation(0.3)])) == A.identity_matrix(3)
    lift3 = make_composite([CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]])])
    assert homology_action(lift3) == A.mat_transpose(
        A.mat_inverse(A.as_matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]))
    )


def test_composite_homology_is_a_homomorphism(rng):
    f = make_composite([Shear(0), CanonicalLift(CAT), Shear(1)])
    expected = A.mat_mul(
        Shear(1).homology(), A.mat_mul(CanonicalLift(CAT).homology(), Shear(0).homology())
    )
    assert f.homology_matrix == expected
    # s of the composite action from the matrix product only
    assert A.s_value(f.homology_matrix) == pytest.approx(
        A.s_value(expected), abs=0.0
    )


def test_composite_dimension_mismatch():
    with pytest.raises(MapError, match="dimension"):
        make_composite([Shear(0), ReebTranslation(0.1, n=3)])


def test_power_and_identity():
    f = make_composite([CanonicalLift(CAT)])
    f2 = f.power(2)
    assert f2.homology_matrix == A.mat_mul(f.homology_matrix, f.homology_matrix)
    assert f.power(0).homology_matrix == A.identity_matrix(3)
    assert f.power(-1).homology_matrix == A.mat_inverse(f.homology_matrix)


# ---------------------------------------------------------------------------
# Conformal factors
# ---------------------------------------------------------------------------

def test_strict_maps_have_unit_conformal_factor(rng):
    form = RoundForm()
    strict = [
        identity_map(2),
        make_composite([Shear(0)]),
        make_composite([Shear(1)]),
        make_composite([ReebTranslation(0.37)]),
        make_composite([CanonicalLift([[0, -1], [1, 0]])]),
    ]
    for f in strict:
        for _ in range(20):
            c = conformal_factor(f, form, random_point(rng))
            assert c == pytest.approx(1.0, abs=1e-9)


def test_canonical_lift_conformal_factor_closed_form(rng):
    # Inverse pullback telescopes to direction stretches: the one-step factor
    # of the lift at (u, q) is 1/|M^{-T} u|.
    form = RoundForm()
    m = np.array(CAT, float)
    f = make_composite([CanonicalLift(CAT)])
    for _ in range(20):
        x = random_point(rng)
        u = np.array(x.u.u)
        c = conformal_factor(f, form, x)
        assert c == pytest.approx(1.0 / np.linalg.norm(np.linalg.inv(m).T @ u), rel=1e-9)


def test_conformal_factor_batch_matches_pointwise(rng):
    form = TrigForm(1.0, [TrigTerm(0.3, (1, 0)), TrigTerm(0.2, (0, 1), (2, 0))])
    f = make_composite([CanonicalLift(CAT), ReebTranslation(0.2)])
    pts = [random_point(rng) for _ in range(40)]
    u = np.array([p.u.u for p in pts]).T
    q = np.array([p.q.q for p in pts]).T
    c, u2, q2 = conformal_factor_batch(f, form, u, q)
    for i, p in enumerate(pts):
        assert c[i] == pytest.approx(conformal_factor(f, form, p), rel=1e-10)
        y = f.apply(p)
        assert np.allclose(u2[:, i], y.u.u, atol=1e-10)


def test_conformal_factor_batch_n3(rng):
    form = RoundForm()
    f = make_composite([CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]])])
    pts = [random_point(rng, 3) for _ in range(60)]
    u = np.array([p.u.u for p in pts]).T
    q = np.array([p.q.q for p in pts]).T
    c, _, _ = conformal_factor_batch(f, form, u, q)
    minv_t = np.linalg.inv(np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]], float)).T
    expected = 1.0 / np.linalg.norm(minv_t @ u, axis=0)
    assert np.allclose(c, expected, rtol=1e-9)


def test_cocycle_identity(rng):
    # factor of g∘g at x = factor of g at g(x) times factor of g at x
    form = TrigForm(1.0, [TrigTerm(0.3, (1, 1))])
    g = make_composite([CanonicalLift(CAT), ReebTranslation(0.2)]).inverse()
    g2 = make_composite(list(g.primitives) * 2)
    for _ in range(100):
        x = random_point(rng)
        lhs = conformal_factor(g2, form, x)
        rhs = conformal_factor(g, form, g.apply(x)) * conformal_factor(g, form, x)
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# Closed-form round-form factors against the jet oracle
# ---------------------------------------------------------------------------

def random_batch(rng, n, npts=200):
    u = rng.normal(size=(n, npts))
    return u / np.linalg.norm(u, axis=0), rng.random((n, npts))


def closed_form_gap(f, u, q):
    """max |closed-form log factor - log of the jet factor| for the round form."""
    _, _, log_c = f.apply_batch(u, q)
    c, _, _ = conformal_factor_batch(f, RoundForm(), u, q)
    return float(np.max(np.abs(log_c - np.log(c))))


EXACT_PRIMITIVES = {
    "lift2": CanonicalLift(CAT),
    "lift2_inverse": CanonicalLift(CAT).inverse(),
    "lift3": CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
    "lift3_full": CanonicalLift([[1, 1, 0], [1, 2, 1], [0, 1, 2]]),
    "shear_a": Shear(0),
    "shear_a_inverse": Shear(0, -1),
    "shear_b": Shear(1),
    "shear_b_inverse": Shear(1, -1),
    "reeb2": ReebTranslation(0.37),
    "reeb3": ReebTranslation(0.37, n=3),
}


@pytest.mark.parametrize("name", sorted(EXACT_PRIMITIVES))
def test_closed_form_factor_matches_jets(rng, name):
    prim = EXACT_PRIMITIVES[name]
    u, q = random_batch(rng, prim.n)
    assert closed_form_gap(make_composite([prim]), u, q) < 1e-12


def test_closed_form_factor_sums_over_a_composite(rng):
    f = make_composite([CanonicalLift(CAT), Shear(0), ReebTranslation(0.2), Shear(1, -1)])
    u, q = random_batch(rng, 2)
    assert closed_form_gap(f, u, q) < 1e-12
    assert closed_form_gap(f.inverse(), u, q) < 1e-12


@pytest.mark.parametrize(
    "ham",
    [
        MomentumHamiltonian([0.2, 0.5]),
        MetricHamiltonian([[4.0, 1.0], [1.0, 1.0]]),
        ModulatedNormHamiltonian(0.3),
        ModulatedNormHamiltonian(0.25, axis=1, n=3),
    ],
    ids=["momentum", "metric", "modulated", "modulated3"],
)
def test_contact_flow_closed_form_converges_to_jets(rng, ham):
    # The closed form is the exact factor 1/|p(t)| of the continuous flow;
    # the jets differentiate the RK4 map, so the two differ by O(h^4).
    u, q = random_batch(rng, ham.n)
    gaps = [
        closed_form_gap(make_composite([ContactFlow(ham, 0.5, steps=s)]), u, q)
        for s in (16, 64, 256)
    ]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine <= max(coarse / 50.0, 1e-12)
    assert gaps[-1] < 1e-9


# ---------------------------------------------------------------------------
# AD vs finite differences through the charts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_chart_jacobians_match_finite_differences(rng, n):
    d = chart_dim(n)
    periodic_out = [True] * d if n == 2 else [False, False, True, True, True]
    for prim in primitive_catalog(n):
        f = make_composite([prim])
        for _ in range(3):
            x = random_point(rng, n)
            chart_in, coords = point_to_chart(x)
            chart_out = select_chart(f.apply(x).u.u)
            phi = _composite_chart_phi(f, chart_in, chart_out)
            u = np.array([[c] for c in x.u.u])
            q = np.array([[c] for c in x.q.q])
            jac, _, _ = chart_jacobian_batch(f, u, q)
            fd = fd_jacobian(
                lambda cs: [float(np.asarray(v.value if hasattr(v, "value") else v)) for v in phi(cs)],
                coords,
                periodic_out,
            )
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(jac[:, :, 0] - fd).max() / scale < 1e-5


def test_contact_flow_divergence_guard():
    # An absurd timestep makes RK4 blow up; the guard must catch it.
    flow = ContactFlow(ModulatedNormHamiltonian(0.9), 200.0, steps=1)
    f = make_composite([flow])
    with pytest.raises(MapError, match="diverged"):
        f.apply(CEPoint(Direction([1.0, 0.3]), wrap([0.1, 0.2])))


# ---------------------------------------------------------------------------
# Descriptor factory
# ---------------------------------------------------------------------------

def test_build_primitive_roundtrip():
    specs = [p.describe() for p in primitive_catalog(2)]
    rebuilt = [build_primitive(s, 2) for s in specs]
    assert [p.describe() for p in rebuilt] == specs
    with pytest.raises(MapError, match="unknown primitive"):
        build_primitive({"kind": "foo"}, 2)
