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
    HAMILTONIANS,
    PRIMITIVES,
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
    build_hamiltonian,
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


def test_primitive_and_hamiltonian_registries_roundtrip():
    catalog = [(p, n) for n in (2, 3) for p in primitive_catalog(n)]
    assert {p.describe()["kind"] for p, _ in catalog} == set(PRIMITIVES)
    hamiltonians = [p.hamiltonian for p, _ in catalog if isinstance(p, ContactFlow)]
    assert {h.describe()["kind"] for h in hamiltonians} == set(HAMILTONIANS)
    for prim, n in catalog:
        assert build_primitive(prim.describe(), n).describe() == prim.describe()
    for ham in hamiltonians:
        assert build_hamiltonian(ham.describe()).describe() == ham.describe()
    with pytest.raises(MapError, match="unknown hamiltonian"):
        build_hamiltonian({"kind": "foo"})


# ---------------------------------------------------------------------------
# q-free declarations: u' and log c read only u
# ---------------------------------------------------------------------------

def _stacked(components, shape):
    return np.stack([np.broadcast_to(c, shape) for c in components])


def _fiber_part(prim, u, q):
    u2, _, log_c = prim.transform(list(u), list(q))
    return _stacked(u2, u.shape[1:]), np.broadcast_to(log_c, u.shape[1:])


@pytest.mark.parametrize("n", [2, 3])
def test_q_free_primitives_ignore_q(rng, n):
    u = rng.normal(size=(n, 200))
    u /= np.linalg.norm(u, axis=0)
    q = rng.random((n, 200))
    for prim in primitive_catalog(n):
        u_ref, log_c_ref = _fiber_part(prim, u, q)
        if prim.q_free:
            for _ in range(3):
                u2, log_c = _fiber_part(prim, u, rng.uniform(-3.0, 3.0, (n, 200)))
                np.testing.assert_array_equal(u2, u_ref, err_msg=str(prim.describe()))
                np.testing.assert_array_equal(log_c, log_c_ref, err_msg=str(prim.describe()))
        else:
            # A False declaration must be needed: some q shift changes the output.
            u2, log_c = _fiber_part(prim, u, q + 0.25)
            assert not (np.array_equal(u2, u_ref) and np.array_equal(log_c, log_c_ref))


def test_q_free_hamiltonians_ignore_q(rng):
    p = rng.normal(size=(2, 100))
    q = rng.random((2, 100))
    for ham in (
        MomentumHamiltonian([0.2, 0.5]),
        MetricHamiltonian(np.diag([4.0, 1.0])),
        ModulatedNormHamiltonian(0.3),
    ):
        dp_ref, dq_ref = (_stacked(c, (100,)) for c in ham.gradients(list(p), list(q)))
        dp, dq = (_stacked(c, (100,)) for c in ham.gradients(list(p), list(q + 0.3)))
        if ham.q_free:
            np.testing.assert_array_equal(dp, dp_ref)
            assert not np.any(dq) and not np.any(dq_ref)
        else:
            assert not (np.array_equal(dp, dp_ref) and np.array_equal(dq, dq_ref))


def test_q_free_declarations_of_the_catalog():
    flags = {
        (p.describe()["kind"], p.describe().get("hamiltonian", {}).get("kind")): p.q_free
        for n in (2, 3)
        for p in primitive_catalog(n)
    }
    assert flags == {
        ("canonical_lift", None): True,
        ("shear_a", None): True,
        ("shear_b", None): True,
        ("reeb_translation", None): True,
        ("contact_flow", "momentum"): True,
        ("contact_flow", "metric_norm"): True,
        ("contact_flow", "modulated_norm"): False,
    }
    # A flow's inverse integrates the same Hamiltonian.
    assert not ContactFlow(ModulatedNormHamiltonian(0.3), 0.5).inverse().q_free
    assert ContactFlow(MomentumHamiltonian([0.2, 0.5]), 0.5).inverse().q_free


# -- shift equivariance ------------------------------------------------------

N3_LIFT = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]  # fixes no base axis


def shift_catalog(n):
    """The primitive catalog plus an n=3 metric flow and an n=3 lift."""
    if n == 2:
        return primitive_catalog(2)
    return primitive_catalog(3) + [
        CanonicalLift(N3_LIFT),
        ContactFlow(MetricHamiltonian(np.diag([4.0, 1.0, 2.0])), 0.4, steps=32),
    ]


def _shifted(prim, u, q, axis, t):
    """transform at q + t e_axis, with t subtracted again from q'."""
    e = np.zeros((u.shape[0], 1))
    e[axis] = t
    u2, q2, log_c = prim.transform(list(u), list(q + e))
    shape = u.shape[1:]
    return _stacked(u2, shape), _stacked(q2, shape) - e, np.broadcast_to(log_c, shape)


def _unit_points(rng, n, npts=200):
    u = rng.normal(size=(n, npts))
    return u / np.linalg.norm(u, axis=0), rng.random((n, npts))


@pytest.mark.parametrize("n", [2, 3])
def test_declared_shift_axes_commute_with_base_translation(rng, n):
    u, q = _unit_points(rng, n)
    for prim in shift_catalog(n):
        ref = _shifted(prim, u, q, 0, 0.0)
        for axis in sorted(prim.shift_axes):
            for t in rng.uniform(-3.0, 3.0, 2):
                for got, want in zip(_shifted(prim, u, q, axis, t), ref):
                    np.testing.assert_allclose(
                        got, want, rtol=0, atol=1e-12, err_msg=f"{prim.describe()} axis {axis}"
                    )


@pytest.mark.parametrize(
    "prim",
    [
        CanonicalLift(CAT),
        CanonicalLift(N3_LIFT),
        ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=16),
        ContactFlow(ModulatedNormHamiltonian(0.25, axis=1, n=3), 0.4, steps=16),
    ],
    ids=["lift2", "lift3", "modulated2", "modulated3"],
)
def test_undeclared_shift_axes_change_the_output(rng, prim):
    # An empty or partial declaration must be needed: a shift along each
    # undeclared axis moves the output off the translated image.
    u, q = _unit_points(rng, prim.n)
    ref = _shifted(prim, u, q, 0, 0.0)
    undeclared = set(range(prim.n)) - prim.shift_axes
    assert undeclared
    for axis in undeclared:
        got = _shifted(prim, u, q, axis, 0.25)
        assert not all(np.allclose(a, b, rtol=0, atol=1e-6) for a, b in zip(got, ref))


@pytest.mark.parametrize("n", [2, 3])
def test_hamiltonian_gradients_are_invariant_along_declared_axes(rng, n):
    p, q = _unit_points(rng, n, 100)
    hams = [
        MomentumHamiltonian([0.2, 0.5, -0.1][:n]),
        MetricHamiltonian(np.diag([4.0, 1.0, 2.0][:n])),
    ] + [ModulatedNormHamiltonian(0.3, axis=a, n=n) for a in range(n)]
    for ham in hams:
        ref = [_stacked(c, (100,)) for c in ham.gradients(list(p), list(q))]
        for axis in range(n):
            e = np.zeros((n, 1))
            e[axis] = rng.uniform(0.1, 0.9)  # a whole-period shift would leave any H alone
            got = [_stacked(c, (100,)) for c in ham.gradients(list(p), list(q + e))]
            same = all(np.allclose(a, b, rtol=0, atol=1e-12) for a, b in zip(got, ref))
            assert same is (axis in ham.shift_axes), (ham.describe(), axis)


def test_shift_axes_of_the_catalog():
    axes = {
        (n, p.describe()["kind"], p.describe().get("hamiltonian", {}).get("kind")): p.shift_axes
        for n in (2, 3)
        for p in primitive_catalog(n)
    }
    assert axes == {
        (2, "canonical_lift", None): frozenset(),
        (2, "shear_a", None): {0, 1},
        (2, "shear_b", None): {0, 1},
        (2, "reeb_translation", None): {0, 1},
        (2, "contact_flow", "momentum"): {0, 1},
        (2, "contact_flow", "metric_norm"): {0, 1},
        (2, "contact_flow", "modulated_norm"): {1},
        (3, "canonical_lift", None): frozenset(),
        (3, "reeb_translation", None): {0, 1, 2},
        (3, "contact_flow", "momentum"): {0, 1, 2},
        (3, "contact_flow", "modulated_norm"): {0, 2},
    }
    assert MetricHamiltonian(np.eye(3)).shift_axes == {0, 1, 2}
    # Inverses translate the same way.
    for n in (2, 3):
        for p in primitive_catalog(n):
            assert p.inverse().shift_axes == p.shift_axes


def test_momentum_hamiltonian_rejects_a_string():
    with pytest.raises(MapError, match="list"):
        build_hamiltonian({"kind": "momentum", "c": "12"})
