import numpy as np
import pytest

from contactlab import algebra as A
from contactlab.geometry import (
    FORMS,
    TWO_PI,
    GeometryError,
    MetricForm,
    RoundForm,
    TrigForm,
    TrigTerm,
    buffers,
    build,
    build_form,
    tangent_frame,
)
from contactlab.maps import (
    HAMILTONIANS,
    PRIMITIVES,
    STEP,
    CanonicalLift,
    ContactFlow,
    MapError,
    MetricHamiltonian,
    ModulatedNormHamiltonian,
    MomentumHamiltonian,
    Primitive,
    ReebTranslation,
    Shear,
    build_primitive,
    identity_map,
    make_composite,
    turns,
)
from conftest import (
    Jet,
    conformal_factor_batch,
    fd_frame,
    jet_transform,
    random_point,
    random_points,
    reference_flow,
    seed_jets,
)
from test_geometry import FORM_SPECS

CAT = [[2, 1], [1, 1]]
N3_LIFT = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]  # fixes no base axis


def factor_at(f, form, u, q) -> float:
    """The jet conformal factor of f at a batch of one."""
    return float(conformal_factor_batch(f, form, u, q)[0][0])


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
            u, q = random_point(rng, n)
            u2, q2, _ = g.apply_batch(*f.apply_batch(u, q)[:2])
            assert np.allclose(u2, u, atol=1e-8)
            du = (q2 - q + 0.5) % 1.0 - 0.5
            assert np.allclose(du, 0.0, atol=1e-8)


def test_homology_matrices_of_the_catalog():
    assert make_composite([Shear(0)]).homology_matrix == (
        (1, -1, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    assert make_composite([Shear(1)]).homology_matrix == (
        (1, 0, -1),
        (0, 1, 0),
        (0, 0, 1),
    )
    lift = make_composite([CanonicalLift(CAT)])
    minv_t = A.mat_transpose(A.mat_inverse(A.as_matrix(CAT)))
    assert A.a_block(lift.homology_matrix)[0] == minv_t
    assert make_composite([ReebTranslation(0.3)]).homology_matrix == A.identity_matrix(3)
    lift3 = make_composite([CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]])])
    assert lift3.homology_matrix == A.mat_transpose(
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

    def power(k):  # f^k, composed from the primitives of f or of its inverse
        base = f if k >= 0 else f.inverse()
        return make_composite(list(base.primitives) * abs(k), n=f.n)

    assert power(2).homology_matrix == A.mat_mul(f.homology_matrix, f.homology_matrix)
    assert power(0).homology_matrix == A.identity_matrix(3)
    assert power(-1).homology_matrix == A.mat_inverse(f.homology_matrix)


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
            c = factor_at(f, form, *random_point(rng))
            assert c == pytest.approx(1.0, abs=1e-9)


def test_canonical_lift_conformal_factor_closed_form(rng):
    # Inverse pullback telescopes to direction stretches: the one-step factor
    # of the lift at (u, q) is 1/|M^{-T} u|.
    form = RoundForm()
    m = np.array(CAT, float)
    f = make_composite([CanonicalLift(CAT)])
    for _ in range(20):
        u, q = random_point(rng)
        c = factor_at(f, form, u, q)
        assert c == pytest.approx(1.0 / np.linalg.norm(np.linalg.inv(m).T @ u[:, 0]), rel=1e-9)


def test_conformal_factor_batch_matches_pointwise(rng):
    form = TrigForm(1.0, [TrigTerm(0.3, (1, 0)), TrigTerm(0.2, (0, 1), (2, 0))])
    f = make_composite([CanonicalLift(CAT), ReebTranslation(0.2)])
    u, q = random_points(rng, 2, 40)
    c, u2, q2 = conformal_factor_batch(f, form, u, q)
    for i in range(40):
        one = (u[:, i : i + 1], q[:, i : i + 1])
        assert c[i] == pytest.approx(factor_at(f, form, *one), rel=1e-10)
        y, _, _ = f.apply_batch(*one)
        assert np.allclose(u2[:, i], y[:, 0], atol=1e-10)


def test_conformal_factor_batch_n3(rng):
    form = RoundForm()
    f = make_composite([CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]])])
    u, q = random_points(rng, 3, 60)
    c, _, _ = conformal_factor_batch(f, form, u, q)
    minv_t = np.linalg.inv(np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]], float)).T
    expected = 1.0 / np.linalg.norm(minv_t @ u, axis=0)
    assert np.allclose(c, expected, rtol=1e-9)


@pytest.mark.parametrize(
    "form",
    [
        TrigForm(1.0, [TrigTerm(0.3, (1, 0, 1)), TrigTerm(0.2, (0, 1, 0), (0, 0, 2), True)]),
        MetricForm(np.diag([2.0, 1.0, 1.5])),
    ],
    ids=["trig", "metric"],
)
def test_n3_frames_match_batches_of_one(rng, form):
    # Every point of a batch gets, bit for bit, the image, pushed frame and
    # factor of its own batch of one.  Directions near the pole and M^T
    # times them meet both signs of the n = 3 frame construction.
    m = np.array(N3_LIFT, float)
    f = make_composite([CanonicalLift(N3_LIFT), ReebTranslation(0.3, n=3)])
    near_pole = rng.normal(size=(3, 20)) * 0.2 + np.array([[0.0], [0.0], [1.0]])
    u = np.hstack([rng.normal(size=(3, 20)), near_pole, -near_pole, m.T @ near_pole])
    u /= np.linalg.norm(u, axis=0)
    q = rng.random((3, 80))
    u2, q2, pushed = f.push_frame(u, q, tangent_frame(u))
    c, _, _ = conformal_factor_batch(f, form, u, q)
    for i in range(80):
        one = (u[:, i : i + 1], q[:, i : i + 1])
        got = f.push_frame(*one, tangent_frame(one[0]))
        for a, b in zip(got, (u2, q2, pushed)):
            np.testing.assert_array_equal(a[..., 0], b[..., i])
        assert conformal_factor_batch(f, form, *one)[0][0] == c[i]


def test_cocycle_identity(rng):
    # factor of g∘g at x = factor of g at g(x) times factor of g at x
    form = TrigForm(1.0, [TrigTerm(0.3, (1, 1))])
    g = make_composite([CanonicalLift(CAT), ReebTranslation(0.2)]).inverse()
    g2 = make_composite(list(g.primitives) * 2)
    for _ in range(100):
        u, q = random_point(rng)
        lhs = factor_at(g2, form, u, q)
        c, gu, gq = conformal_factor_batch(g, form, u, q)
        rhs = factor_at(g, form, gu, gq) * c[0]
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# Closed-form round-form factors against the jet oracle
# ---------------------------------------------------------------------------

def random_batch(rng, n, npts=200):
    u = rng.normal(size=(n, npts))
    return u / np.linalg.norm(u, axis=0), rng.random((n, npts))


@pytest.mark.parametrize("n", [2, 3])
def test_apply_batch_returns_fresh_arrays_and_leaves_its_inputs(rng, n):
    # The identity, a lift by I, shears and Reeb translations hand input
    # components back from their transforms; the output must still be new.
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    maps = [identity_map(n), make_composite([CanonicalLift(eye)])]
    for f in maps + [make_composite([prim]) for prim in primitive_catalog(n)]:
        u, _ = random_batch(rng, n, 50)
        q = 5.0 * rng.random((n, 50)) - 2.0  # not yet wrapped
        u0, q0 = u.copy(), q.copy()
        u2, q2, _ = f.apply_batch(u, q)
        assert np.array_equal(u, u0) and np.array_equal(q, q0)
        assert u2.shape == q2.shape == (n, 50)
        assert not (np.shares_memory(u2, u) or np.shares_memory(q2, q))
        assert np.allclose(np.linalg.norm(u2, axis=0), 1.0, rtol=0, atol=1e-15)
        assert np.all((q2 >= 0.0) & (q2 < 1.0))


@pytest.mark.parametrize("n", [2, 3])
def test_catalog_keeps_u_unit_over_30_steps(rng, n):
    # apply_batch does not normalize u again: every primitive, and their
    # composite, maps unit u to unit u on its own, step after step.
    catalog = primitive_catalog(n)
    for f in [make_composite([prim]) for prim in catalog] + [make_composite(catalog)]:
        u, q = random_batch(rng, n, 50)
        for _ in range(30):
            u, q, _ = f.apply_batch(u, q)
            assert np.allclose(np.linalg.norm(u, axis=0), 1.0, rtol=0, atol=1e-15)


def test_floor_wrap_is_np_mod_bit_for_bit(rng):
    # apply_batch wraps q as q - floor(q), which must be np.mod(q, 1.0) bit
    # for bit on this numpy: signed zeros, the smallest subnormal, a value
    # whose wrap rounds to 1.0, the last float below 1, halves at 2^52,
    # integers, NaN, and infinities (NaN both ways, each with the same
    # "invalid value" warning).
    edges = [0.0, 2.0**-1074, 1e-20, 1.0 - 2.0**-53, 2.0**52 - 0.5, 1.0, 2.0, 7.0, 2.0**60, np.inf]
    edges = np.array(edges + [-e for e in edges] + [np.nan])
    scales = 10.0 ** np.arange(-300, 301, 10)
    draws = rng.uniform(-1.0, 1.0, size=(scales.size, 2000)) * scales[:, None]
    for x in (edges, draws.ravel()):
        with np.errstate(invalid="ignore"):
            a, b = np.subtract(x, np.floor(x)), np.mod(x, 1.0)
        same = ((a == b) & (np.signbit(a) == np.signbit(b))) | (np.isnan(a) & np.isnan(b))
        assert same.all(), x[~same]


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
# Pushed tangent frames: AD vs finite differences, the contact condition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_frame_partials_match_finite_differences(rng, n):
    for prim in primitive_catalog(n):
        f = make_composite([prim])
        for _ in range(3):
            u, q = random_point(rng, n)
            frame = tangent_frame(u)
            pushed = f.push_frame(u, q, frame)[2][:, :, 0]
            fd = fd_frame(f, u, q, frame)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(pushed - fd).max() / scale < 1e-5


# Bounds fixed before the first comparison.  The complex step takes no
# difference, so on the closed forms it meets the jets to a few ulps of the
# frame's scale; through 16 RK4 steps rounding may add up along the loop.
CLOSED_FORM_FRAME_TOL = 1e-15  # times max(1, largest |jet partial|)
FLOW_FRAME_TOL = 1e-13  # absolute


def jet_frame(f, u, q, frame):
    """``frame`` pushed through f as row jets, one primitive at a time
    (``jet_transform``): the (2n, m, N) partials of the image."""
    comps = [Jet(v, d) for v, d in zip((*u, *q), frame)]
    uu, qq = comps[:f.n], comps[f.n:]
    for prim in f.primitives:
        uu, qq, _ = jet_transform(prim, uu, qq)
    return np.array([np.broadcast_to(c.partials, frame.shape[1:]) for c in uu + qq])


def frame_catalog(n):
    """Every closed-form primitive of dimension n, inverses included, then
    a composite of lifts, shears and Reeb translations."""
    prims = [p for p in EXACT_PRIMITIVES.values() if p.n == n]
    if n == 2:
        return [[p] for p in prims] + [[CanonicalLift(CAT), Shear(0), ReebTranslation(0.2), Shear(1, -1)]]
    return [[p] for p in prims] + [[CanonicalLift(N3_LIFT), ReebTranslation(0.3, n=3),
                                    CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]]).inverse()]]


@pytest.mark.parametrize("n", [2, 3])
def test_complex_step_frames_match_jets_on_closed_forms(rng, n):
    u, q = flow_points(rng, n)
    frame = tangent_frame(u)
    for prims in frame_catalog(n):
        f = make_composite(prims)
        pushed, jets = f.push_frame(u, q, frame)[2], jet_frame(f, u, q, frame)
        scale = max(1.0, np.abs(jets).max())
        assert np.abs(pushed - jets).max() <= CLOSED_FORM_FRAME_TOL * scale, f.describe()
    # With no primitive the complex step hands the frame back bit for bit.
    assert same_bits(identity_map(n).push_frame(u, q, frame)[2], frame)


@pytest.mark.parametrize("t", [0.5, -0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_complex_step_frames_match_jets_on_flows(rng, n, t):
    u, q = flow_points(rng, n)
    frame = tangent_frame(u)
    for ham in flow_hamiltonians(n):
        f = make_composite([ContactFlow(ham, t, steps=16)])
        pushed, jets = f.push_frame(u, q, frame)[2], jet_frame(f, u, q, frame)
        assert np.abs(pushed - jets).max() <= FLOW_FRAME_TOL, ham.describe()


def test_turns_keeps_the_real_bits_and_steps_across_the_cut_and_the_wrap(rng):
    # Points on arctan2's branch cut (x < 0, y = +-0.0), at the [0, 1) wrap
    # (x > 0, y = +-0.0), near both, and at random.
    x = np.concatenate([[-1.0, -0.3, -1.0, -0.3, 1.0, 0.3, 1.0, 0.3, -1.0, 1.0, -1.0, 1.0],
                        rng.normal(size=40)])
    y = np.concatenate([[0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 1e-9, 1e-9, -1e-9, -1e-9],
                        rng.normal(size=40)])
    dx, dy = rng.normal(size=(2, x.size))
    real = turns(x, y)
    assert same_bits(real, np.mod(np.arctan2(y, x) / TWO_PI, 1.0))
    assert np.all((real >= 0.0) & (real < 1.0))
    jx, jy = Jet(x, dx[None]), Jet(y, dy[None])
    jet = turns(jx, jy)
    assert same_bits(jet.value, real)
    step = turns(x + 1j * STEP * dx, y + 1j * STEP * dy)
    assert same_bits(step.real, real)
    np.testing.assert_allclose(step.imag / STEP, jet.partials[0], rtol=1e-15, atol=0)
    h = 1e-6
    diff = turns(x + h * dx, y + h * dy) - turns(x - h * dx, y - h * dy)
    central = ((diff + 0.5) % 1.0 - 0.5) / (2.0 * h)  # across the wrap, on the circle
    np.testing.assert_allclose(step.imag / STEP, central, rtol=1e-6, atol=1e-9)


def contact_catalog(n):
    """Every catalog kind in dimension n, each alone, then all composed."""
    extra = [] if n == 2 else [ContactFlow(MetricHamiltonian(np.diag([4.0, 1.0, 2.0])), 0.4, steps=32)]
    prims = primitive_catalog(n) + extra
    return [([prim], isinstance(prim, ContactFlow)) for prim in prims] + [(prims, True)]


@pytest.mark.parametrize("n", [2, 3])
def test_pushed_kernel_stays_in_the_kernel(rng, n):
    # f^* alpha_0 = c alpha_0 with alpha_0 = u . dq, so f^* alpha_0 vanishes
    # on ker alpha_0: pushing du perpendicular to u (dq = 0), then dq
    # perpendicular to u (du = 0), gives u' . dq' = 0.  Exact up to rounding
    # for the closed forms; RK4 flows are contact up to O(h^4).
    u, q = random_batch(rng, n, 100)
    fiber = tangent_frame(u)[:n, :n - 1]
    kernel = np.zeros((2 * n, 2 * n - 2, u.shape[1]))
    kernel[:n, :n - 1] = fiber
    kernel[n:, n - 1:] = fiber
    for prims, has_flow in contact_catalog(n):
        f = make_composite(prims)
        u2, _, pushed = f.push_frame(u, q, kernel)
        pairing = np.einsum("ip,ijp->jp", u2, pushed[n:])
        assert np.abs(pairing).max() <= (1e-7 if has_flow else 1e-13), f.describe()


def test_contact_flow_divergence_guard():
    # An absurd timestep makes RK4 blow up; the guard must catch it.
    flow = ContactFlow(ModulatedNormHamiltonian(0.9), 200.0, steps=1)
    f = make_composite([flow])
    u = np.array([[1.0], [0.3]])
    with pytest.raises(MapError, match="diverged"):
        f.apply_batch(u / np.linalg.norm(u), np.array([[0.1], [0.2]]))


def flow_hamiltonians(n):
    """One Hamiltonian of each kind, the modulated one on every axis."""
    return [
        MomentumHamiltonian([0.2, 0.5, -0.1][:n]),
        MetricHamiltonian(np.array([[4.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.0, 0.5, 2.0]])[:n, :n]),
    ] + [ModulatedNormHamiltonian(0.3, axis=a, n=n) for a in range(n)]


def flow_points(rng, n):
    """Random unit points plus the directions +-e_i, whose zero components
    (+0.0 off the diagonal of I, -0.0 off that of -I) meet the rows a
    Hamiltonian leaves at 0."""
    u, q = random_batch(rng, n, 64)
    axes = np.eye(n)
    q_axes = rng.random((n, 2 * n))
    return np.concatenate([u, axes, -axes], axis=1), np.concatenate([q, q_axes], axis=1)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def complex_points(u, q, frame):
    """The (2n, m N) complex state ``push_frame`` runs: x + i STEP v for
    each frame column v at each point x."""
    z = np.empty(frame.shape, complex)
    z.real, z.imag = np.concatenate([u, q])[:, None, :], STEP * frame
    return z.reshape(frame.shape[0], -1)


@pytest.mark.parametrize("t", [0.5, -0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_contact_flow_value_path_matches_the_jet_path_bit_for_bit(rng, n, t):
    # The stacked in-place loop on arrays against the component-list loop
    # over the closed-form gradients on jets (the oracle): values and log
    # factors bit for bit.
    u, q = flow_points(rng, n)
    for ham in flow_hamiltonians(n):
        flow = ContactFlow(ham, t, steps=16)
        u2, q2, log_c = flow.transform(list(u), list(q))
        jets = seed_jets([*u, *q])
        ju, jq, jlog = reference_flow(flow, jets[:n], jets[n:])
        assert all(same_bits(a, b.value) for a, b in zip(u2 + q2, ju + jq)), ham.describe()
        assert same_bits(log_c, jlog), ham.describe()


@pytest.mark.parametrize("t", [0.5, -0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_contact_flow_push_frame_matches_the_reference_flow(rng, n, t):
    # push_frame's image is apply_batch's, bit for bit, and its frame is
    # the reference loop's run on the same complex points, as numbers (a
    # zero's sign may differ: a constant rate row adds -0.0 where the
    # reference adds a float, and the modulated pdot is written directly
    # where the reference negates -dH/dq).
    u, q = flow_points(rng, n)
    frame = tangent_frame(u)
    z = complex_points(u, q, frame)
    for ham in flow_hamiltonians(n):
        flow = ContactFlow(ham, t, steps=16)
        f = make_composite([flow])
        u2, q2, pushed = f.push_frame(u, q, frame)
        u1, q1, _ = f.apply_batch(u, q)
        assert same_bits(u2, u1) and same_bits(q2, q1), ham.describe()
        ru, rq, _ = reference_flow(flow, list(z[:n]), list(z[n:]))
        ref = np.array(ru + rq).imag.reshape(frame.shape) / STEP
        assert np.array_equal(pushed, ref), ham.describe()


def test_contact_flow_batch_of_one_matches_its_column():
    flow = ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=8)
    u, q = np.array([[0.6, 0.0], [0.8, 1.0]]), np.array([[0.1, 0.7], [0.2, 0.4]])
    rows = flow.transform(list(u), list(q))
    for i in range(2):
        u2, q2, log_c = flow.transform(list(u[:, i:i + 1]), list(q[:, i:i + 1]))
        assert np.shape(log_c) == (1,)
        got, want = u2 + q2 + [log_c], rows[0] + rows[1] + [rows[2]]
        assert all(same_bits(a, b[i:i + 1]) for a, b in zip(got, want))


@pytest.mark.parametrize("n", [2, 3])
def test_contact_flow_transform_leaves_its_inputs(rng, n):
    u, q = flow_points(rng, n)
    u_in, q_in = list(u.copy()), list(q.copy())
    for ham in flow_hamiltonians(n):
        u2, q2, _ = ContactFlow(ham, 0.5, steps=4).transform(u_in, q_in)
        assert all(same_bits(a, b) for a, b in zip(u_in + q_in, list(u) + list(q)))
        assert not any(np.shares_memory(a, b) for a in u2 + q2 for b in u_in + q_in)


def _bad_inputs(ham):
    """(u, q) batches the flow of ham must reject: NaN or inf in u, or in
    the q component it reads, and |u| = 3, so |p|^2 is about 9 after a step."""
    n = ham.n
    u, q = np.zeros((n, 3)), np.full((n, 3), 0.25)
    u[0] = 1.0
    read = [ham.axis] if isinstance(ham, ModulatedNormHamiltonian) else []
    for value in (np.nan, np.inf):
        for arr, row in [(u, 1)] + [(q, axis) for axis in read]:
            bad = arr.copy()
            bad[row, 1] = value
            yield (bad, q) if arr is u else (u, bad)
    yield 3.0 * u, q


@pytest.mark.parametrize("n", [2, 3])
def test_contact_flow_divergence_is_caught_on_both_paths(n):
    # On real points and on the complex points of a frame push alike.
    for ham in flow_hamiltonians(n):
        flow = ContactFlow(ham, 0.5, steps=4)
        for u, q in _bad_inputs(ham):
            for step in (0.0, 1j * STEP):
                with np.errstate(invalid="ignore", over="ignore"):
                    with pytest.raises(MapError, match="diverged"):
                        flow.transform(list(u + step), list(q + step))


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
    for ham in hamiltonians:  # the build a contact_flow's hamiltonian goes through
        rebuilt = build(ham.describe(), HAMILTONIANS, "hamiltonian", MapError)
        assert rebuilt.describe() == ham.describe()
    with pytest.raises(MapError, match="unknown hamiltonian"):
        build_primitive({"kind": "contact_flow", "hamiltonian": {"kind": "foo"}, "t": 0.5}, 2)


REGISTRIES = {
    "form": (FORMS, GeometryError),
    "primitive": (PRIMITIVES, MapError),
    "hamiltonian": (HAMILTONIANS, MapError),
}


def described_catalog():
    """Every form, primitive and Hamiltonian of the test catalogs, by registry."""
    prims = [p for n in (2, 3) for p in primitive_catalog(n)]
    return {
        "form": [build_form(spec) for spec in FORM_SPECS],
        "primitive": prims,
        "hamiltonian": [p.hamiltonian for p in prims if isinstance(p, ContactFlow)],
    }


@pytest.mark.parametrize(
    "what, kind", [(what, kind) for what, (kinds, _) in REGISTRIES.items() for kind in kinds]
)
def test_every_kind_describes_what_it_builds_and_rejects_an_extra_key(what, kind):
    kinds, error = REGISTRIES[what]
    found = [x for x in described_catalog()[what] if x.kind == kind]
    assert found, f"no {what} of kind {kind} in the test catalogs"
    for x in found:
        spec = x.describe()
        assert build(spec, kinds, what, error, n=x.n or 2).describe() == spec
        with pytest.raises(error, match=f"^{kind}: unknown key 'extra'$"):
            build(dict(spec, extra=1), kinds, what, error, n=x.n or 2)


# ---------------------------------------------------------------------------
# Base actions: transform(u, q + t) = (u', q' + B t, log c) on declared axes
# ---------------------------------------------------------------------------

EYE = {n: np.eye(n, dtype=int) for n in (2, 3)}


def shift_catalog(n):
    """The primitive catalog plus an n=3 metric flow and an n=3 lift."""
    if n == 2:
        return primitive_catalog(2)
    return primitive_catalog(3) + [
        CanonicalLift(N3_LIFT),
        ContactFlow(MetricHamiltonian(np.diag([4.0, 1.0, 2.0])), 0.4, steps=32),
    ]


def _stacked(components, shape):
    return np.stack([np.broadcast_to(c, shape) for c in components])


def _gradients(ham, p, q):
    """(dH/dp, dH/dq) at (n, N) p and q, read off ``rates`` in a -0.0 buffer."""
    x = np.concatenate([p, np.broadcast_to(q, p.shape)])
    (out,) = buffers(x, 1)
    ham.rates(x, out)
    return out[ham.n:], -out[:ham.n]


def _unit_points(rng, n, npts=200):
    u = rng.normal(size=(n, npts))
    return u / np.linalg.norm(u, axis=0), rng.random((n, npts))


def _translated(prim, u, q, t, b):
    """transform at q + t, with b t subtracted again from q'."""
    t = np.broadcast_to(t, q.shape)
    u2, q2, log_c = prim.transform(list(u), list(q + t))
    shape = u.shape[1:]
    return _stacked(u2, shape), _stacked(q2, shape) - b @ t, np.broadcast_to(log_c, shape)


def _on_axes(rng, n, axes, npts=200):
    """Random real shifts, one per point, supported on ``axes``."""
    t = rng.uniform(-3.0, 3.0, (n, npts))
    t[sorted(set(range(n)) - axes)] = 0.0
    return t


def _kind(p):
    return p.n, p.describe()["kind"], p.describe().get("hamiltonian", {}).get("kind")


@pytest.mark.parametrize("n", [2, 3])
def test_declared_shift_axes_commute_with_base_translation(rng, n):
    # One random-shift check per kind of the declared (B, axes).
    u, q = _unit_points(rng, n)
    for prim in shift_catalog(n):
        b, axes = prim.base_action
        assert b.dtype.kind == "i" and round(abs(np.linalg.det(b))) == 1
        ref = _translated(prim, u, q, 0.0, b)
        for _ in range(2):
            got = _translated(prim, u, q, _on_axes(rng, n, axes), b)
            for a, c in zip(got, ref):
                np.testing.assert_allclose(a, c, rtol=0, atol=1e-12, err_msg=str(_kind(prim)))


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
    # The declaration is tight: a shift t e_j that it does not cover as a
    # plain translation (an undeclared axis, or a declared one that B
    # moves) takes the output off (u', q' + t e_j, log c).
    u, q = _unit_points(rng, prim.n)
    b, axes = prim.base_action
    eye = EYE[prim.n]
    ref = _translated(prim, u, q, 0.0, eye)
    uncovered = [j for j in range(prim.n) if j not in axes or np.any(b[:, j] != eye[:, j])]
    assert uncovered
    for j in uncovered:
        got = _translated(prim, u, q, 0.25 * eye[:, j : j + 1], eye)
        assert not all(np.allclose(a, c, rtol=0, atol=1e-6) for a, c in zip(got, ref))


@pytest.mark.parametrize("n", [2, 3])
def test_q_free_primitives_ignore_q(rng, n):
    # A declaration covering every axis makes u' and log c read u alone,
    # bit for bit; that is what lets a Lyapunov chain run from q = 0.
    u, q = _unit_points(rng, n)
    for prim in shift_catalog(n):
        u_ref, _, log_c_ref = _translated(prim, u, q, 0.0, EYE[n])
        if prim.base_action[1] == frozenset(range(n)):
            for _ in range(3):
                u2, _, log_c = _translated(prim, u, q, rng.uniform(-3.0, 3.0, (n, 200)), EYE[n])
                np.testing.assert_array_equal(u2, u_ref, err_msg=str(_kind(prim)))
                np.testing.assert_array_equal(log_c, log_c_ref, err_msg=str(_kind(prim)))
        else:
            u2, _, log_c = _translated(prim, u, q, 0.25, EYE[n])
            assert not (np.array_equal(u2, u_ref) and np.array_equal(log_c, log_c_ref))


def test_q_free_hamiltonians_ignore_q(rng):
    p = rng.normal(size=(2, 100))
    q = rng.random((2, 100))
    for ham in (
        MomentumHamiltonian([0.2, 0.5]),
        MetricHamiltonian(np.diag([4.0, 1.0])),
        ModulatedNormHamiltonian(0.3),
    ):
        dp_ref, dq_ref = _gradients(ham, p, q)
        dp, dq = _gradients(ham, p, q + 0.3)
        if ham.base_action[1] == {0, 1}:
            np.testing.assert_array_equal(dp, dp_ref)
            assert not np.any(dq) and not np.any(dq_ref)
        else:
            assert not (np.array_equal(dp, dp_ref) and np.array_equal(dq, dq_ref))


@pytest.mark.parametrize("n", [2, 3])
def test_hamiltonian_gradients_are_invariant_along_declared_axes(rng, n):
    p, q = _unit_points(rng, n, 100)
    hams = [
        MomentumHamiltonian([0.2, 0.5, -0.1][:n]),
        MetricHamiltonian(np.diag([4.0, 1.0, 2.0][:n])),
    ] + [ModulatedNormHamiltonian(0.3, axis=a, n=n) for a in range(n)]
    for ham in hams:
        assert np.array_equal(ham.base_action[0], EYE[n])
        ref = _gradients(ham, p, q)
        for axis in range(n):
            e = np.zeros((n, 1))
            e[axis] = rng.uniform(0.1, 0.9)  # a whole-period shift would leave any H alone
            got = _gradients(ham, p, q + e)
            same = all(np.allclose(a, b, rtol=0, atol=1e-12) for a, b in zip(got, ref))
            assert same is (axis in ham.base_action[1]), (ham.describe(), axis)


def test_q_free_declarations_of_the_catalog():
    # B of every kind: a lift's matrix, I for the rest; an inverse declares B^-1.
    bs = {_kind(p): p.base_action[0].tolist() for n in (2, 3) for p in primitive_catalog(n)}
    i2, i3 = EYE[2].tolist(), EYE[3].tolist()
    assert bs == {
        (2, "canonical_lift", None): CAT,
        (2, "shear_a", None): i2,
        (2, "shear_b", None): i2,
        (2, "reeb_translation", None): i2,
        (2, "contact_flow", "momentum"): i2,
        (2, "contact_flow", "metric_norm"): i2,
        (2, "contact_flow", "modulated_norm"): i2,
        (3, "canonical_lift", None): [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
        (3, "reeb_translation", None): i3,
        (3, "contact_flow", "momentum"): i3,
        (3, "contact_flow", "modulated_norm"): i3,
    }
    for n in (2, 3):
        for p in shift_catalog(n):
            inv = p.inverse().base_action[0]
            np.testing.assert_array_equal(inv @ p.base_action[0], EYE[n])


def test_shift_axes_of_the_catalog():
    axes = {_kind(p): p.base_action[1] for n in (2, 3) for p in primitive_catalog(n)}
    assert axes == {
        (2, "canonical_lift", None): {0, 1},
        (2, "shear_a", None): {0, 1},
        (2, "shear_b", None): {0, 1},
        (2, "reeb_translation", None): {0, 1},
        (2, "contact_flow", "momentum"): {0, 1},
        (2, "contact_flow", "metric_norm"): {0, 1},
        (2, "contact_flow", "modulated_norm"): {1},
        (3, "canonical_lift", None): {0, 1, 2},
        (3, "reeb_translation", None): {0, 1, 2},
        (3, "contact_flow", "momentum"): {0, 1, 2},
        (3, "contact_flow", "modulated_norm"): {0, 2},
    }
    assert MetricHamiltonian(np.eye(3)).base_action[1] == {0, 1, 2}
    # Inverses cover the same axes.
    for n in (2, 3):
        for p in primitive_catalog(n):
            assert p.inverse().base_action[1] == p.base_action[1]


# -- composites --------------------------------------------------------------

MODULATED = ContactFlow(ModulatedNormHamiltonian(0.3), 0.5, steps=16)


class Undeclared(Primitive):
    """A shear that declares nothing, as a new kind does by default."""

    n = 2

    def transform(self, u, q):
        return Shear(0).transform(u, q)

    def inverse(self):
        return self

    def describe(self):
        return {"kind": "undeclared"}


@pytest.mark.parametrize(
    "prims, b, axes",
    [
        ([], EYE[2], {0, 1}),
        ([CanonicalLift(CAT), Shear(0)], CAT, {0, 1}),
        ([CanonicalLift(CAT), CanonicalLift([[1, 1], [0, 1]])], [[3, 2], [1, 1]], {0, 1}),
        ([CanonicalLift([[1, 1], [0, 1]]), CanonicalLift(CAT)], [[2, 3], [1, 2]], {0, 1}),
        ([Shear(0), MODULATED], EYE[2], {1}),
        ([MODULATED, ContactFlow(ModulatedNormHamiltonian(0.2, axis=1), 0.5)], EYE[2], set()),
        ([CanonicalLift(CAT), MODULATED], EYE[2], set()),
        ([Shear(1), Undeclared()], EYE[2], set()),
    ],
    ids=["empty", "lift_shear", "lift_lift", "lift_lift_swapped", "shear_modulated",
         "two_modulated", "lift_modulated", "undeclared"],
)
def test_composite_base_action(prims, b, axes):
    # All axes compose for any B, applied first to last: B = B_m ... B_1;
    # partial axes only with every B = I; anything else declares no axes.
    f = make_composite(prims, n=2)
    got_b, got_axes = f.base_action
    np.testing.assert_array_equal(got_b, b)
    assert got_axes == axes
    inv_b, inv_axes = f.inverse().base_action
    assert inv_axes == axes
    if axes:
        np.testing.assert_array_equal(inv_b @ got_b, EYE[2])


@pytest.mark.parametrize(
    "prims",
    [
        [CanonicalLift(CAT), Shear(0), CanonicalLift([[1, 1], [0, 1]])],
        [Shear(1), ContactFlow(MomentumHamiltonian([0.2, 0.5]), 1.0, steps=8), CanonicalLift(CAT)],
        [Shear(0), MODULATED],
        [CanonicalLift(N3_LIFT), ReebTranslation(0.3, n=3), CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]])],
    ],
    ids=["lift_shear_lift", "shear_flow_lift", "shear_modulated", "n3_lift_reeb_lift"],
)
def test_composite_base_action_holds(rng, prims):
    f = make_composite(prims)
    n = f.n
    b, axes = f.base_action
    u, q = _unit_points(rng, n)

    def image(t):
        # The composite's transforms in order, q' left unwrapped.
        uu, qq, log_c = list(u), list(q + t), 0.0
        for p in f.primitives:
            uu, qq, step = p.transform(uu, qq)
            log_c = log_c + step
        return _stacked(uu, (200,)), _stacked(qq, (200,)) - b @ t, np.broadcast_to(log_c, (200,))

    ref = image(np.zeros((n, 200)))
    for a, c in zip(image(_on_axes(rng, n, axes)), ref):
        np.testing.assert_allclose(a, c, rtol=0, atol=1e-11)


def test_momentum_hamiltonian_rejects_a_string():
    with pytest.raises(MapError, match="list"):
        build_primitive(
            {"kind": "contact_flow", "hamiltonian": {"kind": "momentum", "c": "12"}, "t": 0.5}, 2
        )
