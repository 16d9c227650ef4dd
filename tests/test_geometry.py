import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab.dissipation import DissipationError
from contactlab.geometry import (
    FORMS,
    ConstantForm,
    ContactForm,
    GeometryError,
    MetricForm,
    PullbackForm,
    RoundForm,
    buffers,
    build_form,
    grid_points,
    matvec,
    profile_values,
    q_lattice,
    sphere_grid_array,
    stacked,
    tangent_frame,
)
from contactlab.maps import MapError
from contactlab.report import ConfigError, validate_config
from contactlab.shapes import ShapeError
from conftest import _RULES, Jet, jval, random_points, seed_jets

finite = st.floats(-10.0, 10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

# Every ufunc of the jet rule table, with a map from two draws to a point
# inside its domain: denominators, sqrt and log arguments >= 0.5, and a
# dividend of np.remainder at least 0.25 away from the jumps of the sawtooth.
UFUNC_POINTS = {
    np.add: lambda a, b: (a, b),
    np.subtract: lambda a, b: (a, b),
    np.multiply: lambda a, b: (a, b),
    np.true_divide: lambda a, b: (a, abs(b) + 0.5),
    np.arctan2: lambda a, b: (a, abs(b) + 0.5),
    np.remainder: lambda a, b: (math.floor(a) + 0.25 + 0.5 * (a - math.floor(a)), 1.0),
    np.negative: lambda a, b: (a,),
    np.sin: lambda a, b: (a,),
    np.cos: lambda a, b: (a,),
    np.sqrt: lambda a, b: (abs(a) + 0.5,),
    np.log: lambda a, b: (abs(a) + 0.5,),
}
OPERATORS = {
    np.add: operator.add, np.subtract: operator.sub, np.multiply: operator.mul,
    np.true_divide: operator.truediv, np.negative: operator.neg,
}


def operand_kinds(point):
    """The operands the protocol takes at a point: a jet for a unary ufunc;
    for a binary one, jet with jet, jet with float, and a float, an ndarray
    or a numpy scalar with a jet.  The jets are seeded at the point."""
    jets = seed_jets(point)
    if len(point) == 1:
        return [tuple(jets)]
    (x, y), (jx, jy) = point, jets
    return [(jx, jy), (jx, y), (x, jy), (np.array([x]), jy), (np.float64(x), jy)]


def central_difference(ufunc, point, i, h=1e-6):
    up, down = list(point), list(point)
    up[i] += h
    down[i] -= h
    return (ufunc(*up) - ufunc(*down)) / (2 * h)


@settings(max_examples=50, deadline=None)
@given(finite, finite)
def test_jet_arithmetic_matches_finite_differences(a, b):
    def f(x, y):
        return (x * y + 3.0) / (1.5 + x * x) - y + np.sin(x) * np.cos(y)

    jx, jy = seed_jets([a, b])
    out = f(jx, jy)
    h = 1e-6
    dx = (f(a + h, b) - f(a - h, b)) / (2 * h)
    dy = (f(a, b + h) - f(a, b - h)) / (2 * h)
    assert out.partials[0] == pytest.approx(dx, abs=1e-6, rel=1e-5)
    assert out.partials[1] == pytest.approx(dy, abs=1e-6, rel=1e-5)

    # Each table ufunc, and its operator, on every operand kind: the plain
    # arithmetic's bits, and partials by central differences (0 on a plain operand).
    assert set(UFUNC_POINTS) == set(_RULES)
    for ufunc, at in UFUNC_POINTS.items():
        point = [float(v) for v in at(a, b)]
        for ops in operand_kinds(point):
            if ufunc is np.remainder and isinstance(ops[1], Jet):
                continue  # a jet modulus raises; see the array test below
            got = ufunc(*ops)
            assert isinstance(got, Jet)
            assert np.array_equal(got.value, ufunc(*map(jval, ops)))
            for i, op in enumerate(ops):
                want = central_difference(ufunc, point, i) if isinstance(op, Jet) else 0.0
                assert got.partials[i] == pytest.approx(want, abs=1e-6, rel=1e-5)
            if ufunc in OPERATORS:
                by_operator = OPERATORS[ufunc](*ops)
                assert np.array_equal(by_operator.value, got.value)
                assert np.array_equal(by_operator.partials, got.partials)


def test_jet_sqrt_and_atan2():
    (jx,) = seed_jets([4.0])
    r = np.sqrt(jx)
    assert r.value == 2.0 and r.partials[0] == pytest.approx(0.25)
    jy, jx2 = seed_jets([1.0, 1.0])
    t = np.arctan2(jy, jx2)
    assert t.value == pytest.approx(math.pi / 4)
    assert t.partials[0] == pytest.approx(0.5)   # d atan2 / dy = x / r^2
    assert t.partials[1] == pytest.approx(-0.5)  # d atan2 / dx = -y / r^2


def test_jet_mod1_keeps_derivative():
    (jx,) = seed_jets([1.75])
    out = np.mod(jx, 1.0)
    assert out.value == pytest.approx(0.75)
    assert out.partials[0] == 1.0


def test_jet_batched_values():
    x = Jet(np.array([1.0, 2.0, 3.0]), np.ones((1, 3)))
    y = (x * x + 1.0) / x
    assert np.allclose(jval(y), np.array([2.0, 2.5, 10.0 / 3.0]))
    assert np.allclose(y.partials[0], 1.0 - 1.0 / np.array([1.0, 4.0, 9.0]))


def test_jet_values_are_the_plain_values_bit_for_bit(rng):
    # Division included: a jet quotient's value is the plain quotient, not
    # a product with the reciprocal, so the flow's two paths share bits.
    def f(x, y):
        return (0.7 / x + x * y - 2.0) / np.sqrt(x * x + y * y) + np.cos(y) * np.sin(x) / y

    x, y = rng.uniform(0.5, 3.0, size=(2, 1000))
    plain = f(x, y)
    assert np.array_equal(jval(f(*seed_jets([x, y]))), plain)


def test_an_array_on_the_left_of_a_jet_gives_one_batched_jet(rng):
    # numpy hands the jet its ufunc rule instead of building an object array
    # of jets; the result is the one with the jet on the left.
    y, x0 = rng.uniform(0.5, 3.0, size=(2, 100))
    x = seed_jets([x0])[0]
    zero = Jet(y, np.zeros_like(x.partials))  # y as a jet with no partials
    for got, want in (
        (np.cos(y) * np.sin(x), np.sin(x) * np.cos(y)),
        (y - x, -(x - y)),
        (y / x, zero / x),
        *((ufunc(y, x), ufunc(zero, x)) for ufunc in (np.add, np.multiply, np.arctan2)),
    ):
        assert isinstance(got, Jet) and isinstance(got.value, np.ndarray)
        assert got.value.dtype == float and got.partials.shape == (1, 100)
        assert np.array_equal(got.value, want.value)
        np.testing.assert_allclose(got.partials, want.partials, rtol=1e-15, atol=0)

    # Outside the table, a ufunc method, a keyword or a jet where its rule
    # differentiates nothing: numpy raises TypeError.
    for call in (
        lambda: np.exp(x),
        lambda: np.add(x, 1.0, out=np.empty(100)),
        lambda: np.add.reduce(x),
        lambda: np.mod(1.0, x),
        lambda: np.mod(x, x),
    ):
        with pytest.raises(TypeError):
            call()


def test_stacked_and_buffers_give_fresh_blocks(rng):
    # Real rows stack as float, and one complex row makes the stack complex;
    # the buffers take the stack's dtype.
    for rows, dtype in (([rng.random(6), 2.0, rng.random(6)], float),
                        ([rng.random(6), 2.0, rng.random(6) + 1j * rng.random(6)], complex)):
        s = stacked(rows)
        assert isinstance(s, np.ndarray) and s.shape == (3, 6) and s.dtype == dtype
        assert not any(np.shares_memory(s, r) for r in rows)
        assert np.array_equal(s[1], np.full(6, 2.0)) and np.array_equal(s[2], rows[2])
        bufs = buffers(s, 5)
        assert all(b.shape == (3, 6) and b.dtype == dtype and b.base is bufs[0].base for b in bufs)
        assert all(np.signbit(b.real).all() and not b.any() for b in bufs)  # -0.0
        assert not any(np.shares_memory(b, s) for b in bufs)


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------

def test_metric_form_profile_is_dual_radius():
    g = np.diag([4.0, 1.0])
    form = MetricForm(g)
    # In direction e1 the unit-cosphere radius is sqrt(g^{-1})^{-1} = 2.
    assert float(jval(form.profile([1.0, 0.0], [0.0, 0.0]))) == pytest.approx(2.0)
    assert float(jval(form.profile([0.0, 1.0], [0.0, 0.0]))) == pytest.approx(1.0)


def test_metric_form_validation():
    with pytest.raises(GeometryError):
        MetricForm(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(GeometryError):
        MetricForm(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_trig_form_positivity_check():
    # Validation reads the profile on the config's grid, through the flat
    # shape's radius, and a form that is not positive there is a config error.
    def config(amp, q_res, fiber_res):
        return {
            "form": {"kind": "trig", "c0": 1.0, "terms": [{"amp": amp, "q_freq": [1, 0]}]},
            "grid": {"q_res": q_res, "fiber_res": fiber_res},
            "tasks": [{"task": "homology"}],
        }

    validate_config(config(0.4, 16, 16))
    with pytest.raises(ConfigError) as err:
        validate_config(config(1.5, 32, 8))
    assert err.value.errors == [
        "form: profile of the trig form is not positive and finite (sampled min -0.5, max 2.5)"
    ]


# ---------------------------------------------------------------------------
# The base lattice, the product grid and the checked profile read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_q_lattice_is_the_filtered_full_lattice(n):
    res = 3
    full = list(itertools.product(range(res), repeat=n))  # last axis fastest
    for k in range(n + 1):
        for axes in itertools.combinations(range(n), k):
            rows = [i for i in full if all(i[a] == 0 for a in range(n) if a not in axes)]
            idx = q_lattice(n, res, frozenset(axes))
            assert idx.dtype.kind == "i" and idx.T.tolist() == [list(i) for i in rows]
    assert q_lattice(n, res).T.tolist() == [list(i) for i in full]
    # The points are the same divisions as those of a float lattice.
    mesh = np.meshgrid(*[np.arange(res) / res] * n, indexing="ij")
    assert np.array_equal(q_lattice(n, res) / res, np.stack([m.ravel() for m in mesh]))


def test_grid_points_is_direction_major():
    dirs = sphere_grid_array(2, 4)
    qs = q_lattice(2, 3) / 3
    u, q = grid_points(dirs, qs)
    assert u.shape == q.shape == (2, 4 * 9)
    for d in range(4):
        for m in range(9):
            assert np.array_equal(u[:, 9 * d + m], dirs[d])
            assert np.array_equal(q[:, 9 * d + m], qs[:, m])


class OnePointForm(ContactForm):
    """Profile 1 everywhere but at the first point, where it is ``value``."""

    kind = "one_point"

    def __init__(self, value):
        self.value = value

    def profile(self, u, q):
        prof = np.ones(np.shape(q[0]))
        prof.flat[0] = self.value
        return prof


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("error", [GeometryError, DissipationError, ShapeError, MapError])
def test_profile_values_raises_the_callers_error(value, error):
    u, q = grid_points(sphere_grid_array(2, 8), q_lattice(2, 4) / 4)
    with pytest.raises(error, match="one_point form is not positive and finite"):
        profile_values(OnePointForm(value), u, q, error)
    assert np.array_equal(profile_values(OnePointForm(2.0), u, q, error)[:2], [2.0, 1.0])
    assert profile_values(RoundForm(), u, q, error).shape == ()


FORM_SPECS = [
    {"kind": "round"},
    {"kind": "constant", "value": 2.5},
    {
        "kind": "trig",
        "c0": 1.0,
        "terms": [{"amp": 0.2, "q_freq": [1, 0], "u_powers": [0, 2], "use_sin": True}],
    },
    {"kind": "metric", "g": [[2.0, 0.5], [0.5, 1.0]]},
    {"kind": "linear_pullback", "matrix": [[1, 1], [0, 1]], "base": {"kind": "constant", "value": 2.0}},
]


def test_form_registry_roundtrip():
    assert [spec["kind"] for spec in FORM_SPECS] == list(FORMS)
    for spec in FORM_SPECS:
        assert build_form(spec).describe() == spec
    for bad in ({"kind": "foo"}, {"kind": ["round"]}, {}):
        with pytest.raises(GeometryError, match="unknown form kind"):
            build_form(bad)


# (spec, q_free): every form kind, the trig and pullback kinds both ways.
Q_FREE_FORMS = [
    ({"kind": "round"}, True),
    ({"kind": "constant", "value": 2.5}, True),
    (FORM_SPECS[2], False),
    ({"kind": "trig", "terms": [{"amp": 0.2, "q_freq": [0, 0], "u_powers": [1, 1]}]}, True),
    ({"kind": "trig", "terms": [{"amp": 0.2, "q_freq": [0, 0, 1]}]}, False),
    ({"kind": "metric", "g": [[2.0, 0.5], [0.5, 1.0]]}, True),
    ({"kind": "metric", "g": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]}, True),
    ({"kind": "linear_pullback", "matrix": [[2, 1], [1, 1]], "base": FORM_SPECS[3]}, True),
    ({"kind": "linear_pullback", "matrix": [[2, 1], [1, 1]], "base": FORM_SPECS[2]}, False),
]


@pytest.mark.parametrize("spec, q_free", Q_FREE_FORMS)
def test_q_free_form_profiles_ignore_q(rng, spec, q_free):
    form = build_form(spec)
    assert form.q_free is q_free
    n = form.n or 2
    u = rng.normal(size=(n, 200))
    u /= np.linalg.norm(u, axis=0)
    q = rng.random((n, 200))

    def profile_at(q):
        return np.broadcast_to(form.profile(list(u), list(q)), (200,))

    ref = profile_at(q)
    if q_free:
        for _ in range(3):
            np.testing.assert_array_equal(profile_at(rng.uniform(-3.0, 3.0, (n, 200))), ref)
    else:
        # A False declaration must be needed: some q shift changes the profile.
        assert not np.array_equal(profile_at(q + 0.25), ref)


def test_q_free_forms_cover_the_registry():
    assert {spec["kind"] for spec, _ in Q_FREE_FORMS} == set(FORMS)


@pytest.mark.parametrize(
    "term",
    [
        {"amp": "x", "q_freq": [1, 0]},
        {"amp": float("nan"), "q_freq": [1, 0]},
        {"amp": 0.1, "q_freq": "10"},
        {"amp": 0.1, "q_freq": [0.5, 0]},
        {"amp": 0.1, "q_freq": [1, 0, 0, 0]},
        {"amp": 0.1, "q_freq": [1, 0], "u_powers": [-1, 0]},
        {"amp": 0.1, "q_freq": [1, 0], "use_sin": "false"},
    ],
)
def test_trig_form_rejects_bad_terms(term):
    with pytest.raises(GeometryError, match="trig"):
        build_form({"kind": "trig", "terms": [term]})


def test_trig_form_dimension_follows_its_vectors():
    assert build_form({"kind": "trig", "terms": [{"amp": 0.1, "q_freq": [1, 0]}]}).n is None
    assert build_form({"kind": "trig", "terms": [{"amp": 0.1, "q_freq": [1, 0, 0]}]}).n == 3
    with pytest.raises(GeometryError, match="c0"):
        build_form({"kind": "trig", "c0": "1", "terms": []})


def test_matvec_matches_matmul_in_values_and_partials():
    # Zero coefficients, including a zero row, sit among the nonzero ones.
    m = np.array([[2.0, 0.0, -1.5], [0.0, 0.0, 0.0], [1.0, 4.0, 0.0], [0.0, 3.0, 0.5]])
    v = np.array([[0.3, -2.0], [-1.2, 0.7], [2.5, 1.1]])
    out = matvec(m)(seed_jets(list(v)))
    np.testing.assert_allclose([np.broadcast_to(jval(o), (2,)) for o in out], m @ v, rtol=1e-15)
    for i, o in enumerate(out):
        partials = o.partials if isinstance(o, Jet) else np.zeros((3, 2))
        np.testing.assert_array_equal(partials, np.broadcast_to(m[i][:, None], (3, 2)))
    # Plain floats go through the same path.
    assert matvec(m)([1.0, 2.0, 3.0]) == pytest.approx(list(m @ [1.0, 2.0, 3.0]), rel=1e-15)


def test_matvec_is_the_written_out_product_bit_for_bit(rng):
    # Rows hold 1, -1, 0 and 2: a 1 is not multiplied, a 0 is skipped, and
    # each row is summed left to right from its first nonzero term.
    m = [[1, 0, -1], [2, 1, 0], [0, -1, 2], [0, 0, 0], [0, 1, 0]]
    v = list(rng.normal(size=(3, 5)))
    product = matvec(m)  # read once, applied to arrays and to jets
    for comps in (v, seed_jets(v)):
        a, b, c = comps
        expected = [a + -1.0 * c, 2.0 * a + b, -1.0 * b + 2.0 * c, 0.0, b]
        out = product(comps)
        for o, e in zip(out, expected):
            assert np.array_equal(jval(o), jval(e))
            if isinstance(e, Jet):
                assert np.array_equal(o.partials, e.partials)
        assert out[4] is b  # a single coefficient 1 returns the component itself


def test_pullback_form_round_is_stretch():
    m = [[2, 1], [1, 1]]
    form = PullbackForm(m, RoundForm())
    u = np.array([1.0, 0.0])
    w = np.linalg.inv(np.array(m, float)).T @ u
    expected = 1.0 / np.linalg.norm(w)
    assert float(jval(form.profile(list(u), [0.0, 0.0]))) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Sphere grids and tangent frames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,res", [(2, 32), (3, 200)])
def test_sphere_grid_unit_norm(n, res):
    g = sphere_grid_array(n, res)
    assert g.shape == (res, n)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_frame_is_orthonormal_and_tangent(rng, n):
    # Random directions plus the axes and their negatives (the poles of
    # the n = 3 construction, and -0.0 components).
    u, _ = random_points(rng, n, 100)
    axes = np.eye(n)
    u = np.concatenate([u, axes, -axes, -axes + 0.0], axis=1)
    frame = tangent_frame(u)
    d = 2 * n - 1
    assert frame.shape == (2 * n, d, u.shape[1])
    gram = np.einsum("ijp,ikp->pjk", frame, frame)
    assert np.abs(gram - np.eye(d)).max() <= 4e-16
    assert np.abs(np.einsum("ip,ijp->jp", u, frame[:n])).max() <= 4e-16
    assert np.array_equal(frame[n:, n - 1:], np.broadcast_to(np.eye(n)[:, :, None], (n, n, u.shape[1])))
    assert not frame[n:, :n - 1].any() and not frame[:n, n - 1:].any()
