"""Catalog of contactomorphisms of the contact-element space over tori.

A map is an invertible composition of primitives; every primitive carries an
exact inverse and declares its integer action on first cohomology in closed
form.  Every primitive also returns the log of its conformal factor for the
round form in closed form, and ``ContactMap.apply_batch`` sums these along
the composition; this is the factor the dissipation sequence accumulates.
``chart_jacobian_batch`` differentiates a map through the fiber charts with
jets, which pass through the plain numpy of every transform by numpy's ufunc
protocol (``geometry.Jet``); it feeds the Lyapunov estimate, and the tests
check the closed forms against it.  Every entry point takes (n, N) component
arrays; a single point is a batch of one.  ``PRIMITIVES`` and
``HAMILTONIANS`` map each descriptor kind to its class, which
``geometry.build`` builds.

Every primitive and Hamiltonian declares how it meets translations of the
base in one attribute, ``base_action = (B, axes)``: B is an integer
unimodular matrix and transform(u, q + t) = (u', q' + B t, log c) for every
real t supported on ``axes``.  A canonical lift of M declares (M, all axes);
shears, Reeb translations and the momentum and metric flows (I, all axes); a
modulated flow (I, every axis but its own); a new kind declares no axes
until the identity is proved.  ``ContactMap.base_action`` composes them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import IntMatrix, is_int, is_real
from .geometry import (
    Described,
    Jet,
    TWO_PI,
    build,
    build_at,
    chart_decode,
    chart_dim,
    chart_encode,
    jmatvec,
    jsum,
    jval,
    metric_matrix,
    seed_jets,
    select_chart_batch,
)


class MapError(RuntimeError):
    pass


def translations(n: int, axes=None) -> tuple:
    """The base action (I, axes) of a map that commutes with translation
    along ``axes``, all n axes by default."""
    return np.eye(n, dtype=int), frozenset(range(n) if axes is None else axes)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

class Primitive(Described):
    """A basic contactomorphism with exact inverse and homology matrix.

    ``base_action`` is its (B, axes) as the module docstring defines it; it
    declares no axes (B None) unless the identity holds for every input.
    """

    n: int
    base_action: tuple = (None, frozenset())

    def transform(self, u, q):
        """Map fiber/base components; jet- and array-compatible.

        Returns (u', q', log_c): u' is a unit vector when u is, q' is not
        wrapped, and log_c is the log of the conformal factor for the round
        form at (u, q).  log_c is computed from values only (a float or an
        array, never a jet); chart-map callers differentiating through
        jets ignore it.
        """
        raise NotImplementedError

    def inverse(self) -> "Primitive":
        raise NotImplementedError

    def homology(self) -> IntMatrix:
        """Inverse of the induced automorphism of first cohomology.

        Basis ([dtheta], [dq1], [dq2]) for n=2; [dq1..dqn] for n=3.  The
        default, the identity, holds for every primitive isotopic to it.
        """
        return algebra.identity_matrix(3 if self.n == 2 else self.n)


class CanonicalLift(Primitive):
    """Lift of the torus automorphism q -> Mq: (u, q) -> (M^-T u / |.|, Mq)."""

    kind = "canonical_lift"

    def __init__(self, matrix):
        m = algebra.as_matrix(matrix)
        if algebra.determinant(m) not in (1, -1):
            raise MapError("canonical lift needs a unimodular matrix")
        if len(m) not in (2, 3):
            raise MapError("canonical lift supports 2x2 or 3x3 matrices")
        self.matrix = m
        self.n = len(m)
        self.base_action = (np.array(m, dtype=int), frozenset(range(self.n)))
        self._m_float = np.array(m, dtype=float)
        self._minv_t = np.array(
            algebra.mat_transpose(algebra.mat_inverse(m)), dtype=float
        )

    def transform(self, u, q):
        w = jmatvec(self._minv_t, u)
        norm = np.sqrt(jsum([wi * wi for wi in w]))
        # (M^-T u / |M^-T u|) . d(Mq) = u . dq / |M^-T u|
        return [wi / norm for wi in w], jmatvec(self._m_float, q), -np.log(jval(norm))

    def inverse(self):
        return CanonicalLift(algebra.mat_inverse(self.matrix))

    def homology(self):
        minv_t = algebra.mat_transpose(algebra.mat_inverse(self.matrix))
        if self.n == 3:
            return minv_t
        a, b = minv_t
        return ((1, 0, 0), (0, a[0], a[1]), (0, b[0], b[1]))


class Shear(Primitive):
    """The explicit strict shears on the 3-torus.

    axis 0 twists q1 by theta, axis 1 twists q2; the oscillatory corrections
    cancel the dtheta component of the pullback, so the round form is
    preserved exactly.  The kinds shear_a and shear_b fix the axis.
    """

    n = 2
    base_action = translations(2)
    fixed = ("axis",)

    def __init__(self, axis: int, power: int = 1):
        if axis not in (0, 1):
            raise MapError("shear axis must be 0 or 1")
        if not (is_int(power) and power in (1, -1)):
            raise MapError(f"shear power must be 1 or -1, got {power!r}")
        self.axis = axis
        self.power = int(power)
        self.kind = ("shear_a", "shear_b")[axis]

    def transform(self, u, q):
        theta = np.mod(np.arctan2(u[1], u[0]) / TWO_PI, 1.0)
        angle4 = (2.0 * TWO_PI) * theta
        inv4pi = 1.0 / (2.0 * TWO_PI)
        if self.axis == 0:
            d1 = theta - np.sin(angle4) * inv4pi
            d2 = np.cos(angle4) * inv4pi
        else:
            d1 = np.cos(angle4) * inv4pi
            d2 = theta + np.sin(angle4) * inv4pi
        s = float(self.power)
        return [u[0], u[1]], [q[0] + s * d1, q[1] + s * d2], 0.0

    def inverse(self):
        return Shear(self.axis, -self.power)

    def homology(self):
        if self.axis == 0:
            return ((1, -self.power, 0), (0, 1, 0), (0, 0, 1))
        return ((1, 0, -self.power), (0, 1, 0), (0, 0, 1))


class ReebTranslation(Primitive):
    """Time-t Reeb flow of the round form: (u, q) -> (u, q + t u)."""

    kind = "reeb_translation"

    def __init__(self, t: float, n: int = 2):
        if not (is_int(n) and n in (2, 3)):
            raise MapError("dimension must be 2 or 3")
        if not is_real(t):
            raise MapError(f"reeb t must be a finite number, got {t!r}")
        self.t = float(t)
        self.n = int(n)
        self.base_action = translations(self.n)

    def transform(self, u, q):
        # u . d(q + t u) = u . dq + (t/2) d|u|^2, and |u| = 1 on the sphere.
        return list(u), [qi + self.t * ui for qi, ui in zip(q, u)], 0.0

    def inverse(self):
        return ReebTranslation(-self.t, self.n)


# -- degree-1 homogeneous Hamiltonians for ContactFlow ----------------------

class Hamiltonian(Described):
    """A degree-1 homogeneous Hamiltonian H(p, q), in two forms.

    ``rates`` is the value path ``ContactFlow`` runs on plain arrays;
    ``gradients`` is the jet-compatible oracle it runs on jets.  Both give
    the same bits.  ``base_action`` is the (B, axes) its flows carry; B = I
    says that both gradients are invariant under translation of q along axes.
    """

    n: int
    base_action: tuple = (None, frozenset())

    def gradients(self, p, q):
        """Returns (dH/dp, dH/dq) as component lists; jet-compatible."""
        raise NotImplementedError

    def rates(self, x, out):
        """Writes Hamilton's (pdot, qdot) = (-dH/dq, dH/dp) at the stacked
        (2n, N) state x = (p, q) into the (2n, N) array out, with the
        association of ``gradients``.  A pdot row that is identically 0 is
        left untouched: ``ContactFlow`` fills it once, with -0.0.
        """
        raise NotImplementedError


class MomentumHamiltonian(Hamiltonian):
    """H = <c, p>: the flow translates the base at constant speed c."""

    kind = "momentum"

    def __init__(self, c: Sequence[float]):
        if not (isinstance(c, (list, tuple)) and all(is_real(x) for x in c)):
            raise MapError(f"momentum c must be a list of numbers, got {c!r}")
        self.c = tuple(float(x) for x in c)
        self.n = len(self.c)
        if self.n not in (2, 3):
            raise MapError("dimension must be 2 or 3")
        self.base_action = translations(self.n)

    def gradients(self, p, q):
        return list(self.c), [0.0] * self.n

    def rates(self, x, out):
        out[self.n:] = np.reshape(self.c, (-1, 1))


class MetricHamiltonian(Hamiltonian):
    """H = sqrt(p^T G p): geodesic flow of a flat metric on the base."""

    kind = "metric_norm"

    def __init__(self, g):
        self.g = metric_matrix(g, MapError)
        self.n = self.g.shape[0]
        if self.n not in (2, 3):
            raise MapError("metric must be 2x2 or 3x3")
        self.base_action = translations(self.n)

    def gradients(self, p, q):
        gp = jmatvec(self.g, p)
        h = np.sqrt(jsum([pi * gi for pi, gi in zip(p, gp)]))
        return [gi / h for gi in gp], [0.0] * self.n

    def rates(self, x, out):
        p = x[:self.n]
        gp = jmatvec(self.g, p)
        h = np.sqrt(jsum([pi * gi for pi, gi in zip(p, gp)]))
        for qdot, gi in zip(out[self.n:], gp):
            np.divide(gi, h, out=qdot)


class ModulatedNormHamiltonian(Hamiltonian):
    """H = |p| (1 + eps cos 2 pi q_axis): a genuinely q-dependent flow."""

    kind = "modulated_norm"

    def __init__(self, eps: float, axis: int = 0, n: int = 2):
        if not (is_int(n) and n in (2, 3)):
            raise MapError("dimension must be 2 or 3")
        if not (is_int(axis) and 0 <= axis < n):
            raise MapError(f"modulated_norm axis must be an integer below n, got {axis!r}")
        if not (is_real(eps) and abs(eps) < 1.0):
            raise MapError("modulation must satisfy |eps| < 1")
        self.eps = float(eps)
        self.axis = int(axis)
        self.n = int(n)
        self.base_action = translations(self.n, frozenset(range(self.n)) - {self.axis})

    def gradients(self, p, q):
        norm = np.sqrt(jsum([pi * pi for pi in p]))
        mod = 1.0 + self.eps * np.cos(TWO_PI * q[self.axis])
        dp = [pi / norm * mod for pi in p]
        dq = [0.0] * self.n
        dq[self.axis] = -(TWO_PI * self.eps) * norm * np.sin(TWO_PI * q[self.axis])
        return dp, dq

    def rates(self, x, out):
        n, axis = self.n, self.axis
        p = x[:n]
        norm = np.sqrt(jsum(list(p * p)))
        angle = TWO_PI * x[n + axis]
        qdot = np.divide(p, norm, out=out[n:])
        qdot *= 1.0 + self.eps * np.cos(angle)
        # pdot = -dH/dq = (2 pi eps |p|) sin(angle), the negated oracle bits
        pdot = np.multiply(TWO_PI * self.eps, norm, out=out[axis])
        pdot *= np.sin(angle)


class ContactFlow(Primitive):
    """Time-t map of an equivariant Hamiltonian flow, RK4 with fixed steps.

    The covector is renormalized to the sphere bundle after every step; this
    is consistent because degree-1 homogeneity makes the flow commute with
    fiber scaling.  The flow preserves p . dq, so the round-form factor is
    1/|p(t)|, the product of the inverse renormalization norms.
    ``hamiltonian`` is a Hamiltonian or its descriptor, built in dimension n.

    Plain arrays run the value path: (p, q) stacked once into a (2n, N)
    state, ``Hamiltonian.rates`` writing each stage into one of four
    preallocated buffers.  Jets run the component-list loop over
    ``Hamiltonian.gradients``, the oracle; both give the same bits.
    """

    kind = "contact_flow"

    def __init__(self, hamiltonian, t: float, steps: int = 256, *, n: int = 2):
        if not (is_int(steps) and steps >= 1):
            raise MapError(f"flow steps must be a positive integer, got {steps!r}")
        if not is_real(t):
            raise MapError(f"flow t must be a finite number, got {t!r}")
        if not isinstance(hamiltonian, Hamiltonian):
            hamiltonian = build_at(
                f"{self.kind}: hamiltonian", hamiltonian, HAMILTONIANS, "hamiltonian", MapError, n=n
            )
        self.hamiltonian = hamiltonian
        self.t = float(t)
        self.steps = int(steps)
        self.n = hamiltonian.n
        self.base_action = hamiltonian.base_action

    def transform(self, u, q):
        # Hamilton's equations: qdot = dH/dp, pdot = -dH/dq.
        if any(isinstance(c, Jet) for c in (*u, *q)):
            return self._transform_jets(u, q)
        n = self.n
        state = np.array(np.broadcast_arrays(*u, *q), dtype=float)  # fresh: inputs stay
        x = state.reshape(2 * n, -1)  # a view whose rows are arrays, even for scalars
        h = self.t / self.steps
        rates = self.hamiltonian.rates
        k1, k2, k3, k4 = np.full((4,) + x.shape, -0.0)
        y = np.empty_like(x)
        log_c = 0.0
        for _ in range(self.steps):
            rates(x, k1)
            rates(np.add(x, np.multiply(0.5 * h, k1, out=y), out=y), k2)
            rates(np.add(x, np.multiply(0.5 * h, k2, out=y), out=y), k3)
            rates(np.add(x, np.multiply(h, k3, out=y), out=y), k4)
            # (h/6)(((k1 + 2 k2) + 2 k3) + k4); scaling by 2 keeps the -0.0 rows
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            x += np.multiply(h / 6.0, k2, out=y)
            p = x[:n]
            norm2 = _checked_norm2(jsum(list(p * p)))
            log_c = log_c - 0.5 * np.log(norm2)
            p *= 1.0 / np.sqrt(norm2)
        return list(state[:n]), list(state[n:]), np.reshape(log_c, state.shape[1:])

    def _transform_jets(self, u, q):
        n, h, ham = self.n, self.t / self.steps, self.hamiltonian
        z = [*u, *q]
        log_c = 0.0
        for _ in range(self.steps):
            k1 = _hamilton_rhs(ham, z)
            k2 = _hamilton_rhs(ham, [zi + 0.5 * h * ki for zi, ki in zip(z, k1)])
            k3 = _hamilton_rhs(ham, [zi + 0.5 * h * ki for zi, ki in zip(z, k2)])
            k4 = _hamilton_rhs(ham, [zi + h * ki for zi, ki in zip(z, k3)])
            z = [
                zi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
            ]
            norm2 = jsum([pi * pi for pi in z[:n]])
            log_c = log_c - 0.5 * np.log(_checked_norm2(np.asarray(jval(norm2), dtype=float)))
            inv = 1.0 / np.sqrt(norm2)
            z = [pi * inv for pi in z[:n]] + z[n:]
        return z[:n], z[n:], log_c

    def inverse(self):
        return ContactFlow(self.hamiltonian, -self.t, self.steps)


def _checked_norm2(norm2: np.ndarray) -> np.ndarray:
    """|p|^2 after a step, unless some point left [0.25, 4] (NaN fails both)."""
    if not (norm2.min() >= 0.25 and norm2.max() <= 4.0):
        raise MapError("contact flow integration diverged; increase steps")
    return norm2


def _hamilton_rhs(ham: Hamiltonian, z: list) -> list:
    """(pdot, qdot) at the state z = (p, q), from ``gradients``."""
    dp, dq = ham.gradients(z[:ham.n], z[ham.n:])
    return [-g for g in dq] + dp


# ---------------------------------------------------------------------------
# Composite maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactMap:
    """Invertible composition of primitives, applied left to right."""

    primitives: tuple[Primitive, ...]
    n: int
    homology_matrix: IntMatrix

    @property
    def base_action(self) -> tuple:
        """The composite's (B, axes), under ``Primitive.base_action``.

        When every primitive covers all axes, B is the product of theirs;
        otherwise every B must be I, and the axes are those all declare.
        """
        actions = [p.base_action for p in self.primitives]
        b, every = translations(self.n)
        if all(axes == every for _, axes in actions):
            for pb, _ in actions:
                b = pb @ b
            return b, every
        if all(np.array_equal(pb, b) for pb, _ in actions):
            return b, every.intersection(*(axes for _, axes in actions))
        return b, frozenset()

    def apply_batch(self, u_arr: np.ndarray, q_arr: np.ndarray):
        """Vectorized apply on (n, N) component arrays.

        Returns (u, q, log_c): the image in fresh (n, N) arrays, u normalized
        and q wrapped, and the log round-form conformal factor of the map at
        each point, summed over the primitives (the cocycle rule).  Inputs are
        never changed: even a component a transform hands back is copied.
        """
        u, q = list(u_arr), list(q_arr)
        log_c = np.zeros(u_arr.shape[1:])
        for prim in self.primitives:
            u, q, step = prim.transform(u, q)
            log_c += step
        u_out, q_out = np.empty(u_arr.shape), np.empty(q_arr.shape)
        for i in range(self.n):
            u_out[i], q_out[i] = u[i], q[i]
        u_out /= np.sqrt((u_out * u_out).sum(axis=0))
        return u_out, np.mod(q_out, 1.0, out=q_out), log_c

    def inverse(self) -> "ContactMap":
        prims = tuple(p.inverse() for p in reversed(self.primitives))
        return ContactMap(prims, self.n, algebra.mat_inverse(self.homology_matrix))

    def describe(self) -> list[dict]:
        return [p.describe() for p in self.primitives]


def make_composite(primitives: Sequence[Primitive], n: int | None = None) -> ContactMap:
    prims = tuple(primitives)
    dims = {p.n for p in prims}
    if len(dims) > 1:
        raise MapError(f"dimension mismatch among primitives: {sorted(dims)}")
    if n is None:
        if not dims:
            raise MapError("empty composite needs an explicit dimension")
        n = dims.pop()
    elif dims and dims != {n}:
        raise MapError("primitives do not match the requested dimension")
    h = algebra.identity_matrix(3 if n == 2 else n)
    for p in prims:  # composite = last o ... o first; I is a homomorphism
        h = algebra.mat_mul(p.homology(), h)
    return ContactMap(prims, n, h)


def identity_map(n: int) -> ContactMap:
    return make_composite([], n=n)


# ---------------------------------------------------------------------------
# Chart Jacobians
# ---------------------------------------------------------------------------

def _composite_chart_phi(f: ContactMap, chart_in: int, chart_out: int):
    def phi(coords):
        u, q = chart_decode(f.n, chart_in, coords)
        for prim in f.primitives:
            u, q, _ = prim.transform(u, q)
        return chart_encode(f.n, chart_out, u, q)

    return phi


def chart_jacobian_batch(f: ContactMap, u_arr: np.ndarray, q_arr: np.ndarray):
    """Full chart Jacobians at (n, N) arrays: returns (J, u_image, q_image).

    J has shape (d, d, N); entry [i, j] is d out_i / d x_j at each point.
    """
    d = chart_dim(f.n)
    u2, q2, _ = f.apply_batch(u_arr, q_arr)
    jac = np.empty((d, d, u_arr.shape[1]))
    for idx, coords, phi in _chart_groups(f, u_arr, q_arr, u2):
        for i, o in enumerate(phi(seed_jets(coords))):
            if isinstance(o, Jet):
                jac[i, :, idx] = o.partials.T
            else:
                jac[i, :, idx] = 0.0
    return jac, u2, q2


def _chart_groups(f: ContactMap, u_arr, q_arr, u_image):
    """Points grouped by (input chart, output chart).

    Yields (idx, coords, phi) per nonempty group: the point indices, their
    input chart coordinates, and the composite in those two charts.
    """
    n = f.n
    npts = u_arr.shape[1]
    if n == 2:
        pairs = [(0, 0, np.arange(npts))]
    else:
        cin = select_chart_batch(u_arr[2])
        cout = select_chart_batch(u_image[2])
        pairs = [
            (a, b, np.nonzero((cin == a) & (cout == b))[0])
            for a in (0, 1)
            for b in (0, 1)
        ]
    for chart_in, chart_out, idx in pairs:
        if idx.size == 0:
            continue
        coords = chart_encode(
            n, chart_in, [u_arr[i, idx] for i in range(n)], [q_arr[i, idx] for i in range(n)]
        )
        yield idx, coords, _composite_chart_phi(f, chart_in, chart_out)


# ---------------------------------------------------------------------------
# Catalog construction from descriptors
# ---------------------------------------------------------------------------

# Kind -> (class, fixed arguments); ``describe()`` of the result round-trips.
HAMILTONIANS = {
    cls.kind: (cls, {}) for cls in (MomentumHamiltonian, MetricHamiltonian, ModulatedNormHamiltonian)
}

PRIMITIVES = {
    "canonical_lift": (CanonicalLift, {}),
    "shear_a": (Shear, {"axis": 0}),
    "shear_b": (Shear, {"axis": 1}),
    "reeb_translation": (ReebTranslation, {}),
    "contact_flow": (ContactFlow, {}),
}


def build_primitive(spec: dict, n: int) -> Primitive:
    return build(spec, PRIMITIVES, "primitive", MapError, n=n)
