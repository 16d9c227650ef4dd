"""Catalog of contactomorphisms of the contact-element space over tori.

A map is an invertible composition of primitives; every primitive carries an
exact inverse and declares its integer action on first cohomology in closed
form.  Every primitive also returns the log of its conformal factor for the
round form in closed form, and ``ContactMap.apply_batch`` sums these along
the composition; this is the factor the dissipation sequence accumulates.
The jet-based extraction through the fiber charts (``conformal_factor*``,
``chart_jacobian_batch``) stays as the checking oracle and feeds the
Lyapunov estimate.

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
from .algebra import IntMatrix
from .geometry import (
    CEPoint,
    ContactForm,
    Direction,
    GeometryError,
    Jet,
    TWO_PI,
    chart_decode,
    chart_dim,
    chart_encode,
    eval_form,
    eval_form_components,
    jacobian,
    jatan2,
    jcos,
    jmatvec,
    jmod1,
    jsin,
    jsqrt,
    jval,
    point_to_chart,
    select_chart,
    select_chart_batch,
    wrap,
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

class Primitive:
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

    def describe(self) -> dict:
        raise NotImplementedError


class CanonicalLift(Primitive):
    """Lift of the torus automorphism q -> Mq: (u, q) -> (M^-T u / |.|, Mq)."""

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
        norm = jsqrt(sum(wi * wi for wi in w))
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

    def describe(self):
        return {"kind": "canonical_lift", "matrix": [list(r) for r in self.matrix]}


class Shear(Primitive):
    """The explicit strict shears on the 3-torus.

    axis 0 twists q1 by theta, axis 1 twists q2; the oscillatory corrections
    cancel the dtheta component of the pullback, so the round form is
    preserved exactly.
    """

    n = 2
    base_action = translations(2)

    def __init__(self, axis: int, power: int = 1):
        if axis not in (0, 1):
            raise MapError("shear axis must be 0 or 1")
        if power not in (1, -1):
            raise MapError("shear power must be +-1")
        self.axis = axis
        self.power = power

    def transform(self, u, q):
        theta = jmod1(jatan2(u[1], u[0]) / TWO_PI)
        angle4 = (2.0 * TWO_PI) * theta
        inv4pi = 1.0 / (2.0 * TWO_PI)
        if self.axis == 0:
            d1 = theta - jsin(angle4) * inv4pi
            d2 = jcos(angle4) * inv4pi
        else:
            d1 = jcos(angle4) * inv4pi
            d2 = theta + jsin(angle4) * inv4pi
        s = float(self.power)
        return [u[0], u[1]], [q[0] + s * d1, q[1] + s * d2], 0.0

    def inverse(self):
        return Shear(self.axis, -self.power)

    def homology(self):
        if self.axis == 0:
            return ((1, -self.power, 0), (0, 1, 0), (0, 0, 1))
        return ((1, 0, -self.power), (0, 1, 0), (0, 0, 1))

    def describe(self):
        kind = "shear_a" if self.axis == 0 else "shear_b"
        return {"kind": kind, "power": self.power}


class ReebTranslation(Primitive):
    """Time-t Reeb flow of the round form: (u, q) -> (u, q + t u)."""

    def __init__(self, t: float, n: int = 2):
        if n not in (2, 3):
            raise MapError("dimension must be 2 or 3")
        self.t = float(t)
        self.n = n
        self.base_action = translations(n)

    def transform(self, u, q):
        # u . d(q + t u) = u . dq + (t/2) d|u|^2, and |u| = 1 on the sphere.
        return list(u), [qi + self.t * ui for qi, ui in zip(q, u)], 0.0

    def inverse(self):
        return ReebTranslation(-self.t, self.n)

    def describe(self):
        return {"kind": "reeb_translation", "t": self.t, "n": self.n}


# -- degree-1 homogeneous Hamiltonians for ContactFlow ----------------------

class Hamiltonian:
    """``base_action`` is the (B, axes) its flows carry; B = I says that
    both gradients are invariant under translation of q along axes."""

    n: int
    base_action: tuple = (None, frozenset())

    def gradients(self, p, q):
        """Returns (dH/dp, dH/dq) as component lists; jet-compatible."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class MomentumHamiltonian(Hamiltonian):
    """H = <c, p>: the flow translates the base at constant speed c."""

    def __init__(self, c: Sequence[float]):
        if not isinstance(c, (list, tuple)):
            raise MapError(f"momentum c must be a list of numbers, got {c!r}")
        self.c = tuple(float(x) for x in c)
        self.n = len(self.c)
        if self.n not in (2, 3):
            raise MapError("dimension must be 2 or 3")
        self.base_action = translations(self.n)

    def gradients(self, p, q):
        return list(self.c), [0.0] * self.n

    def describe(self):
        return {"kind": "momentum", "c": list(self.c)}


class MetricHamiltonian(Hamiltonian):
    """H = sqrt(p^T G p): geodesic flow of a flat metric on the base."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)
        self.n = self.g.shape[0]
        if self.n not in (2, 3) or self.g.shape != (self.n, self.n):
            raise MapError("metric must be 2x2 or 3x3")
        if not np.allclose(self.g, self.g.T):
            raise MapError("metric must be symmetric")
        self.base_action = translations(self.n)

    def gradients(self, p, q):
        gp = jmatvec(self.g, p)
        h = jsqrt(sum(pi * gi for pi, gi in zip(p, gp)))
        return [gi / h for gi in gp], [0.0] * self.n

    def describe(self):
        return {"kind": "metric_norm", "g": self.g.tolist()}


class ModulatedNormHamiltonian(Hamiltonian):
    """H = |p| (1 + eps cos 2 pi q_axis): a genuinely q-dependent flow."""

    def __init__(self, eps: float, axis: int = 0, n: int = 2):
        if n not in (2, 3) or not 0 <= axis < n:
            raise MapError("bad dimension or axis")
        if abs(eps) >= 1.0:
            raise MapError("modulation must satisfy |eps| < 1")
        self.eps = float(eps)
        self.axis = axis
        self.n = n
        self.base_action = translations(n, frozenset(range(n)) - {axis})

    def gradients(self, p, q):
        norm = jsqrt(sum(pi * pi for pi in p))
        mod = 1.0 + self.eps * jcos(TWO_PI * q[self.axis])
        dp = [pi / norm * mod for pi in p]
        dq = [0.0] * self.n
        dq[self.axis] = -(TWO_PI * self.eps) * norm * jsin(TWO_PI * q[self.axis])
        return dp, dq

    def describe(self):
        return {"kind": "modulated_norm", "eps": self.eps, "axis": self.axis, "n": self.n}


class ContactFlow(Primitive):
    """Time-t map of an equivariant Hamiltonian flow, RK4 with fixed steps.

    The covector is renormalized to the sphere bundle after every step; this
    is consistent because degree-1 homogeneity makes the flow commute with
    fiber scaling.  The flow preserves p . dq, so the round-form factor is
    1/|p(t)|, the product of the inverse renormalization norms.
    """

    def __init__(self, hamiltonian: Hamiltonian, t: float, steps: int = 256):
        if steps < 1:
            raise MapError("need at least one integration step")
        self.hamiltonian = hamiltonian
        self.t = float(t)
        self.steps = int(steps)
        self.n = hamiltonian.n
        self.base_action = hamiltonian.base_action

    def transform(self, u, q):
        # Hamilton's equations: qdot = dH/dp, pdot = -dH/dq.
        p = list(u)
        q = list(q)
        h = self.t / self.steps
        ham = self.hamiltonian
        log_c = 0.0
        for _ in range(self.steps):
            k1p, k1q = _hamilton_rhs(ham, p, q)
            p1 = [pi + 0.5 * h * ki for pi, ki in zip(p, k1p)]
            q1 = [qi + 0.5 * h * ki for qi, ki in zip(q, k1q)]
            k2p, k2q = _hamilton_rhs(ham, p1, q1)
            p2 = [pi + 0.5 * h * ki for pi, ki in zip(p, k2p)]
            q2 = [qi + 0.5 * h * ki for qi, ki in zip(q, k2q)]
            k3p, k3q = _hamilton_rhs(ham, p2, q2)
            p3 = [pi + h * ki for pi, ki in zip(p, k3p)]
            q3 = [qi + h * ki for qi, ki in zip(q, k3q)]
            k4p, k4q = _hamilton_rhs(ham, p3, q3)
            p = [
                pi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for pi, a, b, c, d in zip(p, k1p, k2p, k3p, k4p)
            ]
            q = [
                qi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for qi, a, b, c, d in zip(q, k1q, k2q, k3q, k4q)
            ]
            norm2 = sum(pi * pi for pi in p)
            vals = np.asarray(jval(norm2), dtype=float)
            if not np.all(np.isfinite(vals)) or np.any(vals < 0.25) or np.any(vals > 4.0):
                raise MapError("contact flow integration diverged; increase steps")
            log_c = log_c - 0.5 * np.log(vals)
            inv = 1.0 / jsqrt(norm2)
            p = [pi * inv for pi in p]
        return p, q, log_c

    def inverse(self):
        return ContactFlow(self.hamiltonian, -self.t, self.steps)

    def describe(self):
        return {
            "kind": "contact_flow",
            "hamiltonian": self.hamiltonian.describe(),
            "t": self.t,
            "steps": self.steps,
        }


def _hamilton_rhs(ham: Hamiltonian, p, q):
    dp, dq = ham.gradients(p, q)
    return [-g for g in dq], dp  # (pdot, qdot)


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

    def apply(self, x: CEPoint) -> CEPoint:
        if x.n != self.n:
            raise MapError("point dimension mismatch")
        u, q = list(x.u.u), list(x.q.q)
        for prim in self.primitives:
            u, q, _ = prim.transform(u, q)
        return CEPoint(Direction([float(c) for c in u]), wrap([float(c) for c in q]))

    def apply_batch(self, u_arr: np.ndarray, q_arr: np.ndarray):
        """Vectorized apply on (n, N) component arrays.

        Returns (u, q, log_c): the image with u normalized and q wrapped,
        and the log round-form conformal factor of the map at each point,
        summed over the primitives (the cocycle rule).
        """
        shape = u_arr.shape[1:]
        u = [u_arr[i] for i in range(self.n)]
        q = [q_arr[i] for i in range(self.n)]
        log_c = np.zeros(shape)
        for prim in self.primitives:
            u, q, step = prim.transform(u, q)
            log_c += step
        u = np.stack([np.broadcast_to(np.asarray(c, float), shape) for c in u])
        q = np.stack([np.broadcast_to(np.asarray(c, float), shape) for c in q])
        u = u / np.sqrt((u * u).sum(axis=0))
        return u, np.mod(q, 1.0), log_c

    def inverse(self) -> "ContactMap":
        prims = tuple(p.inverse() for p in reversed(self.primitives))
        return ContactMap(prims, self.n, algebra.mat_inverse(self.homology_matrix))

    def power(self, k: int) -> "ContactMap":
        if k == 0:
            return identity_map(self.n)
        base = self if k > 0 else self.inverse()
        return make_composite(list(base.primitives) * abs(k), n=self.n)

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


def homology_action(f: ContactMap) -> IntMatrix:
    return f.homology_matrix


# ---------------------------------------------------------------------------
# Conformal factor
# ---------------------------------------------------------------------------

def _composite_chart_phi(f: ContactMap, chart_in: int, chart_out: int):
    def phi(coords):
        u, q = chart_decode(f.n, chart_in, coords)
        for prim in f.primitives:
            u, q, _ = prim.transform(u, q)
        return chart_encode(f.n, chart_out, u, q)

    return phi


def conformal_factor(f: ContactMap, form: ContactForm, x: CEPoint) -> float:
    """c with (f^* form-multiple) = c * (form-multiple) at x.

    Evaluated as the ratio of the pulled-back form to the form on the chart
    basis vector where the form coefficient is largest.
    """
    lam_x = eval_form(form, x)
    j = int(np.argmax(np.abs(lam_x)))
    if abs(lam_x[j]) < 1e-12:
        raise MapError("degenerate transversal: form vanishes on chart basis")
    y = f.apply(x)
    lam_y = eval_form(form, y)
    chart_in, coords = point_to_chart(x)
    chart_out = select_chart(y.u.u)
    jac = jacobian(_composite_chart_phi(f, chart_in, chart_out), coords)
    c = float(lam_y @ jac[:, j]) / float(lam_x[j])
    return c


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
    lam_x = _form_rows(form, u_arr, q_arr, f.n, npts)
    lam_y = _form_rows(form, u2, q2, f.n, npts)
    jsel = np.argmax(np.abs(lam_x), axis=0)
    points = np.arange(npts)
    denom = lam_x[jsel, points]
    if np.min(np.abs(denom)) < 1e-12:
        raise MapError("degenerate transversal: form vanishes on chart basis")
    return (lam_y * jac[:, jsel, points]).sum(axis=0) / denom, u2, q2


def chart_jacobian_batch(f: ContactMap, u_arr: np.ndarray, q_arr: np.ndarray):
    """Full chart Jacobians at (n, N) arrays: returns (J, u_image, q_image).

    J has shape (d, d, N); entry [i, j] is d out_i / d x_j at each point.
    """
    d = chart_dim(f.n)
    u2, q2, _ = f.apply_batch(u_arr, q_arr)
    jac = np.empty((d, d, u_arr.shape[1]))
    for idx, coords, phi in _chart_groups(f, u_arr, q_arr, u2):
        seeds = np.zeros((d, d, idx.size))
        for i in range(d):
            seeds[i, i, :] = 1.0
        jets = [Jet(np.asarray(coords[i], float), seeds[:, i, :]) for i in range(d)]
        for i, o in enumerate(phi(jets)):
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


def _form_rows(form: ContactForm, u_arr, q_arr, n: int, npts: int) -> np.ndarray:
    comps = eval_form_components(
        form, [u_arr[i] for i in range(n)], [q_arr[i] for i in range(n)], n
    )
    return np.stack([np.broadcast_to(np.asarray(c, float), (npts,)) for c in comps])


# ---------------------------------------------------------------------------
# Catalog construction from descriptors
# ---------------------------------------------------------------------------

# Kind -> builder from a descriptor; ``describe()`` of the result round-trips.
HAMILTONIANS = {
    "momentum": lambda spec: MomentumHamiltonian(spec["c"]),
    "metric_norm": lambda spec: MetricHamiltonian(spec["g"]),
    "modulated_norm": lambda spec: ModulatedNormHamiltonian(
        spec["eps"], spec.get("axis", 0), spec.get("n", 2)
    ),
}

PRIMITIVES = {
    "canonical_lift": lambda spec, n: CanonicalLift(spec["matrix"]),
    "shear_a": lambda spec, n: Shear(0, spec.get("power", 1)),
    "shear_b": lambda spec, n: Shear(1, spec.get("power", 1)),
    "reeb_translation": lambda spec, n: ReebTranslation(spec["t"], spec.get("n", n)),
    "contact_flow": lambda spec, n: ContactFlow(
        build_hamiltonian(spec["hamiltonian"]), spec["t"], spec.get("steps", 256)
    ),
}


def build_hamiltonian(spec: dict) -> Hamiltonian:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in HAMILTONIANS:
        raise MapError(f"unknown hamiltonian kind {kind!r}")
    return HAMILTONIANS[kind](spec)


def build_primitive(spec: dict, n: int) -> Primitive:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in PRIMITIVES:
        raise MapError(f"unknown primitive kind {kind!r}")
    return PRIMITIVES[kind](spec, n)
