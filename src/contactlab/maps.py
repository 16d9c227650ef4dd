"""Catalog of contactomorphisms of the contact-element space over tori.

A map is an invertible composition of primitives; every primitive carries an
exact inverse and declares its integer action on first cohomology in closed
form.  Every primitive also returns the log of its conformal factor for the
round form in closed form, and ``ContactMap.apply_batch`` sums these along
the composition; this is the factor the dissipation sequence accumulates.
``apply_batch`` wraps q as q - floor(q), which is np.mod(q, 1.0) bit for bit
without its fmod, and a map builds its inverse and its cohomology
invariants once each, on the first call.
``ContactMap.push_frame`` pushes ambient tangent vectors (du, dq) through
the same plain-numpy transforms by a complex step, a contact flow's one RK4
loop included: each point enters as x + i STEP v, and the frame is read off
the image's imaginary parts.  It feeds the Lyapunov estimate.  Every entry
point takes (n, N) component arrays; a single point is a batch of one.
``PRIMITIVES`` and ``HAMILTONIANS`` map each descriptor kind to its class,
which ``geometry.build`` builds.

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
from functools import cached_property
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import IntMatrix, is_int, is_real
from .geometry import (
    Described,
    TWO_PI,
    buffers,
    build,
    build_at,
    jsum,
    matvec,
    metric_matrix,
    stacked,
)


class MapError(RuntimeError):
    pass


# The complex step of ``ContactMap.push_frame``.  A power of two scales the
# frame exactly, and its squared terms stay below the real parts' ulps.
STEP = 2.0**-80


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
        """Map fiber/base components, written in plain numpy so that real
        and complex arrays both pass (and the tests' jets).

        Returns (u', q', log_c): u' is a unit vector when u is, q' is not
        wrapped, and log_c is the log of the conformal factor for the round
        form at (u, q).  On complex points log_c is complex too;
        ``ContactMap.push_frame`` ignores it.
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
        try:
            self._inverse = algebra.mat_inverse(m)
        except algebra.AlgebraError as exc:
            raise MapError("canonical lift needs a unimodular matrix") from exc
        if len(m) not in (2, 3):
            raise MapError("canonical lift supports 2x2 or 3x3 matrices")
        self.matrix = m
        self.n = len(m)
        self.base_action = (np.array(m, dtype=int), frozenset(range(self.n)))
        self._minv_t = matvec(algebra.mat_transpose(self._inverse))
        self._m = matvec(m)

    def transform(self, u, q):
        w = self._minv_t(u)
        norm = np.sqrt(jsum([wi * wi for wi in w]))
        # (M^-T u / |M^-T u|) . d(Mq) = u . dq / |M^-T u|
        return [wi / norm for wi in w], self._m(q), -np.log(norm)

    def inverse(self):
        return CanonicalLift(self._inverse)

    def homology(self):
        minv_t = algebra.mat_transpose(self._inverse)
        return minv_t if self.n == 3 else ((1, 0, 0), (0, *minv_t[0]), (0, *minv_t[1]))


def turns(x, y):
    """The angle of (x, y) in turns, arctan2(y, x) / 2 pi mod 1.

    np.arctan2 and np.mod take no complex input, so complex points
    (x + i dx, y + i dy) give the angle of the real parts plus
    i (x dy - y dx) / (x^2 + y^2) / 2 pi, the complex step of the angle.
    """
    if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        return np.mod(np.arctan2(y, x) / TWO_PI, 1.0)
    xr, yr = x.real, y.real
    return turns(xr, yr) + 1j * ((xr * y.imag - yr * x.imag) / (xr * xr + yr * yr) / TWO_PI)


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
        theta = turns(u[0], u[1])
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
    """A degree-1 homogeneous Hamiltonian H(p, q), given by its one
    right-hand side, ``rates``.  ``base_action`` is the (B, axes) its flows
    carry; B = I says that the rates are invariant under translation of q
    along axes."""

    n: int
    base_action: tuple = (None, frozenset())

    def rates(self, x, out):
        """Writes Hamilton's (pdot, qdot) = (-dH/dq, dH/dp) at the state
        x = (p, q) into out, both (2n, N) arrays of one dtype, real or
        complex.  A pdot row that is identically 0 is left untouched:
        ``ContactFlow`` fills it once, with -0.0.
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
        self._g = matvec(self.g)

    def rates(self, x, out):
        p = x[:self.n]
        gp = self._g(p)
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

    def rates(self, x, out):
        n, axis = self.n, self.axis
        p = x[:n]
        norm = np.sqrt(jsum(list(p * p)))
        angle = TWO_PI * x[n + axis]
        qdot = np.divide(p, norm, out=out[n:])
        qdot *= 1.0 + self.eps * np.cos(angle)
        # pdot = -dH/dq = (2 pi eps |p|) sin(angle)
        pdot = np.multiply(TWO_PI * self.eps, norm, out=out[axis])
        pdot *= np.sin(angle)


class ContactFlow(Primitive):
    """Time-t map of an equivariant Hamiltonian flow, RK4 with fixed steps.

    The covector is renormalized to the sphere bundle after every step; this
    is consistent because degree-1 homogeneity makes the flow commute with
    fiber scaling.  The flow preserves p . dq, so the round-form factor is
    1/|p(t)|, the product of the inverse renormalization norms.
    ``hamiltonian`` is a Hamiltonian or its descriptor, built in dimension n.

    Real and complex points run one loop on the stacked (2n, N) state:
    ``rates`` writes each stage into a buffer carved from one block with the
    scratch state (``geometry.buffers``), and every update is in place, by
    ``out=``.  The divergence check reads the real part of |p|^2.
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
        n = self.n
        x = stacked([*u, *q])  # fresh: inputs stay
        h = self.t / self.steps
        rates = self.hamiltonian.rates
        k1, k2, k3, k4, y = buffers(x, 5)
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
            norm2 = jsum(list(p * p))
            v = norm2.real
            if not (v.min() >= 0.25 and v.max() <= 4.0):  # |p|^2 left [0.25, 4]; NaN fails both
                raise MapError("contact flow integration diverged; increase steps")
            log_c = log_c - 0.5 * np.log(v)
            p *= 1.0 / np.sqrt(norm2)
        return list(x[:n]), list(x[n:]), log_c

    def inverse(self):
        return ContactFlow(self.hamiltonian, -self.t, self.steps)


# ---------------------------------------------------------------------------
# Composite maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactMap:
    """Invertible composition of primitives, applied left to right.

    Its inverse and the cohomology invariants the runner reports
    (``cohomology_block``, ``s_value``, ``block_s_value``, ``periodicity``)
    are computed on first use and kept on the map: once per map, however
    many tasks and runs read them.
    """

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

        Returns (u, q, log_c): the image in fresh (n, N) arrays, q wrapped,
        and the log round-form conformal factor of the map at each point,
        summed over the primitives (the cocycle rule).  Every primitive maps
        unit u to unit u, so u is not normalized again.  Inputs are never
        changed: even a component a transform hands back is copied.
        """
        u, q = list(u_arr), list(q_arr)
        log_c = np.zeros(u_arr.shape[1:])
        for prim in self.primitives:
            u, q, step = prim.transform(u, q)
            log_c += step
        u_out, q_out = np.empty(u_arr.shape), np.empty(q_arr.shape)
        for i in range(self.n):
            u_out[i], q_out[i] = u[i], q[i]
        return u_out, np.subtract(q_out, np.floor(q_out), out=q_out), log_c

    def push_frame(self, u_arr: np.ndarray, q_arr: np.ndarray, frame: np.ndarray):
        """One step of a tangent frame along the map, on (n, N) arrays.

        ``frame`` is (2n, m, N): m ambient tangent vectors (du, dq) at each
        point, row i holding component i of (u, q).  The transforms run once
        on the (2n, m N) complex state x + i STEP v, one column per frame
        vector v at each point, and the pushed frame Df . v is the image's
        imaginary part over STEP (the complex step: no difference is taken,
        so nothing cancels).  Returns (u, q, frame) in fresh arrays: the
        image from ``apply_batch``, whose bits the complex real parts need
        not keep, and the pushed (2n, m, N) frame.  Inputs are never changed.
        """
        z = np.empty(frame.shape, complex)
        z.real, z.imag = np.concatenate([u_arr, q_arr])[:, None, :], STEP * frame
        comps = list(z.reshape(2 * self.n, -1))
        u, q = comps[:self.n], comps[self.n:]
        for prim in self.primitives:
            u, q, _ = prim.transform(u, q)
        pushed = stacked(u + q).imag.reshape(frame.shape) / STEP
        return (*self.apply_batch(u_arr, q_arr)[:2], pushed)

    def inverse(self) -> "ContactMap":
        return self._inverse

    @cached_property
    def _inverse(self) -> "ContactMap":  # built once per map
        prims = tuple(p.inverse() for p in reversed(self.primitives))
        return ContactMap(prims, self.n, algebra.mat_inverse(self.homology_matrix))

    @cached_property
    def cohomology_block(self) -> tuple[IntMatrix, tuple[int, ...]]:
        """The action on the first cohomology of the base torus, and the
        fiber shears: for n = 2 the base block of the 3x3 action and its
        shears (l, m) (``algebra.a_block``), for n = 3 the full action and
        no shears."""
        if self.n == 3:
            return self.homology_matrix, ()
        block, *shears = algebra.a_block(self.homology_matrix)
        return block, tuple(shears)

    @cached_property
    def s_value(self) -> float:
        """``algebra.s_value`` of the homology action."""
        return algebra.s_value(self.homology_matrix)

    @cached_property
    def block_s_value(self) -> float:
        """``algebra.s_value`` of the cohomology block, the spectral bound's target."""
        block = self.cohomology_block[0]
        return self.s_value if block is self.homology_matrix else algebra.s_value(block)

    @cached_property
    def periodicity(self) -> tuple[bool, int | None]:
        """``algebra.is_periodic`` of the homology action."""
        return algebra.is_periodic(self.homology_matrix)

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
