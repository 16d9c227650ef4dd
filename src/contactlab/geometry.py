"""Coordinates on tori and their cooriented contact-element spaces.

A point of the contact-element space is a unit fiber direction u and a base
point q, both held as (n, N) component arrays: every call takes a batch,
and a single point is a batch of one.  Provides the contact-form catalog,
the grids and the ambient tangent frames.  Forms and maps are written in
plain numpy that also takes complex points, so a tangent frame is pushed
through a map's transforms as a complex step (``maps.ContactMap.push_frame``);
a contact flow runs its stacked state in place (``stacked``, ``buffers``).
Everything here is a pure function over immutable values.  Forms,
primitives and Hamiltonians come from JSON descriptors through ``build``:
a kind's constructor signature is its one field table; one that holds a
matrix builds its ``matvec`` in ``__init__``, so no call reads it again.

Every grid consumer takes its base points from ``q_lattice`` on the axes
``read_axes`` picks, its product grid from ``grid_points``, and reads the
profile through ``profile_values``, the one positive-and-finite check.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Sequence

import numpy as np

from .algebra import AlgebraError, as_matrix, is_int, is_real, mat_inverse, mat_transpose

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Invalid geometric data (a bad form, grid or dimension)."""


def metric_matrix(g, error: type[Exception] = GeometryError) -> np.ndarray:
    """g as a float matrix; raises ``error`` unless it is a square, symmetric,
    positive-definite matrix of finite numbers."""
    cells = np.asarray(g, dtype=object)
    if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
        raise error("metric must be a square matrix")
    if not all(is_real(c) for c in cells.flat):
        raise error(f"metric entries must be finite numbers, got {g!r}")
    g = cells.astype(float)
    if not np.allclose(g, g.T):
        raise error("metric must be symmetric")
    if np.min(np.linalg.eigvalsh(g)) <= 1e-10:
        raise error("metric must be positive definite")
    return g


# ---------------------------------------------------------------------------
# Stacked states and component arithmetic
# ---------------------------------------------------------------------------

def stacked(rows):
    """(N,) rows (arrays or floats) as a fresh (k, N) array of their common
    dtype: float, or complex when a row is complex."""
    return np.array(np.broadcast_arrays(*rows), dtype=np.result_type(float, *rows))


def buffers(x, count: int) -> list:
    """``count`` arrays shaped and typed like x, carved from one block filled with -0.0."""
    return list(np.full((count,) + x.shape, -0.0, dtype=x.dtype))


def matvec(m):
    """v -> m @ v for a list v of components (floats, real or complex
    arrays, or anything numpy's arithmetic takes); m is read here.

    Zero coefficients are skipped, 1 is not multiplied and rows are summed
    left to right from their first term: the bits of the written-out product.
    A row holding one 1 returns that component itself, not to be changed;
    an empty row gives 0.0.
    """
    rows = [[(j, None if c == 1.0 else c) for j, c in enumerate(row) if c != 0.0]
            for row in np.asarray(m, dtype=float).tolist()]
    return lambda v: [jsum([v[j] if c is None else c * v[j] for j, c in row]) if row else 0.0
                      for row in rows]


def jsum(terms: list):
    """Left-to-right sum of a nonempty list, from its first term (no 0 +)."""
    return sum(terms[1:], terms[0])


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class Described:
    """A value built from a JSON descriptor: its fields are its positional
    constructor parameters, kept as attributes, but for those in ``fixed``."""

    kind: str
    fixed: tuple = ()

    def describe(self) -> dict:
        names = [name for name in descriptor_fields(type(self)) if name not in self.fixed]
        return {"kind": self.kind, **{name: plain(getattr(self, name)) for name in names}}


@functools.cache
def parameters(cls):
    return inspect.signature(cls).parameters


def descriptor_fields(cls) -> list:
    """The descriptor fields of a class: its positional constructor parameters."""
    return [name for name, p in parameters(cls).items() if p.kind is p.POSITIONAL_OR_KEYWORD]


def plain(value):
    """A field value as JSON data: arrays and tuples become lists, a
    described object its ``describe()``, a dataclass (``TrigTerm``) its dict."""
    if isinstance(value, Described):
        return value.describe()
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def build(spec, kinds: dict, what: str, error: type[Exception], **context):
    """The object a descriptor names; ``kinds[kind]`` is (class, fixed args).
    An absent or keyword-only parameter takes ``context`` (the config's ``n``),
    else its default; an unknown key or missing field raises ``error``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise error(f"unknown {what} kind {kind!r}")
    cls, fixed = kinds[kind]
    for key in spec:
        if key != "kind" and (key not in descriptor_fields(cls) or key in fixed):
            raise error(f"{kind}: unknown key {key!r}")
    args = {k: spec.get(k, context.get(k, p.default)) for k, p in parameters(cls).items()}
    args.update(fixed)
    missing = [name for name, value in args.items() if value is inspect.Parameter.empty]
    if missing:
        raise error(f"{kind} needs a {missing[0]!r} parameter")
    return cls(**args)


def build_at(place: str, spec, kinds: dict, what: str, error: type[Exception], **context):
    """``build`` for a descriptor held in a field of another; an error it
    raises starts with ``place`` (``base``, ``terms[1]``, ...)."""
    try:
        return build(spec, kinds, what, error, **context)
    except (error, ValueError) as exc:
        raise error(f"{place}: {exc}") from None


# ---------------------------------------------------------------------------
# Contact forms
# ---------------------------------------------------------------------------

class ContactForm(Described):
    """Positive profile multiplying the round contact form.

    Subclasses implement ``profile(u, q)`` where ``u`` and ``q`` are sequences
    of components written in plain numpy arithmetic; the result must be positive everywhere and
    periodic in the base and fiber variables.  ``n`` is the torus dimension
    the form is tied to, or None when it fits both.

    ``q_free`` declares that the profile reads only u, never q.  It stays
    False unless that holds provably for every input; ``read_axes`` relies on
    it to have every grid consumer read a single base point.
    """

    n: int | None = None
    q_free = False

    def profile(self, u, q):
        raise NotImplementedError


class RoundForm(ContactForm):
    """The round form: profile identically 1."""

    kind = "round"
    q_free = True

    def profile(self, u, q):
        return 1.0


class ConstantForm(ContactForm):
    kind = "constant"
    q_free = True

    def __init__(self, value: float):
        if not (is_real(value) and value > 0.0):
            raise GeometryError(f"constant value must be a positive finite number, got {value!r}")
        self.value = float(value)

    def profile(self, u, q):
        return self.value


@dataclass(frozen=True)
class TrigTerm:
    """amp * u^powers * cos(2 pi k.q)  (sin when use_sin is set)."""

    amp: float
    q_freq: tuple[int, ...]
    u_powers: tuple[int, ...] = ()
    use_sin: bool = False

    def __post_init__(self):
        if not is_real(self.amp):
            raise GeometryError(f"trig amp must be a finite number, got {self.amp!r}")
        if not isinstance(self.use_sin, bool):
            raise GeometryError(f"trig use_sin must be true or false, got {self.use_sin!r}")
        for name, low in (("q_freq", None), ("u_powers", 0)):
            ks = getattr(self, name)
            if not (isinstance(ks, (list, tuple)) and len(ks) <= 3
                    and all(is_int(k) and (low is None or k >= low) for k in ks)):
                need = "integers" if low is None else "non-negative integers"
                raise GeometryError(f"trig {name} must be at most 3 {need}, got {ks!r}")
            object.__setattr__(self, name, tuple(ks))


class TrigForm(ContactForm):
    """Constant plus a trigonometric polynomial in q and the fiber direction.

    Fiber dependence enters through monomials in the components of u, which
    keeps the profile automatically periodic in the fiber angle.  A term
    with a frequency or power vector of length 3 ties the form to n = 3.
    ``terms`` holds TrigTerms or their dicts (TrigTerm's fields, no kind).
    """

    kind = "trig"

    def __init__(self, c0: float = 1.0, terms: Sequence = ()):
        if not is_real(c0):
            raise GeometryError(f"trig c0 must be a finite number, got {c0!r}")
        if not isinstance(terms, (list, tuple)):
            raise GeometryError(f"trig terms must be a list, got {terms!r}")
        self.c0 = float(c0)
        self.terms = tuple(t if isinstance(t, TrigTerm) else build_at(
            f"terms[{i}]", {"kind": "term", **t} if isinstance(t, dict) else t,
            {"term": (TrigTerm, {})}, "term", GeometryError,
        ) for i, t in enumerate(terms))
        if any(len(t.q_freq) == 3 or len(t.u_powers) == 3 for t in self.terms):
            self.n = 3
        self.q_free = not any(k for t in self.terms for k in t.q_freq)

    def profile(self, u, q):
        total = self.c0
        for t in self.terms:
            phase = 0.0
            for k, qi in zip(t.q_freq, q):
                if k:
                    phase = phase + (TWO_PI * k) * qi
            osc = np.sin(phase) if t.use_sin else np.cos(phase)
            term = t.amp * osc
            for pw, ui in zip(t.u_powers, u):
                for _ in range(pw):
                    term = term * ui
            total = total + term
        return total


class MetricForm(ContactForm):
    """Profile of the unit codisk bundle of a flat metric G.

    The defining hypersurface is the unit cosphere of G, so the radius in
    direction u is 1/sqrt(u . G^{-1} u); the profile does not depend on q.
    """

    kind = "metric"
    q_free = True

    def __init__(self, g: np.ndarray):
        self.g = metric_matrix(g)
        self.n = self.g.shape[0]
        self._g_inv = matvec(np.linalg.inv(self.g))

    def profile(self, u, q):
        w = self._g_inv(u)
        return 1.0 / np.sqrt(jsum([ui * wi for ui, wi in zip(u, w)]))


class PullbackForm(ContactForm):
    """The base form pulled back by the canonical lift of q -> Mq.

    The lifted symplectomorphism sends (p, q) to (M^{-T} p, Mq), so the
    pulled-back profile is F(w/|w|, Mq)/|w| with w = M^{-T} u; ``base`` may be a descriptor.
    """

    kind = "linear_pullback"

    def __init__(self, matrix, base):
        m = as_matrix(matrix)
        try:
            self._m_inv_t = matvec(mat_transpose(mat_inverse(m)))
        except AlgebraError as exc:
            raise GeometryError("lift matrix must be unimodular") from exc
        self.matrix = np.array(m, dtype=int)
        self._m = matvec(self.matrix)
        self.base = base if isinstance(base, ContactForm) else build_at(
            "base", base, FORMS, "form", GeometryError
        )
        self.n = len(m)
        self.q_free = self.base.q_free

    def profile(self, u, q):
        w = self._m_inv_t(u)
        norm = np.sqrt(jsum([wi * wi for wi in w]))
        return self.base.profile([wi / norm for wi in w], self._m(q)) / norm


# Form kind -> (class, fixed arguments); ``describe()`` of a form round-trips.
FORMS = {cls.kind: (cls, {}) for cls in (RoundForm, ConstantForm, TrigForm, MetricForm, PullbackForm)}


def build_form(spec: dict) -> ContactForm:
    return build(spec, FORMS, "form", GeometryError)


def profile_values(form: ContactForm, u, q, error: type[Exception] = GeometryError):
    """The form's profile at (n, ...) component arrays u and q, as a float
    array (0-d when the profile is constant); raises ``error`` unless every
    value is positive and finite."""
    prof = np.asarray(form.profile(list(u), list(q)), dtype=float)
    low, high = float(prof.min()), float(prof.max())
    if not (low > 0.0 and math.isfinite(high)):
        raise error(
            f"profile of the {form.kind} form is not positive and finite "
            f"(sampled min {low}, max {high})"
        )
    return prof


def read_axes(form: ContactForm, axes) -> frozenset:
    """The base axes among ``axes`` on which the profile is read: none when
    the form is q-free, since then one base point gives every value."""
    return frozenset() if form.q_free else frozenset(axes)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def sphere_grid_array(n: int, resolution: int) -> np.ndarray:
    """(resolution, n) array of unit fiber directions."""
    if resolution < 4:
        raise GeometryError("resolution must be at least 4")
    if n == 2:
        theta = np.arange(resolution) / resolution
        return np.stack([np.cos(TWO_PI * theta), np.sin(TWO_PI * theta)], axis=1)
    if n == 3:
        i = np.arange(resolution)
        z = 1.0 - (2.0 * i + 1.0) / resolution
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise GeometryError(f"unsupported dimension {n}")


def q_lattice(n: int, res: int, axes=None) -> np.ndarray:
    """Integer indices (n, M) of the rows of the res**n base lattice that are
    0 off ``axes`` (every axis by default), last axis fastest; the base
    points are the indices divided by res."""
    axes = sorted(range(n) if axes is None else axes)
    idx = np.zeros((n, res ** len(axes)), dtype=int)
    if axes:
        idx[axes] = np.indices((res,) * len(axes)).reshape(len(axes), -1)
    return idx


def grid_points(dirs: np.ndarray, qs: np.ndarray):
    """Product of (D, n) fiber directions and (n, M) base points as (n, D*M)
    u and q component arrays, direction-major."""
    return np.repeat(dirs.T, qs.shape[1], axis=1), np.tile(qs, (1, dirs.shape[0]))


# ---------------------------------------------------------------------------
# Tangent frames
# ---------------------------------------------------------------------------

def tangent_frame(u: np.ndarray) -> np.ndarray:
    """Orthonormal frames of T_u S^{n-1} + R^n at (n, N) unit directions u.

    Returns a (2n, 2n - 1, N) array: row i is ambient component i of
    (du, dq), column j is frame vector j.  The first n - 1 columns span
    u-perp in the fiber, the last n are the base axes.  For n = 3 the fiber
    pair is the branchless basis of Duff et al. (JCGT 6(1), 2017).
    """
    n, npts = u.shape
    frame = np.zeros((2 * n, 2 * n - 1, npts))
    if n == 2:
        frame[0, 0], frame[1, 0] = -u[1], u[0]
    else:
        x, y, z = u
        sign = np.copysign(1.0, z)
        a = -1.0 / (sign + z)
        b = x * y * a
        frame[:3, 0] = 1.0 + sign * x * x * a, sign * b, -sign * x
        frame[:3, 1] = b, sign + y * y * a, -y
    frame[n:, n - 1:] = np.eye(n)[:, :, None]
    return frame
