"""Span tracing from outside the library, and the per-layer metrics it gives.

Spans wrap public callables of contactlab. Each name is patched where its
caller resolves it: a function is replaced in every contactlab module that
binds it (``dissipation`` binds ``conformal_factor_batch`` by name, ``report``
reads ``dissipation.r_sequence`` as a module attribute), and a method is
replaced on each class that defines it. A name that no longer exists is
skipped, so its metrics read 0 instead of failing the run.

Spans are kept in memory as ``[name, start, end, parent, op, points, info]``
and written out as JSON lines when the benchmark ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# Callers outside contactlab.algebra use these names (see report, dissipation,
# maps and shapes); internal helpers are left unwrapped to keep tracing cheap.
ALGEBRA_FUNCS = (
    "a_block", "abelian_bar_s", "as_matrix", "cyclic_reduce", "determinant",
    "free_growth", "growth_slope", "identity_matrix", "is_periodic",
    "mat_inverse", "mat_mul", "mat_transpose", "mat_vec", "parse_word",
    "s_value",
)
SHAPES_FUNCS = (
    "act", "ball", "delta", "displacement_estimate", "duality_check",
    "flat_shape", "stable_norm",
)
GRID_FUNCS = (
    ("contactlab.dissipation", "grid_points"),
    ("contactlab.shapes", "q_lattice"),
    ("contactlab.shapes", "direction_grid"),
)


def _batch_points(arr_index):
    def points(args, kwargs):
        return int(np.shape(args[arr_index])[1])
    return points


def _profile_points(args, kwargs):
    u, q = args[1], args[2]
    shape = np.broadcast_shapes(
        np.shape(getattr(u[0], "value", u[0])), np.shape(getattr(q[0], "value", q[0]))
    )
    return int(np.prod(shape, dtype=np.int64))


def _apply_batch_info(args, kwargs):
    # Orbit state held by one step: the (n, N) u and q arrays in and their
    # images out; computed from array sizes, not measured.
    return 2 * (args[1].nbytes + args[2].nbytes)


def _r_sequence_info(args, kwargs):
    return int(kwargs["K"] if "K" in kwargs else args[2])


def _extract(fn, args, kwargs):
    """A count read off the call's arguments; 0 when the signature no longer fits."""
    if fn is None:
        return 0
    try:
        return fn(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return 0


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _enter(self, name, points=0, info=0) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op_id, points, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, points=0, info=0):
        s = self._enter(name, points, info)
        try:
            yield s
        finally:
            self._exit(s)

    def _wrapper(self, name, fn, points=None, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._enter(name, _extract(points, args, kwargs), _extract(info, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(s)

        return traced

    # -- patching ---------------------------------------------------------
    def _patch_function(self, module_name, attr, name, points=None, info=None):
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None) if module else None
        if fn is None:
            return
        wrapped = self._wrapper(name, fn, points, info)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "contactlab" or mod_name.startswith("contactlab."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, points=None, info=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(name, fn, points, info))

    def _patch_subclasses(self, module_name, base_name, attr, name, points=None):
        base = getattr(sys.modules.get(module_name), base_name, None)
        if base is None:
            return
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            self._patch_method(cls, attr, name, points)

    def install(self):
        """Wrap every traced callable; contactlab must already be imported."""
        for module_name, attr in GRID_FUNCS:
            self._patch_function(module_name, attr, "geometry.grid")
        self._patch_subclasses(
            "contactlab.geometry", "ContactForm", "profile", "geometry.profile",
            _profile_points,
        )
        self._patch_subclasses("contactlab.maps", "Primitive", "transform", "maps.transform")
        self._patch_subclasses(
            "contactlab.maps", "Hamiltonian", "gradients", "maps.hamiltonian"
        )
        contact_map = getattr(sys.modules.get("contactlab.maps"), "ContactMap", None)
        if contact_map is not None:
            self._patch_method(
                contact_map, "apply_batch", "maps.apply_batch",
                _batch_points(1), _apply_batch_info,
            )
        self._patch_function(
            "contactlab.dissipation", "conformal_factor_batch",
            "maps.conformal_factor_batch", _batch_points(2),
        )
        self._patch_function(
            "contactlab.dissipation", "chart_jacobian_batch",
            "maps.chart_jacobian_batch", _batch_points(1),
        )
        self._patch_function(
            "contactlab.dissipation", "r_sequence", "dissipation.r_sequence",
            info=_r_sequence_info,
        )
        self._patch_function(
            "contactlab.dissipation", "lyapunov_estimate", "dissipation.lyapunov"
        )
        for attr in ("chi_estimate", "classify", "verify_bound"):
            self._patch_function("contactlab.dissipation", attr, "dissipation.estimate")
        for attr in ALGEBRA_FUNCS:
            self._patch_function("contactlab.algebra", attr, f"algebra.{attr}")
        free_aut = getattr(sys.modules.get("contactlab.algebra"), "FreeAutomorphism", None)
        if free_aut is not None:
            self._patch_method(free_aut, "apply", "algebra.FreeAutomorphism.apply")
        for attr in SHAPES_FUNCS:
            self._patch_function("contactlab.shapes", attr, f"shapes.{attr}")
        self._patch_function("contactlab.report", "load_config", "report.load_config")
        self._patch_function("contactlab.report", "run", "report.run")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _orbit_ancestor(spans, i):
    """Nearest dissipation span above span i, or None if an apply_batch
    sits in between (then span i is not an orbit step of its own)."""
    p = spans[i][3]
    while p >= 0:
        name = spans[p][0]
        if name == "maps.apply_batch":
            return None
        if name in ("dissipation.r_sequence", "dissipation.lyapunov"):
            return name
        p = spans[p][3]
    return None


def layer_totals(spans, op_ids, names) -> dict[str, float]:
    """Sums over the spans of the given ops (setup has op -1) of the per-layer
    metrics in ``names``, plus ``bench.op.self_s`` and the span count."""
    selected = set(op_ids)
    own = self_times(spans)
    tot = dict.fromkeys(names, 0.0)
    tot["bench.op.self_s"] = 0.0
    tot["spans"] = 0
    r_seq_wall = r_seq_k = 0.0
    for i, s in enumerate(spans):
        if s[4] not in selected:
            continue
        tot["spans"] += 1
        name, points = s[0], s[5]
        layer = name.split(".", 1)[0]
        if layer in ("algebra", "shapes"):
            tot[f"{layer}.calls"] += 1
            tot[f"{layer}.self_s"] += own[i]
            if name == "shapes.act":
                tot["shapes.act.self_s"] += own[i]
            continue
        if f"{name}.calls" in tot:
            tot[f"{name}.calls"] += 1
        if f"{name}.points" in tot:
            tot[f"{name}.points"] += points
        if f"{name}.self_s" in tot:
            tot[f"{name}.self_s"] += own[i]
        if name == "dissipation.r_sequence":
            r_seq_wall += s[2] - s[1]
            r_seq_k += s[6]
        elif name == "maps.apply_batch":
            owner = _orbit_ancestor(spans, i)
            if owner:
                tot[f"{owner}.point_steps"] += points
            if owner == "dissipation.r_sequence":
                tot["dissipation.state_bytes"] = max(tot["dissipation.state_bytes"], s[6])
    tot["dissipation.step_s"] = r_seq_wall / r_seq_k if r_seq_k else 0.0
    return tot
