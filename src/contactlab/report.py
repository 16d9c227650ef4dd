"""Configuration-driven experiment runner producing reproducible artifacts.

A config is a JSON document declaring a dimension, a contact form, a map as a
list of primitive descriptors, and an ordered task list.  Runs are
deterministic given the config: sampled classes come from one
``random.Random(seed)`` per run, whose ``random()`` sequence Python keeps for
a given seed, so every emitted number is reproducible from the config alone.

Validation builds the form, each primitive and each task: a ``Task`` subclass
registered in ``TASKS``, which is all a new task needs.  Every ``run`` of a
config uses its form and map, so a map's inverse and cohomology invariants
(``ContactMap.cohomology_block`` and the rest) are computed once per config,
on first use, never by validation.  Within a run, the ``r_sequence`` and
``verify_bound`` tasks read one r_k series, chi fit and verdict per K
(``RunContext.series``); each task's wall seconds go under ``provenance.timestamp.tasks``.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, algebra, dissipation, geometry, shapes
from .algebra import is_int, is_real
from .dissipation import GridSpec, Thresholds
from .geometry import ContactForm, Described, build, build_form, metric_matrix
from .maps import ContactMap, MapError, build_primitive, make_composite

# Known config keys; a task knows its own (its constructor parameters).
CONFIG_KEYS = "dimension seed form map tasks grid lyapunov_grid thresholds conservative out_dir"

# What building a form, primitive or task object can raise on a bad JSON value.
SPEC_ERRORS = (ArithmeticError, AttributeError, LookupError, MapError, TypeError, ValueError)


class ConfigError(ValueError):
    """Invalid experiment config; carries the full list of problems found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class TaskError(RuntimeError):
    """A task failed at run time; carries the task id for context."""

    def __init__(self, task_id: str, cause: Exception):
        self.task_id = task_id
        self.cause = cause
        super().__init__(f"task {task_id!r} failed: {cause}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    seed: int
    form_spec: dict
    map_spec: list
    tasks: list  # Task objects built by validate_config; ``raw`` keeps the input
    conservative: bool = False
    grid: GridSpec | None = None
    lyap_grid: GridSpec | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    out_dir: str = "out"
    raw: dict = field(default_factory=dict)
    form: ContactForm | None = field(default=None, compare=False, repr=False)
    contact_map: ContactMap | None = field(default=None, compare=False, repr=False)


def _parse_grid(data, errors, label) -> GridSpec | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        errors.append(f"{label}: must be an object with q_res and fiber_res")
        return None
    errors.extend(f"{label}: unknown key {k!r}" for k in data if k not in ("q_res", "fiber_res"))
    q_res, fiber_res = data.get("q_res", 0), data.get("fiber_res", 0)
    if not (is_int(q_res) and is_int(fiber_res) and q_res > 0 and fiber_res >= 4):
        errors.append(f"{label}: q_res must be a positive integer and fiber_res an integer >= 4, "
                      f"got q_res={q_res!r}, fiber_res={fiber_res!r}")
        return None
    return GridSpec(int(q_res), int(fiber_res))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, reporting every problem found."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    if path.is_dir():
        raise ConfigError([f"config path is a directory: {path}"])
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file is not UTF-8 text: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"])
    return validate_config(data)


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError([f"config must be a JSON object, got {type(data).__name__}"])
    errors: list[str] = []
    errors.extend(f"config: unknown key {k!r}" for k in data if k not in CONFIG_KEYS.split())
    n = data.get("dimension", 2)
    if not (is_int(n) and n in (2, 3)):
        errors.append(f"dimension must be 2 or 3, got {n!r}")
        n = 2
    n = int(n)

    grid_errors = len(errors)
    grid = _parse_grid(data.get("grid"), errors, "grid")
    sampled = None if len(errors) > grid_errors else grid or dissipation.default_grid(n)
    lyap_grid = _parse_grid(data.get("lyapunov_grid"), errors, "lyapunov_grid")

    form_spec = data.get("form", {"kind": "round"})
    try:
        form = build_form(form_spec)
        if form.n not in (None, n):
            errors.append(f"form: dimension {form.n} does not match configured {n}")
        elif sampled is not None:  # the points r_sequence reads at step 0
            if not _fits(n, sampled.fiber_res, sampled.q_res, geometry.read_axes(form, range(n))):
                raise MemoryError  # refused by its size, before the form is read
            shapes.flat_shape(form, n, sampled.q_res).rho(
                geometry.sphere_grid_array(n, sampled.fiber_res))
    except SPEC_ERRORS as exc:
        errors.append(f"form: {exc}")
    except MemoryError:
        errors.append("grid: too many points to sample in memory")

    map_spec = data.get("map", [])
    if not isinstance(map_spec, list):
        errors.append("map: must be a list of primitive descriptors")
        map_spec = []
    prims = []
    for i, prim_spec in enumerate(map_spec):
        try:
            prims.append(build_primitive(prim_spec, n))
        except SPEC_ERRORS as exc:
            errors.append(f"map[{i}]: {exc}")
            continue
        if prims[-1].n != n:
            errors.append(f"map[{i}]: primitive has dimension {prims[-1].n}, config declares {n}")

    tasks = data.get("tasks", [])
    if not isinstance(tasks, list) or not tasks:
        errors.append("tasks: need a non-empty list of tasks")
        tasks = []
    built = []
    for i, spec in enumerate(tasks):
        try:
            built.append(build_task(spec, n))
        except FieldError as exc:
            errors.append(f"tasks[{i}]: {exc}")

    thr = data.get("thresholds", {})
    if not isinstance(thr, dict):
        errors.append("thresholds: must be an object")
        thr = {}
    values = {fld.name: thr.get(fld.name, fld.default) for fld in fields(Thresholds)}
    errors.extend(f"thresholds: unknown key {k!r}" for k in thr if k not in values)
    errors.extend(f"thresholds.{k}: must be a finite number, got {v!r}"
                  for k, v in values.items() if not is_real(v))

    seed = data.get("seed", 0)
    if not (is_int(seed) and seed >= 0):
        errors.append(f"seed: must be a non-negative integer, got {seed!r}")
    out_dir = data.get("out_dir", "out")
    if not (isinstance(out_dir, str) and out_dir and "\0" not in out_dir):
        errors.append(f"out_dir: must be a non-empty path string, got {out_dir!r}")
    conservative = data.get("conservative", False)
    if not isinstance(conservative, bool):
        errors.append(f"conservative: must be true or false, got {conservative!r}")

    if errors:
        raise ConfigError(errors)
    config = ExperimentConfig(
        n=n, seed=int(seed), form_spec=form_spec, map_spec=map_spec, tasks=built,
        conservative=conservative, grid=grid, lyap_grid=lyap_grid, out_dir=out_dir, raw=data,
        thresholds=Thresholds(**{k: float(v) for k, v in values.items()}),
        form=form, contact_map=make_composite(prims, n=n),
    )
    if any(isinstance(task, Lyapunov) for task in built):
        lyap = config.lyap_grid or dissipation.default_lyapunov_grid(n)
        rows = frozenset(range(n)) - config.contact_map.base_action[1]  # as orbit_starts reads
        if not _fits(n, lyap.fiber_res, lyap.q_res, rows):
            raise ConfigError(["lyapunov_grid: too many points to sample in memory"])
    errors = [f"tasks[{i}]: {task.kind} grid: too many points to sample in memory"
              for i, task in enumerate(built) if not _fits(*task.grid(config.form))]
    if errors:
        raise ConfigError(errors)
    return config


def _fits(n: int, dirs: int, q_res: int = 1, axes=()) -> bool:
    """Whether numpy allocates the (n, N) u and q arrays of the grid of dirs
    directions times the q_res lattice on ``axes``.  ``np.empty`` touches no
    pages; past numpy's index range it raises ValueError, not MemoryError."""
    try:
        np.empty((2, n, dirs * q_res ** len(axes)))
    except (MemoryError, ValueError):
        return False
    return True


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

class FieldError(Exception):
    """A bad task entry; the message names the task and the key or field."""


class Task(Described):
    """A runner task: its fields are its positional constructor parameters, defaults
    included, and a keyword-only ``n`` takes the config's dimension.  ``__init__`` checks
    the fields and builds the task's objects, ``grid`` gives the grid it samples, and
    ``run(context, artifact)`` returns its result and writes its file at ``artifact`` + suffix."""

    dim = dir_res = 0  # a task that samples dir_res directions in dimension dim sets them

    def __getitem__(self, key):
        # perfbench/workloads.py reads a task's name and K by subscript; this
        # serves it until the benchmark reads attributes.
        return self.kind if key == "task" else getattr(self, key)

    def integer(self, name: str, value, low: int) -> int:
        """An integer of at least ``low``: the guard of the function the task calls."""
        if not (is_int(value) and value >= low):
            raise FieldError(f"{self.kind} {name} must be an integer >= {low}, got {value!r}")
        return int(value)

    def grid(self, form: ContactForm) -> tuple:
        """The grid ``run`` samples, as ``_fits`` reads it."""
        return self.dim, shapes.direction_count(self.dim, self.dir_res)


class RSequence(Task):
    kind = "r_sequence"

    def __init__(self, K: int = 30):
        self.K = self.integer("K", K, 8)

    def run(self, context, artifact):
        r, est, verdict = context.series(self.K)
        rows = [[k + 1, float(v)] for k, v in enumerate(r)]
        _write_csv(artifact.with_suffix(".csv"), ["k", "r_k"], rows)
        return {"K": self.K, "r_series": [v for _, v in rows], "chi_hat": est.chi_hat,
                "chi_last": est.chi_last, "verdict": verdict, "series": rows}


class Lyapunov(Task):
    kind = "lyapunov"

    def __init__(self, K: int = 20):
        self.K = self.integer("K", K, 8)

    def run(self, context, artifact):
        value = dissipation.lyapunov_estimate(context.f, self.K, context.lyap_grid)
        return {"K": self.K, "lyap_hat": value}


class Homology(Task):
    kind = "homology"

    def run(self, context, artifact):
        f = context.f
        periodic, order = f.periodicity
        res = {"matrix": [list(r) for r in f.homology_matrix], "s_value": f.s_value,
               "periodic": periodic, "order": order, **dissipation.block_fields(f)}
        if f.n == 2:
            res["a_block_s_value"] = f.block_s_value
        return res


class Shape(Task):
    kind = "shape"

    def __init__(self, q_res: int = 64, dir_res: int | None = None, *, n: int):
        self.q_res, self.dim = self.integer("q_res", q_res, 1), n
        self.dir_res = None if dir_res is None else self.integer("dir_res", dir_res, 4)

    def grid(self, form):
        return *super().grid(form), self.q_res, geometry.read_axes(form, range(self.dim))

    def run(self, context, artifact):
        dirs = shapes.direction_grid(self.dim, self.dir_res)
        rho = shapes.flat_shape(context.form, self.dim, self.q_res).rho(dirs)
        header = [f"u{i+1}" for i in range(self.dim)] + ["rho"]
        rows = [d + [r] for d, r in zip(dirs.tolist(), rho.tolist())]
        _write_csv(artifact.with_suffix(".csv"), header, rows)
        return {"directions": len(rho), "rho_min": float(rho.min()), "rho_max": float(rho.max())}


class Displacement(Task):
    kind = "displacement"

    def __init__(self, k_max: int = 20, dir_res: int | None = None, matrix=None, *, n: int):
        self.k_max = self.integer("k_max", k_max, 8)
        self.dir_res = None if dir_res is None else self.integer("dir_res", dir_res, 4)
        self.matrix = None if matrix is None else algebra.as_matrix(matrix)
        if matrix is not None:
            if len(self.matrix) not in (2, 3):
                raise ValueError("matrix must be 2x2 or 3x3")
            algebra.mat_inverse(self.matrix)  # shapes.act inverts it
        self.dim = len(self.matrix or range(n))  # the map's block is n x n

    def run(self, context, artifact):
        i_mat = self.matrix or context.f.cohomology_block[0]
        dirs = shapes.direction_grid(self.dim, self.dir_res)
        deltas = shapes.displacement_series(i_mat, shapes.ball(self.dim), self.k_max, dirs)
        series = [[k + 1, float(d)] for k, d in enumerate(deltas)]
        _write_csv(artifact.with_suffix(".csv"), ["k", "delta_k"], series)
        return {"matrix": [list(r) for r in i_mat], "k_max": self.k_max,
                "displacement": max(algebra.growth_slope(deltas), 0.0), "series": series}


class Growth(Task):
    """Length growth; ``lengths(context)`` gives the result's fields and the lengths."""

    kind = "growth"

    def run(self, context, artifact):
        res, lengths = self.lengths(context)
        series = [[step, x, math.log(x)] for step, x in enumerate(lengths)]
        _write_csv(artifact.with_suffix(".csv"), ["n", "length", "log_length"], series)
        return {"mode": self.mode, **res, "series": [[row[0], row[2]] for row in series]}


class AbelianGrowth(Growth):
    def __init__(self, N: int = 40, matrix=None, classes=None, mode: str = "abelian", *, n: int):
        self.N, self.mode = self.integer("N", N, 10), mode
        self.matrix = None if matrix is None else algebra.as_matrix(matrix)
        if matrix is not None:  # as the map's block is; a singular one sends a class to 0
            algebra.mat_inverse(self.matrix)
        self.classes = _parse_classes(classes, len(self.matrix or range(n)))

    def lengths(self, context):
        i_mat = self.matrix or context.f.cohomology_block[0]
        classes = self.classes or _sampled_classes(len(i_mat), 5, context.rng)
        per_class = [algebra.abelian_lengths(i_mat, g, self.N) for g in classes]
        rate = algebra.length_growth_rate(*per_class)
        return {"rate": rate, "classes": [list(g) for g in classes]}, per_class[0]


class FreeGrowth(Growth):
    def __init__(self, rules, word, N: int = 40, cap: int = 10**6, mode: str = "free"):
        self.N, self.cap, self.mode = self.integer("N", N, 5), self.integer("cap", cap, 1), mode
        self.rules, self.word = algebra.FreeAutomorphism.from_strings(rules), algebra.parse_word(word)
        self.rules.encode(self.word)  # raises if a generator has no rule
        if not algebra.cyclic_reduce(self.word):
            raise ValueError(f"word {word!r} reduces to the empty word (trivial class)")

    def lengths(self, context):
        lengths = algebra.free_lengths(self.rules, self.word, self.N, self.cap)
        return {"rate": algebra.length_growth_rate(lengths)}, lengths


class Duality(Task):
    kind = "duality"

    def __init__(self, metric, classes=None, dir_res: int | None = None):
        self.dir_res = None if dir_res is None else self.integer("dir_res", dir_res, 4)
        self.metric = metric_matrix(metric)
        self.dim = len(self.metric)
        if self.dim not in (2, 3):
            raise ValueError("metric must be 2x2 or 3x3")
        self.classes = _parse_classes(classes, self.dim)

    def run(self, context, artifact):
        classes = self.classes or _sampled_classes(self.dim, 8, context.rng)
        dirs = shapes.direction_grid(self.dim, self.dir_res)
        res = shapes.duality_check(self.metric, classes, dirs)
        _write_json(artifact.with_suffix(".json"), res)
        return res


class VerifyBound(Task):
    kind = "verify_bound"

    def __init__(self, K: int = 30, tol: float = 0.05):
        self.K = self.integer("K", K, 8)
        if not is_real(tol):
            raise FieldError(f"verify_bound tol must be a finite number, got {tol!r}")
        self.tol = float(tol)

    def run(self, context, artifact):
        _, est, verdict = context.series(self.K)
        return dissipation.verify_bound(context.f, est, verdict, context.conservative, self.tol)


# Task name -> (class, fixed arguments) for ``geometry.build``; growth's ``mode`` picks its class.
GROWTH = {"abelian": (AbelianGrowth, {}), "free": (FreeGrowth, {})}
TASKS = {cls.kind: GROWTH if cls is Growth else (cls, {})
         for cls in (RSequence, Lyapunov, Homology, Shape, Displacement, Growth, Duality, VerifyBound)}
TASK_NAMES = tuple(TASKS)


def build_task(spec, n: int) -> Task:
    """The task a config entry names, in dimension n; an error building its objects names it."""
    kinds = TASKS
    if isinstance(spec, dict) and spec.get("task") == "growth":
        mode = spec.get("mode", "abelian")
        if not (isinstance(mode, str) and mode in GROWTH):
            raise FieldError(f"growth mode must be one of {', '.join(GROWTH)}, got {mode!r}")
        kinds = {"growth": GROWTH[mode]}
    try:
        return build(spec, kinds, "task", FieldError, key="task", n=n)
    except SPEC_ERRORS as exc:
        raise FieldError(f"{spec['task']}: {exc}") from None


def _parse_classes(value, k: int):
    """Integer classes of length k, or None to have the runner sample them."""
    if value is None:
        return None
    classes = [algebra.as_ints(g, "class entries") for g in value]
    if any(len(g) != k for g in classes):
        raise ValueError(f"classes must have length {k}")
    if not all(any(g) for g in classes):
        raise ValueError("classes must be nonzero (a zero class is trivial)")
    return classes


def _sampled_classes(k: int, count: int, rng: random.Random):
    """``count`` nonzero classes of length k, entries uniform on -3..3, row by row."""
    classes = [tuple(int(7 * rng.random()) - 3 for _ in range(k)) for _ in range(count)]
    return [g if any(g) else (1,) + (0,) * (k - 1) for g in classes]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class RunContext:
    """What a run's tasks read: the config's map ``f``, ``form`` and ``conservative``,
    its grids refined for the run, the run's one ``random.Random``, and ``series(K)``:
    the map's r_k series, chi fit and verdict under the config's thresholds, once per K."""

    def __init__(self, config: ExperimentConfig, refine: int):
        self.f, self.form, self.conservative = config.contact_map, config.form, config.conservative
        self.thresholds, self.rng, self.memo = config.thresholds, random.Random(config.seed), {}
        self.grid = (config.grid or dissipation.default_grid(config.n)).refined(refine)
        lyap_grid = config.lyap_grid or dissipation.default_lyapunov_grid(config.n)
        self.lyap_grid = lyap_grid.refined(refine)

    def series(self, K: int) -> tuple:
        if K not in self.memo:
            r = dissipation.r_sequence(self.f, self.form, K, self.grid)
            est = dissipation.chi_estimate(r)
            self.memo[K] = r, est, dissipation.classify(r, est, self.thresholds)
        return self.memo[K]


def run(config: ExperimentConfig, out_dir=None, refine: int = 1) -> dict:
    """Execute the task list in order and write CSV/JSON artifacts.

    Returns the aggregate report document; its "all_checks_pass" field drives
    the CLI exit status.
    """
    started = time.perf_counter()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    context = RunContext(config, refine)

    results, seconds = {}, {}
    for i, task in enumerate(config.tasks):
        task_id = task.kind if task.kind not in results else f"{task.kind}_{i}"
        task_started = time.perf_counter()
        try:
            results[task_id] = task.run(context, out / task_id)
        except Exception as exc:
            raise TaskError(task_id, exc) from exc
        seconds[task_id] = time.perf_counter() - task_started

    grid = {"q_res": context.grid.q_res, "fiber_res": context.grid.fiber_res}
    timestamp = {"when": datetime.now(timezone.utc).isoformat(),
                 "runtime_seconds": time.perf_counter() - started, "tasks": seconds}
    document = {"config": config.raw, "results": results,
                "all_checks_pass": all(res.get("pass") is not False for res in results.values()),
                "provenance": {"tool_version": __version__, "grid": grid, "refine": refine,
                               "timestamp": timestamp}}
    _write_json(out / "document.json", document)
    _write_report_json(out, config, results, grid)
    return document


def _write_report_json(out, config, results, grid):
    """The fixed-schema summary document for the dissipation pipeline: the
    first r_sequence, lyapunov and verify_bound results' fields, or null."""
    def first(key):
        return next((res for res in results.values() if key in res), {})

    r_res = first("r_series")
    _write_json(out / "report.json", {
        "map_id": json.dumps(config.contact_map.describe(), sort_keys=True),
        "lambda_id": json.dumps(config.form_spec, sort_keys=True),
        "grid": grid,
        **{key: r_res.get(key) for key in ("K", "r_series", "chi_hat", "chi_last", "verdict")},
        "lyap_hat": first("lyap_hat").get("lyap_hat"),
        "bound_check": first("s_target") or None,
    })


def emit_plot_data(document: dict, task_id: str, path) -> Path:
    """Two-column whitespace-separated file for a task that produced a series.

    A document that is not shaped like ``run``'s raises TaskError.
    """
    results = document.get("results") if isinstance(document, dict) else None
    if not isinstance(results, dict):
        raise TaskError(task_id, ValueError("not a contactlab document: no results object"))
    if task_id not in results:
        raise TaskError(task_id, KeyError("no such task in the report"))
    res = results[task_id]
    if not isinstance(res, dict):
        raise TaskError(task_id, ValueError("task result is not an object"))
    series = res.get("series")
    if not series:
        raise TaskError(task_id, ValueError("no series"))
    if not (isinstance(series, list) and all(isinstance(row, list) and len(row) == 2 for row in series)):
        raise TaskError(task_id, ValueError("series is not a list of pairs"))
    path = Path(path)
    path.write_text("".join(f"{row[0]} {row[1]}\n" for row in series))
    return path


def _write_csv(path: Path, header, rows):
    """csv's bytes for fields that need no quoting (numbers, fixed headers)."""
    path.write_text("".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows]), newline="")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
