"""Configuration-driven experiment runner producing reproducible artifacts.

A config is a JSON document declaring a dimension, a contact form, a map as a
list of primitive descriptors, and an ordered task list.  Runs are
deterministic given the config: sampled classes come from one
``random.Random(seed)`` per run, whose ``random()`` sequence Python keeps for
a given seed, so every emitted number is reproducible from the config alone.

Validation builds the form, each primitive and the grid each task samples;
the config keeps the form and the composite map, and every ``run`` of it
uses those two objects, so a map's inverse and the cohomology invariants
the tasks read (``ContactMap.cohomology_block`` and the rest) are computed
once per config, on first use, and never by validation.  Within a run, the
``r_sequence`` and ``verify_bound`` tasks read one r_k series, chi fit and
verdict per K, computed by whichever task asks first.  Each task's wall
seconds go under ``provenance.timestamp.tasks``.
"""
from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import algebra, dissipation, geometry, shapes
from .algebra import is_int, is_real
from .dissipation import GridSpec, Thresholds
from .geometry import ContactForm, build_form, metric_matrix
from .maps import ContactMap, MapError, build_primitive, make_composite

# Numeric task parameters: name -> (default, minimum).  A minimum of None
# admits any finite number; otherwise the value must be an integer at least
# the minimum: the guard of the library function the task calls, and for the
# growth N and the displacement k_max the only guard.  A default of None
# leaves the choice to the library.  Growth has one table per mode.
TASK_PARAMS = {
    "r_sequence": {"K": (30, 8)},
    "lyapunov": {"K": (20, 8)},
    "homology": {},
    "shape": {"q_res": (64, 1), "dir_res": (None, 4)},
    "displacement": {"k_max": (20, 8), "dir_res": (None, 4)},
    "growth": {"abelian": {"N": (40, 10)}, "free": {"N": (40, 5), "cap": (10**6, 1)}},
    "duality": {"dir_res": (None, 4)},
    "verify_bound": {"K": (30, 8), "tol": (0.05, None)},
}
TASK_NAMES = tuple(TASK_PARAMS)
# Known config keys; a task knows its name, TASK_PARAMS and the objects it builds.
CONFIG_KEYS = "dimension seed form map tasks grid lyapunov_grid thresholds conservative out_dir"
TASK_OBJECTS = {"displacement": "matrix", "abelian": "mode matrix classes",
                "free": "mode rules word", "duality": "metric classes"}

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
    tasks: list  # normalised by validate_config; ``raw`` keeps the input
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
    q_res = data.get("q_res", 0)
    fiber_res = data.get("fiber_res", 0)
    if not (is_int(q_res) and is_int(fiber_res) and q_res > 0 and fiber_res >= 4):
        errors.append(
            f"{label}: q_res must be a positive integer and fiber_res an integer >= 4, "
            f"got q_res={q_res!r}, fiber_res={fiber_res!r}"
        )
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
    tasks = [_normalise_task(task, n, errors, f"tasks[{i}]") for i, task in enumerate(tasks)]

    thr = data.get("thresholds", {})
    if not isinstance(thr, dict):
        errors.append("thresholds: must be an object")
        thr = {}
    known = [fld.name for fld in fields(Thresholds)]
    errors.extend(f"thresholds: unknown key {k!r}" for k in thr if k not in known)
    values = {}
    for fld in fields(Thresholds):
        value = thr.get(fld.name, fld.default)
        if is_real(value):
            values[fld.name] = float(value)
        else:
            errors.append(f"thresholds.{fld.name}: must be a finite number, got {value!r}")

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
        n=n, seed=int(seed), form_spec=form_spec, map_spec=map_spec, tasks=tasks,
        conservative=conservative, grid=grid, lyap_grid=lyap_grid, thresholds=Thresholds(**values),
        out_dir=out_dir, raw=data, form=form, contact_map=make_composite(prims, n=n),
    )
    if any(task["task"] == "lyapunov" for task in tasks):
        lyap = config.lyap_grid or dissipation.default_lyapunov_grid(n)
        rows = frozenset(range(n)) - config.contact_map.base_action[1]  # as orbit_starts reads
        if not _fits(n, lyap.fiber_res, lyap.q_res, rows):
            raise ConfigError(["lyapunov_grid: too many points to sample in memory"])
    errors = [f"tasks[{i}]: {task['task']} grid: too many points to sample in memory"
              for i, task in enumerate(tasks) if not _grid_fits(task, config)]
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


def _grid_fits(task: dict, config: ExperimentConfig) -> bool:
    """Whether the grid a shape, displacement or duality task samples fits in memory."""
    name, n = task["task"], config.n
    if name == "shape":
        axes = geometry.read_axes(config.form, range(n))
        return _fits(n, shapes.direction_count(n, task["dir_res"]), task["q_res"], axes)
    if name in ("displacement", "duality"):
        # A displacement task with no matrix reads the map's n x n cohomology block.
        dim = len(task["metric"] if name == "duality" else task["matrix"] or range(n))
        return _fits(dim, shapes.direction_count(dim, task["dir_res"]))
    return True


def _normalise_task(task, n: int, errors: list, label: str) -> dict:
    """A new dict with the task's parameters checked against TASK_PARAMS,
    defaults filled in, and its matrix, classes, metric, rules and word
    built; problems are appended to ``errors``."""
    name = task.get("task") if isinstance(task, dict) else None
    if not isinstance(name, str) or name not in TASK_PARAMS:
        errors.append(f"{label}: unknown task {name!r}")
        return {}
    out = {"task": name}
    table = TASK_PARAMS[name]
    if name == "growth":
        mode = out["mode"] = task.get("mode", "abelian")
        if not isinstance(mode, str) or mode not in table:
            errors.append(f"{label}: growth mode must be one of {', '.join(table)}, got {mode!r}")
            return out
        table = table[mode]
    known = ["task", *table, *TASK_OBJECTS.get(out.get("mode", name), "").split()]
    errors.extend(f"{label}: unknown key {k!r}" for k in task if k not in known)
    for key, (default, low) in table.items():
        value = task.get(key, default)
        if value is None and default is None:
            out[key] = None
        elif low is None and is_real(value):
            out[key] = float(value)
        elif low is not None and is_int(value) and value >= low:
            out[key] = int(value)
        else:
            need = "a finite number" if low is None else f"an integer >= {low}"
            errors.append(f"{label}: {name} {key} must be {need}, got {value!r}")
    try:
        _build_task_objects(name, task, out, n)
    except KeyError as exc:
        errors.append(f"{label}: {name} needs a {exc.args[0]!r} parameter")
    except SPEC_ERRORS as exc:
        errors.append(f"{label}: {name}: {exc}")
    return out


def _build_task_objects(name: str, task: dict, out: dict, n: int) -> None:
    """Build with the constructors the runner uses; raises on a bad value."""
    if name == "displacement" or out.get("mode") == "abelian":
        matrix = task.get("matrix")
        out["matrix"] = None if matrix is None else algebra.as_matrix(matrix)
        k = n if matrix is None else len(out["matrix"])
        if name == "growth":
            out["classes"] = _parse_classes(task.get("classes"), k)
        elif matrix is not None:
            if k not in (2, 3):
                raise ValueError("matrix must be 2x2 or 3x3")
            algebra.mat_inverse(out["matrix"])  # shapes.act inverts it
    elif name == "duality":
        out["metric"] = metric_matrix(task["metric"])
        if out["metric"].shape[0] not in (2, 3):
            raise ValueError("metric must be 2x2 or 3x3")
        out["classes"] = _parse_classes(task.get("classes"), out["metric"].shape[0])
    elif name == "growth":
        sigma = out["rules"] = algebra.FreeAutomorphism.from_strings(task["rules"])
        out["word"] = algebra.parse_word(task["word"])
        sigma.encode(out["word"])  # raises if a generator has no rule
        if not algebra.cyclic_reduce(out["word"]):
            raise ValueError(f"word {task['word']!r} reduces to the empty word (trivial class)")


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


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run(config: ExperimentConfig, out_dir=None, refine: int = 1) -> dict:
    """Execute the task list in order and write CSV/JSON artifacts.

    Returns the aggregate report document; its "all_checks_pass" field drives
    the CLI exit status.
    """
    started = time.perf_counter()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    f, form = config.contact_map, config.form
    grid = (config.grid or dissipation.default_grid(config.n)).refined(refine)
    lyap_grid = (config.lyap_grid or dissipation.default_lyapunov_grid(config.n)).refined(refine)
    rng = random.Random(config.seed)

    @functools.cache
    def series(K):
        """The r_k series of f, its chi fit and its verdict, once per K."""
        r = dissipation.r_sequence(f, form, K, grid)
        est = dissipation.chi_estimate(r)
        return r, est, dissipation.classify(r, est, config.thresholds)

    results: dict[str, dict] = {}
    seconds: dict[str, float] = {}
    all_pass = True

    for i, task in enumerate(config.tasks):
        name = task["task"]
        task_id = name if name not in results else f"{name}_{i}"
        task_started = time.perf_counter()
        try:
            res = _run_task(name, task, config, f, form, lyap_grid, rng, series, out / task_id)
        except Exception as exc:
            raise TaskError(task_id, exc) from exc
        seconds[task_id] = time.perf_counter() - task_started
        if res.get("pass") is False:
            all_pass = False
        results[task_id] = res

    document = {
        "config": config.raw,
        "results": results,
        "all_checks_pass": all_pass,
        "provenance": {
            "tool_version": _tool_version(),
            "grid": {"q_res": grid.q_res, "fiber_res": grid.fiber_res},
            "refine": refine,
            "timestamp": {
                "when": datetime.now(timezone.utc).isoformat(),
                "runtime_seconds": time.perf_counter() - started,
                "tasks": seconds,
            },
        },
    }
    _write_json(out / "document.json", document)
    _write_report_json(out, config, f, results, grid)
    return document


def _run_task(name, task, config, f, form, lyap_grid, rng, series, artifact):
    """One task's result; its file, if any, is ``artifact`` (out dir / task id) + suffix.

    ``series(K)`` is the run's (r, ChiEstimate, verdict) for K."""
    if name == "r_sequence":
        r, est, verdict = series(task["K"])
        rows = [[k + 1, float(v)] for k, v in enumerate(r)]
        _write_csv(artifact.with_suffix(".csv"), ["k", "r_k"], rows)
        return {
            "K": task["K"],
            "r_series": [float(v) for v in r],
            "chi_hat": est.chi_hat,
            "chi_last": est.chi_last,
            "verdict": verdict,
            "series": rows,
        }

    if name == "lyapunov":
        value = dissipation.lyapunov_estimate(f, task["K"], lyap_grid)
        return {"K": task["K"], "lyap_hat": value}

    if name == "homology":
        periodic, order = f.periodicity
        res = {
            "matrix": [list(r) for r in f.homology_matrix],
            "s_value": f.s_value,
            "periodic": periodic,
            "order": order,
            **dissipation.block_fields(f),
        }
        if f.n == 2:
            res["a_block_s_value"] = f.block_s_value
        return res

    if name == "shape":
        dirs = shapes.direction_grid(config.n, task["dir_res"])
        rho = shapes.flat_shape(form, config.n, task["q_res"]).rho(dirs)
        header = [f"u{i+1}" for i in range(config.n)] + ["rho"]
        rows = [d + [r] for d, r in zip(dirs.tolist(), rho.tolist())]
        _write_csv(artifact.with_suffix(".csv"), header, rows)
        return {"directions": len(rho), "rho_min": float(rho.min()), "rho_max": float(rho.max())}

    if name == "displacement":
        i_mat = task["matrix"] or f.cohomology_block[0]
        dirs = shapes.direction_grid(len(i_mat), task["dir_res"])
        deltas = shapes.displacement_series(i_mat, shapes.ball(len(i_mat)), task["k_max"], dirs)
        series = [[k + 1, float(d)] for k, d in enumerate(deltas)]
        _write_csv(artifact.with_suffix(".csv"), ["k", "delta_k"], series)
        return {
            "matrix": [list(r) for r in i_mat],
            "k_max": task["k_max"],
            "displacement": max(algebra.growth_slope(deltas), 0.0),
            "series": series,
        }

    if name == "growth":
        res = {"mode": task["mode"]}
        if task["mode"] == "abelian":
            i_mat = task["matrix"] or f.cohomology_block[0]
            classes = task["classes"] or _sampled_classes(len(i_mat), 5, rng)
            per_class = [algebra.abelian_lengths(i_mat, g, task["N"]) for g in classes]
            res["rate"] = algebra.length_growth_rate(*per_class)
            res["classes"] = [list(g) for g in classes]
            lengths = per_class[0]
        else:
            lengths = algebra.free_lengths(task["rules"], task["word"], task["N"], task["cap"])
            res["rate"] = algebra.length_growth_rate(lengths)
        series = [[step, x, math.log(x)] for step, x in enumerate(lengths)]
        _write_csv(artifact.with_suffix(".csv"), ["n", "length", "log_length"], series)
        res["series"] = [[row[0], row[2]] for row in series]
        return res

    if name == "duality":
        g = task["metric"]
        classes = task["classes"] or _sampled_classes(g.shape[0], 8, rng)
        dirs = shapes.direction_grid(g.shape[0], task["dir_res"])
        res = shapes.duality_check(g, classes, dirs)
        _write_json(artifact.with_suffix(".json"), res)
        return res

    if name == "verify_bound":
        _, est, verdict = series(task["K"])
        return dissipation.verify_bound(f, est, verdict, config.conservative, task["tol"])

    raise ValueError(f"unknown task {name!r}")


def _sampled_classes(k: int, count: int, rng: random.Random):
    """``count`` nonzero classes of length k, entries uniform on -3..3, row by row."""
    classes = [tuple(int(7 * rng.random()) - 3 for _ in range(k)) for _ in range(count)]
    return [g if any(g) else (1,) + (0,) * (k - 1) for g in classes]


def _write_report_json(out, config, f, results, grid):
    """The fixed-schema summary document for the dissipation pipeline."""
    r_res = next((v for v in results.values() if "r_series" in v), None)
    lyap_res = next((v for v in results.values() if "lyap_hat" in v), None)
    bound_res = next((v for v in results.values() if "s_target" in v), None)
    report = {
        "map_id": json.dumps(f.describe(), sort_keys=True),
        "lambda_id": json.dumps(config.form_spec, sort_keys=True),
        "K": r_res["K"] if r_res else None,
        "grid": {"q_res": grid.q_res, "fiber_res": grid.fiber_res},
        "r_series": r_res["r_series"] if r_res else None,
        "chi_hat": r_res["chi_hat"] if r_res else None,
        "chi_last": r_res["chi_last"] if r_res else None,
        "lyap_hat": lyap_res["lyap_hat"] if lyap_res else None,
        "verdict": r_res["verdict"] if r_res else None,
        "bound_check": bound_res,
    }
    _write_json(out / "report.json", report)


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
    if not (
        isinstance(series, list)
        and all(isinstance(row, list) and len(row) == 2 for row in series)
    ):
        raise TaskError(task_id, ValueError("series is not a list of pairs"))
    path = Path(path)
    with path.open("w") as fh:
        for row in series:
            fh.write(f"{row[0]} {row[1]}\n")
    return path


def _write_csv(path: Path, header, rows):
    """csv's bytes for fields that need no quoting (numbers, fixed headers)."""
    path.write_text("".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows]), newline="")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _tool_version() -> str:
    from . import __version__

    return __version__
