"""Configuration-driven experiment runner producing reproducible artifacts.

A config is a JSON document declaring a dimension, a contact form, a map as a
list of primitive descriptors, and an ordered task list.  Runs are
deterministic given the config (randomness flows from the single seed); every
emitted number is reproducible from the config alone.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import algebra, dissipation, shapes
from .dissipation import GridSpec, Thresholds
from .geometry import (
    ConstantForm,
    ContactForm,
    GeometryError,
    MetricForm,
    PullbackForm,
    RoundForm,
    TrigForm,
    TrigTerm,
)
from .maps import ContactMap, MapError, build_primitive, make_composite

TASK_NAMES = (
    "r_sequence",
    "lyapunov",
    "homology",
    "shape",
    "displacement",
    "growth",
    "duality",
    "verify_bound",
)

# Orbit tasks and their default K; chi_estimate and lyapunov_estimate need
# at least MIN_K steps.
ORBIT_TASK_K = {"r_sequence": 30, "verify_bound": 30, "lyapunov": 20}
MIN_K = 8


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


def build_form(spec: dict) -> ContactForm:
    kind = spec.get("kind")
    if kind == "round":
        return RoundForm()
    if kind == "constant":
        return ConstantForm(spec["value"])
    if kind == "trig":
        terms = [
            TrigTerm(
                t["amp"],
                tuple(t["q_freq"]),
                tuple(t.get("u_powers", ())),
                bool(t.get("use_sin", False)),
            )
            for t in spec.get("terms", [])
        ]
        return TrigForm(spec.get("c0", 1.0), terms)
    if kind == "metric":
        return MetricForm(np.asarray(spec["g"], dtype=float))
    if kind == "linear_pullback":
        return PullbackForm(spec["matrix"], build_form(spec["base"]))
    raise GeometryError(f"unknown form kind {spec.get('kind')!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    seed: int
    form_spec: dict
    map_spec: list
    tasks: list
    conservative: bool = False
    grid: GridSpec | None = None
    lyap_grid: GridSpec | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    out_dir: str = "out"
    raw: dict = field(default_factory=dict)

    def build_map(self) -> ContactMap:
        prims = [build_primitive(p, self.n) for p in self.map_spec]
        return make_composite(prims, n=self.n)

    def build_form(self) -> ContactForm:
        return build_form(self.form_spec)


def _is_int(value) -> bool:
    """An integer JSON number (8 or 8.0), not a bool or a string."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _parse_grid(data, errors, label) -> GridSpec | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        errors.append(f"{label}: must be an object with q_res and fiber_res")
        return None
    q_res = data.get("q_res", 0)
    fiber_res = data.get("fiber_res", 0)
    if not (_is_int(q_res) and _is_int(fiber_res) and q_res > 0 and fiber_res > 0):
        errors.append(
            f"{label}: grid sizes must be positive integers, "
            f"got q_res={q_res!r}, fiber_res={fiber_res!r}"
        )
        return None
    return GridSpec(int(q_res), int(fiber_res))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, reporting every problem found."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"])
    return validate_config(data)


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError([f"config must be a JSON object, got {type(data).__name__}"])
    errors: list[str] = []
    n = data.get("dimension", 2)
    if not (_is_int(n) and n in (2, 3)):
        errors.append(f"dimension must be 2 or 3, got {n!r}")
        n = 2
    n = int(n)

    form_spec = data.get("form", {"kind": "round"})
    try:
        build_form(form_spec)
    except (AttributeError, GeometryError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"form: {exc}")

    map_spec = data.get("map", [])
    if not isinstance(map_spec, list):
        errors.append("map: must be a list of primitive descriptors")
        map_spec = []
    for i, prim_spec in enumerate(map_spec):
        try:
            prim = build_primitive(prim_spec, n)
        except (
            AttributeError, MapError, algebra.AlgebraError, KeyError, TypeError, ValueError
        ) as exc:
            errors.append(f"map[{i}]: {exc}")
            continue
        if prim.n != n:
            errors.append(
                f"map[{i}]: primitive has dimension {prim.n}, config declares {n}"
            )

    # Dimension consistency between the form and the configured torus.
    form_dim = _form_dimension(form_spec)
    if form_dim is not None and form_dim != n:
        errors.append(f"form: dimension {form_dim} does not match configured {n}")

    tasks = data.get("tasks", [])
    if not isinstance(tasks, list) or not tasks:
        errors.append("tasks: need a non-empty list of tasks")
        tasks = []
    for i, task in enumerate(tasks):
        name = task.get("task") if isinstance(task, dict) else None
        if name not in TASK_NAMES:
            errors.append(f"tasks[{i}]: unknown task {name!r}")
        elif name in ORBIT_TASK_K:
            k = task.get("K", ORBIT_TASK_K[name])
            if not (_is_int(k) and k >= MIN_K):
                errors.append(f"tasks[{i}]: {name} needs an integer K >= {MIN_K}, got {k!r}")

    grid = _parse_grid(data.get("grid"), errors, "grid")
    lyap_grid = _parse_grid(data.get("lyapunov_grid"), errors, "lyapunov_grid")

    thr = data.get("thresholds", {})
    if not isinstance(thr, dict):
        errors.append("thresholds: must be an object")
        thr = {}
    values = {}
    for fld in fields(Thresholds):
        value = thr.get(fld.name, fld.default)
        if _is_real(value):
            values[fld.name] = float(value)
        else:
            errors.append(f"thresholds.{fld.name}: must be a finite number, got {value!r}")

    seed = data.get("seed", 0)
    if not _is_int(seed):
        errors.append(f"seed: must be an integer, got {seed!r}")
    conservative = data.get("conservative", False)
    if not isinstance(conservative, bool):
        errors.append(f"conservative: must be true or false, got {conservative!r}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        n=n,
        seed=int(seed),
        form_spec=form_spec,
        map_spec=map_spec,
        tasks=tasks,
        conservative=conservative,
        grid=grid,
        lyap_grid=lyap_grid,
        thresholds=Thresholds(**values),
        out_dir=str(data.get("out_dir", "out")),
        raw=data,
    )


def _form_dimension(spec: dict) -> int | None:
    if not isinstance(spec, dict):
        return None
    kind = spec.get("kind")
    if kind == "metric":
        return len(spec.get("g", []))
    if kind == "linear_pullback":
        return len(spec.get("matrix", []))
    return None


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _scaled(grid: GridSpec | None, n: int, refine: int, fallback) -> GridSpec:
    base = grid or fallback(n)
    return base if refine == 1 else GridSpec(base.q_res * refine, base.fiber_res * refine)


def run(config: ExperimentConfig, out_dir=None, refine: int = 1) -> dict:
    """Execute the task list in order and write CSV/JSON artifacts.

    Returns the aggregate report document; its "all_checks_pass" field drives
    the CLI exit status.
    """
    started = time.perf_counter()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    f = config.build_map()
    form = config.build_form()
    grid = _scaled(config.grid, config.n, refine, dissipation.default_grid)
    lyap_grid = _scaled(
        config.lyap_grid, config.n, refine, dissipation.default_lyapunov_grid
    )
    rng = np.random.default_rng(config.seed)

    results: dict[str, dict] = {}
    all_pass = True
    cached_r: tuple[int, list[float]] | None = None

    for i, task in enumerate(config.tasks):
        name = task["task"]
        task_id = name if name not in results else f"{name}_{i}"
        try:
            res = _run_task(
                name, task, config, f, form, grid, lyap_grid, rng, out, cached_r
            )
        except (ConfigError, TaskError):
            raise
        except Exception as exc:
            raise TaskError(task_id, exc) from exc
        if name == "r_sequence":
            cached_r = (res["K"], res["r_series"])
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
            },
        },
    }
    _write_json(out / "document.json", document)
    _write_report_json(out, config, f, results, grid)
    return document


def _run_task(name, task, config, f, form, grid, lyap_grid, rng, out, cached_r):
    if name == "r_sequence":
        K = int(task.get("K", ORBIT_TASK_K[name]))
        r = dissipation.r_sequence(f, form, K, grid)
        est = dissipation.chi_estimate(r)
        verdict = dissipation.classify(r, config.thresholds)
        series = [[k + 1, float(v)] for k, v in enumerate(r)]
        _write_csv(out / "r_sequence.csv", ["k", "r_k"], series)
        return {
            "K": K,
            "r_series": [float(v) for v in r],
            "chi_hat": est.chi_hat,
            "chi_last": est.chi_last,
            "verdict": verdict,
            "series": series,
        }

    if name == "lyapunov":
        K = int(task.get("K", ORBIT_TASK_K[name]))
        value = dissipation.lyapunov_estimate(f, K, lyap_grid)
        return {"K": K, "lyap_hat": value}

    if name == "homology":
        i_mat = f.homology_matrix
        periodic, order = algebra.is_periodic(i_mat)
        res = {
            "matrix": [list(r) for r in i_mat],
            "s_value": algebra.s_value(i_mat),
            "periodic": periodic,
            "order": order,
        }
        if config.n == 2:
            block, l, m = algebra.a_block(i_mat)
            res["a_block"] = [list(r) for r in block]
            res["l"] = l
            res["m"] = m
            res["a_block_s_value"] = algebra.s_value(block)
        return res

    if name == "shape":
        dirs = shapes.direction_grid(config.n, task.get("dir_res"))
        q_grid = shapes.q_lattice(config.n, int(task.get("q_res", 64)))
        dom = shapes.flat_shape(form, dirs, q_grid)
        header = [f"u{i+1}" for i in range(config.n)] + ["rho"]
        rows = [list(map(float, d)) + [float(r)] for d, r in zip(dom.dirs, dom.rho)]
        _write_csv(out / "shape.csv", header, rows)
        return {
            "directions": len(dom.rho),
            "rho_min": float(dom.rho.min()),
            "rho_max": float(dom.rho.max()),
        }

    if name == "displacement":
        i_mat = algebra.as_matrix(task["matrix"]) if "matrix" in task else (
            algebra.a_block(f.homology_matrix)[0]
            if config.n == 2
            else f.homology_matrix
        )
        dirs = shapes.direction_grid(len(i_mat), task.get("dir_res"))
        dom = shapes.ball(dirs)
        k_max = int(task.get("k_max", 20))
        power = algebra.identity_matrix(len(i_mat))
        deltas = []
        for _ in range(k_max):
            power = algebra.mat_mul(i_mat, power)
            deltas.append(shapes.delta(dom, shapes.act(power, dom)))
        slope = max(algebra.growth_slope(deltas), 0.0)
        series = [[k + 1, float(d)] for k, d in enumerate(deltas)]
        _write_csv(out / "displacement.csv", ["k", "delta_k"], series)
        return {
            "matrix": [list(r) for r in i_mat],
            "k_max": k_max,
            "displacement": slope,
            "series": series,
        }

    if name == "growth":
        mode = task.get("mode", "abelian")
        N = int(task.get("N", 40))
        if mode == "abelian":
            i_mat = algebra.as_matrix(task["matrix"]) if "matrix" in task else (
                algebra.a_block(f.homology_matrix)[0]
                if config.n == 2
                else f.homology_matrix
            )
            if any(len(g) != len(i_mat) for g in task.get("classes", [])):
                raise ConfigError(["growth: class length does not match the matrix"])
            if "classes" in task:
                classes = [tuple(int(c) for c in g) for g in task["classes"]]
            else:
                k = len(i_mat)
                classes = [
                    tuple(int(c) for c in rng.integers(-3, 4, size=k)) for _ in range(5)
                ]
                classes = [g if any(g) else (1,) + (0,) * (k - 1) for g in classes]
            rate = algebra.abelian_bar_s(i_mat, classes, N)
            v = classes[0]
            series = []
            for step in range(N + 1):
                length = sum(abs(c) for c in v)
                series.append([step, length, math.log(length)])
                v = algebra.mat_vec(i_mat, v)
            _write_csv(out / "growth.csv", ["n", "length", "log_length"], series)
            return {
                "mode": mode,
                "rate": rate,
                "classes": [list(g) for g in classes],
                "series": [[row[0], row[2]] for row in series],
            }
        if mode == "free":
            sigma = algebra.FreeAutomorphism.from_strings(task["rules"])
            word = algebra.parse_word(task["word"])
            cap = int(task.get("cap", 10**6))
            rate = algebra.free_growth(sigma, word, N, cap)
            w = algebra.cyclic_reduce(word)
            series = [[0, len(w), math.log(len(w))]]
            for step in range(1, N + 1):
                w = algebra.cyclic_reduce(sigma.apply(w))
                series.append([step, len(w), math.log(len(w))])
                if len(w) > cap:
                    break
            _write_csv(out / "growth.csv", ["n", "length", "log_length"], series)
            return {
                "mode": mode,
                "rate": rate,
                "series": [[row[0], row[2]] for row in series],
            }
        raise ConfigError([f"growth: unknown mode {mode!r}"])

    if name == "duality":
        g = np.asarray(task["metric"], dtype=float)
        classes = [tuple(int(c) for c in v) for v in task.get("classes", [])]
        if not classes:
            k = g.shape[0]
            classes = [
                tuple(int(c) for c in rng.integers(-3, 4, size=k)) for _ in range(8)
            ]
            classes = [v if any(v) else (1,) + (0,) * (k - 1) for v in classes]
        dirs = shapes.direction_grid(g.shape[0], task.get("dir_res"))
        q_grid = shapes.q_lattice(g.shape[0], int(task.get("q_res", 16)))
        res = shapes.duality_check(g, classes, dirs, q_grid)
        _write_json(out / "duality.json", res)
        return res

    if name == "verify_bound":
        K = int(task.get("K", ORBIT_TASK_K[name]))
        r_series = None
        if cached_r is not None and cached_r[0] == K:
            r_series = np.asarray(cached_r[1])
        return dissipation.verify_bound(
            f,
            form,
            K,
            grid,
            declared_conservative=config.conservative,
            tol=float(task.get("tol", 0.05)),
            thresholds=config.thresholds,
            r_series=r_series,
        )

    raise ConfigError([f"unknown task {name!r}"])


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
    """Two-column whitespace-separated file for a task that produced a series."""
    results = document.get("results", {})
    if task_id not in results:
        raise TaskError(task_id, KeyError("no such task in the report"))
    series = results[task_id].get("series")
    if not series:
        raise TaskError(task_id, ValueError("no series"))
    path = Path(path)
    with path.open("w") as fh:
        for row in series:
            fh.write(f"{row[0]} {row[1]}\n")
    return path


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _tool_version() -> str:
    from . import __version__

    return __version__
