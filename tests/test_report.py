import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import algebra as A
from contactlab import dissipation, geometry, shapes
from contactlab.cli import main
from contactlab.geometry import FORMS, TrigTerm, descriptor_fields
from contactlab.maps import HAMILTONIANS, PRIMITIVES, CanonicalLift
from contactlab.report import (
    TASK_NAMES,
    ConfigError,
    TaskError,
    emit_plot_data,
    load_config,
    run,
    validate_config,
)
from test_dissipation import NanStep

REPO = Path(__file__).resolve().parents[1]
MINIMAL = {
    "dimension": 2,
    "seed": 0,
    "form": {"kind": "round"},
    "map": [],
    "grid": {"q_res": 4, "fiber_res": 16},
    "tasks": [{"task": "r_sequence", "K": 10}],
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# load_config
# ---------------------------------------------------------------------------

def test_minimal_config_is_valid(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.n == 2 and cfg.tasks[0]["task"] == "r_sequence"


def test_unknown_primitive_kind_reported(tmp_path):
    bad = dict(MINIMAL, map=[{"kind": "foo"}])
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, bad))
    assert any("foo" in e for e in err.value.errors)


def test_dimension_mismatch_reported():
    bad = dict(MINIMAL, dimension=2, form={"kind": "metric", "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(ConfigError, match="dimension"):
        validate_config(bad)


def test_nonpositive_grid_reported():
    bad = dict(MINIMAL, grid={"q_res": 0, "fiber_res": 16})
    with pytest.raises(ConfigError, match="positive"):
        validate_config(bad)


def test_all_errors_collected():
    bad = dict(
        MINIMAL,
        map=[{"kind": "foo"}, {"kind": "bar"}],
        grid={"q_res": -1, "fiber_res": 16},
    )
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert len(err.value.errors) >= 3


def test_missing_file_and_malformed_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_identity_bundle_all_zero(tmp_path):
    data = dict(
        MINIMAL,
        tasks=[
            {"task": "r_sequence", "K": 10},
            {"task": "homology"},
            {"task": "verify_bound", "K": 10},
        ],
    )
    cfg = validate_config(data)
    doc = run(cfg, out_dir=tmp_path)
    res = doc["results"]
    assert max(res["r_sequence"]["r_series"]) <= 1e-12
    assert res["homology"]["s_value"] == pytest.approx(0.0, abs=1e-10)
    assert res["verify_bound"]["pass"]
    assert doc["all_checks_pass"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "map_id",
        "lambda_id",
        "K",
        "grid",
        "r_series",
        "chi_hat",
        "chi_last",
        "lyap_hat",
        "verdict",
        "bound_check",
    }


def test_cat_map_bundle_passes(tmp_path):
    data = dict(
        MINIMAL,
        map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}],
        grid={"q_res": 4, "fiber_res": 64},
        tasks=[
            {"task": "r_sequence", "K": 20},
            {"task": "homology"},
            {"task": "verify_bound", "K": 20},
        ],
    )
    doc = run(validate_config(data), out_dir=tmp_path)
    assert doc["results"]["r_sequence"]["verdict"] == "Hyperbolic"
    assert doc["results"]["verify_bound"]["pass"]
    csv_lines = (tmp_path / "r_sequence.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "k,r_k" and len(csv_lines) == 21


def test_conservative_contradiction_fails_run(tmp_path):
    data = dict(
        MINIMAL,
        map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}],
        conservative=True,
        grid={"q_res": 4, "fiber_res": 64},
        tasks=[{"task": "verify_bound", "K": 20}],
    )
    doc = run(validate_config(data), out_dir=tmp_path)
    assert not doc["all_checks_pass"]


def test_determinism_excluding_timestamp(tmp_path):
    data = dict(
        MINIMAL,
        map=[{"kind": "shear_a"}],
        tasks=[
            {"task": "r_sequence", "K": 10},
            {"task": "growth", "N": 20},
            {"task": "duality", "metric": [[1, 0], [0, 1]]},
        ],
    )
    doc1 = run(validate_config(data), out_dir=tmp_path / "a")
    doc2 = run(validate_config(data), out_dir=tmp_path / "b")
    for name in ("document.json", "report.json", "r_sequence.csv", "growth.csv", "duality.json"):
        t1 = json.loads((tmp_path / "a" / name).read_text()) if name.endswith("json") else (tmp_path / "a" / name).read_text()
        t2 = json.loads((tmp_path / "b" / name).read_text()) if name.endswith("json") else (tmp_path / "b" / name).read_text()
        if name == "document.json":
            t1["provenance"].pop("timestamp")
            t2["provenance"].pop("timestamp")
        assert t1 == t2


def test_emit_plot_data(tmp_path):
    data = dict(MINIMAL, tasks=[{"task": "r_sequence", "K": 10}, {"task": "homology"}])
    doc = run(validate_config(data), out_dir=tmp_path)
    out = emit_plot_data(doc, "r_sequence", tmp_path / "r.dat")
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10 and lines[0].split()[0] == "1"
    with pytest.raises(TaskError, match="no series"):
        emit_plot_data(doc, "homology", tmp_path / "h.dat")


# An n=3 config whose growth and duality tasks both sample their classes.
SAMPLED_N3 = {
    "dimension": 3,
    "seed": 0,
    "map": [{"kind": "canonical_lift", "matrix": [[1, 1, 0], [1, 2, 1], [0, 1, 2]]}],
    "grid": {"q_res": 2, "fiber_res": 16},
    "tasks": [
        {"task": "growth", "mode": "abelian", "N": 10},
        {"task": "duality", "metric": [[2, 0.5, 0], [0.5, 1, 0.2], [0, 0.2, 1.5]], "dir_res": 4},
    ],
}


def test_sampled_classes_are_the_stdlib_stream_of_the_seed(tmp_path, capsys):
    """Entries int(7 * Random(seed).random()) - 3 in task order, row by row:
    a sequence Python keeps for a given seed on every version."""
    doc = run(validate_config(SAMPLED_N3), out_dir=tmp_path / "out")
    assert doc["results"]["growth"]["classes"] == [
        [2, 2, -1], [-2, 0, -1], [2, -1, 0], [1, 3, 0], [-2, 2, 1]
    ]
    assert run_exit(dict(SAMPLED_N3, seed=10**30)) in (0, 1)
    assert main(["validate", str(write_config(tmp_path, dict(SAMPLED_N3, seed=-1)))]) == 2
    assert "seed: must be a non-negative integer, got -1" in capsys.readouterr().err


def test_a_run_that_samples_classes_never_loads_numpy_random(tmp_path):
    """numpy.random costs about 5 MB of RSS on import; the stdlib generator
    is already loaded by numpy."""
    script = (
        "import json, sys\n"
        "from contactlab import report\n"
        "report.run(report.validate_config(json.loads(sys.argv[1])), out_dir=sys.argv[2])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(SAMPLED_N3), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def test_cli_validate_and_run(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "document.json").exists()


def test_cli_config_error_exit_2(tmp_path):
    path = write_config(tmp_path, dict(MINIMAL, map=[{"kind": "foo"}]))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2


def test_cli_check_failure_exit_1(tmp_path):
    data = dict(
        MINIMAL,
        map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}],
        conservative=True,
        grid={"q_res": 4, "fiber_res": 64},
        tasks=[{"task": "verify_bound", "K": 20}],
    )
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


def test_cli_runtime_error_exit_3(tmp_path):
    # a trivial free-group class passes validation but fails at run time
    data = dict(
        MINIMAL,
        tasks=[{"task": "growth", "mode": "free", "rules": ["ab", "a"], "word": "abBA", "N": 10}],
    )
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3


def test_cli_catalog_and_plot(tmp_path, capsys):
    assert main(["catalog"]) == 0
    assert "canonical_lift" in capsys.readouterr().out
    path = write_config(tmp_path, MINIMAL)
    main(["run", str(path), "--out", str(tmp_path / "out")])
    assert main(["plot", str(tmp_path / "out" / "document.json"), "r_sequence"]) == 0
    assert (tmp_path / "out" / "r_sequence.dat").exists()
    assert main(["plot", str(tmp_path / "out" / "document.json"), "nope"]) == 3


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    if kind == "not_utf8":
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
    else:
        path = tmp_path / "configs.json"
        path.mkdir()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


NOT_DOCUMENTS = {
    "top_level_list": [{"results": {}}],
    "results_not_object": {"results": 5},
    "result_not_object": {"results": {"t": 5}},
    "series_rows_not_pairs": {"results": {"t": {"series": [1, 2, 3]}}},
    "series_rows_too_short": {"results": {"t": {"series": [[1]]}}},
    "series_not_list": {"results": {"t": {"series": "ab"}}},
}


@pytest.mark.parametrize("name", sorted(NOT_DOCUMENTS))
def test_plot_on_a_foreign_document_exits_3(tmp_path, capsys, name):
    path = write_config(tmp_path, NOT_DOCUMENTS[name], name="document.json")
    assert main(["plot", str(path), "t", "--out", str(tmp_path / "t.dat")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "Traceback" not in err
    assert not (tmp_path / "t.dat").exists()


def test_plot_on_a_non_utf8_document_exits_3(tmp_path, capsys):
    path = tmp_path / "document.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["plot", str(path), "t"]) == 3
    assert capsys.readouterr().err.startswith("runtime error:")


def test_cli_refine_flag(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--refine", "2"]) == 0
    doc = json.loads((tmp_path / "out" / "document.json").read_text())
    assert doc["provenance"]["grid"] == {"q_res": 8, "fiber_res": 32}


# ---------------------------------------------------------------------------
# Config hardening and run-time rejections
# ---------------------------------------------------------------------------

BAD_CONFIGS = {
    "top_level_list": [MINIMAL],
    "top_level_string": "config",
    "grid_not_integer": dict(MINIMAL, grid={"q_res": "abc", "fiber_res": 16}),
    "grid_fractional": dict(MINIMAL, grid={"q_res": 4, "fiber_res": 16.5}),
    "lyapunov_grid_not_object": dict(MINIMAL, lyapunov_grid=[4, 16]),
    "threshold_not_numeric": dict(MINIMAL, thresholds={"hyperbolic_floor": "abc"}),
    "threshold_null": dict(MINIMAL, thresholds={"residual_frac": None}),
    "r_sequence_short_K": dict(MINIMAL, tasks=[{"task": "r_sequence", "K": 5}]),
    "verify_bound_text_K": dict(MINIMAL, tasks=[{"task": "verify_bound", "K": "abc"}]),
    "lyapunov_fractional_K": dict(MINIMAL, tasks=[{"task": "lyapunov", "K": 9.5}]),
    "seed_not_integer": dict(MINIMAL, seed="abc"),
    "dimension_fractional": dict(MINIMAL, dimension=2.5),
    "conservative_string": dict(MINIMAL, conservative="false"),
    "map_not_list": dict(MINIMAL, map={"kind": "shear_a"}),
    "form_not_object": dict(MINIMAL, form="round"),
    "growth_text_N": dict(MINIMAL, tasks=[{"task": "growth", "N": "abc"}]),
    "growth_abelian_short_N": dict(MINIMAL, tasks=[{"task": "growth", "N": 9}]),
    "growth_free_short_N": dict(
        MINIMAL, tasks=[{"task": "growth", "mode": "free", "rules": ["ab", "a"], "word": "a", "N": 4}]
    ),
    "growth_unknown_mode": dict(MINIMAL, tasks=[{"task": "growth", "mode": "xyz"}]),
    "growth_class_length": dict(MINIMAL, tasks=[{"task": "growth", "classes": [[1, 0, 0]]}]),
    "growth_free_missing_rules": dict(MINIMAL, tasks=[{"task": "growth", "mode": "free", "word": "a"}]),
    "growth_free_unknown_generator": dict(
        MINIMAL, tasks=[{"task": "growth", "mode": "free", "rules": ["ab", "a"], "word": "c"}]
    ),
    "displacement_short_k_max": dict(MINIMAL, tasks=[{"task": "displacement", "k_max": 1}]),
    "displacement_singular_matrix": dict(
        MINIMAL, tasks=[{"task": "displacement", "matrix": [[2, 0], [0, 1]]}]
    ),
    "shape_small_dir_res": dict(MINIMAL, tasks=[{"task": "shape", "dir_res": 2}]),
    "duality_indefinite_metric": dict(MINIMAL, tasks=[{"task": "duality", "metric": [[1, 2], [2, 1]]}]),
    "verify_bound_text_tol": dict(MINIMAL, tasks=[{"task": "verify_bound", "tol": "abc"}]),
    "verify_bound_huge_tol": dict(MINIMAL, tasks=[{"task": "verify_bound", "tol": 10**400}]),
    "trig_text_amp": dict(
        MINIMAL, form={"kind": "trig", "terms": [{"amp": "x", "q_freq": [1, 0]}]}
    ),
    "trig_long_q_freq": dict(
        MINIMAL, form={"kind": "trig", "terms": [{"amp": 0.1, "q_freq": [1, 0, 0]}]}
    ),
    "momentum_text_c": dict(
        MINIMAL,
        map=[
            {"kind": "contact_flow", "hamiltonian": {"kind": "momentum", "c": "12"}, "t": 0.5}
        ],
    ),
    "growth_free_text_rules": dict(
        MINIMAL, tasks=[{"task": "growth", "mode": "free", "rules": "ab", "word": "a"}]
    ),
}


def _flow(hamiltonian, **fields):
    prim = dict({"kind": "contact_flow", "hamiltonian": hamiltonian, "t": 0.5}, **fields)
    return dict(MINIMAL, map=[prim])


MOMENTUM = {"kind": "momentum", "c": [0.2, 0.5]}
TRIG_Q = {"kind": "trig", "c0": 2.0, "terms": [{"amp": 0.5, "q_freq": [1, 0]}]}  # reads q

# A fractional integer or a string or bool number, with the text its error
# must carry; once these were truncated or converted silently.  Lift matrices
# that are not unimodular carry ``mat_inverse``'s error, re-raised by the kind.
NUMBER_FIELD_CASES = {
    "lift_fractional_matrix": (
        dict(MINIMAL, map=[{"kind": "canonical_lift", "matrix": [[2.7, 1], [1, 1.9]]}]),
        "map[0]: matrix entries must be integers",
    ),
    "lift_non_unimodular_matrix": (
        dict(MINIMAL, map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 2]]}]),
        "map[0]: canonical lift needs a unimodular matrix",
    ),
    "pullback_non_unimodular_matrix": (
        dict(MINIMAL, form={"kind": "linear_pullback", "matrix": [[1, 1], [1, 1]], "base": {"kind": "round"}}),
        "form: lift matrix must be unimodular",
    ),
    "displacement_fractional_matrix": (
        dict(MINIMAL, tasks=[{"task": "displacement", "matrix": [[2.5, 1], [1, 1]]}]),
        "displacement: matrix entries must be integers",
    ),
    "growth_fractional_classes": (
        dict(MINIMAL, tasks=[{"task": "growth", "classes": [[1.5, 0], [0, 1]]}]),
        "growth: class entries must be integers",
    ),
    "duality_fractional_classes": (
        dict(
            MINIMAL,
            tasks=[{"task": "duality", "metric": [[1, 0], [0, 1]], "classes": [[1.5, 0], [0, 1]]}],
        ),
        "duality: class entries must be integers",
    ),
    "pullback_fractional_matrix": (
        dict(
            MINIMAL,
            form={"kind": "linear_pullback", "matrix": [[1.2, 0], [0, 1]], "base": {"kind": "round"}},
        ),
        "form: matrix entries must be integers",
    ),
    "flow_fractional_steps": (_flow(MOMENTUM, steps=2.5), "map[0]: flow steps"),
    "flow_bool_steps": (_flow(MOMENTUM, steps=True), "map[0]: flow steps"),
    "flow_text_t": (_flow(MOMENTUM, t="0.5"), "map[0]: flow t"),
    "flow_bool_t": (_flow(MOMENTUM, t=True), "map[0]: flow t"),
    "reeb_text_t": (
        dict(MINIMAL, map=[{"kind": "reeb_translation", "t": "0.5"}]), "map[0]: reeb t"
    ),
    "reeb_bool_t": (dict(MINIMAL, map=[{"kind": "reeb_translation", "t": True}]), "map[0]: reeb t"),
    "momentum_text_and_bool_c": (
        _flow({"kind": "momentum", "c": ["0.2", True]}), "map[0]: contact_flow: hamiltonian: momentum c"
    ),
    "metric_norm_text_g": (
        _flow({"kind": "metric_norm", "g": [["1", "0"], ["0", "1"]]}), "map[0]: contact_flow: hamiltonian: metric entries"
    ),
    "modulated_norm_bool_axis": (
        _flow({"kind": "modulated_norm", "eps": 0.2, "axis": True}), "map[0]: contact_flow: hamiltonian: modulated_norm axis"
    ),
    "shear_bool_power": (
        dict(MINIMAL, map=[{"kind": "shear_a", "power": True}]), "map[0]: shear power"
    ),
    "metric_form_text_g": (
        dict(MINIMAL, form={"kind": "metric", "g": [["2", "0"], ["0", "1"]]}),
        "form: metric entries",
    ),
    "constant_bool_value": (
        dict(MINIMAL, form={"kind": "constant", "value": True}), "form: constant value"
    ),
    "duality_text_metric": (
        dict(MINIMAL, tasks=[{"task": "duality", "metric": [["1", "0"], ["0", "1"]]}]),
        "duality: metric entries",
    ),
}
BAD_CONFIGS.update({name: data for name, (data, _) in NUMBER_FIELD_CASES.items()})

# Configs that once validated and then failed at run time (exit 3; a negative
# seed and a NUL in out_dir ended in a traceback) or wrote elsewhere (a null or
# numeric out_dir into a directory named after it, an empty one into the
# working directory), with the text their config error must carry.
RUN_TIME_CASES = {
    "seed_negative": (dict(MINIMAL, seed=-1), "seed: must be a non-negative integer, got -1"),
    "out_dir_null": (dict(MINIMAL, out_dir=None), "out_dir: must be a non-empty path string"),
    "out_dir_number": (dict(MINIMAL, out_dir=5), "out_dir: must be a non-empty path string"),
    "out_dir_empty": (dict(MINIMAL, out_dir=""), "out_dir: must be a non-empty path string"),
    "out_dir_nul": (dict(MINIMAL, out_dir="out\0"), "out_dir: must be a non-empty path string"),
    "grid_small_fiber_res": (
        dict(MINIMAL, grid={"q_res": 4, "fiber_res": 3}), "grid: q_res must be a positive integer"
    ),
    "lyapunov_grid_small_fiber_res": (
        dict(MINIMAL, lyapunov_grid={"q_res": 4, "fiber_res": 2}),
        "lyapunov_grid: q_res must be a positive integer and fiber_res an integer >= 4",
    ),
    "growth_zero_class": (
        dict(MINIMAL, tasks=[{"task": "growth", "classes": [[1, 0], [0, 0]]}]),
        "growth: classes must be nonzero",
    ),
    "duality_zero_class": (
        dict(MINIMAL, tasks=[{"task": "duality", "metric": [[1, 0], [0, 1]], "classes": [[0, 0]]}]),
        "duality: classes must be nonzero",
    ),
    # Sizes past any 57-bit address space (142 and 710 PiB), which numpy
    # refuses at once whatever the host's overcommit policy.
    "grid_q_res_past_memory": (
        dict(
            MINIMAL,
            form={"kind": "trig", "c0": 2.0, "terms": [{"amp": 0.5, "q_freq": [1, 0]}]},
            grid={"q_res": 10**8, "fiber_res": 4},
        ),
        "grid: too many points to sample in memory",
    ),
    "grid_fiber_res_past_memory": (
        dict(MINIMAL, grid={"q_res": 4, "fiber_res": 10**17}),
        "grid: too many points to sample in memory",
    ),
    # The chain starts of a lyapunov task: 710 PiB of directions for the cat
    # lift, and 16 TB of base rows along the modulated flow's own axis.
    "lyapunov_grid_fiber_res_past_memory": (
        dict(json.loads((REPO / "configs" / "catmap.json").read_text()),
             lyapunov_grid={"q_res": 4, "fiber_res": 10**17}),
        "lyapunov_grid: too many points to sample in memory",
    ),
    "lyapunov_grid_q_res_past_memory": (
        dict(_flow({"kind": "modulated_norm", "eps": 0.1}), tasks=[{"task": "lyapunov", "K": 8}],
             lyapunov_grid={"q_res": 10**12, "fiber_res": 4}),
        "lyapunov_grid: too many points to sample in memory",
    ),
    # The grids the shape, displacement and duality tasks sample: 14.6 TiB of
    # base lattice for a form reading q, and 728 TiB of directions.
    "shape_q_res_past_memory": (
        dict(
            MINIMAL,
            form={"kind": "trig", "c0": 2.0, "terms": [{"amp": 0.5, "q_freq": [1, 0]}]},
            tasks=[{"task": "shape", "q_res": 10**6}],
        ),
        "tasks[0]: shape grid: too many points to sample in memory",
    ),
    "shape_dir_res_past_memory": (
        dict(MINIMAL, tasks=[{"task": "shape", "dir_res": 10**14}]),
        "tasks[0]: shape grid: too many points to sample in memory",
    ),
    "displacement_dir_res_past_memory": (
        dict(MINIMAL, tasks=[{"task": "homology"}, {"task": "displacement", "dir_res": 10**14}]),
        "tasks[1]: displacement grid: too many points to sample in memory",
    ),
    "duality_dir_res_past_memory": (
        dict(MINIMAL, tasks=[{"task": "duality", "metric": [[1, 0], [0, 1]], "dir_res": 10**14}]),
        "tasks[0]: duality grid: too many points to sample in memory",
    ),
    # Sizes past numpy's index range, which it refuses with ValueError, not
    # MemoryError; the grid cases once blamed the form with numpy's message.
    "grid_q_res_past_index_range": (
        dict(MINIMAL, form=TRIG_Q, grid={"q_res": 10**20, "fiber_res": 4}),
        "grid: too many points to sample in memory",
    ),
    "grid_fiber_res_past_index_range": (
        dict(MINIMAL, grid={"q_res": 4, "fiber_res": 10**20}),
        "grid: too many points to sample in memory",
    ),
    "lyapunov_grid_q_res_past_index_range": (
        dict(_flow({"kind": "modulated_norm", "eps": 0.1}), tasks=[{"task": "lyapunov", "K": 8}],
             lyapunov_grid={"q_res": 10**20, "fiber_res": 4}),
        "lyapunov_grid: too many points to sample in memory",
    ),
    "shape_q_res_past_index_range": (
        dict(MINIMAL, form=TRIG_Q, tasks=[{"task": "shape", "q_res": 10**9}]),
        "tasks[0]: shape grid: too many points to sample in memory",
    ),
    "shape_q_res_far_past_index_range": (
        dict(MINIMAL, form=TRIG_Q, tasks=[{"task": "shape", "q_res": 10**20}]),
        "tasks[0]: shape grid: too many points to sample in memory",
    ),
    "displacement_dir_res_past_index_range": (
        dict(MINIMAL, tasks=[{"task": "homology"}, {"task": "displacement", "dir_res": 10**20}]),
        "tasks[1]: displacement grid: too many points to sample in memory",
    ),
    "duality_dir_res_past_index_range": (
        dict(MINIMAL, tasks=[{"task": "duality", "metric": [[1, 0], [0, 1]], "dir_res": 10**20}]),
        "tasks[0]: duality grid: too many points to sample in memory",
    ),
    "trig_negative_constant": (
        dict(MINIMAL, form={"kind": "trig", "c0": -1, "terms": []}, tasks=[{"task": "homology"}]),
        "form: profile of the trig form is not positive and finite",
    ),
    "trig_sign_changing": (
        dict(
            MINIMAL,
            form={"kind": "trig", "c0": 0.1, "terms": [{"amp": 0.5, "q_freq": [1, 0]}]},
            tasks=[{"task": "shape"}],
        ),
        "form: profile of the trig form is not positive and finite",
    ),
    "trig_sign_changing_default_grid": (
        dict(
            {key: value for key, value in MINIMAL.items() if key != "grid"},
            form={"kind": "trig", "c0": 0.1, "terms": [{"amp": 0.5, "q_freq": [1, 0]}]},
        ),
        "form: profile of the trig form is not positive and finite",
    ),
}
BAD_CONFIGS.update({name: data for name, (data, _) in RUN_TIME_CASES.items()})
# sqrt(p^T G p) is NaN or 0 somewhere unless G is positive definite.
BAD_CONFIGS.update(
    metric_norm_indefinite_g=_flow({"kind": "metric_norm", "g": [[1, 0], [0, -1]]}),
    metric_norm_singular_g=_flow({"kind": "metric_norm", "g": [[1, 1], [1, 1]]}),
)


# Misspelt keys that once validated and ran with the default in their place,
# with the error each must carry.
UNKNOWN_KEY_CASES = {
    "unknown_top_level_key": (dict(MINIMAL, tresholds=1), "config: unknown key 'tresholds'"),
    "grid_unknown_key": (
        dict(MINIMAL, grid={"q_res": 4, "fiber_res": 16, "fibre_res": 3}),
        "grid: unknown key 'fibre_res'",
    ),
    "task_unknown_key": (
        dict(MINIMAL, tasks=[{"task": "r_sequence", "k": 5}]), "tasks[0]: unknown key 'k'"
    ),
    "lyapunov_grid_unknown_key": (
        dict(MINIMAL, lyapunov_grid={"q_res": 4, "fiber_res": 16, "qres": 2}),
        "lyapunov_grid: unknown key 'qres'",
    ),
    "thresholds_unknown_key": (
        dict(MINIMAL, thresholds={"hyperbolic_flor": 0.1}), "thresholds: unknown key 'hyperbolic_flor'"
    ),
    "abelian_growth_free_key": (
        dict(MINIMAL, tasks=[{"task": "growth", "cap": 10}]), "tasks[0]: unknown key 'cap'"
    ),
    "r_sequence_object_key": (
        dict(MINIMAL, tasks=[{"task": "r_sequence", "matrix": [[2, 1], [1, 1]]}]),
        "tasks[0]: unknown key 'matrix'",
    ),
    "shear_misspelt_power": (
        dict(MINIMAL, map=[{"kind": "shear_a", "powr": -1}]), "map[0]: shear_a: unknown key 'powr'"
    ),
    "trig_term_misspelt_use_sin": (
        dict(
            MINIMAL,
            form={"kind": "trig", "terms": [{"amp": 0.1, "q_freq": [1, 0], "use_sine": True}]},
        ),
        "form: terms[0]: term: unknown key 'use_sine'",
    ),
    "pullback_base_unknown_key": (
        dict(
            MINIMAL,
            form={
                "kind": "linear_pullback",
                "matrix": [[1, 1], [0, 1]],
                "base": {"kind": "constant", "value": 2.0, "c0": 1.0},
            },
        ),
        "form: base: constant: unknown key 'c0'",
    ),
    "flow_hamiltonian_unknown_key": (
        _flow({"kind": "momentum", "c": [0.2, 0.5], "cc": 1}), "map[0]: contact_flow: hamiltonian: momentum: unknown key 'cc'"
    ),
    "round_unknown_key": (
        dict(MINIMAL, form={"kind": "round", "c0": 2.0}), "form: round: unknown key 'c0'"
    ),
    "lift_unknown_key": (
        dict(MINIMAL, map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]], "power": 2}]),
        "map[0]: canonical_lift: unknown key 'power'",
    ),
    "shear_fixed_axis": (
        dict(MINIMAL, map=[{"kind": "shear_a", "axis": 1}]), "map[0]: shear_a: unknown key 'axis'"
    ),
    "flow_dimension_key": (_flow(MOMENTUM, n=2), "map[0]: contact_flow: unknown key 'n'"),
    "second_trig_term_unknown_key": (
        dict(
            MINIMAL,
            form={
                "kind": "trig",
                "terms": [{"amp": 0.1, "q_freq": [1, 0]}, {"amp": 0.1, "q_freq": [0, 1], "x": 1}],
            },
        ),
        "form: terms[1]: term: unknown key 'x'",
    ),
    "pullback_of_trig_term_unknown_key": (
        dict(
            MINIMAL,
            form={
                "kind": "linear_pullback",
                "matrix": [[1, 1], [0, 1]],
                "base": {"kind": "trig", "terms": [{"amp": 0.1, "q_freq": [1, 0], "use_sine": True}]},
            },
        ),
        "form: base: terms[0]: term: unknown key 'use_sine'",
    ),
    "pullback_of_pullback_base_unknown_key": (
        dict(
            MINIMAL,
            form={
                "kind": "linear_pullback",
                "matrix": [[1, 1], [0, 1]],
                "base": {"kind": "linear_pullback", "matrix": [[1, 0], [1, 1]], "base": {"kind": "round", "c": 1}},
            },
        ),
        "form: base: base: round: unknown key 'c'",
    ),
    "second_flow_hamiltonian_unknown_key": (
        dict(
            MINIMAL,
            map=[
                {"kind": "shear_a"},
                {"kind": "contact_flow", "hamiltonian": dict(MOMENTUM, cc=1), "t": 0.5},
            ],
        ),
        "map[1]: contact_flow: hamiltonian: momentum: unknown key 'cc'",
    ),
}
BAD_CONFIGS.update({name: data for name, (data, _) in UNKNOWN_KEY_CASES.items()})

# Descriptors with a missing field or that are not objects, with the text
# their error must carry; once these leaked raw Python text.
DESCRIPTOR_CASES = {
    "constant_missing_value": (
        dict(MINIMAL, form={"kind": "constant"}), "form: constant needs a 'value' parameter"
    ),
    "trig_term_missing_q_freq": (
        dict(MINIMAL, form={"kind": "trig", "terms": [{"amp": 0.1}]}),
        "form: terms[0]: term needs a 'q_freq' parameter",
    ),
    "map_entry_not_object": (dict(MINIMAL, map=["shear_a"]), "map[0]: unknown primitive kind None"),
    "trig_term_not_object": (
        dict(MINIMAL, form={"kind": "trig", "terms": ["x"]}), "form: terms[0]: unknown term kind None"
    ),
    "flow_missing_t": (
        dict(MINIMAL, map=[{"kind": "contact_flow", "hamiltonian": MOMENTUM}]),
        "map[0]: contact_flow needs a 't' parameter",
    ),
    "flow_hamiltonian_not_object": (_flow("momentum"), "map[0]: contact_flow: hamiltonian: unknown hamiltonian kind None"),
    "momentum_missing_c": (
        _flow({"kind": "momentum"}), "map[0]: contact_flow: hamiltonian: momentum needs a 'c' parameter"
    ),
    "trig_second_term_bad_amp": (
        dict(
            MINIMAL,
            form={"kind": "trig", "terms": [{"amp": 0.1, "q_freq": [1, 0]}, {"amp": "x", "q_freq": [0, 1]}]},
        ),
        "form: terms[1]: trig amp must be a finite number",
    ),
    "pullback_base_fractional_matrix": (
        dict(
            MINIMAL,
            form={
                "kind": "linear_pullback",
                "matrix": [[1, 1], [0, 1]],
                "base": {"kind": "linear_pullback", "matrix": [[1.5, 0], [0, 1]], "base": {"kind": "round"}},
            },
        ),
        "form: base: matrix entries must be integers",
    ),
    "pullback_base_not_object": (
        dict(MINIMAL, form={"kind": "linear_pullback", "matrix": [[1, 1], [0, 1]], "base": "round"}),
        "form: base: unknown form kind None",
    ),
}
BAD_CONFIGS.update({name: data for name, (data, _) in DESCRIPTOR_CASES.items()})


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2(tmp_path, capsys, name):
    path = write_config(tmp_path, BAD_CONFIGS[name])
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(NUMBER_FIELD_CASES))
def test_bad_number_field_is_named(tmp_path, capsys, name):
    data, message = NUMBER_FIELD_CASES[name]
    assert main(["validate", str(write_config(tmp_path, data))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(RUN_TIME_CASES))
def test_run_time_failure_is_a_config_error(tmp_path, capsys, name):
    data, message = RUN_TIME_CASES[name]
    assert main(["validate", str(write_config(tmp_path, data))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(UNKNOWN_KEY_CASES))
def test_unknown_key_is_named(tmp_path, capsys, name):
    data, message = UNKNOWN_KEY_CASES[name]
    assert main(["validate", str(write_config(tmp_path, data))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(DESCRIPTOR_CASES))
def test_bad_descriptor_is_named_by_validate_and_run(tmp_path, capsys, name):
    data, message = DESCRIPTOR_CASES[name]
    path = write_config(tmp_path, data)
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_lyapunov_grid_is_sampled_only_on_the_rows_the_chains_start_from(tmp_path):
    # The cat lift covers every base axis, so its chains start from one base row.
    data = dict(MINIMAL, map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}],
                tasks=[{"task": "lyapunov", "K": 8}], lyapunov_grid={"q_res": 10**12, "fiber_res": 8})
    path = write_config(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_shape_of_a_q_free_form_reads_one_base_point(tmp_path):
    # A million base points per axis, but the round form is read at q = 0.
    path = write_config(tmp_path, dict(MINIMAL, tasks=[{"task": "shape", "q_res": 10**6}]))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_validating_a_shape_task_builds_no_product_grid(monkeypatch):
    # Validation sizes a shape task's grid without filling it; the run
    # builds it once.
    calls = []
    for module in (geometry, shapes):
        build = module.grid_points
        monkeypatch.setattr(module, "grid_points",
                            lambda *args, build=build: calls.append(1) or build(*args))
    trig = dict(MINIMAL, form={"kind": "trig", "c0": 2.0, "terms": [{"amp": 0.5, "q_freq": [1, 0]}]})
    counts = []
    for tasks in ([{"task": "homology"}], [{"task": "homology"}, {"task": "shape"}]):
        calls.clear()
        validate_config(dict(trig, tasks=tasks))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1  # the positivity check on the config's grid


def test_lift_is_built_at_validation_and_inverted_once(tmp_path, monkeypatch):
    built = []
    init = CanonicalLift.__init__

    @functools.wraps(init)
    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CanonicalLift, "__init__", counting_init)
    cfg = load_config(REPO / "perfbench" / "inputs" / "lift2_round.json")
    first = run(cfg, out_dir=tmp_path / "first")
    second = run(cfg, out_dir=tmp_path / "second")
    assert len(built) == 2  # f at validation, and f^-1 once over both runs
    assert first["results"] == second["results"]


@pytest.fixture
def r_sequence_calls(monkeypatch):
    """The K of every dissipation.r_sequence call the runner makes."""
    calls = []
    r_sequence = dissipation.r_sequence

    def counting(f, form, K, grid=None):
        calls.append(K)
        return r_sequence(f, form, K, grid)

    monkeypatch.setattr(dissipation, "r_sequence", counting)
    return calls


CAT_LIFT = dict(MINIMAL, map=[{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}])


def test_one_r_sequence_per_k_in_either_task_order(tmp_path, r_sequence_calls):
    tasks = [{"task": "r_sequence", "K": 10}, {"task": "verify_bound", "K": 10}]
    docs = []
    for order, name in ((tasks, "usual"), (tasks[::-1], "swapped")):
        r_sequence_calls.clear()
        docs.append(run(validate_config(dict(CAT_LIFT, tasks=order)), out_dir=tmp_path / name))
        assert r_sequence_calls == [10]
    assert docs[1]["results"] == docs[0]["results"]
    for artifact in ("r_sequence.csv", "report.json"):
        assert (tmp_path / "swapped" / artifact).read_text() == (tmp_path / "usual" / artifact).read_text()


def test_verify_bound_fits_its_own_k(tmp_path, r_sequence_calls):
    tasks = [{"task": "r_sequence", "K": 10}, {"task": "verify_bound", "K": 12}]
    cfg = validate_config(dict(CAT_LIFT, tasks=tasks))
    res = run(cfg, out_dir=tmp_path)["results"]["verify_bound"]
    assert r_sequence_calls == [10, 12]
    r = dissipation.r_sequence(cfg.contact_map, cfg.form, 12, cfg.grid)
    est = dissipation.chi_estimate(r)
    assert res["chi_hat"] == est.chi_hat and res["chi_last"] == est.chi_last
    assert res["verdict"] == dissipation.classify(r, est, cfg.thresholds)


def test_nested_hamiltonian_takes_the_config_dimension():
    flow = {"kind": "contact_flow", "hamiltonian": {"kind": "modulated_norm", "eps": 0.1}, "t": 0.5}
    for n in (2, 3):
        cfg = validate_config(dict(MINIMAL, dimension=n, map=[flow]))
        assert cfg.contact_map.describe() == [
            dict(flow, hamiltonian={"kind": "modulated_norm", "eps": 0.1, "axis": 0, "n": n}, steps=256)
        ]


def test_every_unknown_key_is_reported():
    data = {
        "grid": {"q_res": 4, "fiber_res": 16, "fibre_res": 3},
        "tasks": [{"task": "r_sequence", "k": 5}],
        "tresholds": 1,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.errors == [
        "config: unknown key 'tresholds'",
        "grid: unknown key 'fibre_res'",
        "tasks[0]: unknown key 'k'",
    ]


@pytest.mark.parametrize(
    "task",
    [
        {"task": "displacement", "k_max": 8, "dir_res": 16, "matrix": [[2, 1], [1, 1]]},
        {"task": "growth", "mode": "abelian", "N": 10, "matrix": [[2, 1], [1, 1]], "classes": [[1, 0]]},
        {"task": "growth", "mode": "free", "rules": ["ab", "a"], "word": "a", "N": 5, "cap": 100},
        {"task": "duality", "metric": [[2, 0], [0, 1]], "classes": [[1, 0]], "dir_res": 16},
        {"task": "verify_bound", "K": 8, "tol": 0.1},
        {"task": "shape", "q_res": 4, "dir_res": 16},
    ],
    ids=lambda task: f"{task['task']}_{task.get('mode', '')}",
)
def test_every_documented_task_key_validates(task):
    validate_config(dict(MINIMAL, tasks=[task]))


@pytest.mark.parametrize(
    "path",
    sorted(REPO.glob("configs/*.json")) + sorted(REPO.glob("perfbench/inputs/*.json")),
    ids=lambda path: path.stem,
)
def test_bundled_configs_and_benchmark_inputs_have_only_known_keys(path):
    load_config(path)


def test_metric_norm_must_be_positive_definite(tmp_path, capsys):
    path = write_config(tmp_path, BAD_CONFIGS["metric_norm_indefinite_g"])
    assert main(["validate", str(path)]) == 2
    assert "map[0]: contact_flow: hamiltonian: metric must be positive definite" in capsys.readouterr().err


def test_integral_float_sizes_accepted():
    cfg = validate_config(
        dict(MINIMAL, dimension=2.0, grid={"q_res": 4.0, "fiber_res": 16}, seed=3.0)
    )
    assert cfg.n == 2 and cfg.grid.q_res == 4 and cfg.seed == 3


def test_integral_float_matrices_and_classes_accepted():
    cfg = validate_config(
        dict(
            MINIMAL,
            form={"kind": "linear_pullback", "matrix": [[1.0, 1], [0, 1]], "base": {"kind": "round"}},
            map=[{"kind": "canonical_lift", "matrix": [[2.0, 1], [1, 1.0]]}],
            tasks=[{"task": "growth", "matrix": [[2.0, 1], [1, 1]], "classes": [[1.0, 0]]}],
        )
    )
    assert cfg.tasks[0]["matrix"] == ((2, 1), (1, 1)) and cfg.tasks[0]["classes"] == [(1, 0)]
    assert cfg.form.describe()["matrix"] == [[1, 1], [0, 1]]
    assert cfg.contact_map.describe() == [{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}]


def test_abelian_growth_with_large_lengths_exits_0(tmp_path):
    # Word lengths pass 2^63 long before N = 100; the logs must still work.
    data = dict(
        MINIMAL,
        tasks=[{"task": "growth", "mode": "abelian", "matrix": [[2, 1], [1, 1]], "N": 100}],
    )
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "document.json").read_text())
    res = doc["results"]["growth"]
    assert res["rate"] == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-6)
    assert res["series"][-1][1] > 90.0


def test_growth_rates_match_the_library(tmp_path):
    cat = [[2, 1], [1, 1]]
    sigma = {"rules": ["ab", "a"], "word": "a", "N": 25}
    tasks = [
        {"task": "growth", "mode": "abelian", "matrix": cat, "classes": [[1, 0], [1, 1]]},
        dict(sigma, task="growth", mode="free"),
    ]
    doc = run(validate_config(dict(MINIMAL, tasks=tasks)), out_dir=tmp_path)
    abelian, free = doc["results"]["growth"], doc["results"]["growth_1"]
    assert abelian["rate"] == A.length_growth_rate(
        *(A.abelian_lengths(cat, g, 40) for g in [(1, 0), (1, 1)])
    )
    fib = A.FreeAutomorphism.from_strings(sigma["rules"])
    lengths = A.free_lengths(fib, A.parse_word("a"), 25, 10**6)
    assert free["rate"] == A.length_growth_rate(lengths)
    assert free["series"] == [[k, math.log(x)] for k, x in enumerate(lengths)]


def test_repeated_tasks_write_one_artifact_each(tmp_path):
    tasks = [
        {"task": "r_sequence", "K": 10},
        {"task": "growth", "mode": "abelian", "matrix": [[2, 1], [1, 1]], "N": 20},
        {"task": "r_sequence", "K": 12},
        {"task": "growth", "mode": "free", "rules": ["ab", "a"], "word": "a", "N": 12},
        {"task": "duality", "metric": [[1, 0], [0, 1]]},
        {"task": "duality", "metric": [[2, 0], [0, 1]]},
    ]
    doc = run(validate_config(dict(MINIMAL, tasks=tasks)), out_dir=tmp_path)
    results = doc["results"]
    assert list(results) == ["r_sequence", "growth", "r_sequence_2", "growth_3", "duality", "duality_5"]
    for task_id in ("r_sequence", "r_sequence_2", "growth", "growth_3"):
        with (tmp_path / f"{task_id}.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert [[int(r[0]), float(r[-1])] for r in rows] == results[task_id]["series"]
    assert results["growth"]["series"] != results["growth_3"]["series"]
    for task_id in ("duality", "duality_5"):
        assert json.loads((tmp_path / f"{task_id}.json").read_text()) == results[task_id]


def test_non_finite_lyapunov_frame_exits_3(tmp_path, capsys, monkeypatch):
    # A map that sends points to NaN validates; its Lyapunov chain is a
    # runtime error, never a NaN lyap_hat.
    monkeypatch.setitem(PRIMITIVES, NanStep.kind, (NanStep, {}))
    data = dict(MINIMAL, map=[{"kind": NanStep.kind}], tasks=[{"task": "lyapunov", "K": 8}])
    path = write_config(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "tangent frame norm is not positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "map_spec", [[], [{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}]],
    ids=["identity", "cat"],
)
def test_sign_changing_profile_exits_3(tmp_path, capsys, map_spec):
    # 0.1 + cos 8 pi q1 is 1.1 on the q_res = 4 lattice that validation
    # reads, and -0.9 at q1 = 1/8, which the run reads at --refine 2.
    data = dict(
        MINIMAL,
        form={"kind": "trig", "c0": 0.1, "terms": [{"amp": 1.0, "q_freq": [4, 0]}]},
        map=map_spec,
    )
    path = write_config(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--refine", "2"]) == 3
    assert "trig form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, message",
    [
        ({"task": "growth", "N": "abc"}, "growth N must be an integer >= 10"),
        ({"task": "displacement", "k_max": 1}, "displacement k_max must be an integer >= 8"),
        ({"task": "growth", "mode": "xyz"}, "growth mode must be one of abelian, free"),
    ],
)
def test_bad_task_parameter_is_named(tmp_path, capsys, task, message):
    path = write_config(tmp_path, dict(MINIMAL, tasks=[task]))
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_tasks_are_normalised_and_config_stays_raw(tmp_path):
    tasks = [{"task": "growth"}, {"task": "verify_bound", "K": 10.0}]
    data = dict(MINIMAL, tasks=tasks)
    cfg = validate_config(data)
    assert cfg.tasks == [
        {"task": "growth", "mode": "abelian", "N": 40, "matrix": None, "classes": None},
        {"task": "verify_bound", "K": 10, "tol": 0.05},
    ]
    assert data["tasks"] == [{"task": "growth"}, {"task": "verify_bound", "K": 10.0}]
    doc = run(cfg, out_dir=tmp_path)
    assert doc["config"] == data
    assert json.loads((tmp_path / "document.json").read_text())["config"]["tasks"] == tasks


def test_cli_catalog_lists_the_registries(capsys):
    assert main(["catalog"]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert {key: value.split(", ") for key, value in lines.items()} == {
        "primitives": list(PRIMITIVES),
        "hamiltonians": list(HAMILTONIANS),
        "forms": list(FORMS),
        "tasks": list(TASK_NAMES),
    }


# ---------------------------------------------------------------------------
# validate never raises: any JSON value exits 0 or 2
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
TASK_KEYS = [
    "K", "N", "cap", "classes", "dir_res", "k_max", "matrix", "metric", "mode",
    "q_res", "rules", "tol", "word",
]


def validate_exit(data) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        return main(["validate", str(path)])


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_validate_any_json_exits_0_or_2(data):
    assert validate_exit(data) in (0, 2)


@settings(max_examples=300, deadline=None)
@given(
    config=st.sampled_from(BUNDLED),
    index=st.integers(0, 9),
    name=st.sampled_from(TASK_NAMES),
    params=st.dictionaries(st.sampled_from(TASK_KEYS), JSON_VALUES, max_size=3),
)
def test_validate_mutated_bundled_task_exits_0_or_2(config, index, name, params):
    data = json.loads(config.read_text())
    task = data["tasks"][index % len(data["tasks"])]
    task.update(task=name, **params)
    assert validate_exit(data) in (0, 2)


def descriptors(data):
    """(descriptor, its fields) for the form, each map primitive and every
    descriptor nested in them: a pullback base, a trig term, a Hamiltonian."""
    out = []

    def visit(spec, kinds):
        if kinds is None:  # a trig term: TrigTerm's fields, no kind
            out.append((spec, descriptor_fields(TrigTerm)))
            return
        cls, fixed = kinds[spec["kind"]]
        out.append((spec, [name for name in descriptor_fields(cls) if name not in fixed]))
        for term in spec.get("terms", []):
            visit(term, None)
        for key, inner_kinds in (("base", FORMS), ("hamiltonian", HAMILTONIANS)):
            if key in spec:
                visit(spec[key], inner_kinds)

    visit(data.get("form", {"kind": "round"}), FORMS)
    for prim in data.get("map", []):
        visit(prim, PRIMITIVES)
    return out


DESCRIPTOR_KEYS = sorted(
    {name for kinds in (FORMS, PRIMITIVES, HAMILTONIANS) for cls, _ in kinds.values()
     for name in descriptor_fields(cls)} | set(descriptor_fields(TrigTerm)) | {"kind"}
)
DESCRIBED = BUNDLED + sorted((Path(__file__).resolve().parents[1] / "perfbench" / "inputs").glob("*.json"))


@settings(max_examples=300, deadline=None)
@given(
    config=st.sampled_from(DESCRIBED),
    choice=st.integers(0, 9),
    key=st.sampled_from(DESCRIPTOR_KEYS) | st.text(max_size=6),
    value=JSON_VALUES,
)
def test_validate_mutated_bundled_descriptor_exits_0_or_2(config, choice, key, value):
    data = json.loads(config.read_text())
    targets = descriptors(data)
    spec, known = targets[choice % len(targets)]
    spec[key] = value
    code = validate_exit(data)
    assert code in (0, 2)
    if key != "kind" and key not in known:
        assert code == 2


# ---------------------------------------------------------------------------
# run never raises: any JSON value or mutated bundled task exits 0..3
# ---------------------------------------------------------------------------

# Small numbers keep every run that validates short (K and N at most 12).
SMALL_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3.0, 12.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=9,
)


def run_exit(data) -> int:
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert "Traceback" not in stderr.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES)
def test_run_any_json_exits_0_to_3(data):
    assert run_exit(data) in (0, 1, 2, 3)


@settings(max_examples=25, deadline=None)
@given(
    config=st.sampled_from(BUNDLED),
    index=st.integers(0, 9),
    key=st.sampled_from(TASK_KEYS),
    value=SMALL_VALUES,
)
def test_run_bundled_config_with_a_changed_task_parameter_exits_0_to_3(config, index, key, value):
    data = json.loads(config.read_text())
    data["tasks"][index % len(data["tasks"])][key] = value
    assert run_exit(data) in (0, 1, 2, 3)


@settings(max_examples=50, deadline=None)
@given(JSON_VALUES)
def test_run_identity_config_with_any_seed_exits_0_to_3(seed):
    data = json.loads((REPO / "configs" / "identity.json").read_text())
    data["seed"] = seed
    assert run_exit(data) in (0, 1, 2, 3)
