import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import algebra as A
from contactlab.cli import main
from contactlab.geometry import FORMS
from contactlab.maps import HAMILTONIANS, PRIMITIVES
from contactlab.report import (
    TASK_NAMES,
    ConfigError,
    TaskError,
    emit_plot_data,
    load_config,
    run,
    validate_config,
)

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
            {"task": "duality", "metric": [[1, 0], [0, 1]], "q_res": 4},
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
    "duality_zero_q_res": dict(
        MINIMAL, tasks=[{"task": "duality", "metric": [[1, 0], [0, 1]], "q_res": 0}]
    ),
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


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2(tmp_path, capsys, name):
    path = write_config(tmp_path, BAD_CONFIGS[name])
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_integral_float_sizes_accepted():
    cfg = validate_config(
        dict(MINIMAL, dimension=2.0, grid={"q_res": 4.0, "fiber_res": 16}, seed=3.0)
    )
    assert cfg.n == 2 and cfg.grid.q_res == 4 and cfg.seed == 3


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
    assert abelian["rate"] == A.abelian_bar_s(cat, [(1, 0), (1, 1)], 40)
    fib = A.FreeAutomorphism.from_strings(sigma["rules"])
    assert free["rate"] == A.free_growth(fib, A.parse_word("a"), 25)
    lengths = A.free_lengths(fib, A.parse_word("a"), 25, 10**6)
    assert free["series"] == [[k, math.log(x)] for k, x in enumerate(lengths)]


@pytest.mark.parametrize(
    "map_spec", [[], [{"kind": "canonical_lift", "matrix": [[2, 1], [1, 1]]}]],
    ids=["identity", "cat"],
)
def test_sign_changing_profile_exits_3(tmp_path, capsys, map_spec):
    data = dict(
        MINIMAL,
        form={"kind": "trig", "c0": 0.1, "terms": [{"amp": 1.0, "q_freq": [1, 0]}]},
        map=map_spec,
    )
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
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
