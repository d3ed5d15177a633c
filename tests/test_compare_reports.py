"""The comparison of scripts/compare_reports.py on synthetic worker runs, and
its config set; no CLI run is started."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(code=0, results=None, stderr=""):
    return {"code": code, "results": results, "stderr": stderr}


def runs(eval_results, resources_results, verify_code=0, prepare=None):
    return {
        "eval": run(results=eval_results),
        "resources": run(results=resources_results),
        "verify": run(code=verify_code, stderr="error: check\n" if verify_code else ""),
        "prepare-state": prepare or run(3, stderr="resource limit: ... (requires 23 qubits)\n"),
    }


EVAL = {"output": [0.25, -0.5], "ledger": {"x": 6, "w0[0]": 1}, "ancillas": 7,
        "readout": [{"value": 0.2, "stderr": 0.03, "shots": 1000}]}
RESOURCES = {"aux_totals": [1, 7], "exact_cost": [1.0, 10.0], "reconciled": True}


def test_equal_reports_have_no_mismatch_and_zero_deviations(compare_reports):
    side = {"a": runs(EVAL, RESOURCES)}
    out = compare_reports.compare(side, side)
    assert out["runs"] == 4 and out["mismatches"] == []
    assert out["exit_codes"] == {"0": 3, "3": 1}
    assert out["max_deviation"] == {
        "eval/output": 0.0, "eval/readout/stderr": 0.0, "eval/readout/value": 0.0,
    }


def test_floats_deviate_and_everything_else_must_match(compare_reports):
    parent = {"a": runs(EVAL, RESOURCES), "b": runs(EVAL, RESOURCES)}
    moved = dict(EVAL, output=[0.25 + 3e-17, -0.5 - 1e-16])
    change = {
        "a": runs(moved, RESOURCES),
        "b": runs(dict(EVAL, ledger={"x": 5, "w0[0]": 1}, ancillas=6),
                  dict(RESOURCES, exact_cost=[1.0, 10.000000000000002]),
                  verify_code=1,
                  prepare=run(3, stderr="resource limit: ... (requires 22 qubits)\n")),
    }
    out = compare_reports.compare(parent, change)
    assert out["max_deviation"]["eval/output"] == pytest.approx(1e-16)
    assert out["mismatches"] == [
        "b eval eval/ledger/x: 6 != 5",
        "b eval eval/ancillas: 7 != 6",
        "b resources resources/exact_cost: 10.0 != 10.000000000000002",
        "b verify: exit 0 != 1",
        "b prepare-state: exit 3 requires 23 != 22 qubits",
    ]


def test_shape_changes_and_one_sided_runs_are_mismatches(compare_reports):
    parent = {"a": runs(EVAL, RESOURCES), "gone": runs(EVAL, RESOURCES)}
    change = {"a": runs(dict(EVAL, output=[0.25]), dict(RESOURCES, extra=1))}
    out = compare_reports.compare(parent, change)
    assert "a eval eval/output: 2 entries != 1" in out["mismatches"]
    assert any(m.startswith("a resources resources: keys") for m in out["mismatches"])
    assert sum(m.startswith("gone ") for m in out["mismatches"]) == 4


def test_nan_on_one_side_is_an_infinite_deviation(compare_reports):
    parent = {"a": runs(dict(EVAL, output=[math.nan, 0.1]), RESOURCES)}
    change = {"a": runs(dict(EVAL, output=[math.nan, math.nan]), RESOURCES)}
    out = compare_reports.compare(parent, change)
    assert out["max_deviation"]["eval/output"] == math.inf and out["mismatches"] == []


def test_configs_cover_every_shape_encoder_readout_and_perturbation(compare_reports):
    named = compare_reports.configs(seed=3)
    # the 10 compile shapes, the N = 64 layer of the probe guard and the K = 8
    # layer, 8 variants each, and the 5 training runs
    assert len(compare_reports.SHAPES) == 12 and len(compare_reports.VARIANTS) == 8
    assert len(named) == 12 * 8 + len(compare_reports.TRAINING) == 101
    assert sum(len(c["layers"][-1]["weights"][0][0]) == 8 for c in named.values()) == 8
    shaped = [c for c in named.values() if "train" not in c]
    assert sum(len(c["input"]) == 64 for c in shaped) == len(compare_reports.VARIANTS)
    assert {c["encoder"] for c in shaped} == {"exact", "stateprep", "real_weights"}
    assert {c["readout"]["mode"] for c in shaped} == {"exact", "shots"}
    assert {"perturb" in c for c in shaped} == {True, False}
    assert {c.get("max_qubits") for c in shaped} == {None, 14}
    for config in shaped:
        assert compare_reports.commands(config) == compare_reports.COMMANDS
        norm = math.fsum(v * v for v in config["input"])
        if config["encoder"] == "stateprep":
            assert norm == pytest.approx(1.0)
        elif config["encoder"] == "real_weights":
            assert norm == pytest.approx(0.25)
    trained = [c for c in named.values() if "train" in c]
    assert [(c["train"]["optimizer"], c["train"]["readout"]) for c in trained] == [
        ("finite_difference", "exact"), ("finite_difference", "classical"), ("spsa", "shots"),
        ("spsa", "exact"), ("finite_difference", "exact")]
    assert [len(c["layers"]) for c in trained] == [2, 2, 2, 3, 1]
    assert all(compare_reports.commands(c) == compare_reports.COMMANDS + ("train",) for c in trained)
    assert compare_reports.configs(seed=3) == named  # seeded


def test_train_runs_are_compared_like_the_others(compare_reports):
    train = {"losses": [0.1, 0.05], "stop_reason": "iterations", "iterations_run": 1}
    parent = {"t": dict(runs(EVAL, RESOURCES), train=run(results=train))}
    change = {"t": dict(runs(EVAL, RESOURCES),
                        train=run(results=dict(train, losses=[0.1, 0.05 + 1e-17],
                                               stop_reason="plateau")))}
    out = compare_reports.compare(parent, change)
    assert out["runs"] == 5 and out["max_deviation"]["train/losses"] == pytest.approx(1e-17)
    assert out["mismatches"] == ["t train train/stop_reason: 'iterations' != 'plateau'"]
    del change["t"]["train"]
    assert compare_reports.compare(parent, change)["mismatches"] == ["t train: run on one side only"]


def test_each_field_names_the_run_of_its_largest_deviation(compare_reports):
    parent = {"a": runs(EVAL, RESOURCES), "b": runs(EVAL, RESOURCES), "c": runs(EVAL, RESOURCES)}
    change = {
        "a": runs(dict(EVAL, output=[0.25 + 1e-16, -0.5]), RESOURCES),
        "b": runs(dict(EVAL, output=[0.25, -0.5 - 2e-16]), RESOURCES),
        "c": runs(dict(EVAL, output=[0.25, -0.5 - 2e-16]), RESOURCES),
    }
    out = compare_reports.compare(parent, change)
    assert out["max_deviation"]["eval/output"] == pytest.approx(2e-16)
    # the first run that reaches the largest deviation; null where nothing moved
    assert out["max_deviation_at"] == {
        "eval/output": "b/eval", "eval/readout/stderr": None, "eval/readout/value": None,
    }
    assert list(out["max_deviation_at"]) == list(out["max_deviation"])
