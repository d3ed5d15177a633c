import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qkan import block_encoding, cli, operators
from qkan.cli import main
from qkan.config import ConfigError, load_config
from qkan.resources import analytic_cost


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def hand_config(tmp_path):
    """N=2, K=1, d=1, all weights 1, x=(1,-1): output 0.5."""
    return write_config(
        tmp_path,
        {
            "input": [1.0, -1.0],
            "layers": [
                {"in": 2, "out": 1, "degree": 1, "weights": [[[1.0], [1.0]], [[1.0], [1.0]]]}
            ],
            "seed": 3,
        },
    )


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_eval_hand_example(hand_config, capsys):
    code, report = run(["eval", "--config", hand_config, "--no-timestamp"], capsys)
    assert code == 0
    assert report["results"]["output"] == pytest.approx([0.5])
    assert report["results"]["oracle"] == pytest.approx([0.5])
    assert report["results"]["max_err"] <= 1e-9
    assert report["config"]["layers"][0]["weights"]  # resolved config embedded


def test_eval_deterministic_bytes(hand_config, tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["eval", "--config", hand_config, "--no-timestamp", "--out", str(out_a)]) == 0
    assert main(["eval", "--config", hand_config, "--no-timestamp", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_timestamp_toggle(hand_config, capsys):
    _, with_ts = run(["eval", "--config", hand_config], capsys)
    assert "timestamp" in with_ts
    _, without = run(["eval", "--config", hand_config, "--no-timestamp"], capsys)
    assert "timestamp" not in without


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_subcommand_help_lists_the_shared_options(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\noptions:")[0]
    pad = " " * len(f"usage: qkan {command} ")
    trace = " [--trace TRACE]" if command == "train" else ""
    assert usage == (
        f"usage: qkan {command} [-h] --config CONFIG [--out OUT] [--seed SEED]\n"
        f"{pad}[--no-timestamp] [--max-qubits MAX_QUBITS]{trace}"
    )


def test_missing_config_exits_2(capsys):
    assert main(["eval", "--config", "/nonexistent/config.json"]) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["eval", "--config", str(path)]) == 2


def test_inconsistent_dims_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path, {"input": [0.5], "layers": [{"in": 2, "out": 1, "degree": 1}]}
    )
    assert main(["eval", "--config", path]) == 2


def test_budget_exceeded_exits_3(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "input": [0.1, 0.2],
            "layers": [
                {"in": 2, "out": 2, "degree": 3, "weight_seed": 1},
                {"in": 2, "out": 1, "degree": 3, "weight_seed": 2},
            ],
        },
    )
    assert main(["eval", "--config", path, "--max-qubits", "8"]) == 3


def test_max_qubits_option_does_not_outlive_main(hand_config, tmp_path, capsys):
    before = operators.max_qubits()
    assert main(["eval", "--config", hand_config, "--max-qubits", "12"]) == 0
    assert operators.max_qubits() == before
    too_small = write_config(
        tmp_path,
        {"input": [0.1, 0.2], "layers": [{"in": 2, "out": 1, "degree": 3, "weight_seed": 1}]},
        name="small.json",
    )
    assert main(["eval", "--config", too_small, "--max-qubits", "4"]) == 3
    assert operators.max_qubits() == before


def test_verify_command_passes(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "input": [0.4, -0.8],
            "layers": [{"in": 2, "out": 2, "degree": 2, "weight_seed": 7}],
            "perturb": {"eps_x": 1e-4, "eps_w": 0.0},
        },
    )
    code, report = run(["verify", "--config", path, "--no-timestamp"], capsys)
    assert code == 0
    checks = report["results"]["checks"]
    assert report["results"]["passed"] is True
    bound_checks = [c for c in checks if c["name"] == "layer/error_bound"]
    assert bound_checks and bound_checks[0]["bound"] == pytest.approx(0.08, rel=1e-6)


def test_verify_checks_the_whole_network_of_a_multilayer_config(tmp_path, hand_config, capsys):
    from qkan.resources import analytic_cost

    path = write_config(
        tmp_path,
        {
            "input": [0.4, -0.8],
            "layers": [
                {"in": 2, "out": 2, "degree": 2, "weight_seed": 7},
                {"in": 2, "out": 1, "degree": 3, "weight_seed": 8},
            ],
        },
        name="two_layers.json",
    )
    code, report = run(["verify", "--config", path, "--no-timestamp"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in report["results"]["checks"]}
    network = [checks.get(name) for name in
               ("network/ancilla_count", "network/query_reconcile", "network/oracle_match")]
    assert all(c is not None and c["passed"] for c in network)
    aux = analytic_cost(load_config(path).spec).aux_totals[-1]
    assert checks["network/ancilla_count"]["detail"] == f"a = {aux}, formula = {aux}"
    assert checks["network/oracle_match"]["bound"] == 1e-9
    assert checks["network/oracle_match"]["measured"] <= 1e-9
    # a single-layer config is covered by the layer checks alone
    _, single = run(["verify", "--config", hand_config, "--no-timestamp"], capsys)
    assert not [c for c in single["results"]["checks"] if c["name"].startswith("network/")]


def test_resources_command(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "input": [0.3, -0.3, 0.6, 0.0],
            "layers": [{"in": 4, "out": 4, "degree": 3, "weight_seed": 5}],
            "readout": {"delta": 0.01},
        },
    )
    code, report = run(["resources", "--config", path, "--no-timestamp"], capsys)
    assert code == 0
    results = report["results"]
    assert results["per_layer"][0]["input_applications"] == 6
    assert results["per_layer"][0]["weight_applications"] == 4
    assert results["aux_totals"] == [1, 7]
    assert results["built_ancillas"] == 7  # a_x + 1 + a_w + log2(d+1) + n with n = 2
    assert results["reconciled"] is True
    assert results["readout_queries"]["hadamard_test_sampling"] > 0


def test_prepare_state_command(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "input": [1.0, -1.0],
            "layers": [
                {
                    "in": 2,
                    "out": 2,
                    "degree": 1,
                    "weights": [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                }
            ],
        },
    )
    code, report = run(["prepare-state", "--config", path, "--no-timestamp"], capsys)
    assert code == 0
    results = report["results"]
    assert results["success_prob"] == pytest.approx(0.25, abs=1e-9)
    assert results["l2_error"] <= 1e-9


def test_package_error_exits_1(tmp_path, capsys):
    """All-zero weights leave nothing to post-select: prepare-state raises a
    package error (exit 1), while eval reads the zero outputs (exit 0)."""
    zero = {"in": 2, "out": 2, "degree": 1, "weights": [[[0.0, 0.0]] * 2] * 2}
    path = write_config(tmp_path, {"input": [0.1, 0.2], "layers": [zero]})
    assert main(["prepare-state", "--config", path, "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: post-selection probability 0.0 is numerically zero")
    assert main(["eval", "--config", path, "--no-timestamp"]) == 0


def test_train_command_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    path = write_config(
        tmp_path,
        {
            "input": [0.0, 0.0],
            "layers": [{"in": 2, "out": 1, "degree": 3, "weights": np.zeros((4, 2, 1)).tolist()}],
            "train": {
                "optimizer": "finite_difference",
                "eta": 25.0,
                "h": 1e-4,
                "iterations": 20,
                "readout": "classical",
                "loss_goal": 1e-4,
                "data": {
                    "grid_points_per_axis": 4,
                    "target": {"kind": "cheb2_mean", "scale": 0.25},
                },
            },
        },
    )
    code, report = run(
        ["train", "--config", path, "--no-timestamp", "--trace", str(trace)], capsys
    )
    assert code == 0
    assert report["results"]["final_loss"] < 1e-4
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss"
    assert len(lines) == len(report["results"]["losses"]) + 1


def test_shots_readout_in_eval(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "input": [1.0, -1.0],
            "layers": [
                {"in": 2, "out": 1, "degree": 1, "weights": [[[1.0], [1.0]], [[1.0], [1.0]]]}
            ],
            "readout": {"mode": "shots", "shots": 100000, "seed": 11},
        },
    )
    code, report = run(["eval", "--config", path, "--no-timestamp"], capsys)
    assert code == 0
    readout = report["results"]["readout"]
    assert abs(readout[0]["value"] - 0.5) < 0.02


def test_alternate_encoder_routes(tmp_path, capsys):
    base = {
        "layers": [{"in": 2, "out": 2, "degree": 1, "weight_seed": 4}],
    }
    unit = [3 / 5, 4 / 5]
    path = write_config(tmp_path, {**base, "input": unit, "encoder": "stateprep"})
    code, report = run(["eval", "--config", path, "--no-timestamp"], capsys)
    assert code == 0 and report["results"]["max_err"] <= 1e-9

    path = write_config(tmp_path, {**base, "input": [0.3, -0.4], "encoder": "real_weights"})
    code, report = run(["eval", "--config", path, "--no-timestamp"], capsys)
    assert code == 0 and report["results"]["max_err"] <= 1e-9

    # stateprep needs a unit-norm input
    path = write_config(tmp_path, {**base, "input": [0.3, -0.4], "encoder": "stateprep"})
    assert main(["eval", "--config", path, "--no-timestamp"]) == 2


@pytest.mark.parametrize("encoder, x", [("stateprep", [3 / 5, 4 / 5]), ("real_weights", [0.3, -0.4])])
def test_resources_reconciles_every_input_encoder(tmp_path, encoder, x, capsys):
    payload = {
        "input": x,
        "encoder": encoder,
        "layers": [
            {"in": 2, "out": 2, "degree": 2, "weight_seed": 4},
            {"in": 2, "out": 1, "degree": 1, "weight_seed": 5},
        ],
    }
    code, report = run(["resources", "--config", write_config(tmp_path, payload), "--no-timestamp"], capsys)
    results = report["results"]
    assert code == 0 and results["reconciled"] and results["diffs"] == {}
    assert results["built_ancillas"] == results["aux_totals"][-1]
    assert results["observed_ledger"] == results["expected_ledger"]
    queries = 2 if encoder == "real_weights" else 1  # psi and psi^dagger
    assert results["expected_ledger"]["x"] == 3 * queries
    assert isinstance(results["expected_ledger"]["x"], int)


def test_finite_difference_training_with_shots_readout_exits_2(tmp_path, capsys):
    payload = {
        "input": [0.1, 0.2],
        "layers": [{"in": 2, "out": 1, "degree": 1, "weight_seed": 1}],
        "train": {"iterations": 2, "readout": "shots", "shots": 100,
                  "data": {"grid_points_per_axis": 2}},
    }
    assert main(["train", "--config", write_config(tmp_path, payload)]) == 2
    assert "SPSA" in capsys.readouterr().err
    payload["train"]["optimizer"] = "spsa"
    code, report = run(["train", "--config", write_config(tmp_path, payload), "--no-timestamp"], capsys)
    assert code == 0 and report["results"]["iterations_run"] == 2


def test_seed_override(tmp_path):
    payload = {
        "input": [0.1, 0.2],
        "layers": [{"in": 2, "out": 1, "degree": 1}],  # seeded weights
    }
    path = write_config(tmp_path, payload)
    a = load_config(path, seed_override=None)
    b = load_config(path, seed_override=123)
    assert not np.allclose(a.spec.layers[0].weights, b.spec.layers[0].weights)


def test_config_error_messages(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    path = write_config(tmp_path, {"input": [0.1], "layers": []})
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("field", ["input", "weights"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_input_or_weights_exit_2(tmp_path, field, value, capsys):
    """JSON as Python writes it accepts NaN and Infinity; the config rejects both."""
    layer = {"in": 2, "out": 1, "degree": 1, "weights": [[[0.5], [0.5]], [[0.5], [0.5]]]}
    payload = {"input": [0.1, 0.2], "layers": [layer]}
    if field == "input":
        payload["input"][1] = value
    else:
        layer["weights"][1][0][0] = value
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="finite"):
        load_config(path)
    assert main(["eval", "--config", path]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["eval", "verify", "resources"])
def test_input_outside_the_unit_interval_exits_2(tmp_path, command, capsys):
    path = write_config(tmp_path, {"input": [1.5, 0.2], "layers": [{"in": 2, "out": 1, "degree": 1}]})
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "[-1, 1]" in captured.err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_max_qubits_option_exits_2(hand_config, value, capsys):
    assert main(["eval", "--config", hand_config, "--max-qubits", value]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", [0, -3])
def test_non_positive_max_qubits_in_config_exits_2(tmp_path, value, capsys):
    path = write_config(
        tmp_path,
        {"input": [0.1, 0.2], "layers": [{"in": 2, "out": 1, "degree": 1}], "max_qubits": value},
    )
    assert main(["eval", "--config", path]) == 2
    assert capsys.readouterr().out == ""


def test_max_qubits_in_config_is_the_budget(tmp_path, capsys):
    payload = {"input": [0.1, 0.2], "layers": [{"in": 2, "out": 1, "degree": 3}], "max_qubits": 4}
    assert main(["eval", "--config", write_config(tmp_path, payload)]) == 3
    # the option overrides the config
    assert main(["eval", "--config", write_config(tmp_path, payload), "--max-qubits", "22"]) == 0


SHOTS_CONFIG = {
    "input": [0.1, 0.2],
    "layers": [{"in": 2, "out": 2, "degree": 1, "weight_seed": 1}],
    "readout": {"mode": "shots", "shots": 100, "seed": 4},
}


def with_field(path, value):
    """SHOTS_CONFIG with the entry at the dotted `path` set to `value`."""
    payload = copy.deepcopy(SHOTS_CONFIG)
    keys = [int(key) if key.isdigit() else key for key in path.split(".")]
    target = payload
    for key in keys[:-1]:
        target = target[key] if isinstance(key, int) else target.setdefault(key, {})
    target[keys[-1]] = value
    return payload


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("eval", "node", 1.5),
        ("eval", "node", "a"),
        ("eval", "node", 2),
        ("eval", "node", -1),
        ("eval", "node", True),
        ("eval", "shots", -5),
        ("eval", "shots", 0),
        ("eval", "shots", 2.7),
        ("eval", "seed", -1),
        ("resources", "delta", "x"),
        ("resources", "delta", -1),
        ("resources", "delta", 0),
        ("resources", "delta", float("nan")),
    ],
)
def test_bad_readout_field_exits_2(tmp_path, command, field, value, capsys):
    path = write_config(tmp_path, with_field(f"readout.{field}", value))
    assert main([command, "--config", path, "--no-timestamp"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("eval", "shots", 1),
        ("eval", "shots", 100),
        ("resources", "shots", 100),
        ("eval", "node", 0),
        ("eval", "node", 1),
        ("verify", "node", 1),
    ],
)
def test_shot_field_in_exact_readout_exits_2(tmp_path, command, field, value, capsys):
    """Exact mode reads no shots and every node: a shot count or a node
    there would be echoed in the report and then ignored."""
    payload = {**SHOTS_CONFIG, "readout": {"mode": "exact", field: value}}
    assert main([command, "--config", write_config(tmp_path, payload), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"readout.{field}" in captured.err


@pytest.mark.parametrize("field, value", [("shots", 0), ("delta", 0.05)])
def test_exact_readout_accepts_zero_shots_and_a_delta(tmp_path, field, value, capsys):
    payload = {**SHOTS_CONFIG, "readout": {"mode": "exact", field: value}}
    path = write_config(tmp_path, payload)
    for command in ("eval", "resources"):
        code, report = run([command, "--config", path, "--no-timestamp"], capsys)
        assert code == 0 and report["config"]["readout"][field] == value


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("eval", "layers.0.degree", 1.5),
        ("eval", "layers.0.weight_seed", 1.5),
        ("eval", "layers.0.out", "2"),
        ("eval", "seed", 1.5),
        ("eval", "seed", True),
        ("eval", "seed", -1),
        ("verify", "seed", -1),
        ("eval", "perturb.eps_x", -1e-3),
        ("eval", "perturb.eps_x", float("nan")),
        ("eval", "perturb.eps_w", -1e-3),
        ("eval", "perturb.seed", 0.5),
        ("eval", "max_qubits", 12.5),
    ],
)
def test_non_strict_config_number_exits_2(tmp_path, command, path, value, capsys):
    config = write_config(tmp_path, with_field(path, value))
    assert main([command, "--config", config, "--no-timestamp"]) == 2
    assert capsys.readouterr().out == ""


def test_negative_seed_option_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, SHOTS_CONFIG)
    assert main(["verify", "--config", path, "--seed", "-1"]) == 2


def test_integral_float_numbers_are_accepted(tmp_path, capsys):
    payload = with_field("readout.shots", 100.0)
    payload["layers"][0]["degree"] = 1.0
    code, report = run(["eval", "--config", write_config(tmp_path, payload), "--no-timestamp"], capsys)
    assert code == 0
    assert report["config"]["readout"]["shots"] == 100
    assert report["config"]["layers"][0]["degree"] == 1


TRAIN_CONFIG = {
    "input": [0.1, 0.2],
    "layers": [{"in": 2, "out": 1, "degree": 1, "weight_seed": 1}],
    "train": {"optimizer": "spsa", "iterations": 2, "data": {"grid_points_per_axis": 2}},
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("loss_goal", "x"),
        ("loss_goal", -1.0),
        ("loss_goal", float("nan")),
        ("eta", float("nan")),
        ("eta", float("inf")),
        ("eta", "25"),
        ("eta", -1.0),
        ("h", 0.0),
        ("h", float("nan")),
        ("c", -0.1),
        ("c", float("inf")),
        ("readout", "shots"),  # and no shot count
        ("shots", 0),
    ],
)
def test_bad_train_number_exits_2(tmp_path, field, value, capsys):
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["train"][field] = value
    if field == "shots":
        payload["train"]["readout"] = "shots"
    assert main(["train", "--config", write_config(tmp_path, payload), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")


@pytest.mark.parametrize("readout", ["exact", "classical"])
def test_shot_count_on_a_training_readout_without_shots_exits_2(tmp_path, readout, capsys):
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["train"].update(readout=readout, shots=100)
    assert main(["train", "--config", write_config(tmp_path, payload), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "takes no shot count" in captured.err


@pytest.mark.parametrize("budget, code", [(4, 3), (5, 0), (8, 0)])
def test_train_exits_3_exactly_below_the_layer_qubits(tmp_path, budget, code, capsys):
    """The d = 1 layer takes 5 qubits. At 5 its four samples run one at a
    time; at 8 the two SPSA candidates share one register of 3 qubits."""
    path = write_config(tmp_path, TRAIN_CONFIG)
    assert main(["train", "--config", path, "--no-timestamp", "--max-qubits", str(budget)]) == code


def test_spsa_shots_training_exits_0(tmp_path, capsys):
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["train"].update(readout="shots", shots=100, loss_goal=0.0)
    code, report = run(["train", "--config", write_config(tmp_path, payload), "--no-timestamp"], capsys)
    assert code == 0 and report["results"]["iterations_run"] == 2


@pytest.mark.parametrize(
    "data",
    [{"xs": [], "ys": []}, {"xs": [[]], "ys": [[]]}, {"xs": [[0.1, 0.2]], "ys": []},
     {"xs": [[0.1, 0.2, 0.3]], "ys": [[0.1, 0.2]]}, {"xs": [[0.1, 0.2]]}],
)
def test_train_data_of_the_wrong_shape_exits_2(tmp_path, data, capsys):
    payload = with_field("train", {"iterations": 2, "data": data})
    assert main(["train", "--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize(
    "path, value, section",
    [
        ("readout", 5, "readout"),
        ("perturb", [], "perturb"),
        ("train", 5, "train"),
        ("train", {"data": {"target": 3}}, "train.data.target"),
        ("layers", 5, "layers"),
    ],
)
def test_config_section_of_the_wrong_type_exits_2(tmp_path, command, path, value, section, capsys):
    config = write_config(tmp_path, with_field(path, value))
    assert main([command, "--config", config, "--no-timestamp"]) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ConfigError, match=section):
        load_config(config)


@pytest.mark.parametrize("node", [None, 1])
def test_eval_shots_applies_the_output_operator_once(tmp_path, monkeypatch, node, capsys):
    """The diagonal and every Hadamard test come from one application of U."""
    applied = []
    real_build = cli.build_network

    def counting_build(*args, **kwargs):
        built = real_build(*args, **kwargs)
        # the factors between the ancilla-only ends that read_block peels
        op = block_encoding._peel(built.output.op, built.output.live_aux)[1]
        inner = op._apply

        def counted(cols):
            applied.append(cols.shape[1])
            return inner(cols)

        object.__setattr__(op, "_apply", counted)  # on this instance only
        return built

    monkeypatch.setattr(cli, "build_network", counting_build)
    payload = with_field("readout.node", node) if node is not None else SHOTS_CONFIG
    code, report = run(["eval", "--config", write_config(tmp_path, payload), "--no-timestamp"], capsys)
    assert code == 0
    assert applied == [1]  # one column |0>_aux (x) sum_j |j> reads the whole diagonal
    assert len(report["results"]["readout"]) == (2 if node is None else 1)


def test_shots_eval_budget_counts_the_hadamard_control_qubit(tmp_path, capsys):
    path = write_config(tmp_path, SHOTS_CONFIG)
    config = load_config(path)
    out = cli.build_network(cli._input_encoding(config), config.spec).output
    n = out.num_aux + out.num_system
    assert main(["eval", "--config", path, "--max-qubits", str(n)]) == 3
    assert main(["eval", "--config", path, "--max-qubits", str(n + 1)]) == 0
    exact = write_config(tmp_path, {**SHOTS_CONFIG, "readout": {"mode": "exact"}}, name="exact.json")
    assert main(["eval", "--config", exact, "--max-qubits", str(n)]) == 0


# the perturbation example of the roadmap's known defects
PERTURBED_LAYER = {
    "input": [0.3, -0.5],
    "layers": [{"in": 2, "out": 1, "degree": 2,
                "weights": [[[0.1], [0.2]], [[0.3], [-0.4]], [[0.5], [0.6]]]}],
}


@pytest.mark.parametrize("field, eps", [("eps_x", 1.0), ("eps_w", 1.0), ("eps_w", 1.5)])
def test_perturbation_below_2_evaluates(tmp_path, field, eps, capsys):
    """These sizes made the proportional rescaling give up (exit 1)."""
    path = write_config(tmp_path, {**PERTURBED_LAYER, "perturb": {field: eps}})
    code, report = run(["eval", "--config", path, "--no-timestamp"], capsys)
    assert code == 0
    assert report["results"]["ledger"] == {"w0[0]": 1, "w0[1]": 1, "w0[2]": 1, "x": 3}


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("field", ["eps_x", "eps_w"])
@pytest.mark.parametrize("eps", [2.0, 2.5])
def test_perturbation_of_2_or_more_exits_2(tmp_path, command, field, eps, capsys):
    """Two unitaries are never more than 2 apart."""
    path = write_config(tmp_path, {**PERTURBED_LAYER, "perturb": {field: eps}})
    assert main([command, "--config", path, "--no-timestamp"]) == 2
    assert "perturb" in capsys.readouterr().err


# one layer width per network node, a degree per layer, the readout mode, and
# the offset of the budget from the layout qubits the command needs
fuzzed_networks = st.tuples(
    st.lists(st.sampled_from([1, 2, 4]), min_size=2, max_size=4),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.sampled_from(["exact", "shots"]),
    st.integers(-2, 1),
    st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fuzzed_networks)
def test_fuzzed_budget_exits_3_exactly_above_the_layout_qubits(tmp_path_factory, network):
    """eval, resources and prepare-state exit 3 exactly when the ancillas of the
    analytic model plus the output qubits (plus the Hadamard control of a
    shots eval) exceed --max-qubits, and an exact eval that runs matches the
    independent oracle."""
    widths, degrees, mode, offset, seed = network
    rng = np.random.default_rng(seed)
    weights = [
        rng.uniform(-1.0, 1.0, (degree + 1, n_in, n_out))
        for n_in, n_out, degree in zip(widths, widths[1:], degrees)
    ]
    x = rng.uniform(-1.0, 1.0, widths[0])
    payload = {
        "input": x.tolist(),
        "layers": [
            {"in": w.shape[1], "out": w.shape[2], "degree": w.shape[0] - 1, "weights": w.tolist()}
            for w in weights
        ],
        "readout": {"mode": mode, "shots": 100 if mode == "shots" else 0, "seed": seed},
    }
    path = write_config(tmp_path_factory.mktemp("fuzz"), payload)
    spec = load_config(path).spec
    layout = analytic_cost(spec).aux_totals[-1] + spec.layers[-1].n_qubits_out
    for command in ("eval", "resources", "prepare-state"):
        needed = layout + (command == "eval" and mode == "shots")
        budget = max(needed + offset, 1)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([command, "--config", path, "--no-timestamp", "--max-qubits", str(budget)])
        assert code == (3 if needed > budget else 0), (command, budget, needed)
        if command == "eval" and mode == "exact" and code == 0:
            output = json.loads(buffer.getvalue())["results"]["output"]
            assert np.max(np.abs(np.array(output) - oracles.network_forward(x, weights))) <= 1e-9


def shots_training_config(shots):
    """TRAIN_CONFIG with shots readout for both eval and SPSA training."""
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["readout"] = {"mode": "shots", "shots": shots, "seed": 4}
    payload["train"].update(readout="shots", shots=shots)
    return payload


@pytest.mark.parametrize("command, path", [("eval", "readout.shots"), ("train", "train.shots")])
def test_shot_count_of_2_to_the_63_or_more_exits_2(tmp_path, command, path, capsys):
    payload = shots_training_config(100)
    section, key = path.split(".")
    payload[section][key] = 2**63
    assert main([command, "--config", write_config(tmp_path, payload), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")


def test_shot_counts_just_below_2_to_the_63_are_accepted(tmp_path, capsys):
    path = write_config(tmp_path, shots_training_config(2**63 - 1))
    code, report = run(["resources", "--config", path, "--no-timestamp"], capsys)
    assert code == 0 and report["config"]["readout"]["shots"] == 2**63 - 1


# the network's exact cost is C = 3: C / delta^2 overflows at 1e-300 and
# underflows to 0 at 1e300, while 1e-150 and 1e150 give finite positive counts
@pytest.mark.parametrize("delta, code", [(1e-300, 2), (1e300, 2), (1e-150, 0), (1e150, 0)])
def test_readout_delta_without_finite_positive_counts_exits_2(tmp_path, delta, code, capsys):
    path = write_config(tmp_path, with_field("readout.delta", delta))
    assert main(["resources", "--config", path, "--no-timestamp"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("config error: readout.delta")
    else:
        counts = json.loads(captured.out)["results"]["readout_queries"]
        assert 0 < counts["hadamard_test_sampling"] < math.inf
        assert 0 < counts["hadamard_test_amplitude_estimation"] < math.inf


HUGE = 2**40  # a weight tensor of this width cannot be allocated


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize(
    "layers",
    [
        [{"in": HUGE, "out": 2, "degree": 1, "weight_seed": 1}],
        [{"in": 2, "out": 2, "degree": 1, "weight_seed": 1},
         {"in": HUGE, "out": 1, "degree": 1, "weight_seed": 1}],
    ],
)
def test_layer_headers_are_checked_before_any_weight_tensor(tmp_path, command, layers, capsys):
    payload = copy.deepcopy({**TRAIN_CONFIG, "layers": layers})
    assert main([command, "--config", write_config(tmp_path, payload), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")


WIDE_INPUT = [0.01] * 64  # a 64-input network: a grid of 64 axes cannot be built


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize(
    "changes, section",
    [
        ({"layers": [{"in": 2, "out": HUGE, "degree": 1, "weight_seed": 1}]}, "layer 0"),
        ({"layers": [{"in": 2, "out": 2**62, "degree": 1, "weight_seed": 1}]}, "layer 0"),
        ({"train": {"data": {"grid_points_per_axis": 2, "n_in": 40}}}, "train.data.n_in"),
        ({"input": WIDE_INPUT,
          "layers": [{"in": 64, "out": 1, "degree": 1, "weight_seed": 1}],
          "train": {"data": {"grid_points_per_axis": 2, "n_in": 64}}}, "train.data"),
        ({"input": WIDE_INPUT,
          "layers": [{"in": 64, "out": 1, "degree": 1, "weight_seed": 1}],
          "train": {"data": {"grid_points_per_axis": 2}}}, "train.data"),
        ({"input": WIDE_INPUT[:32],
          "layers": [{"in": 32, "out": 1, "degree": 1, "weight_seed": 1}],
          "train": {"data": {"grid_points_per_axis": 8}}}, "train.data"),
    ],
)
def test_oversized_weight_tensor_or_train_grid_exits_2(tmp_path, command, changes, section, capsys):
    """Sizes that numpy refuses before allocating anything large."""
    payload = {**copy.deepcopy(TRAIN_CONFIG), **changes}
    config = write_config(tmp_path, payload)
    assert main([command, "--config", config, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"config error: {section}")


def test_train_grid_width_defaults_to_the_first_layer_input(tmp_path, capsys):
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["input"] = [0.1, 0.2, 0.3, 0.4]
    payload["layers"][0]["in"] = 4
    config = load_config(write_config(tmp_path, payload))
    assert config.dataset.xs.shape == (2**4, 4)
    payload["train"]["data"]["n_in"] = 4
    assert np.array_equal(load_config(write_config(tmp_path, payload)).dataset.xs, config.dataset.xs)
    for n_in in (2, 8):
        payload["train"]["data"]["n_in"] = n_in
        with pytest.raises(ConfigError, match=f"train.data.n_in {n_in} != first layer in 4"):
            load_config(write_config(tmp_path, payload))


def test_unwritable_or_unreadable_paths_exit_2(tmp_path, hand_config, capsys):
    """A report, trace or config path that cannot be opened is a usage error:
    exit 2 with one error line and no report, never a traceback or exit 1."""
    missing = tmp_path / "missing"
    trace_payload = copy.deepcopy(TRAIN_CONFIG)
    trace_payload["train"]["iterations"] = 1
    train_config = write_config(tmp_path, trace_payload, name="train.json")
    for args in (
        ["eval", "--config", hand_config, "--out", str(missing / "r.json")],
        ["eval", "--config", str(tmp_path)],
        ["train", "--config", train_config, "--trace", str(missing / "t.csv")],
    ):
        assert main(args + ["--no-timestamp"]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert not missing.exists()


def test_train_checks_its_trace_and_report_paths_before_training(tmp_path, monkeypatch, capsys):
    """A trace or report path that cannot be written exits 2 before any
    training: `train` is never called, and no file is left behind."""
    def never(*args, **kwargs):
        raise AssertionError("training ran before its destinations were checked")

    monkeypatch.setattr(cli, "train", never)
    missing = tmp_path / "missing"
    config = write_config(tmp_path, TRAIN_CONFIG, name="train.json")
    for paths in (
        ["--trace", str(missing / "t.csv")],
        ["--out", str(missing / "r.json")],
        ["--out", str(tmp_path / "r.json"), "--trace", str(missing / "t.csv")],
        ["--trace", str(tmp_path)],
    ):
        assert main(["train", "--config", config, "--no-timestamp", *paths]) == 2, paths
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["train.json"]


@pytest.mark.parametrize("scale", ["0.5", True, float("nan"), float("inf"), -float("inf"), None])
def test_training_target_scale_must_be_a_finite_number(tmp_path, scale, capsys):
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["train"]["data"]["target"] = {"scale": scale}
    config = write_config(tmp_path, payload)
    assert main(["train", "--config", config, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: train.data.target.scale")
    with pytest.raises(ConfigError, match="train.data.target.scale"):
        load_config(config)


@pytest.mark.parametrize("scale", [-0.25, 0, 0.5])
def test_training_target_scale_of_any_sign_is_accepted(tmp_path, scale):
    payload = copy.deepcopy(TRAIN_CONFIG)
    payload["train"]["data"]["target"] = {"scale": scale}
    dataset = load_config(write_config(tmp_path, payload)).dataset
    xs = dataset.xs
    expected = scale * np.mean(2 * xs**2 - 1, axis=1, keepdims=True)
    assert np.allclose(dataset.ys, expected, rtol=0.0, atol=1e-15)
