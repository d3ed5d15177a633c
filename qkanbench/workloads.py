"""The three workloads: inputs generated from the seed, one timed operation
each, and a correctness gate that runs outside the timed interval.

Each gate returns a list of problems; an empty list passes. Gates compare
against :mod:`qkanbench.oracle`, which shares no code with qkan.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import oracle

TOL = 1e-9  # oracle agreement required of every result


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    setup: Callable[[int, Path], list]  # (seed, work dir) -> cases
    run: Callable  # (qkan, case) -> output dict, timed
    check: Callable  # (qkan, case, output) -> list of problems, untimed


def _exceeds(what: str, err: float, tol: float = TOL) -> list[str]:
    return [] if err <= tol else [f"{what}: {err:.3e} > {tol:.0e}"]


# --- train-fd ---------------------------------------------------------------

TRAIN = {
    "n_in": 2, "n_out": 1, "degree": 3, "grid_points_per_axis": 8,
    "start_weight_range": 0.5, "initial_mse": 0.005,
    "optimizer": "finite_difference", "eta": 25.0, "h": 1e-4, "loss_goal": 1e-3,
    "max_iterations": 12, "cases": 8,
}


@dataclass(frozen=True, eq=False)
class TrainCase:
    xs: np.ndarray
    ys: np.ndarray
    start: np.ndarray  # (d+1, N, K) start weights


def train_setup(seed: int, workdir: Path) -> list[TrainCase]:
    """Start weights uniform in [-0.5, 0.5]; the target is an in-class model
    offset from the start in a seeded direction, scaled so the start MSE is
    `initial_mse`. Fixing the start error keeps the iterations to the goal
    constant across instances: 2 for this start error."""
    p = TRAIN
    rng = np.random.default_rng([seed, 1])
    xs = oracle.grid(p["n_in"], p["grid_points_per_axis"])
    design = oracle.design_matrix(xs, p["degree"])
    shape = (p["degree"] + 1, p["n_in"], p["n_out"])
    cases = []
    while len(cases) < p["cases"]:
        start = rng.uniform(-p["start_weight_range"], p["start_weight_range"], size=shape)
        direction = rng.normal(size=shape)
        scale = np.sqrt(p["initial_mse"] / np.mean((design @ direction.ravel()) ** 2))
        target = start + scale * direction
        if np.all(np.abs(target) <= 1.0):
            cases.append(TrainCase(xs, oracle.layer(xs, target), start))
    return cases


def _train_config(qkan, readout: str):
    p = TRAIN
    return qkan.TrainConfig(
        optimizer=p["optimizer"], eta=p["eta"], h=p["h"], loss_goal=p["loss_goal"],
        iterations=p["max_iterations"], readout=readout,
    )


def train_model(qkan, case: TrainCase, readout: str):
    spec = qkan.QkanSpec((qkan.LayerSpec(case.start),))
    return qkan.train(spec, qkan.Dataset(case.xs, case.ys), _train_config(qkan, readout))


def train_run(qkan, case: TrainCase) -> dict:
    result = train_model(qkan, case, "exact")
    return {
        "losses": np.array(result.losses),
        "weights": result.spec.layers[0].weights,
        "iterations": len(result.losses) - 1,
    }


def train_check(qkan, case: TrainCase, out: dict) -> list[str]:
    losses, goal = out["losses"], TRAIN["loss_goal"]
    problems = [] if losses[-1] < goal else [f"final loss {losses[-1]:.3e} not below {goal}"]
    reference = np.array(train_model(qkan, case, "classical").losses)
    if reference.shape != losses.shape:
        problems.append(f"{losses.size} losses, classical readout gives {reference.size}")
    else:
        problems += _exceeds("loss trajectory vs classical readout", np.max(np.abs(losses - reference)))
    problems += _exceeds("start loss vs oracle", abs(losses[0] - oracle.mse(oracle.layer(case.xs, case.start), case.ys)))
    problems += _exceeds("final loss vs oracle", abs(losses[-1] - oracle.mse(oracle.layer(case.xs, out["weights"]), case.ys)))
    return problems


# --- wide-layer -------------------------------------------------------------

WIDE = {"n_in": 256, "n_out": 4, "degree": 3, "cases": 4}


@dataclass(frozen=True, eq=False)
class WideCase:
    x: np.ndarray
    weights: np.ndarray
    phi: np.ndarray  # oracle layer output


def wide_setup(seed: int, workdir: Path) -> list[WideCase]:
    p = WIDE
    rng = np.random.default_rng([seed, 2])
    cases = []
    for _ in range(p["cases"]):
        x = rng.uniform(-1.0, 1.0, size=p["n_in"])
        weights = rng.uniform(-1.0, 1.0, size=(p["degree"] + 1, p["n_in"], p["n_out"]))
        cases.append(WideCase(x, weights, oracle.layer(x, weights)))
    return cases


def wide_run(qkan, case: WideCase) -> dict:
    spec = qkan.LayerSpec(case.weights)
    be = qkan.build_layer(qkan.encode_diagonal_exact(case.x, name="x"), spec)
    diagonal = qkan.extract_diagonal(be)
    report = qkan.analytic_cost(qkan.QkanSpec((spec,)))
    reconciled = qkan.reconcile(report, be)
    state = qkan.prepare_state_postselect(be)
    return {
        "diagonal": diagonal,
        "reconciled": bool(reconciled.ok),
        "built_ancillas": be.num_aux,
        "aux_total": report.aux_totals[-1],
        "amplitudes": state.amplitudes.amplitudes,
        "success_prob": state.success_prob,
    }


def wide_check(qkan, case: WideCase, out: dict) -> list[str]:
    phi = case.phi
    problems = _exceeds("layer diagonal vs oracle", np.max(np.abs(out["diagonal"] - phi)))
    if not out["reconciled"]:
        problems.append("ledger does not reconcile with the analytic cost")
    if out["built_ancillas"] != out["aux_total"]:
        problems.append(f"built {out['built_ancillas']} ancillas, model says {out['aux_total']}")
    # post-selected |0>_aux |+>_k gives Phi / |Phi| with probability |Phi|^2 / K,
    # reported with its largest-magnitude amplitude made positive real
    expected = phi / np.linalg.norm(phi)
    expected = expected * np.sign(expected[np.argmax(np.abs(expected))])
    problems += _exceeds("prepared state vs oracle", np.max(np.abs(out["amplitudes"] - expected)))
    problems += _exceeds("success probability vs oracle", abs(out["success_prob"] - np.sum(phi**2) / phi.size))
    return problems


# --- deep-cli ---------------------------------------------------------------

DEEP = {"dims": [2, 2, 2, 1], "degree": 3, "readout": "shots", "shots": 1000, "delta": 0.05, "cases": 8}
SHOT_SIGMAS = 5.0  # shot estimate must lie within this many worst-case standard errors


@dataclass(frozen=True, eq=False)
class DeepCase:
    config_path: Path
    x: np.ndarray
    layers: list[np.ndarray]


def deep_setup(seed: int, workdir: Path) -> list[DeepCase]:
    p = DEEP
    rng = np.random.default_rng([seed, 3])
    cases = []
    for index in range(p["cases"]):
        x = rng.uniform(-1.0, 1.0, size=p["dims"][0])
        layers = [
            rng.uniform(-1.0, 1.0, size=(p["degree"] + 1, n_in, n_out))
            for n_in, n_out in zip(p["dims"], p["dims"][1:])
        ]
        config = {
            "input": x.tolist(),
            "layers": [
                {"in": w.shape[1], "out": w.shape[2], "degree": p["degree"], "weights": w.tolist()}
                for w in layers
            ],
            "readout": {"mode": p["readout"], "shots": p["shots"],
                        "seed": int(rng.integers(2**31)), "delta": p["delta"]},
        }
        path = workdir / f"deep-cli-{index}.json"
        path.write_text(json.dumps(config))
        cases.append(DeepCase(path, x, layers))
    return cases


def _cli(qkan, command: str, path: Path) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = qkan.cli.main([command, "--config", str(path), "--no-timestamp"])
    return code, buffer.getvalue()


def deep_run(qkan, case: DeepCase) -> dict:
    eval_code, eval_text = _cli(qkan, "eval", case.config_path)
    resources_code, resources_text = _cli(qkan, "resources", case.config_path)
    return {"eval": (eval_code, eval_text), "resources": (resources_code, resources_text)}


def deep_check(qkan, case: DeepCase, out: dict) -> list[str]:
    problems = []
    reports = {}
    for command, (code, text) in out.items():
        if code != 0:
            problems.append(f"{command} exited with {code}")
            continue
        try:
            reports[command] = json.loads(text)["results"]
        except (json.JSONDecodeError, KeyError) as exc:
            problems.append(f"{command} emitted no report: {exc!r}")
    if "eval" in reports:
        problems += check_eval_report(case, reports["eval"])
    if "resources" in reports:
        problems += check_resources_report(reports["resources"])
    return problems


def check_eval_report(case: DeepCase, results: dict) -> list[str]:
    phi = oracle.network(case.x, case.layers)
    problems = _exceeds("emitted max_err", float(results["max_err"]))
    problems += _exceeds("output vs oracle", np.max(np.abs(np.asarray(results["output"]) - phi)))
    problems += _exceeds("emitted oracle vs oracle", np.max(np.abs(np.asarray(results["oracle"]) - phi)))
    shots = DEEP["shots"]
    values = np.array([r["value"] for r in results.get("readout", [])])
    if values.shape != phi.shape:
        problems.append(f"{values.size} shot readouts for {phi.size} outputs")
    else:
        problems += _exceeds("shot readout vs oracle", np.max(np.abs(values - phi)), SHOT_SIGMAS / np.sqrt(shots))
    return problems


def check_resources_report(results: dict) -> list[str]:
    problems = [] if results["reconciled"] else [f"ledger diffs {results['diffs']}"]
    if results["built_ancillas"] != results["aux_totals"][-1]:
        problems.append(f"built {results['built_ancillas']} ancillas, model says {results['aux_totals'][-1]}")
    if results["readout_queries"].get("delta") != DEEP["delta"]:
        problems.append("readout query section missing delta")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-fd",
            "one finite-difference qkan.train call on 64 samples: thousands of tiny applies, bound by Python call overhead",
            TRAIN, train_setup, train_run, train_check,
        ),
        Workload(
            "wide-layer",
            "widest layer under the 10-qubit dense cap (N=256, K=4, d=3, 15 qubits): Chebyshev guard SVDs and bandwidth-bound applies",
            WIDE, wide_setup, wide_run, wide_check,
        ),
        Workload(
            "deep-cli",
            "qkan eval then resources on a 3-layer config with shots readout: deep operator trees, ledgers, Hadamard tests, CLI",
            DEEP, deep_setup, deep_run, deep_check,
        ),
    )
}
