"""Batch front-end: JSON config in, JSON report out, CSV loss traces.

Exit codes: 0 success, 1 check failure, 2 usage/config error (a config,
report or trace path that cannot be read or written included), 3 qubit
budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import operators
from .block_encoding import BlockEncoding, extract_diagonal, perturb
from .config import ConfigError, RunConfig, load_config
from .encoders import (
    encode_diagonal_exact,
    encode_from_stateprep,
    encode_real_weights,
    perturbed_weight_encoder,
    stateprep_for_real_vector,
)
from .errors import DomainError, QkanError, ResourceLimitError
from .network import build_network, classical_network_eval
from .operators import state_prep_unitary
from .readout import prepare_state_postselect, read_outputs
from .resources import analytic_cost, reconcile
from .trainer import train
from .verification import check_network_accounting, run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _input_encoding(config: RunConfig) -> BlockEncoding:
    x = config.input
    if config.encoder == "exact":
        be = encode_diagonal_exact(x, name="x")
    elif config.encoder == "stateprep":
        if abs(np.linalg.norm(x) - 1.0) > 1e-10:
            raise ConfigError("stateprep encoder needs a unit-norm input vector")
        be = encode_from_stateprep(state_prep_unitary(x), name="x")
    else:  # real_weights
        be = encode_real_weights(stateprep_for_real_vector(x), name="x")
    if config.perturb.eps_x > 0:
        be = perturb(be, config.perturb.eps_x, config.perturb.seed)
    return be


def _weight_encoder(config: RunConfig):
    return perturbed_weight_encoder(config.perturb.eps_w, config.perturb.seed)


def _emit(report: dict, out: str | None, no_timestamp: bool) -> None:
    if not no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonable)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def cmd_verify(config: RunConfig, args) -> tuple[int, dict]:
    results = run_verification(
        config.input,
        config.spec.layers[0],
        eps_x=config.perturb.eps_x,
        eps_w=config.perturb.eps_w,
        seed=config.seed,
    )
    if len(config.spec.layers) > 1:
        results += check_network_accounting(config.spec, config.input)
    passed = all(r.passed for r in results)
    report = {
        "command": "verify",
        "config": config.resolved_dict(),
        "results": {
            "checks": [r.as_dict() for r in results],
            "passed": passed,
        },
    }
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), report


def cmd_eval(config: RunConfig, args) -> tuple[int, dict]:
    build = build_network(_input_encoding(config), config.spec, _weight_encoder(config))
    readout = config.readout
    if readout.mode == "shots":
        output, results = read_outputs(build.output, readout.shots, readout.seed, readout.node)
    else:
        output, results = extract_diagonal(build.output), None
    output = output.real
    oracle = classical_network_eval(config.input, config.spec)
    section = {
        "output": output.tolist(),
        "oracle": oracle.tolist(),
        "max_err": float(np.max(np.abs(output - oracle))),
        "ancillas": build.output.num_aux,
        "ledger": build.output.cost,
    }
    if results is not None:
        section["readout"] = [
            {"value": r.value, "stderr": r.stderr, "shots": r.shots} for r in results
        ]
    report = {"command": "eval", "config": config.resolved_dict(), "results": section}
    return EXIT_OK, report


def _check_writable(path: str) -> None:
    """Raise OSError unless `path` can be opened for writing; create nothing."""
    target = Path(path)
    existed = target.exists()
    with open(target, "a"):
        pass
    if not existed:
        target.unlink()


def cmd_train(config: RunConfig, args) -> tuple[int, dict]:
    if config.train is None or config.dataset is None:
        raise ConfigError("train command needs a train section with data")
    trace_path = args.trace
    if trace_path is None and args.out:
        trace_path = str(Path(args.out).with_suffix(".trace.csv"))
    for path in (args.out, trace_path):
        if path:
            _check_writable(path)  # before the training, not after it
    result = train(config.spec, config.dataset, config.train)
    if trace_path:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss"])
            writer.writerows(enumerate(result.losses))
    section = {
        "final_loss": result.final_loss,
        "iterations_run": len(result.losses) - 1,
        "stop_reason": result.stop_reason,
        "losses": list(result.losses),
        "trained_weights": [layer.weights.tolist() for layer in result.spec.layers],
        "trace_csv": trace_path,
    }
    report = {"command": "train", "config": config.resolved_dict(), "results": section}
    return EXIT_OK, report


def cmd_resources(config: RunConfig, args) -> tuple[int, dict]:
    be_x0 = _input_encoding(config)
    # the stateprep and real_weights encoders have more ancillas, and real_weights
    # queries x twice (psi and psi^dagger) per application
    report_model = analytic_cost(config.spec, c_x0=be_x0.cost.get("x", 0), a_x0=be_x0.num_aux)
    if config.readout.delta:
        try:
            report_model = report_model.with_readout(config.readout.delta)
        except DomainError as exc:
            raise ConfigError(f"readout.delta: {exc}") from exc
    build = build_network(be_x0, config.spec, _weight_encoder(config))
    rec = reconcile(report_model, build.output)
    section = {
        "per_layer": [
            {
                "degree": c.degree,
                "input_applications": c.input_applications,
                "weight_applications": c.weight_applications,
                "aux_added": c.aux_added,
                "input_ratio_exact_over_asymptotic": c.input_ratio_exact_over_asymptotic,
            }
            for c in report_model.per_layer
        ],
        "exact_cost": list(report_model.exact_cost),
        "asymptotic_cost": list(report_model.asymptotic_cost),
        "aux_totals": list(report_model.aux_totals),
        "expected_ledger": report_model.expected_ledger,
        "observed_ledger": build.output.cost,
        "built_ancillas": build.output.num_aux,
        "reconciled": rec.ok,
        "diffs": {k: list(v) for k, v in rec.diffs.items()},
        "readout_queries": report_model.readout,
    }
    code = EXIT_OK if rec.ok and build.output.num_aux == report_model.aux_totals[-1] else EXIT_CHECK_FAILED
    return code, {"command": "resources", "config": config.resolved_dict(), "results": section}


def cmd_prepare_state(config: RunConfig, args) -> tuple[int, dict]:
    build = build_network(_input_encoding(config), config.spec, _weight_encoder(config))
    oracle = classical_network_eval(config.input, config.spec)
    prepared = prepare_state_postselect(build.output, target=oracle)
    section = {
        "success_prob": prepared.success_prob,
        "norm_const": prepared.norm_const,
        "l2_error": prepared.l2_error,
        "amplitudes_real": prepared.amplitudes.amplitudes.real.tolist(),
        "amplitudes_imag": prepared.amplitudes.amplitudes.imag.tolist(),
        "oracle": oracle.tolist(),
    }
    return EXIT_OK, {
        "command": "prepare-state",
        "config": config.resolved_dict(),
        "results": section,
    }


_COMMANDS = {
    "verify": cmd_verify,
    "eval": cmd_eval,
    "train": cmd_train,
    "resources": cmd_resources,
    "prepare-state": cmd_prepare_state,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkan",
        description="Chebyshev quantum KAN simulator: build, verify, train, and read out "
        "diagonal block-encoding networks.",
    )
    # the options every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=None, help="write the JSON report here")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    common.add_argument(
        "--max-qubits", type=_positive_int, default=None,
        help=f"total qubit budget (default {operators.DEFAULT_MAX_QUBITS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, parents=[common])
        if name == "train":
            cmd.add_argument("--trace", default=None, help="write the loss trace CSV here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config, seed_override=args.seed)
        budget = args.max_qubits if args.max_qubits is not None else config.max_qubits
        with operators.qubit_budget(operators.max_qubits() if budget is None else budget):
            code, report = _COMMANDS[args.command](config, args)
        _emit(report, args.out, args.no_timestamp)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        detail = f" (requires {exc.required_qubits} qubits)" if exc.required_qubits else ""
        print(f"resource limit: {exc}{detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except QkanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
