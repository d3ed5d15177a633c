"""CLI reports of seeded configs, parent against change: exit codes, ledgers and
resources reports must agree, and outputs may move by rounding only.

    python scripts/compare_reports.py --parent HEAD --out reports.json

Run from the root of a qkan checkout: that checkout, as it is on disk, is the
change. Both sides are exported under one temporary directory, as
``bench_pairs.py`` does, and one worker process per side (BLAS pinned to one
thread) runs ``qkan eval``, ``resources``, ``verify`` and ``prepare-state`` on
every config of :func:`configs`: each shape of ``compile_shapes.SHAPES``, and
one N = 64, K = 4, d = 3 layer wide enough for the probe Hermiticity guard, and
one N = 2, K = 8, d = 2 layer, whose prepared state sees a rounding change
(1/sqrt(K) is not a power of two), with seeded weights and input, under the exact, stateprep and real_weights input
encoders, exact and shots readout, unperturbed and perturbed, and under a
tight qubit budget, unperturbed and perturbed (exit 3 where the layout does
not fit). The configs with a
``train`` section, one per entry of TRAINING, also run ``qkan train``.

The report lists every mismatch, which is any of:

- unequal exit codes, or an exit 3 whose required qubits differ;
- any unequal integer, string or boolean of a report (ledgers, ancilla
  counts, check names and verdicts);
- any unequal number of a ``resources`` report.

It also gives the largest deviation between the sides of every other number,
per report field (for example ``eval/output``, ``eval/readout/value``,
``prepare-state/amplitudes_real`` or ``train/losses``), in ``max_deviation``,
and the ``config/command`` run where each field first reaches it, in
``max_deviation_at`` (null for a field that no run moved). The script exits 1
when it finds a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import commit_header, run_worker, sides  # noqa: E402
from compile_shapes import SHAPES as COMPILE_SHAPES  # noqa: E402

COMMANDS = ("eval", "resources", "verify", "prepare-state")
# (dims, degree): the compile shapes, then a layer whose 64 input states take
# the probe guard (16 or fewer take the dense test), then a layer of K = 8
# outputs, whose 1/sqrt(K) is not a power of two, so that a rounding change of
# a prepared state shows
SHAPES = COMPILE_SHAPES + [((64, 4), 3), ((2, 8), 2)]
# (encoder, readout mode, perturbed, qubit budget or None) of every shape
VARIANTS = [
    ("exact", "exact", False, None),
    ("exact", "shots", False, None),
    ("exact", "shots", True, None),
    ("stateprep", "exact", False, None),
    ("real_weights", "exact", False, None),
    ("real_weights", "shots", True, None),
    ("exact", "shots", False, 14),
    ("exact", "shots", True, 14),
]
PERTURB = {"eps_x": 1e-3, "eps_w": 1e-3, "seed": 5}
# (dims, degree, train section) of seeded runs over the 64 points of an 8 x 8
# grid. On a 2 -> 2 -> 1, d = 3 network (m = 6 sample qubits for one
# candidate, 7 for two): finite differences on the exact readout, whose first
# layer dilates ahead of the sample register, and on the classical readout
# (the classical model), and SPSA on the shots readout. On a 2 -> 2 -> 2 -> 1,
# d = 2 network, whose sample register is capped at m = 2 (16 chunks, each
# with its own network assembler, and layer 1 compiled): SPSA on the exact
# readout. On a 2 -> 1, d = 3 layer: finite differences on the exact readout,
# whose 16 candidates share one register of m = 10 qubits
TRAINING = [
    ((2, 2, 1), 3, {"optimizer": "finite_difference", "readout": "exact", "eta": 1.0, "iterations": 2}),
    ((2, 2, 1), 3, {"optimizer": "finite_difference", "readout": "classical", "eta": 1.0, "iterations": 2}),
    ((2, 2, 1), 3, {"optimizer": "spsa", "readout": "shots", "shots": 1000, "eta": 0.1, "iterations": 4}),
    ((2, 2, 2, 1), 2, {"optimizer": "spsa", "readout": "exact", "eta": 0.1, "iterations": 3}),
    ((2, 1), 3, {"optimizer": "finite_difference", "readout": "exact", "eta": 1.0, "iterations": 2}),
]


def _layers(rng, dims, degree: int) -> list[dict]:
    return [
        {"in": n_in, "out": n_out, "degree": degree,
         "weights": rng.uniform(-1.0, 1.0, (degree + 1, n_in, n_out)).tolist()}
        for n_in, n_out in zip(dims, dims[1:])
    ]


def configs(seed: int = 0) -> dict[str, dict]:
    """Named run configurations: every shape of SHAPES under every variant,
    then one training run per entry of TRAINING."""
    import numpy as np

    out = {}
    for index, (dims, degree) in enumerate(SHAPES):
        rng = np.random.default_rng([seed, index])
        layers = _layers(rng, dims, degree)
        x = rng.uniform(-1.0, 1.0, dims[0])
        readout_seed = int(rng.integers(2**31))
        for encoder, mode, perturbed, budget in VARIANTS:
            if encoder == "stateprep":
                vector = x / np.linalg.norm(x)  # a unit vector
            elif encoder == "real_weights":
                vector = x / (2.0 * np.linalg.norm(x))  # squares sum to 1/4
            else:
                vector = x
            config = {
                "input": vector.tolist(),
                "layers": layers,
                "encoder": encoder,
                "readout": {"mode": mode, "shots": 1000 if mode == "shots" else 0,
                            "seed": readout_seed, "delta": 0.05},
                "seed": seed,
            }
            name = f"{'-'.join(map(str, dims))} d={degree} {encoder} {mode}"
            if perturbed:
                config["perturb"] = PERTURB
                name += " perturbed"
            if budget is not None:
                config["max_qubits"] = budget
                name += f" max_qubits={budget}"
            out[name] = config
    shapes = list(dict.fromkeys((dims, degree) for dims, degree, _ in TRAINING))
    for dims, degree, train in TRAINING:
        # one seeded network and input per training shape
        rng = np.random.default_rng([seed, len(SHAPES) + shapes.index((dims, degree))])
        layers = _layers(rng, dims, degree)
        x = rng.uniform(-1.0, 1.0, dims[0])
        section = dict(train, seed=seed, data={"grid_points_per_axis": 8})
        name = f"{'-'.join(map(str, dims))} d={degree} train {train['optimizer']} {train['readout']}"
        out[name] = {"input": x.tolist(), "layers": layers, "train": section, "seed": seed}
    return out


def commands(config: dict) -> tuple[str, ...]:
    """The CLI commands run on `config`."""
    return COMMANDS + ("train",) if "train" in config else COMMANDS


def worker(configs_path: Path) -> dict:
    """Every command on every config with the qkan found on the path."""
    import qkan
    from qkan import cli

    runs: dict = {"qkan_dir": str(Path(qkan.__file__).resolve().parent)}
    named = json.loads(configs_path.read_text())
    with tempfile.TemporaryDirectory(prefix="qkan-reports-") as tmp:
        for name, config in named.items():
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            runs[name] = {}
            for command in commands(config):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", str(path), "--no-timestamp"])
                text = out.getvalue()
                runs[name][command] = {
                    "code": code,
                    "results": json.loads(text)["results"] if text.strip() else None,
                    "stderr": err.getvalue(),
                }
    return runs


def required_qubits(stderr: str) -> int | None:
    """The qubit count an exit-3 message reports, if any."""
    found = re.search(r"requires (\d+) qubits", stderr)
    return int(found.group(1)) if found else None


def _walk(parent, change, field: str, where: str, exact: bool,
          mismatches: list[str], deviations: dict[str, float]) -> None:
    """Compare two report values; `field` names them without list indices."""
    if isinstance(parent, dict) and isinstance(change, dict):
        if parent.keys() != change.keys():
            mismatches.append(f"{where} {field}: keys {sorted(parent)} != {sorted(change)}")
            return
        for key in parent:
            _walk(parent[key], change[key], f"{field}/{key}", where, exact, mismatches, deviations)
    elif isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            mismatches.append(f"{where} {field}: {len(parent)} entries != {len(change)}")
            return
        for p, c in zip(parent, change):
            _walk(p, c, field, where, exact, mismatches, deviations)
    elif isinstance(parent, float) and isinstance(change, float) and not exact:
        if parent == change or (math.isnan(parent) and math.isnan(change)):
            deviation = 0.0
        else:
            deviation = abs(parent - change) if math.isfinite(parent - change) else math.inf
        deviations[field] = max(deviations.get(field, 0.0), deviation)
    elif type(parent) is not type(change) or parent != change:
        mismatches.append(f"{where} {field}: {parent!r} != {change!r}")


def compare(parent: dict, change: dict) -> dict:
    """Mismatches and the largest deviation per report field of two workers'
    runs, with the run where it occurs (see the module docstring), the count
    of compared runs and of the change's runs per exit code."""
    mismatches: list[str] = []
    deviations: dict[str, float] = {}
    deviations_at: dict[str, str | None] = {}
    runs = 0
    for name in sorted(set(parent) | set(change)):
        ran = parent.get(name, {}).keys() | change.get(name, {}).keys()
        for command in [command for command in COMMANDS + ("train",) if command in ran]:
            p, c = parent.get(name, {}).get(command), change.get(name, {}).get(command)
            where = f"{name} {command}"
            if p is None or c is None:
                mismatches.append(f"{where}: run on one side only")
                continue
            runs += 1
            if p["code"] != c["code"]:
                mismatches.append(f"{where}: exit {p['code']} != {c['code']}")
                continue
            if p["code"] == 3 and required_qubits(p["stderr"]) != required_qubits(c["stderr"]):
                mismatches.append(f"{where}: exit 3 requires {required_qubits(p['stderr'])} "
                                  f"!= {required_qubits(c['stderr'])} qubits")
            found: dict[str, float] = {}
            _walk(p["results"], c["results"], command, where, command == "resources",
                  mismatches, found)
            for key, deviation in found.items():
                if key not in deviations or deviation > deviations[key]:
                    deviations[key] = deviation
                    deviations_at[key] = f"{name}/{command}" if deviation > 0 else None
    codes: dict[str, int] = {}
    for runs_of_config in change.values():
        for run in runs_of_config.values():
            codes[str(run["code"])] = codes.get(str(run["code"]), 0) + 1
    return {
        "runs": runs,
        "exit_codes": dict(sorted(codes.items())),
        "mismatches": mismatches,
        "max_deviation": dict(sorted(deviations.items())),
        "max_deviation_at": dict(sorted(deviations_at.items())),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--seed", type=int, default=0, help="seed of the configs")
    parser.add_argument("--out", type=Path, default=None, help="also write the JSON report here")
    parser.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    report = {**commit_header(args.parent), "seed": args.seed}
    named = configs(args.seed)
    with sides(report["parent"]["commit"]) as checkouts:
        configs_path = checkouts["parent"].parent / "configs.json"
        configs_path.write_text(json.dumps(named))
        flags = ["--worker", str(configs_path)]
        runs = {
            side: run_worker(checkouts[side], Path(__file__).resolve(), flags)
            for side in ("parent", "change")
        }
    report["configs"] = len(named)
    report.update(compare(runs["parent"], runs["change"]))
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
