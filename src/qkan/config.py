"""JSON run configuration: one canonical schema shared by every CLI command.

Schema (all sections optional unless a command needs them):

    {
      "input": [x_1, ..., x_N],
      "layers": [{"in": N, "out": K, "degree": d,
                  "weights": [[[...]]] | "weight_seed": int}, ...],
      "encoder": "exact" | "stateprep" | "real_weights",
      "perturb": {"eps_x": float, "eps_w": float, "seed": int},
      "readout": {"mode": "exact" | "shots", "shots": int, "seed": int,
                  "node": int, "delta": float},
      "train": {"optimizer": ..., "eta": ..., "h": ..., "c": ...,
                "iterations": ..., "seed": ..., "loss_goal": ...,
                "readout": "exact" | "classical" | "shots", "shots": int,
                "data": {"xs": [[...]], "ys": [[...]]}
                      | {"grid_points_per_axis": int, "n_in": int,
                         "target": {"kind": "cheb2_mean", "scale": float}}},
      "seed": int,
      "max_qubits": int
    }
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import QkanError
from .network import LayerSpec, QkanSpec
from .trainer import Dataset, TrainConfig


class ConfigError(QkanError, ValueError):
    """Malformed or inconsistent run configuration (CLI usage error)."""


@dataclass(frozen=True)
class PerturbConfig:
    eps_x: float = 0.0
    eps_w: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class ReadoutConfig:
    mode: str = "exact"
    shots: int = 0
    seed: int = 0
    node: int | None = None
    delta: float | None = None


@dataclass(frozen=True, eq=False)
class RunConfig:
    input: np.ndarray
    spec: QkanSpec
    encoder: str = "exact"
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    readout: ReadoutConfig = field(default_factory=ReadoutConfig)
    train: TrainConfig | None = None
    dataset: Dataset | None = None
    seed: int = 0
    max_qubits: int | None = None
    raw: dict = field(default_factory=dict)

    def resolved_dict(self) -> dict:
        """Fully resolved config (seeded weights expanded) for report provenance."""
        return {
            "input": self.input.tolist(),
            "layers": [
                {
                    "in": layer.n_in,
                    "out": layer.n_out,
                    "degree": layer.degree,
                    "weights": layer.weights.tolist(),
                }
                for layer in self.spec.layers
            ],
            "encoder": self.encoder,
            "perturb": asdict(self.perturb),
            "readout": asdict(self.readout),
            "train": self.raw.get("train"),
            "seed": self.seed,
            "max_qubits": self.max_qubits,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _object(value, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be an object, got {value!r}")
    return value


def _int(value, what: str, low: int = 0, high: float = np.inf) -> int:
    """`value` as an int in [low, high); bools, strings and non-integral floats are rejected."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    ok = number and value % 1 == 0 and low <= value < high
    _require(ok, f"{what} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def _finite(value) -> bool:
    """Whether `value` is a finite real number; bools and strings are not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and bool(np.isfinite(value))


def _real(value, what: str, positive: bool = False) -> float:
    """`value` as a finite float, > 0 when `positive` and >= 0 otherwise."""
    ok = _finite(value) and (value > 0 if positive else value >= 0)
    _require(ok, f"{what} must be a finite number {'> 0' if positive else '>= 0'}, got {value!r}")
    return float(value)


@contextmanager
def _buildable(what: str):
    """Turn numpy's refusal to build the arrays of `what` (too large, or too
    many dimensions) into a ConfigError; package errors pass through."""
    try:
        yield
    except QkanError:
        raise
    except (MemoryError, RuntimeError, ValueError) as exc:
        raise ConfigError(f"{what} cannot be built: {exc}") from exc


def _layer_header(entry: dict, index: int) -> tuple[int, int, int]:
    """(in, out, degree) of a layer entry, read before any of its weights."""
    _object(entry, f"layer {index}")
    for key in ("in", "out", "degree"):
        _require(key in entry, f"layer {index} is missing {key!r}")
    n_in, n_out = (_int(entry[key], f"layer {index} {key!r}", 1) for key in ("in", "out"))
    return n_in, n_out, _int(entry["degree"], f"layer {index} 'degree'")


def _layer_from_dict(entry: dict, header: tuple[int, int, int], seed: int, index: int) -> LayerSpec:
    n_in, n_out, degree = header
    if "weights" in entry:
        weights = np.asarray(entry["weights"], dtype=np.float64)
        _require(
            weights.shape == (degree + 1, n_in, n_out),
            f"layer {index} weights shape {weights.shape} != ({degree + 1}, {n_in}, {n_out})",
        )
        _require(np.all(np.isfinite(weights)), f"layer {index} weights must be finite")
        return LayerSpec(weights)
    weight_seed = _int(entry.get("weight_seed", seed + index), f"layer {index} 'weight_seed'")
    with _buildable(f"layer {index} weights of shape ({degree + 1}, {n_in}, {n_out})"):
        return LayerSpec.random(n_in, n_out, degree, seed=weight_seed)


def _train_from_dict(section: dict, default_seed: int, dims) -> tuple[TrainConfig, Dataset]:
    data_section = _object(_object(section, "train").get("data"), "train.data")
    if "xs" in data_section:
        dataset = Dataset(np.asarray(data_section["xs"]), np.asarray(data_section.get("ys", [])))
    else:
        target = _object(data_section.get("target", {}), "train.data.target")
        kind = target.get("kind", "cheb2_mean")
        _require(kind == "cheb2_mean", f"unknown training target {kind!r}")
        scale = target.get("scale", 0.25)
        _require(_finite(scale), f"train.data.target.scale must be a finite number, got {scale!r}")
        points = _int(data_section.get("grid_points_per_axis", 8), "grid_points_per_axis", 1)
        n_in = _int(data_section.get("n_in", dims[0]), "train.data.n_in", 1)
        _require(n_in == dims[0], f"train.data.n_in {n_in} != first layer in {dims[0]}")

        def fn(x):
            return np.array([scale * np.mean(np.cos(2 * np.arccos(x)))])

        with _buildable(f"train.data grid of {points}^{n_in} points"):
            dataset = Dataset.from_function(fn, n_in, points)
    _require(dataset.xs.shape[1:] == (dims[0],) and dataset.ys.shape[1:] == (dims[-1],),
             f"train data needs rows of {dims[0]} inputs and {dims[-1]} targets")
    loss_goal = section.get("loss_goal")
    config = TrainConfig(
        optimizer=section.get("optimizer", "finite_difference"),
        eta=_real(section.get("eta", 25.0), "train.eta"),
        h=_real(section.get("h", 1e-4), "train.h", positive=True),
        c=_real(section.get("c", 0.1), "train.c", positive=True),
        iterations=_int(section.get("iterations", 200), "train.iterations"),
        seed=_int(section.get("seed", default_seed), "train.seed"),
        readout=section.get("readout", "exact"),
        shots=_int(section.get("shots", 0), "train.shots", high=2**63),
        loss_goal=None if loss_goal is None else _real(loss_goal, "train.loss_goal"),
    )
    return config, dataset


def parse_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    seed = _int(seed_override if seed_override is not None else raw.get("seed", 0), "seed")
    _require("input" in raw, "config is missing the input vector")
    x = np.asarray(raw["input"], dtype=np.float64)
    _require(x.ndim == 1 and x.size >= 1, "input must be a non-empty vector")
    _require(np.all(np.isfinite(x)), "input entries must be finite")
    _require(np.all(np.abs(x) <= 1.0), f"input outside [-1, 1]: max |x| = {np.max(np.abs(x))}")
    layers_raw = raw.get("layers")
    _require(isinstance(layers_raw, list) and layers_raw, "config needs a non-empty layers list")
    # the sizes are checked before any weight tensor is drawn or read, so a
    # width that could never be allocated is a config error, not a MemoryError
    headers = [_layer_header(entry, i) for i, entry in enumerate(layers_raw)]
    _require(
        headers[0][0] == x.size,
        f"input length {x.size} does not match first layer in = {headers[0][0]}",
    )
    for i, (left, right) in enumerate(zip(headers, headers[1:])):
        _require(
            left[1] == right[0],
            f"dimension chain broken: layer {i} out = {left[1]} != layer {i + 1} in = {right[0]}",
        )
    layers = tuple(
        _layer_from_dict(entry, header, seed, i)
        for i, (entry, header) in enumerate(zip(layers_raw, headers))
    )
    spec = QkanSpec(layers)
    encoder = raw.get("encoder", "exact")
    _require(
        encoder in ("exact", "stateprep", "real_weights"),
        f"unknown encoder {encoder!r}",
    )
    perturb_raw = _object(raw.get("perturb", {}), "perturb")
    perturb = PerturbConfig(
        eps_x=_real(perturb_raw.get("eps_x", 0.0), "perturb.eps_x"),
        eps_w=_real(perturb_raw.get("eps_w", 0.0), "perturb.eps_w"),
        seed=_int(perturb_raw.get("seed", seed), "perturb.seed"),
    )
    # two unitaries are never more than 2 apart in spectral norm
    _require(perturb.eps_x < 2 and perturb.eps_w < 2,
             f"perturb.eps_x and perturb.eps_w must be below 2, got {perturb.eps_x}, {perturb.eps_w}")
    readout_raw = _object(raw.get("readout", {}), "readout")
    mode = readout_raw.get("mode", "exact")
    _require(mode in ("exact", "shots"), f"unknown readout mode {mode!r}")
    node, delta = readout_raw.get("node"), readout_raw.get("delta")
    readout = ReadoutConfig(
        mode=mode,
        shots=_int(readout_raw.get("shots", 0), "readout.shots", int(mode == "shots"), 2**63),
        seed=_int(readout_raw.get("seed", seed), "readout.seed"),
        node=None if node is None else _int(node, "readout.node", high=spec.dims[-1]),
        delta=None if delta is None else _real(delta, "readout.delta", positive=True),
    )
    if mode == "exact":
        # an exact read takes no shots and reads every node
        _require(readout.shots == 0,
                 f"readout.shots is read only in shots mode, got {readout.shots}")
        _require(readout.node is None,
                 f"readout.node is read only in shots mode, got {readout.node}")
    train_config = None
    dataset = None
    if "train" in raw:
        try:
            train_config, dataset = _train_from_dict(raw["train"], seed, spec.dims)
        except QkanError as exc:
            raise ConfigError(str(exc)) from exc
    max_qubits = raw.get("max_qubits")
    return RunConfig(
        input=x,
        spec=spec,
        encoder=encoder,
        perturb=perturb,
        readout=readout,
        train=train_config,
        dataset=dataset,
        seed=seed,
        max_qubits=None if max_qubits is None else _int(max_qubits, "max_qubits", 1),
        raw=raw,
    )


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return parse_config(raw, seed_override)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
