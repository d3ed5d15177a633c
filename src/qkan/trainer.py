"""Numerical-gradient training of the weight tensors against sampled targets.

Parameter-shift rules do not apply to the nonlinear activations, so gradients
come from central finite differences or SPSA. The readout is a model object
with an ``outputs(specs)`` method that evaluates a sequence of candidate
networks on fixed sample inputs in one call: a :class:`SimulatedModel` runs
the simulator (the default), a :class:`ClassicalModel` the classical
evaluator, for cross-checks (the two agree to 1e-9 by construction). Every
loss of one optimizer step comes from one such call. A positive shot count
re-estimates the model's outputs from measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .block_encoding import extract_diagonal, split_system
from .encoders import encode_diagonal_exact
from .errors import ContractViolationError, DivergenceError, DomainError
from .network import LayerSpec, NetworkAssembler, QkanSpec, classical_network_eval
from .operators import max_qubits, outside_unit_interval
from .readout import shot_estimates
from .resources import analytic_cost

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_STREAK = 50
PLATEAU_RTOL = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "finite_difference"  # or "spsa"
    eta: float = 25.0
    h: float = 1e-4
    c: float = 0.1
    iterations: int = 200
    seed: int = 0
    readout: str = "exact"  # "exact" | "classical" | "shots"
    shots: int = 0
    loss_goal: float | None = None
    plateau_window: int = 25

    def __post_init__(self):
        if self.h <= 0 or self.c <= 0:
            raise DomainError("finite-difference and SPSA steps must be positive")
        if self.iterations < 0:
            raise DomainError("iteration count must be non-negative")
        if self.optimizer not in ("finite_difference", "spsa"):
            raise DomainError(f"unknown optimizer {self.optimizer!r}")
        if self.readout not in ("exact", "classical", "shots"):
            raise DomainError(f"unknown readout mode {self.readout!r}")
        if self.readout == "shots" and self.shots < 1:
            raise DomainError("shots readout needs a positive shot count")
        if self.readout != "shots" and self.shots:
            raise DomainError(
                f"the {self.readout} readout takes no shot count, got {self.shots}; "
                "set readout 'shots' to train on measured outputs"
            )
        if self.optimizer == "finite_difference" and self.readout == "shots":
            raise DomainError(
                "finite differences divide shot noise by 2h and send every weight to +-1; "
                "train a shots readout with SPSA (optimizer 'spsa', Spall 1992), which is "
                "built for noisy losses"
            )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Samples (x in [-1,1]^N, y in [-1,1]^K)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        ys = np.atleast_2d(np.asarray(self.ys, dtype=np.float64))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.shape[0] != ys.shape[0]:
            raise ContractViolationError("sample count mismatch between inputs and targets")
        if outside_unit_interval(xs) or outside_unit_interval(ys):
            raise DomainError("dataset entries must lie in [-1, 1]")

    def __len__(self):
        return self.xs.shape[0]

    @classmethod
    def from_function(cls, fn, n_in: int, points_per_axis: int) -> "Dataset":
        """Tensor grid over [-1, 1]^n_in with targets fn(x) per row."""
        axis = np.linspace(-1.0, 1.0, points_per_axis)
        mesh = np.meshgrid(*([axis] * n_in), indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=1)
        ys = np.array([np.atleast_1d(fn(x)) for x in xs], dtype=np.float64)
        return cls(xs, ys)


# Layout qubits of the last layer's output encoding (ancillas + outputs + sample
# register), the largest of one model evaluation. The state it applies is one
# qubit per layer smaller: the idle QSVT ancillas are counted, not simulated
# (see BlockEncoding). The register holds (candidate, sample) pairs, so this
# also caps how many candidates one application reads. 18 is the largest size
# measured on the two models below, not a measured bandwidth limit. On 64
# samples (2-vCPU host, median of 5 rounds in alternating width order), a
# 2->2->2 (d = 3, 2) model took 0.164 s at m = 1, 0.067-0.087 s at m = 4-6 (an
# 18-qubit last operator at m = 6), and a 2->2->2->1 (d = 2) model 0.87-0.94 s
# at m <= 2 (18 qubits at m = 2) and 1.25-1.61 s at m = 3-6.
STATE_QUBITS = 18


def sample_register_width(spec: QkanSpec, samples: int) -> int:
    """Qubits m of the sample register: the fewest that hold every sample
    (or every (candidate, sample) pair), capped so that the last layer's
    operator, the largest of the network, fits both the qubit budget and
    STATE_QUBITS. Samples beyond 2^m go to further chunks; m = 0 evaluates
    one sample at a time."""
    width = max(0, (samples - 1).bit_length())
    # ancillas after the last layer, plus its outputs; each layer adds more
    # qubits than the previous one's outputs, so no earlier operator is larger
    last = analytic_cost(spec).aux_totals[-1] + spec.layers[-1].n_qubits_out
    return max(min(width, min(max_qubits(), STATE_QUBITS) - last), 0)


class SimulatedModel:
    """Network outputs on fixed sample inputs, evaluated through the simulator.

    The trailing `sample` register of m qubits indexes (candidate, sample)
    pairs, candidate-major: each candidate's S samples are padded to 2^s
    rows with x = 0 (s = ceil(log2 S)), the same x for every candidate, and
    m comes from :func:`sample_register_width` applied to the pair count.
    One diagonal input encoding over the system [p | sample] (diagonal
    index p * 2^m + t) feeds the network, whose weight encodings carry each
    candidate's weights at its register states (see
    :class:`~qkan.network.LayerAssembler`), and one application reads every
    layer output of 2^(m - s) candidates (see
    :func:`~qkan.block_encoding.extract_diagonal`). When the cap leaves no
    room for two candidates (m <= s), the candidates run one after another,
    each through chunks of 2^m samples; the last chunk is padded with x = 0
    rows. Outputs at padding rows are dropped.

    Each chunk of each register width has its own
    :class:`~qkan.network.NetworkAssembler` (`assemblers`, built for the one
    candidate width at construction and for a wider register on first use),
    which keeps the first layer's input-only Chebyshev encodings and its
    MUL term of each degree whose weight slice is unchanged, and rebuilds
    the deeper layers, whose input changes with the upstream weights.
    """

    def __init__(self, spec: QkanSpec, xs: np.ndarray):
        self.spec = spec
        self.xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if self.xs.shape[1] != spec.layers[0].n_in:
            raise ContractViolationError(
                f"input shape {self.xs.shape} does not match N = {spec.layers[0].n_in}"
            )
        # qubits of one candidate's padded samples
        self._slot_qubits = max(0, (self.xs.shape[0] - 1).bit_length())
        self.sample_qubits = sample_register_width(spec, self.xs.shape[0])
        self._widths = {1: self.sample_qubits}  # register width per candidate count
        self.assemblers: dict[int, list[NetworkAssembler]] = {}
        self._assemblers(self.sample_qubits)

    def _assemblers(self, m: int) -> list[NetworkAssembler]:
        """The chunks' assemblers on an m-qubit register, built on first use."""
        if m not in self.assemblers:
            slot, per = self._shares(m)
            rows = np.zeros((-(-self.xs.shape[0] // slot) * slot, self.xs.shape[1]))
            rows[: self.xs.shape[0]] = self.xs
            chunks = []
            for part in rows.reshape(-1, slot, rows.shape[1]):
                register = np.tile(part, (per, 1))
                be_x = encode_diagonal_exact(register.T.reshape(-1), name="x")  # index p * 2^m + t
                chunks.append(NetworkAssembler(split_system(be_x, m), self.spec.layers[0]))
            self.assemblers[m] = chunks
        return self.assemblers[m]

    def _shares(self, m: int) -> tuple[int, int]:
        """(sample rows per candidate and chunk, candidates per chunk) of an
        m-qubit register."""
        return 1 << min(m, self._slot_qubits), 1 << max(m - self._slot_qubits, 0)

    def outputs(self, specs: Sequence[QkanSpec]) -> np.ndarray:
        """Outputs of every candidate network of `specs` on every sample,
        shape (candidates, samples, K)."""
        samples = self.xs.shape[0]
        m = self._widths.get(len(specs))
        if m is None:
            m = self._widths[len(specs)] = sample_register_width(
                self.spec, len(specs) << self._slot_qubits
            )
        slot, per = self._shares(m)
        out = np.empty((len(specs), samples, specs[0].dims[-1]))
        for first in range(0, len(specs), per):
            group = list(specs[first:first + per])
            group += group[-1:] * (per - len(group))  # padding candidates, dropped
            for start, assembler in zip(range(0, samples, slot), self._assemblers(m)):
                values = extract_diagonal(assembler.build(group).output).real
                # diagonal index (q * per + c) * slot + sample
                values = values.reshape(-1, per, slot).transpose(1, 2, 0)
                rows = out[first:first + per, start:start + slot]
                rows[:] = values[: rows.shape[0], : rows.shape[1]]
        return out


class ClassicalModel:
    """Network outputs on fixed sample inputs from the classical evaluator,
    all samples of a candidate in one batch
    (:func:`~qkan.network.classical_network_eval`)."""

    def __init__(self, spec: QkanSpec, xs: np.ndarray):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))

    def outputs(self, specs: Sequence[QkanSpec]) -> np.ndarray:
        """Shape (candidates, samples, K), as :meth:`SimulatedModel.outputs`."""
        return np.stack([classical_network_eval(self.xs, spec) for spec in specs])


def _network(weights: list[np.ndarray]) -> QkanSpec:
    return QkanSpec(tuple(LayerSpec(w) for w in weights))


def _mse(preds: np.ndarray, data: Dataset, shots: int, seed) -> float:
    """Mean squared error of one candidate's outputs, re-estimated from
    `shots` measurements each when positive."""
    if shots:
        preds, _ = shot_estimates(preds, shots, np.random.default_rng(seed))
    return float(np.mean((preds - data.ys) ** 2))


def loss(
    spec: QkanSpec,
    data: Dataset,
    model: SimulatedModel | ClassicalModel | None = None,
    shots: int = 0,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Mean squared error between the model's outputs and the targets; no
    model means a :class:`SimulatedModel` on ``data.xs``.

    With ``shots > 0`` each output is re-estimated from `shots` measurements
    (:func:`~qkan.readout.shot_estimates`) drawn from
    ``np.random.default_rng(seed)``; pass a Generator to draw successive
    calls from one stream."""
    if shots < 0:
        raise DomainError("shot count must be non-negative")
    if model is None:
        model = SimulatedModel(spec, data.xs)
    return _mse(model.outputs([spec])[0], data, shots, seed)


def finite_diff_grad(
    spec: QkanSpec,
    data: Dataset,
    h: float,
    model: SimulatedModel | ClassicalModel | None = None,
) -> list[np.ndarray]:
    """Central differences per weight; one-sided at the [-1, 1] boundary.

    Every candidate network of the gradient (the plus and minus of each
    weight, the one-sided step of a weight at the boundary, and the
    unchanged weights, only when some weight is at the boundary) is read by
    one ``model.outputs`` call, by default of a :class:`SimulatedModel` on
    ``data.xs``."""
    if model is None:
        model = SimulatedModel(spec, data.xs)
    weights = [layer.weights for layer in spec.layers]
    candidates: list[QkanSpec] = []
    base: int | None = None  # candidate index of the unchanged weights

    def candidate(layer_index: int, flat: np.ndarray) -> int:
        moved = list(weights)
        moved[layer_index] = flat.reshape(weights[layer_index].shape)
        candidates.append(_network(moved))
        return len(candidates) - 1

    # per layer and weight: the gradient is (loss[a] - loss[b]) / denominator
    terms: list[list[tuple[int, int, float]]] = []
    for layer_index, w in enumerate(weights):
        flat = w.reshape(-1)
        terms.append([])
        for i in range(flat.size):
            up = min(flat[i] + h, 1.0)
            down = max(flat[i] - h, -1.0)
            if up > flat[i] and down < flat[i]:
                plus, minus = flat.copy(), flat.copy()
                plus[i], minus[i] = up, down
                terms[-1].append((candidate(layer_index, plus), candidate(layer_index, minus), up - down))
            else:
                if base is None:
                    candidates.append(spec)
                    base = len(candidates) - 1
                other = flat.copy()
                other[i] = down if up == flat[i] else up
                terms[-1].append((base, candidate(layer_index, other), flat[i] - other[i]))
    losses = [_mse(preds, data, 0, None) for preds in model.outputs(candidates)]
    return [np.reshape([(losses[a] - losses[b]) / denominator for a, b, denominator in layer], w.shape)
            for layer, w in zip(terms, weights)]


def spsa_step(
    spec: QkanSpec,
    data: Dataset,
    iteration: int,
    seed: int,
    eta: float = 0.1,
    c: float = 0.1,
    model: SimulatedModel | ClassicalModel | None = None,
    shots: int = 0,
) -> QkanSpec:
    """One Rademacher-perturbation SPSA update with the standard gain schedules
    a_k = eta/(k+1)^0.602 and c_k = c/(k+1)^0.101; weights clamp to [-1, 1].
    Both candidates are read by one ``model.outputs`` call, by default of a
    :class:`SimulatedModel` on ``data.xs``. The perturbation and, with
    ``shots > 0``, the shot noise of both losses (the plus candidate's
    first) come from ``default_rng([seed, iteration])``."""
    if shots < 0:
        raise DomainError("shot count must be non-negative")
    if model is None:
        model = SimulatedModel(spec, data.xs)
    rng = np.random.default_rng([seed, iteration])
    a_k = eta / (iteration + 1) ** 0.602
    c_k = c / (iteration + 1) ** 0.101
    weights = [layer.weights for layer in spec.layers]
    deltas = [rng.integers(0, 2, size=w.shape) * 2.0 - 1.0 for w in weights]
    plus = _network([np.clip(w + c_k * d, -1, 1) for w, d in zip(weights, deltas)])
    minus = _network([np.clip(w - c_k * d, -1, 1) for w, d in zip(weights, deltas)])
    preds = model.outputs([plus, minus])
    diff = (_mse(preds[0], data, shots, rng) - _mse(preds[1], data, shots, rng)) / (2.0 * c_k)
    return _network([np.clip(w - a_k * diff * d, -1.0, 1.0) for w, d in zip(weights, deltas)])


@dataclass(frozen=True, eq=False)
class TrainResult:
    spec: QkanSpec
    losses: tuple[float, ...]
    stop_reason: str  # "iterations" | "loss_goal" | "plateau"

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train(spec: QkanSpec, data: Dataset, config: TrainConfig) -> TrainResult:
    """Iterate the chosen optimizer; deterministic given the config seed.

    The config's readout is read here only: it picks the model every loss of
    the run reads (a :class:`ClassicalModel` for ``"classical"``, else one
    :class:`SimulatedModel` on ``data.xs``); the config's shot count, which
    only the ``"shots"`` readout may set, goes to every loss. Raises
    :class:`DivergenceError` when the loss exceeds 10x the initial value for
    50 consecutive iterations; stops on a plateau when the last
    ``plateau_window + 1`` losses spread by at most PLATEAU_RTOL times the
    last one.
    """
    model = (ClassicalModel if config.readout == "classical" else SimulatedModel)(spec, data.xs)
    shots = config.shots
    # one shot-noise stream for the run's own loss calls; spawned, so it never
    # coincides with spsa_step's default_rng([seed, iteration])
    noise = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])

    def run_loss(candidate: QkanSpec) -> float:
        return loss(candidate, data, model=model, shots=shots, seed=noise)

    current = spec
    losses = [run_loss(current)]
    initial = losses[0]
    streak = 0
    stop_reason = "iterations"
    for iteration in range(config.iterations):
        if config.loss_goal is not None and losses[-1] < config.loss_goal:
            stop_reason = "loss_goal"
            break
        window = config.plateau_window
        if window and len(losses) > window:
            recent = losses[-window - 1:]
            scale = max(abs(recent[-1]), 1e-30)
            if max(recent) - min(recent) <= PLATEAU_RTOL * scale:
                stop_reason = "plateau"
                break
        if config.optimizer == "finite_difference":
            grads = finite_diff_grad(current, data, config.h, model=model)
            current = _network([np.clip(layer.weights - config.eta * grad, -1.0, 1.0)
                                for layer, grad in zip(current.layers, grads)])
        else:
            current = spsa_step(current, data, iteration, config.seed,
                                eta=config.eta, c=config.c, model=model, shots=shots)
        losses.append(run_loss(current))
        if losses[-1] > DIVERGENCE_FACTOR * max(initial, 1e-30):
            streak += 1
            if streak >= DIVERGENCE_STREAK:
                raise DivergenceError(
                    f"loss {losses[-1]:.3e} stayed above 10x the initial value for "
                    f"{DIVERGENCE_STREAK} iterations"
                )
        else:
            streak = 0
    if config.loss_goal is not None and losses[-1] < config.loss_goal:
        stop_reason = "loss_goal"
    return TrainResult(current, tuple(losses), stop_reason)
