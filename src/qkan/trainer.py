"""Numerical-gradient training of the weight tensors against sampled targets.

Parameter-shift rules do not apply to the nonlinear activations, so gradients
come from central finite differences or SPSA. The readout is a model object
with an ``outputs(spec)`` method on fixed sample inputs: a
:class:`SimulatedModel` runs the simulator (the default), a
:class:`ClassicalModel` the classical evaluator, for cross-checks (the two
agree to 1e-9 by construction). A positive shot count re-estimates the
model's outputs from measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# register), the largest of a loss evaluation. The state it applies is one
# qubit per layer smaller: the idle QSVT ancillas are counted, not simulated
# (see BlockEncoding). 18 is the largest size measured
# on the two models below, not a measured bandwidth limit. On 64 samples
# (2-vCPU host, median of 5 rounds in alternating width order), a 2->2->2
# (d = 3, 2) model took 0.164 s at m = 1, 0.067-0.087 s at m = 4-6 (an
# 18-qubit last operator at m = 6), and a 2->2->2->1 (d = 2) model 0.87-0.94 s
# at m <= 2 (18 qubits at m = 2) and 1.25-1.61 s at m = 3-6.
STATE_QUBITS = 18


def sample_register_width(spec: QkanSpec, samples: int) -> int:
    """Qubits m of the sample register: the fewest that hold every sample,
    capped so that the last layer's operator, the largest of the network,
    fits both the qubit budget and STATE_QUBITS. Samples beyond 2^m go to
    further chunks; m = 0 evaluates one sample at a time."""
    width = max(0, (samples - 1).bit_length())
    # ancillas after the last layer, plus its outputs; each layer adds more
    # qubits than the previous one's outputs, so no earlier operator is larger
    last = analytic_cost(spec).aux_totals[-1] + spec.layers[-1].n_qubits_out
    return max(min(width, min(max_qubits(), STATE_QUBITS) - last), 0)


class SimulatedModel:
    """Network outputs on fixed sample inputs, evaluated through the simulator.

    The samples are a register. Each chunk of 2^m samples (m from
    :func:`sample_register_width`) is one diagonal input encoding over the
    system [p | sample], diagonal index p * 2^m + s; every layer carries the
    sample register as its trailing system qubits, and one application of
    the network reads the outputs of the whole chunk (see
    :func:`~qkan.block_encoding.extract_diagonal`). The last chunk is padded
    with x = 0 rows, whose outputs are dropped.

    Each chunk has its own :class:`~qkan.network.NetworkAssembler`, which
    keeps the first layer's input-only Chebyshev encodings and its MUL term
    of each degree whose weight slice is unchanged, and rebuilds the deeper
    layers, whose input changes with the upstream weights: a
    finite-difference loss re-encodes one weight slice of the first layer.
    """

    def __init__(self, spec: QkanSpec, xs: np.ndarray):
        self.spec = spec
        self.xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        first = spec.layers[0]
        if self.xs.shape[1] != first.n_in:
            raise ContractViolationError(f"input shape {self.xs.shape} does not match N = {first.n_in}")
        self.sample_qubits = sample_register_width(spec, self.xs.shape[0])
        chunk = 1 << self.sample_qubits
        self.assemblers = []
        for start in range(0, self.xs.shape[0], chunk):
            rows = np.zeros((chunk, first.n_in))
            part = self.xs[start:start + chunk]
            rows[: part.shape[0]] = part
            be_x = encode_diagonal_exact(rows.T.reshape(-1), name="x")  # index p * 2^m + s
            be_x = split_system(be_x, self.sample_qubits)
            self.assemblers.append(NetworkAssembler(be_x, first))

    def outputs(self, spec: QkanSpec) -> np.ndarray:
        chunk = 1 << self.sample_qubits
        out = np.empty((self.xs.shape[0], spec.dims[-1]))
        for start, assembler in zip(range(0, out.shape[0], chunk), self.assemblers):
            be = assembler.build(spec).output
            values = extract_diagonal(be).real.reshape(-1, chunk).T  # diagonal index q * 2^m + s
            rows = out[start:start + chunk]
            rows[:] = values[: rows.shape[0]]
        return out


class ClassicalModel:
    """Network outputs on fixed sample inputs from the classical evaluator,
    all samples in one batch (:func:`~qkan.network.classical_network_eval`)."""

    def __init__(self, spec: QkanSpec, xs: np.ndarray):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))

    def outputs(self, spec: QkanSpec) -> np.ndarray:
        return classical_network_eval(self.xs, spec)


def _network(weights: list[np.ndarray]) -> QkanSpec:
    return QkanSpec(tuple(LayerSpec(w) for w in weights))


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
    preds = model.outputs(spec)
    if shots:
        preds, _ = shot_estimates(preds, shots, np.random.default_rng(seed))
    return float(np.mean((preds - data.ys) ** 2))


def finite_diff_grad(
    spec: QkanSpec,
    data: Dataset,
    h: float,
    model: SimulatedModel | ClassicalModel | None = None,
) -> list[np.ndarray]:
    """Central differences per weight; one-sided at the [-1, 1] boundary.
    Every loss reads `model`, by default one :class:`SimulatedModel` on
    ``data.xs`` for the whole gradient."""
    if model is None:
        model = SimulatedModel(spec, data.xs)

    def loss_at(candidate: QkanSpec) -> float:
        return loss(candidate, data, model=model)

    base: float | None = None
    grads = []
    for layer_index, layer in enumerate(spec.layers):
        grad = np.zeros_like(layer.weights)
        flat = layer.weights.reshape(-1)
        shape = layer.weights.shape
        for i in range(flat.size):
            w = flat[i]
            up = min(w + h, 1.0)
            down = max(w - h, -1.0)
            if up > w and down < w:
                plus = flat.copy()
                plus[i] = up
                minus = flat.copy()
                minus[i] = down
                val = (
                    loss_at(spec.with_layer_weights(layer_index, plus.reshape(shape)))
                    - loss_at(spec.with_layer_weights(layer_index, minus.reshape(shape)))
                ) / (up - down)
            else:
                if base is None:
                    base = loss_at(spec)
                other = flat.copy()
                other[i] = down if up == w else up
                side = loss_at(spec.with_layer_weights(layer_index, other.reshape(shape)))
                val = (base - side) / (w - other[i])
            grad.reshape(-1)[i] = val
        grads.append(grad)
    return grads


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
    Both losses read `model`, by default a :class:`SimulatedModel` on
    ``data.xs``. The perturbation and, with ``shots > 0``, the shot noise of
    both losses come from ``default_rng([seed, iteration])``."""
    if model is None:
        model = SimulatedModel(spec, data.xs)
    rng = np.random.default_rng([seed, iteration])
    a_k = eta / (iteration + 1) ** 0.602
    c_k = c / (iteration + 1) ** 0.101
    weights = [layer.weights for layer in spec.layers]
    deltas = [rng.integers(0, 2, size=w.shape) * 2.0 - 1.0 for w in weights]
    plus = _network([np.clip(w + c_k * d, -1, 1) for w, d in zip(weights, deltas)])
    minus = _network([np.clip(w - c_k * d, -1, 1) for w, d in zip(weights, deltas)])
    diff = (loss(plus, data, model=model, shots=shots, seed=rng)
            - loss(minus, data, model=model, shots=shots, seed=rng)) / (2.0 * c_k)
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
    :class:`SimulatedModel` on ``data.xs``) and, for ``"shots"``, the shot
    count. Raises :class:`DivergenceError` when the loss exceeds 10x the
    initial value for 50 consecutive iterations; stops on a plateau when the
    last ``plateau_window + 1`` losses spread by at most PLATEAU_RTOL times
    the last one.
    """
    model = (ClassicalModel if config.readout == "classical" else SimulatedModel)(spec, data.xs)
    shots = config.shots if config.readout == "shots" else 0
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
