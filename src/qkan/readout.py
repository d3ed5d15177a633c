"""Solution extraction: Hadamard-test estimation of diagonal entries and
post-selected multivariate state preparation.

Amplitude estimation and amplitude amplification are emulated: success
probabilities come from the exact statevector, and the speedup claims are
recorded analytically by the resource model rather than simulated. Shot
noise uses seeded generators throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding, column_blocks, extract_diagonal
from .errors import DegenerateOutputError, DomainError
from .operators import check_qubit_budget
from .registers import RegisterLayout, StateVector


@dataclass(frozen=True)
class ReadoutResult:
    """Estimate of one output entry; shots = 0 marks an exact readout."""

    value: float
    stderr: float
    shots: int


@dataclass(frozen=True, eq=False)
class PreparedState:
    """Post-selected output state with success probability and oracle distance."""

    amplitudes: StateVector
    success_prob: float
    l2_error: float | None
    norm_const: float | None


def shot_estimates(values, shots: int, rng: np.random.Generator):
    """Estimates of values v in [-1, 1], elementwise, from `shots` readings
    each of a qubit that reads 0 with probability (1 + v)/2, clipped to
    [0, 1]: 2 p_hat - 1 and its standard error 2 sqrt(p_hat (1 - p_hat) /
    shots), where p_hat is the drawn fraction of 0 readings."""
    p_zero = np.clip((1.0 + values) / 2.0, 0.0, 1.0)
    p_hat = rng.binomial(shots, p_zero) / shots
    return 2.0 * p_hat - 1.0, 2.0 * np.sqrt(p_hat * (1.0 - p_hat) / shots)


def _branch_test(entry: complex, shots: int, seed) -> ReadoutResult:
    """Hadamard test of a node q from u = <0|_aux <q| U |0>_aux |q>. H,
    controlled U and H on a control qubit leave the control-0 branch
    (|0>_aux|q> + U|0>_aux|q>)/2; U is unitary, so the control reads 0 with
    probability (1 + Re u)/2."""
    if shots == 0:
        return ReadoutResult(float(entry.real), 0.0, 0)
    if shots < 0:
        raise DomainError("shot count must be non-negative")
    value, stderr = shot_estimates(entry.real, shots, np.random.default_rng(seed))
    return ReadoutResult(float(value), float(stderr), shots)


def _check_hadamard_test(be: BlockEncoding, q: int | None) -> None:
    if q is not None and not 0 <= q < be.system_dim:
        raise DomainError(f"node index {q} out of range for {be.system_dim} outputs")
    # the control is a real qubit; the budget counts the layout, idle ancillas too
    check_qubit_budget(be.num_aux + be.num_system + 1, "Hadamard test")


def hadamard_test(
    be: BlockEncoding,
    q: int,
    shots: int = 0,
    seed: int | None = None,
) -> ReadoutResult:
    """Estimate Re <0|_aux <q| U |0>_aux |q> from one application of U: exactly
    (shots = 0) or from Bernoulli samples of the control qubit's Z value."""
    _check_hadamard_test(be, q)
    ((_, out),) = column_blocks(be, np.array([q]))
    return _branch_test(out[q, 0], shots, seed)


def read_outputs(
    be: BlockEncoding,
    shots: int = 0,
    seed: int | None = None,
    node: int | None = None,
) -> tuple[np.ndarray, list[ReadoutResult]]:
    """The diagonal alpha <0|_aux <j| U |0>_aux |j> of every output j
    (:func:`~qkan.block_encoding.extract_diagonal`) and the Hadamard test of
    `node` (seeded with `seed`), or of every node j (seeded with [seed, j])
    when `node` is None, drawn from that diagonal.
    """
    _check_hadamard_test(be, node)
    values = extract_diagonal(be)
    nodes = range(be.system_dim) if node is None else (node,)
    results = [
        _branch_test(values[q] / be.alpha, shots,
                     [seed, q] if node is None and seed is not None else seed)
        for q in nodes
    ]
    return values, results


def estimate_all_outputs(
    be: BlockEncoding,
    shots: int = 0,
    seed: int | None = None,
) -> list[ReadoutResult]:
    """Elementwise Hadamard test over all output nodes, independent streams."""
    return read_outputs(be, shots, seed)[1]


def prepare_state_postselect(
    be: BlockEncoding,
    target: np.ndarray | None = None,
) -> PreparedState:
    """Apply the encoding to |0>_aux |+>_k, project the ancillas onto |0>, and
    renormalize. `target` is the oracle output vector Phi(x); when given, the
    report gives its l2 norm and the distance to the oracle state."""
    k_dim = be.system_dim
    state = np.zeros(be.op.dim)
    state[:k_dim] = 1.0 / np.sqrt(k_dim)  # |0>_aux |+>_k
    projected = be.op.apply(state, k_dim)
    prob = float(np.sum(np.abs(projected) ** 2))
    if prob < 1e-12:
        raise DegenerateOutputError(f"post-selection probability {prob} is numerically zero")
    normalized = projected / np.sqrt(prob)
    l2_error = None
    norm_const = None
    if target is not None:
        target = np.asarray(target, dtype=np.complex128)
        norm_const = float(np.linalg.norm(target))
        if norm_const < 1e-12:
            raise DegenerateOutputError("oracle output vector is numerically zero")
        l2_error = float(np.linalg.norm(normalized - target / norm_const))
    # report amplitudes with the largest-magnitude entry rotated to positive real
    anchor = normalized[int(np.argmax(np.abs(normalized)))]
    fixed = normalized * (anchor.conj() / abs(anchor))
    layout = RegisterLayout((("out", be.num_system),))
    return PreparedState(
        amplitudes=StateVector(fixed, layout),
        success_prob=prob,
        l2_error=l2_error,
        norm_const=norm_const,
    )


def check_stateprep_bound(
    eps: float,
    eps_x: float,
    eps_w: float,
    degree: int,
    k_out: int,
    norm_const: float,
) -> bool:
    """Whether the state-preparation hypotheses hold:
    eps_x <= N^2 eps^2 / (144 K d^2) and eps_w <= N eps / (3 sqrt(K))."""
    thr_x, thr_w = stateprep_thresholds(eps, degree, k_out, norm_const)
    return eps_x <= thr_x and eps_w <= thr_w


def stateprep_thresholds(eps: float, degree: int, k_out: int, norm_const: float) -> tuple[float, float]:
    """The (eps_x, eps_w) admissibility thresholds of the hypotheses above."""
    if not 0.0 < eps < 0.5:
        raise DomainError("target error must lie in (0, 1/2)")
    thr_x = np.inf if degree == 0 else norm_const**2 * eps**2 / (144.0 * k_out * degree**2)
    return float(thr_x), float(norm_const * eps / (3.0 * np.sqrt(k_out)))
