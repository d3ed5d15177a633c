from dataclasses import dataclass, field

import numpy as np
import pytest

import qkan
from qkan.errors import ContractViolationError, DegenerateOutputError, DomainError

from oracles import binomial_ci_halfwidth, hadamard_test as oracle_hadamard_test
from qkan import operators as ops
from qkan.block_encoding import primitive_encoding
from qkan.readout import read_outputs


@pytest.fixture
def half_layer():
    """N=2, K=2, d=1, all weights 1, x=(1,-1): Phi = (0.5, 0.5)."""
    spec = qkan.LayerSpec(np.ones((2, 2, 2)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([1.0, -1.0])), spec)
    return be, qkan.classical_layer_eval(np.array([1.0, -1.0]), spec)


def test_hadamard_exact_identity():
    be = qkan.identity_encoding(2)
    for q in range(4):
        assert qkan.hadamard_test(be, q).value == pytest.approx(1.0, abs=1e-14)


def test_hadamard_exact_zero_weight_layer():
    spec = qkan.LayerSpec(np.zeros((2, 2, 2)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.2])), spec)
    result = qkan.hadamard_test(be, 0)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    assert result.stderr == 0.0 and result.shots == 0


def test_hadamard_exact_matches_diagonal(half_layer):
    be, _ = half_layer
    diag = qkan.extract_diagonal(be).real
    for q in range(be.system_dim):
        assert abs(qkan.hadamard_test(be, q).value - diag[q]) <= 1e-12


def test_hadamard_shots_example(half_layer):
    be, oracle = half_layer
    result = qkan.hadamard_test(be, 0, shots=10**6, seed=7)
    assert abs(result.value - 0.5) <= 5e-3
    assert result.stderr == pytest.approx(
        binomial_ci_halfwidth(0.75, 10**6, z=2.0), rel=0.05
    )


def test_hadamard_out_of_range(half_layer):
    be, _ = half_layer
    with pytest.raises(DomainError):
        qkan.hadamard_test(be, 4)


def test_estimate_all_outputs_exact(half_layer):
    be, oracle = half_layer
    results = qkan.estimate_all_outputs(be)
    values = np.array([r.value for r in results])
    assert np.max(np.abs(values - qkan.extract_diagonal(be).real)) <= 1e-12
    assert np.max(np.abs(values - oracle)) <= 1e-9


def _readout_case(dims, degrees, eps=0.0):
    """A built layer or network, optionally perturbed so the block has off-diagonal error."""
    spec = qkan.QkanSpec(tuple(
        qkan.LayerSpec.random(n_in, n_out, d, seed=40 + i)
        for i, (n_in, n_out, d) in enumerate(zip(dims, dims[1:], degrees))
    ))
    x = np.linspace(-0.7, 0.6, dims[0])
    be = qkan.build_network(qkan.encode_diagonal_exact(x), spec).output
    return qkan.perturb(be, eps, seed=9) if eps else be


@pytest.mark.parametrize(
    "dims, degrees, eps",
    [((2, 2), (1,), 0.0), ((2, 4), (1,), 0.0), ((4, 2), (1,), 0.0), ((2, 2), (2,), 0.0),
     ((2, 2), (1,), 1e-2), ((2, 1, 1), (1, 1), 0.0)],
)
def test_hadamard_readout_matches_dense_circuit_oracle(dims, degrees, eps):
    """Exact and seeded-shot readouts equal the dense (H x I) CU (H x I) circuit,
    with the same binomial draws: per node, over all nodes and for one node."""
    be = _readout_case(dims, degrees, eps)
    assert be.op.n <= 8
    u = be.op.dense()
    nodes = range(be.system_dim)
    for q in nodes:
        assert abs(qkan.hadamard_test(be, q).value - oracle_hadamard_test(u, q)[0]) <= 1e-12
        for shots, seed in ((1000, 5), (7, 11)):
            got = qkan.hadamard_test(be, q, shots=shots, seed=seed)
            assert np.allclose((got.value, got.stderr), oracle_hadamard_test(u, q, shots, seed),
                               rtol=0.0, atol=1e-12)
            _, (one,) = read_outputs(be, shots, seed, node=q)
            assert one == got
    for shots in (0, 1000):
        results = qkan.estimate_all_outputs(be, shots=shots, seed=3)
        want = [oracle_hadamard_test(u, q, shots, [3, q]) for q in nodes]
        assert np.allclose([(r.value, r.stderr) for r in results], want, rtol=0.0, atol=1e-12)
        values, same = read_outputs(be, shots, 3)
        assert same == results
        assert np.allclose(values, be.alpha * np.diag(u)[: be.system_dim], rtol=0.0, atol=1e-12)


def test_read_outputs_diagonal_is_extract_diagonal_bit_for_bit():
    be = _readout_case((2, 2, 2), (2, 1))
    assert np.array_equal(read_outputs(be, 100, 1)[0], qkan.extract_diagonal(be))


@dataclass(frozen=True, eq=False)
class CountingDense(ops.Dense):
    """A dense leaf that records the column count of each application."""

    calls: list = field(default_factory=list)

    def _apply(self, cols):
        self.calls.append(cols.shape[1])
        return super()._apply(cols)


def test_every_reader_of_the_row_sums_shares_one_application():
    """extract_diagonal, read_outputs (exact and shots) and
    prepare_state_postselect all read (<0|_aux (x) I) U (|0>_aux (x) sum_j |j>)
    of one encoding: its leaf is applied once, to one column."""
    x = np.array([0.6, -0.2, 0.0, 0.8])
    leaf = CountingDense(qkan.encode_diagonal_exact(x).op.dense())
    be = primitive_encoding(leaf, (("a", 1),), (("sys", 2),), "u", diagonal=True)
    diagonal = qkan.extract_diagonal(be)
    values, exact = read_outputs(be)
    _, shots = read_outputs(be, shots=100, seed=3)
    prepared = qkan.prepare_state_postselect(be, target=x)
    assert leaf.calls == [1]
    assert np.array_equal(diagonal, x) and np.array_equal(values, x)
    assert [r.value for r in exact] == list(x) and len(shots) == 4
    assert prepared.success_prob == pytest.approx(np.sum(x**2) / 4, abs=1e-15)
    assert prepared.l2_error <= 1e-15


def test_hadamard_readout_counts_the_control_qubit(half_layer):
    be, _ = half_layer
    with qkan.qubit_budget(be.num_aux + be.num_system):
        with pytest.raises(qkan.ResourceLimitError):
            qkan.hadamard_test(be, 0)
        with pytest.raises(qkan.ResourceLimitError):
            read_outputs(be, 100, 1)
        qkan.extract_diagonal(be)  # the diagonal alone needs no control
    with qkan.qubit_budget(be.num_aux + be.num_system + 1):
        assert len(qkan.estimate_all_outputs(be, shots=10, seed=1)) == be.system_dim


def test_estimates_unbiased(half_layer):
    be, _ = half_layer
    exact = qkan.hadamard_test(be, 0).value
    estimates, stderrs = [], []
    for seed in range(100):
        r = qkan.hadamard_test(be, 0, shots=10**4, seed=seed)
        estimates.append(r.value)
        stderrs.append(r.stderr)
    mean = np.mean(estimates)
    assert abs(mean - exact) <= 3 * np.mean(stderrs) / np.sqrt(len(estimates))


def test_stderr_scaling(half_layer):
    be, _ = half_layer
    spread = {}
    for shots in (10**4, 10**6):
        vals = [qkan.hadamard_test(be, 0, shots=shots, seed=s).value for s in range(100)]
        spread[shots] = np.std(vals)
    ratio = spread[10**4] / spread[10**6]
    assert 8.0 <= ratio <= 12.0  # 1/sqrt(shots) scaling within 20%


def test_prepare_state_half_half(half_layer):
    be, oracle = half_layer
    prepared = qkan.prepare_state_postselect(be, target=oracle)
    assert prepared.norm_const == pytest.approx(np.sqrt(0.5))
    assert prepared.success_prob == pytest.approx(0.25, abs=1e-9)
    assert prepared.l2_error <= 1e-9
    amps = prepared.amplitudes.amplitudes
    assert np.max(np.abs(amps.imag)) < 1e-10
    assert np.allclose(np.abs(amps), 1 / np.sqrt(2))


def test_prepare_state_single_nonzero_entry():
    w = np.zeros((2, 2, 2))
    w[0, :, 1] = 1.0  # only output node 1 receives weight
    spec = qkan.LayerSpec(w)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, 0.8])), spec)
    prepared = qkan.prepare_state_postselect(be)
    assert np.allclose(np.abs(prepared.amplitudes.amplitudes), [0.0, 1.0], atol=1e-9)


def test_statevector_norm_enforced():
    with pytest.raises(ContractViolationError):
        qkan.StateVector(np.array([1.0, 1.0]))
    sv = qkan.StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-12


def test_prepare_state_degenerate():
    spec = qkan.LayerSpec(np.zeros((2, 2, 2)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, 0.8])), spec)
    with pytest.raises(DegenerateOutputError):
        qkan.prepare_state_postselect(be)


def test_prepare_state_success_prob_bound_under_perturbation(rng):
    spec = qkan.LayerSpec.random(2, 2, 2, seed=21)
    x = rng.uniform(-1, 1, 2)
    oracle = qkan.classical_layer_eval(x, spec)
    norm_const = np.linalg.norm(oracle)
    eps_x = 1e-6
    be_x = qkan.perturb(qkan.encode_diagonal_exact(x), eps_x, seed=5)
    built = qkan.build_layer(be_x, spec)
    prepared = qkan.prepare_state_postselect(built, target=oracle)
    bound = 4 * spec.degree * np.sqrt(eps_x)
    assert abs(np.sqrt(prepared.success_prob) - norm_const / np.sqrt(2)) <= bound


def test_check_stateprep_bound_examples():
    assert qkan.check_stateprep_bound(0.3, 0.0, 0.0, degree=3, k_out=2, norm_const=0.4)
    thr_x, thr_w = qkan.stateprep_thresholds(0.1, degree=2, k_out=2, norm_const=0.5)
    assert thr_x == pytest.approx(0.25 * 0.01 / (144 * 2 * 4))
    assert qkan.check_stateprep_bound(0.1, thr_x, thr_w, 2, 2, 0.5)
    assert not qkan.check_stateprep_bound(0.1, thr_x * 2, thr_w, 2, 2, 0.5)
    with pytest.raises(DomainError):
        qkan.check_stateprep_bound(0.7, 0, 0, 1, 2, 0.5)


def test_stateprep_bound_end_to_end(rng):
    spec = qkan.LayerSpec.random(2, 2, 2, seed=22)
    x = rng.uniform(-1, 1, 2)
    oracle = qkan.classical_layer_eval(x, spec)
    norm_const = float(np.linalg.norm(oracle))
    eps = 0.1
    thr_x, thr_w = qkan.stateprep_thresholds(eps, spec.degree, spec.n_out, norm_const)

    def encoder(vec, name):
        return qkan.perturb(qkan.encode_diagonal_exact(vec, name=name), thr_w, seed=sum(name.encode()))

    be_x = qkan.perturb(qkan.encode_diagonal_exact(x), thr_x, seed=23)
    built = qkan.build_layer(be_x, spec, weight_encoder=encoder)
    prepared = qkan.prepare_state_postselect(built, target=oracle)
    assert prepared.l2_error <= eps


def test_one_shot_model_serves_the_hadamard_test_and_the_loss(rng):
    from qkan.readout import shot_estimates

    x = rng.uniform(-1, 1, 4)
    be = qkan.encode_diagonal_exact(x)
    for q in range(4):
        value, stderr = shot_estimates(x[q], 1000, np.random.default_rng([7, q]))
        result = qkan.hadamard_test(be, q, shots=1000, seed=[7, q])
        assert (result.value, result.stderr, result.shots) == (value, stderr, 1000)
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 2, seed=3),))
    data = qkan.Dataset.from_function(lambda p: [0.1 * p[0]], 2, 4)
    exact = qkan.SimulatedModel(spec, data.xs).outputs([spec])[0]
    drawn, _ = shot_estimates(exact, 1000, np.random.default_rng(11))
    got = qkan.loss(spec, data, shots=1000, seed=11)
    assert got == float(np.mean((drawn - data.ys) ** 2))


def test_shot_estimates_are_clipped_and_report_their_stderr():
    from qkan.readout import shot_estimates

    values, stderr = shot_estimates(np.array([-1.5, 1.0, 0.0]), 4096, np.random.default_rng(1))
    assert values[0] == -1.0 and values[1] == 1.0 and stderr[0] == stderr[1] == 0.0
    assert abs(values[2]) <= 4 * stderr[2] and stderr[2] == pytest.approx(1 / 64, rel=0.05)
