import numpy as np
import pytest
from hypothesis import given, strategies as st

import qkan
from qkan.block_encoding import read_block
from qkan.errors import ContractViolationError, DomainError, ResourceLimitError

from oracles import layer_forward, network_forward


def test_layer_spec_validation():
    with pytest.raises(DomainError):
        qkan.LayerSpec(np.full((2, 2, 1), 1.5))
    with pytest.raises(DomainError):
        qkan.LayerSpec(np.array([[[0.1], [0.2]], [[np.nan], [0.3]]]))
    with pytest.raises(ContractViolationError):
        qkan.LayerSpec(np.zeros((2, 3, 1)))
    spec = qkan.LayerSpec.random(4, 2, 3, seed=0)
    assert (spec.n_in, spec.n_out, spec.degree) == (4, 2, 3)
    assert np.all(np.abs(spec.weights) <= 1.0)


def test_qkan_spec_chaining():
    with pytest.raises(ContractViolationError):
        qkan.QkanSpec((qkan.LayerSpec.random(2, 2, 1, 0), qkan.LayerSpec.random(4, 1, 1, 0)))
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 4, 1, 0), qkan.LayerSpec.random(4, 1, 2, 0)))
    assert spec.dims == (2, 4, 1)
    assert spec.degrees == (1, 2)


def test_classical_layer_zero_weights():
    spec = qkan.LayerSpec(np.zeros((3, 4, 2)))
    assert np.allclose(qkan.classical_layer_eval(np.full(4, 0.3), spec), 0.0)


def test_classical_layer_hand_example():
    spec = qkan.LayerSpec(np.ones((2, 2, 1)))
    out = qkan.classical_layer_eval(np.array([1.0, -1.0]), spec)
    assert out == pytest.approx([0.5])


def test_classical_layer_domain():
    spec = qkan.LayerSpec(np.zeros((2, 2, 1)))
    with pytest.raises(DomainError):
        qkan.classical_layer_eval(np.array([1.5, 0.0]), spec)
    with pytest.raises(DomainError):
        qkan.classical_layer_eval(np.array([np.nan, 0.0]), spec)


@given(st.integers(0, 2**16))
def test_classical_outputs_bounded(seed):
    rng = np.random.default_rng(seed)
    spec = qkan.LayerSpec.random(4, 4, 3, seed=seed)
    x = rng.uniform(-1, 1, 4)
    out = qkan.classical_layer_eval(x, spec)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_classical_layer_matches_independent_oracle(rng):
    spec = qkan.LayerSpec.random(4, 2, 3, seed=3)
    x = rng.uniform(-1, 1, 4)
    assert np.allclose(qkan.classical_layer_eval(x, spec), layer_forward(x, spec.weights))


def test_classical_near_identity_layer():
    # d = 1, w^(1) = identity coupling, w^(0) = 0: Phi_q = x_q / (2N)
    n = 2
    w = np.zeros((2, n, n))
    w[1] = np.eye(n)
    spec = qkan.LayerSpec(w)
    x = np.array([0.6, -0.2])
    assert np.allclose(qkan.classical_layer_eval(x, spec), x / (2 * n))


def test_classical_network_composition(rng):
    layers = (qkan.LayerSpec.random(2, 2, 2, seed=4), qkan.LayerSpec.random(2, 1, 1, seed=5))
    spec = qkan.QkanSpec(layers)
    x = rng.uniform(-1, 1, 2)
    want = network_forward(x, [l.weights for l in layers])
    assert np.allclose(qkan.classical_network_eval(x, spec), want)


def test_classical_network_eval_takes_a_batch_of_samples(rng):
    spec = qkan.QkanSpec(
        (qkan.LayerSpec.random(4, 2, 3, seed=12), qkan.LayerSpec.random(2, 1, 2, seed=13))
    )
    xs = rng.uniform(-1, 1, (9, 4))
    got = qkan.classical_network_eval(xs, spec)
    assert got.shape == (9, 1)
    want = np.array([qkan.classical_network_eval(x, spec) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-15
    with pytest.raises(ContractViolationError):
        qkan.classical_network_eval(xs[:, :2], spec)
    with pytest.raises(DomainError):
        qkan.classical_network_eval(np.vstack([xs, np.full(4, 1.5)]), spec)


def test_build_layer_zero_weights():
    spec = qkan.LayerSpec(np.zeros((2, 2, 2)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.4, 0.9])), spec)
    assert np.max(np.abs(qkan.extract_diagonal(be))) < 1e-12


def test_build_layer_hand_example():
    spec = qkan.LayerSpec(np.ones((2, 2, 1)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([1.0, -1.0])), spec)
    assert qkan.extract_diagonal(be).real == pytest.approx([0.5])


def test_build_layer_ancilla_accounting():
    # a_x = a_w = 1, d = 3, n = 2 -> 1 + 1 + 1 + 2 + 2 = 7
    spec = qkan.LayerSpec.random(4, 4, 3, seed=6)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.full(4, 0.2)), spec)
    assert be.num_aux == 7
    assert be.num_system == 2


def test_build_layer_query_accounting():
    for d in (1, 2, 3):
        spec = qkan.LayerSpec.random(2, 2, d, seed=d)
        be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.1, 0.7]), name="x"), spec)
        assert be.cost.get("x", 0) == d * (d + 1) // 2
        weight_total = sum(v for k, v in be.cost.items() if k.startswith("w0["))
        assert weight_total == d + 1


def test_build_layer_dimension_mismatch():
    spec = qkan.LayerSpec.random(4, 2, 1, seed=0)
    with pytest.raises(ContractViolationError):
        qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.1, 0.2])), spec)


def test_build_layer_oracle_equivalence_batch(rng):
    for trial in range(20):
        n, k = rng.choice([2, 4]), rng.choice([2, 4])
        d = rng.choice([1, 3])
        spec = qkan.LayerSpec.random(int(n), int(k), int(d), seed=trial)
        x = rng.uniform(-1, 1, int(n))
        built = qkan.build_layer(qkan.encode_diagonal_exact(x), spec)
        want = qkan.classical_layer_eval(x, spec)
        assert np.max(np.abs(qkan.extract_diagonal(built) - want)) <= 1e-9


def test_build_layer_output_is_diagonal(rng):
    spec = qkan.LayerSpec.random(2, 4, 2, seed=8)
    x = rng.uniform(-1, 1, 2)
    built = qkan.build_layer(qkan.encode_diagonal_exact(x), spec)
    block = qkan.extract_block(built)
    offdiag = block - np.diag(np.diag(block))
    assert np.max(np.abs(offdiag)) <= 1e-10


def test_build_layer_nonpow2_degree_plus_one(rng):
    # d = 2: three LCU terms padded into a 2-qubit selector
    spec = qkan.LayerSpec.random(2, 2, 2, seed=9)
    x = rng.uniform(-1, 1, 2)
    built = qkan.build_layer(qkan.encode_diagonal_exact(x), spec)
    want = qkan.classical_layer_eval(x, spec)
    assert np.max(np.abs(qkan.extract_diagonal(built) - want)) <= 1e-9


def test_build_layer_degenerate_shapes(rng):
    # N = 1 (n = 0), K = 1 (k = 0), d = 0 all supported
    for n_in, n_out, d in ((1, 2, 1), (2, 1, 1), (2, 2, 0), (1, 1, 0)):
        spec = qkan.LayerSpec.random(n_in, n_out, d, seed=n_in * 4 + n_out + d)
        x = rng.uniform(-1, 1, n_in)
        built = qkan.build_layer(qkan.encode_diagonal_exact(x), spec)
        want = qkan.classical_layer_eval(x, spec)
        assert np.max(np.abs(qkan.extract_diagonal(built) - want)) <= 1e-9


def test_build_layer_error_bound(rng):
    spec = qkan.LayerSpec.random(2, 2, 3, seed=10)
    x = rng.uniform(-1, 1, 2)
    oracle = np.diag(qkan.classical_layer_eval(x, spec))
    for eps_x in (1e-8, 1e-4):
        be_x = qkan.perturb(qkan.encode_diagonal_exact(x), eps_x, seed=11)
        built = qkan.build_layer(be_x, spec)
        bound = 4 * spec.degree * np.sqrt(eps_x)
        assert qkan.verify(built, oracle) <= bound + 1e-10
        assert built.epsilon == pytest.approx(bound)


def test_build_layer_error_bound_with_weight_noise(rng):
    spec = qkan.LayerSpec.random(2, 2, 1, seed=12)
    x = rng.uniform(-1, 1, 2)
    oracle = np.diag(qkan.classical_layer_eval(x, spec))
    eps_x, eps_w = 1e-6, 1e-4

    def encoder(vec, name):
        return qkan.perturb(qkan.encode_diagonal_exact(vec, name=name), eps_w, seed=sum(name.encode()))

    be_x = qkan.perturb(qkan.encode_diagonal_exact(x), eps_x, seed=13)
    built = qkan.build_layer(be_x, spec, weight_encoder=encoder)
    bound = 4 * spec.degree * np.sqrt(eps_x) + eps_w
    assert qkan.verify(built, oracle) <= bound + 1e-10


def test_build_layer_real_weight_encoder_route(rng):
    weights = rng.uniform(-0.3, 0.3, size=(2, 2, 2))
    spec = qkan.LayerSpec(weights)
    x = rng.uniform(-1, 1, 2)

    def encoder(vec, name):
        return qkan.encode_real_weights(qkan.stateprep_for_real_vector(vec), name=name)

    built = qkan.build_layer(qkan.encode_diagonal_exact(x), spec, weight_encoder=encoder)
    want = qkan.classical_layer_eval(x, spec)
    assert np.max(np.abs(qkan.extract_diagonal(built) - want)) <= 1e-9


def test_build_network_single_layer_equals_build_layer(rng):
    spec = qkan.LayerSpec.random(2, 2, 1, seed=14)
    x = rng.uniform(-1, 1, 2)
    single = qkan.build_layer(qkan.encode_diagonal_exact(x), spec)
    net = qkan.build_network(qkan.encode_diagonal_exact(x), qkan.QkanSpec((spec,)))
    assert np.allclose(qkan.extract_diagonal(net.output), qkan.extract_diagonal(single))
    assert net.output.cost == single.cost


def test_build_network_two_layers_match_oracle():
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 1, seed=42), qkan.LayerSpec.random(2, 1, 1, seed=43))
    )
    x = np.array([0.4, -0.9])
    net = qkan.build_network(qkan.encode_diagonal_exact(x), qspec)
    want = qkan.classical_network_eval(x, qspec)
    assert np.max(np.abs(qkan.extract_diagonal(net.output) - want)) <= 1e-9
    assert net.output.num_aux + net.output.num_system <= 22


def test_build_network_recursive_query_counts():
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 1, seed=1), qkan.LayerSpec.random(2, 1, 1, seed=2))
    )
    net = qkan.build_network(qkan.encode_diagonal_exact(np.array([0.2, 0.3]), name="x"), qspec)
    unit = 1 * (1 + 1) // 2  # d(d+1)/2 = 1 per recursion step
    assert net.layer_outputs[0].cost.get("x", 0) == unit
    assert net.output.cost.get("x", 0) == unit**2
    assert net.output.cost.get("w0[0]", 0) == unit  # layer-0 weights used once per inclusion
    assert net.output.cost.get("w1[0]", 0) == 1


def test_build_network_three_layers():
    qspec = qkan.QkanSpec(
        (
            qkan.LayerSpec.random(2, 2, 1, seed=50),
            qkan.LayerSpec.random(2, 2, 1, seed=51),
            qkan.LayerSpec.random(2, 1, 1, seed=52),
        )
    )
    x = np.array([0.7, -0.2])
    net = qkan.build_network(qkan.encode_diagonal_exact(x, name="x"), qspec)
    want = qkan.classical_network_eval(x, qspec)
    assert np.max(np.abs(qkan.extract_diagonal(net.output) - want)) <= 1e-9
    assert net.output.num_aux + net.output.num_system <= 22


def test_build_network_mixed_degrees():
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=60), qkan.LayerSpec.random(2, 1, 1, seed=61))
    )
    x = np.array([0.15, 0.85])
    net = qkan.build_network(qkan.encode_diagonal_exact(x, name="x"), qspec)
    want = qkan.classical_network_eval(x, qspec)
    assert np.max(np.abs(qkan.extract_diagonal(net.output) - want)) <= 1e-9
    from qkan.resources import analytic_cost, reconcile

    assert reconcile(analytic_cost(qspec), net.output).ok


def test_network_assembler_builds_one_lcu_pair_per_term_count(monkeypatch):
    from qkan import network

    sizes = []
    uniform_pair = network.uniform_pair

    def counting(m):
        sizes.append(m)
        return uniform_pair(m)

    monkeypatch.setattr(network, "uniform_pair", counting)
    x = np.array([0.3, -0.5])
    deep = qkan.QkanSpec(tuple(qkan.LayerSpec.random(2, k, 3, seed=70 + k) for k in (2, 2, 1)))
    assembler = network.NetworkAssembler(qkan.encode_diagonal_exact(x), deep.layers[0])
    built = assembler.build([deep])
    assert sizes == [4]
    assembler.build([deep.with_layer_weights(2, -deep.layers[2].weights)])
    assert sizes == [4]
    want = qkan.classical_network_eval(x, deep)
    assert np.max(np.abs(qkan.extract_diagonal(built.output) - want)) <= 1e-9
    sizes.clear()
    mixed = qkan.QkanSpec((qkan.LayerSpec.random(2, 2, 3, seed=60),
                           qkan.LayerSpec.random(2, 2, 1, seed=61),
                           qkan.LayerSpec.random(2, 1, 3, seed=62)))
    qkan.build_network(qkan.encode_diagonal_exact(x), mixed)
    assert sizes == [4, 2]


def test_candidates_of_differing_shapes_raise():
    from qkan.network import NetworkAssembler

    first = qkan.LayerSpec.random(2, 2, 1, seed=62)
    base = qkan.QkanSpec((first, qkan.LayerSpec.random(2, 1, 1, seed=63)))
    assembler = NetworkAssembler(qkan.encode_diagonal_exact(np.array([0.3, -0.6])), first)
    others = [
        qkan.QkanSpec((first, qkan.LayerSpec.random(2, 1, 2, seed=64))),  # another degree
        qkan.QkanSpec((first, qkan.LayerSpec.random(2, 2, 1, seed=65))),  # another width
        qkan.QkanSpec((first,)),  # fewer layers
        qkan.QkanSpec((first, qkan.LayerSpec.random(2, 2, 1, seed=66),
                       qkan.LayerSpec.random(2, 1, 1, seed=67))),  # more layers
    ]
    for other in others:
        with pytest.raises(ContractViolationError, match="differ in their layer shapes"):
            assembler.build([base, other])
    assert len(assembler.build([base]).layer_outputs) == 2


def test_layer_wider_than_the_dense_cap_matches_the_oracle(rng):
    # N = 1024, K = 4: the guarded dilated input spans n + k = 12 system qubits
    spec = qkan.LayerSpec.random(1024, 4, 3, seed=71)
    x = rng.uniform(-1, 1, 1024)
    be = qkan.build_layer(qkan.encode_diagonal_exact(x, name="x"), spec)
    assert be.num_aux + be.num_system == 17
    want = qkan.classical_layer_eval(x, spec)
    assert np.max(np.abs(qkan.extract_diagonal(be) - want)) <= 1e-9
    assert qkan.reconcile(qkan.analytic_cost(qkan.QkanSpec((spec,))), be).ok


def test_build_layer_with_stateprep_input(rng):
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(qkan.state_prep_unitary(psi), name="x")
    spec = qkan.LayerSpec.random(4, 2, 2, seed=53)
    built = qkan.build_layer(be, spec)
    want = qkan.classical_layer_eval(psi, spec)
    assert np.max(np.abs(qkan.extract_diagonal(built) - want)) <= 1e-9


def test_build_network_budget_exceeded(rng):
    from qkan import operators

    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=1), qkan.LayerSpec.random(2, 1, 3, seed=2))
    )
    with operators.qubit_budget(8), pytest.raises(ResourceLimitError) as exc_info:
        qkan.build_network(qkan.encode_diagonal_exact(np.array([0.2, 0.3])), qspec)
    assert exc_info.value.required_qubits is not None
    assert exc_info.value.required_qubits > 8


def test_built_layer_operator_is_unitary(rng):
    spec = qkan.LayerSpec.random(2, 2, 2, seed=16)
    built = qkan.build_layer(qkan.encode_diagonal_exact(rng.uniform(-1, 1, 2)), spec)
    from qkan.operators import unitarity_defect

    assert unitarity_defect(built.op) <= 1e-10


def test_sum_over_inputs_absorbs_registers(rng):
    spec = qkan.LayerSpec.random(4, 2, 1, seed=15)
    built = qkan.build_layer(qkan.encode_diagonal_exact(rng.uniform(-1, 1, 4)), spec)
    # input register absorbed: system is only the k output qubits
    assert built.num_system == 1
    assert built.system[-1][0].startswith("dil")


def _sample_register_input(xs):
    """Exact input encoding over [p | sample] of 2^m samples, index p * 2^m + s."""
    m = (len(xs) - 1).bit_length()
    be = qkan.encode_diagonal_exact(np.asarray(xs).T.reshape(-1), name="x")
    return qkan.split_system(be, m), m


def test_batched_layers_carry_the_sample_register(rng):
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=70), qkan.LayerSpec.random(2, 2, 1, seed=71))
    )
    xs = rng.uniform(-1, 1, (4, 2))
    be, m = _sample_register_input(xs)
    assert be.system[-2:] == (("sys", 1), ("sample", 2))
    first = qkan.build_layer(be, qspec.layers[0])
    assert (first.num_system, first.system[-2:]) == (3, (("dil", 1), ("sample", 2)))
    second = qkan.build_layer(first, qspec.layers[1], layer_index=1)
    assert (second.num_system, second.system[-2:]) == (3, (("dil.2", 1), ("sample", 2)))
    want = np.array([qkan.classical_network_eval(x, qspec) for x in xs])  # (S, K)
    got = qkan.extract_diagonal(second).real.reshape(2, 4).T  # index q * 2^m + s
    assert np.max(np.abs(got - want)) <= 1e-12
    # queries per application do not depend on the sample count
    report = qkan.analytic_cost(qspec)
    assert second.cost == report.expected_ledger
    assert qkan.reconcile(report, second).ok
    assert second.num_aux == report.aux_totals[-1]


def test_a_layer_reads_the_sample_width_from_its_input(rng):
    """An input with a trailing sample register builds without being told
    its width, and reads what SimulatedModel reads on the same rows."""
    spec = qkan.LayerSpec.random(2, 2, 3, seed=72)
    xs = rng.uniform(-1, 1, (4, 2))
    be, m = _sample_register_input(xs)
    built = qkan.build_layer(be, spec)
    assert m == 2 and be.sample_qubits == built.sample_qubits == m
    assert built.system[-2:] == (("dil", 1), ("sample", 2))
    model = qkan.SimulatedModel(qkan.QkanSpec((spec,)), xs)
    assert model.sample_qubits == m
    got = qkan.extract_diagonal(built).real.reshape(-1, 1 << m).T  # index q * 2^m + s
    assert np.array_equal(got, model.outputs([model.spec])[0])
    assert qkan.encode_diagonal_exact(xs[0]).sample_qubits == 0


def per_column_diagonal(be):
    """The diagonal read one column |0>_aux|j> per entry, one `read_block` call each."""
    basis = np.eye(be.system_dim)
    values = [read_block(be.op, be.system_dim, e_j)[j] for j, e_j in enumerate(basis)]
    return be.alpha * np.array(values)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_one_column_readout_matches_extract_diagonal(depth, rng):
    dims = [4, 2, 2, 1][: depth] + [1]
    qspec = qkan.QkanSpec(tuple(
        qkan.LayerSpec.random(n_in, n_out, 2, seed=80 + i)
        for i, (n_in, n_out) in enumerate(zip(dims, dims[1:]))
    ))
    x = rng.uniform(-1, 1, dims[0])
    out = qkan.build_network(qkan.encode_diagonal_exact(x), qspec).output
    assert out.epsilon == 0.0
    got = qkan.extract_diagonal(out)
    assert np.array_equal(got, per_column_diagonal(out))
    assert np.max(np.abs(got.real - qkan.classical_network_eval(x, qspec))) <= 1e-12


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("k_out", [1, 2, 4, 8])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_one_column_read_equals_the_per_column_read(depth, k_out, degree, rng):
    dims = [2, 2, 1][:depth] + [k_out]  # at most 18 qubits
    qspec = qkan.QkanSpec(tuple(
        qkan.LayerSpec.random(n_in, n_out, degree, seed=90 + i)
        for i, (n_in, n_out) in enumerate(zip(dims, dims[1:]))
    ))
    x = rng.uniform(-1, 1, 2)
    out = qkan.build_network(qkan.encode_diagonal_exact(x), qspec).output
    assert out.epsilon == 0.0
    got = qkan.extract_diagonal(out)
    assert np.array_equal(got, per_column_diagonal(out))
    assert np.max(np.abs(got.real - qkan.classical_network_eval(x, qspec))) <= 1e-9


@pytest.mark.parametrize("encoder", ["exact", "stateprep", "real_weights"])
@pytest.mark.parametrize("depth", [1, 2])
def test_one_column_read_is_exact_for_every_input_encoder(encoder, depth, rng):
    x = rng.uniform(-1, 1, 4)
    if encoder == "exact":
        be_x = qkan.encode_diagonal_exact(x, name="x")
    elif encoder == "stateprep":
        be_x = qkan.encode_from_stateprep(qkan.state_prep_unitary(x / np.linalg.norm(x)), name="x")
    else:
        be_x = qkan.encode_real_weights(qkan.stateprep_for_real_vector(x / 2), name="x")
    dims = [4, 2, 2][: depth + 1]
    qspec = qkan.QkanSpec(tuple(
        qkan.LayerSpec.random(n_in, n_out, 2, seed=100 + i)
        for i, (n_in, n_out) in enumerate(zip(dims, dims[1:]))
    ))
    out = qkan.build_network(be_x, qspec).output
    assert out.epsilon == 0.0
    assert np.array_equal(qkan.extract_diagonal(out), per_column_diagonal(out))


def test_one_column_read_is_exact_with_a_sample_register(rng):
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=110), qkan.LayerSpec.random(2, 2, 1, seed=111))
    )
    be, m = _sample_register_input(rng.uniform(-1, 1, (4, 2)))
    assert m == 2
    be = qkan.build_layer(be, qspec.layers[0])
    be = qkan.build_layer(be, qspec.layers[1], layer_index=1)
    assert np.array_equal(qkan.extract_diagonal(be), per_column_diagonal(be))


def test_one_column_read_is_exact_on_the_widest_layer(rng):
    spec = qkan.LayerSpec(rng.uniform(-1, 1, (4, 256, 4)))  # N = 256, K = 4, d = 3
    be = qkan.build_layer(qkan.encode_diagonal_exact(rng.uniform(-1, 1, 256), name="x"), spec)
    assert be.num_aux + be.num_system == 15
    assert np.array_equal(qkan.extract_diagonal(be), per_column_diagonal(be))


def test_one_column_readout_falls_back_when_epsilon_is_positive():
    rng = np.random.default_rng(7)
    unitary = qkan.random_unitary(3, rng)  # block over 2 system qubits, far from diagonal
    from qkan.block_encoding import primitive_encoding

    aux, system = (("a", 1),), (("sys", 2),)
    noisy = primitive_encoding(qkan.Dense(unitary), aux, system, "u", epsilon=0.5, diagonal=True)
    diagonal = np.diag(unitary)[:4]
    assert np.allclose(qkan.extract_diagonal(noisy), diagonal, atol=1e-14)
    # the one-column read would have summed the off-diagonal entries into each row
    assert np.max(np.abs(unitary[:4, :4].sum(axis=1) - diagonal)) > 1e-2
    with pytest.raises(ContractViolationError):
        qkan.extract_diagonal(primitive_encoding(qkan.Dense(unitary), aux, system, "u"))


def counting_encoder(calls):
    """The default weight encoder, recording the name of every call."""
    def encoder(vec, name):
        calls.append(name)
        return qkan.encode_diagonal_exact(vec, name=name)
    return encoder


def test_assembler_rebuilds_only_the_changed_weight_slices(rng):
    x = rng.uniform(-1, 1, 2)
    weights = qkan.LayerSpec.random(2, 2, 3, seed=120).weights.copy()
    calls = []
    assembler = qkan.LayerAssembler(
        qkan.encode_diagonal_exact(x, name="x"), qkan.LayerSpec(weights),
        weight_encoder=counting_encoder(calls),
    )
    first = assembler.assemble(weights)
    calls.clear()
    again = assembler.assemble(weights.copy())  # equal bytes, another array
    assert calls == []
    assert np.array_equal(qkan.extract_diagonal(again), qkan.extract_diagonal(first))
    weights[2, 1, 0] = -weights[2, 1, 0]  # in place: the same array with new bytes
    edited = assembler.assemble(weights)
    assert calls == ["w0[2]"]
    want = qkan.classical_layer_eval(x, qkan.LayerSpec(weights))
    assert np.max(np.abs(qkan.extract_diagonal(edited).real - want)) <= 1e-12
    assert not np.allclose(qkan.extract_diagonal(edited), qkan.extract_diagonal(first))


def test_reused_assembly_keeps_the_analytic_ledger(rng):
    spec = qkan.LayerSpec.random(2, 2, 3, seed=121)
    assembler = qkan.LayerAssembler(qkan.encode_diagonal_exact(rng.uniform(-1, 1, 2), name="x"), spec)
    assembler.assemble(spec.weights)
    weights = spec.weights.copy()
    weights[1] *= 0.5
    reused = assembler.assemble(weights)  # degrees 0, 2 and 3 reused
    report = qkan.analytic_cost(qkan.QkanSpec((qkan.LayerSpec(weights),)))
    assert reused.cost == report.expected_ledger
    assert reused.num_aux == report.aux_totals[-1]


def test_a_layer_build_encodes_each_weight_slice_once(rng):
    x = rng.uniform(-1, 1, 4)
    spec = qkan.LayerSpec.random(4, 2, 3, seed=122)
    calls = []
    be = qkan.build_layer(
        qkan.encode_diagonal_exact(x, name="x"), spec, weight_encoder=counting_encoder(calls)
    )
    assert calls == ["w0[0]", "w0[1]", "w0[2]", "w0[3]"]
    want = qkan.classical_layer_eval(x, spec)
    assert np.max(np.abs(qkan.extract_diagonal(be).real - want)) <= 1e-12


def test_a_network_build_encodes_d_plus_1_weight_slices_per_layer(rng):
    spec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=123), qkan.LayerSpec.random(2, 1, 2, seed=124))
    )
    calls = []
    x = rng.uniform(-1, 1, 2)
    built = qkan.build_network(
        qkan.encode_diagonal_exact(x, name="x"), spec, weight_encoder=counting_encoder(calls)
    )
    assert calls == ["w0[0]", "w0[1]", "w0[2]", "w0[3]", "w1[0]", "w1[1]", "w1[2]"]
    want = qkan.classical_network_eval(x, spec)
    assert np.max(np.abs(qkan.extract_diagonal(built.output).real - want)) <= 1e-12


def test_a_perturbed_layer_build_makes_d_plus_1_dense_perturbations(rng, monkeypatch):
    from qkan import encoders

    perturbed = []

    def counting_perturb(be, eps, seed):
        perturbed.append(sorted(be.cost))
        return qkan.perturb(be, eps, seed)

    monkeypatch.setattr(encoders, "perturb", counting_perturb)
    spec = qkan.LayerSpec.random(4, 2, 3, seed=125)
    be = qkan.build_layer(
        qkan.encode_diagonal_exact(rng.uniform(-1, 1, 4), name="x"), spec,
        weight_encoder=encoders.perturbed_weight_encoder(1e-3, seed=7),
    )
    assert perturbed == [["w0[0]"], ["w0[1]"], ["w0[2]"], ["w0[3]"]]
    assert be.epsilon > 0


@pytest.mark.parametrize("eps_w", [0.0, 1e-3])
def test_layer_budget_is_checked_before_any_transform(rng, eps_w, monkeypatch):
    """The layer's qubit total, with the weight encoding's ancillas, is
    checked up front: one qubit short raises before any Chebyshev transform."""
    from qkan import network
    from qkan.encoders import perturbed_weight_encoder

    encoder = perturbed_weight_encoder(eps_w, seed=7)
    be_x = qkan.encode_diagonal_exact(rng.uniform(-1, 1, 4), name="x")
    spec = qkan.LayerSpec.random(4, 2, 3, seed=126)
    layer = qkan.build_layer(be_x, spec, weight_encoder=encoder)
    total = layer.num_aux + layer.num_system
    calls = []

    def counting_chebyshev(*args, _real=network.chebyshev_be):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(network, "chebyshev_be", counting_chebyshev)
    with qkan.qubit_budget(total - 1), pytest.raises(ResourceLimitError) as info:
        qkan.build_layer(be_x, spec, weight_encoder=encoder)
    assert info.value.required_qubits == total and calls == []
    with qkan.qubit_budget(total):
        qkan.build_layer(be_x, spec, weight_encoder=encoder)
    assert len(calls) == 4


def _contract_cases():
    """pytest.param(call, message): each call breaks one layer contract."""
    spec = qkan.LayerSpec.random(2, 2, 1, seed=3)
    be_x = qkan.encode_diagonal_exact(np.array([0.1, 0.2]))
    assembler = qkan.LayerAssembler(be_x, spec)

    def narrow(vec, name):  # the weights of one input node only
        return qkan.encode_diagonal_exact(vec[:2], name=name)

    return [
        pytest.param(lambda: qkan.LayerSpec(np.zeros((2, 2))), "must have shape \\(d\\+1, N, K\\)",
                     id="weights-2d"),
        pytest.param(lambda: qkan.QkanSpec(()), "at least one layer", id="no-layers"),
        pytest.param(lambda: qkan.sum_over_inputs(be_x, 2), "cannot absorb 2 qubits",
                     id="absorb-too-many"),
        pytest.param(lambda: assembler.assemble(np.zeros((2, 2, 1))), "weight shape",
                     id="assemble-shape"),
        pytest.param(lambda: qkan.LayerAssembler(be_x, spec, weight_encoder=narrow),
                     "weight encoding spans 1 qubits, expected 2", id="encoder-width"),
    ]


@pytest.mark.parametrize("call, message", _contract_cases())
def test_layer_contract_errors(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()
