"""Algebraic property tests over random diagonal encodings."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import qkan
from qkan.encoders import perturbed_weight_encoder

vectors = st.integers(0, 2**16).map(
    lambda seed: np.random.default_rng(seed).uniform(-1, 1, 4)
)


@given(vectors, vectors)
def test_product_of_diagonals_commutes(a, b):
    be_a = qkan.encode_diagonal_exact(a, name="a")
    be_b = qkan.encode_diagonal_exact(b, name="b")
    ab = qkan.extract_diagonal(qkan.product(be_a, be_b))
    ba = qkan.extract_diagonal(qkan.product(be_b, be_a))
    assert np.max(np.abs(ab - a * b)) < 1e-12
    assert np.max(np.abs(ab - ba)) < 1e-12


@given(vectors, vectors, st.integers(0, 2**16))
def test_lcu_is_linear(a, b, seed):
    y = np.random.default_rng(seed).uniform(-1, 1, 2)
    if np.sum(np.abs(y)) < 1e-6:
        y = np.array([0.5, 0.5])
    combo = qkan.lcu(
        [qkan.encode_diagonal_exact(a, name="a"), qkan.encode_diagonal_exact(b, name="b")],
        qkan.pair_for_weights(y),
    )
    assert np.max(np.abs(qkan.extract_diagonal(combo) - (y[0] * a + y[1] * b))) < 1e-12


@given(vectors, st.integers(1, 2))
def test_dilate_then_chebyshev_commute(x, k):
    be = qkan.encode_diagonal_exact(x)
    r = 3
    cheb_then_dilate = qkan.dilate(qkan.chebyshev_be(be, r), k)
    dilate_then_cheb = qkan.chebyshev_be(qkan.dilate(be, k), r)
    got_a = qkan.extract_diagonal(cheb_then_dilate)
    got_b = qkan.extract_diagonal(dilate_then_cheb)
    assert np.max(np.abs(got_a - got_b)) < 1e-10


@given(vectors)
def test_hadamard_with_ones_is_identity_on_diagonals(x):
    be = qkan.encode_diagonal_exact(x)
    ones = qkan.encode_diagonal_exact(np.ones(4), name="ones")
    had = qkan.hadamard_product(be, ones)
    assert np.max(np.abs(qkan.extract_diagonal(had) - x)) < 1e-12


@given(vectors, st.integers(0, 5))
def test_chebyshev_matches_cosine_form(x, r):
    got = qkan.extract_diagonal(qkan.chebyshev_be(qkan.encode_diagonal_exact(x), r))
    want = np.cos(r * np.arccos(np.clip(x, -1, 1)))
    assert np.max(np.abs(got - want)) <= 1e-10


@given(st.integers(0, 2**16), st.sampled_from(("exact", "perturbed", "real_weights")))
def test_layer_oracle_equivalence_property(seed, kind):
    """The layer matches the oracle within its epsilon, and a real column
    gives what its complex copy gives: real leaves stay real, and complex
    ones (the perturbed weights) promote the column."""
    rng = np.random.default_rng(seed)
    spec = qkan.LayerSpec.random(2, 2, int(rng.integers(0, 4)), seed=seed)
    x = rng.uniform(-1, 1, 2) / (2 if kind == "real_weights" else 1)
    if kind == "real_weights":
        be_x = qkan.encode_real_weights(qkan.stateprep_for_real_vector(x))
    else:
        be_x = qkan.encode_diagonal_exact(x)
    encoder = perturbed_weight_encoder(0.1, seed) if kind == "perturbed" else None
    built = qkan.build_layer(be_x, spec, weight_encoder=encoder)
    want = qkan.classical_layer_eval(x, spec)
    assert np.max(np.abs(qkan.extract_diagonal(built) - want)) <= 1e-9 + built.epsilon
    column = rng.standard_normal(built.op.dim)
    column /= np.linalg.norm(column)
    complex_read = built.op.apply(column.astype(np.complex128))
    assert np.max(np.abs(built.op.apply(column) - complex_read)) <= 1e-15


@given(
    st.integers(0, 2**16),
    st.lists(st.sampled_from((1, 2, 4)), min_size=2, max_size=3),
    st.integers(0, 3),
    st.sampled_from((0, 2)),
)
def test_certified_encodings_are_real_and_hermitian(seed, dims, degree, m):
    """Every encoding that a build certifies exactly real and diagonal (at
    most 2 layers, widths <= 4, d <= 3, with or without a sample register)
    has a dense block with no imaginary part and ||B - B^dag||_2 <= 1e-12."""
    from qkan.block_encoding import BlockEncoding, split_system
    from qkan.network import NetworkAssembler

    rng = np.random.default_rng(seed)
    spec = qkan.QkanSpec(tuple(
        qkan.LayerSpec(rng.uniform(-1, 1, (degree + 1, n_in, n_out)))
        for n_in, n_out in zip(dims, dims[1:])
    ))
    xs = rng.uniform(-1, 1, (1 << m, dims[0]))
    created = []
    post_init = BlockEncoding.__post_init__

    def recording(be):
        post_init(be)
        created.append(be)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BlockEncoding, "__post_init__", recording)
        be_x = split_system(qkan.encode_diagonal_exact(xs.T.reshape(-1)), m)
        built = NetworkAssembler(be_x, spec.layers[0]).build([spec])
    assert built.output.exact_real_diagonal
    certified = [be for be in created if be.exact_real_diagonal]
    for be in certified:
        block = qkan.extract_block(be)
        assert np.max(np.abs(block.imag)) == 0
        assert np.linalg.norm(block - block.conj().T, 2) <= 1e-12


@given(
    st.integers(0, 2**16),
    st.lists(st.sampled_from((1, 2, 4)), min_size=2, max_size=4),
    st.integers(0, 3),
    st.integers(0, 2),
    st.booleans(),
)
def test_output_qubits_chain_the_built_layer_outputs(seed, dims, degree, m, perturbed):
    """Chaining LayerSpec.output_qubits from the input's (ancillas, system
    qubits) gives every layer output's (num_aux, num_system) of a network
    built on a split input (1-3 layers, widths <= 4, d <= 3, m <= 2, exact
    or perturbed weights); with no sample register the ancillas are
    analytic_cost's aux_totals."""
    from qkan.block_encoding import split_system
    from qkan.network import NetworkAssembler

    rng = np.random.default_rng(seed)
    spec = qkan.QkanSpec(tuple(
        qkan.LayerSpec(rng.uniform(-1, 1, (degree + 1, n_in, n_out)))
        for n_in, n_out in zip(dims, dims[1:])
    ))
    be_x = split_system(qkan.encode_diagonal_exact(rng.uniform(-1, 1, dims[0] << m)), m)
    shape, chain = (be_x.num_aux, be_x.num_system), []
    for layer in spec.layers:
        shape = layer.output_qubits(shape[0], 1, m)
        chain.append(shape)
    assume(sum(shape) <= qkan.operators.max_qubits())
    encoder = perturbed_weight_encoder(1e-3, seed) if perturbed else None
    built = NetworkAssembler(be_x, spec.layers[0], encoder).build([spec])
    assert [(be.num_aux, be.num_system) for be in built.layer_outputs] == chain
    if m == 0:
        assert [a for a, _ in chain] == list(qkan.analytic_cost(spec).aux_totals[1:])
