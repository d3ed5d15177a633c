"""Algebraic property tests over random diagonal encodings."""

import numpy as np
from hypothesis import given, strategies as st

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
