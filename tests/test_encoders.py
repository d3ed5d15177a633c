import numpy as np
import pytest
from hypothesis import given, strategies as st

import qkan
from qkan import operators as ops
from qkan.errors import DomainError


def test_exact_all_ones_gives_pauli_z_blocks():
    be = qkan.encode_diagonal_exact(np.ones(2))
    assert np.allclose(qkan.extract_diagonal(be), 1.0)
    dense = be.op.dense()
    expected = np.kron(np.diag([1.0, -1.0]), np.eye(2))  # Z on the ancilla per label
    assert np.allclose(dense, expected)


def test_exact_zero_vector():
    be = qkan.encode_diagonal_exact(np.zeros(4))
    assert np.allclose(qkan.extract_diagonal(be), 0.0)


def test_exact_example_values():
    x = np.array([0.3, -0.7])
    be = qkan.encode_diagonal_exact(x)
    assert np.max(np.abs(qkan.extract_diagonal(be) - x)) < 1e-14
    assert be.num_aux == 1 and be.alpha == 1.0 and be.epsilon == 0.0


def test_exact_is_hermitian_and_unitary():
    x = np.array([0.9, -0.2, 0.0, 0.5])
    dense = qkan.encode_diagonal_exact(x).op.dense()
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
    assert np.max(np.abs(dense @ dense - np.eye(8))) < 1e-12


def test_exact_domain_errors():
    with pytest.raises(DomainError):
        qkan.encode_diagonal_exact(np.array([1.2, 0.0]))
    with pytest.raises(DomainError):
        qkan.encode_diagonal_exact(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(DomainError):
        qkan.encode_diagonal_exact(np.array([0.3, np.nan]))


@pytest.mark.parametrize("value, shown", [
    (np.nextafter(1.0, 2.0), "1.0000000000000002"),
    (-np.nextafter(1.0, 2.0), "1.0000000000000002"),
    (np.nan, "nan"),
    (np.inf, "inf"),
    (-np.inf, "inf"),
    (1e200, "1e+200"),
])
# squaring a finite |x| above about 1.3e154 overflows to inf, and numpy warns
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_exact_encoder_rejects_every_entry_outside_the_unit_interval_with_one_message(value, shown):
    with pytest.raises(DomainError) as raised:
        qkan.encode_diagonal_exact(np.array([0.3, value]))
    assert str(raised.value) == f"entries outside [-1, 1]: max |x| = {shown}"


def test_exact_encoder_accepts_the_interval_ends_with_s_0():
    x = np.array([1.0, -1.0, 0.0, -0.0])
    leaf = qkan.encode_diagonal_exact(x).op.inner
    assert np.array_equal(leaf._xs, [1.0, -1.0, 0.0, -0.0, 0.0, 0.0, 1.0, 1.0])


def test_exact_encoder_leaf_is_bit_identical_to_the_reflection_of_its_values():
    for seed in range(4):
        x = np.random.default_rng(seed).uniform(-1, 1, 1 << seed)
        leaf = qkan.encode_diagonal_exact(x).op.inner
        want = ops.LabelBlocks.reflection(x)
        assert leaf._xs.tobytes() == want._xs.tobytes()
        assert not leaf._xs.flags.writeable and leaf.folded_leaves == 1 and not leaf.rotation
        kept = x.copy()
        x[:] = 2.0  # the leaf holds its own copy
        assert np.array_equal(leaf.x, kept)


def test_exact_encoder_takes_complex_input_only_without_an_imaginary_part():
    x = np.array([0.3 + 0j, -0.7 + 0j])
    leaf = qkan.encode_diagonal_exact(x).op.inner
    assert leaf._xs.tobytes() == ops.LabelBlocks.reflection(x.real)._xs.tobytes()
    with pytest.raises(DomainError) as raised:
        qkan.encode_diagonal_exact(np.array([0.3, -0.7 + 1e-300j]))
    assert str(raised.value) == "entries must be real"


@given(st.integers(0, 2**16))
def test_exact_encoder_verifies_everywhere(seed):
    x = np.random.default_rng(seed).uniform(-1, 1, 4)
    assert qkan.verify(qkan.encode_diagonal_exact(x), np.diag(x)) <= 1e-10


def test_stateprep_identity_prepares_e0():
    be = qkan.encode_from_stateprep(ops.Identity(2))
    assert np.allclose(qkan.extract_diagonal(be), [1, 0, 0, 0])
    assert be.num_aux == 2 + 3


def test_stateprep_uniform():
    be = qkan.encode_from_stateprep(ops.hadamard_layer(2))
    assert np.max(np.abs(qkan.extract_diagonal(be) - 0.5)) < 1e-12


def test_stateprep_random_real_state(rng):
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi))
    assert np.max(np.abs(qkan.extract_diagonal(be) - psi)) < 1e-10
    assert qkan.verify(be, np.diag(psi)) <= 1e-10


def test_stateprep_complex_state_exact(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi))
    assert qkan.verify(be, np.diag(psi)) <= 1e-10
    assert ops.unitarity_defect(be.op) <= 1e-10


def test_real_weights_matches_stateprep_for_real_input(rng):
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    u = ops.state_prep_unitary(psi)
    direct = qkan.extract_diagonal(qkan.encode_from_stateprep(u))
    real = qkan.extract_diagonal(qkan.encode_real_weights(u))
    assert np.max(np.abs(direct - real)) < 1e-12


def test_real_weights_purely_imaginary_gives_zero():
    psi = 1j * np.ones(4) / 2.0
    be = qkan.encode_real_weights(ops.state_prep_unitary(psi))
    assert np.max(np.abs(qkan.extract_diagonal(be))) < 1e-12


def test_real_weights_mixed_example():
    psi = np.array([(1 + 1j) / 2, (1 - 1j) / 2, 0, 0])
    be = qkan.encode_real_weights(ops.state_prep_unitary(psi))
    assert np.max(np.abs(qkan.extract_diagonal(be) - [0.5, 0.5, 0, 0])) < 1e-12
    assert be.num_aux == 2 + 4


def test_real_weights_l2_constraint(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    diag = qkan.extract_diagonal(qkan.encode_real_weights(ops.state_prep_unitary(psi)))
    assert float(np.sum(diag.real**2)) <= 1.0 + 1e-10


def test_stateprep_for_real_vector_roundtrip(rng):
    w = rng.uniform(-0.4, 0.4, 4)
    be = qkan.encode_real_weights(qkan.stateprep_for_real_vector(w))
    assert np.max(np.abs(qkan.extract_diagonal(be) - w)) < 1e-10


def test_all_encoders_are_exact(rng):
    x = rng.uniform(-1, 1, 4)
    unit = x / np.linalg.norm(x)
    encoders = [
        qkan.encode_diagonal_exact(x),
        qkan.encode_from_stateprep(ops.state_prep_unitary(unit)),
        qkan.encode_real_weights(qkan.stateprep_for_real_vector(x * 0.4)),
    ]
    targets = [np.diag(x), np.diag(unit), np.diag(x * 0.4)]
    for be, target in zip(encoders, targets):
        assert qkan.verify(be, target) <= 1e-10
        assert be.epsilon == 0.0


def test_real_weights_cost_is_two_queries():
    be = qkan.encode_real_weights(qkan.stateprep_for_real_vector(np.array([0.5, -0.5])), name="w")
    assert be.cost == {"w": 2}
