import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkan import operators as ops
from qkan.errors import ContractViolationError, ResourceLimitError

from oracles import dense_kron

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_kron_identity_case():
    op = ops.kron(ops.Identity(1), ops.Identity(1))
    vec = np.arange(4, dtype=complex)
    assert np.allclose(op.apply(vec), vec)


def test_kron_bitflip():
    op = ops.kron(ops.Dense(X), ops.Identity(1))
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0  # |00>
    out = op.apply(state)
    assert np.allclose(out, [0, 0, 1, 0])  # |10>


def test_kron_hadamard_symmetry():
    op = ops.kron(ops.Dense(H), ops.Dense(H))
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    assert np.allclose(op.apply(state), np.full(4, 0.5))


def test_kron_overflow():
    ops.set_max_qubits(4)
    with pytest.raises(ResourceLimitError):
        ops.kron(ops.Identity(3), ops.Identity(3))


def test_compose_identity():
    a = ops.Dense(H)
    composed = ops.compose(a, ops.Identity(1))
    assert np.allclose(composed.dense(), H)


def test_compose_involution():
    x = ops.Dense(X)
    assert np.allclose(ops.compose(x, x).dense(), np.eye(2))


def test_compose_hand_product():
    # H @ (Z @ H) = X, so |0> -> |1>
    op = ops.compose(ops.Dense(H), ops.Dense(Z @ H))
    out = op.apply(np.array([1.0, 0.0], dtype=complex))
    assert np.allclose(out, [0, 1])


def test_compose_dimension_mismatch():
    with pytest.raises(ContractViolationError):
        ops.compose(ops.Dense(H), ops.Identity(2))


def test_controlled_off_and_on():
    cx = ops.controlled(ops.Dense(X), 1, 1)
    off = np.zeros(4, dtype=complex)
    off[0] = 1.0  # |0>_c |0>
    assert np.allclose(cx.apply(off), off)
    on = np.zeros(4, dtype=complex)
    on[2] = 1.0  # |1>_c |0>
    out = cx.apply(on)
    expected = np.zeros(4)
    expected[3] = 1.0  # |1>_c |1>
    assert np.allclose(out, expected)


def test_controlled_on_zero_value_dense():
    u = ops.Dense(H)
    cu = ops.controlled(u, 1, 0)
    dense = cu.dense()
    expected = np.block([[H, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    assert np.allclose(dense, expected)


def test_unitarity_defect_values():
    assert ops.unitarity_defect(ops.Dense(H)) < 1e-14
    assert ops.unitarity_defect(ops.Dense(np.diag([1.0, 0.5]))) == pytest.approx(0.75)
    rng = np.random.default_rng(0)
    u = ops.Dense(ops.random_unitary(2, rng))
    chain = ops.compose(u, u.adjoint(), ops.kron(ops.Dense(H), ops.Dense(H)))
    assert ops.unitarity_defect(chain) <= 1e-10


def test_embedded_matches_kron_oracle():
    rng = np.random.default_rng(1)
    a = ops.random_unitary(1, rng)
    emb = ops.Embedded(ops.Dense(a), (1,), 3)
    expected = dense_kron(np.eye(2), a, np.eye(2))
    assert np.allclose(emb.dense(), expected)


def test_embedded_axis_order():
    # embedding with swapped axes applies the operator on reordered qubits
    rng = np.random.default_rng(2)
    a = ops.random_unitary(2, rng)
    swapped = ops.Embedded(ops.Dense(a), (1, 0), 2)
    swap = np.zeros((4, 4))
    for i in range(4):
        swap[((i & 1) << 1) | (i >> 1), i] = 1.0
    assert np.allclose(swapped.dense(), swap @ a @ swap)


def test_multiplexed_identity_on_missing_values():
    branch = ops.Dense(X)
    mux = ops.Multiplexed({2: branch}, (0, 1), 3)
    dense = mux.dense()
    expected = np.eye(8, dtype=complex)
    expected[4:6, 4:6] = X
    assert np.allclose(dense, expected)


def test_permutation_adjoint_roundtrip():
    perm = ops.permutation_from_map(2, lambda i: (i + 1) % 4)
    assert np.allclose(ops.compose(perm, perm.adjoint()).dense(), np.eye(4))
    with pytest.raises(ContractViolationError):
        ops.permutation_from_map(1, lambda i: 0)


def test_phase_on_zero():
    op = ops.phase_on_zero(np.pi / 2, 1)
    assert np.allclose(op.dense(), np.diag([1j, -1j]))


def test_state_prep_unitary_first_column():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    u = ops.state_prep_unitary(vec)
    assert np.allclose(u.matrix[:, 0], vec)
    assert ops.unitarity_defect(u) < 1e-12


@st.composite
def small_op_trees(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["dense", "kron", "compose", "embed", "mux"]))
    if kind == "dense":
        return ops.Dense(ops.random_unitary(n, rng))
    if kind == "kron" and n >= 2:
        return ops.kron(ops.Dense(ops.random_unitary(1, rng)), ops.Identity(n - 1))
    if kind == "compose":
        u = ops.Dense(ops.random_unitary(n, rng))
        return ops.compose(u, u.adjoint(), ops.Dense(ops.random_unitary(n, rng)))
    if kind == "embed":
        axes = tuple(rng.permutation(n)[:1])
        return ops.Embedded(ops.Dense(ops.random_unitary(1, rng)), axes, n)
    return ops.Multiplexed({0: ops.Dense(ops.random_unitary(max(n - 1, 1), rng))},
                           (0,), max(n, 2) if n == 1 else n)


@given(small_op_trees())
def test_dense_agrees_with_apply_on_basis_states(op):
    dense = op.dense()
    for j in range(op.dim):
        basis = np.zeros(op.dim, dtype=complex)
        basis[j] = 1.0
        assert np.max(np.abs(op.apply(basis) - dense[:, j])) < 1e-12


@given(small_op_trees())
def test_unitary_trees_have_small_defect(op):
    assert ops.unitarity_defect(op) <= 1e-10


@given(small_op_trees())
def test_adjoint_inverts(op):
    vec = np.random.default_rng(7).normal(size=op.dim) + 0j
    vec /= np.linalg.norm(vec)
    assert np.max(np.abs(op.adjoint().apply(op.apply(vec)) - vec)) < 1e-10


def test_query_counts_sum_every_occurrence():
    q = ops.Query(ops.Dense(H), {"a": 1})
    tree = ops.compose(
        ops.controlled(q),
        ops.kron(q, q.adjoint()),
        ops.Query(ops.Identity(2), {"b": 2}),
    )
    assert ops.query_counts(tree) == {"a": 3, "b": 2}
    h = ops.Dense(H)
    assert np.allclose(tree.dense(), ops.compose(ops.controlled(h), ops.kron(h, h)).dense())
    # a Query's counts stand for its whole application; its inner is not read
    assert ops.query_counts(ops.Query(ops.compose(q, q), {"c": 1})) == {"c": 1}
    assert ops.query_counts(ops.Dense(H)) == {}
    with pytest.raises(ContractViolationError):
        ops.Query(ops.Dense(H), {"a": -1})


def test_qubit_budget_is_scoped():
    before = ops.max_qubits()
    with ops.qubit_budget(4) as budget:
        assert budget == ops.max_qubits() == 4
        with pytest.raises(ResourceLimitError):
            ops.kron(ops.Identity(3), ops.Identity(3))
    assert ops.max_qubits() == before
    ops.kron(ops.Identity(3), ops.Identity(3))
    with pytest.raises(ContractViolationError):
        with ops.qubit_budget(0):
            pass
    assert ops.max_qubits() == before


def test_qubit_budget_does_not_leak_across_threads():
    import threading

    seen = []

    def worker():
        ops.set_max_qubits(5)
        seen.append(ops.max_qubits())

    before = ops.max_qubits()
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [5]
    assert ops.max_qubits() == before


def test_label_reflection_matches_dense_blocks():
    x = np.array([0.3, -1.0, 0.0, 0.8])
    s = np.sqrt(1.0 - x * x)
    op = ops.LabelReflection(x)
    assert op.n == 3
    want = np.block([[np.diag(x), np.diag(s)], [np.diag(s), -np.diag(x)]])
    assert np.max(np.abs(op.dense() - want)) <= 1e-15
    assert op.adjoint() is op
    assert ops.unitarity_defect(op) <= 1e-15
    with pytest.raises(ContractViolationError):
        ops.LabelReflection(np.zeros(3))
    with pytest.raises(ContractViolationError):
        ops.LabelReflection(np.array([0.5, 1.5]))
