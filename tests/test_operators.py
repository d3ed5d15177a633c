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
    with ops.qubit_budget(4), pytest.raises(ResourceLimitError):
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
    cx = ops.Multiplexed({1: ops.Dense(X)}, (0,), 2)
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
    cu = ops.Multiplexed({0: u}, (0,), 2)
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


@pytest.mark.parametrize("complex_value", [0, 1])
def test_multiplexed_keeps_the_imaginary_part_of_a_complex_branch(complex_value):
    """A real column meets a complex branch: the slab buffer turns complex
    before the branch result is written into it, whichever branch runs first."""
    from qkan.encoders import perturbed_weight_encoder

    noisy = perturbed_weight_encoder(0.5, seed=3)(np.array([0.2, -0.7]), "w").op
    branches = {complex_value: noisy, 1 - complex_value: ops.WalshHadamard(2)}
    mux = ops.Multiplexed(branches, (1,), 3)
    column = np.random.default_rng(5).standard_normal(8)
    want = mux.apply(column.astype(np.complex128))
    assert np.max(np.abs(want.imag)) > 1e-2
    got = mux.apply(column)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-15


def test_real_leaves_keep_real_columns_real():
    rng = np.random.default_rng(8)
    tree = ops.compose(
        ops.Multiplexed({1: ops.Diagonal(rng.uniform(-1, 1, 4))}, (0,), 3),
        ops.Embedded(ops.LabelBlocks.reflection(rng.uniform(-1, 1, 2)), (2, 0), 3),
        ops.WalshHadamard(3, 1),
        ops.Dense(ops.random_unitary(3, rng).real),
        ops.SystemBlocks(rng.standard_normal((2, 4, 4))),
        ops.Permutation(rng.permutation(8)),
    )
    cols = rng.standard_normal((8, 3))
    assert tree._apply(cols).dtype == np.float64
    assert np.max(np.abs(tree.apply(cols) - tree.apply(cols.astype(np.complex128)))) <= 1e-15
    assert ops.Diagonal(np.ones(4) + 0j).values.dtype == np.float64
    assert ops.Diagonal(np.full(4, 1j)).values.dtype == np.complex128


def test_apply_keeps_the_leading_rows_as_complex():
    rng = np.random.default_rng(9)
    reflection = ops.LabelBlocks.reflection(rng.uniform(-1, 1, 8))
    real = ops.compose(ops.WalshHadamard(4, 1), ops.Embedded(reflection, (3, 0, 1, 2), 4))
    phased = ops.compose(real, ops.Diagonal(np.exp(1j * rng.uniform(0, 6, 16))))
    for op in (real, phased):
        for vec in (rng.standard_normal(16), rng.standard_normal((16, 3)), 1j + rng.standard_normal(16)):
            got, whole = op.apply(vec, 4), op.apply(vec)
            assert got.dtype == np.complex128 and got.shape == (4,) + whole.shape[1:]
            assert np.array_equal(got, whole[:4])


def test_permutation_adjoint_roundtrip():
    perm = ops.permutation_from_map(2, lambda i: (i + 1) % 4)
    assert np.allclose(ops.compose(perm, perm.adjoint()).dense(), np.eye(4))
    with pytest.raises(ContractViolationError):
        ops.permutation_from_map(1, lambda i: 0)


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
        ops.Multiplexed({1: q}, (0,), 2),
        ops.kron(q, q.adjoint()),
        ops.Query(ops.Identity(2), {"b": 2}),
    )
    assert ops.query_counts(tree) == {"a": 3, "b": 2}
    h = ops.Dense(H)
    controlled_h = ops.Multiplexed({1: h}, (0,), 2)
    assert np.allclose(tree.dense(), ops.compose(controlled_h, ops.kron(h, h)).dense())
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

    seen, entered, checked = [], threading.Event(), threading.Event()

    def worker():
        with ops.qubit_budget(5):
            seen.append(ops.max_qubits())
            entered.set()
            checked.wait(timeout=10)

    before = ops.max_qubits()
    thread = threading.Thread(target=worker)
    thread.start()
    assert entered.wait(timeout=10)
    assert ops.max_qubits() == before  # while the worker is inside its budget
    checked.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [5]


def test_label_reflection_matches_dense_blocks():
    x = np.array([0.3, -1.0, 0.0, 0.8])
    s = np.sqrt(1.0 - x * x)
    op = ops.LabelBlocks.reflection(x)
    assert op.n == 3
    want = np.block([[np.diag(x), np.diag(s)], [np.diag(s), -np.diag(x)]])
    assert np.max(np.abs(op.dense() - want)) <= 1e-15
    assert op.adjoint() is op
    assert ops.unitarity_defect(op) <= 1e-15
    with pytest.raises(ContractViolationError):
        ops.LabelBlocks.reflection(np.zeros(3))
    with pytest.raises(ContractViolationError):
        ops.LabelBlocks.reflection(np.array([0.5, 1.5]))
    with pytest.raises(ContractViolationError):
        ops.LabelBlocks.reflection(np.array([np.nan, 0.0]))


def _blocks_dense(leaf):
    """Dense matrix of a LabelBlocks leaf from its [x; s] and kind."""
    labels = leaf.x.shape[0]
    c, s = np.diag(leaf.x), np.diag(leaf._xs[labels:])
    if leaf.rotation:
        return np.block([[c, -s], [s, c]])
    return np.block([[c, s], [s, -c]])


def test_label_blocks_products_fold_per_label():
    """times multiplies two leaves per label by an angle addition or
    subtraction, reflected multiplies by Z, and the adjoint of a rotation is
    its transpose: each agrees with the dense product."""
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, 8)
    x[:3] = (-1.0, 0.0, 1.0)
    u = ops.LabelBlocks.reflection(x)
    z = np.diag(np.repeat([1.0, -1.0], 8))
    r = u.reflected()
    assert r.rotation and r.folded_leaves == 2 and u.adjoint() is u
    assert np.array_equal(r.dense(), u.dense() @ z)
    assert r.adjoint().rotation and r.adjoint().folded_leaves == 2
    assert np.array_equal(r.adjoint().dense(), r.dense().T)
    for left in (u, r, r.adjoint()):
        for right in (u, r, r.adjoint(), r.reflected()):
            got = left.times(right)
            assert got.rotation == (left.rotation == right.rotation)
            assert got.folded_leaves == left.folded_leaves + right.folded_leaves
            assert np.max(np.abs(got.dense() - left.dense() @ right.dense())) <= 1e-15
            assert np.array_equal(got.dense(), _blocks_dense(got))
    with pytest.raises(ContractViolationError, match="label counts"):
        u.times(ops.LabelBlocks.reflection(x[:4]))
    with pytest.raises(ContractViolationError):
        ops.LabelBlocks(np.zeros(6))


def test_a_rotation_leaf_matches_the_two_half_formula_exactly():
    rng = np.random.default_rng(13)
    theta = rng.uniform(0, 2 * np.pi, 16)
    c, s = np.cos(theta), np.sin(theta)
    op = ops.LabelBlocks(np.concatenate((c, s)), rotation=True)
    cols = rng.normal(size=(32, 3))
    top, bottom = cols[:16], cols[16:]
    c, s = c[:, None], s[:, None]
    want = np.concatenate((c * top - s * bottom, s * top + c * bottom))
    assert np.array_equal(op.apply(cols), want)


def test_apply_projects_onto_a_row_functional():
    """apply(vec, l) keeps sum_i l_i (slice i) of each result, converted to
    complex128 only then; l = e_0 keeps the leading rows."""
    rng = np.random.default_rng(14)
    reflection = ops.LabelBlocks.reflection(rng.uniform(-1, 1, 8))
    op = ops.compose(ops.WalshHadamard(5, 0, 3), ops.Embedded(reflection, (1, 2, 3, 4), 5))
    cols = rng.standard_normal((32, 3))
    ell = rng.standard_normal(8)
    whole = op.apply(cols)
    got = op.apply(cols, ell)
    assert got.dtype == np.complex128 and got.shape == (4, 3)
    assert np.max(np.abs(got - np.einsum("i,ijb->jb", ell, whole.reshape(8, 4, 3)))) <= 1e-14
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert np.array_equal(op.apply(cols, e0), op.apply(cols, 4))


def test_describe_shows_the_factors_of_a_folded_leaf():
    from qkan.chebyshev import chebyshev_be
    from qkan.encoders import encode_diagonal_exact

    be = encode_diagonal_exact(np.array([0.3, -0.5]), name="x")
    t3 = chebyshev_be(be, 3)
    node = ops.describe(t3.op)["children"][0]
    assert (node["kind"], node["rotation"], node["folded_leaves"]) == ("LabelBlocks", True, 6)
    assert node["leaves"] == 1
    text = ops.describe_text(t3.op).splitlines()
    assert text == [
        "Query n=2 counts={'x': 3} leaves=1",
        "  LabelBlocks n=2 rotation=True folded_leaves=6 leaves=1",
    ]
    plain = ops.describe_text(be.op).splitlines()[1]
    assert plain == "  LabelBlocks n=2 rotation=False folded_leaves=1 leaves=1"
    assert ops.unfolded_leaves(ops.compose(t3.op, be.op, be.zero_reflection)) == 8


def test_label_reflection_copies_its_input():
    from qkan.block_encoding import extract_diagonal
    from qkan.encoders import encode_diagonal_exact

    x = np.array([0.3, -0.5])
    be = encode_diagonal_exact(x)
    x[:] = (2.0, 7.0)  # edited after encoding: the encoding must not change
    assert ops.unitarity_defect(be.op) <= 1e-15
    assert np.max(np.abs(extract_diagonal(be) - [0.3, -0.5])) <= 1e-15
    with pytest.raises(ValueError):
        be.op.inner.x[0] = 0.0


def _move_to_front(axes, n):
    """Permutation matrix P with P|b_0..b_{n-1}> = |b_axes..., b_rest...>,
    the other qubits kept in ascending order."""
    order = list(axes) + [q for q in range(n) if q not in axes]
    p = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        j = 0
        for q in order:
            j = (j << 1) | bits[q]
        p[j, i] = 1.0
    return p


def _random_matrix(k, rng):
    dim = 1 << k
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@st.composite
def axis_orders(draw, max_qubits=6):
    """(axes, n): contiguous, reversed, interleaved or empty axis orders."""
    n = draw(st.integers(1, max_qubits))
    kind = draw(st.sampled_from(["contiguous", "reversed", "interleaved", "empty"]))
    if kind == "empty":
        return (), n
    k = draw(st.integers(1, n))
    if kind == "interleaved":
        return tuple(draw(st.permutations(range(n)))[:k]), n
    start = draw(st.integers(0, n - k))
    axes = tuple(range(start, start + k))
    return (axes[::-1] if kind == "reversed" else axes), n


def _check_against(op, want, rng):
    assert np.max(np.abs(op.dense() - want)) <= 1e-12
    batch = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
    assert np.max(np.abs(op.apply(batch) - want @ batch)) <= 1e-12
    assert np.max(np.abs(op.apply(batch[:, 1]) - want @ batch[:, 1])) <= 1e-12


@given(axis_orders(), st.integers(0, 2**16))
def test_embedded_matches_kron_and_permutation_reference(case, seed):
    axes, n = case
    rng = np.random.default_rng(seed)
    mat = _random_matrix(len(axes), rng)
    p = _move_to_front(axes, n)
    want = p.T @ np.kron(mat, np.eye(1 << (n - len(axes)))) @ p
    _check_against(ops.Embedded(ops.Dense(mat), axes, n), want, rng)


@given(axis_orders(max_qubits=5), st.integers(0, 2**16))
def test_multiplexed_matches_block_diagonal_reference(case, seed):
    axes, n = case
    rng = np.random.default_rng(seed)
    b = len(axes)
    rest = n - b
    values = [v for v in range(1 << b) if rng.random() < 0.6]  # missing branches stay identity
    branches = {v: _random_matrix(rest, rng) for v in values}
    select = np.zeros((1 << n, 1 << n), dtype=complex)
    for v in range(1 << b):
        unit = np.zeros((1 << b, 1 << b))
        unit[v, v] = 1.0
        select += np.kron(unit, branches.get(v, np.eye(1 << rest)))
    p = _move_to_front(axes, n)
    op = ops.Multiplexed({v: ops.Dense(m) for v, m in branches.items()}, axes, n)
    _check_against(op, p.T @ select @ p, rng)


def test_leading_contiguous_embedding_is_a_zero_copy_view():
    cols = np.arange(16 * 2, dtype=complex).reshape(16, 2)
    out = ops.Embedded(ops.Identity(2), (0, 1), 4).apply(cols)
    assert np.shares_memory(out, cols)
    assert np.array_equal(out, cols)


@given(axis_orders(max_qubits=5), st.integers(0, 2**16))
def test_nested_embedding_is_flattened(case, seed):
    outer_axes, n = case
    m = len(outer_axes)
    rng = np.random.default_rng(seed)
    inner_axes = tuple(rng.permutation(m)[: rng.integers(0, m + 1)])
    query = ops.Query(ops.Dense(ops.random_unitary(len(inner_axes), rng)), {"u": 1})
    inner = ops.Embedded(query, inner_axes, m)
    nested = ops.Embedded(inner, outer_axes, n)
    assert nested.inner is query
    assert nested.axes == tuple(outer_axes[a] for a in inner_axes)
    # reference: the inner embedding applied on the outer axes, not flattened
    p = _move_to_front(outer_axes, n)
    want = p.T @ np.kron(inner.dense(), np.eye(1 << (n - m))) @ p
    assert np.max(np.abs(nested.dense() - want)) <= 1e-12
    assert np.max(np.abs(nested.adjoint().dense() - want.conj().T)) <= 1e-12
    assert ops.query_counts(nested) == ops.query_counts(inner) == {"u": 1}


def test_flattening_stops_at_query_nodes():
    rng = np.random.default_rng(5)
    inner = ops.Embedded(ops.Dense(ops.random_unitary(1, rng)), (1,), 2)
    wrapped = ops.Query(inner, {"q": 1})
    outer = ops.Embedded(wrapped, (2, 0), 3)
    assert outer.inner is wrapped and outer.axes == (2, 0)
    assert wrapped.inner is inner
    assert ops.query_counts(outer) == {"q": 1}
    p = _move_to_front((2, 0), 3)
    want = p.T @ np.kron(inner.dense(), np.eye(2)) @ p
    assert np.max(np.abs(outer.dense() - want)) <= 1e-12


def test_describe_single_layer_tree():
    from qkan.encoders import encode_diagonal_exact
    from qkan.network import LayerSpec, build_layer

    layer = build_layer(encode_diagonal_exact(np.array([0.3, -0.5])), LayerSpec.random(2, 1, 1, seed=3))
    tree = ops.describe(layer.op)
    nodes = []

    def walk(node):
        nodes.append(node)
        below = sum(walk(child) for child in node["children"]) or 1
        assert node["leaves"] == below  # every node counts the leaves under it
        return below

    walk(tree)
    # five layout qubits; the operator leaves out the idle QSVT ancilla
    assert layer.num_aux + layer.num_system == 5 and layer.idle_aux == 1
    assert tree["kind"] == "Composed" and tree["n"] == 4
    # one Query per primitive application: x once (d = 1), each weight degree once
    queries = sorted(tuple(sorted(n["counts"].items())) for n in nodes if n["kind"] == "Query")
    assert queries == [(("w0[0]", 1),), (("w0[1]", 1),), (("x", 1),)]
    # flattened: no Embedded directly holds an Embedded; the SUM Hadamard on
    # input qubit 3 is one WalshHadamard leaf on all the operator's qubits,
    # both sides
    embedded = [n for n in nodes if n["kind"] == "Embedded"]
    assert all(n["children"][0]["kind"] != "Embedded" for n in embedded)
    sums = [tree["children"][0], tree["children"][-1]]
    assert all(n["kind"] == "WalshHadamard" and not n["children"] for n in sums)
    assert all((n["n"], n["start"], n["count"]) == (4, 3, 1) for n in sums)
    assert tree["leaves"] == sum(1 for n in nodes if not n["children"])
    text = ops.describe_text(layer.op)
    assert text.splitlines()[0] == f"Composed n=4 leaves={tree['leaves']}"
    assert text.splitlines()[1] == "  WalshHadamard n=4 start=3 count=1 leaves=1"
    assert text.count("Query") == 3 and "counts={'x': 1}" in text
    assert "Multiplexed n=4 selector_axes=(0,) values=(0, 1)" in text


def _hadamard_reference(n, start, count):
    """The per-qubit construction: H^{(x)count} as an embedded kron of 2x2 gates."""
    axes = tuple(range(start, start + count))
    return ops.Embedded(ops.kron(*([ops.Dense(H)] * count)), axes, n)


@pytest.mark.parametrize(
    "n, start, count",
    [(1, 0, 1), (4, 0, 4), (5, 0, 5), (9, 0, 9), (10, 0, 9), (10, 1, 9), (6, 2, 1), (8, 3, 4),
     (9, 2, 5), (10, 5, 4)],
)
@pytest.mark.parametrize("batch", [1, 7])
def test_walsh_hadamard_matches_per_qubit_hadamards(n, start, count, batch):
    rng = np.random.default_rng(n * 100 + start * 10 + count)
    op = ops.WalshHadamard(n, start, count)
    want = _hadamard_reference(n, start, count)
    cols = rng.normal(size=(1 << n, batch)) + 1j * rng.normal(size=(1 << n, batch))
    before = cols.copy()
    out = op.apply(cols)
    assert np.array_equal(cols, before)  # the input is left as it was
    assert np.max(np.abs(out - want.apply(cols))) <= 1e-13
    strided = np.ascontiguousarray(cols.T).T  # a transposed view
    assert batch == 1 or not strided.flags.c_contiguous
    assert np.max(np.abs(op.apply(strided) - want.apply(cols))) <= 1e-13
    assert np.array_equal(strided, before)
    vec = cols[:, 0]
    assert np.max(np.abs(op.apply(vec) - want.apply(vec))) <= 1e-13


def test_walsh_hadamard_inside_embedded_and_multiplexed():
    rng = np.random.default_rng(11)
    cols = rng.normal(size=(1 << 7, 3)) + 1j * rng.normal(size=(1 << 7, 3))
    inner = ops.WalshHadamard(5, 1, 3)
    embedded = ops.Embedded(inner, (6, 0, 3, 5, 1), 7)  # the inner sees a strided view
    want = ops.Embedded(_hadamard_reference(5, 1, 3), (6, 0, 3, 5, 1), 7)
    assert np.max(np.abs(embedded.apply(cols) - want.apply(cols))) <= 1e-13
    mux = ops.Multiplexed({1: ops.WalshHadamard(5)}, (2, 4), 7)
    mux_want = ops.Multiplexed({1: _hadamard_reference(5, 0, 5)}, (2, 4), 7)
    assert np.max(np.abs(mux.apply(cols) - mux_want.apply(cols))) <= 1e-13


def test_walsh_hadamard_is_the_normalized_sylvester_matrix():
    sylvester = np.array([[1.0]])
    for n in range(1, 7):
        sylvester = np.block([[sylvester, sylvester], [sylvester, -sylvester]])
        op = ops.WalshHadamard(n)
        assert op.adjoint() is op
        assert np.max(np.abs(op.dense() - sylvester / 2 ** (n / 2))) <= 1e-14
    layer = ops.hadamard_layer(3)
    assert isinstance(layer, ops.WalshHadamard) and (layer.start, layer.count) == (0, 3)


@pytest.mark.parametrize("start, count", [(-1, 1), (0, 0), (2, 3), (0, 5)])
def test_walsh_hadamard_rejects_qubits_out_of_range(start, count):
    with pytest.raises(ContractViolationError):
        ops.WalshHadamard(4, start, count)


@pytest.mark.parametrize("n_in, n_out, degree", [
    (n_in, n_out, degree) for n_in in (2, 16, 256) for n_out in (1, 4) for degree in (1, 3)
])
def test_built_layers_hold_no_dense_leaf(n_in, n_out, degree):
    """The SUM and LCU Hadamards are WalshHadamard leaves, not per-qubit gates."""
    from qkan.encoders import encode_diagonal_exact
    from qkan.network import LayerSpec, build_layer

    x = np.linspace(-0.9, 0.9, n_in)
    layer = build_layer(encode_diagonal_exact(x), LayerSpec.random(n_in, n_out, degree, seed=n_in))
    kinds = set()

    def walk(node):
        if not node["children"]:
            kinds.add(node["kind"])
        for child in node["children"]:
            walk(child)

    walk(ops.describe(layer.op))
    assert "WalshHadamard" in kinds and "Dense" not in kinds


def test_label_reflection_matches_the_two_half_formula_exactly():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 64)
    x[:3] = (-1.0, 0.0, 1.0)
    op = ops.LabelBlocks.reflection(x)
    cols = rng.normal(size=(128, 5)) + 1j * rng.normal(size=(128, 5))
    before = cols.copy()
    top, bottom = cols[:64], cols[64:]
    xs, s = x[:, None], np.sqrt(1.0 - x * x)[:, None]
    want = np.concatenate((xs * top + s * bottom, s * top - xs * bottom))
    assert np.array_equal(op.apply(cols), want)
    assert np.array_equal(cols, before)
    strided = np.ascontiguousarray(cols.T).T
    assert np.array_equal(op.apply(strided), want)


def _moved_reference(kind, values, axes, n, cols):
    """A diagonal-type leaf on the qubit `axes` of (2^n, b) columns, by an
    explicit transposition of one axis per qubit: `axes` first, in order,
    then the other qubits, then the batch."""
    rest = [q for q in range(n) if q not in axes]
    perm = list(axes) + rest + [n]
    tensor = cols.reshape((2,) * n + (cols.shape[1],)).transpose(perm)
    moved = np.ascontiguousarray(tensor).reshape(1 << len(axes), -1)
    half = moved.shape[0] // 2
    top, bottom = moved[:half], moved[half:]
    if kind == "reflection":
        x, s = values[:, None], np.sqrt(1.0 - values * values)[:, None]
        out = np.concatenate((x * top + s * bottom, s * top - x * bottom))
    elif kind == "rotation":
        x, s = values[:half, None], values[half:, None]
        out = np.concatenate((x * top - s * bottom, s * top + x * bottom))
    else:
        out = values[:, None] * moved
    back = out.reshape(tensor.shape).transpose(np.argsort(perm))
    return np.ascontiguousarray(back).reshape(cols.shape)


@st.composite
def diagonal_subtrees(draw, k):
    """(operator on k qubits, [(kind, values, axes)] in the order they
    apply): a LabelBlocks reflection or rotation, a real or complex
    Diagonal, either inside a Query, or a Composed of such leaves embedded
    on some of the k qubits."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    def leaf(kind, j):
        if kind == "reflection":
            values = rng.uniform(-1, 1, 1 << (j - 1))
            values[: min(2, values.size)] = rng.choice([-1.0, 0.0, 1.0], min(2, values.size))
            return ops.LabelBlocks.reflection(values), values
        if kind == "rotation":
            theta = rng.uniform(0, 2 * np.pi, 1 << (j - 1))
            values = np.concatenate((np.cos(theta), np.sin(theta)))
            return ops.LabelBlocks(values, rotation=True), values
        values = rng.normal(size=1 << j)
        if kind == "complex":
            values = values + 1j * rng.normal(size=1 << j)
        return ops.Diagonal(values), values

    shape = draw(st.sampled_from(["reflection", "rotation", "real", "complex", "query", "composed"]))
    if shape != "composed":
        kind = "reflection" if shape == "query" else shape
        op, values = leaf(kind, k)
        return (ops.Query(op, {"q": 1}) if shape == "query" else op), [(kind, values, tuple(range(k)))]
    factors, steps = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["reflection", "rotation", "real", "complex"]))
        sub = tuple(draw(st.permutations(range(k)))[: draw(st.integers(1, k))])
        op, values = leaf(kind, len(sub))
        if draw(st.booleans()):
            op = ops.Query(op, {kind: 1})
        factors.append(op if sub == tuple(range(k)) else ops.Embedded(op, sub, k))
        steps.insert(0, (kind, values, sub))  # the rightmost factor applies first
    return ops.Composed(tuple(factors)), steps


@st.composite
def embedded_diagonal_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    axes = tuple(draw(st.permutations(range(n)))[:k])  # any order, any gaps, first qubit anywhere
    op, steps = draw(diagonal_subtrees(k))
    batch = draw(st.sampled_from([1, 2, 3, 8]))
    return op, steps, axes, n, batch, draw(st.booleans())


@given(embedded_diagonal_cases(), st.integers(0, 2**16))
def test_diagonal_leaves_act_in_place_exactly_as_transposed(case, seed):
    op, steps, axes, n, batch, complex_columns = case
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(1 << n, batch))
    if complex_columns:
        cols = cols + 1j * rng.normal(size=cols.shape)
    before = cols.copy()
    want, inner = cols, cols[: op.dim]
    for kind, values, sub in steps:
        want = _moved_reference(kind, values, tuple(axes[a] for a in sub), n, want)
        inner = _moved_reference(kind, values, sub, op.n, inner)
    node = ops.Embedded(op, axes, n)
    assert np.array_equal(node.apply(cols), want)
    assert not isinstance(node._plan, ops._AxisPlan)  # no transposition of the columns
    assert np.array_equal(op.apply(cols[: op.dim]), inner)  # the leaves' own apply
    assert np.array_equal(node.apply(cols[:, 0]), want[:, 0])
    assert np.array_equal(cols, before)


@pytest.mark.parametrize("values, outside", [
    (0.5, False), (1.0, False), (-1.0, False), (1.0000000000000002, True), (-1.5, True),
    (float("nan"), True), (float("inf"), True), (3, True), (0, False),
    ([], False), ([0.5, -1.0, 1.0], False), ([0.5, float("nan")], True), ([[0.2], [-2.0]], True),
    (np.array([[1.0, -1.0], [0.0, 0.25]]), False), (np.array([1.0, 2.0]) * 1j, True),
])
def test_outside_unit_interval_of_scalars_lists_and_nan(values, outside):
    assert ops.outside_unit_interval(values) is outside
    assert outside is not bool(np.all(np.abs(values) <= 1.0))
