import numpy as np
import pytest

import oracles
import qkan
from qkan import block_encoding, operators as ops
from qkan.block_encoding import BlockEncoding, compile_system_blocks, pad_aux, primitive_encoding
from qkan.errors import ContractViolationError


def random_exact_encoding(rng, n=2, aux=1, name=None):
    """A random unitary viewed as an exact (1, aux, 0)-encoding of its block."""
    op = ops.Dense(ops.random_unitary(aux + n, rng))
    name = name or f"u{rng.integers(1 << 30)}"
    be = primitive_encoding(op, (("a", aux),), (("sys", n),), name)
    return be, qkan.extract_block(be)


def test_extract_block_identity():
    be = qkan.identity_encoding(2)
    assert np.allclose(qkan.extract_block(be), np.eye(4))


def test_extract_block_exact_encoder():
    x = np.array([0.3, -0.7])
    be = qkan.encode_diagonal_exact(x)
    assert np.max(np.abs(qkan.extract_block(be) - np.diag(x))) < 1e-12


def test_extract_block_product_of_scalars():
    half = qkan.encode_diagonal_exact(np.array([0.5]))
    prod = qkan.product(half, qkan.encode_diagonal_exact(np.array([0.5])))
    assert np.allclose(qkan.extract_block(prod), [[0.25]])


def test_extract_diagonal_matches_and_requires_flag():
    x = np.array([0.1, 0.9, -0.4, 0.0])
    be = qkan.encode_diagonal_exact(x)
    assert np.allclose(qkan.extract_diagonal(be), x)
    zero = qkan.encode_diagonal_exact(np.zeros(2))
    assert np.allclose(qkan.extract_diagonal(zero), 0.0)
    nondiag, _ = random_exact_encoding(np.random.default_rng(0))
    with pytest.raises(ContractViolationError):
        qkan.extract_diagonal(nondiag)


def _count_applied_columns(be):
    """Record the column count of each application of `be.op` (on this
    instance only): of its middle, which is `be.op` itself unless factors
    that act on the ancillas alone end its product (see read_block)."""
    applied = []
    middle = block_encoding._peel(be.op, be.live_aux)[1]
    inner = middle._apply

    def counted(cols):
        applied.append(cols.shape[1])
        return inner(cols)

    object.__setattr__(middle, "_apply", counted)
    return applied


def test_exact_diagonal_is_read_from_one_column():
    spec = qkan.LayerSpec.random(2, 4, 1, seed=5)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.6])), spec)
    assert (be.system_dim, be.epsilon) == (4, 0.0)
    applied = _count_applied_columns(be)
    qkan.extract_diagonal(be)
    assert applied == [1]  # |0>_aux (x) sum_j |j>, one application


def test_noisy_diagonal_is_read_one_column_per_entry():
    be = qkan.perturb(qkan.encode_diagonal_exact(np.array([0.1, 0.9, -0.4, 0.0])), 1e-6, seed=2)
    assert be.epsilon > 0
    applied = _count_applied_columns(be)
    qkan.extract_diagonal(be)
    assert applied == [4]  # one block holding the columns |0>_aux|j>


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
def test_row_sums_are_a_read_only_copy_of_system_dim_rows(phase):
    """The cached read holds its own system_dim entries, never a view that
    keeps the whole 2^n column alive, for a real and a complex result."""
    x = np.array([0.1, 0.9, -0.4, 0.0])
    exact = qkan.encode_diagonal_exact(x)
    be = primitive_encoding(ops.Dense(phase * exact.op.dense()), (("a", 1),), (("sys", 2),), "u")
    perturbed = qkan.perturb(be, 1e-6, seed=2)
    for enc in (be, perturbed):
        rows = enc.row_sums
        assert rows is enc.row_sums  # one application per encoding
        assert rows.dtype == np.complex128 and rows.shape == (enc.system_dim,)
        assert rows.base is None and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 1.0
    assert np.array_equal(be.row_sums, phase * x)
    assert np.max(np.abs(perturbed.row_sums - phase * x)) <= 1e-5


def test_writing_into_a_read_diagonal_leaves_the_next_read_unchanged():
    x = np.array([0.1, 0.9, -0.4, 0.0])
    be = qkan.encode_diagonal_exact(x)
    first = qkan.extract_diagonal(be)
    first[:] = 7.0
    assert np.array_equal(qkan.extract_diagonal(be), x)


def test_compiled_encoding_reads_its_own_leaf():
    """compile_system_blocks returns a new encoding, so a read cached on the
    tree is not carried over: the compiled leaf is applied on its first read."""
    spec = qkan.LayerSpec.random(2, 4, 1, seed=5)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.6])), spec)
    values = qkan.extract_diagonal(be)
    compiled = compile_system_blocks(be)
    applied = _count_applied_columns(compiled)
    assert np.max(np.abs(qkan.extract_diagonal(compiled) - values)) <= 1e-14
    qkan.extract_diagonal(compiled)
    assert applied == [1]


def test_verify_exact_and_perturbed():
    x = np.array([0.2, -0.5, 0.8, 0.0])
    be = qkan.encode_diagonal_exact(x)
    assert qkan.verify(be, np.diag(x)) <= 1e-12
    shaken = qkan.perturb(be, 1e-6, seed=4)
    assert qkan.verify(shaken, np.diag(x)) <= 1e-6 + 1e-10
    assert shaken.epsilon == pytest.approx(1e-6)


def test_product_with_identity_unchanged(rng):
    be, block = random_exact_encoding(rng)
    prod = qkan.product(be, qkan.identity_encoding(be.num_system))
    assert np.max(np.abs(qkan.extract_block(prod) - block)) < 1e-12


def test_product_diagonal_scalars():
    a = qkan.encode_diagonal_exact(np.array([0.5, 0.5]))
    b = qkan.encode_diagonal_exact(np.array([0.5, 0.5]))
    assert np.allclose(qkan.extract_diagonal(qkan.product(a, b)), 0.25)


def test_product_weighted_chebyshev_matches_entrywise_oracle(rng):
    x = rng.uniform(-1, 1, 4)
    w = rng.uniform(-1, 1, 4)
    cheb = qkan.chebyshev_be(qkan.encode_diagonal_exact(x), 2)
    weighted = qkan.product(qkan.encode_diagonal_exact(w, name="w"), cheb)
    expected = w * np.cos(2 * np.arccos(x))
    assert np.max(np.abs(qkan.extract_diagonal(weighted) - expected)) < 1e-10


def test_product_register_mismatch():
    a = qkan.encode_diagonal_exact(np.array([0.5, 0.5]))
    b = qkan.encode_diagonal_exact(np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ContractViolationError):
        qkan.product(a, b)


def test_lcu_identical_terms_equal_weights(rng):
    be, block = random_exact_encoding(rng)
    combo = qkan.lcu([be, be], qkan.uniform_pair(2))
    assert np.max(np.abs(qkan.extract_block(combo) - block)) < 1e-12


def test_lcu_equal_superposition_four_terms(rng):
    bes, blocks = zip(*(random_exact_encoding(rng) for _ in range(4)))
    combo = qkan.lcu(list(bes), qkan.uniform_pair(4))
    expected = sum(blocks) / 4.0
    assert np.max(np.abs(qkan.extract_block(combo) - expected)) < 1e-12


def test_lcu_real_part_trick(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi))
    combo = qkan.lcu([be, qkan.adjoint_encoding(be)], qkan.uniform_pair(2))
    assert np.max(np.abs(qkan.extract_diagonal(combo) - psi.real)) < 1e-12


def test_lcu_nonuniform_weights(rng):
    y = np.array([0.5, -0.3, 0.2])
    pair = qkan.pair_for_weights(y)
    assert pair.beta == pytest.approx(1.0)
    assert np.sum(np.abs(pair.realized_weights()[: y.size] - y)) < 1e-12
    bes, blocks = zip(*(random_exact_encoding(rng) for _ in range(3)))
    combo = qkan.lcu(list(bes), pair)
    expected = sum(w * b for w, b in zip(y, blocks))
    assert np.max(np.abs(qkan.extract_block(combo) - expected)) < 1e-12


def test_state_prep_pair_zero_weight_tail():
    pair = qkan.uniform_pair(3)
    weights = pair.realized_weights()
    assert np.allclose(weights[:3], 1 / 3)
    assert abs(weights[3]) < 1e-14


@pytest.mark.parametrize("m", [3, 5, 6, 7, 9, 100, 1000])
def test_uniform_pair_reflection_maps_zero_to_the_uniform_state(m):
    """Past a power of two the pair is one Householder reflection
    H = I - 2 w w^T, w = (e0 - u) / |e0 - u|: real, its own adjoint, and
    H |0> = u, the uniform state over the first m selector values."""
    pair = qkan.uniform_pair(m)
    h = pair.p_left
    assert isinstance(h, ops.Householder) and pair.p_right is h and h.adjoint() is h
    assert pair.b == (m - 1).bit_length() and pair.real
    u = np.zeros(1 << pair.b)
    u[:m] = 1.0 / np.sqrt(m)
    if h.n <= ops.DENSE_CAP_QUBITS:
        dense = h.dense()
        assert np.max(np.abs(dense[:, 0] - u)) <= 1e-15
        assert np.max(np.abs(dense - dense.T)) == 0.0 and not np.any(dense.imag)
        assert np.max(np.abs(dense @ dense - np.eye(1 << h.n))) <= 1e-14
    assert np.max(np.abs(h.apply(np.eye(1 << h.n)[:, 0]) - u)) <= 1e-15
    weights = pair.realized_weights()
    assert np.max(np.abs(weights[:m] - 1.0 / m)) <= 1e-15 and not np.any(weights[m:])


def test_uniform_pair_of_8193_terms_allocates_no_selector_matrix():
    """b = 14 selector qubits: a dense 2^14 x 2^14 complex matrix would
    take 4 GiB. The reflection vector takes 128 KiB, and the pair builds
    and passes its check within a few MiB."""
    import tracemalloc

    tracemalloc.start()
    try:
        pair = qkan.uniform_pair(8193)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.b == 14 and pair.real and peak <= 4 << 20
    weights = pair.realized_weights()
    assert np.sum(np.abs(weights[:8193] - 1.0 / 8193)) < 1e-12 and not np.any(weights[8193:])


def test_a_householder_leaf_needs_a_real_unit_vector_of_power_of_two_length():
    for w in (np.ones(3) / np.sqrt(3), np.ones(4), np.ones((2, 2)) / 2, np.array([0.6, 0.8j])):
        with pytest.raises(ContractViolationError):
            ops.Householder(w)
    w = np.array([0.6, 0.8])
    leaf = ops.Householder(w)
    w[0] = 1.0  # the leaf holds its own read-only copy
    assert leaf.w.tolist() == [0.6, 0.8] and not leaf.w.flags.writeable


def test_hadamard_product_offdiagonal_removal(rng):
    be, block = random_exact_encoding(rng)
    diag = qkan.remove_offdiagonal(be)
    assert diag.diagonal_flag
    assert np.max(np.abs(qkan.extract_diagonal(diag) - np.diag(block))) < 1e-12
    assert diag.num_aux == be.num_aux + be.num_system


def test_hadamard_product_diagonal_vectors(rng):
    a = rng.uniform(-1, 1, 4)
    b = rng.uniform(-1, 1, 4)
    had = qkan.hadamard_product(
        qkan.encode_diagonal_exact(a), qkan.encode_diagonal_exact(b, name="b")
    )
    assert np.max(np.abs(qkan.extract_diagonal(had) - a * b)) < 1e-12


def test_remove_offdiagonal_of_hadamard_gate():
    h_gate = ops.hadamard_layer(1)
    be = primitive_encoding(h_gate, (), (("sys", 1),), "h")
    diag = qkan.remove_offdiagonal(be)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.max(np.abs(qkan.extract_diagonal(diag) - expected)) < 1e-12


def test_remove_offdiagonal_random_two_qubit(rng):
    be, block = random_exact_encoding(rng, n=2, aux=0)
    diag = qkan.remove_offdiagonal(be)
    assert np.max(np.abs(qkan.extract_diagonal(diag) - np.diag(block))) < 1e-12


def test_remove_offdiagonal_idempotent_on_diagonal():
    x = np.array([0.4, -0.2])
    be = qkan.encode_diagonal_exact(x)
    again = qkan.remove_offdiagonal(be)
    assert np.max(np.abs(qkan.extract_diagonal(again) - x)) < 1e-12


def test_dilate_repeats_entries():
    x = np.array([0.3, -0.7])
    be = qkan.encode_diagonal_exact(x)
    assert qkan.dilate(be, 0) is be
    dil = qkan.dilate(be, 1)
    assert np.allclose(qkan.extract_diagonal(dil), [0.3, 0.3, -0.7, -0.7])
    assert (dil.alpha, dil.num_aux, dil.epsilon) == (be.alpha, be.num_aux, be.epsilon)


def test_dilate_ahead_of_trailing_register():
    x = np.array([[0.3, -0.7], [0.1, 0.9]])  # x[p, s] over [p | sample]
    be = qkan.split_system(qkan.encode_diagonal_exact(x.reshape(-1)), 1)
    assert (be.aux, be.system) == ((("enc", 1, False),), (("sys", 1), ("sample", 1)))
    dil = qkan.dilate(be, 1, trailing=1)
    assert (dil.aux, dil.system) == ((("enc", 1, False),), (("sys", 1), ("dil", 1), ("sample", 1)))
    target = np.diag([x[p, s] for p in range(2) for q in range(2) for s in range(2)])
    assert qkan.verify(dil, target) <= 1e-15
    with pytest.raises(ContractViolationError):
        qkan.dilate(qkan.encode_diagonal_exact(x.reshape(-1)), 1, trailing=1)  # splits "sys"
    with pytest.raises(ContractViolationError):
        qkan.split_system(be, 2)


def test_dilate_preserves_error_bound():
    x = np.array([0.3, -0.7])
    shaken = qkan.perturb(qkan.encode_diagonal_exact(x), 1e-5, seed=1)
    dil = qkan.dilate(shaken, 1)
    target = np.kron(np.diag(x), np.eye(2))
    assert qkan.verify(dil, target) <= dil.epsilon


def test_ledger_counts_lcu_over_chebyshev_terms():
    x = np.array([0.6, -0.2])
    be = qkan.encode_diagonal_exact(x, name="x")
    terms = [qkan.chebyshev_be(be, r) for r in range(4)]
    combo = qkan.lcu(terms, qkan.uniform_pair(4))
    assert combo.cost.get("x", 0) == 6  # sum r over 0..3


def test_perturb_zero_eps_is_identity():
    be = qkan.encode_diagonal_exact(np.array([0.1, 0.2]))
    assert qkan.perturb(be, 0.0, seed=0) is be


def test_perturb_distance_and_unitarity():
    be = qkan.encode_diagonal_exact(np.array([0.1, 0.2, -0.9, 0.5]))
    shaken = qkan.perturb(be, 1e-6, seed=9)
    assert ops.unitarity_defect(shaken.op) <= 1e-10
    dist = np.linalg.norm(shaken.op.dense() - be.op.dense(), 2)
    assert 0.9e-6 <= dist <= 1.1e-6


@pytest.mark.parametrize("eps", [1e-9, 0.5, 1.0, 1.5, 1.9, 1.999])
def test_perturb_meets_every_size_below_2(eps):
    be = qkan.build_layer(
        qkan.encode_diagonal_exact(np.array([0.3, -0.5])),
        qkan.LayerSpec(np.array([[[0.1], [0.2]], [[0.3], [-0.4]], [[0.5], [0.6]]])),
    )
    for seed in range(8):
        shaken = qkan.perturb(be, eps, seed=seed)
        assert ops.unitarity_defect(shaken.op) <= 1e-12
        dist = np.linalg.norm(shaken.op.dense() - be.op.dense(), 2)
        assert 0.9 * eps <= dist <= 0.999 * eps * (1 + 1e-9)
        assert shaken.epsilon == be.epsilon + eps


@pytest.mark.parametrize("eps", [2.0, 2.5, -1e-3, float("nan")])
def test_perturb_rejects_sizes_outside_0_to_2(eps):
    be = qkan.encode_diagonal_exact(np.array([0.1, 0.2]))
    with pytest.raises(ContractViolationError):
        qkan.perturb(be, eps, seed=0)


def test_product_error_bound_seeded_pairs(rng):
    for _ in range(10):
        eps_a, eps_b = rng.uniform(1e-7, 1e-3, 2)
        be_a, target_a = random_exact_encoding(rng)
        be_b, target_b = random_exact_encoding(rng)
        pa = qkan.perturb(be_a, eps_a, int(rng.integers(1 << 30)))
        pb = qkan.perturb(be_b, eps_b, int(rng.integers(1 << 30)))
        prod = qkan.product(pa, pb)
        bound = pa.alpha * pb.epsilon + pb.alpha * pa.epsilon
        assert qkan.verify(prod, target_a @ target_b) <= bound + 1e-10


def test_lcu_error_bound_seeded(rng):
    for _ in range(10):
        eps = rng.uniform(1e-7, 1e-3)
        y = rng.uniform(-1, 1, 3)
        pair = qkan.pair_for_weights(y)
        bes, targets = [], []
        for _ in range(3):
            be, target = random_exact_encoding(rng)
            bes.append(qkan.perturb(be, eps, int(rng.integers(1 << 30))))
            targets.append(target)
        combo = qkan.lcu(bes, pair)
        want = sum(w * t for w, t in zip(y, targets))
        bound = pair.beta * eps
        assert qkan.verify(combo, want) <= bound + 1e-10


def test_hadamard_error_bound_seeded(rng):
    for _ in range(10):
        eps_a, eps_b = rng.uniform(1e-7, 1e-3, 2)
        be_a, target_a = random_exact_encoding(rng)
        be_b, target_b = random_exact_encoding(rng)
        pa = qkan.perturb(be_a, eps_a, int(rng.integers(1 << 30)))
        pb = qkan.perturb(be_b, eps_b, int(rng.integers(1 << 30)))
        had = qkan.hadamard_product(pa, pb)
        bound = pa.alpha * pb.epsilon + pb.alpha * pa.epsilon
        assert qkan.verify(had, target_a * target_b) <= bound + 1e-10
        assert had.num_aux == pa.num_aux + pb.num_aux + pa.num_system


def test_extract_block_cap():
    """11 system qubits exceed DENSE_CAP_QUBITS: refused before any application."""
    be = qkan.encode_diagonal_exact(np.full(2048, 0.5))
    assert be.num_system == ops.DENSE_CAP_QUBITS + 1
    applied = _count_applied_columns(be)
    with pytest.raises(qkan.ResourceLimitError, match="exceeds cap 10"):
        qkan.extract_block(be)
    assert applied == []


def test_block_reads_are_chunked_and_equal_an_unchunked_read(monkeypatch):
    """extract_block and the epsilon > 0 diagonal apply at most
    READ_BLOCK_AMPLITUDES amplitudes at once, and equal the one-batch read
    bit for bit."""
    be = qkan.perturb(qkan.encode_diagonal_exact(np.linspace(-0.9, 0.9, 8)), 1e-3, seed=4)
    assert (be.op.dim, be.system_dim) == (16, 8) and be.epsilon > 0
    applied = _count_applied_columns(be)
    whole_block, whole_diagonal = qkan.extract_block(be), qkan.extract_diagonal(be)
    assert applied == [8, 8]
    applied.clear()
    # 2 columns of 16 amplitudes per application
    monkeypatch.setattr(block_encoding, "READ_BLOCK_AMPLITUDES", 32, raising=False)
    assert np.array_equal(qkan.extract_block(be), whole_block)
    assert applied == [2] * 4
    applied.clear()
    assert np.array_equal(qkan.extract_diagonal(be), whole_diagonal)
    assert applied == [2] * 4


def _dense_read(op, system_dim, V):
    """(<0|_aux (x) I) op (|0>_aux (x) V) from the dense matrix: its
    top-left system_dim block, since the system qubits trail."""
    return op.dense()[:system_dim, :system_dim] @ V


def _layer(degree, n_out=2, seed=5):
    x = np.random.default_rng(seed).uniform(-1, 1, 2)
    spec = qkan.LayerSpec.random(2, n_out, degree, seed=seed)
    return qkan.build_layer(qkan.encode_diagonal_exact(x), spec)


@pytest.mark.parametrize("degree, pair", [(3, ops.WalshHadamard), (2, ops.Householder)])
@pytest.mark.parametrize("adjoint", [False, True])
def test_read_block_peels_the_ancilla_only_ends_of_a_layer(degree, pair, adjoint):
    """SUM's WalshHadamard and the LCU pair (Hadamards for d + 1 = 4 terms,
    a Householder pair for 3) end U's product on both sides and act on ancillas
    alone: they are peeled, and the read equals the dense block on one,
    on 8 real and on 8 complex columns."""
    be = _layer(degree)
    op = be.adjoint_op if adjoint else be.op
    left, middle, right = block_encoding._peel(op, be.live_aux)
    assert [type(end) for end in left] == [ops.WalshHadamard, ops.Embedded]
    assert [type(end) for end in right] == [ops.Embedded, ops.WalshHadamard]
    assert isinstance(left[1].inner, pair) and isinstance(right[0].inner, pair)
    assert all(end.n == be.live_aux for end in left + right)
    assert isinstance(middle, ops.Multiplexed)
    rng = np.random.default_rng(degree)
    S = be.system_dim
    real = rng.standard_normal((S, 8))
    for V in (np.ones(S), real, real + 1j * rng.standard_normal((S, 8))):
        got = block_encoding.read_block(op, S, V)
        assert got.dtype == np.complex128 and got.shape == V.shape
        assert np.max(np.abs(got - _dense_read(op, S, V))) <= 1e-14


def test_a_peeled_read_is_chunked_like_any_other(monkeypatch):
    be = _layer(3, n_out=4)
    S = be.system_dim
    V = np.random.default_rng(1).standard_normal((S, 8))
    whole = block_encoding.read_block(be.op, S, V)
    applied = _count_applied_columns(be)
    # 3 columns of 2^7 amplitudes per application
    monkeypatch.setattr(block_encoding, "READ_BLOCK_AMPLITUDES", 3 * be.op.dim, raising=False)
    chunked = block_encoding.read_block(be.op, S, V)
    assert applied == [3, 3, 2]
    assert np.max(np.abs(chunked - whole)) <= 1e-15
    assert np.max(np.abs(chunked - _dense_read(be.op, S, V))) <= 1e-14


def test_an_end_factor_on_a_system_qubit_is_not_peeled():
    """Only factors on the leading (ancilla) qubits are peeled: a Hadamard
    that also touches the system register, or a Diagonal on all qubits,
    stays in the middle and the read still equals the dense block."""
    be = _layer(1)
    n, a, S = be.op.n, be.live_aux, be.system_dim
    spill = ops.WalshHadamard(n, a - 1, 2)  # the last ancilla and the system qubit
    phases = ops.Diagonal(np.random.default_rng(2).uniform(-1, 1, 1 << n))
    for op in (ops.compose(spill, be.op, phases), ops.compose(phases, be.op, spill)):
        left, middle, right = block_encoding._peel(op, a)
        assert left == [] and right == [] and middle is op
        V = np.random.default_rng(3).standard_normal((S, 3))
        assert np.max(np.abs(block_encoding.read_block(op, S, V) - _dense_read(op, S, V))) <= 1e-14
    inside = ops.compose(ops.WalshHadamard(n, 0, a), be.op, spill)
    left, middle, right = block_encoding._peel(inside, a)
    # the left end peels down to the select; the right end stops at `spill`
    assert len(left) == 3 and right == [] and middle.factors[-1] is spill
    V = np.random.default_rng(4).standard_normal((S, 2))
    assert np.max(np.abs(block_encoding.read_block(inside, S, V) - _dense_read(inside, S, V))) <= 1e-14


def test_a_read_with_nothing_to_peel_is_the_zero_padded_column():
    """A primitive's U is one factor: R|0> = |0> and <0|, so the read applies
    V zero-padded and keeps the first system_dim rows, bit for bit."""
    be = qkan.encode_diagonal_exact(np.array([0.1, -0.9, 0.4, 0.0]))
    V = np.random.default_rng(6).standard_normal((4, 2))
    cols = np.zeros((8, 2))
    cols[:4] = V
    assert block_encoding._peel(be.op, 1) == ([], be.op, [])
    assert np.array_equal(block_encoding.read_block(be.op, 4, V), be.op.apply(cols)[:4])


def test_aux_field_matches_layout():
    x = np.array([0.3, -0.7])
    be = qkan.encode_diagonal_exact(x)
    for derived, idle in (
        (qkan.dilate(be, 1), 0),
        (qkan.chebyshev_be(be, 2), 1),  # the QSVT ancilla
        (qkan.product(be, qkan.encode_diagonal_exact(x, name="y")), 0),
        (qkan.lcu([be, be], qkan.uniform_pair(2)), 0),
    ):
        assert derived.num_aux == sum(size for _, size, _ in derived.aux)
        assert derived.idle_aux == idle
        assert derived.op.n == derived.num_aux + derived.num_system - idle


def test_register_counts_are_plain_attributes_set_at_construction():
    from dataclasses import replace

    from qkan.block_encoding import split_system

    x = np.array([0.3, -0.7, 0.1, 0.5])
    be = split_system(qkan.chebyshev_be(qkan.encode_diagonal_exact(x), 2), 1)
    want = {"num_aux": 2, "live_aux": 1, "idle_aux": 1, "num_system": 2, "system_dim": 4,
            "sample_qubits": 1}
    assert {key: vars(be)[key] for key in want} == want
    assert be.num_aux == sum(size for _, size, _ in be.aux)
    assert be.live_aux == sum(size for _, size, idle in be.aux if not idle)
    assert be.num_system == sum(size for _, size in be.system)
    # replace builds a new encoding, which counts its own registers
    padded = pad_aux(qkan.encode_diagonal_exact(x), 2)
    moved = replace(be, op=padded.op, aux=padded.aux, system=padded.system)
    assert (moved.num_aux, moved.live_aux, moved.idle_aux) == (3, 3, 0)
    assert (moved.num_system, moved.system_dim, moved.sample_qubits) == (2, 4, 0)


def test_cost_survives_perturb_adjoint_and_control():
    be = qkan.chebyshev_be(qkan.encode_diagonal_exact(np.array([0.6, -0.2]), name="x"), 3)
    assert be.cost == {"x": 3}
    assert qkan.perturb(be, 1e-4, seed=2).cost == be.cost
    assert qkan.adjoint_encoding(be).cost == be.cost
    controlled = ops.Multiplexed({1: be.op}, (0,), be.op.n + 1)
    assert ops.query_counts(controlled.adjoint()) == be.cost


def test_idle_qsvt_ancilla_is_counted_but_not_simulated():
    x = np.array([0.3, -0.7])
    be = qkan.encode_diagonal_exact(x)
    cheb = qkan.chebyshev_be(be, 3)
    assert (cheb.aux, cheb.system) == ((("qsvt", 1, True), ("enc", 1, False)), (("sys", 1),))
    assert (cheb.num_aux, cheb.idle_aux, cheb.live_aux, cheb.op.n) == (2, 1, 1, 2)
    assert cheb.live_qubits == (1, 2)
    # the identity on the idle qubit tensored with op: the full-space unitary
    # reads the same block at |0>_qsvt
    full = np.kron(np.eye(2), cheb.op.dense())
    assert np.allclose(np.diag(full)[:2], oracles.chebyshev_values(x, 3)[3], atol=1e-12)
    live = tuple((name, size, False) for name, size, _ in cheb.aux)
    with pytest.raises(ContractViolationError):
        BlockEncoding(cheb.op, 1.0, 0.0, live, cheb.system)  # op misses a layout qubit


def test_primitive_registers_must_not_have_negative_size():
    op = ops.Identity(3)
    assert primitive_encoding(op, (("a", 2),), (("sys", 1),), "u").aux == (("a", 2, False),)
    # the sizes sum to op.n, so only the sign check can reject them
    cases = (((("a", -1), ("b", 4)), (("sys", 0),)), ((("a", 3),), (("sys", -1), ("t", 1))))
    for aux, system in cases:
        with pytest.raises(ContractViolationError, match="negative size"):
            primitive_encoding(op, aux, system, "u")


def test_primitive_registers_must_have_distinct_names():
    op = ops.Identity(3)
    for aux, system in (((("a", 1), ("a", 1)), (("sys", 1),)), ((("a", 2),), (("a", 1),))):
        with pytest.raises(ContractViolationError, match="duplicate register names"):
            primitive_encoding(op, aux, system, "u")


def test_derived_names_keep_the_first_occurrence_and_suffix_the_later_ones():
    """A repeated name gets .2, .3, ... in register order over aux then
    system, and a suffixed name that repeats is suffixed again."""
    aux = (("qsvt", 1, True), ("qsvt", 1, True), ("qsvt.2", 1, True), ("enc", 1, False),
           ("sys", 1, False))
    system = (("sys", 1), ("sys", 2), ("dil", 1))
    be = block_encoding._derived(ops.Identity(6), 1.0, 0.0, aux, system, True)
    assert be.aux == (("qsvt", 1, True), ("qsvt.2", 1, True), ("qsvt.2.2", 1, True),
                      ("enc", 1, False), ("sys", 1, False))
    assert be.system == (("sys.2", 1), ("sys.3", 2), ("dil", 1))
    # the QSVT ancillas of nested transforms
    x = qkan.encode_diagonal_exact(np.array([0.3, -0.7]))
    nested = qkan.chebyshev_be(qkan.chebyshev_be(qkan.chebyshev_be(x, 1), 2), 1)
    assert [name for name, _, _ in nested.aux] == ["qsvt", "qsvt.2", "qsvt.2.2", "enc"]
    assert [name for name, _, _ in qkan.product(x, x).aux] == ["enc", "enc.2"]


def test_duplicate_register_names_and_a_live_qubit_mismatch_keep_their_messages():
    op = ops.Identity(3)
    with pytest.raises(ContractViolationError) as raised:
        BlockEncoding(op, 1.0, 0.0, (("a", 1, False), ("b", 1, True), ("a", 1, False)),
                      (("sys", 1),))
    assert str(raised.value) == "duplicate register names in ['a', 'b', 'a', 'sys']"
    with pytest.raises(ContractViolationError) as raised:
        BlockEncoding(op, 1.0, 0.0, (("a", 1, False),), (("sys", 1), ("a", 1)))
    assert str(raised.value) == "duplicate register names in ['a', 'sys', 'a']"
    with pytest.raises(ContractViolationError) as raised:
        BlockEncoding(op, 1.0, 0.0, (("a", 1, False), ("b", 1, True), ("c", 1, False)),
                      (("sys", 2),))
    assert str(raised.value) == "operator acts on 3 qubits, the registers have 4 live ones"
    assert BlockEncoding(op, 1.0, 0.0, (("a", 1, False), ("b", 1, True)), (("sys", 2),)).idle_aux == 1


def test_negative_alpha_or_epsilon_is_rejected():
    be = qkan.encode_diagonal_exact(np.array([0.3, -0.7]))
    for alpha, epsilon in ((-1.0, 0.0), (1.0, -1e-3)):
        with pytest.raises(ContractViolationError, match="non-negative"):
            BlockEncoding(be.op, alpha, epsilon, be.aux, be.system)


def test_lcu_of_terms_with_idle_ancillas_at_other_positions():
    """A Chebyshev term (idle QSVT ancilla first) and a padded term (live pad
    first) have no idle qubit in common, so both act on all their qubits."""
    x = np.array([0.3, -0.7])
    cheb = qkan.chebyshev_be(qkan.encode_diagonal_exact(x), 2)
    padded = pad_aux(qkan.encode_diagonal_exact(x, name="y"), 1)
    combo = qkan.lcu([cheb, padded], qkan.uniform_pair(2))
    assert combo.idle_aux == 0 and combo.op.n == combo.num_aux + combo.num_system == 4
    want = (oracles.chebyshev_values(x, 2)[2] + x) / 2
    assert np.max(np.abs(qkan.extract_diagonal(combo) - want)) <= 1e-12
    linear = qkan.chebyshev_be(qkan.encode_diagonal_exact(x), 1)
    same = qkan.lcu([cheb, linear], qkan.uniform_pair(2))  # idle QSVT ancillas line up
    assert same.idle_aux == 1 and same.op.n == same.num_aux + same.num_system - 1
    assert np.max(np.abs(qkan.extract_diagonal(same) - want)) <= 1e-12


def _certificate_cases():
    """(kept, dropped): encodings that must carry the exact real diagonal
    certificate, and encodings that must not."""
    from qkan.block_encoding import (
        StatePrepPair,
        adjoint_encoding,
        compile_system_blocks,
        pair_for_weights,
        split_system,
        uniform_pair,
    )
    from qkan.network import sum_over_inputs

    rng = np.random.default_rng(17)
    x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    exact = qkan.encode_diagonal_exact(x, name="x")
    other = qkan.encode_diagonal_exact(y, name="y")
    # the same operator as `exact`, but a plain primitive: diagonal-flagged only
    plain = primitive_encoding(
        ops.LabelBlocks.reflection(x), (("enc", 1),), exact.system, "x", diagonal=True
    )
    psi = x / np.linalg.norm(x)
    hadamards = ops.hadamard_layer(1)
    kept = [
        exact,
        qkan.dilate(exact, 1),
        qkan.dilate(split_system(exact, 1), 2, trailing=1),
        split_system(exact, 1),
        qkan.chebyshev_be(exact, 0),
        qkan.chebyshev_be(exact, 3),
        qkan.product(exact, other),
        qkan.lcu([exact, other], uniform_pair(2)),
        qkan.lcu([exact, other, exact], uniform_pair(3)),
        qkan.lcu([exact, other], pair_for_weights(np.array([0.3, -0.6]))),
        sum_over_inputs(qkan.dilate(exact, 1), 2),
        compile_system_blocks(exact),
    ]
    dropped = [
        plain,
        qkan.perturb(exact, 1e-6, seed=1),
        pad_aux(exact, 1),
        adjoint_encoding(exact),
        qkan.hadamard_product(exact, other),
        qkan.identity_encoding(2),
        qkan.encode_from_stateprep(ops.state_prep_unitary(psi)),
        qkan.encode_real_weights(qkan.stateprep_for_real_vector(0.5 * psi)),
        # a complex pair, and a real pair made by hand, whose realness is not checked
        qkan.lcu([exact, other], pair_for_weights(np.array([0.3, 0.6j]))),
        qkan.lcu([exact, other], StatePrepPair(hadamards, hadamards, 1.0, 1)),
        # one uncertified part
        qkan.dilate(plain, 1),
        split_system(plain, 1),
        qkan.chebyshev_be(plain, 3),
        qkan.product(exact, plain),
        qkan.product(plain, exact),
        qkan.lcu([exact, plain], uniform_pair(2)),
        qkan.lcu([plain, exact, other], uniform_pair(3)),
        sum_over_inputs(qkan.dilate(plain, 1), 2),
        compile_system_blocks(plain),
    ]
    return kept, dropped


def test_exact_real_diagonal_certificate_is_kept_only_when_every_part_has_it():
    kept, dropped = _certificate_cases()
    assert [be.exact_real_diagonal for be in kept] == [True] * len(kept)
    assert [be.exact_real_diagonal for be in dropped] == [False] * len(dropped)
    for be in kept:
        block = qkan.extract_block(be)
        assert be.epsilon == 0 and be.diagonal_flag
        assert np.max(np.abs(block.imag)) == 0
        assert np.max(np.abs(block - np.diag(np.diag(block)))) <= 1e-12


def test_exact_real_diagonal_certificate_needs_epsilon_0_and_the_diagonal_flag():
    from dataclasses import replace

    exact = qkan.encode_diagonal_exact(np.array([0.3, -0.7]))
    with pytest.raises(ContractViolationError, match="certificate"):
        replace(exact, epsilon=1e-9)
    with pytest.raises(ContractViolationError, match="certificate"):
        replace(exact, diagonal_flag=False)


def test_pairs_are_marked_real_when_built():
    from qkan.block_encoding import pair_for_weights, uniform_pair

    assert all(uniform_pair(m).real for m in range(1, 9))
    assert pair_for_weights(np.array([0.3, -0.6, 0.1])).real
    assert not pair_for_weights(np.array([0.3, 0.6j])).real


def _contract_cases():
    """pytest.param(call, message): each call breaks one combinator contract."""
    be = qkan.encode_diagonal_exact(np.array([0.3, -0.7]))
    wide = qkan.encode_diagonal_exact(np.full(4, 0.5), name="y")
    halved = BlockEncoding(be.op, 0.5, 0.0, be.aux, be.system)
    h_gate = primitive_encoding(ops.hadamard_layer(1), (), (("sys", 1),), "h")
    pair = qkan.uniform_pair(2)
    return [
        pytest.param(lambda: qkan.lcu([], pair), "at least one encoding", id="lcu-no-terms"),
        pytest.param(lambda: qkan.lcu([be, wide], pair), "share the system", id="lcu-systems"),
        pytest.param(lambda: qkan.lcu([be, halved], pair), "share the subnormalization",
                     id="lcu-alphas"),
        pytest.param(lambda: qkan.lcu([be, be, be], pair), "3 terms exceed the 2 selector",
                     id="lcu-selector"),
        pytest.param(lambda: qkan.dilate(h_gate, 1), "requires a diagonal-flagged",
                     id="dilate-flag"),
        pytest.param(lambda: qkan.dilate(be, 1, trailing=2), "cannot dilate by 1 qubits",
                     id="dilate-trailing"),
        pytest.param(lambda: qkan.hadamard_product(be, wide), "system size mismatch",
                     id="hadamard-systems"),
    ]


@pytest.mark.parametrize("call, message", _contract_cases())
def test_combinator_contract_errors(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()
