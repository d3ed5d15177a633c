import numpy as np
import pytest

import oracles
import qkan
from qkan import operators as ops
from qkan.block_encoding import BlockEncoding, pad_aux, primitive_encoding
from qkan.errors import ContractViolationError
from qkan.registers import RegisterLayout


def random_exact_encoding(rng, n=2, aux=1, name=None):
    """A random unitary viewed as an exact (1, aux, 0)-encoding of its block."""
    op = ops.Dense(ops.random_unitary(aux + n, rng))
    layout = RegisterLayout((("a", aux), ("sys", n)))
    name = name or f"u{rng.integers(1 << 30)}"
    be = primitive_encoding(op, aux, layout, name)
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
    """Record the column count of each application of `be.op` (on this instance only)."""
    applied = []
    inner = be.op._apply

    def counted(cols):
        applied.append(cols.shape[1])
        return inner(cols)

    object.__setattr__(be.op, "_apply", counted)
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
    be = primitive_encoding(h_gate, 0, RegisterLayout((("sys", 1),)), "h")
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
    assert be.layout.registers == (("enc", 1), ("sys", 1), ("sample", 1))
    dil = qkan.dilate(be, 1, trailing=1)
    assert dil.layout.registers == (("enc", 1), ("sys", 1), ("dil", 1), ("sample", 1))
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
    import qkan.operators as ops_mod

    be = qkan.encode_diagonal_exact(np.full(4, 0.5))
    with pytest.raises(qkan.ResourceLimitError):
        qkan.extract_block(be, cap_qubits=1)
    assert qkan.extract_block(be, cap_qubits=ops_mod.DENSE_CAP_QUBITS).shape == (4, 4)


def test_aux_field_matches_layout():
    x = np.array([0.3, -0.7])
    be = qkan.encode_diagonal_exact(x)
    for derived, idle in (
        (qkan.dilate(be, 1), 0),
        (qkan.chebyshev_be(be, 2), 1),  # the QSVT ancilla
        (qkan.product(be, qkan.encode_diagonal_exact(x, name="y")), 0),
        (qkan.lcu([be, be], qkan.uniform_pair(2)), 0),
    ):
        assert derived.num_aux + derived.num_system == derived.layout.n_qubits
        assert derived.idle_aux == idle
        assert derived.op.n == derived.layout.n_qubits - idle


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
    assert cheb.layout.names == ("qsvt", "enc", "sys") and cheb.idle_registers == {"qsvt"}
    assert (cheb.num_aux, cheb.idle_aux, cheb.live_aux, cheb.op.n) == (2, 1, 1, 2)
    assert cheb.live_qubits == (1, 2)
    # the identity on the idle qubit tensored with op: the full-space unitary
    # reads the same block at |0>_qsvt
    full = np.kron(np.eye(2), cheb.op.dense())
    assert np.allclose(np.diag(full)[:2], oracles.chebyshev_values(x, 3)[3], atol=1e-12)
    live = tuple((name, size, False) for name, size, _ in cheb.aux)
    with pytest.raises(ContractViolationError):
        BlockEncoding(cheb.op, 1.0, 0.0, live, cheb.system)  # op misses a layout qubit


def test_primitive_ancillas_must_end_on_a_register_boundary():
    layout = RegisterLayout((("a", 2), ("sys", 1)))
    op = ops.Identity(3)
    assert primitive_encoding(op, 2, layout, "u").aux == (("a", 2, False),)
    for num_aux in (1, 4):
        with pytest.raises(ContractViolationError, match="register boundaries"):
            primitive_encoding(op, num_aux, layout, "u")


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
    assert combo.idle_aux == 0 and combo.op.n == combo.layout.n_qubits == 4
    want = (oracles.chebyshev_values(x, 2)[2] + x) / 2
    assert np.max(np.abs(qkan.extract_diagonal(combo) - want)) <= 1e-12
    linear = qkan.chebyshev_be(qkan.encode_diagonal_exact(x), 1)
    same = qkan.lcu([cheb, linear], qkan.uniform_pair(2))  # idle QSVT ancillas line up
    assert same.idle_aux == 1 and same.op.n == same.layout.n_qubits - 1
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
    plain = primitive_encoding(ops.LabelReflection(x), 1, exact.layout, "x", diagonal=True)
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
