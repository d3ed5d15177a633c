import re
from dataclasses import dataclass

import numpy as np
import pytest

import qkan
from qkan import chebyshev
from qkan import operators as ops
from qkan.block_encoding import BlockEncoding, compile_system_blocks, primitive_encoding
from qkan.chebyshev import _qsvt_shell, _require_hermitian_block
from qkan.errors import ContractViolationError, DomainError


@dataclass(frozen=True)
class PhaseSequence:
    """QSP phases in radians; the polynomial degree equals the phase count."""

    phases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))

    @property
    def degree(self) -> int:
        return len(self.phases)

    @classmethod
    def chebyshev(cls, d: int) -> "PhaseSequence":
        """Preset realizing T_d: phi_1 = (1-d) pi/2, phi_i = pi/2 for i >= 2."""
        if d < 1:
            raise DomainError("Chebyshev preset needs degree >= 1")
        return cls(((1 - d) * np.pi / 2,) + (np.pi / 2,) * (d - 1))


def phase_on_zero(phi: float, n: int) -> ops.LinearOperator:
    """exp(i phi (2|0><0| - I)): phase e^{i phi} on |0..0>, e^{-i phi} elsewhere."""
    values = np.full(1 << n, np.exp(-1j * phi), dtype=np.complex128)
    values[0] = np.exp(1j * phi)
    return ops.Diagonal(values)


def apply_phase_sequence(be: BlockEncoding, seq: PhaseSequence) -> BlockEncoding:
    """Polynomial transform from explicit QSP phases, in the product form
    prod_j e^{i phi_j (2|0><0|-I)} V_j with V_j alternating between the
    encoding and its adjoint: the cross-check of the reflection form of
    :func:`qkan.chebyshev_be`. Its phase factors are complex, so a real
    column is promoted to complex128 inside the tree."""
    d = seq.degree
    if d == 0:
        raise DomainError("empty phase sequence")
    _require_hermitian_block(be)
    u = be.op
    aux_axes = tuple(range(be.num_aux))
    factors: list[ops.LinearOperator] = []
    for j, phi in enumerate(seq.phases, start=1):
        factors.append(ops.Embedded(phase_on_zero(phi, be.num_aux), aux_axes, u.n))
        factors.append(u if (d - j) % 2 == 0 else u.adjoint())
    return _qsvt_shell(be, factors, 4.0 * d * np.sqrt(be.epsilon))


def test_phase_on_zero():
    op = phase_on_zero(np.pi / 2, 1)
    assert np.allclose(op.dense(), np.diag([1j, -1j]))


def test_reflection_signs():
    refl = ops.reflection_about_zero(2)
    dense = refl.dense()
    assert dense[0, 0] == 1.0
    assert np.allclose(np.diag(dense)[1:], -1.0)
    assert np.allclose((refl @ refl).dense(), np.eye(4))


def test_chebyshev_r0_and_r1():
    x = np.array([0.8, -0.3])
    be = qkan.encode_diagonal_exact(x, name="x")
    r0 = qkan.chebyshev_be(be, 0)
    assert np.allclose(qkan.extract_diagonal(r0), 1.0)
    assert r0.cost == {}
    r1 = qkan.chebyshev_be(be, 1)
    assert np.max(np.abs(qkan.extract_diagonal(r1) - x)) < 1e-12
    assert r1.cost == {"x": 1}


def test_chebyshev_r3_handvalue():
    be = qkan.encode_diagonal_exact(np.array([0.8]))
    got = qkan.extract_diagonal(qkan.chebyshev_be(be, 3))[0]
    assert got == pytest.approx(4 * 0.8**3 - 3 * 0.8, abs=1e-12)  # -0.352


def test_chebyshev_grid_17_points():
    grid = np.linspace(-1.0, 1.0, 17)
    for value in grid:
        be = qkan.encode_diagonal_exact(np.array([value]))
        for r in range(8):
            got = qkan.extract_diagonal(qkan.chebyshev_be(be, r))[0]
            assert abs(got - np.cos(r * np.arccos(value))) <= 1e-10


def test_chebyshev_vector_inputs(rng):
    x = rng.uniform(-1, 1, 8)
    be = qkan.encode_diagonal_exact(x)
    for r in (2, 5, 7):
        got = qkan.extract_diagonal(qkan.chebyshev_be(be, r))
        assert np.max(np.abs(got - np.cos(r * np.arccos(x)))) <= 1e-10


def test_chebyshev_entries_stay_bounded(rng):
    x = rng.uniform(-1, 1, 4)
    be = qkan.encode_diagonal_exact(x)
    for r in range(8):
        got = qkan.extract_diagonal(qkan.chebyshev_be(be, r)).real
        assert np.all(np.abs(got) <= 1.0 + 1e-10)


def test_chebyshev_query_count():
    be = qkan.encode_diagonal_exact(np.array([0.5, 0.5]), name="x")
    for r in range(8):
        assert qkan.chebyshev_be(be, r).cost.get("x", 0) == r


def test_chebyshev_aux_count():
    be = qkan.encode_diagonal_exact(np.array([0.5, 0.5]))
    assert qkan.chebyshev_be(be, 3).num_aux == be.num_aux + 1


def test_chebyshev_negative_degree():
    be = qkan.encode_diagonal_exact(np.array([0.5]))
    with pytest.raises(DomainError):
        qkan.chebyshev_be(be, -1)


def test_chebyshev_rejects_complex_diagonal(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi))
    with pytest.raises(ContractViolationError):
        qkan.chebyshev_be(be, 2)


def test_chebyshev_works_on_stateprep_route(rng):
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi))
    for r in (2, 3):
        got = qkan.extract_diagonal(qkan.chebyshev_be(be, r))
        assert np.max(np.abs(got - np.cos(r * np.arccos(psi)))) < 1e-10


def test_chebyshev_error_propagation(rng):
    x = rng.uniform(-1, 1, 4)
    be = qkan.encode_diagonal_exact(x)
    for eps in (1e-8, 1e-6, 1e-4):
        shaken = qkan.perturb(be, eps, seed=3)
        for r in (1, 3, 6):
            result = qkan.chebyshev_be(shaken, r)
            target = np.diag(np.cos(r * np.arccos(x)))
            assert qkan.verify(result, target) <= 4 * r * np.sqrt(eps)
            assert result.epsilon == pytest.approx(4 * r * np.sqrt(eps))


def test_phase_sequence_preset():
    seq = PhaseSequence.chebyshev(4)
    assert seq.degree == 4
    assert seq.phases[0] == pytest.approx(-3 * np.pi / 2)
    assert all(p == pytest.approx(np.pi / 2) for p in seq.phases[1:])
    with pytest.raises(DomainError):
        PhaseSequence.chebyshev(0)


def test_phase_sequence_matches_reflection_form(rng):
    x = rng.uniform(-1, 1, 4)
    be = qkan.encode_diagonal_exact(x)
    for d in (1, 2, 3, 5):
        via_phases = qkan.extract_block(apply_phase_sequence(be, PhaseSequence.chebyshev(d)))
        via_reflections = qkan.extract_block(qkan.chebyshev_be(be, d))
        assert np.max(np.abs(via_phases - via_reflections)) <= 1e-10


def test_phase_sequence_zero_phases_degree_one(rng):
    x = rng.uniform(-1, 1, 2)
    be = qkan.encode_diagonal_exact(x)
    block = qkan.extract_block(apply_phase_sequence(be, PhaseSequence((0.0,))))
    assert np.max(np.abs(block - np.diag(x))) < 1e-12


def test_phase_sequence_empty_rejected():
    be = qkan.encode_diagonal_exact(np.array([0.5]))
    with pytest.raises(DomainError):
        apply_phase_sequence(be, PhaseSequence(()))


def test_extracted_chebyshev_block_is_real(rng):
    x = rng.uniform(-1, 1, 2)
    be = qkan.encode_diagonal_exact(x)
    for r in (2, 3):
        block = qkan.extract_block(qkan.chebyshev_be(be, r))
        assert np.max(np.abs(block.imag)) < 1e-12


def _counting_extract_block(monkeypatch):
    from qkan import chebyshev

    calls = []
    real = chebyshev.extract_block

    def counted(be):
        calls.append(be)
        return real(be)

    monkeypatch.setattr(chebyshev, "extract_block", counted)
    return calls


def test_hermiticity_guard_runs_once_per_encoding(monkeypatch):
    from qkan.chebyshev import HERMITICITY_SLACK

    x = np.random.default_rng(5).uniform(-1, 1, 8)
    shaken = qkan.dilate(qkan.perturb(qkan.encode_diagonal_exact(x), 1e-4, seed=1), 3)
    block = qkan.extract_block(shaken)
    gap = block - block.conj().T
    limit = 2 * shaken.epsilon + HERMITICITY_SLACK
    # accepted by the spectral norm only: the Frobenius bound alone does not pass
    assert np.linalg.norm(gap, 2) <= limit < np.linalg.norm(gap)
    calls = _counting_extract_block(monkeypatch)
    for r in (1, 2, 3):
        qkan.chebyshev_be(shaken, r)
    apply_phase_sequence(shaken, PhaseSequence.chebyshev(3))
    assert calls == [shaken]
    assert shaken.check_results["hermiticity_defect"] == pytest.approx(np.linalg.norm(gap, 2))


def test_hermiticity_guard_rejects_with_the_spectral_defect(rng, monkeypatch):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi))
    block = qkan.extract_block(be)
    spectral = np.linalg.norm(block - block.conj().T, 2)
    calls = _counting_extract_block(monkeypatch)
    for r in (1, 2):
        with pytest.raises(ContractViolationError, match=re.escape(f"defect {spectral:.3e},")):
            qkan.chebyshev_be(be, r)
    assert len(calls) == 1


def _dilation(block):
    """Unitary [[A, (I - A A^dag)^1/2], [(I - A^dag A)^1/2, -A^dag]] encoding a
    contraction A with one ancilla."""

    def root(gram):
        vals, vecs = np.linalg.eigh(np.eye(len(gram)) - gram)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    adj = block.conj().T
    return np.block([[block, root(block @ adj)], [root(adj @ block), -adj]])


def _encoding_of(block, epsilon=0.0):
    from qkan.block_encoding import primitive_encoding

    n = int(len(block)).bit_length() - 1
    aux, system = (("a", 1),), (("sys", n),)
    return primitive_encoding(ops.Dense(_dilation(block)), aux, system, "a", epsilon=epsilon)


def _hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    return h / np.linalg.norm(h, 2)


@pytest.mark.parametrize("qubits", [5, 7])
def test_probe_and_dense_guard_decisions_agree(qubits, rng, monkeypatch):
    from qkan.chebyshev import HERMITICITY_SLACK, _require_hermitian_block

    def passes(be):
        try:
            _require_hermitian_block(be)
        except ContractViolationError:
            return False
        return True

    dim = 1 << qubits
    calls = _counting_extract_block(monkeypatch)
    for _ in range(3):  # Hermitian blocks pass on the probe alone
        be = _encoding_of(0.9 * _hermitian(rng, dim))
        assert passes(be)
        assert be.check_results["hermiticity_defect"] <= 0.1 * HERMITICITY_SLACK
    assert calls == []
    for ratio in (0.9, 0.99, 1.01, 1.1):  # limit / ||B - B^dag||_2 near 1
        block = 0.5 * _hermitian(rng, dim) + 0.4j * _hermitian(rng, dim)
        spectral = np.linalg.norm(block - block.conj().T, 2)
        be = _encoding_of(block, epsilon=(ratio * spectral - HERMITICITY_SLACK) / 2)
        assert passes(be) == (spectral <= 2 * be.epsilon + HERMITICITY_SLACK)
        assert be.check_results["hermiticity_defect"] == pytest.approx(spectral)
    assert len(calls) == 4  # every probe failed over to the dense test


def test_non_hermitian_block_above_the_dense_cap_is_rejected(rng):
    from qkan.block_encoding import primitive_encoding

    n = ops.DENSE_CAP_QUBITS + 1
    phases = ops.Diagonal(np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << n)))
    aux, system = (("a", 1),), (("sys", n),)
    op = ops.Embedded(phases, tuple(range(1, n + 1)), n + 1)
    be = primitive_encoding(op, aux, system, "z", diagonal=True)
    with pytest.raises(ContractViolationError, match="probe estimate"):
        qkan.chebyshev_be(be, 1)


# the dense test; a failing probe within the cap, then the dense test; above
# the cap, the probe alone
@pytest.mark.parametrize("size", [2, 32, 2 << ops.DENSE_CAP_QUBITS])
def test_hermiticity_guard_rejects_nan(size):
    # the encoders reject NaN themselves, so the NaN enters through a bare
    # diagonal primitive laid out like encode_diagonal_exact's
    values = np.ones(2 * size)
    values[1] = np.nan
    aux, system = (("enc", 1),), (("sys", size.bit_length() - 1),)
    be = primitive_encoding(ops.Diagonal(values), aux, system, "x", diagonal=True)
    wide = be.num_system > ops.DENSE_CAP_QUBITS
    message = "probe estimate" if wide else r"not Hermitian \(defect"
    with pytest.raises(ContractViolationError, match=message):
        qkan.chebyshev_be(be, 2)


def _recording_probe(monkeypatch):
    """Record (system states, estimate) of every probe test."""
    from qkan import chebyshev

    probe, probes = chebyshev._probe_hermiticity_defect, []

    def recording(be):
        probes.append((be.system_dim, probe(be)))
        return probes[-1][1]

    monkeypatch.setattr(chebyshev, "_probe_hermiticity_defect", recording)
    return probes


def _uncertified_exact_input(x, name="x"):
    """The operator of encode_diagonal_exact(x) as a plain primitive: real,
    Hermitian and diagonal, but without the exact real diagonal certificate."""
    aux, system = (("enc", 1),), (("sys", x.size.bit_length() - 1),)
    return primitive_encoding(ops.LabelBlocks.reflection(x), aux, system, name, diagonal=True)


def test_layer_guard_probes_the_undilated_input_once(monkeypatch):
    # N = 64, K = 4: the input B has 64 system states, B (x) I_4 has 256
    probes = _recording_probe(monkeypatch)
    x = np.random.default_rng(4).uniform(-1, 1, 64)
    spec = qkan.LayerSpec.random(64, 4, 3, seed=4)
    be = qkan.build_layer(_uncertified_exact_input(x), spec)
    assert [size for size, _ in probes] == [64]
    got = qkan.extract_diagonal(be).real
    assert np.max(np.abs(got - qkan.classical_layer_eval(x, spec))) <= 1e-9


def _unit_phase_input(n_in, seed):
    """Diagonal-flagged primitive whose block diag(e^{i theta}) is far from
    Hermitian: ||B - B^dag||_2 = max 2 |sin theta| > 0.9."""
    theta = np.random.default_rng(seed).uniform(0.5, 1.5, n_in)
    values = np.concatenate([np.exp(1j * theta), np.exp(-1j * theta)])
    aux, system = (("enc", 1),), (("sys", n_in.bit_length() - 1),)
    return primitive_encoding(ops.Diagonal(values), aux, system, "x", diagonal=True)


# N = 4 takes the dense test, N = 64 the probe (then its dense fallback)
@pytest.mark.parametrize("n_in", [4, 64])
@pytest.mark.parametrize("n_out", [2, 4])
@pytest.mark.parametrize("degree", [1, 3])
def test_layer_rejects_a_non_hermitian_diagonal_input(n_in, n_out, degree):
    be = _unit_phase_input(n_in, seed=n_in + n_out)
    spec = qkan.LayerSpec.random(n_in, n_out, degree, seed=1)
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        qkan.build_layer(be, spec)
    # degree 0 applies no transform, so nothing is checked
    constant = qkan.build_layer(be, qkan.LayerSpec.random(n_in, n_out, 0, seed=1))
    assert constant.num_system == n_out.bit_length() - 1


def _non_hermitian_dense_input(n_in, seed):
    """Diagonal-flagged dense primitive whose block is far from Hermitian."""
    rng = np.random.default_rng(seed)
    block = 0.5 * _hermitian(rng, n_in) + 0.4j * _hermitian(rng, n_in)
    aux, system = (("a", 1),), (("sys", n_in.bit_length() - 1),)
    return primitive_encoding(ops.Dense(_dilation(block)), aux, system, "x", diagonal=True)


@pytest.mark.parametrize("n_in", [4, 64])
@pytest.mark.parametrize("n_out", [2, 4])
@pytest.mark.parametrize("kind", ["dense", "perturbed"])
def test_layer_rejects_a_non_hermitian_dense_or_perturbed_input(kind, n_in, n_out):
    if kind == "dense":
        be = _non_hermitian_dense_input(n_in, seed=n_in + n_out)
    else:
        be = qkan.perturb(_unit_phase_input(n_in, seed=n_in + n_out), 1e-3, seed=2)
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        qkan.build_layer(be, qkan.LayerSpec.random(n_in, n_out, 2, seed=1))


def test_layer_rejects_a_non_diagonal_input_at_dilate(rng):
    be = _encoding_of(0.9 * _hermitian(rng, 4))  # Hermitian, but not flagged diagonal
    with pytest.raises(ContractViolationError, match="chebyshev_be requires a diagonal-flagged"):
        qkan.build_layer(be, qkan.LayerSpec.random(4, 2, 2, seed=1))


def test_probe_estimate_of_a_later_layer_above_the_dense_cap(rng, monkeypatch):
    """The second layer's input is the first layer's output on 2^9 samples:
    n + m = 10 system qubits, and its dilation, which CHEB transforms, spans
    n + k + m = 11, above the dense cap. The guard probes the input before
    DILATE; its U and U^dag trees differ, so rounding reaches the estimate,
    which must stay far below the threshold: the dense fallback never runs.
    From an uncertified input both guards probe. From the certified input
    neither does, and the probe of the certified layer-1 output, taken
    directly, meets the same rounding gate."""
    from qkan import chebyshev
    from qkan.block_encoding import split_system

    probes = _recording_probe(monkeypatch)
    calls = _counting_extract_block(monkeypatch)
    m = 9
    spec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 2, seed=1), qkan.LayerSpec.random(2, 2, 2, seed=2))
    )
    xs = rng.uniform(-1, 1, (1 << m, 2))
    gate = 1e-3 * 0.1 * chebyshev.HERMITICITY_SLACK
    want = np.array([qkan.classical_network_eval(x, spec) for x in xs])
    for source in (_uncertified_exact_input, qkan.encode_diagonal_exact):
        probes.clear()
        be = split_system(source(xs.T.reshape(-1), name="x"), m)
        first = qkan.build_layer(be, spec.layers[0])
        assert first.num_system == 1 + m
        assert first.exact_real_diagonal == (source is qkan.encode_diagonal_exact)
        be = qkan.build_layer(first, spec.layers[1], layer_index=1)
        assert be.num_aux + be.num_system == 21 and calls == []
        if first.exact_real_diagonal:
            assert probes == []
            assert chebyshev._probe_hermiticity_defect(first) <= gate
        else:
            assert [size for size, _ in probes] == [1 << (1 + m)] * 2
            assert probes[1][1] <= gate
        got = qkan.extract_diagonal(be).real.reshape(-1, 1 << m).T
        assert np.max(np.abs(got - want)) <= 1e-9


def _counting_guard_tests(monkeypatch):
    """Record the name of every probe and dense Hermiticity test."""
    from qkan import chebyshev

    calls = []
    for name in ("_probe_hermiticity_defect", "_dense_hermiticity_defect"):
        def counted(*args, _real=getattr(chebyshev, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(chebyshev, name, counted)
    return calls


def test_exact_builds_apply_nothing_for_the_guard(monkeypatch):
    from qkan import chebyshev

    calls = _counting_guard_tests(monkeypatch)
    rng = np.random.default_rng(17)
    # the wide-layer benchmark's shape: N = 256, K = 4, d = 3
    x = rng.uniform(-1, 1, 256)
    spec = qkan.LayerSpec(rng.uniform(-1, 1, (4, 256, 4)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(x, name="x"), spec)
    assert be.exact_real_diagonal
    # the deep-cli benchmark's network: 2 -> 2 -> 2 -> 1, d = 3
    dims = (2, 2, 2, 1)
    deep = qkan.QkanSpec(tuple(
        qkan.LayerSpec(rng.uniform(-1, 1, (4, n_in, n_out))) for n_in, n_out in zip(dims, dims[1:])
    ))
    built = qkan.build_network(qkan.encode_diagonal_exact(x[:2], name="x"), deep)
    assert all(out.exact_real_diagonal for out in built.layer_outputs)
    assert calls == []
    assert (chebyshev.HERMITICITY_PROBES, chebyshev.HERMITICITY_SLACK) == (8, 1e-9)
    got = qkan.extract_diagonal(built.output).real
    assert np.max(np.abs(got - qkan.classical_network_eval(x[:2], deep))) <= 1e-9


def test_a_complex_entry_is_rejected_not_cast_into_a_certificate():
    with pytest.raises(DomainError, match="real"):
        qkan.encode_diagonal_exact(np.array([0.5 + 0.1j, 0.2]))
    assert qkan.encode_diagonal_exact(np.array([0.5 + 0j, 0.2])).exact_real_diagonal


# diagonal-flagged, but uncertified: the guard tests each and rejects it
@pytest.mark.parametrize("n_in", [4, 64])
@pytest.mark.parametrize("kind", ["complex diagonal", "dense", "perturbed"])
def test_uncertified_non_hermitian_inputs_are_still_rejected(kind, n_in, monkeypatch):
    if kind == "complex diagonal":
        be = _unit_phase_input(n_in, seed=n_in)
    elif kind == "dense":
        be = _non_hermitian_dense_input(n_in, seed=n_in)
    else:
        be = qkan.perturb(_unit_phase_input(n_in, seed=n_in), 1e-3, seed=2)
    assert be.diagonal_flag and not be.exact_real_diagonal
    calls = _counting_guard_tests(monkeypatch)
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        qkan.chebyshev_be(be, 2)
    assert calls


def test_a_perturbed_exact_input_takes_the_guard(monkeypatch):
    x = np.random.default_rng(3).uniform(-1, 1, 64)
    be = qkan.perturb(qkan.encode_diagonal_exact(x), 1e-6, seed=1)
    assert not be.exact_real_diagonal
    probes = _recording_probe(monkeypatch)
    qkan.chebyshev_be(be, 2)
    assert [size for size, _ in probes] == [64]


def test_stateprep_real_weights_and_custom_weight_encodings_take_the_probe(monkeypatch):
    probes = _recording_probe(monkeypatch)
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, 32)
    w *= 0.5 / np.linalg.norm(w)
    for be in (
        qkan.encode_from_stateprep(ops.state_prep_unitary(w / np.linalg.norm(w))),
        qkan.encode_real_weights(qkan.stateprep_for_real_vector(w)),
    ):
        assert not be.exact_real_diagonal
        qkan.chebyshev_be(be, 2)
    assert [size for size, _ in probes] == [32, 32]
    # weights from a custom encoder leave layer 1's output (32 states) uncertified,
    # so layer 2 probes it; the certified network input is not probed
    probes.clear()
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 32, 2, seed=1), qkan.LayerSpec.random(32, 1, 2, seed=2)))
    x = rng.uniform(-1, 1, 2)
    built = qkan.build_network(
        qkan.encode_diagonal_exact(x), spec, weight_encoder=_uncertified_exact_input
    )
    assert not built.layer_outputs[0].exact_real_diagonal
    assert [size for size, _ in probes] == [32]
    got = qkan.extract_diagonal(built.output).real
    assert np.max(np.abs(got - qkan.classical_network_eval(x, spec))) <= 1e-9


def _tree_input():
    """A perturbed exact input: its operator is a dense Query, not a
    LabelBlocks leaf, so its transforms keep the reflection-form tree."""
    x = np.random.default_rng(5).uniform(-1, 1, 4)
    return qkan.perturb(qkan.encode_diagonal_exact(x, name="x"), 1e-6, seed=3)


def test_every_transform_of_an_encoding_shares_its_cached_adjoint():
    be = _tree_input()
    assert be.adjoint_op is be.adjoint_op
    for r in (2, 3, 4):
        factors = qkan.chebyshev_be(be, r).op.factors
        adjoints = [f for f in factors if f is not be.op and isinstance(f, ops.Query)]
        assert len(adjoints) == r // 2
        assert all(f is be.adjoint_op for f in adjoints)


def test_every_transform_of_an_encoding_shares_one_zero_reflection():
    be = _tree_input()
    z = be.zero_reflection
    assert isinstance(z, ops.Embedded) and z.axes == (0,)
    assert np.array_equal(z.dense(), np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]))
    for r in (1, 2, 3, 4):
        factors = qkan.chebyshev_be(be, r).op.factors
        reflections = [f for f in factors if isinstance(f, ops.Embedded)]
        assert len(reflections) == 2 * (r // 2) + r % 2
        assert all(f is z for f in reflections)


def test_an_uncertified_input_builds_its_adjoint_once(monkeypatch):
    """Above 16 system states the guard probes with U^dag; the probe and the
    adjoint factors of every degree share one U^dag, in a layer build and in
    direct chebyshev_be calls alike."""
    x = np.random.default_rng(6).uniform(-1, 1, 64)
    spec = qkan.LayerSpec.random(64, 4, 3, seed=6)
    inputs, calls = [], []
    real = ops.Query.adjoint

    def counting_adjoint(op):
        calls.extend(i for i, be in enumerate(inputs) if be.op is op)
        return real(op)

    monkeypatch.setattr(ops.Query, "adjoint", counting_adjoint)
    probes = _recording_probe(monkeypatch)
    inputs.append(_uncertified_exact_input(x))
    built = qkan.build_layer(inputs[0], spec)
    inputs.append(_uncertified_exact_input(x))
    for r in (1, 2, 3):
        qkan.chebyshev_be(inputs[1], r)
    assert calls == [0, 1]
    assert [size for size, _ in probes] == [64, 64]
    got = qkan.extract_diagonal(built).real
    assert np.max(np.abs(got - qkan.classical_layer_eval(x, spec))) <= 1e-9


def _reflection_form(be, r):
    """Dense product of the reflection form's factor list of T_r on the live
    qubits of `be`: U Z (U^dag Z U Z)^((r-1)/2) for odd r, (U^dag Z U Z)^(r/2)
    for even r, with Z = 2|0><0| - I on the live ancillas."""
    u = be.op.dense()
    z = np.diag(np.where(np.arange(be.op.dim) < be.system_dim, 1.0, -1.0))
    factors = [u, z] if r % 2 else []
    factors += [u.conj().T, z, u, z] * (r // 2)
    out = np.eye(be.op.dim, dtype=np.complex128)
    for factor in factors:
        out = out @ factor
    return out


FOLD_INPUTS = [
    np.array([1.0, -1.0, 0.0, 0.5]),
    np.array([-1.0, 0.0]),
    np.random.default_rng(33).uniform(-1, 1, 8),
    np.random.default_rng(34).uniform(-1, 1, 2),
]


@pytest.mark.parametrize("x", FOLD_INPUTS)
@pytest.mark.parametrize("r", range(7))
def test_folded_transform_equals_the_dense_reflection_form(x, r):
    be = qkan.encode_diagonal_exact(x, name="x")
    t = qkan.chebyshev_be(be, r)
    assert t.cost == ({"x": r} if r else {})
    assert (t.num_aux, t.idle_aux, t.exact_real_diagonal) == (2, 1, True)
    assert np.max(np.abs(t.op.dense() - _reflection_form(be, r))) <= 1e-14
    assert np.array_equal(t.op.adjoint().dense(), t.op.dense().T)
    if r:
        assert isinstance(t.op, ops.Query) and isinstance(t.op.inner, ops.LabelBlocks)
        assert (t.op.leaves, ops.unfolded_leaves(t.op), t.op.inner.folded_leaves) == (1, 2 * r, 2 * r)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_folded_transform_of_a_folded_transform_folds_again(s):
    """T_s of an exact input is a rotation leaf in a Query: its transforms
    fold too, with U^dag the inverse rotation, and count r s queries."""
    x = np.random.default_rng(s).uniform(-1, 1, 4)
    inner = qkan.chebyshev_be(qkan.encode_diagonal_exact(x, name="x"), s)
    for r in range(1, 5):
        t = qkan.chebyshev_be(inner, r)
        assert t.cost == {"x": r * s}
        assert isinstance(t.op.inner, ops.LabelBlocks) and t.op.inner.folded_leaves == r * (2 * s + 1)
        assert np.max(np.abs(t.op.dense() - _reflection_form(inner, r))) <= 1e-14
        got = qkan.extract_diagonal(t).real
        want = np.cos(r * s * np.arccos(x))
        assert np.max(np.abs(got - want)) <= 1e-13


def test_the_chain_of_one_encoding_costs_one_product_per_degree_above_1(monkeypatch):
    products = []
    times = ops.LabelBlocks.times

    def counting(self, other):
        products.append(other)
        return times(self, other)

    monkeypatch.setattr(ops.LabelBlocks, "times", counting)
    be = qkan.encode_diagonal_exact(np.random.default_rng(4).uniform(-1, 1, 4))
    leaves = [qkan.chebyshev_be(be, r).op.inner for r in (3, 1, 6, 2)]
    assert len(products) == 5
    assert [leaf is be.fold_chain[r - 1] for leaf, r in zip(leaves, (3, 1, 6, 2))] == [True] * 4
    # a derived encoding starts without the chain
    assert qkan.dilate(be, 1).__dict__.get("fold_chain") is None


def _compiled_layer_input():
    x = np.array([0.3, -0.5])
    layer = qkan.build_layer(qkan.encode_diagonal_exact(x), qkan.LayerSpec.random(2, 2, 1, seed=3))
    return compile_system_blocks(layer)


@pytest.mark.parametrize("kind", ["perturbed", "stateprep", "compiled", "tree"])
def test_every_other_input_keeps_the_reflection_form_tree(kind):
    rng = np.random.default_rng(9)
    if kind == "perturbed":
        be = _tree_input()
    elif kind == "stateprep":
        psi = rng.normal(size=4)
        be = qkan.encode_from_stateprep(ops.state_prep_unitary(psi / np.linalg.norm(psi)))
    elif kind == "compiled":
        be = _compiled_layer_input()
    else:
        be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.5])),
                              qkan.LayerSpec.random(2, 2, 1, seed=3))
    for r in (1, 2, 3):
        t = qkan.chebyshev_be(be, r)
        if kind == "compiled":  # a compiled layer output folds, as an exact input does
            assert t.op.inner is be.fold_chain[r - 1] and isinstance(t.op.inner, ops.SystemBlocks)
            assert (t.op.leaves, ops.unfolded_leaves(t.op), t.cost) == (1, 2 * r, {
                name: r * count for name, count in be.cost.items()})
            assert "adjoint_op" not in be.__dict__
            assert np.max(np.abs(t.op.dense() - _reflection_form(be, r))) <= 1e-12
            continue
        # U^dag is built only when a degree applies it
        assert ("adjoint_op" in be.__dict__) == (r >= 2)
        want = [be.op, be.zero_reflection] if r % 2 else []
        want += [be.adjoint_op, be.zero_reflection, be.op, be.zero_reflection] * (r // 2)
        assert t.op.factors == ops.compose(*want).factors  # a tree input is flattened
        # no new fold: only the r applications of the input's own folded leaves
        folded = ops.unfolded_leaves(be.op) - be.op.leaves
        assert ops.unfolded_leaves(t.op) - t.op.leaves == r * folded
        if be.op.n <= ops.DENSE_CAP_QUBITS:
            assert np.max(np.abs(t.op.dense() - _reflection_form(be, r))) <= 1e-12


def _compiled_blocks_input(a, s, complex_blocks, seed=0):
    """A compiled (deferred SystemBlocks) encoding of 2^s random unitary
    blocks of 2^a x 2^a, each with a real top-left entry, so that the
    encoded diagonal is Hermitian."""
    rng = np.random.default_rng([a, s, complex_blocks, seed])
    blocks = []
    for _ in range(1 << s):
        g = rng.normal(size=(1 << a, 1 << a))
        if complex_blocks:
            g = g + 1j * rng.normal(size=g.shape)
        q, _ = np.linalg.qr(g)
        q[0] *= np.conj(q[0, 0]) / abs(q[0, 0])  # a phase on row 0 keeps it unitary
        blocks.append(q)
    leaf = ops.SystemBlocks(np.stack(blocks))
    system = (("sys", s),) if s else ()
    return compile_system_blocks(primitive_encoding(leaf, (("anc", a),), system, "u", diagonal=True))


@pytest.mark.parametrize("complex_blocks", [False, True])
@pytest.mark.parametrize("a, s", [(1, 0), (1, 2), (2, 1), (3, 0), (3, 2), (4, 1), (4, 2)])
def test_folded_transform_of_a_compiled_encoding_equals_the_dense_reflection_form(a, s, complex_blocks):
    be = _compiled_blocks_input(a, s, complex_blocks)
    for r in range(7):
        t = qkan.chebyshev_be(be, r)
        assert t.cost == ({"u": r} if r else {})
        assert np.max(np.abs(t.op.dense() - _reflection_form(be, r))) <= 1e-14
        assert np.max(np.abs(t.op.adjoint().dense() - t.op.dense().conj().T)) <= 1e-14
        if r:
            leaf = t.op.inner
            assert isinstance(leaf, ops.SystemBlocks) and (leaf.a, leaf.s) == (a, s)
            assert (t.op.leaves, ops.unfolded_leaves(t.op), leaf.folded_leaves) == (1, 2 * r, 2 * r)
            # the adjoint shares the leaf's arrays
            assert t.op.adjoint().inner.blocks is leaf.adjoint_blocks
            assert t.op.adjoint().inner.adjoint_blocks is leaf.blocks
    assert "adjoint_op" not in be.__dict__


def test_the_fold_of_a_compiled_layer_keeps_cost_and_reads_the_same_diagonal():
    """T_r of a compiled layer output: r times the layer's counts, the
    described leaf, and the diagonal of the reflection-form tree."""
    be = _compiled_layer_input()
    tree_input = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.5])),
                                  qkan.LayerSpec.random(2, 2, 1, seed=3))
    for r in (1, 2, 3):
        t = qkan.chebyshev_be(be, r)
        assert t.cost == {name: r * count for name, count in tree_input.cost.items()}
        want = qkan.extract_diagonal(qkan.chebyshev_be(tree_input, r))
        assert np.max(np.abs(qkan.extract_diagonal(t) - want)) <= 1e-14
        assert ops.describe_text(t.op).splitlines()[1] == (
            f"  SystemBlocks n=5 a=4 s=1 replaced_leaves=7 folded_leaves={2 * r} leaves=1"
        )


def test_the_chain_of_a_compiled_encoding_costs_one_product_per_degree_above_1(monkeypatch):
    products = []
    times = ops.SystemBlocks.times

    def counting(self, other):
        products.append(other)
        return times(self, other)

    monkeypatch.setattr(ops.SystemBlocks, "times", counting)
    be = _compiled_blocks_input(2, 1, True)
    leaves = [qkan.chebyshev_be(be, r).op.inner for r in (3, 1, 6, 2)]
    assert len(products) == 5
    assert [leaf is be.fold_chain[r - 1] for leaf, r in zip(leaves, (3, 1, 6, 2))] == [True] * 4


def test_the_chain_of_a_compiled_encoding_reflects_u_and_its_adjoint_once(monkeypatch):
    """Degrees 0-7 take A = U Z and B = U^dag Z, each built once per
    encoding, and give the leaves of a chain that builds B at every even
    step, bit for bit."""
    def reference_chain(be, r):  # M_(k+1) = B M_k for odd k, A M_k for even k
        u = be.op.inner
        chain = [u.reflected()]
        while len(chain) < r:
            chain.append((u.adjoint().reflected() if len(chain) % 2 else chain[0]).times(chain[-1]))
        return chain[r - 1]

    reflections = []
    reflected = ops.SystemBlocks.reflected

    def counting(self):
        reflections.append(self)
        return reflected(self)

    be = _compiled_blocks_input(2, 1, True)
    monkeypatch.setattr(ops.SystemBlocks, "reflected", counting)
    leaves = [qkan.chebyshev_be(be, r).op for r in range(8)]
    assert len(reflections) == 2
    monkeypatch.setattr(ops.SystemBlocks, "reflected", reflected)
    other = _compiled_blocks_input(2, 1, True)
    for r, leaf in enumerate(leaves[1:], start=1):
        want = reference_chain(other, r)
        assert leaf.inner.blocks.tobytes() == want.blocks.tobytes()
        assert leaf.inner.adjoint_blocks.tobytes() == want.adjoint_blocks.tobytes()
    assert isinstance(leaves[0], ops.Identity)


def test_folded_leaves_of_a_compiled_encoding_read_nothing_until_applied(monkeypatch):
    """The compiled leaf and every fold on it are deferred: the transforms
    and their counts apply nothing, and the first apply of the last degree
    reads the compiled leaf once and forms each product once."""
    reads = []
    get = ops._SharedBlocks.get

    def recording(shared):
        if shared.arrays is None:
            reads.append(shared)
        return get(shared)

    monkeypatch.setattr(ops._SharedBlocks, "get", recording)
    be = _compiled_layer_input()  # certified exact: its guard applies nothing either
    transforms = [qkan.chebyshev_be(be, r) for r in range(4)]
    assert [ops.unfolded_leaves(t.op) for t in transforms] == [1, 2, 4, 6]  # T_0 is the identity leaf
    assert [t.cost for t in transforms[1:]] == [
        {name: r * count for name, count in be.cost.items()} for r in (1, 2, 3)]
    assert reads == []
    transforms[3].op.apply(np.eye(transforms[3].op.dim)[:, 0])
    # M_3 = A B A: the compiled leaf, its adjoint's Z product B, A, M_2 and M_3
    assert len(reads) == 5
    transforms[2].op.adjoint().apply(np.eye(transforms[2].op.dim)[:, 0])
    assert len(reads) == 5


def test_a_compiled_encoding_above_the_fold_bound_keeps_the_tree(monkeypatch):
    be = _compiled_blocks_input(3, 1, True)
    monkeypatch.setattr(chebyshev, "FOLD_MAX_PRODUCT", (8 ** 3 << 1) - 1)
    for r in (1, 2, 3):
        t = qkan.chebyshev_be(be, r)
        want = [be.op, be.zero_reflection] if r % 2 else []
        want += [be.adjoint_op, be.zero_reflection, be.op, be.zero_reflection] * (r // 2)
        assert t.op.factors == ops.compose(*want).factors
        assert np.max(np.abs(t.op.dense() - _reflection_form(be, r))) <= 1e-14
    assert "fold_chain" not in be.__dict__
    monkeypatch.setattr(chebyshev, "FOLD_MAX_PRODUCT", 8 ** 3 << 1)
    be = _compiled_blocks_input(3, 1, True)
    assert isinstance(qkan.chebyshev_be(be, 2).op.inner, ops.SystemBlocks)
