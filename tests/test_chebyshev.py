import re

import numpy as np
import pytest

import qkan
from qkan import operators as ops
from qkan.chebyshev import PhaseSequence
from qkan.errors import ContractViolationError, DomainError


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
        assert qkan.chebyshev_be(be, r).ledger.count("x") == r


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
        via_phases = qkan.extract_block(qkan.apply_phase_sequence(be, PhaseSequence.chebyshev(d)))
        via_reflections = qkan.extract_block(qkan.chebyshev_be(be, d))
        assert np.max(np.abs(via_phases - via_reflections)) <= 1e-10


def test_phase_sequence_zero_phases_degree_one(rng):
    x = rng.uniform(-1, 1, 2)
    be = qkan.encode_diagonal_exact(x)
    block = qkan.extract_block(qkan.apply_phase_sequence(be, PhaseSequence((0.0,))))
    assert np.max(np.abs(block - np.diag(x))) < 1e-12


def test_phase_sequence_empty_rejected():
    be = qkan.encode_diagonal_exact(np.array([0.5]))
    with pytest.raises(DomainError):
        qkan.apply_phase_sequence(be, PhaseSequence(()))


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
    qkan.apply_phase_sequence(shaken, PhaseSequence.chebyshev(3))
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
