import numpy as np
import pytest

from qkan.errors import ContractViolationError
from qkan.registers import RegisterLayout, StateVector


def test_basic_counts():
    layout = RegisterLayout((("sel", 2), ("aux", 1), ("sys", 3)))
    assert layout.n_qubits == 6
    assert layout.dim == 64


def test_duplicate_names_rejected():
    with pytest.raises(ContractViolationError):
        RegisterLayout((("a", 1), ("a", 2)))


def test_statevector_norm_enforced():
    layout = RegisterLayout((("sys", 1),))
    with pytest.raises(ContractViolationError):
        StateVector(np.array([1.0, 1.0]), layout)
    sv = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), layout)
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-12
