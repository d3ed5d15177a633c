"""Labeled qubit registers and statevectors.

Index convention: the first register in a layout is the most significant,
so basis index ``i`` decomposes big-endian across registers. Registers may
be empty (zero qubits); they contribute nothing to the index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered list of named registers, most significant first."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise ContractViolationError(f"duplicate register names in {names}")
        for name, size in self.registers:
            if size < 0:
                raise ContractViolationError(f"register {name!r} has negative size {size}")

    @property
    def n_qubits(self) -> int:
        return sum(size for _, size in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a labeled register layout."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.layout.dim,):
            raise ContractViolationError(
                f"amplitude length {amps.shape} does not match layout dim {self.layout.dim}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ContractViolationError(
                f"statevector norm {np.linalg.norm(amps)} deviates from 1 beyond {NORM_TOL}"
            )
