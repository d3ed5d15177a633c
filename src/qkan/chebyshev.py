"""Chebyshev transforms of Hermitian diagonal block-encodings via qubitization.

The canonical form interleaves the encoding unitary, its adjoint, and the
reflection about the ancilla |0> state: for even r apply
(U^dag Z U Z)^{r/2}, for odd r apply U Z (U^dag Z U Z)^{floor(r/2)}.
For an exact encoding of a Hermitian block this realizes T_r exactly, with
no residual global phase under the register convention used here (asserted
by the grid tests). A generic phase-sequence applicator cross-validates the
reflection form against the e^{i phi sigma_z} product form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding, _aux_regs, _derived, _sys_regs, extract_block
from .errors import ContractViolationError, DomainError
from .operators import (
    Embedded,
    Identity,
    LinearOperator,
    check_qubit_budget,
    compose,
    phase_on_zero,
    reflection_about_zero,
)

HERMITICITY_SLACK = 1e-9


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


def _require_hermitian_block(be: BlockEncoding) -> None:
    """Chebyshev transforms are stated for Hermitian targets; reject encodings
    whose block is further from Hermitian than the declared error allows.

    The defect is computed once per encoding and kept on it as a float. The
    Frobenius norm of B - B^dag bounds its spectral norm from above, so the
    SVD runs only when that bound does not already pass."""
    limit = 2.0 * be.epsilon + HERMITICITY_SLACK
    defect = be.check_results.get("hermiticity_defect")
    if defect is None:
        block = extract_block(be)
        gap = block - block.conj().T
        defect = float(np.linalg.norm(gap))
        if defect > limit:
            defect = float(np.linalg.norm(gap, 2))
        be.check_results["hermiticity_defect"] = defect
    if defect > limit:
        raise ContractViolationError(
            f"encoded block is not Hermitian (defect {defect:.3e}, epsilon {be.epsilon:.3e})"
        )


def _qsvt_shell(be: BlockEncoding, factors: list[LinearOperator], epsilon: float) -> BlockEncoding:
    """Assemble a polynomial transform with one extra (idle) QSVT ancilla."""
    n = be.op.n + 1
    check_qubit_budget(n, "polynomial transform")
    shifted = [Embedded(f, tuple(range(1, n)), n) for f in factors]
    op = compose(*shifted) if shifted else Identity(n)
    return _derived(
        op, be.alpha, epsilon,
        [("qsvt", 1)] + _aux_regs(be), _sys_regs(be),
        be.diagonal_flag,
    )


def chebyshev_be(
    be_x: BlockEncoding, r: int, u_adjoint: LinearOperator | None = None
) -> BlockEncoding:
    """(1, a_x + 1, 4 r sqrt(eps_x))-encoding of diag(T_r(x_1), ..., T_r(x_N)).

    Applies the underlying encoding (or its adjoint) exactly r times; r = 0
    yields an exact identity encoding at zero queries. `u_adjoint`, when
    given, must be ``be_x.op.adjoint()``; callers building several degrees
    pass one so that the adjoint tree is built once and shared.
    """
    if r < 0:
        raise DomainError("Chebyshev degree must be non-negative")
    if not be_x.diagonal_flag:
        raise ContractViolationError("chebyshev_be requires a diagonal-flagged encoding")
    if r == 0:
        return _qsvt_shell(be_x, [], 0.0)
    _require_hermitian_block(be_x)
    u = be_x.op
    z = Embedded(reflection_about_zero(be_x.num_aux), tuple(range(be_x.num_aux)), u.n)
    factors: list[LinearOperator] = []
    if r % 2:
        factors += [u, z]
    if r >= 2:
        u_dag = u.adjoint() if u_adjoint is None else u_adjoint
        factors += [u_dag, z, u, z] * (r // 2)
    return _qsvt_shell(be_x, factors, 4.0 * r * np.sqrt(be_x.epsilon))


def apply_phase_sequence(be: BlockEncoding, seq: PhaseSequence) -> BlockEncoding:
    """Polynomial transform from explicit QSP phases, in the product form
    prod_j e^{i phi_j (2|0><0|-I)} V_j with V_j alternating between the
    encoding and its adjoint. With the Chebyshev preset the encoded block
    matches :func:`chebyshev_be` to 1e-10."""
    d = seq.degree
    if d == 0:
        raise DomainError("empty phase sequence")
    _require_hermitian_block(be)
    u = be.op
    aux_axes = tuple(range(be.num_aux))
    factors: list[LinearOperator] = []
    for j, phi in enumerate(seq.phases, start=1):
        factors.append(Embedded(phase_on_zero(phi, be.num_aux), aux_axes, u.n))
        factors.append(u if (d - j) % 2 == 0 else u.adjoint())
    return _qsvt_shell(be, factors, 4.0 * d * np.sqrt(be.epsilon))
