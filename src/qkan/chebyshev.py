"""Chebyshev transforms of Hermitian diagonal block-encodings via qubitization.

The canonical form interleaves the encoding unitary, its adjoint, and the
reflection about the ancilla |0> state: for even r apply
(U^dag Z U Z)^{r/2}, for odd r apply U Z (U^dag Z U Z)^{floor(r/2)}.
For an exact encoding of a Hermitian block this realizes T_r exactly, with
no residual global phase under the register convention used here (asserted
by the grid tests). Z reflects about |0> on the ancillas that U acts on;
the one QSVT ancilla each transform adds to the layout is idle in this
form, so it is counted but not simulated (see BlockEncoding).
"""

from __future__ import annotations

import numpy as np

from .block_encoding import BlockEncoding, _derived, extract_block
from .errors import ContractViolationError, DomainError
from .operators import (
    DENSE_CAP_QUBITS,
    Embedded,
    Identity,
    LinearOperator,
    check_qubit_budget,
    compose,
    reflection_about_zero,
)

HERMITICITY_SLACK = 1e-9
HERMITICITY_PROBES = 8
HERMITICITY_PROBE_SEED = 0x5EED


def _dense_hermiticity_defect(be: BlockEncoding, limit: float) -> float:
    """Spectral norm of B - B^dag from the dense block. The Frobenius norm
    bounds it from above, so the SVD runs only when that bound does not
    already pass `limit`."""
    block = extract_block(be)
    gap = block - block.conj().T
    defect = float(np.linalg.norm(gap))
    if defect > limit:
        defect = float(np.linalg.norm(gap, 2))
    return defect


def _probe_hermiticity_defect(be: BlockEncoding) -> float:
    """alpha * ||(B - B^dag) V||_F / sqrt(k) over HERMITICITY_PROBES seeded
    complex Gaussian columns |0>_aux (x) v, E|v_i|^2 = 1: one application of
    U and one of U^dag (`be.adjoint_op`), whose top-left blocks are B / alpha
    and B^dag / alpha."""
    rng = np.random.default_rng(HERMITICITY_PROBE_SEED)
    shape = (be.system_dim, HERMITICITY_PROBES)
    cols = np.zeros((be.op.dim, HERMITICITY_PROBES), dtype=np.complex128)
    cols[: be.system_dim] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cols /= np.sqrt(2.0)
    gap = be.op.apply(cols, be.system_dim) - be.adjoint_op.apply(cols, be.system_dim)
    return be.alpha * float(np.linalg.norm(gap)) / np.sqrt(HERMITICITY_PROBES)


def _require_hermitian_block(be: BlockEncoding) -> None:
    """Chebyshev transforms are stated for Hermitian targets; reject encodings
    whose block B is further from Hermitian, ||B - B^dag||_2, than
    limit = 2 epsilon + HERMITICITY_SLACK.

    An encoding certified exactly real and diagonal by construction
    (`BlockEncoding.exact_real_diagonal`) has defect 0: it passes with no
    application and no dense block. Every other encoding is tested as below.

    Above 2 k system states (k = HERMITICITY_PROBES) the test is randomized
    (Freivalds' verification with Hutchinson's norm estimate): it passes when
    the probe estimate of :func:`_probe_hermiticity_defect` is at most
    0.1 limit. For complex Gaussian probes ||(B - B^dag) V||_F^2 is at least
    ||B - B^dag||_2^2 times a Gamma(k, 1) draw, so a block with
    ||B - B^dag||_2 > limit passes only when a Gamma(8, 1) draw falls below
    0.08, with probability <= 3.9e-14. The seed is fixed, so every decision
    is deterministic. A failing probe falls back to the dense spectral test
    while the block fits DENSE_CAP_QUBITS, and is rejected with its estimate
    above it. Systems of at most 2 k states take the dense test directly:
    one application over at most 2 k columns.

    The defect (probe estimate or spectral norm) is computed once per
    encoding and kept on it as a float; NaN fails. The probe's U^dag is the
    encoding's cached `adjoint_op`, the one its transforms use."""
    limit = 2.0 * be.epsilon + HERMITICITY_SLACK
    defect = 0.0 if be.exact_real_diagonal else be.check_results.get("hermiticity_defect")
    if defect is None:
        if be.system_dim > 2 * HERMITICITY_PROBES:
            estimate = _probe_hermiticity_defect(be)
            if estimate <= 0.1 * limit:
                be.check_results["hermiticity_defect"] = estimate
                return
            if be.num_system > DENSE_CAP_QUBITS:
                raise ContractViolationError(
                    f"encoded block is not Hermitian (probe estimate {estimate:.3e} "
                    f"over {HERMITICITY_PROBES} columns, epsilon {be.epsilon:.3e})"
                )
        defect = _dense_hermiticity_defect(be, limit)
        be.check_results["hermiticity_defect"] = defect
    if not defect <= limit:
        raise ContractViolationError(
            f"encoded block is not Hermitian (defect {defect:.3e}, epsilon {be.epsilon:.3e})"
        )


def _qsvt_shell(
    be: BlockEncoding,
    factors: list[LinearOperator],
    epsilon: float,
    exact_real_diagonal: bool = False,
) -> BlockEncoding:
    """Assemble a polynomial transform from `factors`, which act on the qubits
    of `be.op`. The layout gains the QSVT ancilla of the transform, which the
    reflection form never acts on: it is idle (see :class:`BlockEncoding`).
    The result carries the exact real diagonal certificate only when the
    caller passes it: the factors decide whether the transform keeps it."""
    check_qubit_budget(be.num_aux + be.num_system + 1, "polynomial transform")
    op = compose(*factors) if factors else Identity(be.op.n)
    return _derived(
        op, be.alpha, epsilon,
        (("qsvt", 1, True),) + be.aux, be.system,
        be.diagonal_flag, exact_real_diagonal,
    )


def chebyshev_be(be_x: BlockEncoding, r: int) -> BlockEncoding:
    """(1, a_x + 1, 4 r sqrt(eps_x))-encoding of diag(T_r(x_1), ..., T_r(x_N)).

    Applies the underlying encoding (or its adjoint) exactly r times; r = 0
    yields an exact identity encoding at zero queries. The adjoint factors
    are `be_x.adjoint_op`, built once per encoding, so every degree built on
    one encoding, and the guard's probe of it, share one U^dag tree. The
    transform of an encoding certified exactly real and diagonal keeps the
    certificate: T_r of a real diagonal is one, and the reflection form
    realizes it exactly.
    """
    if r < 0:
        raise DomainError("Chebyshev degree must be non-negative")
    if not be_x.diagonal_flag:
        raise ContractViolationError("chebyshev_be requires a diagonal-flagged encoding")
    if r == 0:
        return _qsvt_shell(be_x, [], 0.0, be_x.exact_real_diagonal)
    _require_hermitian_block(be_x)
    u = be_x.op
    z = Embedded(reflection_about_zero(be_x.live_aux), tuple(range(be_x.live_aux)), u.n)
    factors: list[LinearOperator] = []
    if r % 2:
        factors += [u, z]
    if r >= 2:
        factors += [be_x.adjoint_op, z, u, z] * (r // 2)
    return _qsvt_shell(
        be_x, factors, 4.0 * r * np.sqrt(be_x.epsilon), be_x.exact_real_diagonal
    )
