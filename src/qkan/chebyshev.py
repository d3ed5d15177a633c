"""Chebyshev transforms of Hermitian diagonal block-encodings via qubitization.

The canonical form interleaves the encoding unitary, its adjoint, and the
reflection about the ancilla |0> state: for even r apply
(U^dag Z U Z)^{r/2}, for odd r apply U Z (U^dag Z U Z)^{floor(r/2)}.
For an exact encoding of a Hermitian block this realizes T_r exactly, with
no residual global phase under the register convention used here (asserted
by the grid tests). Z reflects about |0> on the ancillas that U acts on;
the one QSVT ancilla each transform adds to the layout is idle in this
form, so it is counted but not simulated (see BlockEncoding). When U is
one leaf that is block-diagonal over the system, every factor is one too,
and the form is multiplied out block by block into one leaf per degree
(see _folded): per label for the 2x2 leaf of the exact input encoding, and
per system state for the SystemBlocks leaf of a compiled layer output whose
blocks are small enough (FOLD_MAX_PRODUCT).
"""

from __future__ import annotations

import numpy as np

from .block_encoding import BlockEncoding, _derived, extract_block, read_block
from .errors import ContractViolationError, DomainError
from .operators import (
    DENSE_CAP_QUBITS,
    Identity,
    LabelBlocks,
    LinearOperator,
    Query,
    SystemBlocks,
    check_qubit_budget,
    compose,
)

HERMITICITY_SLACK = 1e-9
HERMITICITY_PROBES = 8
HERMITICITY_PROBE_SEED = 0x5EED
# a SystemBlocks leaf U folds into one leaf per degree (see _folded) when one
# product of its blocks takes at most this many multiply-adds, 2^s 8^a. Measured
# on a 2-layer build and one-column read with the first layer compiled (one BLAS
# thread, 2 vCPU), fold against tree: 0.62 against 0.65 ms at 2^16 (a = 5, s = 1),
# 0.74 against 0.74 ms at 2^18 (a = 5, s = 3), 0.73 against 0.69 ms at 2^19,
# 0.95 against 0.68 ms at 2^21 and 5.0 against 1.2 ms at 2^25
FOLD_MAX_PRODUCT = 1 << 18


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
    complex Gaussian columns |0>_aux (x) v, E|v_i|^2 = 1: one
    :func:`~qkan.block_encoding.read_block` of U and one of U^dag
    (`be.adjoint_op`), whose top-left blocks are B / alpha and B^dag / alpha."""
    rng = np.random.default_rng(HERMITICITY_PROBE_SEED)
    shape = (be.system_dim, HERMITICITY_PROBES)
    probes = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    gap = read_block(be.op, be.system_dim, probes) - read_block(be.adjoint_op, be.system_dim, probes)
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


def _folded(be_x: BlockEncoding, r: int) -> LinearOperator | None:
    """T_r's reflection form multiplied out block by block, when `be_x.op` is
    one Query around a leaf U that is block-diagonal over the system: a
    LabelBlocks leaf on one live ancilla (the exact input encoding), or a
    SystemBlocks leaf over all the live ancillas (a compiled layer output)
    whose blocks multiply in at most FOLD_MAX_PRODUCT multiply-adds. None
    otherwise.

    Every factor is then one block per label or system state: with A = U Z
    and B = U^dag Z, the form is M_r = A (B A)^((r-1)/2) for odd r and
    (B A)^(r/2) for even r, so M_r = A M_(r-1) for odd r and B M_(r-1) for
    even r, one `times` each (a 2x2 product per label, or one batched
    matmul of the blocks). The chain M_1, M_2, ... is kept on the encoding
    (`BlockEncoding.fold_chain`), and so is B (`BlockEncoding.fold_step`),
    so the degrees 1..d cost d - 1 products and A and B are built once.
    M_r goes in a Query with r times U's counts, and its `folded_leaves`
    count the 2r factors it replaces. A SystemBlocks product is deferred: it
    reads U's blocks on its first apply, so a build that is never applied
    forms no product."""
    u = be_x.op.inner if isinstance(be_x.op, Query) else None
    if isinstance(u, LabelBlocks):
        if be_x.live_aux != 1:
            return None
    elif not isinstance(u, SystemBlocks) or u.a != be_x.live_aux or (
        (8 ** u.a) << u.s > FOLD_MAX_PRODUCT
    ):
        return None
    chain = be_x.fold_chain
    if not chain:
        chain.append(u.reflected())  # M_1 = A
    while len(chain) < r:  # M_(k+1) = B M_k for odd k, A M_k for even k
        step = be_x.fold_step if len(chain) % 2 else chain[0]
        chain.append(step.times(chain[-1]))
    return Query(chain[r - 1], {name: r * count for name, count in be_x.op.counts.items()})


def chebyshev_be(be_x: BlockEncoding, r: int) -> BlockEncoding:
    """(1, a_x + 1, 4 r sqrt(eps_x))-encoding of diag(T_r(x_1), ..., T_r(x_N)).

    Applies the underlying encoding (or its adjoint) exactly r times; r = 0
    yields an exact identity encoding at zero queries. When `be_x.op` is one
    Query around a LabelBlocks leaf (the exact input encoding) or a small
    enough SystemBlocks leaf (a compiled layer output), the 2r factors fold
    into one leaf (:func:`_folded`) with the same counts.
    Otherwise the adjoint factors are `be_x.adjoint_op` and the reflections
    `be_x.zero_reflection`, each built once per encoding, so every degree
    built on one encoding, and the guard's probe of it, share one U^dag tree
    and one Z node. The transform of an encoding certified exactly real and
    diagonal keeps the certificate: T_r of a real diagonal is one, and the
    reflection form realizes it exactly.
    """
    if r < 0:
        raise DomainError("Chebyshev degree must be non-negative")
    if not be_x.diagonal_flag:
        raise ContractViolationError("chebyshev_be requires a diagonal-flagged encoding")
    if r == 0:
        return _qsvt_shell(be_x, [], 0.0, be_x.exact_real_diagonal)
    _require_hermitian_block(be_x)
    folded = _folded(be_x, r)
    if folded is not None:
        factors = [folded]
    else:
        u, z = be_x.op, be_x.zero_reflection
        factors = [u, z] if r % 2 else []
        if r >= 2:  # U^dag is built only when a degree uses it
            factors += [be_x.adjoint_op, z, u, z] * (r // 2)
    return _qsvt_shell(
        be_x, factors, 4.0 * r * np.sqrt(be_x.epsilon), be_x.exact_real_diagonal
    )
