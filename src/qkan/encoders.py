"""Constructors of exact diagonal block-encodings for inputs and weights."""

from __future__ import annotations

import numpy as np

from .block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    lcu,
    perturb,
    primitive_encoding,
    uniform_pair,
)
from .errors import ContractViolationError, DomainError
from .operators import (
    Dense,
    Embedded,
    LabelBlocks,
    LinearOperator,
    Permutation,
    Query,
    compose,
    state_prep_unitary,
)


def _log2_exact(length: int, what: str) -> int:
    n = max(0, length.bit_length() - 1)
    if length != 1 << n:
        raise DomainError(f"{what} length {length} is not a power of two")
    return n


def encode_diagonal_exact(x: np.ndarray, name: str = "x") -> BlockEncoding:
    """Exact (1, 1, 0)-encoding of diag(x) for real x in [-1, 1]^N.

    Per basis label p the single ancilla carries the reflection block
    [[x_p, s_p], [s_p, -x_p]] with s_p = sqrt(1 - x_p^2); the full operator
    is Hermitian and unitary, which the Chebyshev step relies on. It is
    stored as the 2N values [x; s] of one LabelBlocks leaf, not as a dense
    2N x 2N matrix. The block diag(x) is exactly real, so the encoding
    carries the exact real diagonal certificate (see
    :class:`~qkan.block_encoding.BlockEncoding`); an entry with an imaginary
    part is rejected, not cast away.

    The interval is tested once, on the way to s: in float64, 1 - x^2 >= 0
    holds exactly when |x| <= 1 (NaN and +-inf fail it), so 1 - x^2 is
    written into the s half of [x; s], every entry is tested, and the square
    root is taken in place (a finite |x| above about 1.3e154 squares to
    inf, and numpy warns of the overflow before the DomainError). [x; s]
    is then bit for bit that of
    :meth:`~qkan.operators.LabelBlocks.reflection`, and the leaf keeps it
    without a copy or a second test.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if np.any(x.imag):
            raise DomainError("entries must be real")
        x = x.real
    x = np.asarray(x, dtype=np.float64)
    n = _log2_exact(x.size, "input vector")
    xs = np.empty(2 * x.size)
    xs[: x.size] = x.reshape(-1)
    s = xs[x.size:]
    np.subtract(1.0, xs[: x.size] * xs[: x.size], out=s)
    if not (s >= 0.0).all():
        raise DomainError(f"entries outside [-1, 1]: max |x| = {np.max(np.abs(x))}")
    np.sqrt(s, out=s)
    xs.setflags(write=False)
    # a vector of another shape gets the reflection's own label-count error
    leaf = LabelBlocks(xs) if x.ndim == 1 else LabelBlocks.reflection(x)
    return BlockEncoding(
        op=Query(leaf, {name: 1}),
        alpha=1.0,
        epsilon=0.0,
        aux=(("enc", 1, False),),
        system=(("sys", n),),
        diagonal_flag=True,
        exact_real_diagonal=True,
    )


def perturbed_weight_encoder(eps_w: float, seed: int):
    """Weight encoder that encodes each vector exactly and, for eps_w > 0,
    perturbs it by eps_w (:func:`~qkan.block_encoding.perturb`) seeded with
    `seed` plus the byte sum of the encoding's name, a pure function of
    ``(vector, name)``."""

    def encoder(vec: np.ndarray, name: str) -> BlockEncoding:
        be = encode_diagonal_exact(vec, name=name)
        return perturb(be, eps_w, seed + sum(name.encode())) if eps_w > 0 else be

    return encoder


def _copy_compare_permutation(n: int) -> Permutation:
    """Permutation on [flag | amp | sys] that routes the amp==sys branch to the
    all-zero ancilla state: flag ^= (amp == sys); amp ^= sys if flag; flag ^= 1."""
    big = 1 << n
    idx = np.arange(1 << (2 * n + 1))
    f = idx >> (2 * n)
    a = (idx >> n) & (big - 1)
    s = idx & (big - 1)
    f2 = f ^ (a == s)
    a2 = a ^ (s * f2)
    f3 = f2 ^ 1
    return Permutation((f3 << (2 * n)) | (a2 << n) | s)


def encode_from_stateprep(u_prep: LinearOperator, name: str = "psi") -> BlockEncoding:
    """(1, n+3, 0)-encoding of diag(psi) for psi = U_prep |0>.

    One application of U_prep writes psi into an ancilla register; a comparator
    flags the branch matching the system label and returns its ancillas to
    |0>, so the surviving amplitude on |0>_aux |j> is exactly psi_j. Two idle
    ancillas keep the n+3 budget of the general amplitude-encoding route.
    """
    n = u_prep.n
    total = 2 * n + 3
    amp_axes = tuple(range(3, 3 + n))
    sys_axes = tuple(range(3 + n, total))
    gadget = Embedded(_copy_compare_permutation(n), (0,) + amp_axes + sys_axes, total)
    prep = Embedded(u_prep, amp_axes, total)
    aux = (("flag", 1), ("pad", 2), ("amp", n))
    return primitive_encoding(compose(gadget, prep), aux, (("sys", n),), name, diagonal=True)


def encode_real_weights(u_prep: LinearOperator, name: str = "w") -> BlockEncoding:
    """(1, n+4, 0)-encoding of diag(Re psi) from a state-preparation unitary.

    Combines the amplitude encoding with its adjoint at equal weights, so the
    encoded vector satisfies sum_j (Re psi_j)^2 <= 1.
    """
    be_psi = encode_from_stateprep(u_prep, name=name)
    return lcu([be_psi, adjoint_encoding(be_psi)], uniform_pair(2))


def stateprep_for_real_vector(w: np.ndarray) -> Dense:
    """State-preparation unitary whose amplitudes have real part w (needs
    sum w^2 <= 1); the slack goes into a uniform imaginary component."""
    w = np.asarray(w, dtype=np.float64)
    _log2_exact(w.size, "weight vector")
    slack = 1.0 - float(np.sum(w * w))
    if slack < -1e-12:
        raise ContractViolationError(f"sum of squares {np.sum(w * w)} exceeds 1")
    imag = np.sqrt(max(slack, 0.0) / w.size)
    psi = w + 1j * imag
    psi = psi / np.linalg.norm(psi)  # rounding-level correction only
    return state_prep_unitary(psi)
