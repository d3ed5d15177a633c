"""Block-encodings and their combinators.

A block-encoding is a unitary whose top-left block (all ancillas projected
onto |0>) equals a target matrix divided by the subnormalization alpha, up
to spectral error epsilon. Ancilla registers always occupy the most
significant qubits, so the encoded block is literally the top-left corner
of the dense matrix.

Query accounting is read from the operator tree. A primitive encoding wraps
its unitary in a :class:`~qkan.operators.Query` node tagged with its name,
and :attr:`BlockEncoding.cost` sums the tags of every Query occurrence in the
tree, so the counts describe the structure actually built. Combinators only
build operators; they keep no counts of their own. An application of an
encoding, its adjoint, or any controlled version all count as one query to
that encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, ResourceLimitError
from .operators import (
    DENSE_CAP_QUBITS,
    Composed,
    Dense,
    Embedded,
    Householder,
    Identity,
    LinearOperator,
    Multiplexed,
    Query,
    SystemBlocks,
    check_qubit_budget,
    compose,
    hadamard_layer,
    permutation_from_map,
    query_counts,
    random_unitary,
    reflection_about_zero,
    restrict_to_leading,
    state_prep_unitary,
)

# largest eigenphase of a perturbation direction is pi minus this (see perturb)
PERTURB_PHASE_MARGIN = 0.02
PERTURB_BISECTION_STEPS = 200
# largest entry deviation allowed between a compiled SystemBlocks leaf and the
# tree it replaces, on one seeded column (see compile_system_blocks)
COMPILE_CHECK_TOL = 1e-12
COMPILE_CHECK_SEED = 0xB10C
# largest number of amplitudes that read_block applies at once
READ_BLOCK_AMPLITUDES = 1 << 26


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """(alpha, a, epsilon) block-encoding over named ancilla and system registers.

    `aux` lists the ancilla registers as (name, size, idle), most significant
    first; `system` lists the system registers that follow as (name, size).
    They are the one representation of the registers. Construction derives
    the counts from them as plain attributes: `num_aux`, `live_aux` (the
    ancilla qubits that `op` acts on, its leading ones), `idle_aux` (the
    qubits of the idle registers), `num_system`, `system_dim` and
    `sample_qubits` (the size of a trailing `sample` register, see
    :func:`split_system`, 0 without one). `diagonal_flag` marks encodings whose block is
    promised diagonal (within epsilon). `check_results` keeps the outcome of
    expensive checks of this encoding by name (floats only, never a dense
    block), so a check made by several steps runs once. A derived encoding
    starts with none.

    `exact_real_diagonal` is a structural certificate: the block is exactly
    real and diagonal, with epsilon 0, by how the encoding was built, so the
    Chebyshev Hermiticity guard has nothing to test. Only
    :func:`~qkan.encoders.encode_diagonal_exact` grants it. `dilate`,
    `split_system`, `chebyshev_be`, `product`, `lcu` with a real pair,
    `network.sum_over_inputs` and `compile_system_blocks` keep it when
    every part has it; every other construction starts without it. The
    `diagonal_flag` is a claim and never grants it.

    An ancilla register marked idle (the QSVT ancilla of a Chebyshev
    transform) is one that no factor acts on. It counts in `num_aux` and in
    every qubit budget, but `op` leaves it out: it spans the other (live)
    qubits in register order, so
    ``op.n == num_aux + num_system - idle_aux``, and the encoding's unitary
    is the identity on the idle qubits tensored with `op`. Reads, guards,
    compiles and readouts only prepare states whose idle qubits read 0.

    `adjoint_op` is ``op.adjoint()``, built on first use and kept, as
    `live_qubits` is: the Chebyshev guard's probe and the transforms of
    every degree of one encoding share one U^dag. So do they share
    `zero_reflection`, the reflection about |0> on the live ancillas, which
    is the qubitization reflection of the encoding. `row_sums` is
    (<0|_aux (x) I) U (|0>_aux (x) sum_j |j>), likewise read on first use
    and kept: the exact diagonal read and the post-selected state share one
    application of U. All three live and die with the encoding; a derived
    encoding (``dataclasses.replace`` included) starts without them, and
    computes its counts again.
    """

    op: LinearOperator
    alpha: float
    epsilon: float
    aux: tuple[tuple[str, int, bool], ...]
    system: tuple[tuple[str, int], ...]
    diagonal_flag: bool = False
    exact_real_diagonal: bool = False
    check_results: dict[str, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.alpha < 0 or self.epsilon < 0:
            raise ContractViolationError("alpha and epsilon must be non-negative")
        if self.exact_real_diagonal and (self.epsilon != 0 or not self.diagonal_flag):
            raise ContractViolationError(
                "an exact real diagonal certificate needs epsilon 0 and the diagonal flag"
            )
        seen: set[str] = set()
        num_aux = live_aux = num_system = 0
        for name, size, idle in self.aux:
            seen.add(name)
            num_aux += size
            if not idle:
                live_aux += size
        for name, size in self.system:
            seen.add(name)
            num_system += size
        if len(seen) != len(self.aux) + len(self.system):
            names = [reg[0] for reg in self.aux + self.system]
            raise ContractViolationError(f"duplicate register names in {names}")
        last, size = self.system[-1] if self.system else ("", 0)
        self.__dict__.update(
            num_aux=num_aux, live_aux=live_aux, idle_aux=num_aux - live_aux,
            num_system=num_system, system_dim=1 << num_system,
            sample_qubits=size if last == "sample" else 0,
        )
        if self.op.n != live_aux + num_system:
            raise ContractViolationError(
                f"operator acts on {self.op.n} qubits, the registers have "
                f"{live_aux + num_system} live ones"
            )

    @cached_property
    def live_qubits(self) -> tuple[int, ...]:
        """Layout positions of the qubits that `op` spans, in order."""
        positions: list[int] = []
        offset = 0
        for _, size, idle in self.aux:
            if not idle:
                positions.extend(range(offset, offset + size))
            offset += size
        return tuple(positions) + tuple(range(offset, offset + self.num_system))

    @cached_property
    def adjoint_op(self) -> LinearOperator:
        """U^dag: ``op.adjoint()``, built once per encoding."""
        return self.op.adjoint()

    @cached_property
    def zero_reflection(self) -> LinearOperator:
        """2|0><0| - I on the live ancillas, identity on the system: built
        once per encoding."""
        return Embedded(reflection_about_zero(self.live_aux), tuple(range(self.live_aux)), self.op.n)

    @cached_property
    def fold_chain(self) -> list[LinearOperator]:
        """[M_1, M_2, ...]: the leaves that the Chebyshev transforms of an
        encoding whose `op` is one Query around a LabelBlocks or SystemBlocks
        leaf fold to (see :func:`~qkan.chebyshev.chebyshev_be`), extended as
        degrees are asked for and kept, as `adjoint_op` is; empty until then."""
        return []

    @cached_property
    def fold_step(self) -> LinearOperator:
        """B = U^dag Z, the leaf by which `fold_chain` takes each even
        degree from the odd one below it, for U the leaf inside `op`'s Query:
        built once per encoding, on first use."""
        return self.op.inner.adjoint().reflected()

    @cached_property
    def row_sums(self) -> np.ndarray:
        """(<0|_aux (x) I) U (|0>_aux (x) sum_j |j>): the first system_dim rows
        of one application of `op`, complex128 and read-only. Entry j is
        sum_j' <0|_aux <j| U |0>_aux |j'>, so the row sums of the block
        divided by alpha. :func:`read_block` returns new rows, so the cached
        value never keeps the whole 2^n column alive."""
        rows = read_block(self.op, self.system_dim, np.ones(self.system_dim))
        rows.flags.writeable = False
        return rows

    @property
    def cost(self) -> dict[str, int]:
        """Primitive queries consumed by one application of this encoding,
        summed over the Query nodes of its operator tree."""
        return dict(sorted(query_counts(self.op).items()))


def _derived(
    op: LinearOperator,
    alpha: float,
    epsilon: float,
    aux: tuple[tuple[str, int, bool], ...],
    system: tuple[tuple[str, int], ...],
    diagonal: bool,
    exact_real_diagonal: bool = False,
) -> BlockEncoding:
    """An encoding over the registers `aux` then `system`. Names are taken
    in that order, in one pass: the first occurrence of a name keeps it, and
    a later one gets the first free suffix of .2, .3, ... (so a repeated
    ``qsvt.2`` becomes ``qsvt.2.2``). Registers are kept as given when no
    name repeats."""
    taken: set[str] = set()
    renamed = []
    for reg in aux + system:
        name = candidate = reg[0]
        k = 1
        while candidate in taken:
            k += 1
            candidate = f"{name}.{k}"
        taken.add(candidate)
        renamed.append(reg if k == 1 else (candidate, *reg[1:]))
    return BlockEncoding(
        op=op,
        alpha=alpha,
        epsilon=epsilon,
        aux=tuple(renamed[: len(aux)]),
        system=tuple(renamed[len(aux):]),
        diagonal_flag=diagonal,
        exact_real_diagonal=exact_real_diagonal,
    )


def _split_regs(regs: tuple[tuple[str, int], ...], qubits: int, what: str) -> tuple[tuple, tuple]:
    """The (name, size) registers holding the first `qubits` qubits, and the rest."""
    running = 0
    for i, (_, size) in enumerate(regs):
        if running == qubits:
            return regs[:i], regs[i:]
        running += size
    if running == qubits:
        return regs, ()
    raise ContractViolationError(f"{what} does not align with register boundaries")


def primitive_encoding(
    op: LinearOperator,
    aux: tuple[tuple[str, int], ...],
    system: tuple[tuple[str, int], ...],
    name: str,
    epsilon: float = 0.0,
    diagonal: bool = False,
) -> BlockEncoding:
    """Wrap a unitary over the (name, size) registers `aux` then `system` as
    a named primitive (1, a, epsilon)-encoding, every ancilla live, that
    counts one query to `name` per application."""
    for reg, size in aux + system:
        if size < 0:
            raise ContractViolationError(f"register {reg!r} has negative size {size}")
    return BlockEncoding(
        op=Query(op, {name: 1}),
        alpha=1.0,
        epsilon=epsilon,
        aux=tuple((reg, size, False) for reg, size in aux),
        system=system,
        diagonal_flag=diagonal,
    )


def identity_encoding(num_system: int) -> BlockEncoding:
    """Exact zero-cost encoding of the identity, without ancillas."""
    return _derived(Identity(num_system), 1.0, 0.0, (), (("sys", num_system),), diagonal=True)


def _read_width(op: LinearOperator) -> int:
    """Columns that :func:`read_block` passes to one application of `op`."""
    return max(1, READ_BLOCK_AMPLITUDES // op.dim)


def _peel(op: LinearOperator, a: int) -> tuple[list, LinearOperator, list]:
    """(left, middle, right): the factors at the two ends of `op`'s
    top-level product that act on its leading `a` qubits alone, each as the
    operator on those qubits (:func:`~qkan.operators.restrict_to_leading`),
    and the product of the factors between them, at least one."""
    factors = op.factors if isinstance(op, Composed) else (op,)
    lo, hi = 0, len(factors)
    left: list = []
    right: list = []
    while hi - lo > 1 and (end := restrict_to_leading(factors[lo], a)) is not None:
        left.append(end)
        lo += 1
    while hi - lo > 1 and (end := restrict_to_leading(factors[hi - 1], a)) is not None:
        right.insert(0, end)
        hi -= 1
    if hi - lo == len(factors):
        return left, op, right
    return left, factors[lo] if hi - lo == 1 else Composed(factors[lo:hi]), right


def read_block(op: LinearOperator, system_dim: int, V: np.ndarray) -> np.ndarray:
    """(<0|_aux (x) I) op (|0>_aux (x) V) as a new complex128 array of V's
    shape, for `op` an encoding's U or its `adjoint_op` and V one system
    column or a (system_dim, b) array of them. The system qubits trail, so
    an op.dim column is 2^a ancilla slices of system_dim rows.

    The factors at either end of U's top-level product that act on the
    ancillas alone (:func:`_peel`: SUM's WalshHadamard, the LCU pair) are
    not applied to the columns. The right ones R are applied to the 2^a
    ancilla vector |0> once, and each column is R|0> (x) v, in the dtype of
    V and R|0>; the left ones L make the row functional l = <0|L over the
    ancilla index. The factors between them go through one
    :meth:`~qkan.operators.LinearOperator.apply`, which contracts each
    result with l and converts only those system_dim rows to complex128.
    With nothing peeled, R|0> = |0> and l = <0|: each column is V's,
    zero-padded, and the result its first system_dim rows. At most
    READ_BLOCK_AMPLITUDES amplitudes (and at least one column) go through
    `op` at once."""
    V = np.asarray(V)
    out = np.empty(V.shape, dtype=np.complex128)
    vs, rows = V.reshape(system_dim, -1), out.reshape(system_dim, -1)
    aux = op.dim // system_dim
    left, middle, right = _peel(op, aux.bit_length() - 1)
    zero = np.zeros((aux, 1))
    zero[0] = 1.0
    prepared, functional = zero, zero
    for end in reversed(right):
        prepared = end._apply(prepared)
    for end in left:  # l^dag = L^dag |0>
        functional = end.adjoint()._apply(functional)
    projection = functional[:, 0].conj() if left else system_dim
    width = _read_width(op)
    for start in range(0, vs.shape[1], width):
        part = vs[:, start : start + width]
        cols = prepared @ part.reshape(1, -1)  # R|0> (x) v, one product per entry
        rows[:, start : start + width] = middle.apply(cols.reshape(op.dim, -1), projection)
    return out


def extract_block(be: BlockEncoding) -> np.ndarray:
    """alpha * (<0|_aux (x) I) U (|0>_aux (x) I), as a dense system-dim
    matrix; at most DENSE_CAP_QUBITS system qubits."""
    if be.num_system > DENSE_CAP_QUBITS:
        raise ResourceLimitError(
            f"dense block extraction over {be.num_system} system qubits exceeds cap {DENSE_CAP_QUBITS}",
            required_qubits=be.num_system,
        )
    return be.alpha * read_block(be.op, be.system_dim, np.eye(be.system_dim))


def extract_diagonal(be: BlockEncoding) -> np.ndarray:
    """Entries alpha <0|_aux <j| U |0>_aux |j> of a diagonal-flagged block,
    as a new array.

    Applied to |0>_aux (x) sum_j |j>, the encoding returns sum_j' B[j, j'] on
    |0>_aux |j>, which is B[j, j] when the block is exactly diagonal
    (epsilon == 0): alpha times :attr:`BlockEncoding.row_sums`, the one
    application that every reader of that column shares. An encoding with
    epsilon > 0 may carry off-diagonal error, so it is read one column
    |0>_aux |j> per entry, one slice of the identity per application.
    """
    if not be.diagonal_flag:
        raise ContractViolationError("extract_diagonal requires a diagonal-flagged encoding")
    if be.epsilon == 0:
        return be.alpha * be.row_sums
    dim, width = be.system_dim, _read_width(be.op)
    values = np.empty(dim, dtype=np.complex128)
    for start in range(0, dim, width):
        part = read_block(be.op, dim, np.eye(dim, min(width, dim - start), -start))
        values[start : start + width] = np.diagonal(part, -start)
    return be.alpha * values


def compile_system_blocks(be: BlockEncoding) -> BlockEncoding:
    """The same encoding with its operator read into one SystemBlocks leaf,
    inside a Query that carries the counts of the tree it replaces. The leaf
    is deferred (:meth:`SystemBlocks.deferred`): the read below, and its
    check, run on its first apply, and the leaf keeps the tree until then.

    Every factor of a built network acts block-diagonally over the system
    register, so U = sum_j B_j (x) |j><j| with one 2^a x 2^a block B_j per
    system state j, over the a live ancillas that `op` spans. Applied to the
    2^a columns |i>_aux (x) sum_j |j>, U returns B_j[:, i] on the rows
    |.>_aux|j>: one application reads every block. The same application
    carries one seeded real Gaussian column, and the leaf must reproduce the
    tree's result on it within COMPILE_CHECK_TOL; otherwise the tree mixes
    the system register and ContractViolationError is raised, at that first
    apply, and again at every later one. The columns are real, so a real
    tree is applied in float64; a nonzero off-block part still maps the
    Gaussian column to a nonzero vector with probability 1."""
    tree, a, s = be.op, be.live_aux, be.num_system

    def read() -> SystemBlocks:
        aux, systems = 1 << a, 1 << s
        cols = np.zeros((aux, systems, aux + 1))
        cols[np.arange(aux), :, np.arange(aux)] = 1.0
        probe = cols[:, :, aux]
        probe[:] = np.random.default_rng(COMPILE_CHECK_SEED).standard_normal(probe.shape)
        out = tree.apply(cols.reshape(tree.dim, aux + 1)).reshape(aux, systems, aux + 1)
        leaf = SystemBlocks(np.ascontiguousarray(out[:, :, :aux].transpose(1, 0, 2)))
        expected = out[:, :, aux].reshape(-1)
        deviation = float(np.max(np.abs(leaf.apply(probe.reshape(-1)) - expected)))
        if not deviation <= COMPILE_CHECK_TOL:
            raise ContractViolationError(
                f"operator mixes its system register: system blocks miss a seeded column by "
                f"{deviation:.3e}"
            )
        return leaf

    leaf = SystemBlocks.deferred(read, a, s, replaced_leaves=tree.leaves)
    return replace(be, op=Query(leaf, query_counts(tree)))


def verify(be: BlockEncoding, target: np.ndarray) -> float:
    """Distance between the encoded block and `target`: spectral norm in general,
    max-abs entry difference for diagonal-flagged encodings (equal for diagonals)."""
    block = extract_block(be)
    diff = block - np.asarray(target, dtype=np.complex128)
    if be.diagonal_flag:
        return float(np.max(np.abs(diff)))
    return float(np.linalg.norm(diff, 2))


def pad_aux(be: BlockEncoding, extra: int) -> BlockEncoding:
    """Prepend ancilla qubits that the operator acts on as the identity; the
    encoded block is unchanged."""
    if extra == 0:
        return be
    check_qubit_budget(be.num_aux + be.num_system + extra, "padded encoding")
    n = be.op.n + extra
    op = Embedded(be.op, tuple(range(extra, n)), n)
    return _derived(
        op, be.alpha, be.epsilon, (("pad", extra, False),) + be.aux, be.system, be.diagonal_flag
    )


def _all_live(be: BlockEncoding) -> BlockEncoding:
    """The same encoding with identity on its idle ancillas made part of `op`."""
    if not be.idle_aux:
        return be
    op = Embedded(be.op, be.live_qubits, be.num_aux + be.num_system)
    return replace(be, op=op, aux=tuple((name, size, False) for name, size, _ in be.aux))


def adjoint_encoding(be: BlockEncoding) -> BlockEncoding:
    """Encoding of the adjoint target; one query per application."""
    return _derived(
        be.op.adjoint(), be.alpha, be.epsilon, be.aux, be.system, be.diagonal_flag
    )


def product(be_a: BlockEncoding, be_b: BlockEncoding) -> BlockEncoding:
    """Encoding of the matrix product A @ B.

    Built as (I_b (x) U_A)(I_a (x) U_B) with B's ancillas outermost; each
    factor acts as identity on the other's ancillas, so the result is an
    (alpha_a*alpha_b, a+b, alpha_a*eps_b + alpha_b*eps_a)-encoding. Its
    operator spans the live qubits of both (see :class:`BlockEncoding`).
    """
    if be_a.num_system != be_b.num_system:
        raise ContractViolationError(
            f"system size mismatch: {be_a.num_system} vs {be_b.num_system} qubits"
        )
    check_qubit_budget(be_a.num_aux + be_b.num_aux + be_a.num_system, "product encoding")
    a, b, s = be_a.live_aux, be_b.live_aux, be_a.num_system
    n = a + b + s
    emb_a = Embedded(be_a.op, tuple(range(b, n)), n)
    emb_b = Embedded(be_b.op, tuple(range(b)) + tuple(range(b + a, n)), n)
    return _derived(
        compose(emb_a, emb_b),
        be_a.alpha * be_b.alpha,
        be_a.alpha * be_b.epsilon + be_b.alpha * be_a.epsilon,
        be_b.aux + be_a.aux,
        be_a.system,
        be_a.diagonal_flag and be_b.diagonal_flag,
        be_a.exact_real_diagonal and be_b.exact_real_diagonal,
    )


@dataclass(frozen=True, eq=False)
class StatePrepPair:
    """Exact (beta, b)-state-preparation pair for LCU coefficients.

    The first columns c, d of P_L, P_R realize the coefficients as
    beta * conj(c_j) * d_j, with conj(c_j) * d_j = 0 beyond the term count.
    `real` marks a pair whose realized coefficients were found exactly real
    when it was built (see :func:`_checked_exact`); an LCU keeps the exact
    real diagonal certificate of its terms only through such a pair.
    """

    p_left: LinearOperator
    p_right: LinearOperator
    beta: float
    b: int
    real: bool = False

    def __post_init__(self):
        if self.p_left.n != self.b or self.p_right.n != self.b:
            raise ContractViolationError("state-prep unitaries must act on b qubits")

    def realized_weights(self) -> np.ndarray:
        e0 = np.zeros(1 << self.b, dtype=np.complex128)
        e0[0] = 1.0
        c = self.p_left.apply(e0)
        d = self.p_right.apply(e0)
        return self.beta * c.conj() * d


def _missed_by(weights: np.ndarray, y: np.ndarray) -> float:
    """Sum_j |y_j - weights_j| over the slots of y; weight beyond them is rejected."""
    y = np.asarray(y, dtype=np.complex128)
    err = float(np.sum(np.abs(weights[: y.size] - y)))
    tail = float(np.max(np.abs(weights[y.size:]), initial=0.0))
    if tail > 1e-12:
        raise ContractViolationError(f"state-prep pair leaks weight {tail} beyond slot {y.size}")
    return err


def _checked_exact(pair: StatePrepPair, y: np.ndarray) -> StatePrepPair:
    """The constructions below are exact; reject a pair that misses y, and
    mark the pair real when its realized coefficients are exactly real."""
    weights = pair.realized_weights()
    err = _missed_by(weights, y)
    if err >= 1e-12:
        raise ContractViolationError(f"state-prep pair misses its coefficients by {err:.3e}")
    return replace(pair, real=not np.any(weights.imag))


def uniform_pair(m: int) -> StatePrepPair:
    """Equal-weight pair for m terms: Hadamards when m is a power of two,
    otherwise the Householder reflection H = I - 2 w w^T with
    w = (e0 - u) / |e0 - u|, which maps |0> to u, the uniform superposition
    over the first m selector values (zero weight on padding slots). H is
    real and its own adjoint, and it is stored as w: 2^b values, not a
    2^b x 2^b matrix."""
    if m < 1:
        raise ContractViolationError("need at least one LCU term")
    b = max(0, (m - 1).bit_length())
    if m == 1 << b or m == 1:
        prep = hadamard_layer(b)
    else:
        w = np.zeros(1 << b)
        w[:m] = -1.0 / np.sqrt(m)
        w[0] += 1.0
        prep = Householder(w / np.linalg.norm(w))
    return _checked_exact(StatePrepPair(prep, prep, 1.0, b), np.full(m, 1.0 / m))


def pair_for_weights(y: np.ndarray) -> StatePrepPair:
    """Exact pair for arbitrary real or complex coefficients y (beta = l1 norm);
    magnitudes go into P_L, phases into P_R."""
    y = np.asarray(y, dtype=np.complex128)
    beta = float(np.sum(np.abs(y)))
    if beta == 0.0:
        raise ContractViolationError("all-zero LCU coefficients")
    b = max(0, (y.size - 1).bit_length())
    mags = np.zeros(1 << b)
    mags[: y.size] = np.sqrt(np.abs(y) / beta)
    phases = np.ones(1 << b, dtype=np.complex128)
    nz = np.abs(y) > 0
    phases[: y.size][nz] = y[nz] / np.abs(y[nz])
    p_left = state_prep_unitary(mags)
    p_right = state_prep_unitary(mags * phases)
    return _checked_exact(StatePrepPair(p_left, p_right, beta, b), y)


def lcu(bes: list[BlockEncoding], pair: StatePrepPair) -> BlockEncoding:
    """Encoding of sum_j y_j A_j via select-and-prepare.

    The select operator applies the j-th encoding controlled on selector value
    j and acts as identity on unused selector values. Terms padded to a
    common ancilla count keep their idle ancillas when those sit at the same
    layout positions in every term; otherwise every term acts on all of its
    qubits.
    """
    if not bes:
        raise ContractViolationError("lcu needs at least one encoding")
    s = bes[0].num_system
    alpha = bes[0].alpha
    for be in bes:
        if be.num_system != s:
            raise ContractViolationError("lcu terms must share the system register")
        if abs(be.alpha - alpha) > 1e-12:
            raise ContractViolationError("lcu terms must share the subnormalization alpha")
    if len(bes) > 1 << pair.b:
        raise ContractViolationError(
            f"{len(bes)} terms exceed the {1 << pair.b} selector values of the pair"
        )
    a = max(be.num_aux for be in bes)
    check_qubit_budget(pair.b + a + s, "lcu encoding")
    padded = [pad_aux(be, a - be.num_aux) for be in bes]
    if any(be.live_qubits != padded[0].live_qubits for be in padded[1:]):
        padded = [_all_live(be) for be in padded]
    n = pair.b + padded[0].op.n
    sel_axes = tuple(range(pair.b))
    select = Multiplexed({j: be.op for j, be in enumerate(padded)}, sel_axes, n)
    op = compose(
        Embedded(pair.p_left.adjoint(), sel_axes, n) if pair.b else Identity(n),
        select,
        Embedded(pair.p_right, sel_axes, n) if pair.b else Identity(n),
    )
    eps_terms = max(be.epsilon for be in bes)
    return _derived(
        op,
        alpha * pair.beta,
        pair.beta * eps_terms,
        (("sel", pair.b, False),) + padded[0].aux,
        padded[0].system,
        all(be.diagonal_flag for be in bes),
        pair.real and all(be.exact_real_diagonal for be in bes),
    )


def hadamard_product(be_a: BlockEncoding, be_b: BlockEncoding) -> BlockEncoding:
    """Encoding of the entrywise product A o B.

    Conjugates U_A (x) U_B by a CNOT ladder between the two system copies; the
    second copy joins the ancillas, giving (alpha_a*alpha_b, a+b+n, ...).
    """
    if be_a.num_system != be_b.num_system:
        raise ContractViolationError(
            f"system size mismatch: {be_a.num_system} vs {be_b.num_system} qubits"
        )
    check_qubit_budget(be_a.num_aux + be_b.num_aux + 2 * be_a.num_system,
                       "hadamard-product encoding")
    a, b, s = be_a.live_aux, be_b.live_aux, be_a.num_system
    n = a + b + 2 * s
    aux_a = tuple(range(a))
    aux_b = tuple(range(a, a + b))
    sys_b = tuple(range(a + b, a + b + s))  # becomes ancilla
    sys_a = tuple(range(a + b + s, n))
    emb_a = Embedded(be_a.op, aux_a + sys_a, n)
    emb_b = Embedded(be_b.op, aux_b + sys_b, n)
    s_dim = 1 << s
    ladder = permutation_from_map(2 * s, lambda i: ((i >> s) ^ (i & (s_dim - 1))) << s | (i & (s_dim - 1)))
    emb_p = Embedded(ladder, sys_b + sys_a, n)
    return _derived(
        compose(emb_p, emb_a, emb_b, emb_p),
        be_a.alpha * be_b.alpha,
        be_a.alpha * be_b.epsilon + be_b.alpha * be_a.epsilon,
        be_a.aux + be_b.aux + (("syscopy", s, False),),
        be_a.system,
        be_a.diagonal_flag or be_b.diagonal_flag,
    )


def dilate(be: BlockEncoding, k: int, trailing: int = 0) -> BlockEncoding:
    """Encoding of diag(x) (x) I_k: each entry repeated 2^k times; parameters unchanged.

    The k new system qubits go ahead of the last `trailing` system qubits,
    which must form whole registers: over a system [p | sample] the result
    spans [p | k | sample] and carries x_(p, s) at every (p, q, s).
    """
    if not be.diagonal_flag:
        raise ContractViolationError("dilate requires a diagonal-flagged encoding")
    if k < 0 or not 0 <= trailing <= be.num_system:
        raise ContractViolationError(
            f"cannot dilate by {k} qubits ahead of {trailing} of {be.num_system} system qubits"
        )
    if k == 0:
        return be
    head, tail = _split_regs(be.system, be.num_system - trailing, "dilation point")
    check_qubit_budget(be.num_aux + be.num_system + k, "dilated encoding")
    n, split = be.op.n + k, be.op.n - trailing
    op = Embedded(be.op, tuple(range(split)) + tuple(range(split + k, n)), n)
    return _derived(
        op, be.alpha, be.epsilon,
        be.aux, head + (("dil", k),) + tail,
        True, be.exact_real_diagonal,
    )


def split_system(be: BlockEncoding, trailing: int) -> BlockEncoding:
    """The same encoding with its last `trailing` system qubits relabelled as a
    `sample` register of their own (cut from the last system register)."""
    if trailing == 0:
        return be
    *head, (last, size) = be.system
    if not 0 < trailing <= size:
        raise ContractViolationError(
            f"cannot split {trailing} qubits off the {size}-qubit register {last!r}"
        )
    if size > trailing:
        head.append((last, size - trailing))
    return _derived(
        be.op, be.alpha, be.epsilon,
        be.aux, (*head, ("sample", trailing)),
        be.diagonal_flag, be.exact_real_diagonal,
    )


def remove_offdiagonal(be: BlockEncoding) -> BlockEncoding:
    """Encoding of diag(A_11, ..., A_NN): the entrywise product with I, which
    zeroes every off-diagonal entry and sets the diagonal flag."""
    return hadamard_product(be, identity_encoding(be.num_system))


def perturb(be: BlockEncoding, eps: float, seed: int) -> BlockEncoding:
    """Seeded unitary perturbation at spectral distance within [0.9 eps,
    0.999 eps], for eps in [0, 2); the epsilon field grows by eps. Drives
    error-bound tests.

    The perturbed unitary is the polar factor of U + t D with D = U W, that
    is U polar(I + t W). W is a seeded unitary V diag(lambda) V^dag whose
    eigenphases lie in [-(pi - m), pi - m], one of them at pi - m
    (m = PERTURB_PHASE_MARGIN). The distance max_k |phase(1 + t lambda_k) - 1|
    then rises continuously and monotonically from 0 to 2 cos(m / 2) > 1.9999
    as t grows, so a bisection on t meets every eps below 2. Two unitaries
    are never more than 2 apart, so eps >= 2 is rejected. The perturbation
    acts on `op`, so idle ancillas stay idle and the distance of the whole
    unitary is that of `op`."""
    if not 0.0 <= eps < 2.0:
        raise ContractViolationError(f"perturbation size must lie in [0, 2), got {eps}")
    if eps == 0.0:
        return be
    base = be.op.dense()
    rng = np.random.default_rng(seed)
    basis = random_unitary(be.op.n, rng)
    phases = (np.pi - PERTURB_PHASE_MARGIN) * rng.uniform(-1.0, 1.0, be.op.dim)
    phases[0] = np.pi - PERTURB_PHASE_MARGIN
    eigenvalues = np.exp(1j * phases)

    def rotation(t: float) -> np.ndarray:
        """Eigenvalues of polar(I + t W)."""
        z = 1.0 + t * eigenvalues
        return z / np.abs(z)

    def distance(t: float) -> float:
        return float(np.max(np.abs(rotation(t) - 1.0)))

    low, high = 0.0, eps
    while distance(high) < 0.9 * eps:
        low, high = high, 2.0 * high
    t = high
    for _ in range(PERTURB_BISECTION_STEPS):
        dist = distance(t)
        if 0.9 * eps <= dist <= 0.999 * eps:
            break
        low, high = (t, high) if dist < 0.9 * eps else (low, t)
        t = 0.5 * (low + high)
    else:
        raise ContractViolationError(f"perturbation bisection did not converge (dist={dist})")
    mat = (base @ basis) * rotation(t) @ basis.conj().T
    return _derived(
        Query(Dense(mat), be.cost), be.alpha, be.epsilon + eps,
        be.aux, be.system, be.diagonal_flag,
    )
