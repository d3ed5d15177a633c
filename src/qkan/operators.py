"""Lazily composed linear operators on qubit spaces.

Operators are immutable trees of structured factors applied matrix-free to
statevectors; dense materialization is reserved for testing at small
dimensions. ``apply`` accepts a vector of shape ``(dim,)`` or a batch of
columns ``(dim, b)`` and acts on axis 0. Qubit positions are counted from
the most significant end, in a block-encoding's register order (ancillas first).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, ResourceLimitError

DEFAULT_MAX_QUBITS = 22
DENSE_CAP_QUBITS = 10
# qubits per pass of WalshHadamard: 4 measured fastest among 2, 3, 4, 5 and 8
WALSH_BLOCK_QUBITS = 4
# a WalshHadamard pass over rows of at most this many float64 values is one
# matmul from the right, not one small matmul per row
WALSH_ROW_WIDTH = 32
# ... and so is a pass whose per-row products would have fewer than this many
# values per row, for which OpenBLAS takes kernels that sum in another order
WALSH_MIN_PRODUCT_WIDTH = 8
# a SystemBlocks product over fewer columns is padded to this many: OpenBLAS
# sums a one-column (gemv) and a 2-4 column real product in another order than
# wider ones, which all agree (measured up to 4099 columns, blocks up to 256)
SYSTEM_BLOCKS_MIN_COLUMNS = 8
# a LabelBlocks or Diagonal leaf followed by untouched qubits repeats its values
# along them and the batch when they hold at most this many values, so that the
# products run one long loop: measured 1.4-1.8x faster at 4, 8 and 32 values, and
# 2.5x slower at 128, with a 9-qubit leaf on 12 qubits (one BLAS thread, 2 vCPU)
LEAF_REPEAT_WIDTH = 32

# construction budget (total qubits of any single operator) of the current context
_max_qubits: ContextVar[int] = ContextVar("qkan_max_qubits", default=DEFAULT_MAX_QUBITS)


def max_qubits() -> int:
    return _max_qubits.get()


@contextmanager
def qubit_budget(n: int) -> Iterator[int]:
    """Construction budget of `n` qubits inside the block, restored on exit;
    the budget is per context (thread or task)."""
    if n < 1:
        raise ContractViolationError("qubit budget must be positive")
    token = _max_qubits.set(n)
    try:
        yield n
    finally:
        _max_qubits.reset(token)


def check_qubit_budget(n: int, what: str = "operator") -> None:
    budget = _max_qubits.get()
    if n > budget:
        raise ResourceLimitError(
            f"{what} needs {n} qubits, exceeding the budget of {budget}",
            required_qubits=n,
        )


def outside_unit_interval(x) -> bool:
    """True unless every entry of `x` lies in [-1, 1]; NaN counts as outside."""
    return not (np.abs(x) <= 1.0).all()


def _as_columns(vec: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """`vec` as a (dim, batch) array of float64 when it is real, of complex128
    otherwise, and whether it was one vector."""
    arr = np.asarray(vec)
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if arr.shape == (dim,):
        return arr[:, None], True
    if arr.ndim == 2 and arr.shape[0] == dim:
        return arr, False
    raise ContractViolationError(f"vector shape {arr.shape} incompatible with dim {dim}")


def _real_if_exact(array) -> np.ndarray:
    """`array` as float64 when it is real or its imaginary part is exactly
    zero, as complex128 otherwise."""
    arr = np.asarray(array)
    if not np.iscomplexobj(arr):
        return arr.astype(np.float64, copy=False)
    if np.any(arr.imag):
        return arr.astype(np.complex128, copy=False)
    return np.ascontiguousarray(arr.real, dtype=np.float64)


class LinearOperator:
    """Base class; subclasses implement `_apply` on a (dim, batch) array.

    `_apply` keeps the dtype of its columns where the operator is real: a
    float64 column stays float64 through real leaves, and numpy promotes it
    to complex128 at the first complex one. :meth:`apply` returns complex128.
    """

    n: int  # qubit count
    # leaf applications in one application, counting a subtree shared by
    # several parents once per occurrence; nodes set it at construction
    leaves = 1

    @property
    def dim(self) -> int:
        return 1 << self.n

    def _apply(self, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, vec: np.ndarray, rows: int | np.ndarray | None = None) -> np.ndarray:
        """The operator applied to `vec`, one vector or a (dim, batch) array,
        as complex128. With `rows`, each result is projected onto an
        encoding's ancilla state, whose system qubits trail, and only the
        projection is converted from a real result. `rows` is either the
        system dimension S, and the leading S entries are kept (<0|_aux), or
        a row vector l over the 2^a ancilla states, and the projection is
        sum_i l_i times the i-th of the 2^a slices of S entries (<l|_aux, see
        :func:`~qkan.block_encoding.read_block`)."""
        cols, squeeze = _as_columns(vec, self.dim)
        out = self._apply(cols)
        if isinstance(rows, np.ndarray):
            out = (rows @ out.reshape(rows.shape[0], -1)).reshape(-1, out.shape[1])
        elif rows is not None:
            out = out[:rows]
        out = out.astype(np.complex128, copy=False)
        return out[:, 0] if squeeze else out

    def adjoint(self) -> "LinearOperator":
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        if self.n > DENSE_CAP_QUBITS:
            raise ResourceLimitError(
                f"dense materialization of {self.n} qubits exceeds cap {DENSE_CAP_QUBITS}",
                required_qubits=self.n,
            )
        return self._apply(np.eye(self.dim, dtype=np.complex128))

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return compose(self, other)


@dataclass(frozen=True, eq=False)
class Identity(LinearOperator):
    n: int

    def _apply(self, cols):
        return cols

    def adjoint(self):
        return self


@dataclass(frozen=True, eq=False)
class Dense(LinearOperator):
    matrix: np.ndarray

    def __post_init__(self):
        mat = _real_if_exact(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ContractViolationError(f"dense operator must be square, got {mat.shape}")
        n = int(mat.shape[0]).bit_length() - 1
        if 1 << n != mat.shape[0]:
            raise ContractViolationError(f"dense dimension {mat.shape[0]} is not a power of two")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "n", n)

    def _apply(self, cols):
        return self.matrix @ cols

    def adjoint(self):
        return Dense(self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class Diagonal(LinearOperator):
    values: np.ndarray

    def __post_init__(self):
        vals = _real_if_exact(self.values)
        n = int(vals.shape[0]).bit_length() - 1
        if vals.ndim != 1 or 1 << n != vals.shape[0]:
            raise ContractViolationError(f"diagonal length {vals.shape} is not a power of two")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n", n)

    def _apply(self, cols):
        return self._act(cols, _leaf_plan(tuple(range(self.n)), self.n))

    def _act(self, cols, plan: _LeafPlan) -> np.ndarray:
        """The diagonal on the qubits that `plan` names (:func:`_leaf_plan`)."""
        view = cols.reshape(plan.shape)
        return (plan.spread_out(self.values, view.shape[-1]) * view).reshape(cols.shape)

    def adjoint(self):
        return Diagonal(self.values.conj())


@dataclass(frozen=True, eq=False)
class Permutation(LinearOperator):
    """Basis permutation: maps |i> to |perm[i]>."""

    perm: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        n = int(perm.shape[0]).bit_length() - 1
        if perm.ndim != 1 or 1 << n != perm.shape[0]:
            raise ContractViolationError("permutation length must be a power of two")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "n", n)

    def _apply(self, cols):
        out = np.empty_like(cols)
        out[self.perm] = cols
        return out

    def adjoint(self):
        inverse = np.empty_like(self.perm)
        inverse[self.perm] = np.arange(self.perm.shape[0])
        return Permutation(inverse)


class LabelBlocks(LinearOperator):
    """One real orthogonal 2x2 block between |0>|j> and |1>|j> for every label
    j of the trailing qubits: the reflection [[x_j, s_j], [s_j, -x_j]] or, with
    `rotation`, the rotation [[x_j, -s_j], [s_j, x_j]]. Stored in O(2^n)
    memory as the read-only array [x; s], the first column of a reflection's
    blocks, of which `x`, the top-left entries, is the first half.

    Products of such leaves are such leaves (:meth:`times`), so a sequence of
    them on the same qubits folds into one. `folded_leaves` is the number of
    leaf applications, Z included, that a folded leaf stands for (see
    :func:`unfolded_leaves` and :func:`describe`); 1 for a leaf built as it
    is. :meth:`reflection` builds the reflection of given values."""

    def __init__(self, xs: np.ndarray, rotation: bool = False, folded_leaves: int = 1):
        xs = np.asarray(xs, dtype=np.float64)
        labels = int(xs.shape[0]) // 2 if xs.ndim == 1 else 0
        if labels & (labels - 1) or not labels or xs.shape != (2 * labels,):
            raise ContractViolationError(f"label count of {xs.shape} is not a power of two")
        if xs.flags.writeable or xs.base is not None:  # keep no view of the caller's array
            xs = xs.copy()
            xs.setflags(write=False)
        self._xs, self.rotation, self.folded_leaves = xs, rotation, folded_leaves
        self.x, self.n = xs[:labels], labels.bit_length()

    @classmethod
    def reflection(cls, x) -> "LabelBlocks":
        """The reflection with s = sqrt(1 - x^2): Hermitian and unitary for x
        in [-1, 1]. It holds a copy of `x`, so later edits of the caller's
        array do not reach the operator."""
        x = np.asarray(x, dtype=np.float64)
        labels = int(x.shape[0]) if x.ndim == 1 else 0
        if labels & (labels - 1) or not labels:
            raise ContractViolationError(f"label count {x.shape} is not a power of two")
        if outside_unit_interval(x):
            raise ContractViolationError("reflection entries must lie in [-1, 1]")
        xs = np.empty(2 * labels)
        xs[:labels] = x
        np.sqrt(1.0 - x * x, out=xs[labels:])
        xs.setflags(write=False)
        return cls(xs)

    def reflected(self) -> "LabelBlocks":
        """self @ Z, Z = diag(1, -1) on the first qubit: the same [x; s] with
        the kind flipped, since a rotation times Z is the reflection of the
        same angle and a reflection times Z the rotation."""
        return LabelBlocks(self._xs, not self.rotation, self.folded_leaves + 1)

    def times(self, other: "LabelBlocks") -> "LabelBlocks":
        """self @ other, per label an angle addition (after a rotation) or
        subtraction (after a reflection): 4 multiplies and 2 adds. Two leaves
        of one kind give a rotation, two of different kinds a reflection."""
        labels = self.x.shape[0]
        if other.x.shape[0] != labels:
            raise ContractViolationError(f"label counts {labels} and {other.x.shape[0]} differ")
        c, s = self.x, self._xs[labels:]
        c2, s2 = other.x, other._xs[labels:]
        xs = np.empty(2 * labels)
        if self.rotation:
            np.subtract(c * c2, s * s2, out=xs[:labels])
            np.add(s * c2, c * s2, out=xs[labels:])
        else:
            np.add(c * c2, s * s2, out=xs[:labels])
            np.subtract(s * c2, c * s2, out=xs[labels:])
        xs.setflags(write=False)
        return LabelBlocks(
            xs, self.rotation == other.rotation, self.folded_leaves + other.folded_leaves
        )

    def _apply(self, cols):
        return self._act(cols, _leaf_plan(tuple(range(self.n)), self.n))

    def _act(self, cols, plan: _LeafPlan) -> np.ndarray:
        """The blocks on the qubits that `plan` names (:func:`_leaf_plan`)."""
        view = cols.reshape(plan.shape)
        xs = plan.spread_out(self._xs, view.shape[-1])
        x, s = xs[plan.top], xs[plan.bottom]
        top, bottom = view[plan.top], view[plan.bottom]
        out = xs * view  # [x * top; s * bottom]
        upper, lower = out[plan.top], out[plan.bottom]
        if self.rotation:
            upper -= lower  # x * top - s * bottom
            np.multiply(s, top, out=lower)
            lower += x * bottom
        else:
            upper += lower  # x * top + s * bottom
            np.multiply(s, top, out=lower)
            lower -= x * bottom
        return out.reshape(cols.shape)

    def __repr__(self) -> str:
        kind = "rotation" if self.rotation else "reflection"
        return f"LabelBlocks({kind}, n={self.n}, folded_leaves={self.folded_leaves})"

    def adjoint(self):
        if not self.rotation:
            return self
        labels = self.x.shape[0]
        xs = np.concatenate((self.x, -self._xs[labels:]))
        xs.setflags(write=False)
        return LabelBlocks(xs, True, self.folded_leaves)


@lru_cache(maxsize=None)
def _sylvester_block(k: int, inner: int = 1) -> np.ndarray:
    """Read-only real 2^k x 2^k Sylvester-Hadamard matrix scaled by 2^(-k/2),
    tensored with the identity on `inner` trailing values. Symmetric."""
    block = np.ones((1, 1))
    for _ in range(k):
        block = np.block([[block, block], [block, -block]])
    block = np.kron(block * 2.0 ** (-k / 2), np.eye(inner))
    block.setflags(write=False)
    return block


@dataclass(frozen=True, eq=False)
class WalshHadamard(LinearOperator):
    """H on each of the contiguous qubits start .. start+count-1 of an n-qubit
    space (count defaults to the rest of the register).

    Applied as a fast Walsh-Hadamard transform in runs of up to
    WALSH_BLOCK_QUBITS qubits: each run is one real matmul of a Sylvester
    block on a (2^q, 2^k, -1) float64 view of the columns, so real columns
    stay real and the interleaved real and imaginary parts of complex ones
    go through the same GEMM. When the rows of that view hold at most
    WALSH_ROW_WIDTH values (the last qubits of a few columns), the 2^q
    stacked products would each be tiny, so the rows are multiplied from the
    right by the block tensored with the identity instead; so they are when
    a stacked product would have fewer than WALSH_MIN_PRODUCT_WIDTH values
    per row, which OpenBLAS sums in another order than wider products and
    rows from the right (measured). A column read alone then gets the bits
    it gets among the other columns of a read. It is real and symmetric,
    hence its own adjoint.
    """

    n: int
    start: int = 0
    count: int | None = None

    def __post_init__(self):
        count = self.n - self.start if self.count is None else self.count
        if self.start < 0 or count < 1 or self.start + count > self.n:
            raise ContractViolationError(
                f"Hadamard qubits {self.start}..{self.start + count - 1} "
                f"out of range for {self.n} qubits"
            )
        check_qubit_budget(self.n)
        object.__setattr__(self, "count", count)
        stop = self.start + count
        runs = tuple(
            (1 << q, min(WALSH_BLOCK_QUBITS, stop - q))
            for q in range(self.start, stop, WALSH_BLOCK_QUBITS)
        )
        object.__setattr__(self, "_runs", runs)

    def _apply(self, cols):
        x = np.ascontiguousarray(cols)  # an Embedded view may be strided
        spare = None  # a buffer of ours, free to overwrite; never the caller's array
        for lead, k in self._runs:
            out = np.empty_like(x) if spare is None else spare
            src, dst = x.view(np.float64), out.view(np.float64)
            width = src.size // lead
            if width <= WALSH_ROW_WIDTH or width >> k < WALSH_MIN_PRODUCT_WIDTH:
                np.matmul(src.reshape(lead, width), _sylvester_block(k, width >> k),
                          out=dst.reshape(lead, width))
            else:
                shape = (lead, 1 << k, -1)
                np.matmul(_sylvester_block(k), src.reshape(shape), out=dst.reshape(shape))
            spare, x = (None if x is cols else x), out
        return x

    def adjoint(self):
        return self


class _SharedBlocks:
    """The (blocks, adjoint blocks) arrays of a SystemBlocks leaf and of its
    adjoint, or `read`, a function that returns a leaf with given blocks. The
    function is called once, on first use, and dropped with all it refers
    to when it returns; when it raises, the next use calls it again."""

    __slots__ = ("arrays", "read")

    def __init__(self, arrays=None, read=None):
        self.arrays, self.read = arrays, read

    def get(self) -> tuple[np.ndarray, np.ndarray]:
        if self.arrays is None:
            self.arrays = self.read()._shared.get()
            self.read = None
        return self.arrays


class SystemBlocks(LinearOperator):
    """Block-diagonal operator over the trailing system qubits: the a leading
    qubits get blocks[j] when the s trailing ones read j, a quantum
    multiplexor (Shende, Bullock and Markov, quant-ph/0406176).

    `blocks` has shape (2^s, 2^a, 2^a). The apply is one batched matmul on
    the (2^a, 2^s, batch) view of the columns, transposed to put the system
    first; a batch narrower than SYSTEM_BLOCKS_MIN_COLUMNS is padded with
    zero columns, so a column gets the same bits in any batch.
    `adjoint_blocks` holds the conjugate transposes, computed once; the
    adjoint swaps the two arrays, so every occurrence shares them and no
    node refers back to another. `replaced_leaves` is
    the leaf count of the tree the blocks were read from (see
    :func:`describe`).

    A leaf made by :meth:`deferred` knows a, s and `replaced_leaves` from
    the start, and reads its blocks on its first apply or the first access
    of `blocks` or `adjoint_blocks`, its own or its adjoint's: the two share
    that one read."""

    def __init__(self, blocks, replaced_leaves: int = 1):
        blocks = _real_if_exact(blocks)
        s = int(blocks.shape[0]).bit_length() - 1 if blocks.ndim == 3 else -1
        a = int(blocks.shape[1]).bit_length() - 1 if blocks.ndim == 3 else -1
        if a < 0 or s < 0 or blocks.shape != (1 << s, 1 << a, 1 << a):
            raise ContractViolationError(
                f"system blocks need shape (2^s, 2^a, 2^a), got {blocks.shape}"
            )
        adjoint = np.conjugate(blocks.transpose(0, 2, 1), out=np.empty_like(blocks))
        self._share(_SharedBlocks((blocks, adjoint)), a, s, replaced_leaves, False)

    @classmethod
    def deferred(cls, read, a: int, s: int, replaced_leaves: int) -> "SystemBlocks":
        """A leaf of 2^s blocks of 2^a x 2^a, whose blocks are those of the
        leaf that `read()` returns, read on first use."""
        leaf = cls.__new__(cls)
        leaf._share(_SharedBlocks(read=read), a, s, replaced_leaves, False)
        return leaf

    def _share(self, shared: _SharedBlocks, a: int, s: int, replaced_leaves: int, flipped: bool):
        self._shared, self._flipped = shared, flipped
        self.a, self.s, self.n, self.replaced_leaves = a, s, a + s, replaced_leaves

    @property
    def blocks(self) -> np.ndarray:
        return self._shared.get()[self._flipped]

    @property
    def adjoint_blocks(self) -> np.ndarray:
        return self._shared.get()[not self._flipped]

    def _apply(self, cols):
        blocks = self.blocks
        systems, aux = blocks.shape[:2]
        batch = cols.shape[1]
        view = cols.reshape(aux, systems, batch).transpose(1, 0, 2)
        if batch < SYSTEM_BLOCKS_MIN_COLUMNS:
            view = np.concatenate(
                [view, np.zeros((systems, aux, SYSTEM_BLOCKS_MIN_COLUMNS - batch), cols.dtype)],
                axis=2,
            )
        out = np.empty((aux, systems, view.shape[2]), dtype=np.result_type(blocks, cols))
        np.matmul(blocks, view, out=out.transpose(1, 0, 2))
        return out[:, :, :batch].reshape(cols.shape)

    def __repr__(self) -> str:
        return f"SystemBlocks(a={self.a}, s={self.s}, replaced_leaves={self.replaced_leaves})"

    def adjoint(self):
        leaf = SystemBlocks.__new__(SystemBlocks)
        leaf._share(self._shared, self.a, self.s, self.replaced_leaves, not self._flipped)
        return leaf


@dataclass(frozen=True, eq=False)
class Composed(LinearOperator):
    """Matrix product: factors[0] @ factors[1] @ ... (rightmost applied first)."""

    factors: tuple[LinearOperator, ...]

    def __post_init__(self):
        if not self.factors:
            raise ContractViolationError("composition needs at least one factor")
        n, leaves = self.factors[0].n, 0
        for op in self.factors:
            if op.n != n:
                raise ContractViolationError(
                    f"composition dimension mismatch: {op.n} qubits vs {n}"
                )
            leaves += op.leaves
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "leaves", leaves)

    def _apply(self, cols):
        for op in reversed(self.factors):
            cols = op._apply(cols)
        return cols

    def adjoint(self):
        return Composed(tuple(op.adjoint() for op in reversed(self.factors)))


class _AxisPlan(NamedTuple):
    shape: tuple[int, ...]  # source view: merged qubit runs, then -1 for the batch
    forward: tuple[int, ...]  # transposition bringing the moved axes to the front
    moved: tuple[int, ...]  # shape after `forward`
    inverse: tuple[int, ...]  # transposition undoing `forward`


@lru_cache(maxsize=4096)
def _axis_plan(axes: tuple[int, ...], n: int) -> _AxisPlan:
    """Reshape/transpose plan that brings the qubit `axes` of a (2^n, batch)
    array to the front, in order, ahead of the other qubits in ascending order.

    Qubits that stay adjacent under the move form one dimension of the view,
    and the batch joins a run that ends on the last qubit, so leading
    contiguous axes give identity transpositions and zero-copy reshapes.
    """
    order = list(axes) + [q for q in range(n) if q not in axes] + [n]  # n: the batch
    runs = [[order[0]]]
    for q in order[1:]:
        if q == runs[-1][-1] + 1:
            runs[-1].append(q)
        else:
            runs.append([q])
    sizes = [-1 if run[-1] == n else 1 << len(run) for run in runs]
    source = sorted(range(len(runs)), key=lambda i: runs[i][0])  # runs in source order
    return _AxisPlan(
        shape=tuple(sizes[i] for i in source),
        forward=tuple(source.index(i) for i in range(len(runs))),
        moved=tuple(sizes),
        inverse=tuple(source),
    )


class _LeafPlan(NamedTuple):
    shape: tuple[int, ...]  # source view: qubit runs, the leaf's first qubit alone, then -1
    runs: tuple[int, ...]  # sizes of the leaf's runs, in its own qubit order
    order: tuple[int, ...]  # transposition bringing those runs into source order
    spread: tuple  # index giving them a unit axis at every other run of `shape`
    top: tuple  # index of the entries whose leaf's first qubit reads 0 ...
    bottom: tuple  # ... and 1
    last: bool  # the leaf acts on the last qubit, so the batch is a run of its own

    def spread_out(self, values: np.ndarray, trailing: int) -> np.ndarray:
        """The leaf's 2^k `values` as a tensor of its runs, spread against
        the view. The view's last dimension, of size `trailing`, is the
        batch, with the untouched qubits after the leaf's last qubit if
        there are any, and the innermost loop of the products. Narrower than
        the leaf's last run, it gets the values repeated along it, so that
        the loop runs over both: always when it is the batch alone, and up
        to LEAF_REPEAT_WIDTH values with untouched qubits."""
        spread = values.reshape(self.runs).transpose(self.order)[self.spread]
        if 1 < trailing < spread.shape[-2] and (self.last or trailing <= LEAF_REPEAT_WIDTH):
            repeated = np.empty(spread.shape[:-1] + (trailing,), spread.dtype)
            repeated[...] = spread
            return repeated
        return spread


@lru_cache(maxsize=4096)
def _leaf_plan(axes: tuple[int, ...], n: int) -> _LeafPlan:
    """Views on which a LabelBlocks or Diagonal leaf acts on the qubit `axes`
    of a (2^n, batch) array where they are, by broadcast products. Adjacent
    qubits form one dimension when none is acted on, or when they are
    consecutive qubits of the leaf other than its first."""
    role = {q: i for i, q in enumerate(axes)}
    runs = [[0]]
    for q in range(1, n + 1):  # n: the batch
        prev = runs[-1][-1]
        if (q not in role and prev not in role) or (
            q in role and prev in role and 0 < role[prev] == role[q] - 1
        ):
            runs[-1].append(q)
        else:
            runs.append([q])
    acted = sorted((i for i, run in enumerate(runs) if run[0] in role), key=lambda i: role[runs[i][0]])
    head = (slice(None),) * (acted[0] if acted else 0)
    return _LeafPlan(
        shape=tuple(-1 if run[-1] == n else 1 << len(run) for run in runs),
        runs=tuple(1 << len(runs[i]) for i in acted),
        order=tuple(sorted(range(len(acted)), key=acted.__getitem__)),
        spread=tuple(slice(None) if run[0] in role else None for run in runs),
        top=head + (0,),
        bottom=head + (1,),
        last=n - 1 in role,
    )


def _leaf_steps(op: LinearOperator, axes: tuple[int, ...], n: int) -> tuple | None:
    """(leaf, plan) pairs in the order they apply when `op`, on the qubit
    `axes` of n, is made only of LabelBlocks and Diagonal leaves under
    Query, Composed and Embedded nodes; None otherwise."""
    if isinstance(op, (LabelBlocks, Diagonal)):
        return ((op, _leaf_plan(axes, n)),)
    if isinstance(op, Embedded):
        axes = tuple(axes[a] for a in op.axes)
    elif not isinstance(op, (Query, Composed)):
        return None
    steps: tuple = ()
    for child in reversed(_children(op)):
        found = _leaf_steps(child, axes, n)
        if found is None:
            return None
        steps += found
    return steps


@dataclass(frozen=True, eq=False)
class Embedded(LinearOperator):
    """Apply `inner` on the listed qubit axes of an `n`-qubit space.

    The order of `axes` fixes which axis plays which role for `inner`
    (axes[0] is inner's most significant qubit); axes need not be contiguous.
    An embedded `Embedded` is flattened into one node at construction.

    The first apply plans the node: when `inner` is made only of diagonal
    leaves (:func:`_leaf_steps`), each acts on its qubits where they are;
    otherwise `inner` acts on the columns transposed (:func:`_axis_plan`).
    """

    inner: LinearOperator
    axes: tuple[int, ...]
    n: int

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(set(axes)) != len(axes):
            raise ContractViolationError(f"repeated axes {axes}")
        if self.inner.n != len(axes):
            raise ContractViolationError(
                f"inner acts on {self.inner.n} qubits but {len(axes)} axes were given"
            )
        if any(a < 0 or a >= self.n for a in axes):
            raise ContractViolationError(f"axes {axes} out of range for {self.n} qubits")
        check_qubit_budget(self.n)
        if isinstance(self.inner, Embedded):
            axes = tuple(axes[a] for a in self.inner.axes)
            object.__setattr__(self, "inner", self.inner.inner)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "leaves", self.inner.leaves)

    def _apply(self, cols):
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = _leaf_steps(self.inner, self.axes, self.n) or _axis_plan(self.axes, self.n)
            object.__setattr__(self, "_plan", plan)
        if not isinstance(plan, _AxisPlan):
            for leaf, leaf_plan in plan:
                cols = leaf._act(cols, leaf_plan)
            return cols
        shape, forward, moved, inverse = plan
        tensor = cols.reshape(shape).transpose(forward).reshape(self.inner.dim, -1)
        tensor = self.inner._apply(tensor).reshape(moved).transpose(inverse)
        return tensor.reshape(cols.shape)

    def adjoint(self):
        return Embedded(self.inner.adjoint(), self.axes, self.n)


def restrict_to_leading(op: LinearOperator, a: int) -> LinearOperator | None:
    """The operator A on the leading `a` qubits with op = A (x) I, when `op`
    is a WalshHadamard or an Embedded whose qubits all lie among them; None
    for any other operator, and for one that acts on a later qubit."""
    if isinstance(op, WalshHadamard) and op.start + op.count <= a:
        return WalshHadamard(a, op.start, op.count)
    if isinstance(op, Embedded) and max(op.axes) < a:
        return Embedded(op.inner, op.axes, a)
    return None


@dataclass(frozen=True, eq=False)
class Multiplexed(LinearOperator):
    """Select operator: applies branches[v] on the non-selector qubits when the
    selector register reads v, identity on selector values without a branch."""

    branches: Mapping[int, LinearOperator]
    selector_axes: tuple[int, ...]
    n: int

    def __post_init__(self):
        axes = tuple(self.selector_axes)
        object.__setattr__(self, "selector_axes", axes)
        object.__setattr__(self, "branches", dict(self.branches))
        rest, leaves = self.n - len(axes), 0
        for value, op in self.branches.items():
            if not 0 <= value < (1 << len(axes)):
                raise ContractViolationError(f"selector value {value} out of range")
            if op.n != rest:
                raise ContractViolationError(
                    f"branch for value {value} acts on {op.n} qubits, expected {rest}"
                )
            leaves += op.leaves
        check_qubit_budget(self.n)
        object.__setattr__(self, "_plan", _axis_plan(axes, self.n))
        object.__setattr__(self, "leaves", leaves or 1)

    def _apply(self, cols):
        shape, forward, _, inverse = self._plan
        tensor = np.array(cols.reshape(shape).transpose(forward), order="C")  # selector first
        slabs = tensor.reshape(1 << len(self.selector_axes), -1, cols.shape[1])
        for value, op in self.branches.items():
            result = op._apply(slabs[value])
            if result.dtype != tensor.dtype:  # a complex branch on real columns
                tensor = tensor.astype(np.result_type(tensor, result))
                slabs = tensor.reshape(slabs.shape)
            slabs[value] = result
        return tensor.transpose(inverse).reshape(cols.shape)

    def adjoint(self):
        return Multiplexed(
            {v: op.adjoint() for v, op in self.branches.items()}, self.selector_axes, self.n
        )


@dataclass(frozen=True, eq=False)
class Query(LinearOperator):
    """One application of a block-encoding: applies `inner` and records the
    primitive queries (name -> count) that one application makes.

    A query is an application of U, U^dag or controlled-U, so the adjoint
    keeps `counts`, and :func:`query_counts` reads them without looking
    inside `inner`.
    """

    inner: LinearOperator
    counts: Mapping[str, int]

    def __post_init__(self):
        counts = dict(self.counts)
        if any(value < 0 for value in counts.values()):
            raise ContractViolationError(f"negative query counts {counts}")
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "n", self.inner.n)
        object.__setattr__(self, "leaves", self.inner.leaves)

    def _apply(self, cols):
        return self.inner._apply(cols)

    def adjoint(self):
        return Query(self.inner.adjoint(), self.counts)


def _children(op: LinearOperator) -> tuple[LinearOperator, ...]:
    if isinstance(op, Composed):
        return op.factors
    if isinstance(op, (Embedded, Query)):
        return (op.inner,)
    if isinstance(op, Multiplexed):
        return tuple(op.branches.values())
    return ()


def query_counts(op: LinearOperator) -> dict[str, int]:
    """Primitive queries one application of `op` makes: the `counts` of every
    :class:`Query` occurrence under its Composed/Embedded/Multiplexed nodes,
    summed. A subtree shared by several parents counts once per occurrence,
    because each occurrence is applied. Nodes are immutable, so each keeps
    its counts after the first walk; every call returns a fresh dict."""
    return dict(_query_counts(op))


def _query_counts(op: LinearOperator) -> Mapping[str, int]:
    found = op.__dict__.get("_query_counts")
    if found is not None:
        return found
    if isinstance(op, Query):
        counts = dict(op.counts)
    else:
        counts = {}
        for child in _children(op):
            for key, value in _query_counts(child).items():
                counts[key] = counts.get(key, 0) + value
    found = MappingProxyType(counts)
    object.__setattr__(op, "_query_counts", found)
    return found


def unfolded_leaves(op: LinearOperator) -> int:
    """Leaf applications of one application of `op`, as
    :attr:`~LinearOperator.leaves` counts them, but with each LabelBlocks
    leaf counted as its `folded_leaves`: the leaf count of the tree that the
    folds replaced. Kept on each node after the first walk, as
    :func:`query_counts` is."""
    found = op.__dict__.get("_unfolded_leaves")
    if found is None:
        children = _children(op)
        if isinstance(op, LabelBlocks):
            found = op.folded_leaves
        elif children:
            found = sum(unfolded_leaves(child) for child in children)
        else:
            found = op.leaves
        object.__setattr__(op, "_unfolded_leaves", found)
    return found


def describe(op: LinearOperator, memo: dict | None = None) -> dict:
    """Nested view of an operator tree: for each node its `kind`, qubit count
    `n`, `leaves` (:attr:`LinearOperator.leaves`) and `children`, plus `axes`
    (Embedded), `selector_axes` and branch `values` (Multiplexed), `counts`
    (Query), `start` and `count` (WalshHadamard), `rotation` and `folded_leaves`
    (LabelBlocks) or `a`, `s` and `replaced_leaves` (SystemBlocks). A
    subtree shared by several parents appears once per occurrence, as its
    dict; `memo` caches the dicts by node."""
    memo = {} if memo is None else memo
    found = memo.get(op)
    if found is not None:
        return found
    children = [describe(child, memo) for child in _children(op)]
    node: dict = {"kind": type(op).__name__, "n": op.n}
    if isinstance(op, Embedded):
        node["axes"] = op.axes
    elif isinstance(op, Multiplexed):
        node["selector_axes"] = op.selector_axes
        node["values"] = tuple(op.branches)
    elif isinstance(op, Query):
        node["counts"] = dict(op.counts)
    elif isinstance(op, WalshHadamard):
        node["start"] = op.start
        node["count"] = op.count
    elif isinstance(op, LabelBlocks):
        node["rotation"] = op.rotation
        node["folded_leaves"] = op.folded_leaves
    elif isinstance(op, SystemBlocks):
        node["a"] = op.a
        node["s"] = op.s
        node["replaced_leaves"] = op.replaced_leaves
    node["leaves"] = op.leaves
    node["children"] = children
    memo[op] = node
    return node


_DESCRIBED_FIELDS = (
    "n", "axes", "selector_axes", "values", "counts", "start", "count",
    "rotation", "folded_leaves", "a", "s", "replaced_leaves",
)


def describe_text(op: LinearOperator) -> str:
    """:func:`describe` as an indented outline, one node per line."""
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        fields = [f"{key}={node[key]}" for key in _DESCRIBED_FIELDS if key in node]
        lines.append("  " * depth + " ".join([node["kind"], *fields, f"leaves={node['leaves']}"]))
        for child in node["children"]:
            walk(child, depth + 1)

    walk(describe(op), 0)
    return "\n".join(lines)


def kron(*ops: LinearOperator) -> LinearOperator:
    """Tensor product, first factor most significant."""
    total = sum(op.n for op in ops)
    check_qubit_budget(total, "tensor product")
    factors = []
    offset = 0
    for op in ops:
        if op.n > 0 and not isinstance(op, Identity):
            factors.append(Embedded(op, tuple(range(offset, offset + op.n)), total))
        offset += op.n
    if not factors:
        return Identity(total)
    if len(factors) == 1:
        return factors[0]
    return Composed(tuple(factors))


def compose(*ops: LinearOperator) -> LinearOperator:
    """Matrix product of equal-dimension operators (rightmost applied first).
    Identity factors, also embedded ones, are dropped."""
    if not ops:
        raise ContractViolationError("composition needs at least one factor")
    n = ops[0].n
    for op in ops:
        if op.n != n:
            raise ContractViolationError(f"composition dimension mismatch: {op.n} qubits vs {n}")
    flat: list[LinearOperator] = []
    for op in ops:
        if isinstance(op, Composed):
            flat.extend(op.factors)
        elif not isinstance(op, Identity) and not (
            isinstance(op, Embedded) and isinstance(op.inner, Identity)
        ):
            flat.append(op)
    if not flat:
        return Identity(n)
    if len(flat) == 1:
        return flat[0]
    return Composed(tuple(flat))


def reflection_about_zero(n: int) -> LinearOperator:
    """2|0><0| - I on an n-qubit register."""
    values = -np.ones(1 << n)
    values[0] = 1.0
    return Diagonal(values)


def permutation_from_map(n: int, fn) -> Permutation:
    """Permutation |i> -> |fn(i)> from an index map over n qubits."""
    src = np.arange(1 << n)
    perm = np.array([fn(int(i)) for i in src], dtype=np.int64)
    if sorted(perm.tolist()) != src.tolist():
        raise ContractViolationError("index map is not a bijection")
    return Permutation(perm)


def unitarity_defect(op: LinearOperator) -> float:
    """Max-norm deviation of A^dag A from the identity (dense check)."""
    mat = op.dense()
    gram = mat.conj().T @ mat
    return float(np.max(np.abs(gram - np.eye(op.dim))))


def hadamard_layer(n: int) -> LinearOperator:
    """H^{(x)n} as one :class:`WalshHadamard` leaf; identity for n = 0."""
    if n == 0:
        return Identity(0)
    return WalshHadamard(n)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Ginibre matrix."""
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def state_prep_unitary(target: Sequence[complex]) -> Dense:
    """Unitary whose first column is the given unit vector."""
    vec = np.asarray(target, dtype=np.complex128)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-10:
        raise ContractViolationError(f"state-prep target has norm {norm}, expected 1")
    dim = vec.shape[0]
    if dim & (dim - 1):
        raise ContractViolationError(f"state-prep dimension {dim} is not a power of two")
    basis = np.eye(dim, dtype=np.complex128)
    # complete vec with identity columns, dropping the one most parallel to vec
    drop = int(np.argmax(np.abs(vec)))
    cols = [vec] + [basis[:, j] for j in range(dim) if j != drop]
    q, r = np.linalg.qr(np.stack(cols, axis=1))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Dense(q)
