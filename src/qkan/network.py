"""CHEB-QKAN layers: spec types, the five-step builder, recursive network
composition, and the exact classical reference evaluator.

A layer maps a diagonal encoding of x in [-1,1]^N to a diagonal encoding of
Phi(x) in [-1,1]^K with

    Phi(x)_q = (1/N) sum_p phi_pq(x_p),
    phi_pq(x) = (1/(d+1)) sum_r w_pq^(r) T_r(x),

via DILATE (append k output qubits), CHEB (degree-r transforms), MUL
(weight products), LCU (equal-weight combination over degrees), and SUM
(Hadamard conjugation absorbing the n input qubits into the ancillas).

CHEB is built before DILATE: the QSVT circuit of U (x) I is that of U with I
on the extra qubits, so T_r(B (x) I_k) = T_r(B) (x) I_k. Each transform, and
its Hermiticity guard, acts on the layer input B, and the result is dilated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block_encoding import (
    BlockEncoding,
    StatePrepPair,
    _derived,
    _split_regs,
    compile_system_blocks,
    dilate,
    lcu,
    product,
    uniform_pair,
)
from .chebyshev import HERMITICITY_PROBES, chebyshev_be
from .encoders import encode_diagonal_exact
from .errors import ContractViolationError, DomainError
from .operators import (
    WalshHadamard,
    check_qubit_budget,
    compose,
    outside_unit_interval,
    unfolded_leaves,
)

WeightEncoder = Callable[[np.ndarray, str], BlockEncoding]

# Static cost model of compiling a layer output into one SystemBlocks leaf (see
# compile_threshold), in seconds. Measured with one BLAS thread on a 2-vCPU x86-64
# host (numpy 2.4): a leaf of a layer tree costs about 6.5 us per application
# plus 2 ns per amplitude it passes; the batched block product 0.15 ns per
# complex multiply-add; the compile, besides its tree application, 0.1 ms plus
# 10 ns per block entry (reordering the blocks, their adjoint, the check).
COMPILE_CALL_S = 6.5e-6
COMPILE_AMP_S = 2e-9
COMPILE_MAC_S = 1.5e-10
COMPILE_ENTRY_S = 1e-8
COMPILE_FIXED_S = 1e-4
COMPILE_MAX_ENTRIES = 1 << 20  # 4^a 2^s real block entries at most: 8 MiB, twice with the adjoint


def selector_qubits(degree: int) -> int:
    """ceil(log2(d+1)) LCU selector qubits."""
    return degree.bit_length()


def _log2_pow2(value: int, what: str) -> int:
    n = max(0, value.bit_length() - 1)
    if value != 1 << n:
        raise ContractViolationError(f"{what} must be a power of two, got {value}")
    return n


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One layer: weight tensor w[r][p][q] with r in 0..d, p in 1..N, q in 1..K."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 3:
            raise ContractViolationError(f"weights must have shape (d+1, N, K), got {w.shape}")
        object.__setattr__(self, "weights", w)
        _log2_pow2(w.shape[1], "input node count")
        _log2_pow2(w.shape[2], "output node count")
        if outside_unit_interval(w):
            raise DomainError(f"weights outside [-1, 1]: max |w| = {np.max(np.abs(w))}")

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[2]

    @property
    def degree(self) -> int:
        return self.weights.shape[0] - 1

    @property
    def n_qubits_in(self) -> int:
        return _log2_pow2(self.n_in, "input node count")

    @property
    def n_qubits_out(self) -> int:
        return _log2_pow2(self.n_out, "output node count")

    @property
    def input_applications(self) -> int:
        """d(d+1)/2: T_r applies the layer input r times, over r = 0..d."""
        return self.degree * (self.degree + 1) // 2

    def output_qubits(self, a_in: int, a_w: int = 1, m: int = 0) -> tuple[int, int]:
        """(ancillas, system qubits) of the layer output on an input with
        `a_in` ancillas and n + m system qubits, with weight encodings of
        `a_w` ancillas: the QSVT ancilla, the a_w, the selector and the n
        absorbed inputs join the ancillas; the k outputs and the m sample
        qubits form the system."""
        return a_in + 1 + a_w + selector_qubits(self.degree) + self.n_qubits_in, self.n_qubits_out + m

    @classmethod
    def random(cls, n_in: int, n_out: int, degree: int, seed: int, scale: float = 1.0) -> "LayerSpec":
        rng = np.random.default_rng(seed)
        w = rng.uniform(-scale, scale, size=(degree + 1, n_in, n_out))
        return cls(w)


@dataclass(frozen=True, eq=False)
class QkanSpec:
    """Ordered layers with chained dimensions N^(0) -> N^(1) -> ... -> N^(L)."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ContractViolationError("a network needs at least one layer")
        for left, right in zip(layers, layers[1:]):
            if left.n_out != right.n_in:
                raise ContractViolationError(
                    f"dimension chain broken: layer output {left.n_out} != next input {right.n_in}"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].n_in,) + tuple(layer.n_out for layer in self.layers)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(layer.degree for layer in self.layers)

    def with_layer_weights(self, index: int, weights: np.ndarray) -> "QkanSpec":
        layers = list(self.layers)
        layers[index] = LayerSpec(weights)
        return QkanSpec(tuple(layers))


def chebyshev_basis(x: np.ndarray, degree: int) -> np.ndarray:
    """T_r(x_p) for r = 0..degree via the three-term recurrence, shape (d+1, N)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((degree + 1,) + x.shape)
    out[0] = 1.0
    if degree >= 1:
        out[1] = x
    for r in range(2, degree + 1):
        out[r] = 2.0 * x * out[r - 1] - out[r - 2]
    return out


def classical_layer_eval(x: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """Exact double-precision Phi(x); the ground-truth oracle for the simulator.
    `x` is one input of shape (N,) or a batch of shape (S, N)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n_in:
        raise ContractViolationError(f"input shape {x.shape} does not match N = {spec.n_in}")
    if outside_unit_interval(x):
        raise DomainError(f"input outside [-1, 1]: max |x| = {np.max(np.abs(x))}")
    basis = chebyshev_basis(x, spec.degree)  # (d+1, [S,] N)
    return np.einsum("r...p,rpq->...q", basis, spec.weights) / (spec.n_in * (spec.degree + 1))


def classical_network_eval(x: np.ndarray, spec: QkanSpec) -> np.ndarray:
    """Phi of every layer in turn, on one input (N,) or a batch (S, N)."""
    value = np.asarray(x, dtype=np.float64)
    for layer in spec.layers:
        value = classical_layer_eval(value, layer)
    return value


def sum_over_inputs(be: BlockEncoding, n_inputs: int) -> BlockEncoding:
    """SUM step: conjugate by Hadamards on the leading n input qubits and absorb
    their registers (which must hold exactly those qubits) into the ancilla
    block, leaving the k output qubits as the system. The block of an exact
    real diagonal, averaged over the inputs, is one too, so the certificate
    is kept."""
    if n_inputs > be.num_system:
        raise ContractViolationError(
            f"cannot absorb {n_inputs} qubits from a {be.num_system}-qubit system"
        )
    absorbed, system = _split_regs(be.system, n_inputs, "input block")
    if n_inputs == 0:
        return be
    h_layer = WalshHadamard(be.op.n, be.live_aux, n_inputs)
    return _derived(
        compose(h_layer, be.op, h_layer),
        be.alpha, be.epsilon,
        be.aux + tuple((name, size, False) for name, size in absorbed), system,
        be.diagonal_flag, be.exact_real_diagonal,
    )


class LayerAssembler:
    """Builds the layer `spec` on a fixed input encoding, reusing the
    input-dependent Chebyshev encodings across weight updates (they are
    weight-independent).

    Construction encodes weight slice 0 of `spec` first and checks the
    layer's qubit total, with that encoding's ancillas, before any Chebyshev
    transform. The MUL term of degree r is kept with the bytes of weight
    slice r that built it (slice 0's from construction) and reused while
    that slice is unchanged, so ``assemble(spec.weights)`` encodes the other
    d slices, and a finite-difference loss read one candidate at a time
    re-encodes one slice, not d + 1. Candidates that share a sample register
    are keyed as one stack, which seldom repeats: the 8 ``train`` calls of
    one train-fd benchmark op missed 152 times and hit 8 times, each hit the
    slice 0 encoded at construction. LCU and SUM are rebuilt on every call.
    Terms are immutable trees, so a reused assembly is the same as a fresh
    one. This needs `weight_encoder` to be a pure function of
    ``(vector, name)``, as the default exact encoder is; it is passed a
    read-only vector.

    When the input ends in a `sample` register of m qubits
    (:attr:`BlockEncoding.sample_qubits`), the input spans [p | sample],
    DILATE inserts the k output qubits ahead of it, and SUM leaves
    [k | sample], the input system of a next layer with the same m. Each
    weight slice r is encoded as one diagonal over [p | k | sample] (see
    :func:`register_weights`): the same w[r, p, q] at every register state,
    or, for a stack of C candidate tensors, candidate c's at the states of
    its share of the register. One application then evaluates the layer on
    all 2^m register states.

    `pair` is the equal-weight LCU pair of the d + 1 degrees
    (:func:`uniform_pair`), built here when not given."""

    def __init__(
        self,
        be_x: BlockEncoding,
        spec: LayerSpec,
        layer_index: int = 0,
        weight_encoder: WeightEncoder | None = None,
        weights: np.ndarray | None = None,
        pair: StatePrepPair | None = None,
    ):
        m = self.sample_qubits = be_x.sample_qubits
        self.n = be_x.num_system - m
        if self.n != spec.n_qubits_in:
            raise ContractViolationError(
                f"input encoding spans {self.n} qubits but the layer expects {spec.n_qubits_in}"
            )
        self.shape = spec.weights.shape
        self.k = spec.n_qubits_out
        self.layer_index = layer_index
        self.weight_encoder: WeightEncoder = weight_encoder or (
            lambda vec, name: encode_diagonal_exact(vec, name=name)
        )
        weights = self._checked(spec.weights if weights is None else weights)
        key = register_weights(weights, 0, m).tobytes()
        w_be = self._encode(key, 0)
        check_qubit_budget(sum(spec.output_qubits(be_x.num_aux, w_be.num_aux, m)), "CHEB-QKAN layer")
        # transform, then dilate (see the module docstring)
        self.cheb = [
            dilate(chebyshev_be(be_x, r), self.k, trailing=m)
            for r in range(spec.degree + 1)
        ]
        self.pair = uniform_pair(spec.degree + 1) if pair is None else pair
        # per degree: (bytes of the weight slice, its MUL term), the last one built
        self._terms: list[tuple[bytes, BlockEncoding] | None] = [None] * (spec.degree + 1)
        self._terms[0] = (key, product(self.cheb[0], w_be))

    def _checked(self, weights: np.ndarray) -> np.ndarray:
        """`weights` as float64, a tensor (d+1, N, K) or a stack (C, d+1, N, K)
        of C candidate tensors, C a power of two up to 2^m."""
        weights = np.asarray(weights, dtype=np.float64)
        candidates = weights.shape[0] if weights.ndim == 4 else 1
        if (weights.ndim not in (3, 4) or weights.shape[-3:] != self.shape
                or not candidates or (1 << self.sample_qubits) % candidates):
            raise ContractViolationError(
                f"weight shape {weights.shape} does not match {self.shape} on "
                f"{self.sample_qubits} sample qubits"
            )
        return weights

    def _encode(self, key: bytes, r: int) -> BlockEncoding:
        """The encoding of weight slice r from its bytes `key`, width checked."""
        # read from the key's immutable bytes, so no term aliases the caller's array
        w_be = self.weight_encoder(np.frombuffer(key), f"w{self.layer_index}[{r}]")
        width = self.n + self.k + self.sample_qubits
        if w_be.num_system != width:
            raise ContractViolationError(
                f"weight encoding spans {w_be.num_system} qubits, expected {width}"
            )
        return w_be

    def assemble(self, weights: np.ndarray) -> BlockEncoding:
        """MUL + LCU + SUM for the given weight tensor (d+1, N, K), or for a
        stack (C, d+1, N, K) of candidate tensors (see :func:`register_weights`)."""
        weights = self._checked(weights)
        for r, cached in enumerate(self._terms):
            key = register_weights(weights, r, self.sample_qubits).tobytes()
            if cached is None or cached[0] != key:
                self._terms[r] = (key, product(self.cheb[r], self._encode(key, r)))
        combined = lcu([term for _, term in self._terms], self.pair)
        return sum_over_inputs(combined, self.n)


def register_weights(weights: np.ndarray, r: int, m: int) -> np.ndarray:
    """Weight slice r as one vector over [p | k | sample], index
    (p K + q) 2^m + t, for an m-qubit sample register.

    `weights` is a tensor (d+1, N, K), whose w[r, p, q] every register state
    t carries, or a stack (C, d+1, N, K) of C candidate tensors, C a power of
    two up to 2^m: candidate c holds the 2^m / C states from c 2^m / C on.
    At m = 0 this is ``weights[r].reshape(-1)``."""
    stack = weights.reshape((-1,) + weights.shape[-3:])[:, r]
    columns = stack.reshape(stack.shape[0], -1).T  # (N K, C)
    return np.repeat(columns, (1 << m) // stack.shape[0], axis=1).reshape(-1)


def build_layer(
    be_x: BlockEncoding,
    spec: LayerSpec,
    layer_index: int = 0,
    weight_encoder: WeightEncoder | None = None,
    weights: np.ndarray | None = None,
    pair: StatePrepPair | None = None,
) -> BlockEncoding:
    """Diagonal (1, a, 4 d sqrt(eps_x) + eps_w)-encoding of Phi(x), with a and
    the system from :meth:`LayerSpec.output_qubits`, making
    :attr:`LayerSpec.input_applications` input and d+1 weight queries; on an
    input that ends in a sample register (see :class:`LayerAssembler`), of
    Phi on every register state at once, with the weights of `spec` or with
    `weights`, a stack of candidate tensors of its shape, and the LCU `pair`
    when given."""
    return LayerAssembler(be_x, spec, layer_index, weight_encoder, weights, pair).assemble(
        spec.weights if weights is None else weights
    )


@dataclass(frozen=True, eq=False)
class NetworkBuild:
    """Per-layer output encodings of a recursive build; `output` is the last."""

    layer_outputs: tuple[BlockEncoding, ...]

    @property
    def output(self) -> BlockEncoding:
        return self.layer_outputs[-1]


def compile_threshold(a: int, s: int, sites: Sequence[tuple[int, int]]) -> float:
    """Leaf applications above which reading an exact encoding with `a`
    ancillas and `s` system qubits into one SystemBlocks leaf saves time;
    infinite when it never does.

    `sites` lists where the encoding is applied later, as (uses, amplitudes):
    that many occurrences of it, each applied to that many amplitudes (see
    :func:`later_sites`). Per use, a tree of L leaves costs L (COMPILE_CALL_S
    + amplitudes COMPILE_AMP_S), and the leaf COMPILE_CALL_S + amplitudes
    (2^a COMPILE_MAC_S + COMPILE_AMP_S). The compile costs one application
    of the tree to 2^a + 1 columns of 2^(a+s) amplitudes, plus
    COMPILE_FIXED_S and COMPILE_ENTRY_S per block entry. Every term is linear
    in L, so the compile pays exactly when L exceeds the returned threshold.
    Blocks of more than COMPILE_MAX_ENTRIES entries never pay."""
    entries = (4 ** a) << s
    if entries > COMPILE_MAX_ENTRIES:
        return math.inf
    per_leaf = -(COMPILE_CALL_S + (((1 << a) + 1) << (a + s)) * COMPILE_AMP_S)
    fixed = COMPILE_FIXED_S + entries * COMPILE_ENTRY_S
    for uses, amplitudes in sites:
        per_leaf += uses * (COMPILE_CALL_S + amplitudes * COMPILE_AMP_S)
        fixed += uses * (COMPILE_CALL_S + amplitudes * ((1 << a) * COMPILE_MAC_S + COMPILE_AMP_S))
    return fixed / per_leaf if per_leaf > 0 else math.inf


def later_sites(
    a: int,
    s: int,
    later: Sequence[LayerSpec],
    sample_qubits: int = 0,
    certified: bool = False,
) -> list[tuple[int, int]]:
    """(uses, amplitudes) of every later application of a layer output with
    `a` ancillas and `s` system qubits, followed by the layers `later`
    (see :func:`compile_threshold`). The last `sample_qubits` m of the
    system qubits form the sample register, which every later layer keeps.

    A later layer applies the previous output
    :attr:`LayerSpec.input_applications` times per application of its own,
    inside the LCU select branches: each use sees the 1/2^b of the state
    where the b selector qubits read its degree. Its Chebyshev guard runs on
    its input: it applies the previous output itself to every one of its 2^s
    system states (at most 2 HERMITICITY_PROBES of them) or to
    HERMITICITY_PROBES probes with U and U^dag once, each of 2^(a+s)
    amplitudes, and the last output is read from one column. With
    `certified`, the output carries the exact real diagonal certificate, and
    so does every later layer input built on it with exact weights: no guard
    applies anything, and no guard site is listed. Each next output's (a, s)
    is :meth:`LayerSpec.output_qubits` with the exact weight encoder's one
    ancilla, which :class:`NetworkAssembler` uses by default."""
    sites = []
    uses, shift = 1, 0  # occurrences in the previous output, log2 of the state share of each
    for layer in later:
        if layer.degree and not certified:
            states = 1 << s
            columns = states if states <= 2 * HERMITICITY_PROBES else 2 * HERMITICITY_PROBES
            sites.append((uses, (columns << (a + s)) >> shift))
        uses *= layer.input_applications
        shift += selector_qubits(layer.degree)
        a, s = layer.output_qubits(a, 1, sample_qubits)
    sites.append((uses, (1 << (a + s)) >> shift))
    return sites


class NetworkAssembler:
    """The layer loop of a network on one input encoding: each layer's
    output encoding is the input primitive of the next, so query costs
    multiply layer over layer.

    The first layer's :class:`LayerAssembler` is kept, so its Chebyshev
    encodings and its unchanged MUL terms are reused across :meth:`build`
    calls, and so is the first layer's last output (compiled or not), keyed
    on the bytes of its candidate weights and the shapes of the later
    layers, which the compile rule reads: a finite-difference step of a
    deeper weight builds on it again. Deeper layers are rebuilt, because
    their input changes with the upstream weights. Every layer carries the
    trailing sample register of the input, if it has one (see
    :class:`LayerAssembler`). The assembler builds one LCU pair
    (:func:`uniform_pair`) per term count and passes it to every layer it
    builds.

    An exact (epsilon = 0) output of a layer that is not the last is
    replaced by one SystemBlocks leaf (:func:`compile_system_blocks`) when
    its tree has more leaves than :func:`compile_threshold` gives for the
    later applications that :func:`later_sites` lists. The leaf sits in a
    Query with the counts of the tree it replaces, so `cost` and the ledgers
    are unchanged. The leaf reads the tree on its first apply, so a build
    that is never applied (``qkan resources``) reads nothing."""

    def __init__(
        self,
        be_x0: BlockEncoding,
        first: LayerSpec,
        weight_encoder: WeightEncoder | None = None,
    ):
        self.weight_encoder = weight_encoder
        self._pairs: dict[int, StatePrepPair] = {}  # LCU term count -> its pair
        self.first = LayerAssembler(be_x0, first, 0, weight_encoder, pair=self._pair(first))
        self._first_output: tuple[tuple, BlockEncoding] | None = None  # (key, output)

    def build(self, specs: Sequence[QkanSpec]) -> NetworkBuild:
        """Every layer output of the C candidate networks `specs`, one build:
        C is a power of two up to 2^m, and candidate c holds the 2^m / C
        sample-register states from c 2^m / C on (see
        :func:`register_weights`). The candidates share their layer shapes,
        and the first layer has the shape the assembler was made for."""
        layers = specs[0].layers
        shapes = [layer.weights.shape for layer in layers]
        if any([layer.weights.shape for layer in spec.layers] != shapes for spec in specs):
            raise ContractViolationError("candidate networks differ in their layer shapes")
        stacks = [np.stack([spec.layers[i].weights for spec in specs]) for i in range(len(layers))]
        later = layers[1:]
        key = (stacks[0].shape, stacks[0].tobytes(), tuple(layer.weights.shape for layer in later))
        if self._first_output is None or self._first_output[0] != key:
            self._first_output = (key, self._compiled(self.first.assemble(stacks[0]), later))
        outputs = [self._first_output[1]]
        for index, layer in enumerate(later, start=1):
            be = build_layer(
                outputs[-1], layer, index, self.weight_encoder, stacks[index], self._pair(layer)
            )
            outputs.append(self._compiled(be, layers[index + 1:]))
        return NetworkBuild(tuple(outputs))

    def _pair(self, layer: LayerSpec) -> StatePrepPair:
        """The LCU pair of the d + 1 degrees of `layer`, built once."""
        terms = layer.degree + 1
        if terms not in self._pairs:
            self._pairs[terms] = uniform_pair(terms)
        return self._pairs[terms]

    def _compiled(self, be: BlockEncoding, later: Sequence[LayerSpec]) -> BlockEncoding:
        """`be`, read into one SystemBlocks leaf when the compile rule says
        the applications by the layers `later` repay it."""
        if later and be.epsilon == 0:
            sites = later_sites(
                be.num_aux, be.num_system, later, be.sample_qubits, be.exact_real_diagonal
            )
            threshold = compile_threshold(be.num_aux, be.num_system, sites)
            # the leaves bound the unfolded leaves from below: walk the tree
            # only when they alone do not decide
            if threshold < math.inf and (
                be.op.leaves > threshold or unfolded_leaves(be.op) > threshold
            ):
                return compile_system_blocks(be)
        return be


def build_network(
    be_x0: BlockEncoding,
    spec: QkanSpec,
    weight_encoder: WeightEncoder | None = None,
) -> NetworkBuild:
    """The layer outputs of `spec` on the input `be_x0`, built once by a
    :class:`NetworkAssembler`."""
    return NetworkAssembler(be_x0, spec.layers[0], weight_encoder).build([spec])
