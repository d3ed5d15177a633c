"""Analytic cost model and reconciliation against the built operator trees.

Two models are kept side by side: the exact model counts d(d+1)/2 input and
d+1 weight applications per layer (what the Query nodes of a built encoding
add up to, see :attr:`~qkan.block_encoding.BlockEncoding.cost`);
the asymptotic model uses the d^2/2 and d coefficients of the layer-cost
recursion C_x^(l+1) = (d^2/2) C_x^(l) + d C_w^(l). Acceptance is on the
exact model; the asymptotic one is reported for comparison, with per-layer
input ratio exact/asymptotic = (d+1)/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .block_encoding import BlockEncoding
from .errors import DomainError
from .network import QkanSpec, selector_qubits  # selector_qubits: re-exported


@dataclass(frozen=True)
class LayerCost:
    """Per-layer unit counts: applications of the layer's own input encoding
    and of its weight encodings (one per degree, r = 0 included)."""

    degree: int
    input_applications: int
    weight_applications: int
    aux_added: int

    @property
    def input_ratio_exact_over_asymptotic(self) -> float:
        """d(d+1)/2 over d^2/2 = (d+1)/d."""
        if self.degree == 0:
            return float("inf")
        return (self.degree + 1) / self.degree


@dataclass(frozen=True, eq=False)
class CostReport:
    dims: tuple[int, ...]
    degrees: tuple[int, ...]
    per_layer: tuple[LayerCost, ...]
    exact_cost: tuple[float, ...]       # C_x^(0..L), exact recursion
    asymptotic_cost: tuple[float, ...]  # C_x^(0..L), d^2/2 and d coefficients
    aux_totals: tuple[int, ...]         # a_x^(0..L)
    expected_ledger: dict[str, int]     # base-primitive counts of the full build
    readout: dict[str, float] = field(default_factory=dict)

    def with_readout(self, delta: float, norm_const: float | None = None) -> "CostReport":
        """Analytic query counts for solution extraction at additive error delta:
        1/delta^2 sampling, 1/delta with amplitude estimation, and the
        sqrt(K)/N amplification rounds for post-selected state preparation.

        A delta whose sampling or amplitude-estimation count is not a finite
        positive float (C / delta^2 overflows or underflows for the exact
        cost C) raises DomainError."""
        final = self.exact_cost[-1]
        if not 0 < delta < math.inf:
            raise DomainError(f"delta must be a finite number above 0, got {delta!r}")
        try:
            square = delta**2
        except OverflowError:
            square = math.inf
        sampling, estimation = final / square if square else math.inf, final / delta
        if not (0 < sampling < math.inf and 0 < estimation < math.inf):
            raise DomainError(
                f"delta {delta!r} gives readout counts {sampling!r} and {estimation!r} "
                f"for the exact cost {final!r}; both must be finite and above 0"
            )
        section: dict[str, float] = {
            "delta": delta,
            "hadamard_test_sampling": sampling,
            "hadamard_test_amplitude_estimation": estimation,
        }
        if norm_const is not None and norm_const > 0:
            k_out = self.dims[-1]
            section["state_prep_amplification"] = final * (k_out**0.5) / norm_const
        return replace(self, readout=section)


def analytic_cost(spec: QkanSpec, c_x0: float = 1.0, a_x0: int = 1) -> CostReport:
    """Closed-form cost of an L-layer build from per-primitive costs.

    `c_x0` is the cost of one application of the input encoding and `a_x0`
    its ancilla count; every weight encoding is the exact one, one query and
    one ancilla. Input applications and ancillas per layer are those of
    :class:`~qkan.network.LayerSpec` (`input_applications`,
    `output_qubits`). The expected ledger counts `c_x0` queries of the input
    primitive "x" per application of the input encoding.
    """
    per_layer = []
    exact = [float(c_x0)]
    asym = [float(c_x0)]
    aux = [int(a_x0)]
    for layer in spec.layers:
        d, uses = layer.degree, layer.input_applications
        aux.append(layer.output_qubits(aux[-1])[0])
        per_layer.append(LayerCost(d, uses, d + 1, aux[-1] - aux[-2]))
        exact.append(uses * exact[-1] + (d + 1))
        asym.append((d * d / 2.0) * asym[-1] + d)

    # base-primitive ledger expectation: each layer-l primitive is applied once
    # per inclusion, multiplied by the input applications of every later layer
    expected: dict[str, int] = {}
    multiplier = 1
    for l, layer in reversed(list(enumerate(spec.layers))):
        for r in range(layer.degree + 1):
            expected[f"w{l}[{r}]"] = multiplier
        multiplier *= layer.input_applications
    if multiplier:
        expected["x"] = round(multiplier * c_x0)
    expected = {k: v for k, v in expected.items() if v}

    return CostReport(
        dims=spec.dims,
        degrees=spec.degrees,
        per_layer=tuple(per_layer),
        exact_cost=tuple(exact),
        asymptotic_cost=tuple(asym),
        aux_totals=tuple(aux),
        expected_ledger=dict(sorted(expected.items())),
    )


@dataclass(frozen=True, eq=False)
class ReconcileResult:
    ok: bool
    diffs: dict[str, tuple[int, int]]  # key -> (expected, observed)

    def __bool__(self):
        return self.ok


def reconcile(report: CostReport, be: BlockEncoding) -> ReconcileResult:
    """Exact-model counts must equal the tree-derived `cost` of `be` key by key."""
    observed = be.cost
    diffs: dict[str, tuple[int, int]] = {}
    for key in sorted(set(report.expected_ledger) | set(observed)):
        want = report.expected_ledger.get(key, 0)
        got = observed.get(key, 0)
        if want != got:
            diffs[key] = (want, got)
    return ReconcileResult(not diffs, diffs)
