"""Programmatic invariant checks behind the `verify` CLI command.

Each check returns a measured error and the bound it must respect; the CLI
renders them as a machine-readable pass/fail report. The pytest suite covers
the same ground more exhaustively; this module is the quick, config-driven
subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import (
    extract_block,
    extract_diagonal,
    hadamard_product,
    lcu,
    pair_for_weights,
    perturb,
    primitive_encoding,
    product,
    verify,
)
from .chebyshev import chebyshev_be
from .encoders import (
    encode_diagonal_exact,
    encode_from_stateprep,
    encode_real_weights,
    perturbed_weight_encoder,
    stateprep_for_real_vector,
)
from .network import (
    LayerSpec,
    QkanSpec,
    build_layer,
    build_network,
    classical_layer_eval,
    classical_network_eval,
)
from .operators import Dense, random_unitary, state_prep_unitary
from .resources import analytic_cost, reconcile


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "bound": float(self.bound),
            "detail": self.detail,
        }


def _result(name: str, measured: float, bound: float, detail: str = "") -> CheckResult:
    return CheckResult(name, measured <= bound, float(measured), float(bound), detail)


def check_encoders(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    x = rng.uniform(-1, 1, size=4)
    results.append(_result("encoder/exact", verify(encode_diagonal_exact(x), np.diag(x)), 1e-10))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    be = encode_from_stateprep(state_prep_unitary(psi))
    results.append(_result("encoder/stateprep", verify(be, np.diag(psi)), 1e-10))
    w = rng.uniform(-0.4, 0.4, size=4)
    be_w = encode_real_weights(stateprep_for_real_vector(w))
    results.append(_result("encoder/real_weights", verify(be_w, np.diag(w)), 1e-10))
    results.append(
        _result(
            "encoder/real_weights_l2",
            float(np.sum(extract_diagonal(be_w).real ** 2)),
            1.0 + 1e-10,
        )
    )
    return results


def check_chebyshev_grid(max_degree: int = 7) -> list[CheckResult]:
    grid = np.linspace(-1.0, 1.0, 17)
    worst = 0.0
    for value in grid:
        be = encode_diagonal_exact(np.array([value]))
        for r in range(max_degree + 1):
            got = extract_diagonal(chebyshev_be(be, r))[0]
            want = np.cos(r * np.arccos(value))
            worst = max(worst, abs(got - want))
    return [_result("chebyshev/grid", worst, 1e-10, f"17-point grid, r <= {max_degree}")]


def _random_encoding(rng: np.random.Generator, n: int, aux: int, eps: float):
    op = Dense(random_unitary(aux + n, rng))
    be = primitive_encoding(op, (("a", aux),), (("sys", n),), name=f"u{rng.integers(1 << 30)}")
    target = extract_block(be)
    if eps > 0:
        be = perturb(be, eps, int(rng.integers(1 << 30)))
    return be, target


def check_combinators(seed: int = 1, trials: int = 10) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_prod = worst_lcu = worst_had = 0.0
    for _ in range(trials):
        eps_a, eps_b = rng.uniform(1e-6, 1e-3, size=2)
        be_a, target_a = _random_encoding(rng, 2, 1, eps_a)
        be_b, target_b = _random_encoding(rng, 2, 1, eps_b)
        margin = verify(product(be_a, be_b), target_a @ target_b) - (
            be_a.alpha * be_b.epsilon + be_b.alpha * be_a.epsilon
        )
        worst_prod = max(worst_prod, margin)
        y = rng.uniform(-1, 1, size=3)
        pair = pair_for_weights(y)
        bes, targets = zip(*(_random_encoding(rng, 2, 1, eps_a) for _ in range(3)))
        combo = lcu(list(bes), pair)
        want = sum(w * t for w, t in zip(y, targets))
        worst_lcu = max(worst_lcu, verify(combo, want) - combo.epsilon)
        had = hadamard_product(be_a, be_b)
        worst_had = max(worst_had, verify(had, target_a * target_b) - had.epsilon)
    slack = 1e-10
    return [
        _result("combinator/product_bound", worst_prod, slack, f"{trials} seeded pairs"),
        _result("combinator/lcu_bound", worst_lcu, slack, f"{trials} seeded triples"),
        _result("combinator/hadamard_bound", worst_had, slack, f"{trials} seeded pairs"),
    ]


def check_layer_bound(eps_x: float, eps_w: float, spec: LayerSpec, x: np.ndarray,
                      seed: int = 7) -> list[CheckResult]:
    """Deviation of a layer built from perturbed encodings against the
    classical oracle, compared to 4 d sqrt(eps_x) + eps_w."""
    be_x = encode_diagonal_exact(x)
    if eps_x > 0:
        be_x = perturb(be_x, eps_x, seed)
    built = build_layer(be_x, spec, weight_encoder=perturbed_weight_encoder(eps_w, seed))
    oracle = classical_layer_eval(x, spec)
    measured = verify(built, np.diag(oracle))
    bound = 4.0 * spec.degree * np.sqrt(eps_x) + eps_w
    detail = f"eps_x={eps_x:g}, eps_w={eps_w:g}, d={spec.degree}"
    return [_result("layer/error_bound", measured, bound + 1e-10, detail)]


def _accounting(prefix: str, built, report, error: float, detail: str = "") -> list[CheckResult]:
    """Built ancillas and ledger against the resource model, and the oracle error."""
    expected_aux = report.aux_totals[-1]
    rec = reconcile(report, built)
    return [
        _result(f"{prefix}/ancilla_count", abs(built.num_aux - expected_aux), 0.0,
                f"a = {built.num_aux}, formula = {expected_aux}"),
        _result(f"{prefix}/query_reconcile", 0.0 if rec.ok else 1.0, 0.0, str(rec.diffs) if rec.diffs else ""),
        _result(f"{prefix}/oracle_match", error, 1e-9, detail),
    ]


def check_layer_accounting(spec: LayerSpec, x: np.ndarray) -> list[CheckResult]:
    built = build_layer(encode_diagonal_exact(x), spec)
    error = verify(built, np.diag(classical_layer_eval(x, spec)))
    return _accounting("layer", built, analytic_cost(QkanSpec((spec,))), error)


def check_network_accounting(spec: QkanSpec, x: np.ndarray) -> list[CheckResult]:
    """Whole-network counterpart of :func:`check_layer_accounting`, with the
    output diagonal against the classical network oracle."""
    built = build_network(encode_diagonal_exact(x), spec).output
    error = float(np.max(np.abs(extract_diagonal(built) - classical_network_eval(x, spec))))
    return _accounting("network", built, analytic_cost(spec), error, f"{len(spec.layers)} layers")


def run_verification(
    x: np.ndarray,
    spec: LayerSpec,
    eps_x: float = 0.0,
    eps_w: float = 0.0,
    seed: int = 0,
) -> list[CheckResult]:
    results = []
    results += check_encoders(seed)
    results += check_chebyshev_grid()
    results += check_combinators(seed + 1)
    results += check_layer_accounting(spec, x)
    if eps_x > 0 or eps_w > 0:
        results += check_layer_bound(eps_x, eps_w, spec, x, seed=seed + 2)
    return results
