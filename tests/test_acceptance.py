"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8a asserts the stated training target; under the pinned
activation normalization Phi_q = (1/N) sum_p phi_pq with
phi = (1/(d+1)) sum_r w T_r and |w| <= 1, that target lies outside the
model class (constrained optimum MSE ~= 0.0175), so 8a fails; 8b shows the
identical protocol reaches the tolerance on the in-class target.
"""

import time

import numpy as np

import qkan
from qkan.resources import analytic_cost, reconcile

from oracles import analytic_loss_gradient


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


def test_criterion_1_chebyshev_exactness():
    start = time.monotonic()
    grid = np.linspace(-1.0, 1.0, 17)
    worst = 0.0
    for value in grid:
        be = qkan.encode_diagonal_exact(np.array([value]))
        for r in range(8):
            got = qkan.extract_diagonal(qkan.chebyshev_be(be, r))[0]
            worst = max(worst, abs(got - np.cos(r * np.arccos(value))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report("1 chebyshev-exactness", ok, f"max err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_single_layer_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        n = int(rng.choice([2, 4]))
        k = int(rng.choice([2, 4]))
        d = int(rng.choice([1, 3]))
        spec = qkan.LayerSpec.random(n, k, d, seed=1000 + trial)
        x = rng.uniform(-1, 1, n)
        built = qkan.build_layer(qkan.encode_diagonal_exact(x), spec)
        got = qkan.extract_diagonal(built).real
        want = qkan.classical_layer_eval(x, spec)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report("2 single-layer-oracle", ok, f"100 instances, max err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_3_two_layer_recursion():
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 1, seed=42), qkan.LayerSpec.random(2, 1, 1, seed=43))
    )
    x = np.array([0.35, -0.65])
    net = qkan.build_network(qkan.encode_diagonal_exact(x), qspec)
    got = qkan.extract_diagonal(net.output).real
    want = qkan.classical_network_eval(x, qspec)
    err = float(np.max(np.abs(got - want)))
    qubits = net.output.num_aux + net.output.num_system
    ok = err <= 1e-9 and qubits <= 22
    report("3 two-layer-recursion", ok, f"err {err:.2e}, {qubits} qubits")
    assert err <= 1e-9
    assert qubits <= 22


def test_criterion_4_layer_parameters():
    spec = qkan.LayerSpec.random(4, 4, 3, seed=77)
    built = qkan.build_layer(qkan.encode_diagonal_exact(np.full(4, 0.1)), spec)
    aux_ok = built.num_aux == 1 + 1 + 1 + 2 + 2  # a_x + 1 + a_w + log2(d+1) + n = 7

    spec_small = qkan.LayerSpec.random(2, 2, 3, seed=78)
    x = np.random.default_rng(79).uniform(-1, 1, 2)
    oracle = np.diag(qkan.classical_layer_eval(x, spec_small))
    worst_margin = -np.inf
    for eps_x in (1e-8, 1e-6, 1e-4):
        for eps_w in (0.0, 1e-4):
            be_x = qkan.perturb(qkan.encode_diagonal_exact(x), eps_x, seed=80)

            def encoder(vec, name, _eps=eps_w):
                be = qkan.encode_diagonal_exact(vec, name=name)
                return qkan.perturb(be, _eps, seed=sum(name.encode())) if _eps else be

            built_eps = qkan.build_layer(be_x, spec_small, weight_encoder=encoder)
            measured = qkan.verify(built_eps, oracle)
            bound = 4 * spec_small.degree * np.sqrt(eps_x) + eps_w
            worst_margin = max(worst_margin, measured - bound)
    bound_ok = worst_margin <= 1e-10
    report(
        "4 layer-parameters",
        aux_ok and bound_ok,
        f"aux {built.num_aux} (want 7), worst bound margin {worst_margin:.2e}",
    )
    assert aux_ok
    assert bound_ok


def test_criterion_5_resource_reconciliation():
    details = []
    ok = True
    for d in (1, 3, 7):
        spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 2, d, seed=d),))
        built = qkan.build_layer(
            qkan.encode_diagonal_exact(np.array([0.2, -0.4]), name="x"), spec.layers[0]
        )
        rep = analytic_cost(spec)
        rec = reconcile(rep, built)
        got_in = built.cost.get("x", 0)
        got_w = sum(v for k, v in built.cost.items() if k.startswith("w0["))
        ratio = rep.per_layer[0].input_ratio_exact_over_asymptotic
        ok &= rec.ok and got_in == d * (d + 1) // 2 and got_w == d + 1
        ok &= abs(ratio - (d + 1) / d) < 1e-12
        details.append(f"d={d}: in={got_in}, w={got_w}, ratio={ratio:.3f}")
    two = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=8), qkan.LayerSpec.random(2, 1, 3, seed=9))
    )
    net = qkan.build_network(qkan.encode_diagonal_exact(np.array([0.2, -0.4]), name="x"), two)
    rec2 = reconcile(analytic_cost(two), net.output)
    ok &= rec2.ok and net.output.cost.get("x", 0) == 36  # (d(d+1)/2)^2
    details.append(f"two-layer d=3: x={net.output.cost.get('x', 0)}")
    report("5 resource-reconciliation", ok, "; ".join(details))
    assert ok


def test_criterion_6_hadamard_readout():
    spec = qkan.LayerSpec(np.ones((2, 2, 2)))
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([1.0, -1.0])), spec)
    diag = qkan.extract_diagonal(be).real
    exact_err = max(
        abs(qkan.hadamard_test(be, q).value - diag[q]) for q in range(be.system_dim)
    )
    hits = sum(
        abs(qkan.hadamard_test(be, 0, shots=10**6, seed=s).value - diag[0]) <= 5e-3
        for s in range(20)
    )
    spread = {}
    for shots in (10**4, 10**6):
        vals = [qkan.hadamard_test(be, 0, shots=shots, seed=s).value for s in range(100)]
        spread[shots] = float(np.std(vals))
    ratio = spread[10**4] / spread[10**6]
    ok = exact_err <= 1e-12 and hits >= 19 and 8.0 <= ratio <= 12.0
    report(
        "6 hadamard-readout",
        ok,
        f"exact err {exact_err:.1e}, {hits}/20 within 5e-3, stderr ratio {ratio:.2f}",
    )
    assert exact_err <= 1e-12
    assert hits >= 19
    assert 8.0 <= ratio <= 12.0


def test_criterion_7_state_preparation():
    rng = np.random.default_rng(303)
    spec = qkan.LayerSpec.random(2, 2, 2, seed=30)
    x = rng.uniform(-1, 1, 2)
    oracle = qkan.classical_layer_eval(x, spec)
    norm_const = float(np.linalg.norm(oracle))
    k_out = spec.n_out

    exact = qkan.prepare_state_postselect(
        qkan.build_layer(qkan.encode_diagonal_exact(x), spec), target=oracle
    )
    p_err = abs(exact.success_prob - norm_const**2 / k_out)
    exact_ok = p_err <= 1e-9 and exact.l2_error <= 1e-9

    eps = 0.1
    thr_x, thr_w = qkan.stateprep_thresholds(eps, spec.degree, k_out, norm_const)
    assert qkan.check_stateprep_bound(eps, thr_x, thr_w, spec.degree, k_out, norm_const)

    def encoder(vec, name):
        return qkan.perturb(qkan.encode_diagonal_exact(vec, name=name), thr_w, seed=sum(name.encode()))

    be_x = qkan.perturb(qkan.encode_diagonal_exact(x), thr_x, seed=31)
    noisy = qkan.prepare_state_postselect(
        qkan.build_layer(be_x, spec, weight_encoder=encoder), target=oracle
    )
    noisy_ok = noisy.l2_error <= eps
    report(
        "7 state-preparation",
        exact_ok and noisy_ok,
        f"p err {p_err:.1e}, exact l2 {exact.l2_error:.1e}, "
        f"perturbed l2 {noisy.l2_error:.3f} <= {eps}",
    )
    assert exact_ok
    assert noisy_ok


def _training_setup(scale: float):
    """N=2, K=1, d=3 layer against f(x) = scale*(T2(x1)+T2(x2)) on an 8x8 grid."""

    def fn(x):
        return np.array([scale * np.sum(np.cos(2 * np.arccos(x)))])

    data = qkan.Dataset.from_function(fn, 2, 8)
    spec = qkan.QkanSpec((qkan.LayerSpec(np.zeros((4, 2, 1))),))
    config = qkan.TrainConfig(eta=25.0, h=1e-4, iterations=500, readout="exact", loss_goal=1e-3)
    return spec, data, config


def test_criterion_8a_training_stated_target():
    """Stated target f = (T2(x1)+T2(x2))/4: outside the model class, so the
    trained MSE plateaus at the constrained optimum (~1.75e-2) and the stated
    tolerance of 1e-3 cannot be met. Kept faithful; see the realizable
    variant in 8b for the protocol itself."""
    spec, data, config = _training_setup(scale=0.25)
    result = qkan.train(spec, data, config)
    ok = result.final_loss < 1e-3
    report(
        "8a training-stated-target",
        ok,
        f"final MSE {result.final_loss:.4e} after {len(result.losses) - 1} iterations "
        f"(stop: {result.stop_reason}); constrained optimum ~1.75e-2",
    )
    assert result.final_loss < 1e-3


def test_criterion_8b_training_realizable_and_gradient():
    spec, data, config = _training_setup(scale=0.125)  # exactly realizable
    result = qkan.train(spec, data, config)
    converged = result.final_loss < 1e-3 and len(result.losses) - 1 <= 500

    again = qkan.train(spec, data, config)
    deterministic = result.losses == again.losses

    grad_spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=88, scale=0.5),))
    got = qkan.finite_diff_grad(grad_spec, data, h=1e-4)[0]
    want = analytic_loss_gradient([grad_spec.layers[0].weights], data.xs, data.ys)[0]
    grad_err = float(np.max(np.abs(got - want)))

    ok = converged and deterministic and grad_err <= 1e-6
    report(
        "8b training-realizable-target",
        ok,
        f"final MSE {result.final_loss:.2e} in {len(result.losses) - 1} iters, "
        f"deterministic={deterministic}, grad err {grad_err:.2e}",
    )
    assert converged
    assert deterministic
    assert grad_err <= 1e-6


def test_criterion_9_combinator_property_suite():
    rng = np.random.default_rng(909)
    worst = {"product": -np.inf, "lcu": -np.inf, "hadamard": -np.inf}
    from qkan.block_encoding import primitive_encoding
    from qkan import operators as ops

    def random_encoding(eps):
        op = ops.Dense(ops.random_unitary(3, rng))
        aux, system = (("a", 1),), (("sys", 2),)
        be = primitive_encoding(op, aux, system, name=f"u{rng.integers(1 << 30)}")
        target = qkan.extract_block(be)
        return qkan.perturb(be, eps, int(rng.integers(1 << 30))), target

    for _ in range(50):
        eps_a, eps_b = rng.uniform(1e-7, 1e-3, 2)
        be_a, t_a = random_encoding(eps_a)
        be_b, t_b = random_encoding(eps_b)
        prod = qkan.product(be_a, be_b)
        worst["product"] = max(
            worst["product"], qkan.verify(prod, t_a @ t_b) - prod.epsilon
        )
        had = qkan.hadamard_product(be_a, be_b)
        worst["hadamard"] = max(
            worst["hadamard"], qkan.verify(had, t_a * t_b) - had.epsilon
        )
        y = rng.uniform(-1, 1, 3)
        pair = qkan.pair_for_weights(y)
        terms, targets = zip(*(random_encoding(eps_b) for _ in range(3)))
        combo = qkan.lcu(list(terms), pair)
        want = sum(w * t for w, t in zip(y, targets))
        worst["lcu"] = max(worst["lcu"], qkan.verify(combo, want) - combo.epsilon)
    ok = all(v <= 1e-10 for v in worst.values())
    report(
        "9 combinator-bounds",
        ok,
        ", ".join(f"{k} margin {v:.2e}" for k, v in worst.items()),
    )
    assert ok
