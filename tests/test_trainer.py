import numpy as np
import pytest

import qkan
from qkan.errors import ContractViolationError, DivergenceError, DomainError

from oracles import analytic_loss_gradient


def quadratic_target_dataset(scale=0.25, points=4):
    def fn(x):
        return np.array([scale * np.mean(np.cos(2 * np.arccos(x)))])

    return qkan.Dataset.from_function(fn, 2, points)


@pytest.fixture
def small_spec():
    return qkan.QkanSpec((qkan.LayerSpec(np.zeros((4, 2, 1))),))


def test_dataset_validation():
    with pytest.raises(DomainError):
        qkan.Dataset(np.array([[1.5, 0.0]]), np.array([[0.0]]))
    with pytest.raises(DomainError):
        qkan.Dataset(np.array([[0.5, 0.0]]), np.array([[np.nan]]))
    data = quadratic_target_dataset(points=3)
    assert len(data) == 9
    assert data.xs.shape == (9, 2)


def test_loss_zero_when_targets_equal_outputs(small_spec):
    data = qkan.Dataset(np.array([[0.3, -0.4], [0.1, 0.9]]), np.zeros((2, 1)))
    assert qkan.loss(small_spec, data) == pytest.approx(0.0, abs=1e-18)


def test_loss_constant_target(small_spec):
    data = qkan.Dataset(np.array([[0.3, -0.4]]), np.array([[0.5]]))
    assert qkan.loss(small_spec, data) == pytest.approx(0.25, abs=1e-12)


def test_exact_loss_matches_classical(rng):
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 2, 2, seed=1),))
    data = qkan.Dataset(rng.uniform(-1, 1, (5, 2)), rng.uniform(-0.5, 0.5, (5, 2)))
    exact = qkan.loss(spec, data)
    classical = qkan.loss(spec, data, model=qkan.ClassicalModel(spec, data.xs))
    assert abs(exact - classical) <= 1e-9


def test_gradient_vanishes_at_minimum(small_spec):
    data = qkan.Dataset(np.array([[0.3, -0.4], [0.2, 0.2]]), np.zeros((2, 1)))
    grads = qkan.finite_diff_grad(small_spec, data, h=1e-4)
    assert np.max(np.abs(grads[0])) <= 1e-8  # h^2 slack


def test_gradient_matches_analytic_oracle(rng):
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=2, scale=0.5),))
    data = quadratic_target_dataset(points=4)
    got = qkan.finite_diff_grad(spec, data, h=1e-4)
    want = analytic_loss_gradient([l.weights for l in spec.layers], data.xs, data.ys)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-6


def test_gradient_matches_analytic_two_layers(rng):
    spec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 1, seed=3, scale=0.5),
         qkan.LayerSpec.random(2, 1, 1, seed=4, scale=0.5))
    )
    data = qkan.Dataset(rng.uniform(-1, 1, (4, 2)), rng.uniform(-0.3, 0.3, (4, 1)))
    got = qkan.finite_diff_grad(spec, data, h=1e-4, model=qkan.ClassicalModel(spec, data.xs))
    want = analytic_loss_gradient([l.weights for l in spec.layers], data.xs, data.ys)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-6


def test_gradient_symmetry():
    # symmetric data over the two inputs gives identical per-input gradients
    spec = qkan.QkanSpec((qkan.LayerSpec(np.zeros((2, 2, 1))),))
    xs = np.array([[0.5, 0.5], [-0.3, -0.3]])
    ys = np.array([[0.2], [0.1]])
    grads = qkan.finite_diff_grad(spec, qkan.Dataset(xs, ys), h=1e-4)
    assert np.allclose(grads[0][:, 0, :], grads[0][:, 1, :], atol=1e-10)


def test_gradient_one_sided_at_boundary():
    w = np.zeros((2, 2, 1))
    w[0] = 1.0  # at the +1 boundary
    spec = qkan.QkanSpec((qkan.LayerSpec(w),))
    data = qkan.Dataset(np.array([[0.2, -0.6]]), np.array([[0.0]]))
    grads = qkan.finite_diff_grad(spec, data, h=1e-4, model=qkan.ClassicalModel(spec, data.xs))
    want = analytic_loss_gradient([w], data.xs, data.ys)
    assert np.max(np.abs(grads[0] - want[0])) <= 1e-3  # one-sided is first order


def test_spsa_zero_step_keeps_weights(small_spec):
    data = quadratic_target_dataset(points=3)
    model = qkan.ClassicalModel(small_spec, data.xs)
    stepped = qkan.spsa_step(small_spec, data, iteration=0, seed=1, eta=0.0, model=model)
    assert np.allclose(stepped.layers[0].weights, small_spec.layers[0].weights)


def test_spsa_direction_aligns_with_gradient(small_spec):
    data = quadratic_target_dataset(points=4)
    model = qkan.ClassicalModel(small_spec, data.xs)
    grad = qkan.finite_diff_grad(small_spec, data, h=1e-4, model=model)[0]
    accumulated = np.zeros_like(grad)
    eta = 0.5
    for seed in range(200):
        stepped = qkan.spsa_step(
            small_spec, data, iteration=0, seed=seed, eta=eta, c=0.05, model=model
        )
        # update = -a_k * ghat, so the implied estimate is (w_old - w_new) / a_k
        accumulated += (small_spec.layers[0].weights - stepped.layers[0].weights) / eta
    mean_estimate = accumulated / 200
    cosine = np.sum(mean_estimate * grad) / (
        np.linalg.norm(mean_estimate) * np.linalg.norm(grad)
    )
    assert cosine > 0


def test_spsa_clamps_weights():
    w = np.ones((1, 2, 1))  # d = 0, all weights at the boundary
    spec = qkan.QkanSpec((qkan.LayerSpec(w),))
    data = qkan.Dataset(np.array([[0.1, 0.1]]), np.array([[1.0]]))
    model = qkan.ClassicalModel(spec, data.xs)
    stepped = qkan.spsa_step(spec, data, iteration=0, seed=3, eta=5.0, model=model)
    assert np.all(np.abs(stepped.layers[0].weights) <= 1.0)


def test_train_zero_iterations(small_spec):
    data = quadratic_target_dataset(points=3)
    result = qkan.train(small_spec, data, qkan.TrainConfig(iterations=0, readout="classical"))
    assert result.spec is small_spec or np.allclose(
        result.spec.layers[0].weights, small_spec.layers[0].weights
    )
    assert len(result.losses) == 1


def test_train_deterministic(small_spec):
    data = quadratic_target_dataset(points=3)
    config = qkan.TrainConfig(eta=10.0, iterations=5, readout="classical", seed=5)
    first = qkan.train(small_spec, data, config)
    second = qkan.train(small_spec, data, config)
    assert first.losses == second.losses
    assert np.allclose(first.spec.layers[0].weights, second.spec.layers[0].weights)


def test_train_reduces_loss(small_spec):
    data = quadratic_target_dataset(scale=0.25, points=4)
    config = qkan.TrainConfig(eta=25.0, iterations=30, readout="classical", loss_goal=1e-4)
    result = qkan.train(small_spec, data, config)
    assert result.final_loss < 1e-4
    assert result.stop_reason == "loss_goal"
    for layer in result.spec.layers:
        assert np.all(np.abs(layer.weights) <= 1.0)


def test_train_spsa_reduces_loss(small_spec):
    data = quadratic_target_dataset(scale=0.25, points=4)
    config = qkan.TrainConfig(
        optimizer="spsa", eta=2.0, c=0.1, iterations=150, readout="classical", seed=8
    )
    result = qkan.train(small_spec, data, config)
    assert result.final_loss < result.losses[0] * 0.5


def test_train_shots_readout_is_seeded():
    spec = qkan.QkanSpec((qkan.LayerSpec(np.full((2, 2, 1), 0.3)),))
    data = quadratic_target_dataset(points=2)
    config = qkan.TrainConfig(
        optimizer="spsa", eta=0.1, iterations=2, readout="shots", shots=100, seed=4
    )
    first = qkan.train(spec, data, config)
    assert len(first.losses) == 3
    assert all(0.0 <= value <= 4.0 for value in first.losses)
    assert qkan.train(spec, data, config).losses == first.losses
    other = qkan.TrainConfig(
        optimizer="spsa", eta=0.1, iterations=2, readout="shots", shots=100, seed=5
    )
    assert qkan.train(spec, data, other).losses != first.losses


def test_train_divergence_detected():
    spec = qkan.QkanSpec((qkan.LayerSpec(np.zeros((2, 2, 1))),))
    data = qkan.Dataset(np.array([[0.5, -0.5]]), np.array([[0.01]]))
    config = qkan.TrainConfig(eta=1e4, iterations=200, readout="classical", plateau_window=0)
    with pytest.raises(DivergenceError):
        qkan.train(spec, data, config)


@pytest.mark.parametrize("low_at", [None, 25])
def test_divergence_needs_the_high_losses_in_a_row(low_at, monkeypatch):
    """50 losses above 10x the initial one raise DivergenceError when they
    are consecutive; one low loss among them starts the count again."""
    high = [1.0] * 50  # outputs of the loss reads; the loss is their square
    script = [0.1] + (high if low_at is None else high[:low_at] + [0.1] + high[low_at:])

    class ScriptedModel:
        def __init__(self, spec, xs):
            self.reads = iter(script)

        def outputs(self, specs):
            # a loss reads one candidate; a gradient's candidates all read 0
            value = next(self.reads) if len(specs) == 1 else 0.0
            return np.full((len(specs), 1, 1), value)

    monkeypatch.setattr(qkan.trainer, "SimulatedModel", ScriptedModel)
    spec = qkan.QkanSpec((qkan.LayerSpec(np.zeros((2, 2, 1))),))
    data = qkan.Dataset(np.array([[0.5, -0.5]]), np.array([[0.0]]))
    config = qkan.TrainConfig(iterations=len(script) - 1, plateau_window=0)
    if low_at is None:
        with pytest.raises(DivergenceError):
            qkan.train(spec, data, config)
    else:
        result = qkan.train(spec, data, config)
        assert result.losses == pytest.approx([v * v for v in script])
        assert result.stop_reason == "iterations"


def test_train_config_validation():
    with pytest.raises(DomainError):
        qkan.TrainConfig(h=0.0)
    with pytest.raises(DomainError):
        qkan.TrainConfig(optimizer="adam")


@pytest.mark.parametrize("optimizer", ["finite_difference", "spsa"])
@pytest.mark.parametrize("readout", ["exact", "classical"])
def test_shot_count_on_a_readout_without_shots_is_refused(readout, optimizer):
    for shots in (100, -1):
        with pytest.raises(DomainError, match="takes no shot count"):
            qkan.TrainConfig(optimizer=optimizer, readout=readout, shots=shots)
    assert qkan.TrainConfig(optimizer=optimizer, readout=readout, shots=0).shots == 0


def test_finite_differences_refuse_shots_readout():
    # shot noise over 2h would send every weight to +-1 in one step
    with pytest.raises(DomainError, match="SPSA"):
        qkan.TrainConfig(optimizer="finite_difference", readout="shots", shots=100)
    qkan.TrainConfig(optimizer="spsa", readout="shots", shots=100)


def _per_sample_outputs(spec, xs):
    """One build_network and one extract_diagonal per sample."""
    return np.array([
        qkan.extract_diagonal(
            qkan.build_network(qkan.encode_diagonal_exact(x, name="x"), spec).output
        ).real
        for x in xs
    ])


TWO_LAYER_K2 = qkan.QkanSpec(
    (qkan.LayerSpec.random(2, 2, 3, seed=61, scale=0.8), qkan.LayerSpec.random(2, 1, 2, seed=62))
)


@pytest.mark.parametrize(
    "spec, samples, width",
    [
        (qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=60),)), 5, 3),  # 3 padding rows
        (TWO_LAYER_K2, 6, 3),  # DILATE of layer 0 goes ahead of the sample register
        (TWO_LAYER_K2, 1, 0),  # one sample needs no register
    ],
)
def test_batched_outputs_match_per_sample_builds(spec, samples, width, rng):
    xs = rng.uniform(-1, 1, (samples, 2))
    model = qkan.SimulatedModel(spec, xs)
    assert model.sample_qubits == width
    got = model.outputs([spec])[0]
    assert got.shape == (samples, spec.dims[-1])
    assert np.max(np.abs(got - _per_sample_outputs(spec, xs))) <= 1e-12
    classical = qkan.ClassicalModel(spec, xs).outputs([spec])[0]
    assert np.max(np.abs(got - classical)) <= 1e-12


def test_classical_model_is_the_batched_classical_evaluator(rng):
    xs = rng.uniform(-1, 1, (6, 2))
    got = qkan.ClassicalModel(TWO_LAYER_K2, xs).outputs([TWO_LAYER_K2])
    assert np.array_equal(got[0], qkan.classical_network_eval(xs, TWO_LAYER_K2))


def test_classical_model_trains_bit_for_bit_like_the_classical_evaluator(rng):
    spec, h, seed, iteration, eta, c = TWO_LAYER_K2, 1e-4, 9, 3, 0.5, 0.1
    data = qkan.Dataset(rng.uniform(-1, 1, (6, 2)), rng.uniform(-0.3, 0.3, (6, 1)))
    model = qkan.ClassicalModel(spec, data.xs)

    def mse(candidate):
        return float(np.mean((qkan.classical_network_eval(data.xs, candidate) - data.ys) ** 2))

    assert qkan.loss(spec, data, model=model) == mse(spec)
    # central differences; every weight lies more than h inside [-1, 1]
    assert all(np.max(np.abs(layer.weights)) < 1.0 - h for layer in spec.layers)
    for index, grad in enumerate(qkan.finite_diff_grad(spec, data, h, model=model)):
        weights = spec.layers[index].weights
        for entry in np.ndindex(weights.shape):
            plus, minus = weights.copy(), weights.copy()
            plus[entry], minus[entry] = weights[entry] + h, weights[entry] - h
            want = (mse(spec.with_layer_weights(index, plus))
                    - mse(spec.with_layer_weights(index, minus))) / (plus[entry] - minus[entry])
            assert grad[entry] == want
    # SPSA's gains, Rademacher deltas and clamps, from default_rng([seed, iteration])
    stream = np.random.default_rng([seed, iteration])
    a_k, c_k = eta / (iteration + 1) ** 0.602, c / (iteration + 1) ** 0.101
    deltas = [stream.integers(0, 2, size=layer.weights.shape) * 2.0 - 1.0 for layer in spec.layers]

    def moved(step):
        return qkan.QkanSpec(tuple(qkan.LayerSpec(np.clip(layer.weights + step * delta, -1, 1))
                                   for layer, delta in zip(spec.layers, deltas)))

    diff = (mse(moved(c_k)) - mse(moved(-c_k))) / (2.0 * c_k)
    stepped = qkan.spsa_step(spec, data, iteration, seed, eta=eta, c=c, model=model)
    for layer, delta, got in zip(spec.layers, deltas, stepped.layers):
        assert np.array_equal(got.weights, np.clip(layer.weights - a_k * diff * delta, -1.0, 1.0))


def test_classical_training_builds_no_simulated_model(small_spec, monkeypatch):
    data = quadratic_target_dataset(points=3)

    def refuse(spec, xs):
        raise AssertionError("a SimulatedModel was built for the classical readout")

    monkeypatch.setattr(qkan.trainer, "SimulatedModel", refuse)
    start = float(np.mean((qkan.classical_network_eval(data.xs, small_spec) - data.ys) ** 2))
    for optimizer in ("finite_difference", "spsa"):
        config = qkan.TrainConfig(optimizer=optimizer, eta=1.0, iterations=2, readout="classical")
        result = qkan.train(small_spec, data, config)
        assert len(result.losses) == 3 and result.losses[0] == start


def test_negative_shot_count_is_refused(small_spec):
    data = quadratic_target_dataset(points=2)
    with pytest.raises(DomainError, match="non-negative"):
        qkan.loss(small_spec, data, shots=-1)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("model", ["SimulatedModel", "ClassicalModel"])
def test_models_refuse_inputs_of_the_wrong_width(model, width, small_spec, rng):
    xs = rng.uniform(-1, 1, (3, width))
    message = rf"input shape \(3, {width}\) does not match N = 2"
    with pytest.raises(ContractViolationError, match=message):
        getattr(qkan, model)(small_spec, xs).outputs([small_spec])
    data = qkan.Dataset(xs, np.zeros((3, 1)))
    with pytest.raises(ContractViolationError, match=message):
        qkan.loss(small_spec, data)  # no model: a SimulatedModel on data.xs


def test_simulated_model_checks_the_width_before_encoding(small_spec, monkeypatch):
    def refuse(vec, name):
        raise AssertionError("encoded an input of the wrong width")

    monkeypatch.setattr(qkan.trainer, "encode_diagonal_exact", refuse)
    with pytest.raises(ContractViolationError, match="does not match N = 2"):
        qkan.SimulatedModel(small_spec, np.zeros((3, 1)))


def test_lowered_budget_splits_samples_into_chunks(rng):
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=63, scale=0.5),))
    data = qkan.Dataset(rng.uniform(-1, 1, (5, 2)), rng.uniform(-0.2, 0.2, (5, 1)))
    config = qkan.TrainConfig(eta=10.0, iterations=3, readout="exact")
    whole = qkan.train(spec, data, config)
    # the layer needs 6 ancillas + k = 0 outputs, so 8 qubits leave m = 2
    with qkan.qubit_budget(8):
        model = qkan.SimulatedModel(spec, data.xs)
        assert model.sample_qubits == 2  # chunks of 4: 4 samples, then 1 and 3 padding rows
        got = model.outputs([spec])[0]
        chunked = qkan.train(spec, data, config)
    assert np.max(np.abs(got - _per_sample_outputs(spec, data.xs))) <= 1e-12
    assert np.max(np.abs(np.subtract(chunked.losses, whole.losses))) <= 1e-12
    classical = qkan.train(spec, data, qkan.TrainConfig(eta=10.0, iterations=3, readout="classical"))
    assert np.max(np.abs(np.subtract(chunked.losses, classical.losses))) <= 1e-9


def test_sample_register_width_limits():
    one = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=1),))
    assert qkan.trainer.sample_register_width(one, 64) == 6
    assert qkan.trainer.sample_register_width(one, 65) == 7
    # the last operator stays within STATE_QUBITS: 6 ancillas + k = 0 outputs + m <= 18
    assert qkan.trainer.sample_register_width(one, 10**6) == 12
    with qkan.qubit_budget(7):
        assert qkan.trainer.sample_register_width(one, 64) == 1
    with qkan.qubit_budget(5):  # the layer does not fit: built one sample at a time, and refused
        assert qkan.trainer.sample_register_width(one, 64) == 0
        with pytest.raises(qkan.ResourceLimitError):
            qkan.SimulatedModel(one, np.zeros((2, 2)))
    # 64 samples fit: the last operator has 11 ancillas + 0 outputs + 6 sample qubits
    assert qkan.trainer.sample_register_width(TWO_LAYER_K2, 64) == 6
    # 2->2->2->1 (d = 2): 16 ancillas + 0 outputs leave m = 2 of STATE_QUBITS
    three = qkan.QkanSpec(
        tuple(qkan.LayerSpec.random(2, k, 2, seed=i) for i, k in enumerate((2, 2, 1)))
    )
    assert qkan.trainer.sample_register_width(three, 64) == 2


class FreshModel:
    """A :class:`qkan.SimulatedModel` built anew for every candidate and
    read on a batch of that one candidate, so no MUL term outlives one
    assembly and no two candidates share a register."""

    def __init__(self, spec, xs):
        self.xs = xs

    def outputs(self, specs):
        return np.stack([qkan.SimulatedModel(spec, self.xs).outputs([spec])[0] for spec in specs])


def test_finite_differences_reencode_only_the_changed_weight_slices(monkeypatch):
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=130, scale=0.8),))
    data = quadratic_target_dataset(points=8)  # 64 samples
    model = qkan.SimulatedModel(spec, data.xs)
    qkan.loss(spec, data, model=model)  # warm at the base weights
    calls = []
    encode = qkan.network.encode_diagonal_exact

    def counting(vec, name):
        calls.append(name)
        return encode(vec, name=name)

    monkeypatch.setattr(qkan.network, "encode_diagonal_exact", counting)
    qkan.finite_diff_grad(spec, data, 1e-4, model=model)
    # 2(d+1)NK losses, each changing one slice, plus one restore per new degree
    assert len(calls) <= 2 * 4 * 2 * 1 + 3


@pytest.mark.parametrize("spec", [
    qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=131, scale=0.8),)),
    TWO_LAYER_K2,
])
def test_reused_terms_train_bit_for_bit_like_fresh_builds(spec, monkeypatch):
    data = quadratic_target_dataset(points=4)
    reused = qkan.finite_diff_grad(spec, data, 1e-4, model=qkan.SimulatedModel(spec, data.xs))
    fresh = qkan.finite_diff_grad(spec, data, 1e-4, model=FreshModel(spec, data.xs))
    assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))
    step = qkan.spsa_step(spec, data, 2, seed=9, model=qkan.SimulatedModel(spec, data.xs))
    fresh_step = qkan.spsa_step(spec, data, 2, seed=9, model=FreshModel(spec, data.xs))
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(step.layers, fresh_step.layers))
    config = qkan.TrainConfig(eta=10.0, iterations=3, plateau_window=0)
    trained = qkan.train(spec, data, config)
    monkeypatch.setattr(qkan.trainer, "SimulatedModel", FreshModel)
    fresh_trained = qkan.train(spec, data, config)
    assert trained.losses == fresh_trained.losses
    assert all(np.array_equal(a.weights, b.weights)
               for a, b in zip(trained.spec.layers, fresh_trained.spec.layers))


def one_candidate_gradient(spec, data, h, model):
    """finite_diff_grad's rule with one loss, a batch of one candidate, per
    plus, minus, one-sided and unchanged network."""
    grads = []
    for index, layer in enumerate(spec.layers):
        grad = np.empty_like(layer.weights)
        for entry in np.ndindex(layer.weights.shape):
            w = layer.weights[entry]
            up, down = min(w + h, 1.0), max(w - h, -1.0)

            def at(value):
                moved = layer.weights.copy()
                moved[entry] = value
                return qkan.loss(spec.with_layer_weights(index, moved), data, model=model)

            if up > w and down < w:
                grad[entry] = (at(up) - at(down)) / (up - down)
            else:
                other = down if up == w else up
                grad[entry] = (qkan.loss(spec, data, model=model) - at(other)) / (w - other)
        grads.append(grad)
    return grads


@pytest.mark.parametrize("dims, degree, data", [
    # (candidates per application) x (samples padded to a power of two) = 2^m
    ((2, 1), 3, quadratic_target_dataset(points=4)),  # 15 candidates: 16 x 16, m = 8
    ((2, 2, 1), 3, quadratic_target_dataset(points=2)),  # 47: 32 x 4, m = 7
    ((2, 2, 2, 1), 2, qkan.Dataset([[0.3, -0.7], [-0.9, 0.4]], [[0.1], [-0.05]])),  # 59: 2 x 2, m = 2
])
def test_candidates_sharing_a_register_train_bit_for_bit_like_one_at_a_time(dims, degree, data, monkeypatch):
    rng = np.random.default_rng(len(dims) + degree)
    weights = [rng.uniform(-0.9, 0.9, (degree + 1, n_in, n_out)) for n_in, n_out in zip(dims, dims[1:])]
    weights[0][0, 0, 0], weights[-1][-1, -1, -1] = 1.0, -1.0  # one-sided steps and the base
    spec = qkan.QkanSpec(tuple(qkan.LayerSpec(w) for w in weights))
    model = qkan.SimulatedModel(spec, data.xs)
    got = qkan.finite_diff_grad(spec, data, 1e-4, model=model)
    assert max(model.assemblers) > model.sample_qubits  # a register wider than one candidate
    want = one_candidate_gradient(spec, data, 1e-4, qkan.SimulatedModel(spec, data.xs))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for readout, shots in (("exact", 0), ("shots", 1000)):
        config = qkan.TrainConfig(optimizer="spsa", readout=readout, shots=shots, eta=0.2,
                                  iterations=4, plateau_window=0)
        shared = qkan.train(spec, data, config)
        with monkeypatch.context() as patch:
            patch.setattr(qkan.trainer, "SimulatedModel", FreshModel)
            single = qkan.train(spec, data, config)
        assert shared.losses == single.losses
        assert all(np.array_equal(a.weights, b.weights)
                   for a, b in zip(shared.spec.layers, single.spec.layers))


def _counting_reads(monkeypatch):
    """Register widths of the model reads, in order."""
    reads, extract = [], qkan.trainer.extract_diagonal

    def counting(be):
        reads.append(be.sample_qubits)
        return extract(be)

    monkeypatch.setattr(qkan.trainer, "extract_diagonal", counting)
    return reads


def test_train_fd_gradient_reads_every_candidate_in_one_application(monkeypatch):
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=132, scale=0.5),))
    data = quadratic_target_dataset(points=8)  # 64 samples
    model = qkan.SimulatedModel(spec, data.xs)
    reads = _counting_reads(monkeypatch)
    qkan.finite_diff_grad(spec, data, 1e-4, model=model)
    # 16 candidates of 64 samples: 2^10 (candidate, sample) pairs
    assert reads == [10] and len(model.assemblers[10]) == 1
    qkan.loss(spec, data, model=model)
    assert reads == [10, 6] and sorted(model.assemblers) == [6, 10]


def test_capped_register_runs_candidates_one_after_another(monkeypatch, rng):
    three = qkan.QkanSpec(
        tuple(qkan.LayerSpec.random(2, k, 2, seed=i) for i, k in enumerate((2, 2, 1)))
    )
    moved = three.with_layer_weights(2, three.layers[2].weights * 0.5)
    model = qkan.SimulatedModel(three, rng.uniform(-1, 1, (64, 2)))
    reads = _counting_reads(monkeypatch)
    got = model.outputs([three, moved])
    # m = 2 holds no two candidates' 64 samples: 16 chunks per candidate
    assert model.sample_qubits == 2 and list(model.assemblers) == [2]
    assert reads == [2] * 32
    assert np.array_equal(got[1], model.outputs([moved])[0])
    assert np.array_equal(got[0], model.outputs([three])[0])


@pytest.mark.parametrize("budget, widths", [(7, [1]), (12, [6]), (13, [6, 7])])
def test_the_budget_sets_how_many_candidates_share_the_register(budget, widths, rng):
    """The layer needs 6 qubits; 64 samples need 6 more per candidate."""
    spec = qkan.QkanSpec((qkan.LayerSpec.random(2, 1, 3, seed=133, scale=0.5),))
    moved = spec.with_layer_weights(0, spec.layers[0].weights * 0.5)
    with qkan.qubit_budget(budget):
        model = qkan.SimulatedModel(spec, rng.uniform(-1, 1, (64, 2)))
        got = model.outputs([spec, moved])
        assert sorted(model.assemblers) == widths
        assert np.array_equal(got[1], model.outputs([moved])[0])


def test_finite_differences_compile_the_first_layer_once_per_weight_tensor(monkeypatch):
    """The compile rule compiles layer 1 of 2->2->2->1 (d = 2) on 4 samples.
    One gradient compiles it once per distinct layer-1 weight tensor, not
    once per loss: the steps of deeper weights reuse it, bit for bit."""
    spec = qkan.QkanSpec(tuple(
        qkan.LayerSpec.random(2, n_out, 2, seed=70 + i, scale=0.8)
        for i, n_out in enumerate((2, 2, 1))
    ))
    data = qkan.Dataset.from_function(lambda x: np.array([0.1 * x[0] * x[1]]), 2, 2)
    model = qkan.SimulatedModel(spec, data.xs)
    compiles, first_weights = [], set()
    real_compile, real_outputs = qkan.network.compile_system_blocks, model.outputs

    def counting_compile(be):
        compiles.append(be)
        return real_compile(be)

    def recording_outputs(candidates):
        first_weights.update(candidate.layers[0].weights.tobytes() for candidate in candidates)
        return real_outputs(candidates)

    monkeypatch.setattr(qkan.network, "compile_system_blocks", counting_compile)
    monkeypatch.setattr(model, "outputs", recording_outputs)
    qkan.finite_diff_grad(spec, data, 1e-4, model=model)
    assert model.sample_qubits == 2
    assert len(first_weights) == 2 * spec.layers[0].weights.size + 1
    assert len(compiles) == len(first_weights)
    for index in (1, 2):  # steps of deeper weights, on the kept layer-1 output
        weights = spec.layers[index].weights.copy()
        weights[0, 0, 0] += 1e-4
        candidate = spec.with_layer_weights(index, weights)
        kept = qkan.loss(candidate, data, model=model)
        assert kept == qkan.loss(candidate, data, model=FreshModel(spec, data.xs))
    assert len(compiles) == len(first_weights) + 2  # the two fresh models only
