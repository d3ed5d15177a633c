import numpy as np
import pytest

import qkan
from qkan.resources import analytic_cost, reconcile, selector_qubits


def single_layer_spec(d, n=2, k=2, seed=0):
    return qkan.QkanSpec((qkan.LayerSpec.random(n, k, d, seed=seed),))


def test_selector_qubits():
    assert [selector_qubits(d) for d in (0, 1, 2, 3, 7)] == [0, 1, 2, 2, 3]


def test_single_layer_d3_counts():
    report = analytic_cost(single_layer_spec(3))
    layer = report.per_layer[0]
    assert layer.input_applications == 6
    assert layer.weight_applications == 4
    assert report.exact_cost == (1.0, 10.0)  # 6*C_x0 + 4*C_w
    assert report.expected_ledger["x"] == 6
    assert all(report.expected_ledger[f"w0[{r}]"] == 1 for r in range(4))


def test_asymptotic_model_d3():
    report = analytic_cost(single_layer_spec(3), c_x0=1.0)
    assert report.asymptotic_cost[-1] == pytest.approx(4.5 + 3.0)


def test_degree_zero_layer():
    report = analytic_cost(single_layer_spec(0))
    assert report.per_layer[0].input_applications == 0
    assert report.expected_ledger == {"w0[0]": 1}


def test_input_ratio():
    for d in (1, 3, 7):
        report = analytic_cost(single_layer_spec(d))
        assert report.per_layer[0].input_ratio_exact_over_asymptotic == pytest.approx((d + 1) / d)


def test_aux_totals_match_built_layer():
    for d in (1, 3, 7):
        spec = single_layer_spec(d)
        report = analytic_cost(spec)
        built = qkan.build_layer(
            qkan.encode_diagonal_exact(np.array([0.2, -0.4]), name="x"), spec.layers[0]
        )
        assert built.num_aux == report.aux_totals[-1]


def test_reconcile_single_layer():
    for d in (1, 3, 7):
        spec = single_layer_spec(d)
        report = analytic_cost(spec)
        built = qkan.build_layer(
            qkan.encode_diagonal_exact(np.array([0.2, -0.4]), name="x"), spec.layers[0]
        )
        result = reconcile(report, built)
        assert result.ok, result.diffs


def test_reconcile_two_layers():
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 1, seed=1), qkan.LayerSpec.random(2, 1, 1, seed=2))
    )
    report = analytic_cost(qspec)
    net = qkan.build_network(qkan.encode_diagonal_exact(np.array([0.1, 0.2]), name="x"), qspec)
    result = reconcile(report, net.output)
    assert result.ok, result.diffs
    assert report.aux_totals[-1] == net.output.num_aux
    # closed form: C_x^(2) = (d(d+1)/2)^2 C_x0 + ... with d = 1
    assert report.expected_ledger["x"] == 1


def test_reconcile_detects_mismatch():
    spec = single_layer_spec(1)
    report = analytic_cost(spec)
    # a degree-2 layer queries x three times, where the degree-1 model expects one
    other = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.1, 0.2]), name="x"),
                             qkan.LayerSpec.random(2, 1, 2, seed=0))
    result = reconcile(report, other)
    assert not result.ok
    assert "x" in result.diffs


def test_asymptotic_recursion_two_layers():
    qspec = qkan.QkanSpec(
        (qkan.LayerSpec.random(2, 2, 3, seed=1), qkan.LayerSpec.random(2, 1, 3, seed=2))
    )
    report = analytic_cost(qspec)
    d2 = 4.5
    assert report.asymptotic_cost[-1] == pytest.approx(d2 * (d2 * 1 + 3) + 3)
    assert report.exact_cost[-1] == pytest.approx(6 * (6 * 1 + 4) + 4)


def test_readout_query_section():
    report = analytic_cost(single_layer_spec(2)).with_readout(0.01, norm_const=0.5)
    final = analytic_cost(single_layer_spec(2)).exact_cost[-1]
    assert report.readout["hadamard_test_sampling"] == pytest.approx(final / 1e-4)
    assert report.readout["hadamard_test_amplitude_estimation"] == pytest.approx(final / 1e-2)
    assert report.readout["state_prep_amplification"] == pytest.approx(final * np.sqrt(2) / 0.5)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 3])
def test_built_network_cost_matches_exact_model(layers, d):
    dims = [2] * layers + [1]
    spec = qkan.QkanSpec(tuple(
        qkan.LayerSpec.random(n_in, n_out, d, seed=index)
        for index, (n_in, n_out) in enumerate(zip(dims, dims[1:]))
    ))
    be_x = qkan.encode_diagonal_exact(np.array([0.3, -0.7]), name="x")
    cost = qkan.build_network(be_x, spec).output.cost
    assert cost == analytic_cost(spec).expected_ledger
    assert cost["x"] == (d * (d + 1) // 2) ** layers
