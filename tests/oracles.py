"""Independent test-side oracles, kept free of the code paths they check."""

import numpy as np


def dense_kron(*mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def chebyshev_values(x, degree):
    """T_r(x) for r = 0..degree via cos(r arccos x)."""
    x = np.asarray(x, dtype=float)
    return np.array([np.cos(r * np.arccos(np.clip(x, -1, 1))) for r in range(degree + 1)])


def chebyshev_derivatives(x, degree):
    """T_r'(x) = r U_{r-1}(x) via the second-kind recurrence."""
    x = np.asarray(x, dtype=float)
    u = np.empty((degree + 1,) + x.shape)
    u[0] = 1.0
    if degree >= 1:
        u[1] = 2.0 * x
    for r in range(2, degree + 1):
        u[r] = 2.0 * x * u[r - 1] - u[r - 2]
    out = np.zeros((degree + 1,) + x.shape)
    for r in range(1, degree + 1):
        out[r] = r * u[r - 1]
    return out


def layer_forward(x, weights):
    """Phi(x) for one layer, weights (d+1, N, K)."""
    d = weights.shape[0] - 1
    n_in = weights.shape[1]
    basis = chebyshev_values(x, d)
    return np.einsum("rp,rpq->q", basis, weights) / (n_in * (d + 1))


def network_forward(x, weight_list):
    value = np.asarray(x, dtype=float)
    for weights in weight_list:
        value = layer_forward(value, weights)
    return value


def analytic_loss_gradient(weight_list, xs, ys):
    """Gradient of the MSE of the layered Chebyshev model by backpropagation.

    Returns one array per layer, matching the weight shapes. Loss is the mean
    of squared errors over all (sample, output) pairs.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n_samples = xs.shape[0]
    k_out = ys.shape[1]
    grads = [np.zeros_like(w) for w in weight_list]
    for s in range(n_samples):
        activations = [xs[s]]
        for w in weight_list:
            activations.append(layer_forward(activations[-1], w))
        delta = 2.0 * (activations[-1] - ys[s]) / (n_samples * k_out)
        for layer in reversed(range(len(weight_list))):
            w = weight_list[layer]
            d = w.shape[0] - 1
            n_in = w.shape[1]
            a_in = activations[layer]
            basis = chebyshev_values(a_in, d)          # (d+1, N)
            dbasis = chebyshev_derivatives(a_in, d)    # (d+1, N)
            scale = 1.0 / (n_in * (d + 1))
            grads[layer] += scale * np.einsum("rp,q->rpq", basis, delta)
            jac = scale * np.einsum("rpq,rp->qp", w, dbasis)  # dPhi_q/da_p
            delta = delta @ jac
        # delta now refers to the input layer; discard
    return grads


def binomial_ci_halfwidth(p, shots, z=1.96):
    return z * np.sqrt(p * (1 - p) / shots)


def hadamard_test(u, q, shots=0, seed=None):
    """(value, stderr) of the Hadamard test on column q of the dense unitary u.

    The circuit (H (x) I) CU (H (x) I), control on the top qubit, acts on
    |0>|q>; exact mode returns 2 Re <0|<q|psi> - 1, shots mode draws the
    control-0 count from ``np.random.default_rng(seed)``."""
    dim = u.shape[0]
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    h_top = np.kron(h, np.eye(dim))
    cu = np.block([[np.eye(dim), np.zeros((dim, dim))], [np.zeros((dim, dim)), u]])
    psi = h_top @ (cu @ h_top[:, q])
    if shots == 0:
        return 2.0 * psi[q].real - 1.0, 0.0
    p_zero = min(max(float(np.sum(np.abs(psi[:dim]) ** 2)), 0.0), 1.0)
    p_hat = np.random.default_rng(seed).binomial(shots, p_zero) / shots
    return 2.0 * p_hat - 1.0, 2.0 * np.sqrt(p_hat * (1.0 - p_hat) / shots)
