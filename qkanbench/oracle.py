"""Independent numpy reference for CHEB-QKAN layers; imports nothing from qkan.

Uses T_r(x) = cos(r arccos x) directly rather than the three-term recurrence
the package uses, so an error in either shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np


def chebyshev(x: np.ndarray, degree: int) -> np.ndarray:
    """T_r(x) for r = 0..degree, shape (degree + 1,) + x.shape."""
    theta = np.arccos(np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0))
    return np.cos(np.multiply.outer(np.arange(degree + 1), theta))


def layer(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Phi(x)_q = sum_{r,p} w[r,p,q] T_r(x_p) / (N (d+1)); x may carry leading batch axes."""
    d1, n_in, _ = weights.shape
    basis = chebyshev(x, d1 - 1)  # (d+1, ..., N)
    return np.einsum("r...p,rpq->...q", basis, weights) / (n_in * d1)


def network(x: np.ndarray, layers: list[np.ndarray]) -> np.ndarray:
    value = np.asarray(x, dtype=np.float64)
    for weights in layers:
        value = layer(value, weights)
    return value


def design_matrix(xs: np.ndarray, degree: int) -> np.ndarray:
    """Matrix A with A @ w.ravel() = layer(xs, w)[:, 0] for a K = 1 layer."""
    n_in = xs.shape[1]
    basis = chebyshev(xs, degree)  # (d+1, S, N)
    return np.transpose(basis, (1, 0, 2)).reshape(xs.shape[0], -1) / (n_in * (degree + 1))


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((np.asarray(pred) - np.asarray(target)) ** 2))


def grid(n_in: int, points_per_axis: int) -> np.ndarray:
    """Tensor grid over [-1, 1]^n_in, first axis slowest, shape (points^n_in, n_in)."""
    axis = np.linspace(-1.0, 1.0, points_per_axis)
    mesh = np.meshgrid(*([axis] * n_in), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
