"""Standalone numgrad primitives that the library itself no longer calls.

The fused blocks in stgraph.numgrad each replace a chain of these small
primitives; the tests keep them to check the fused blocks against their
chains bit for bit, and to run the gradient checks of single operations.
Each records one tape entry through numgrad's own recording path.
"""

import numpy as np

from stgraph import numgrad as ng
from stgraph.errors import ShapeError
from stgraph.numgrad import Tensor


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose input must have 2 dimensions, got shape {x.data.shape}")
    return ng._emit(x.data.T, (x,), lambda g: (g.T,))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the derivative at exactly zero is zero."""
    y, mask = ng._relu_values(x.data)
    return ng._emit(y, (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    y = ng.sigmoid_values(x.data)
    return ng._emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction for stability."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects 1 or 2 dimensions, got shape {x.data.shape}")
    y = ng._softmax_values(x.data)
    return ng._emit(y, (x,), lambda g: (ng._softmax_grad(y, g),))


def layer_norm(x: Tensor, scale_: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    y = scale * (x - mean) / sqrt(var + eps) + shift, with the population
    variance over the last axis.
    """
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"layer_norm expects 1 or 2 dimensions, got shape {x.data.shape}")
    ng._need_affine(x, scale_, shift, "layer_norm")
    out, xhat, inv = ng._layer_norm_values(x.data, scale_.data, shift.data, eps)
    return ng._emit(out, (x, scale_, shift),
                    lambda g: ng._layer_norm_grads(g, xhat, inv, scale_.data))


def sum_all(x: Tensor) -> Tensor:
    return ng._emit(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return ng._emit(x.data.mean(), (x,), lambda g: (np.full_like(x.data, float(g) / n),))
