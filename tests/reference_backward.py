"""The trainer's forward and backward passes before backward read the
forward cache, kept verbatim.

The forward pass cached each hidden layer's pre-activation, and the
backward pass rebuilt every ReLU and dropout activation from it.
tests/test_trainer.py checks that hrrkit.trainer's cached passes give
the same outputs and gradients, bit for bit.
"""

from __future__ import annotations

import numpy as np

from hrrkit.trainer import _RowGrad


def _forward_sparse(model, batch, dropout=0.0, rng=None):
    """Forward pass over a batch SparseDataset, returning the layer cache.

    The first layer gathers only the weight rows of active features, one
    CSR row at a time; later layers are dense matrix products.
    """
    w1, b1 = model.weights[0], model.biases[0]
    z1 = np.tile(b1, (batch.n_examples, 1))
    for row, (lo, hi) in enumerate(zip(batch.indptr[:-1].tolist(), batch.indptr[1:].tolist())):
        if hi > lo:
            z1[row] += batch.values[lo:hi] @ w1[batch.indices[lo:hi]]
    acts = [None, z1]
    a = np.maximum(z1, 0.0)
    masks = [None]
    a, mask = _dropout(a, dropout, rng)
    masks.append(mask)
    for w, b in zip(model.weights[1:-1], model.biases[1:-1]):
        z = a @ w + b
        acts.append(z)
        a = np.maximum(z, 0.0)
        a, mask = _dropout(a, dropout, rng)
        masks.append(mask)
    out = a @ model.weights[-1] + model.biases[-1]
    return out, acts, masks


def _dropout(a, rate, rng):
    if rate <= 0.0 or rng is None:
        return a, None
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return a * mask, mask


def _backward_sparse(model, batch, acts, masks, grad_out):
    """Parameter gradients for a batch given the output gradient.

    The first layer's weight gradient is a _RowGrad: the touched rows and
    X_b^T delta for them, where X_b is the batch's value matrix.
    """
    n_layers = len(model.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    relu_acts = []
    for z, mask in zip(acts[1:], masks[1:]):
        a = np.maximum(z, 0.0)
        if mask is not None:
            a = a * mask
        relu_acts.append(a)
    delta = grad_out
    for layer in range(n_layers - 1, 0, -1):
        a_prev = relu_acts[layer - 1]
        grads_w[layer] = a_prev.T @ delta
        grads_b[layer] = delta.sum(axis=0)
        da = delta @ model.weights[layer].T
        if masks[layer] is not None:
            da = da * masks[layer]
        delta = da * (acts[layer] > 0)
    grads_b[0] = delta.sum(axis=0)
    rows, cols = np.unique(batch.indices, return_inverse=True)
    x = np.zeros((batch.n_examples, rows.size))  # X_b; unique features in a row: one write a cell
    x[np.repeat(np.arange(batch.n_examples), np.diff(batch.indptr)), cols] = batch.values
    grads_w[0] = _RowGrad(rows, x.T @ delta)
    return grads_w, grads_b
