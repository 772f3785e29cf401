import numpy as np


def finite_difference_gradient(loss_fn, array, indices, eps=1e-6):
    """Central finite differences of ``loss_fn()`` w.r.t. ``array[idx]``."""
    grads = {}
    for idx in indices:
        orig = array[idx]
        array[idx] = orig + eps
        up = loss_fn()
        array[idx] = orig - eps
        down = loss_fn()
        array[idx] = orig
        grads[idx] = (up - down) / (2 * eps)
    return grads


def rank_floor(x, quad_weights, rank):
    """The least mean loss of any reconstruction in an affine space of dimension
    ``rank``: the centred data, each value times the root of its quadrature
    weight, keep their top ``rank`` singular values (Eckart–Young)."""
    n = len(x)
    flat = x.reshape(n, -1)
    scaled = (flat - flat.mean(axis=0)) * np.sqrt(np.tile(quad_weights, x.shape[1]))
    svals = np.linalg.svd(scaled, compute_uv=False)
    return float((svals[rank:] ** 2).sum() / n)
