"""The finite-difference oracle that the gradient tests check gradcore's
backward rules against."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ssadvae.gradcore import Tensor, backward, constant, parameter


def finite_diff_check(f: Callable[[Tensor], Tensor], point, eps: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    ``f`` maps a trainable leaf tensor to a scalar tensor. Returns
    max_i |g_ad_i - g_fd_i| / max(1, |g_ad_i|). Non-finite function values
    near the point are a check failure and raise.
    """
    point = np.asarray(point, dtype=np.float64)
    leaf = parameter(point.copy())
    out = f(leaf)
    if not np.isfinite(out.data):
        raise FloatingPointError("non-finite function value at the check point")
    backward(out)
    g_ad = np.zeros_like(point) if leaf.grad is None else leaf.grad.copy()

    flat = point.reshape(-1)
    fd = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        fp = f(constant(bumped.reshape(point.shape))).item()
        bumped[i] = flat[i] - eps
        fm = f(constant(bumped.reshape(point.shape))).item()
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise FloatingPointError(f"non-finite function value near point (index {i})")
        fd[i] = (fp - fm) / (2.0 * eps)
    fd = fd.reshape(point.shape)
    rel = np.abs(g_ad - fd) / np.maximum(1.0, np.abs(g_ad))
    return float(rel.max()) if rel.size else 0.0
