"""Bias-corrected Adam over the gradient engine's parameters."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Per-parameter first/second moment buffers, two scratch buffers each
    for the update's temporaries, plus the step counter."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]


def adam_step(state: AdamState):
    """Apply one update to every parameter, then clear gradients.

    The update is p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS), each
    temporary written into the parameter's scratch buffers in that order."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for p, m, v, (a, b) in zip(state.params, state.m, state.v, state.scratch):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - BETA2
        v += a
        np.divide(m, bc1, out=a)
        a *= state.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p.data -= a
        p.grad = None
