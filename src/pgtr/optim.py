"""Bias-corrected Adam over the gradient engine's parameters."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Per-parameter first/second moment buffers plus the step counter."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState):
    """Apply one update to every parameter, then clear gradients."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p.grad = None
