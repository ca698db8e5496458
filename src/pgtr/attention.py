"""All-pairs attention on the gradient tape: exact softmax and the
linear-cost positive-random-feature approximation.

The feature map phi(x) = exp(-|x|^2/2)/sqrt(m) * [exp(w_k.x)]_k gives an
unbiased estimate phi(q).phi(k) of exp(q.k).  Both attentions scale
queries and keys by `scale` (the model uses 1/sqrt(d)) to keep the
exponentials bounded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant

__all__ = [
    "AttentionError",
    "RandomFeatureMap",
    "make_feature_map",
    "feature_map",
    "exact_attention",
    "kernelized_attention",
]

MAX_EXPONENT = 700.0
MIN_DENOMINATOR = 1e-30

Projections = tuple[Tensor, Tensor, Tensor]


class AttentionError(RuntimeError):
    pass


@dataclass
class RandomFeatureMap:
    """m i.i.d. standard-normal directions, frozen after construction."""

    m: int
    directions: np.ndarray
    seed: int


def make_feature_map(m: int, d: int, seed: int) -> RandomFeatureMap:
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return RandomFeatureMap(m=m, directions=rng.standard_normal((m, d)), seed=seed)


def feature_map(x: Tensor, rf: RandomFeatureMap) -> Tensor:
    """phi(x) for every row of a (T, d) table."""
    sq = ad.sum_axis(x * x, axis=1)
    logits = ad.matmul(x, constant(rf.directions.T))
    if logits.data.max(initial=-np.inf) > MAX_EXPONENT:
        raise AttentionError("feature map direction products overflow exp; scale inputs down")
    return ad.exp(logits - sq * 0.5) * (1.0 / np.sqrt(rf.m))


def _queries_keys_values(h: Tensor, proj: Projections | None) -> Projections:
    if h.data.ndim != 2 or h.data.shape[0] < 1:
        raise ValueError("attention input must be a nonempty (T, d) table")
    if proj is None:
        return h, h, h
    return tuple(ad.matmul(h, ad.transpose(w)) for w in proj)


def kernelized_attention(h: Tensor, rf: RandomFeatureMap, scale: float,
                         proj: Projections | None = None) -> Tensor:
    """Linear-cost attention via two global feature summaries: no (T, T)
    table is formed."""
    q, k, v = _queries_keys_values(h, proj)
    phi_q = feature_map(q * scale, rf)
    phi_k = phi_q if proj is None else feature_map(k * scale, rf)
    summary = ad.matmul(ad.transpose(phi_k), v)
    totals = ad.sum_axis(phi_k, axis=0)
    numer = ad.matmul(phi_q, summary)
    denom = ad.matmul(phi_q, ad.transpose(totals))
    if denom.data.min() < MIN_DENOMINATOR:
        raise AttentionError("attention denominator underflow; inputs need rescaling")
    return ad.div(numer, denom)


def exact_attention(h: Tensor, scale: float, proj: Projections | None = None) -> Tensor:
    """Quadratic-cost softmax aggregation over all (T, T) pairs."""
    q, k, v = _queries_keys_values(h, proj)
    logits = ad.matmul(q * scale, ad.transpose(k * scale))
    weights = ad.exp(logits - ad.logsumexp_rows(logits))
    return ad.matmul(weights, v)
