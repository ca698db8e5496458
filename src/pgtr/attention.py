"""All-pairs attention on the gradient tape, at linear cost: the
positive-random-feature approximation of softmax attention (Performer's
FAVOR+).

The feature map phi(x) = exp(-|x|^2/2)/sqrt(m) * [exp(w_j.x)]_j gives an
unbiased estimate phi(q).phi(k) of exp(q.k), so softmax attention becomes
the ratio phi(Q) (phi(K)^T V) / phi(Q) (phi(K)^T 1), linear in the row
count T.  Queries, keys and values are all the one input table, with no maps
of their own; queries and keys are scaled by `scale` (the model uses
1/sqrt(d)).

`kernelized_attention` evaluates that ratio as one tape node with a
hand-written backward, on stabilized features.  A factor shared by all of a
query row's features, or by every key feature, cancels in the ratio, so
- a query row's features are exp(w_j.x - max_j w_j.x): the row's largest
  logit is subtracted, and its exp(-|x|^2/2)/sqrt(m) factor dropped;
- the key features are exp(w_j.x - |x|^2/2 - c), where c is the largest
  such exponent over every key row and direction.
Every exponential is then at most 1 and cannot overflow.  The ratio's value
and its gradient are those of the unstabilized formula.

This is the model's only attention: exact (T, T) softmax attention is kept
in the tests, as the reference the approximation is measured against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError, Tensor

__all__ = [
    "AttentionError",
    "RandomFeatureMap",
    "make_feature_map",
    "kernelized_attention",
]

MIN_DENOMINATOR = 1e-30


class AttentionError(NumericsError):
    """Some row's attention denominator fell below MIN_DENOMINATOR: the
    keys carry (almost) no mass in the directions its query weights.  In
    float32 a key row is dropped once its scale falls below about e^-87, so
    inputs whose rows differ widely in norm or direction reach this sooner
    than in float64."""


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


def kernelized_attention(h: Tensor, rf: RandomFeatureMap, scale: float) -> Tensor:
    """Linear-cost attention of the rows of `h` over themselves, via one
    global (m, d + 1) summary of the key features against the values and a
    ones column: no (T, T) table is formed.  The op's one parent is `h`.

    Computes in the dtype of `h` and `rf.directions`: float32 in the
    model, float64 when either is float64.

    Raises AttentionError when some row's denominator falls below
    MIN_DENOMINATOR (about e^-69).  With the stabilized features that
    happens only when the directions a query weights most carry almost
    none of the key mass: the keys' summed features in those directions
    are below about 1e-30 of the largest key feature.  Large-norm rows
    pointing in opposite directions do this: each row's dominant directions
    see only the other rows' exp(-|x|^2/2)-damped features.  In float32 a
    key row's features flush to zero once its scale falls below about
    e^-87 of the largest key's (e^-745 in float64), so a query's
    denominator can be exactly 0; that raises AttentionError too, never a
    NaN.
    """
    if h.data.ndim != 2 or h.data.shape[0] < 1:
        raise ValueError("attention input must be a nonempty (T, d) table")
    w = rf.directions
    scale = float(scale)  # a NumPy float64 scale would promote a float32 `h`
    xq = h.data * scale
    logits = xq @ w.T
    top = logits.max(axis=1, keepdims=True)
    logits -= top
    phi_q = np.exp(logits, out=logits)
    # the values with a ones column: one product gives the numerators and
    # the denominator
    values = np.empty((h.data.shape[0], h.data.shape[1] + 1), dtype=logits.dtype)
    values[:, :-1] = h.data
    values[:, -1] = 1.0
    # the key features are phi_q times a (T, 1) row scale, which the values
    # carry: no second (T, m) exp or table
    shift = top - 0.5 * np.einsum("ij,ij->i", xq, xq)[:, None]
    row_scale = np.exp(shift - shift.max())
    values *= row_scale
    summary = phi_q.T @ values
    numer = phi_q @ summary
    den = numer[:, -1:]
    if den.min() < MIN_DENOMINATOR:
        raise AttentionError("attention denominator underflow; inputs need rescaling")
    out = numer[:, :-1] / den

    def bw(g):
        d_numer = np.empty_like(numer)
        np.divide(g, den, out=d_numer[:, :-1])
        d_numer[:, -1] = np.einsum("ij,ij->i", g, out)
        d_numer[:, -1:] /= -den
        d_summary = phi_q.T @ d_numer
        d_values = phi_q @ d_summary
        # row i is d(loss)/d(log of key row i's features): the keys'
        # -|x|^2/2 term turns it into a gradient of -key_mass * x
        key_mass = np.einsum("ij,ij->i", values, d_values)[:, None]
        # queries and keys share phi_q: one (T, m) product for both
        da = np.hstack([d_numer, values]) @ np.hstack([summary, d_summary]).T
        da *= phi_q
        ad._accum(h, d_values[:, :-1] * row_scale + scale * (da @ w - key_mass * xq))

    return ad._make(out, "kernelized_attention", (h,), bw)
