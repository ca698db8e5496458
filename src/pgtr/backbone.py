"""Local neighborhood propagation over the bipartite graph."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor, mean, spmm
from .data import BipartiteGraph
from .linalg import symmetric_normalized

__all__ = ["normalized_adjacency", "propagate_layer", "leaky_transform", "readout"]

LEAKY_SLOPE = 0.2


def normalized_adjacency(g: BipartiteGraph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} over all N+M nodes.

    Isolated nodes keep an all-zero row and propagate to zero.
    """
    return symmetric_normalized(g.full_adjacency())


def propagate_layer(h: Tensor, adj: sp.csr_matrix, transform: Tensor | None = None) -> Tensor:
    """One layer: the `spmm` node A h for the `lightgcn` backbone, followed
    for `transform-gcn` by a `leaky_transform` node with the layer's W."""
    if h.data.shape[0] != adj.shape[0]:
        raise ValueError("embedding table row count does not match the graph")
    out = spmm(adj, h)
    if transform is not None:
        out = leaky_transform(out, transform)
    return out


def leaky_transform(x: Tensor, w: Tensor) -> Tensor:
    """leaky_relu(x W^T) as one node with parents x and W, bit for bit the
    tests' taped `leaky_relu(matmul(x, transpose(w)))` (so W's gradient is
    taken as (x^T dz)^T rather than dz^T x)."""
    z = x.data @ w.data.T
    pos = z > 0

    def bw(g):
        dz = np.where(pos, g, LEAKY_SLOPE * g)
        if x._needs:
            ad._accum(x, dz @ w.data)
        if w._needs:
            ad._accum(w, (x.data.T @ dz).T)

    return ad._make(np.where(pos, z, LEAKY_SLOPE * z), "leaky_transform", (x, w), bw)


def readout(layer_tables: list[Tensor]) -> Tensor:
    """Arithmetic mean over the layer-0..L tables, as one `mean` node."""
    if not layer_tables:
        raise ValueError("readout needs at least one table")
    return mean(layer_tables)
