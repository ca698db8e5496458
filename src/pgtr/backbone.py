"""Local neighborhood propagation over the bipartite graph."""
from __future__ import annotations

import scipy.sparse as sp

from .autodiff import Tensor, leaky_relu, matmul, mean, spmm, transpose
from .data import BipartiteGraph
from .linalg import symmetric_normalized

__all__ = ["normalized_adjacency", "propagate_layer", "readout"]

LEAKY_SLOPE = 0.2


def normalized_adjacency(g: BipartiteGraph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} over all N+M nodes.

    Isolated nodes keep an all-zero row and propagate to zero.
    """
    return symmetric_normalized(g.full_adjacency())


def propagate_layer(h: Tensor, adj: sp.csr_matrix, transform: Tensor | None = None) -> Tensor:
    """One layer: A h for the `lightgcn` backbone; leaky_relu((A h) W^T),
    with the layer's `transform` W, for `transform-gcn`."""
    if h.data.shape[0] != adj.shape[0]:
        raise ValueError("embedding table row count does not match the graph")
    out = spmm(adj, h)
    if transform is not None:
        out = leaky_relu(matmul(out, transpose(transform)), LEAKY_SLOPE)
    return out


def readout(layer_tables: list[Tensor]) -> Tensor:
    """Arithmetic mean over the layer-0..L tables, as one `mean` node."""
    if not layer_tables:
        raise ValueError("readout needs at least one table")
    return mean(layer_tables)
