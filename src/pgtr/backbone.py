"""Local neighborhood propagation over the bipartite graph."""
from __future__ import annotations

from dataclasses import dataclass, field

import scipy.sparse as sp

from .autodiff import Tensor, leaky_relu, matmul, spmm, transpose
from .data import BipartiteGraph
from .linalg import symmetric_normalized

__all__ = ["BackboneConfig", "normalized_adjacency", "propagate_layer", "readout"]

LEAKY_SLOPE = 0.2


@dataclass
class BackboneConfig:
    """`lightgcn` propagates by the normalized adjacency alone;
    `transform-gcn` adds a per-layer linear map and leaky nonlinearity."""

    variant: str = "lightgcn"
    transforms: list[Tensor] = field(default_factory=list)

    def __post_init__(self):
        if self.variant not in ("lightgcn", "transform-gcn"):
            raise ValueError(f"unknown backbone variant {self.variant!r}")


def normalized_adjacency(g: BipartiteGraph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} over all N+M nodes.

    Isolated nodes keep an all-zero row and propagate to zero.
    """
    return symmetric_normalized(g.full_adjacency())


def propagate_layer(h: Tensor, adj: sp.csr_matrix, cfg: BackboneConfig,
                    layer: int) -> Tensor:
    if h.data.shape[0] != adj.shape[0]:
        raise ValueError("embedding table row count does not match the graph")
    out = spmm(adj, h)
    if cfg.variant == "transform-gcn":
        out = leaky_relu(matmul(out, transpose(cfg.transforms[layer])), LEAKY_SLOPE)
    return out


def readout(layer_tables: list[Tensor]) -> Tensor:
    """Arithmetic mean over the layer-0..L tables."""
    if not layer_tables:
        raise ValueError("readout needs at least one table")
    acc = layer_tables[0]
    for t in layer_tables[1:]:
        acc = acc + t
    return acc * (1.0 / len(layer_tables))
