"""The benchmark's workloads.  Kept free of heavy imports so the launcher
can list them without loading numpy or pgtr.

Every workload draws its interactions from
`pgtr.synthetic.clustered_interactions(n_users, n_items, per_user=...,
seed=<run seed>)`, splits them 0.8/0.2 per user, builds the model on the
fit graph with `PGTRConfig()` defaults, trains a fixed number of epochs
(patience = epochs, so early stopping never changes the work) and calls
the full-catalog `evaluate` repeatedly; `epochs` is per round of the
run (see pipeline.py).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    n_users: int
    n_items: int
    per_user: int
    batch_size: int
    epochs: int


WORKLOADS = {
    # 15,200 fit pairs, 2,000 nodes.  At the default batch size the in-batch
    # mask and masked log-sum-exp dominate a step, the graph forward is small.
    # Seeds 0-30 give 2-13 components, so set-up always makes 2 Lanczos calls.
    "fit-b2048": Workload(n_users=800, n_items=1200, per_user=30,
                          batch_size=2048, epochs=1),
    # Same graph, small batches: forward and backward through the graph
    # (position tape, propagation, attention) dominate a step instead.
    "fit-b256": Workload(n_users=800, n_items=1200, per_user=30,
                         batch_size=256, epochs=1),
    # Sparse long-tail graph (790 nodes, nearly all components isolated
    # items), above the dense-eigensolver cutoff of 512 nodes: set-up is
    # almost all Lanczos.  The growing-`ask` loop calls it 3 times when the
    # graph has 52-101 components; seeds 0-60 give 59-85.
    "cold-start": Workload(n_users=300, n_items=490, per_user=10,
                           batch_size=256, epochs=8),
}
