"""Synthetic clustered interaction data for experiments and tests."""
from __future__ import annotations

import numpy as np

from .data import InteractionDataset

__all__ = ["clustered_interactions"]


def clustered_interactions(n_users: int = 200, n_items: int = 300,
                           n_clusters: int = 4, per_user: int = 30,
                           in_cluster: float = 0.9, seed: int = 0) -> InteractionDataset:
    """Users mostly interact inside their latent cluster.

    Users and items are assigned to `n_clusters` contiguous blocks.  Each
    user draws `per_user` distinct items: with probability `in_cluster`
    from the own block (popularity-skewed so degree carries signal),
    otherwise uniformly from the rest of the catalog.  Raises ValueError
    naming an argument out of range or too large for any draw to meet.
    """
    if not 0.0 <= in_cluster <= 1.0:
        raise ValueError(f"in_cluster={in_cluster} must lie in [0, 1]")
    if not 1 <= n_clusters <= min(n_users, n_items):
        raise ValueError(f"n_clusters={n_clusters} must lie in [1, min(n_users, n_items)]")
    rng = np.random.default_rng(seed)
    user_cluster = (np.arange(n_users) * n_clusters) // n_users
    item_cluster = (np.arange(n_items) * n_clusters) // n_items
    cluster_items = [np.flatnonzero(item_cluster == c) for c in range(n_clusters)]
    # head items inside each cluster are more popular
    weights = []
    for members in cluster_items:
        w = 1.0 / (1.0 + np.arange(members.size))
        weights.append(w / w.sum())
    # in_cluster 1 draws only inside a user's cluster, 0 only outside it
    sizes = np.bincount(item_cluster)
    pool = {1.0: sizes.min(), 0.0: n_items - sizes.max()}.get(in_cluster, n_items)
    budget = min(per_user, n_items - 1)
    if pool < budget:
        raise ValueError(f"per_user={per_user} exceeds the {pool} items some user can draw")

    users, items = [], []
    for u in range(n_users):
        c = user_cluster[u]
        own = cluster_items[c]
        chosen: set[int] = set()
        while len(chosen) < budget:
            if rng.random() < in_cluster:
                i = int(rng.choice(own, p=weights[c]))
            else:
                i = int(rng.integers(n_items))
                if item_cluster[i] == c:
                    continue
            chosen.add(i)
        users.extend([u] * len(chosen))
        items.extend(sorted(chosen))
    return InteractionDataset(n_users, n_items,
                              np.array(users, dtype=np.int64),
                              np.array(items, dtype=np.int64))
