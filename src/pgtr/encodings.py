"""Node positional encodings for the bipartite interaction graph.

Four encodings per node: spectral (Laplacian eigenvectors, frozen),
degree group, PageRank group, and node type.  The learned tables are
shared within rank groups; a pair of side-specific projections folds the
four terms into one d-vector per node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, parameter
from .data import BipartiteGraph, one_sided_adjacency
from .linalg import (laplacian_null_basis, normalized_laplacian, pagerank,
                     symmetric_eigs_smallest)

__all__ = [
    "EncodingError",
    "GroupAssignment",
    "SpectralEncoding",
    "PositionalProjection",
    "PositionalEncodingSet",
    "group_by_rank",
    "spectral_encoding",
    "degree_encoding",
    "pagerank_encoding",
    "type_table",
    "build_encoding_set",
    "node_position",
    "position_matrix",
]

class EncodingError(RuntimeError):
    pass


@dataclass
class GroupAssignment:
    side: str
    n_groups: int
    group_of: np.ndarray


def group_by_rank(values, n_groups: int, side: str = "") -> GroupAssignment:
    """Bucket nodes into near-equal contiguous rank blocks.

    Stable sort by (value ascending, index ascending); the first
    `count mod n_groups` groups take one extra member.
    """
    values = np.asarray(values)
    count = values.size
    if not 1 <= n_groups <= count:
        raise ValueError(f"n_groups={n_groups} out of range for {count} nodes")
    order = np.argsort(values, kind="stable")
    base, extra = divmod(count, n_groups)
    sizes = np.full(n_groups, base)
    sizes[:extra] += 1
    group_of = np.empty(count, dtype=np.int64)
    group_of[order] = np.repeat(np.arange(n_groups), sizes)
    return GroupAssignment(side=side, n_groups=n_groups, group_of=group_of)


@dataclass
class SpectralEncoding:
    """Frozen eigenvector features, H_C rows by (N+M) columns, users first."""

    matrix: np.ndarray

    @property
    def trainable(self) -> bool:
        return False


def _nontrivial_eigenvectors(adj, h: int, what: str) -> np.ndarray:
    """Columns of the h smallest eigenvectors of the normalized Laplacian
    outside its null space (one zero eigenvalue per connected component,
    isolated nodes included), found by one deflated solve."""
    if adj.nnz == 0:
        raise EncodingError(f"{what}: graph has no edges")
    null = laplacian_null_basis(adj)
    n, trivial = null.shape
    if h > n - trivial:
        raise EncodingError(
            f"{what}: needs {h} non-trivial eigenpairs but only {n - trivial} "
            f"are available ({trivial} trivial of {n} total)")
    _, vecs = symmetric_eigs_smallest(normalized_laplacian(adj), h, deflate=null)
    return vecs


def spectral_encoding(g: BipartiteGraph, h_c: int, lambda_c: float) -> SpectralEncoding:
    """Convex mix of whole-graph and one-sided Laplacian eigenvector features:
    each graph's h_c smallest eigenvectors outside its null space.

    lambda_c = 0 uses the bipartite graph only; lambda_c = 1 uses the
    user-side and item-side projection graphs only.
    """
    if h_c < 1:
        raise ValueError("h_c must be >= 1")
    if not 0.0 <= lambda_c <= 1.0:
        raise ValueError("lambda_c must lie in [0, 1]")
    n, m = g.n_users, g.n_items
    parts = []
    if lambda_c < 1.0:
        vecs = _nontrivial_eigenvectors(g.full_adjacency(), h_c, "bipartite graph")
        parts.append((1.0 - lambda_c, vecs.T))
    if lambda_c > 0.0:
        u_vecs = _nontrivial_eigenvectors(one_sided_adjacency(g, "user"), h_c,
                                          "user-side graph")
        i_vecs = _nontrivial_eigenvectors(one_sided_adjacency(g, "item"), h_c,
                                          "item-side graph")
        parts.append((lambda_c, np.hstack([u_vecs.T, i_vecs.T])))
    matrix = np.zeros((h_c, n + m))
    for weight, block in parts:
        matrix += weight * block
    return SpectralEncoding(matrix=matrix)


def _init_table(rows: int, cols: int, rng: np.random.Generator, name: str) -> Tensor:
    bound = 0.1 / np.sqrt(cols)
    return parameter(rng.uniform(-bound, bound, size=(rows, cols)), name=name)


def degree_encoding(g: BipartiteGraph, n_d: int, h_d: int, rng: np.random.Generator):
    """Group users by activity and items by popularity; one learned table per side."""
    user_assign = group_by_rank(g.user_degree, n_d, side="user")
    item_assign = group_by_rank(g.item_degree, n_d, side="item")
    user_table = _init_table(n_d, h_d, rng, "degree_user")
    item_table = _init_table(n_d, h_d, rng, "degree_item")
    return (user_table, user_assign), (item_table, item_assign)


def pagerank_encoding(g: BipartiteGraph, n_r: int, h_r: int, rng: np.random.Generator):
    """Group both sides by PageRank score on the full bipartite graph."""
    scores = pagerank(g)
    user_assign = group_by_rank(scores[:g.n_users], n_r, side="user")
    item_assign = group_by_rank(scores[g.n_users:], n_r, side="item")
    user_table = _init_table(n_r, h_r, rng, "pagerank_user")
    item_table = _init_table(n_r, h_r, rng, "pagerank_item")
    return (user_table, user_assign), (item_table, item_assign)


def type_table(h_y: int, rng: np.random.Generator) -> Tensor:
    """Two learned rows: row 0 for items, row 1 for users."""
    return _init_table(2, h_y, rng, "type_table")


@dataclass
class PositionalProjection:
    """Trainable maps folding each encoding into the embedding space."""

    w_item: Tensor
    w_user: Tensor
    w_spectral: Tensor | None
    w_degree: Tensor | None
    w_pagerank: Tensor | None
    w_type: Tensor | None


@dataclass
class PositionalEncodingSet:
    n_users: int
    n_items: int
    d: int
    lambda_c: float
    spectral: SpectralEncoding | None
    degree_user: tuple[Tensor, GroupAssignment] | None
    degree_item: tuple[Tensor, GroupAssignment] | None
    pagerank_user: tuple[Tensor, GroupAssignment] | None
    pagerank_item: tuple[Tensor, GroupAssignment] | None
    types: Tensor | None
    projection: PositionalProjection | None

    @property
    def any_enabled(self) -> bool:
        return self.projection is not None

    def trainable_tables(self) -> list[tuple[str, Tensor]]:
        named = []
        for attr in ("degree_user", "degree_item", "pagerank_user", "pagerank_item"):
            pair = getattr(self, attr)
            if pair is not None:
                named.append((attr, pair[0]))
        if self.types is not None:
            named.append(("type_table", self.types))
        if self.projection is not None:
            p = self.projection
            for label, t in (("proj_item", p.w_item), ("proj_user", p.w_user),
                             ("proj_spectral", p.w_spectral), ("proj_degree", p.w_degree),
                             ("proj_pagerank", p.w_pagerank), ("proj_type", p.w_type)):
                if t is not None:
                    named.append((label, t))
        return named


def build_encoding_set(g: BipartiteGraph, d: int, h_c: int, h_d: int, h_r: int,
                       h_y: int, n_d: int, n_r: int, lambda_c: float,
                       rng: np.random.Generator,
                       use_spectral: bool = True, use_degree: bool = True,
                       use_pagerank: bool = True, use_type: bool = True) -> PositionalEncodingSet:
    spectral = spectral_encoding(g, h_c, lambda_c) if use_spectral else None
    deg_u = deg_i = pr_u = pr_i = None
    if use_degree:
        deg_u, deg_i = degree_encoding(g, n_d, h_d, rng)
    if use_pagerank:
        pr_u, pr_i = pagerank_encoding(g, n_r, h_r, rng)
    types = type_table(h_y, rng) if use_type else None

    projection = None
    if use_spectral or use_degree or use_pagerank or use_type:
        projection = PositionalProjection(
            w_item=_init_table(d, d, rng, "proj_item"),
            w_user=_init_table(d, d, rng, "proj_user"),
            w_spectral=_init_table(d, h_c, rng, "proj_spectral") if use_spectral else None,
            w_degree=_init_table(d, h_d, rng, "proj_degree") if use_degree else None,
            w_pagerank=_init_table(d, h_r, rng, "proj_pagerank") if use_pagerank else None,
            w_type=_init_table(d, h_y, rng, "proj_type") if use_type else None)
    return PositionalEncodingSet(
        n_users=g.n_users, n_items=g.n_items, d=d, lambda_c=lambda_c,
        spectral=spectral, degree_user=deg_u, degree_item=deg_i,
        pagerank_user=pr_u, pagerank_item=pr_i, types=types,
        projection=projection)


def _inner_matrix(enc: PositionalEncodingSet) -> np.ndarray:
    """Sum of projected encoding terms before the side-specific map."""
    n, m = enc.n_users, enc.n_items
    inner = np.zeros((n + m, enc.d))
    p = enc.projection
    if p is None:
        return inner
    if enc.spectral is not None:
        inner += enc.spectral.matrix.T @ p.w_spectral.data.T
    if enc.degree_user is not None:
        table_u, asg_u = enc.degree_user
        table_i, asg_i = enc.degree_item
        stacked = np.vstack([table_u.data[asg_u.group_of], table_i.data[asg_i.group_of]])
        inner += stacked @ p.w_degree.data.T
    if enc.pagerank_user is not None:
        table_u, asg_u = enc.pagerank_user
        table_i, asg_i = enc.pagerank_item
        stacked = np.vstack([table_u.data[asg_u.group_of], table_i.data[asg_i.group_of]])
        inner += stacked @ p.w_pagerank.data.T
    if enc.types is not None:
        type_rows = np.concatenate([np.ones(n, dtype=np.int64), np.zeros(m, dtype=np.int64)])
        inner += enc.types.data[type_rows] @ p.w_type.data.T
    return inner


def position_matrix(enc: PositionalEncodingSet) -> np.ndarray:
    """Dense (N+M) x d position vectors for every node, users first."""
    n = enc.n_users
    inner = _inner_matrix(enc)
    if enc.projection is None:
        return inner
    out = np.empty_like(inner)
    out[:n] = inner[:n] @ enc.projection.w_user.data.T
    out[n:] = inner[n:] @ enc.projection.w_item.data.T
    return out


def node_position(enc: PositionalEncodingSet, j: int) -> np.ndarray:
    """Position vector of node j (users occupy indices 0..N-1)."""
    if not 0 <= j < enc.n_users + enc.n_items:
        raise IndexError(f"node {j} out of range")
    return position_matrix(enc)[j]
