"""Node positional encodings for the bipartite interaction graph.

Four encodings per node: spectral (Laplacian eigenvectors, frozen),
degree group, PageRank group, and node type.  The learned tables are
shared within rank groups; a pair of side-specific projections folds the
four terms into one d-vector per node, which `position_tape` computes on
the gradient tape for every node at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant, parameter
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
    "position_tape",
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
    return _encoding_set(g, spectral, d, h_c, h_d, h_r, h_y, n_d, n_r, lambda_c, rng,
                         use_degree, use_pagerank, use_type)


def _encoding_set(g: BipartiteGraph, spectral: SpectralEncoding | None, d: int, h_c: int,
                  h_d: int, h_r: int, h_y: int, n_d: int, n_r: int, lambda_c: float,
                  rng: np.random.Generator, use_degree: bool, use_pagerank: bool,
                  use_type: bool) -> PositionalEncodingSet:
    """`build_encoding_set` around a given spectral block (None: spectral off)."""
    use_spectral = spectral is not None
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


def position_tape(enc: PositionalEncodingSet) -> Tensor | None:
    """P_j for every node on the gradient tape, users first; None when
    every encoding is off."""
    if not enc.any_enabled:
        return None
    n, m = enc.n_users, enc.n_items
    p = enc.projection
    terms = []
    if enc.spectral is not None:
        terms.append(ad.matmul(constant(enc.spectral.matrix.T), ad.transpose(p.w_spectral)))
    if enc.degree_user is not None:
        table_u, asg_u = enc.degree_user
        table_i, asg_i = enc.degree_item
        stacked = ad.concat_rows([ad.gather_rows(table_u, asg_u.group_of),
                                  ad.gather_rows(table_i, asg_i.group_of)])
        terms.append(ad.matmul(stacked, ad.transpose(p.w_degree)))
    if enc.pagerank_user is not None:
        table_u, asg_u = enc.pagerank_user
        table_i, asg_i = enc.pagerank_item
        stacked = ad.concat_rows([ad.gather_rows(table_u, asg_u.group_of),
                                  ad.gather_rows(table_i, asg_i.group_of)])
        terms.append(ad.matmul(stacked, ad.transpose(p.w_pagerank)))
    if enc.types is not None:
        type_rows = np.concatenate([np.ones(n, dtype=np.int64), np.zeros(m, dtype=np.int64)])
        terms.append(ad.matmul(ad.gather_rows(enc.types, type_rows), ad.transpose(p.w_type)))
    inner = terms[0]
    for t in terms[1:]:
        inner = inner + t
    return ad.concat_rows([
        ad.matmul(ad.slice_rows(inner, 0, n), ad.transpose(p.w_user)),
        ad.matmul(ad.slice_rows(inner, n, n + m), ad.transpose(p.w_item)),
    ])
