"""Node positional encodings for the bipartite interaction graph.

Four encodings per node.  Spectral is a frozen block of the interaction
graph's normalized Laplacian eigenvectors, the smallest outside its null
space: one eigensolve on the graph's smaller side, min(N, M) nodes,
lifted to the whole graph and certified on its Laplacian, or a solve of
the whole graph when the wanted spectrum reaches 1.  Degree, PageRank and
node type are grouped encodings: one learned table row per structural
group of nodes, picked by a frozen group id per node.  Each encoding has
a projection into the embedding space, and a pair of side-specific
projections folds the sum into one d-vector per node.  `position_tape`
computes those vectors for every node at once as one tape node,
`position`, from a frozen feature matrix that holds each node's
eigenvector features and one-hot group ids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .data import BipartiteGraph
from .linalg import (RESIDUAL_TOL, ConvergenceError, GramOperator,
                     certified_eigenvectors, laplacian_null_basis, normalized_laplacian,
                     pagerank, symmetric_eigs_smallest)

__all__ = [
    "EncodingError",
    "SpectralEncoding",
    "GroupedEncoding",
    "PositionalEncodingSet",
    "group_by_rank",
    "spectral_encoding",
    "build_encoding_set",
    "position_tape",
]

class EncodingError(RuntimeError):
    pass


def group_by_rank(values, n_groups: int) -> np.ndarray:
    """Each node's group among near-equal contiguous rank blocks.

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
    return group_of


def _lifted_eigenvectors(lap, null, n_users: int, h: int) -> np.ndarray | None:
    """The h smallest eigenvectors of a bipartite graph's normalized
    Laplacian L (users first) outside its null space `null`, from one solve
    on the graph's smaller side; None when that side cannot give them.

    Let R be the normalized biadjacency D_u^{-1/2} B D_i^{-1/2} with one
    row per node of the smaller side: minus L's off-diagonal block.  Each
    singular triplet (s, u, v) of R gives L the eigenpair
    (1 - s, [u; v] / sqrt 2), and L's other non-trivial eigenvalues are
    >= 1.  So the side's `GramOperator` diag(d > 0) - R R^T, whose null
    space is the side's rows of `null` (renormalized, empty columns
    dropped), gives L's h smallest as its own, 1 - s^2, and each eigenvector
    u lifts to [u; R^T u / s] / sqrt 2.  Every lifted pair is certified on
    L itself.

    None when the side has fewer than h non-trivial pairs, when the h-th
    s^2 is within the side solve's tolerance of 0 (L's eigenvalue may then
    be 1, whose eigenvectors can lie in ker R or ker R^T instead), or when
    a lifted residual fails.
    """
    n = lap.shape[0]
    users, items = slice(0, n_users), slice(n_users, n)
    side, other = (users, items) if n_users <= n - n_users else (items, users)
    basis = null[side]
    norms = np.sqrt(np.asarray(basis.multiply(basis).sum(axis=0)).ravel())
    kept = np.flatnonzero(norms)
    basis = basis[:, kept] @ sp.diags(1.0 / norms[kept])
    if h > basis.shape[0] - basis.shape[1]:
        return None
    gram = GramOperator(-lap[side, other])
    vals, u = symmetric_eigs_smallest(gram, h, deflate=basis)
    if not 1.0 - vals[-1] > RESIDUAL_TOL * gram.one_norm():
        return None
    s = np.sqrt(1.0 - vals)
    vecs = np.empty((n, h))
    vecs[side] = u
    vecs[other] = (gram.rt @ u) / s
    vecs /= np.sqrt(2.0)
    try:
        return certified_eigenvectors(lap, 1.0 - s, vecs)
    except ConvergenceError:
        return None


def spectral_encoding(g: BipartiteGraph, h_c: int) -> np.ndarray:
    """The h_c smallest eigenvectors of the bipartite graph's normalized
    Laplacian outside its null space (one zero eigenvalue per connected
    component, isolated nodes included), as an (h_c, N+M) array, users
    first.

    They come from one eigensolve on the graph's smaller side when its h_c
    smallest non-trivial eigenvalues lie below 1 (see
    `_lifted_eigenvectors`), and from one deflated solve of the whole graph
    otherwise.  Raises EncodingError when the graph has fewer than h_c
    non-trivial eigenpairs.
    """
    if h_c < 1:
        raise ValueError("h_c must be >= 1")
    adj = g.full_adjacency()
    null = laplacian_null_basis(adj)
    n, trivial = null.shape
    if h_c > n - trivial:
        raise EncodingError(
            f"bipartite graph: needs {h_c} non-trivial eigenpairs but only {n - trivial} "
            f"are available ({trivial} trivial of {n} total)")
    lap = normalized_laplacian(adj, g.normalized_adjacency())
    vecs = _lifted_eigenvectors(lap, null, g.n_users, h_c)
    if vecs is None:
        _, vecs = symmetric_eigs_smallest(lap, h_c, deflate=null)
    # C order, with +0.0 where a sign flip left a zero entry at -0.0
    return np.add(vecs.T, 0.0, order="C")


def _init_table(rows: int, cols: int, rng: np.random.Generator) -> Tensor:
    """A (rows, cols) parameter drawn from U(-0.1/sqrt(cols), 0.1/sqrt(cols))."""
    bound = 0.1 / np.sqrt(cols)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))


def _group_ids(g: BipartiteGraph, name: str, groups: int) -> np.ndarray:
    """Each node's table row, users first: degree and PageRank rank each
    side into `groups` groups, the items' offset after the users'; type
    gives users row 1 and items row 0."""
    if name == "type":
        return np.repeat(np.array([1, 0], dtype=np.int64), [g.n_users, g.n_items])
    if name == "degree":
        user_values, item_values = g.user_degree, g.item_degree
    else:
        user_values, item_values = np.split(
            pagerank(g.full_adjacency(), g.normalized_adjacency()), [g.n_users])
    return np.concatenate([group_by_rank(user_values, groups),
                           groups + group_by_rank(item_values, groups)])


def _stored(stored: dict, name: str, shape: tuple, id_bound: int | None = None) -> np.ndarray:
    """`stored[name]`, checked for its shape and kind: a float block as
    float64, or given `id_bound`, integer ids in [0, id_bound) as int64."""
    block = stored.get(name)
    kind, what = ((np.floating, "floats") if id_bound is None
                  else (np.integer, f"integer ids in [0, {id_bound})"))
    if (block is None or block.shape != shape or not np.issubdtype(block.dtype, kind)
            or (id_bound is not None and not np.all((block >= 0) & (block < id_bound)))):
        raise ValueError(f"stored block {name!r} is missing or not a {shape} block of {what}")
    return block.astype(np.float64 if id_bound is None else np.int64, copy=False)


@dataclass
class SpectralEncoding:
    """Frozen eigenvector features, h_c rows by (N+M) columns, users first,
    and their (d, h_c) projection."""

    matrix: np.ndarray
    projection: Tensor


@dataclass
class GroupedEncoding:
    """One learned `table` row per structural group, the users' groups
    first; each node's frozen row in `group_of` ((N+M,) int64, users
    first); and the (d, h) projection of a row."""

    name: str
    table: Tensor
    group_of: np.ndarray
    projection: Tensor


@dataclass
class PositionalEncodingSet:
    """The enabled encodings; `w_user` and `w_item` are None when every
    encoding is off.  `features` is the frozen (N+M, F) matrix that
    `position_tape` multiplies, users first: each node's spectral column,
    then its one-hot table row of each grouped encoding in `grouped` order;
    None when every encoding is off."""

    n_users: int
    n_items: int
    spectral: SpectralEncoding | None
    grouped: list[GroupedEncoding]
    w_user: Tensor | None
    w_item: Tensor | None
    features: np.ndarray | None

    def trainable_tables(self) -> list[tuple[str, Tensor]]:
        named = [(e.name, e.table) for e in self.grouped]
        if self.w_user is not None:
            named += [("proj_item", self.w_item), ("proj_user", self.w_user)]
        if self.spectral is not None:
            named.append(("proj_spectral", self.spectral.projection))
        return named + [(f"proj_{e.name}", e.projection) for e in self.grouped]

    def frozen_blocks(self) -> list[tuple[str, np.ndarray]]:
        """The frozen blocks `build_encoding_set` takes as `stored`, by name."""
        spectral = [] if self.spectral is None else [("spectral", self.spectral.matrix)]
        return [(f"{e.name}_groups", e.group_of) for e in self.grouped] + spectral


def build_encoding_set(g: BipartiteGraph, cfg, rng: np.random.Generator,
                       stored: dict | None = None) -> PositionalEncodingSet:
    """The encodings a `PGTRConfig` enables, sized by its fields.

    Draws from `rng` in a fixed order: the degree, PageRank and type tables
    (each one (2 * groups, h) draw), then the item, user, spectral, degree,
    PageRank and type projections.  `stored` maps the `frozen_blocks` names
    to a float (h_c, N+M) `spectral` block and integer (N+M,) `<name>_groups`
    ids; given, it stands in for the eigensolve, PageRank and grouping.
    """
    n, m = g.n_users, g.n_items
    kinds = [(name, groups, h) for name, groups, h in
             (("degree", cfg.n_d, cfg.h_d), ("pagerank", cfg.n_r, cfg.h_r), ("type", 1, cfg.h_y))
             if getattr(cfg, f"use_{name}")]
    for name, groups, _ in kinds:
        for side, count in (("user", n), ("item", m)):
            if count < groups:
                raise EncodingError(f"{name} encoding needs {groups} groups per side, "
                                    f"but the {side} side has {count} nodes")
    if stored is None:
        matrix = spectral_encoding(g, cfg.h_c) if cfg.use_spectral else None
        ids = [_group_ids(g, name, groups) for name, groups, _ in kinds]
    else:
        matrix = _stored(stored, "spectral", (cfg.h_c, n + m)) if cfg.use_spectral else None
        ids = [_stored(stored, f"{name}_groups", (n + m,), 2 * groups)
               for name, groups, _ in kinds]
    tables = [_init_table(2 * groups, h, rng) for _, groups, h in kinds]
    if matrix is None and not kinds:
        return PositionalEncodingSet(n, m, None, [], None, None, None)
    w_item = _init_table(cfg.d, cfg.d, rng)
    w_user = _init_table(cfg.d, cfg.d, rng)
    spectral = None
    if matrix is not None:
        spectral = SpectralEncoding(matrix, _init_table(cfg.d, cfg.h_c, rng))
    grouped = [GroupedEncoding(name, table, group_of,
                               _init_table(cfg.d, h, rng))
               for (name, _, h), table, group_of in zip(kinds, tables, ids)]
    features = np.hstack(([] if matrix is None else [matrix.T])
                         + [np.eye(2 * groups)[group_of]
                            for (_, groups, _), group_of in zip(kinds, ids)])
    return PositionalEncodingSet(n, m, spectral, grouped, w_user, w_item, features)


def position_tape(enc: PositionalEncodingSet) -> Tensor | None:
    """P_j for every node, users first, as one tape node `position` whose
    parents are the encodings' trainable tensors; None when every encoding
    is off.

    Node j's vector is W_side (P_s s_j + sum_k P_k T_k[g_k(j)]), which is
    x_j B W_side^T for its row x_j of `enc.features` and the (F, d) stack
    B = [P_s^T; T_k P_k^T ...] of the learned maps.  So each side is one
    GEMM with the small B W_side^T, and the backward is one GEMM per side,
    X_side^T G_side, followed by small chain products back to W_side, P_s,
    T_k and P_k.
    """
    if enc.w_user is None:
        return None
    n = enc.n_users
    # (projection, table) per block of B; the spectral block has no table
    blocks = [(enc.spectral.projection, None)] if enc.spectral is not None else []
    blocks += [(e.projection, e.table) for e in enc.grouped]
    maps = [p.data.T if t is None else t.data @ p.data.T for p, t in blocks]
    inner = np.vstack(maps)
    cuts = np.cumsum([b.shape[0] for b in maps])[:-1]
    sides = ((enc.w_user, slice(0, n)), (enc.w_item, slice(n, None)))
    x = enc.features
    out = np.empty((x.shape[0], inner.shape[1]), dtype=np.result_type(x, inner))
    for w, rows in sides:
        np.matmul(x[rows], inner @ w.data.T, out=out[rows])

    def bw(g):
        d_inner = 0.0
        for w, rows in sides:
            d_map = x[rows].T @ g[rows]  # gradient of B W_side^T
            ad._accum(w, d_map.T @ inner)
            d_inner = d_inner + d_map @ w.data
        for (p, t), d_block in zip(blocks, np.split(d_inner, cuts)):
            if t is None:
                ad._accum(p, d_block.T)
            else:
                ad._accum(t, d_block @ p.data)
                ad._accum(p, d_block.T @ t.data)

    parents = tuple(t for _, t in enc.trainable_tables())
    return ad._make(out, "position", parents, bw)
