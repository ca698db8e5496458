"""Positional encoding tests: grouping rules, spectral block, composition.

`taped_position` below is the taped composition of gathers, products,
slices and a concat that `position_tape` fuses into one node: the oracle
for its output and its gradients.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgtr.autodiff as ad
import pgtr.encodings
from pgtr.data import InteractionDataset, SplitSpec, build_graph, split_by_ratio
from pgtr.encodings import (
    EncodingError,
    build_encoding_set,
    group_by_rank,
    position_tape,
    spectral_encoding,
)
from pgtr.linalg import (
    DENSE_CUTOFF,
    GramOperator,
    laplacian_null_basis,
    normalized_laplacian,
    pagerank,
    symmetric_eigs_smallest,
)
from pgtr.model import PGTRConfig, forward, init_model
from pgtr.synthetic import clustered_interactions
from test_autodiff import (add, as_float64, close, concat_rows, constant, gather_rows, matmul,
                           mul, slice_rows, sum_axis, tape_nodes, transpose)


def k22_graph():
    return build_graph(InteractionDataset(2, 2, np.array([0, 0, 1, 1]),
                                          np.array([0, 1, 0, 1])))


def random_graph(seed, n_users=20, n_items=25, per_user=6):
    return build_graph(clustered_interactions(n_users, n_items, 3,
                                              per_user=per_user, seed=seed))


def set_alone(g, name, groups, h, seed=0):
    """The encoding set of the grouped encoding `name` with every other
    encoding off."""
    cfg = PGTRConfig(d=2, h_d=h, h_r=h, h_y=h, n_d=groups, n_r=groups, use_spectral=False,
                     **{f"use_{k}": k == name for k in ("degree", "pagerank", "type")})
    return build_encoding_set(g, cfg, np.random.default_rng(seed))


def is_trained(enc_set, table) -> bool:
    """Whether `table` is one of the tensors `enc_set` lists as trainable."""
    return any(t is table for _, t in enc_set.trainable_tables())


def grouped_alone(g, name, groups, h, seed=0):
    """The grouped encoding `name` of a set with every other encoding off,
    and its users' and items' group ids (items' counted from 0)."""
    (enc,) = set_alone(g, name, groups, h, seed).grouped
    assert enc.name == name
    return enc, enc.group_of[:g.n_users], enc.group_of[g.n_users:] - groups


class TestGroupByRank:
    def test_forced_by_rank_rule(self):
        ids = group_by_rank(np.array([1, 3, 3, 7]), 2)
        assert ids.tolist() == [0, 0, 1, 1]

    def test_index_tiebreak_on_equal_values(self):
        ids = group_by_rank(np.zeros(4), 2)
        assert ids.tolist() == [0, 0, 1, 1]

    def test_uniform_sizes_and_monotone(self):
        rng = np.random.default_rng(0)
        values = rng.random(1000)
        ids = group_by_rank(values, 10)
        sizes = np.bincount(ids, minlength=10)
        assert sizes.tolist() == [100] * 10
        # group order never contradicts value order
        for a in range(1000):
            for b in range(a + 1, a + 20):
                if b >= 1000:
                    break
                if values[a] < values[b]:
                    assert ids[a] <= ids[b] or values[a] == values[b]

    def test_uneven_sizes_differ_by_at_most_one(self):
        ids = group_by_rank(np.arange(13), 5)
        sizes = np.bincount(ids, minlength=5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.tolist() == [3, 3, 3, 2, 2]

    def test_out_of_range_groups(self):
        with pytest.raises(ValueError):
            group_by_rank(np.arange(3), 4)


class TestSpectral:
    def test_lambda_zero_is_whole_graph_encoding(self):
        g = random_graph(1)
        block = spectral_encoding(g, 3)
        lap = normalized_laplacian(g.full_adjacency(), g.normalized_adjacency())
        vals, vecs = symmetric_eigs_smallest(lap, 4)
        skip = int(np.sum(vals < 1e-8))
        np.testing.assert_allclose(block, vecs[:, skip:skip + 3].T, atol=1e-12)

    def test_k22_single_nontrivial_column(self):
        g = k22_graph()
        block = spectral_encoding(g, 1)
        lap = normalized_laplacian(g.full_adjacency(), g.normalized_adjacency())
        vals, vecs = symmetric_eigs_smallest(lap, 2)
        assert vals[0] < 1e-8 and vals[1] > 1e-8
        np.testing.assert_allclose(block, vecs[:, 1:2].T, atol=1e-12)

    def test_untrainable(self):
        # a plain array, not a Tensor: no gradient and no optimizer state
        assert type(spectral_encoding(k22_graph(), 1)) is np.ndarray
        cfg = PGTRConfig(d=2, h_c=1, n_d=2, n_r=2)
        enc = build_encoding_set(k22_graph(), cfg, np.random.default_rng(0))
        assert type(enc.spectral.matrix) is np.ndarray
        assert all(t.data is not enc.spectral.matrix for _, t in enc.trainable_tables())

    def test_deficit_error_reports_shortage(self):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        with pytest.raises(EncodingError, match="non-trivial"):
            spectral_encoding(g, 5)

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="^h_c must be >= 1$"):
            spectral_encoding(k22_graph(), 0)


@st.composite
def awkward_interactions(draw, max_users=8, max_items=10):
    """A random bipartite graph with at least one edge, often with isolated
    nodes and many components, sometimes a single user or a user who
    touched every item."""
    n_users = draw(st.integers(1, max_users))
    n_items = draw(st.integers(1, max_items))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    adj = np.random.default_rng(seed).random((n_users, n_items)) < density
    adj[0, 0] = True
    if draw(st.booleans()):
        adj[draw(st.integers(0, n_users - 1))] = True
    users, items = np.nonzero(adj)
    return InteractionDataset(n_users, n_items, users, items)


def check_spectral_properties(g, h):
    """Rows orthonormal, orthogonal to the Laplacian null space, and each a
    certified eigenvector of the h smallest non-trivial eigenvalues; or a
    shortage error when fewer than h exist."""
    adj = g.full_adjacency()
    null = laplacian_null_basis(adj)
    n, trivial = null.shape
    if h > n - trivial:
        with pytest.raises(EncodingError, match="non-trivial"):
            spectral_encoding(g, h)
        return
    rows = spectral_encoding(g, h)
    np.testing.assert_allclose(rows @ rows.T, np.eye(h), atol=1e-8)
    assert np.abs(null.T @ rows.T).max() <= 1e-8
    lap = normalized_laplacian(adj, g.normalized_adjacency())
    lap_rows = (lap @ rows.T).T
    lam = np.einsum("ij,ij->i", lap_rows, rows)
    resid = np.linalg.norm(lap_rows - lam[:, None] * rows, axis=1)
    assert resid.max() <= 1e-10 * abs(lap).sum(axis=0).max()
    ref = np.linalg.eigvalsh(lap.toarray())[trivial:trivial + h]
    np.testing.assert_allclose(lam, ref, atol=1e-8)


class TestSpectralProperties:
    @settings(max_examples=150, deadline=None)
    @given(ds=awkward_interactions(), h=st.integers(1, 12))
    def test_small_awkward_graphs(self, ds, h):
        check_spectral_properties(build_graph(ds), h)

    @settings(max_examples=8, deadline=None)
    @given(block=awkward_interactions(max_users=6, max_items=6),
           isolated=st.integers(0, 60), h=st.sampled_from([1, 5, 50]))
    def test_repeated_blocks_above_cutoff(self, block, isolated, h):
        # identical copies of one block: every eigenvalue is repeated
        copies = DENSE_CUTOFF // (block.n_users + block.n_items) + 1
        users = np.concatenate([block.users + c * block.n_users for c in range(copies)])
        items = np.concatenate([block.items + c * block.n_items for c in range(copies)])
        ds = InteractionDataset(copies * block.n_users, copies * block.n_items + isolated,
                                users, items)
        check_spectral_properties(build_graph(ds), h)


def bipartite_graph(n_users, n_items, pairs):
    users, items = np.array(pairs).T
    return build_graph(InteractionDataset(n_users, n_items, users, items))


def whole_graph_block(g, h):
    """The (h, N+M) block of one deflated solve of the whole graph: the
    oracle of the lifted route."""
    adj = g.full_adjacency()
    lap = normalized_laplacian(adj, g.normalized_adjacency())
    _, vecs = symmetric_eigs_smallest(lap, h, deflate=laplacian_null_basis(adj))
    return vecs.T


@pytest.fixture
def solves(monkeypatch):
    """Each matrix `spectral_encoding` hands the solver, as ("side", n) for
    a smaller side's GramOperator and ("whole", n) for the whole graph."""
    calls = []
    real = pgtr.encodings.symmetric_eigs_smallest

    def spy(mat, k, **kwargs):
        calls.append(("side" if isinstance(mat, GramOperator) else "whole", mat.shape[0]))
        return real(mat, k, **kwargs)

    monkeypatch.setattr(pgtr.encodings, "symmetric_eigs_smallest", spy)
    return calls


def check_same_subspace(g, h):
    """The spectral block spans the whole-graph solve's subspace: the
    singular values of ref^T new are within 1e-10 of 1, over the columns
    below a repeated eigenvalue that the block's edge cuts (any basis of
    that one is right)."""
    adj = g.full_adjacency()
    null = laplacian_null_basis(adj)
    n, trivial = null.shape
    if h > n - trivial:
        return
    new = spectral_encoding(g, h).T
    ref = whole_graph_block(g, h).T
    lap = normalized_laplacian(adj, g.normalized_adjacency())
    vals = np.linalg.eigvalsh(lap.toarray())[trivial:]
    cut = h < vals.size and vals[h] - vals[h - 1] <= 1e-8
    below = int(np.sum(vals[:h] < vals[h - 1] - 1e-8)) if cut else h
    sv = np.linalg.svd(ref[:, :below].T @ new[:, :below], compute_uv=False)
    assert np.abs(sv - 1.0).max(initial=0.0) <= 1e-10


class TestLiftedRoute:
    """The bipartite block from one solve on the smaller side, lifted to
    [u; R^T u / s] / sqrt 2 users first, against the whole-graph solve."""

    def test_users_smaller(self, solves):
        g = random_graph(1)
        assert g.n_users < g.n_items
        block = spectral_encoding(g, 3)
        assert solves == [("side", g.n_users)]
        np.testing.assert_allclose(block, whole_graph_block(g, 3), atol=1e-12)

    def test_items_smaller(self, solves):
        # users 0 and 1 share items 0 and 1, user 3 links items 1 and 2, and
        # users 2 and 4 hang off items 1 and 2: no two entries tie in magnitude
        g = bipartite_graph(5, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2),
                                   (4, 2)])
        block = spectral_encoding(g, 2)
        assert solves == [("side", 3)]
        np.testing.assert_allclose(block, whole_graph_block(g, 2), atol=1e-12)

    def test_isolated_nodes_on_the_smaller_side(self, solves):
        ds = clustered_interactions(20, 25, 3, per_user=6, seed=4)
        # users 20-22 and items 25-26 have no interactions
        g = build_graph(InteractionDataset(23, 27, ds.users, ds.items))
        block = spectral_encoding(g, 4)
        assert solves == [("side", 23)]
        np.testing.assert_array_equal(block[:, 20:23], 0.0)
        np.testing.assert_allclose(block, whole_graph_block(g, 4), atol=1e-12)

    def test_star_has_no_side_pair(self, solves):
        # K_{1,4}: the one user is its side's whole null space
        g = bipartite_graph(1, 4, [(0, i) for i in range(4)])
        block = spectral_encoding(g, 1)
        assert solves == [("whole", 5)]
        np.testing.assert_array_equal(block, whole_graph_block(g, 1))

    def test_zero_singular_value_solves_the_whole_graph(self, solves):
        # K_{2,3}: the non-trivial eigenvalues are 1 and 2, so the side's s is 0
        g = bipartite_graph(2, 3, [(u, i) for u in range(2) for i in range(3)])
        block = spectral_encoding(g, 1)
        assert solves == [("side", 2), ("whole", 5)]
        np.testing.assert_array_equal(block, whole_graph_block(g, 1))

    def test_spoiled_side_solve_falls_back(self, monkeypatch):
        real = pgtr.encodings.symmetric_eigs_smallest
        kinds = []

        def spoiled(mat, k, **kwargs):
            vals, vecs = real(mat, k, **kwargs)
            kinds.append(type(mat).__name__)
            if isinstance(mat, GramOperator):
                vecs = vecs.copy()
                vecs[:, 0] = (vecs[:, 0] + 0.1 * vecs[:, 1]) / np.sqrt(1.01)
            return vals, vecs

        monkeypatch.setattr(pgtr.encodings, "symmetric_eigs_smallest", spoiled)
        g = random_graph(1)
        block = spectral_encoding(g, 3)
        assert kinds == ["GramOperator", "csr_matrix"]
        monkeypatch.setattr(pgtr.encodings, "symmetric_eigs_smallest", real)
        np.testing.assert_allclose(block, whole_graph_block(g, 3), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(ds=awkward_interactions(), h=st.integers(1, 12))
    def test_same_subspace_on_awkward_graphs(self, ds, h):
        check_same_subspace(build_graph(ds), h)

    def test_same_subspace_on_the_cold_start_graph(self, solves):
        g = build_graph(clustered_interactions(300, 490, per_user=10))
        check_same_subspace(g, 50)
        assert solves[0] == ("side", 300)


def test_default_init_solves_once_and_ranks_once(monkeypatch):
    """One default `init_model` calls the encodings module's
    `symmetric_eigs_smallest` and `pagerank` once each: the names that
    benchmarks/tracing.py wraps and benchmarks/pipeline.py cuts set-up at."""
    counts = Counter()
    for name in ("symmetric_eigs_smallest", "pagerank"):
        def counted(*args, real=getattr(pgtr.encodings, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pgtr.encodings, name, counted)
    fit, _, _ = split_by_ratio(clustered_interactions(300, 490, per_user=10, seed=0),
                               SplitSpec(0.8, seed=0))
    init_model(build_graph(fit), PGTRConfig(), seed=0)
    assert counts == {"symmetric_eigs_smallest": 1, "pagerank": 1}


class TestDegreeAndPageRank:
    def test_degree_groups_monotone_in_degree(self):
        g = random_graph(4)
        _, user_ids, item_ids = grouped_alone(g, "degree", 4, 3)
        order = np.argsort(g.item_degree, kind="stable")
        assert np.all(np.diff(item_ids[order]) >= 0)
        order = np.argsort(g.user_degree, kind="stable")
        assert np.all(np.diff(user_ids[order]) >= 0)

    def test_identical_degrees_tiebreak_by_index(self):
        g = k22_graph()
        _, user_ids, item_ids = grouped_alone(g, "degree", 2, 3)
        assert item_ids.tolist() == [0, 1]
        assert user_ids.tolist() == [0, 1]

    def test_table_shapes_and_init_range(self):
        g = random_graph(5)
        enc_set = set_alone(g, "degree", 10, 4, seed=1)
        (enc,) = enc_set.grouped
        # the users' 10 rows, then the items' 10
        assert enc.table.data.shape == (20, 4)
        bound = 0.1 / np.sqrt(4)
        assert np.abs(enc.table.data).max() <= bound
        assert is_trained(enc_set, enc.table)

    def test_pagerank_grouping_by_score(self):
        g = random_graph(6, n_users=25, n_items=25)
        _, user_ids, item_ids = grouped_alone(g, "pagerank", 5, 3, seed=2)
        scores = pagerank(g.full_adjacency(), g.normalized_adjacency())
        order = np.argsort(scores[:g.n_users], kind="stable")
        assert np.all(np.diff(user_ids[order]) >= 0)
        # the most connected item lands in the top PageRank group
        top_item = int(np.argmax(g.item_degree))
        assert item_ids[top_item] == 4

    @settings(max_examples=150, deadline=None)
    @given(ds=awkward_interactions())
    def test_pagerank_is_a_distribution_on_awkward_graphs(self, ds):
        g = build_graph(ds)
        scores = pagerank(g.full_adjacency(), g.normalized_adjacency())
        assert scores.shape == (ds.n_users + ds.n_items,)
        assert (scores >= 0.0).all()
        assert abs(scores.sum() - 1.0) <= 1e-12

    def test_single_edge_sole_ranks(self):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        _, user_ids, item_ids = grouped_alone(g, "pagerank", 1, 2)
        assert user_ids.tolist() == [0]
        assert item_ids.tolist() == [0]


def positions(enc, d=6):
    """The taped position vectors as an array; no position term (None)
    reads as zeros, as in the forward pass."""
    pos = position_tape(enc)
    return np.zeros((enc.n_users + enc.n_items, d)) if pos is None else pos.data


def by_name(enc):
    return {e.name: e for e in enc.grouped}


class TestComposition:
    def build(self, seed=7, **kw):
        g = random_graph(seed)
        defaults = dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3)
        defaults.update(kw)
        return g, build_encoding_set(g, PGTRConfig(**defaults), np.random.default_rng(seed))

    def test_all_disabled_gives_zero(self):
        g, enc = self.build(use_spectral=False, use_degree=False,
                            use_pagerank=False, use_type=False)
        assert position_tape(enc) is None and enc.trainable_tables() == []
        np.testing.assert_array_equal(positions(enc),
                                      np.zeros((g.n_nodes, 6)))

    def test_type_only_identity_projection(self):
        g, enc = self.build(use_spectral=False, use_degree=False, use_pagerank=False,
                            d=2, h_y=2)
        types = by_name(enc)["type"]
        enc.w_user.data = np.eye(2)
        enc.w_item.data = 2 * np.eye(2)
        types.projection.data = np.eye(2)
        pm = positions(enc)
        np.testing.assert_allclose(pm[0], types.table.data[1])
        np.testing.assert_allclose(pm[g.n_users], 2 * types.table.data[0])

    def test_matches_direct_dense_evaluation(self):
        g, enc = self.build(seed=9)
        n = g.n_users
        deg, pr, ty = (by_name(enc)[k] for k in ("degree", "pagerank", "type"))
        for j in [0, 3, n, n + 4, g.n_nodes - 1]:
            side_w = enc.w_user.data if j < n else enc.w_item.data
            deg_row = deg.table.data[deg.group_of[j]]
            pr_row = pr.table.data[pr.group_of[j]]
            ty_row = ty.table.data[1 if j < n else 0]
            inner = (enc.spectral.projection.data @ enc.spectral.matrix[:, j]
                     + deg.projection.data @ deg_row
                     + pr.projection.data @ pr_row
                     + ty.projection.data @ ty_row)
            np.testing.assert_allclose(positions(enc)[j], side_w @ inner, atol=1e-12)

    def test_linearity_in_each_table(self):
        g, enc = self.build(seed=11)
        base = positions(enc)
        enc2 = self.build(seed=11)[1]
        by_name(enc2)["type"].table.data = by_name(enc)["type"].table.data * 2.0
        doubled = positions(enc2)
        # the type term's contribution doubles exactly
        g3, enc3 = self.build(seed=11)
        by_name(enc3)["type"].table.data[:] = 0.0
        without = positions(enc3)
        np.testing.assert_allclose(doubled - without, 2.0 * (base - without), atol=1e-12)

    def test_group_sizes_within_one(self):
        g, enc = self.build(seed=13)
        n = g.n_users
        for name in ("degree", "pagerank"):
            ids = by_name(enc)[name].group_of
            # users take rows 0..2 and items rows 3..5 of the table
            for side_ids in (ids[:n], ids[n:] - 3):
                sizes = np.bincount(side_ids, minlength=3)
                assert sizes.shape == (3,)
                assert sizes.max() - sizes.min() <= 1

    def test_node_index_validated(self):
        _, enc = self.build()
        with pytest.raises(IndexError):
            positions(enc)[10_000]


def test_type_table_two_rows():
    g = random_graph(5)
    enc_set = set_alone(g, "type", 1, 4)
    (types,) = enc_set.grouped
    assert types.table.data.shape == (2, 4)
    assert is_trained(enc_set, types.table)
    # users read row 1, items row 0
    assert types.group_of.tolist() == [1] * g.n_users + [0] * g.n_items


def taped_position(enc):
    """W_side (P_s s_j + sum_k P_k T_k[g_k(j)]) for every node, one tape
    node per step."""
    n, m = enc.n_users, enc.n_items
    terms = []
    if enc.spectral is not None:
        terms.append(matmul(constant(enc.spectral.matrix.T), transpose(enc.spectral.projection)))
    for e in enc.grouped:
        terms.append(matmul(gather_rows(e.table, e.group_of), transpose(e.projection)))
    inner = terms[0]
    for t in terms[1:]:
        inner = add(inner, t)
    return concat_rows([
        matmul(slice_rows(inner, 0, n), transpose(enc.w_user)),
        matmul(slice_rows(inner, n, n + m), transpose(enc.w_item)),
    ])


FUSED_CONFIGS = {
    "default": {},
    "spectral off": dict(use_spectral=False),
    "degree and pagerank off": dict(use_degree=False, use_pagerank=False),
    "type only": dict(use_spectral=False, use_degree=False, use_pagerank=False),
    "transform-gcn": dict(backbone="transform-gcn"),
}


class TestFusedPosition:
    @settings(max_examples=30, deadline=None)
    @given(config=st.sampled_from(sorted(FUSED_CONFIGS)), seed=st.integers(0, 2**32 - 1))
    def test_matches_taped_oracle(self, config, seed):
        """The output and every parameter gradient from one backward agree
        with the taped composition to 1e-12 relative, in float64."""
        rng = np.random.default_rng(seed)
        cfg = PGTRConfig(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3,
                         **FUSED_CONFIGS[config])
        g = random_graph(seed % 64)
        enc = as_float64(init_model(g, cfg, seed=seed % 64), g).enc
        params = [t for _, t in enc.trainable_tables()]
        for t in params:
            t.data = rng.standard_normal(t.data.shape)
        g = constant(rng.standard_normal((enc.n_users + enc.n_items, cfg.d)))

        def run(position):
            ad.zero_grad(params)
            out = position(enc)
            ad.backward(sum_axis(mul(out, g), axis=None, keepdims=False))
            return out.data, [t.grad for t in params]

        want_out, want_grads = run(taped_position)
        got_out, got_grads = run(position_tape)
        assert close(got_out, want_out, 1e-12)
        for (name, _), got, want in zip(enc.trainable_tables(), got_grads, want_grads):
            assert close(got, want, 1e-12), name

    def test_forward_holds_one_position_node(self):
        """The default forward records one `position` node whose parents are
        the encodings' parameters, and 5 interior nodes in all: `position`,
        the `mix` h + λ1·pos, one `propagate_layer` per layer and the
        readout's `mean`."""
        g = build_graph(clustered_interactions(60, 80, 4, per_user=20, seed=9))
        state = init_model(g, PGTRConfig(), seed=10)
        interior = [node for node in tape_nodes(forward(state)) if node._op != "leaf"]
        (pos,) = [node for node in interior if node._op == "position"]
        assert {id(p) for p in pos._parents} == {
            id(t) for _, t in state.enc.trainable_tables()}
        assert len(pos._parents) == len(state.enc.trainable_tables())
        assert len(interior) == 5

    def test_transform_gcn_forward_node_count(self):
        """A 2-layer transform-gcn forward records the same 5 interior nodes:
        the layer transform is inside each `propagate_layer` node."""
        g = build_graph(clustered_interactions(60, 80, 4, per_user=20, seed=9))
        state = init_model(g, PGTRConfig(backbone="transform-gcn"), seed=10)
        interior = [node for node in tape_nodes(forward(state)) if node._op != "leaf"]
        assert sorted(node._op for node in interior) == sorted(
            ["position", "mix", "mean"] + 2 * ["propagate_layer"])
