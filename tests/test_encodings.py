"""Positional encoding tests: grouping rules, spectral mix, composition."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtr.data import InteractionDataset, build_graph, one_sided_adjacency
from pgtr.encodings import (
    EncodingError,
    build_encoding_set,
    degree_encoding,
    group_by_rank,
    pagerank_encoding,
    position_tape,
    spectral_encoding,
    type_table,
)
from pgtr.linalg import (
    DENSE_CUTOFF,
    laplacian_null_basis,
    normalized_laplacian,
    pagerank,
    symmetric_eigs_smallest,
)
from pgtr.synthetic import clustered_interactions


def k22_graph():
    return build_graph(InteractionDataset(2, 2, np.array([0, 0, 1, 1]),
                                          np.array([0, 1, 0, 1])))


def random_graph(seed, n_users=20, n_items=25, per_user=6):
    return build_graph(clustered_interactions(n_users, n_items, 3,
                                              per_user=per_user, seed=seed))


class TestGroupByRank:
    def test_forced_by_rank_rule(self):
        asg = group_by_rank(np.array([1, 3, 3, 7]), 2)
        assert asg.group_of.tolist() == [0, 0, 1, 1]

    def test_index_tiebreak_on_equal_values(self):
        asg = group_by_rank(np.zeros(4), 2)
        assert asg.group_of.tolist() == [0, 0, 1, 1]

    def test_uniform_sizes_and_monotone(self):
        rng = np.random.default_rng(0)
        values = rng.random(1000)
        asg = group_by_rank(values, 10)
        sizes = np.bincount(asg.group_of, minlength=10)
        assert sizes.tolist() == [100] * 10
        # group order never contradicts value order
        for a in range(1000):
            for b in range(a + 1, a + 20):
                if b >= 1000:
                    break
                if values[a] < values[b]:
                    assert asg.group_of[a] <= asg.group_of[b] or values[a] == values[b]

    def test_uneven_sizes_differ_by_at_most_one(self):
        asg = group_by_rank(np.arange(13), 5)
        sizes = np.bincount(asg.group_of, minlength=5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.tolist() == [3, 3, 3, 2, 2]

    def test_out_of_range_groups(self):
        with pytest.raises(ValueError):
            group_by_rank(np.arange(3), 4)


class TestSpectral:
    def test_lambda_zero_is_whole_graph_encoding(self):
        g = random_graph(1)
        enc = spectral_encoding(g, 3, 0.0)
        lap = normalized_laplacian(g.full_adjacency())
        vals, vecs = symmetric_eigs_smallest(lap, 4)
        skip = int(np.sum(vals < 1e-8))
        np.testing.assert_allclose(enc.matrix, vecs[:, skip:skip + 3].T, atol=1e-12)

    def test_lambda_one_is_one_sided_encoding(self):
        g = random_graph(2)
        enc = spectral_encoding(g, 2, 1.0)
        lap_u = normalized_laplacian(one_sided_adjacency(g, "user"))
        vals_u, vecs_u = symmetric_eigs_smallest(lap_u, lap_u.shape[0])
        skip = int(np.sum(vals_u < 1e-8))
        np.testing.assert_allclose(enc.matrix[:, :g.n_users],
                                   vecs_u[:, skip:skip + 2].T, atol=1e-10)

    def test_convex_mix(self):
        g = random_graph(3)
        e0 = spectral_encoding(g, 2, 0.0).matrix
        e1 = spectral_encoding(g, 2, 1.0).matrix
        mid = spectral_encoding(g, 2, 0.25).matrix
        np.testing.assert_allclose(mid, 0.75 * e0 + 0.25 * e1, atol=1e-12)

    def test_k22_single_nontrivial_column(self):
        g = k22_graph()
        enc = spectral_encoding(g, 1, 0.0)
        lap = normalized_laplacian(g.full_adjacency())
        vals, vecs = symmetric_eigs_smallest(lap, 2)
        assert vals[0] < 1e-8 and vals[1] > 1e-8
        np.testing.assert_allclose(enc.matrix, vecs[:, 1:2].T, atol=1e-12)

    def test_untrainable(self):
        assert spectral_encoding(k22_graph(), 1, 0.0).trainable is False

    def test_deficit_error_reports_shortage(self):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        with pytest.raises(EncodingError, match="non-trivial"):
            spectral_encoding(g, 5, 0.0)

    def test_empty_one_sided_graph_error(self):
        # one user, two items: item-side graph has an edge, user-side none
        g = build_graph(InteractionDataset(1, 2, np.array([0, 0]), np.array([0, 1])))
        with pytest.raises(EncodingError, match="user-side"):
            spectral_encoding(g, 1, 0.5)
        spectral_encoding(g, 1, 0.0)  # whole-graph only is fine


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
            spectral_encoding(g, h, 0.0)
        return
    rows = spectral_encoding(g, h, 0.0).matrix
    np.testing.assert_allclose(rows @ rows.T, np.eye(h), atol=1e-8)
    assert np.abs(null.T @ rows.T).max() <= 1e-8
    lap = normalized_laplacian(adj)
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


class TestDegreeAndPageRank:
    def test_degree_groups_monotone_in_degree(self):
        g = random_graph(4)
        rng = np.random.default_rng(0)
        (_, asg_u), (_, asg_i) = degree_encoding(g, 4, 3, rng)
        order = np.argsort(g.item_degree, kind="stable")
        assert np.all(np.diff(asg_i.group_of[order]) >= 0)
        order = np.argsort(g.user_degree, kind="stable")
        assert np.all(np.diff(asg_u.group_of[order]) >= 0)

    def test_identical_degrees_tiebreak_by_index(self):
        g = k22_graph()
        (_, asg_u), (_, asg_i) = degree_encoding(g, 2, 3, np.random.default_rng(0))
        assert asg_i.group_of.tolist() == [0, 1]
        assert asg_u.group_of.tolist() == [0, 1]

    def test_table_shapes_and_init_range(self):
        g = random_graph(5)
        (tab_u, _), (tab_i, _) = degree_encoding(g, 10, 4, np.random.default_rng(1))
        assert tab_u.data.shape == (10, 4) and tab_i.data.shape == (10, 4)
        bound = 0.1 / np.sqrt(4)
        assert np.abs(tab_u.data).max() <= bound
        assert tab_u.trainable and tab_i.trainable

    def test_pagerank_grouping_by_score(self):
        g = random_graph(6, n_users=25, n_items=25)
        rng = np.random.default_rng(2)
        (_, asg_u), (_, asg_i) = pagerank_encoding(g, 5, 3, rng)
        scores = pagerank(g)
        order = np.argsort(scores[:g.n_users], kind="stable")
        assert np.all(np.diff(asg_u.group_of[order]) >= 0)
        # the most connected item lands in the top PageRank group
        top_item = int(np.argmax(g.item_degree))
        assert asg_i.group_of[top_item] == 4

    @settings(max_examples=150, deadline=None)
    @given(ds=awkward_interactions())
    def test_pagerank_is_a_distribution_on_awkward_graphs(self, ds):
        scores = pagerank(build_graph(ds))
        assert scores.shape == (ds.n_users + ds.n_items,)
        assert (scores >= 0.0).all()
        assert abs(scores.sum() - 1.0) <= 1e-12

    def test_single_edge_sole_ranks(self):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        (_, asg_u), (_, asg_i) = pagerank_encoding(g, 1, 2, np.random.default_rng(0))
        assert asg_u.group_of.tolist() == [0]
        assert asg_i.group_of.tolist() == [0]


def positions(enc):
    """The taped position vectors as an array; no position term (None)
    reads as zeros, as in the forward pass."""
    pos = position_tape(enc)
    return np.zeros((enc.n_users + enc.n_items, enc.d)) if pos is None else pos.data


class TestComposition:
    def build(self, seed=7, **kw):
        g = random_graph(seed)
        rng = np.random.default_rng(seed)
        defaults = dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3,
                        lambda_c=0.0, rng=rng)
        defaults.update(kw)
        return g, build_encoding_set(g, **defaults)

    def test_all_disabled_gives_zero(self):
        g, enc = self.build(use_spectral=False, use_degree=False,
                            use_pagerank=False, use_type=False)
        assert not enc.any_enabled
        np.testing.assert_array_equal(positions(enc),
                                      np.zeros((g.n_nodes, 6)))

    def test_type_only_identity_projection(self):
        g, enc = self.build(use_spectral=False, use_degree=False, use_pagerank=False,
                            d=2, h_y=2)
        enc.projection.w_user.data = np.eye(2)
        enc.projection.w_item.data = 2 * np.eye(2)
        enc.projection.w_type.data = np.eye(2)
        pm = positions(enc)
        np.testing.assert_allclose(pm[0], enc.types.data[1])
        np.testing.assert_allclose(pm[g.n_users], 2 * enc.types.data[0])

    def test_matches_direct_dense_evaluation(self):
        g, enc = self.build(seed=9)
        n = g.n_users
        p = enc.projection
        for j in [0, 3, n, n + 4, g.n_nodes - 1]:
            if j < n:
                side_w, local = p.w_user.data, j
                deg_row = enc.degree_user[0].data[enc.degree_user[1].group_of[local]]
                pr_row = enc.pagerank_user[0].data[enc.pagerank_user[1].group_of[local]]
                ty_row = enc.types.data[1]
            else:
                side_w, local = p.w_item.data, j - n
                deg_row = enc.degree_item[0].data[enc.degree_item[1].group_of[local]]
                pr_row = enc.pagerank_item[0].data[enc.pagerank_item[1].group_of[local]]
                ty_row = enc.types.data[0]
            inner = (p.w_spectral.data @ enc.spectral.matrix[:, j]
                     + p.w_degree.data @ deg_row
                     + p.w_pagerank.data @ pr_row
                     + p.w_type.data @ ty_row)
            np.testing.assert_allclose(positions(enc)[j], side_w @ inner, atol=1e-12)

    def test_linearity_in_each_table(self):
        g, enc = self.build(seed=11)
        base = positions(enc)
        enc2 = self.build(seed=11)[1]
        enc2.types.data = enc.types.data * 2.0
        doubled = positions(enc2)
        # the type term's contribution doubles exactly
        g3, enc3 = self.build(seed=11)
        enc3.types.data[:] = 0.0
        without = positions(enc3)
        np.testing.assert_allclose(doubled - without, 2.0 * (base - without), atol=1e-12)

    def test_group_sizes_within_one(self):
        _, enc = self.build(seed=13)
        for pair in (enc.degree_user, enc.degree_item, enc.pagerank_user, enc.pagerank_item):
            sizes = np.bincount(pair[1].group_of, minlength=pair[1].n_groups)
            assert sizes.max() - sizes.min() <= 1

    def test_node_index_validated(self):
        _, enc = self.build()
        with pytest.raises(IndexError):
            positions(enc)[10_000]


def test_type_table_two_rows():
    t = type_table(4, np.random.default_rng(0))
    assert t.data.shape == (2, 4)
    assert t.trainable
