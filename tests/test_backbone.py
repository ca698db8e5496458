"""Local propagation and readout tests."""
import numpy as np
import pytest

import pgtr.autodiff as ad
from pgtr.autodiff import parameter
from pgtr.backbone import leaky_transform, normalized_adjacency, propagate_layer, readout
from pgtr.data import InteractionDataset, build_graph
from pgtr.synthetic import clustered_interactions
from test_autodiff import (constant, finite_difference_check, leaky_relu, matmul, mul, sum_axis,
                           transpose)


def graph_of(pairs, n_users, n_items):
    u, i = zip(*pairs)
    return build_graph(InteractionDataset(n_users, n_items, np.array(u), np.array(i)))


class TestNormalizedAdjacency:
    def test_entries_are_inverse_sqrt_degree_products(self):
        g = graph_of([(0, 0), (0, 1), (1, 0)], 2, 2)
        adj = normalized_adjacency(g)
        dense = adj.toarray()
        # user 0 (deg 2) to item 0 (deg 2): 1/2; user 1 (deg 1) to item 0: 1/sqrt(2)
        assert dense[0, 2] == pytest.approx(0.5)
        assert dense[1, 2] == pytest.approx(1 / np.sqrt(2))
        np.testing.assert_allclose(dense, dense.T)

    def test_isolated_nodes_zeroed(self):
        ds = InteractionDataset(2, 2, np.array([0]), np.array([0]))
        adj = normalized_adjacency(build_graph(ds))
        dense = adj.toarray()
        np.testing.assert_array_equal(dense[1], np.zeros(4))
        np.testing.assert_array_equal(dense[3], np.zeros(4))


class TestPropagate:
    def test_single_edge_swaps_rows(self):
        g = graph_of([(0, 0)], 1, 1)
        adj = normalized_adjacency(g)
        h = constant(np.array([[1.0, 2.0], [5.0, -1.0]]))
        out = propagate_layer(h, adj)
        np.testing.assert_allclose(out.data, [[5.0, -1.0], [1.0, 2.0]])

    def test_two_degree_one_neighbors(self):
        g = graph_of([(0, 0), (0, 1)], 1, 2)
        adj = normalized_adjacency(g)
        e1, e2 = np.array([2.0, 0.0]), np.array([0.0, 4.0])
        h = constant(np.vstack([[0.0, 0.0], e1, e2]))
        out = propagate_layer(h, adj)
        np.testing.assert_allclose(out.data[0], (e1 + e2) / np.sqrt(2))

    def test_matches_dense_product_oracle(self):
        g = build_graph(clustered_interactions(10, 10, 2, per_user=4, seed=1))
        adj = normalized_adjacency(g)
        rng = np.random.default_rng(2)
        h = rng.standard_normal((20, 5))
        out = propagate_layer(constant(h), adj)
        np.testing.assert_allclose(out.data, adj.toarray() @ h, atol=1e-12)

    def test_linearity(self):
        g = build_graph(clustered_interactions(8, 9, 2, per_user=3, seed=3))
        adj = normalized_adjacency(g)
        rng = np.random.default_rng(4)
        h1 = rng.standard_normal((17, 4))
        h2 = rng.standard_normal((17, 4))
        lhs = propagate_layer(constant(2.0 * h1 + 0.5 * h2), adj).data
        rhs = 2.0 * propagate_layer(constant(h1), adj).data \
            + 0.5 * propagate_layer(constant(h2), adj).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_permutation_equivariance(self):
        g = build_graph(clustered_interactions(6, 7, 2, per_user=3, seed=5))
        adj = normalized_adjacency(g)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((13, 3))
        perm = rng.permutation(13)
        padj = adj.toarray()[np.ix_(perm, perm)]
        import scipy.sparse as sp
        out_perm = propagate_layer(constant(h[perm]), sp.csr_matrix(padj)).data
        out = propagate_layer(constant(h), adj).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_transform_variant_applies_map_and_nonlinearity(self):
        g = graph_of([(0, 0)], 1, 1)
        adj = normalized_adjacency(g)
        w = parameter(np.array([[1.0, 0.0], [0.0, -1.0]]))
        h = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = propagate_layer(h, adj, w)
        # adj swaps rows, then x @ w.T, then leaky relu slope 0.2
        pre = np.array([[3.0, -4.0], [1.0, -2.0]])
        expected = np.where(pre > 0, pre, 0.2 * pre)
        np.testing.assert_allclose(out.data, expected)

    def test_row_count_mismatch(self):
        g = graph_of([(0, 0)], 1, 1)
        adj = normalized_adjacency(g)
        with pytest.raises(ValueError):
            propagate_layer(constant(np.ones((3, 2))), adj)


def taped_transform(x, w):
    return leaky_relu(matmul(x, transpose(w)), 0.2)


class TestTransform:
    """`leaky_transform` against finite differences in both parents, and
    bit for bit against the taped composition it replaces."""

    @staticmethod
    def _weighted_sum(out, g):
        return sum_axis(mul(out, constant(g)), axis=None, keepdims=False)

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        x, w = rng.uniform(-1, 1, size=(5, 4)), rng.uniform(-1, 1, size=(3, 4))
        assert np.abs(x @ w.T).min() > 1e-3  # clear of the kink
        g = rng.standard_normal((5, 3))
        finite_difference_check(lambda ts: self._weighted_sum(leaky_transform(*ts), g), [x, w])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_taped_composition(self, dtype):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal((7, 4)).astype(dtype),
                  rng.standard_normal((4, 4)).astype(dtype)]
        g = rng.standard_normal((7, 4)).astype(dtype)
        results = []
        for op in (leaky_transform, taped_transform):
            tensors = [parameter(a) for a in arrays]
            out = op(*tensors)
            ad.backward(self._weighted_sum(out, g))
            assert out.data.dtype == dtype and all(t.grad.dtype == dtype for t in tensors)
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in tensors])
        assert results[0] == results[1]


class TestReadout:
    def test_single_table_identity(self):
        t = constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(readout([t]).data, t.data)

    def test_identical_tables(self):
        t = constant(np.ones((2, 2)))
        np.testing.assert_array_equal(readout([t, t]).data, t.data)

    def test_mean_of_scaled_tables(self):
        t = np.arange(4.0).reshape(2, 2)
        out = readout([constant(t), constant(3.0 * t)])
        np.testing.assert_allclose(out.data, 2.0 * t)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            readout([])
