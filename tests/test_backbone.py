"""Local propagation, the fused layer node and readout tests.

`propagate_layer` is checked against `test_autodiff.taped_layer`, the taped
composition it fuses, in float64."""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings

import pgtr.autodiff as ad
from pgtr.autodiff import Tensor
from pgtr.backbone import propagate_layer
from pgtr.data import InteractionDataset, SplitSpec, build_graph, split_by_ratio
from pgtr.synthetic import clustered_interactions
from test_autodiff import (add, close, constant, finite_difference_check, leaky_relu,
                           leaky_transform, matmul, mul, sum_axis, taped_layer, transpose)
from test_encodings import awkward_interactions


def graph_of(pairs, n_users, n_items):
    u, i = zip(*pairs)
    return build_graph(InteractionDataset(n_users, n_items, np.array(u), np.array(i)))


class TestNormalizedAdjacency:
    def test_entries_are_inverse_sqrt_degree_products(self):
        g = graph_of([(0, 0), (0, 1), (1, 0)], 2, 2)
        adj = g.normalized_adjacency()
        dense = adj.toarray()
        # user 0 (deg 2) to item 0 (deg 2): 1/2; user 1 (deg 1) to item 0: 1/sqrt(2)
        assert dense[0, 2] == pytest.approx(0.5)
        assert dense[1, 2] == pytest.approx(1 / np.sqrt(2))
        np.testing.assert_allclose(dense, dense.T)

    def test_isolated_nodes_zeroed(self):
        ds = InteractionDataset(2, 2, np.array([0]), np.array([0]))
        adj = build_graph(ds).normalized_adjacency()
        dense = adj.toarray()
        np.testing.assert_array_equal(dense[1], np.zeros(4))
        np.testing.assert_array_equal(dense[3], np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(ds=awkward_interactions())
    @example(ds=InteractionDataset(1, 5, np.zeros(5, dtype=np.int64), np.arange(5)))
    @example(ds=InteractionDataset(3, 4, np.array([0, 1, 1, 1, 1]), np.array([0, 0, 1, 2, 3])))
    def test_equals_its_transpose_bit_for_bit(self, ds):
        """`propagate_layer`'s backward multiplies by A where the chain rule
        asks for A^T: the two must be the same matrix, structure and bits,
        in float64 and in the model's float32."""
        adj = build_graph(ds).normalized_adjacency()
        for a in (adj, adj.astype(np.float32)):
            t = a.T.tocsr()
            t.sort_indices()
            assert a.has_sorted_indices
            assert a.dtype == t.dtype
            np.testing.assert_array_equal(a.indptr, t.indptr)
            np.testing.assert_array_equal(a.indices, t.indices)
            assert a.data.tobytes() == t.data.tobytes()

    def test_product_equals_the_transposed_product_on_the_fit_graph(self):
        """On the benchmark's 800x1200 fit graph, A g and A^T g agree bit for
        bit in float32."""
        ds = clustered_interactions(800, 1200, per_user=30, seed=0)
        fit, _, _ = split_by_ratio(ds, SplitSpec(0.8, seed=0))
        adj = build_graph(fit).normalized_adjacency().astype(np.float32)
        g = np.random.default_rng(0).standard_normal((adj.shape[0], 32)).astype(np.float32)
        assert (adj @ g).tobytes() == (adj.T @ g).tobytes()


class TestPropagate:
    def test_single_edge_swaps_rows(self):
        g = graph_of([(0, 0)], 1, 1)
        adj = g.normalized_adjacency()
        h = constant(np.array([[1.0, 2.0], [5.0, -1.0]]))
        out = propagate_layer(h, adj)
        np.testing.assert_allclose(out.data, [[5.0, -1.0], [1.0, 2.0]])

    def test_two_degree_one_neighbors(self):
        g = graph_of([(0, 0), (0, 1)], 1, 2)
        adj = g.normalized_adjacency()
        e1, e2 = np.array([2.0, 0.0]), np.array([0.0, 4.0])
        h = constant(np.vstack([[0.0, 0.0], e1, e2]))
        out = propagate_layer(h, adj)
        np.testing.assert_allclose(out.data[0], (e1 + e2) / np.sqrt(2))

    def test_matches_dense_product_oracle(self):
        g = build_graph(clustered_interactions(10, 10, 2, per_user=4, seed=1))
        adj = g.normalized_adjacency()
        rng = np.random.default_rng(2)
        h = rng.standard_normal((20, 5))
        out = propagate_layer(constant(h), adj)
        np.testing.assert_allclose(out.data, adj.toarray() @ h, atol=1e-12)

    def test_linearity(self):
        g = build_graph(clustered_interactions(8, 9, 2, per_user=3, seed=3))
        adj = g.normalized_adjacency()
        rng = np.random.default_rng(4)
        h1 = rng.standard_normal((17, 4))
        h2 = rng.standard_normal((17, 4))
        lhs = propagate_layer(constant(2.0 * h1 + 0.5 * h2), adj).data
        rhs = 2.0 * propagate_layer(constant(h1), adj).data \
            + 0.5 * propagate_layer(constant(h2), adj).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_permutation_equivariance(self):
        g = build_graph(clustered_interactions(6, 7, 2, per_user=3, seed=5))
        adj = g.normalized_adjacency()
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
        adj = g.normalized_adjacency()
        w = Tensor(np.array([[1.0, 0.0], [0.0, -1.0]]))
        h = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = propagate_layer(h, adj, w)
        # adj swaps rows, then x @ w.T, then leaky relu slope 0.2
        pre = np.array([[3.0, -4.0], [1.0, -2.0]])
        expected = np.where(pre > 0, pre, 0.2 * pre)
        np.testing.assert_allclose(out.data, expected)

    def test_row_count_mismatch(self):
        g = graph_of([(0, 0)], 1, 1)
        adj = g.normalized_adjacency()
        with pytest.raises(ValueError):
            propagate_layer(constant(np.ones((3, 2))), adj)


def taped_transform(x, w):
    return leaky_relu(matmul(x, transpose(w)), 0.2)


def layer_inputs(t, d, backbone, seed):
    """Float64 (h, adj, W or None, pos) for a layer over a T-node graph:
    random pairs of a t // 2-user graph whose last user and item are
    isolated when each side has two nodes or more, or for t = 1 one
    isolated node (A is the 1x1 zero)."""
    rng = np.random.default_rng(seed)
    if t == 1:
        adj = sp.csr_matrix((1, 1))
    else:
        n_users, n_items = t // 2, t - t // 2
        users = rng.integers(0, max(n_users - 1, 1), size=3 * t)
        items = rng.integers(0, max(n_items - 1, 1), size=3 * t)
        adj = build_graph(InteractionDataset(n_users, n_items, users, items)).normalized_adjacency()
    h = rng.standard_normal((t, d))
    w = rng.uniform(-1, 1, size=(d, d)) if backbone == "transform-gcn" else None
    return h, adj, w, rng.standard_normal((t, d))


def run_layer(layer, h, adj, w, pos, lambda2, lambda3, g):
    """`layer`'s output and the gradients of its h, W and pos under the
    output weights `g`; a second consumer of h and pos makes each
    gradient a sum."""
    th, tp = Tensor(h), Tensor(pos)
    tw = None if w is None else Tensor(w)
    out = layer(th, adj, tw, tp, lambda2, lambda3)
    loss = sum_axis(mul(out, constant(g)), axis=None, keepdims=False)
    for t in (th, tp):
        loss = add(loss, sum_axis(mul(t, t), axis=None, keepdims=False))
    ad.backward(loss)
    return out, [t.grad for t in (th, tw, tp) if t is not None]


class TestFusedLayer:
    """`propagate_layer` against the taped `spmm` -> `leaky_transform` ->
    `mix` -> `column_mean` -> `mix` composition, in float64."""

    @pytest.mark.parametrize("backbone, lambda2, lambda3", itertools.product(
        ["lightgcn", "transform-gcn"], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
    @pytest.mark.parametrize("t", [1, 2, 15])
    def test_matches_taped_composition(self, backbone, lambda2, lambda3, t):
        h, adj, w, pos = layer_inputs(t, 4, backbone, seed=t)
        g = np.random.default_rng(t + 1).standard_normal(h.shape)
        got_out, got = run_layer(propagate_layer, h, adj, w, pos, lambda2, lambda3, g)
        want_out, want = run_layer(taped_layer, h, adj, w, pos, lambda2, lambda3, g)
        assert got_out._op == "propagate_layer"
        assert close(got_out.data, want_out.data, 1e-12)
        for a, b in zip(got, want, strict=True):
            assert close(a, b, 1e-12)

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_finite_differences(self, backbone):
        h, adj, w, pos = layer_inputs(9, 3, backbone, seed=3)
        g = np.random.default_rng(4).standard_normal(h.shape)
        if w is not None:  # clear of the kink; an isolated node's z stays 0
            z = (adj @ h) @ w.T
            assert np.abs(z[adj.getnnz(axis=1) > 0]).min() > 1e-3

        def build(ts):
            out = propagate_layer(ts[0], adj, ts[1] if w is not None else None, ts[-1],
                                  0.7, 0.4)
            return sum_axis(mul(out, constant(g)), axis=None, keepdims=False)

        finite_difference_check(build, [h] + ([w] if w is not None else []) + [pos])

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_parents(self, backbone):
        """pos is a parent only when λ2 and λ3 are nonzero."""
        h, adj, w, pos = layer_inputs(6, 3, backbone, seed=5)
        th, tp = Tensor(h), Tensor(pos)
        tw = None if w is None else Tensor(w)
        want = (th,) if tw is None else (th, tw)
        for lambda2, lambda3 in ((0.5, 0.5), (0.0, 0.5), (0.5, 0.0)):
            out = propagate_layer(th, adj, tw, tp, lambda2, lambda3)
            assert out._parents == (want + (tp,) if lambda2 and lambda3 else want)
        assert propagate_layer(th, adj, tw, None, 0.5, 0.5)._parents == want

    def test_lightgcn_closure_holds_no_table(self):
        """Besides its parents the lightgcn node's backward keeps no (T, d)
        array: the global term's gradient is one row, and no attention
        input table exists."""
        h, adj, _, pos = layer_inputs(15, 4, "lightgcn", seed=6)
        th, tp = Tensor(h), Tensor(pos)
        out = propagate_layer(th, adj, None, tp, 0.5, 0.5)
        held = [cell.cell_contents for cell in out._backward.__closure__]
        tensors = [c for c in held if isinstance(c, Tensor)]
        assert {id(c) for c in tensors} <= {id(p) for p in out._parents}
        assert all(c.size <= h.shape[1] for c in held if isinstance(c, np.ndarray))

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_float32_in_gives_float32_out(self, backbone):
        h, adj, w, pos = layer_inputs(15, 4, backbone, seed=7)
        f32 = [None if a is None else a.astype(np.float32) for a in (h, w, pos)]
        g = np.random.default_rng(8).standard_normal(h.shape).astype(np.float32)
        out, grads = run_layer(propagate_layer, f32[0], adj.astype(np.float32), f32[1],
                               f32[2], 0.5, 0.5, g)
        assert out.data.dtype == np.float32
        assert all(grad.dtype == np.float32 for grad in grads)


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
            tensors = [Tensor(a) for a in arrays]
            out = op(*tensors)
            ad.backward(self._weighted_sum(out, g))
            assert out.data.dtype == dtype and all(t.grad.dtype == dtype for t in tensors)
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in tensors])
        assert results[0] == results[1]


class TestReadout:
    """The readout is the engine's `mean` over the layer tables."""

    def test_single_table_identity(self):
        t = constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.mean([t]).data, t.data)

    def test_identical_tables(self):
        t = constant(np.ones((2, 2)))
        np.testing.assert_array_equal(ad.mean([t, t]).data, t.data)

    def test_mean_of_scaled_tables(self):
        t = np.arange(4.0).reshape(2, 2)
        out = ad.mean([constant(t), constant(3.0 * t)])
        np.testing.assert_allclose(out.data, 2.0 * t)
