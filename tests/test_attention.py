"""The model's global term against exact softmax attention.

`exact_attention` is the quadratic softmax attention of a table's rows over
themselves, on the tape: queries, keys and values are all the input table.
The model's global term, the column mean that each `propagate_layer` node
forms (`column_mean` in the tests' oracle engine), is its limit as the
logits' scale goes to 0, where every one of the (T, T) weights is 1/T.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import pgtr.autodiff as ad
from pgtr.autodiff import Tensor
from pgtr.data import build_graph
from pgtr.model import PGTRConfig, init_model
from pgtr.synthetic import clustered_interactions
from test_autodiff import (close, column_mean, constant, exp, logsumexp_rows, matmul, mul, sub,
                           sum_axis, tape_nodes, transpose)
from test_model import taped_layers


def exact_attention(h, scale):
    """Quadratic-cost softmax aggregation of the rows of `h` over all (T, T)
    pairs, on the tape."""
    if h.data.ndim != 2 or h.data.shape[0] < 1:
        raise ValueError("attention input must be a nonempty (T, d) table")
    x = mul(h, scale)
    logits = matmul(x, transpose(x))
    weights = exp(sub(logits, logsumexp_rows(logits)))
    return matmul(weights, h)


def exact_of(z, scale=None):
    scale = 1.0 / np.sqrt(z.shape[1]) if scale is None else scale
    return exact_attention(constant(z), scale).data


def in_convex_hull(point, vertices, tol=1e-9):
    """Feasibility LP: point = vertices.T @ w, w >= 0, sum w = 1."""
    t, d = vertices.shape
    a_eq = np.vstack([vertices.T, np.ones(t)])
    b_eq = np.concatenate([point, [1.0]])
    res = linprog(np.zeros(t), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * t, method="highs")
    return res.status == 0 and res.success


class TestExactAttention:
    def test_single_row_identity(self):
        z = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_allclose(exact_of(z), z)

    def test_identical_rows_fixed_point(self):
        z = np.tile([1.0, 2.0], (5, 1))
        np.testing.assert_allclose(exact_of(z), z, atol=1e-12)

    def test_rows_in_convex_hull(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(5, 3))
        out = exact_of(z)
        for row in out:
            assert in_convex_hull(row, z)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_of(np.zeros((0, 3)))


# (graph, config) pairs whose forward feeds the global term float32 tables
MODEL_CASES = {
    "60x80 default": (dict(n_users=60, n_items=80, n_clusters=4, per_user=20, seed=9), {}),
    "12x14 small": (dict(n_users=12, n_items=14, n_clusters=3, per_user=5, seed=3),
                    dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3)),
    "12x14 transform-gcn": (dict(n_users=12, n_items=14, n_clusters=3, per_user=5, seed=4),
                            dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3,
                                 backbone="transform-gcn")),
}


def attention_inputs(case):
    """The default forward's inputs to the global term, one per layer: the
    tables local + λ2·pos of the taped composition the layer nodes fuse."""
    data_kw, cfg_kw = MODEL_CASES[case]
    state = init_model(build_graph(clustered_interactions(**data_kw)),
                       PGTRConfig(**cfg_kw), seed=5)
    _, layers = taped_layers(state)
    # each output is mix(local, column_mean(attention input))
    return [out._parents[1]._parents[0].data for _, out in layers]


class TestColumnMean:
    def test_limit_of_exact_attention_as_the_scale_goes_to_zero(self):
        """Softmax weights at logit scale s are 1/T + O(s^2): the distance
        to the column mean falls 100-fold for every 10-fold smaller s."""
        z = np.random.default_rng(12).normal(size=(50, 8))
        want = column_mean(constant(z)).data
        errors = [np.linalg.norm(exact_of(z, s) - want) / np.linalg.norm(want)
                  for s in (1e-1, 1e-2, 1e-3)]
        assert errors[0] < 0.1
        for coarse, fine in zip(errors, errors[1:]):
            assert 80.0 < coarse / fine < 120.0

    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_is_exact_attention_at_the_model_scale(self, case):
        """On the model's own inputs at initialization, softmax attention at
        its 1/sqrt(d) scale is already the column mean to 1e-2 relative."""
        for x in attention_inputs(case):
            x = x.astype(np.float64)
            assert close(column_mean(constant(x)).data, exact_of(x), 1e-2)

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 60), d=st.integers(1, 8), log_norm=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_in_any_order_give_the_same_mean(self, t, d, log_norm, seed):
        """Every output row is the same row, the same under a permutation of
        the input rows to rounding; one input row comes back exactly."""
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(t, d)) * 10.0 ** log_norm
        out = column_mean(constant(z)).data
        permuted = column_mean(constant(z[rng.permutation(t)])).data
        assert out.shape == z.shape and (out == out[0]).all()
        np.testing.assert_allclose(permuted, out, rtol=0, atol=1e-13 * np.abs(z).max())
        assert column_mean(constant(z[:1])).data.tobytes() == z[:1].tobytes()

    def test_one_node_per_layer(self):
        """The whole term is one node whose only parent is its input."""
        h = Tensor(np.random.default_rng(19).normal(0, 0.3, size=(12, 4)))
        out = column_mean(h)
        assert out._op == "column_mean"
        assert out._parents == (h,)
        assert len(tape_nodes(out)) == 2


class TestFloat32:
    """The node computes in its input's dtype.  In float32 it matches the
    float64 evaluation of the same inputs to about 1e-6 relative."""

    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_matches_float64_on_model_inputs(self, case):
        rng = np.random.default_rng(6)
        for x in attention_inputs(case):
            assert x.dtype == np.float32
            g = rng.standard_normal(x.shape)

            def run(dtype):
                h = Tensor(x.astype(dtype))
                out = column_mean(h)
                ad.backward(sum_axis(mul(out, constant(g.astype(dtype))), axis=None,
                                     keepdims=False))
                assert out.data.dtype == h.grad.dtype == dtype
                return out.data, h.grad

            out32, grad32 = run(np.float32)
            out64, grad64 = run(np.float64)
            assert close(out32, out64, 1e-6)
            assert close(grad32, grad64, 1e-6)
