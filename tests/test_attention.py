"""Feature map and attention tests against exact softmax attention.

The functions run on the gradient tape; these tests feed them constants
and read `.data`.  `feature_map` and `taped_kernelized_attention` below are
the unstabilized taped composition that `kernelized_attention` fuses into
one node: the oracle for its output and its gradients.  `exact_attention`
is the quadratic softmax attention that the kernelized one approximates.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import pgtr.autodiff as ad
from pgtr.attention import (
    MIN_DENOMINATOR,
    AttentionError,
    RandomFeatureMap,
    kernelized_attention,
    make_feature_map,
)
from pgtr.autodiff import parameter
from pgtr.data import build_graph
from pgtr.model import PGTRConfig, forward, init_model
from pgtr.synthetic import clustered_interactions
from test_autodiff import (constant, div, exp, logsumexp_rows, matmul, mul, sub, sum_axis,
                           transpose)

MAX_EXPONENT = 700.0


def feature_map(x, rf):
    """phi(x) for every row of a (T, d) table, on the tape."""
    sq = sum_axis(mul(x, x), axis=1)
    logits = matmul(x, constant(rf.directions.T))
    if logits.data.max(initial=-np.inf) > MAX_EXPONENT:
        raise AttentionError("feature map direction products overflow exp; scale inputs down")
    return mul(exp(sub(logits, mul(sq, 0.5))), 1.0 / np.sqrt(rf.m))


def taped_kernelized_attention(h, rf, scale):
    """phi(H) (phi(H)^T H) / phi(H) (phi(H)^T 1), one tape node per step:
    the queries, keys and values are all H."""
    phi = feature_map(mul(h, scale), rf)
    summary = matmul(transpose(phi), h)
    totals = sum_axis(phi, axis=0)
    numer = matmul(phi, summary)
    denom = matmul(phi, transpose(totals))
    if denom.data.min() < MIN_DENOMINATOR:
        raise AttentionError("attention denominator underflow; inputs need rescaling")
    return div(numer, denom)


def exact_attention(h, scale):
    """Quadratic-cost softmax aggregation of the rows of `h` over all (T, T)
    pairs, on the tape."""
    if h.data.ndim != 2 or h.data.shape[0] < 1:
        raise ValueError("attention input must be a nonempty (T, d) table")
    x = mul(h, scale)
    logits = matmul(x, transpose(x))
    weights = exp(sub(logits, logsumexp_rows(logits)))
    return matmul(weights, h)


def mapped(x, rf):
    """The feature map of a d-vector, or of each row of a (T, d) table."""
    x = np.asarray(x, dtype=np.float64)
    out = feature_map(constant(np.atleast_2d(x)), rf).data
    return out[0] if x.ndim == 1 else out


def exact_of(z):
    return exact_attention(constant(z), 1.0 / np.sqrt(z.shape[1])).data


def kernelized_of(z, rf, scale=None):
    scale = 1.0 / np.sqrt(z.shape[1]) if scale is None else scale
    return kernelized_attention(constant(z), rf, scale).data


def tape_nodes(out):
    """Every node of the tape that produced `out`."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def held_arrays(out):
    """Every array the tape of `out` holds: each node's value, and the
    arrays and tensors its backward closure captured."""
    arrays = []
    for node in tape_nodes(out):
        arrays.append(node.data)
        for cell in getattr(node._backward, "__closure__", None) or ():
            held = cell.cell_contents
            if isinstance(held, ad.Tensor):
                arrays.append(held.data)
            elif isinstance(held, np.ndarray):
                arrays.append(held)
    return arrays


def close(got, want, rel):
    """Equal to relative `rel` in the Frobenius norm."""
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


class TestFeatureMap:
    def test_zero_input(self):
        rf = make_feature_map(16, 4, seed=0)
        phi = mapped(np.zeros(4), rf)
        np.testing.assert_allclose(phi, np.full(16, 1 / np.sqrt(16)))
        assert phi @ phi == pytest.approx(1.0)

    def test_positivity(self):
        rf = make_feature_map(32, 6, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            phi = mapped(rng.normal(0, 0.5, size=6), rf)
            assert np.all(phi > 0)

    def test_monte_carlo_estimates_exp_kernel(self):
        """phi(q).phi(k) with many features approximates exp(q.k)."""
        rng = np.random.default_rng(3)
        rf = make_feature_map(100_000, 8, seed=4)
        errs = []
        for _ in range(10):
            q = rng.normal(0, 0.25, size=8)
            k = rng.normal(0, 0.25, size=8)
            est = mapped(q, rf) @ mapped(k, rf)
            errs.append(abs(est - np.exp(q @ k)) / np.exp(q @ k))
        assert np.mean(errs) <= 0.02

    def test_frozen_directions(self):
        rf = make_feature_map(8, 3, seed=5)
        snapshot = rf.directions.copy()
        mapped(np.ones(3), rf)
        np.testing.assert_array_equal(rf.directions, snapshot)

    def test_overflow_error_advises_scaling(self):
        rf = make_feature_map(4, 2, seed=6)
        w0 = rf.directions[0]
        x = 800.0 * w0 / (w0 @ w0)  # makes w0.x = 800 > exp range
        with pytest.raises(AttentionError, match="scale"):
            mapped(x, rf)

    def test_matrix_and_vector_agree(self):
        rf = make_feature_map(8, 3, seed=7)
        x = np.random.default_rng(8).normal(size=(5, 3))
        rows = mapped(x, rf)
        for i in range(5):
            np.testing.assert_allclose(rows[i], mapped(x[i], rf))


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


class TestKernelizedAttention:
    def test_single_row_identity(self):
        rf = make_feature_map(64, 3, seed=10)
        z = np.array([[0.5, -1.0, 2.0]])
        np.testing.assert_allclose(kernelized_of(z, rf), z, atol=1e-12)

    def test_identical_rows_fixed_point(self):
        rf = make_feature_map(64, 2, seed=11)
        z = np.tile([0.3, -0.7], (6, 1))
        np.testing.assert_allclose(kernelized_of(z, rf), z, atol=1e-10)

    def test_close_to_exact_at_large_m(self):
        rng = np.random.default_rng(12)
        z = rng.normal(0, 0.1, size=(50, 32))
        rf = make_feature_map(4096, 32, seed=13)
        approx = kernelized_of(z, rf)
        exact = exact_of(z)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel <= 0.05

    def test_error_shrinks_as_m_grows(self):
        errors = {}
        for m in (256, 1024, 4096):
            per_seed = []
            for seed in range(8):
                rng = np.random.default_rng(1000 + seed)
                z = rng.normal(0, 0.1, size=(50, 32))
                rf = make_feature_map(m, 32, seed=seed)
                rel = (np.linalg.norm(kernelized_of(z, rf) - exact_of(z))
                       / np.linalg.norm(exact_of(z)))
                per_seed.append(rel)
            errors[m] = np.median(per_seed)
        assert errors[256] > errors[1024] > errors[4096]

    def test_rows_in_convex_hull(self):
        rng = np.random.default_rng(14)
        z = rng.normal(0, 0.3, size=(6, 3))
        rf = make_feature_map(512, 3, seed=15)
        out = kernelized_of(z, rf)
        for row in out:
            assert in_convex_hull(row, z, tol=1e-8)

    def test_tape_holds_no_pairwise_table(self):
        """Linear cost in T: neither the tape nor the backward closures hold a
        (T, T) array, or any larger than the (T, m) features.  Exact
        attention's tape fails both."""
        rng = np.random.default_rng(16)
        t, m, d = 80, 128, 16
        z = parameter(rng.normal(0, 0.1, size=(t, d)))
        rf = make_feature_map(m, d, seed=17)

        def pairwise(out):
            return [a for a in held_arrays(out) if a.shape == (t, t) or a.size > t * m]

        assert not pairwise(kernelized_attention(z, rf, 1.0 / np.sqrt(d)))
        assert pairwise(exact_attention(z, 1.0 / np.sqrt(d)))

    def test_one_node_per_layer(self):
        """The whole layer is one node whose only parent is its input."""
        rng = np.random.default_rng(19)
        h = parameter(rng.normal(0, 0.3, size=(12, 4)))
        out = kernelized_attention(h, make_feature_map(8, 4, seed=20), 0.5)
        assert out._op == "kernelized_attention"
        assert out._parents == (h,)
        assert len(tape_nodes(out)) == 2

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 3, 1)])
    def test_input_that_is_not_a_nonempty_table_rejected(self, shape):
        rf = make_feature_map(8, 3, seed=21)
        with pytest.raises(ValueError, match="nonempty"):
            kernelized_attention(constant(np.ones(shape)), rf, 0.5)

    def test_underflow_denominator_rejected(self):
        # each row's dominant directions see only the other row's features,
        # damped by exp(-|x|^2/2): below MIN_DENOMINATOR even when stabilized
        rf = make_feature_map(4, 2, seed=18)
        z = np.array([[50.0, 0.0], [-50.0, 0.0]])
        with pytest.raises(AttentionError, match="denominator underflow"):
            kernelized_of(z, rf, scale=1.0)

    def test_large_opposite_rows_stay_in_convex_hull(self):
        """At norm 35 the unstabilized features underflow; the stabilized
        ones still give finite rows inside the inputs' convex hull."""
        rf = make_feature_map(4, 2, seed=18)
        z = np.array([[35.0, 0.0], [-35.0, 0.0]])
        out = kernelized_of(z, rf, scale=1.0)
        assert np.all(np.isfinite(out))
        for row in out:
            assert in_convex_hull(row, z, tol=1e-8)


# row norms up to where the unstabilized oracle stays finite: at d=6, m=16
# its denominator starts to underflow near norm 25
ORACLE_MAX_NORM = 20.0


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 60), identical=st.booleans(),
       norm=st.floats(0.0, ORACLE_MAX_NORM), seed=st.integers(0, 2**32 - 1))
def test_fused_matches_taped_oracle(t, identical, norm, seed):
    """The output and the input gradient from one backward agree with the
    unstabilized taped composition to 1e-12 relative."""
    d, m = 6, 16
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((1 if identical else t, d))
    rows *= norm * rng.uniform(0.0, 1.0, size=(rows.shape[0], 1)) / np.linalg.norm(
        rows, axis=1, keepdims=True)
    rows = np.broadcast_to(rows, (t, d)).copy()
    g = constant(rng.standard_normal((t, d)))
    rf = make_feature_map(m, d, seed=seed)

    def run(attention):
        h = parameter(rows.copy())
        out = attention(h, rf, 1.0 / np.sqrt(d))
        ad.backward(sum_axis(mul(out, g), axis=None, keepdims=False))
        return out.data, h.grad

    want_out, want_grad = run(taped_kernelized_attention)
    got_out, got_grad = run(kernelized_attention)
    assert close(got_out, want_out, 1e-12)
    assert close(got_grad, want_grad, 1e-12)


def cast_map(rf, dtype):
    return RandomFeatureMap(rf.m, rf.directions.astype(dtype), rf.seed)


# (graph, config) pairs whose forward feeds the attention float32 tables
MODEL_CASES = {
    "60x80 default": (dict(n_users=60, n_items=80, n_clusters=4, per_user=20, seed=9), {}),
    "12x14 small": (dict(n_users=12, n_items=14, n_clusters=3, per_user=5, seed=3),
                    dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3, m_features=32)),
    "12x14 transform-gcn": (dict(n_users=12, n_items=14, n_clusters=3, per_user=5, seed=4),
                            dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3,
                                 m_features=32, backbone="transform-gcn")),
}


class TestFloat32:
    """The op computes in its input's dtype.  In float32 it matches the
    float64 evaluation of the same inputs to about 1e-5 relative, and a key
    scale that flushes to zero still raises AttentionError, not NaN."""

    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_matches_float64_on_model_inputs(self, case):
        data_kw, cfg_kw = MODEL_CASES[case]
        state = init_model(build_graph(clustered_interactions(**data_kw)),
                           PGTRConfig(**cfg_kw), seed=5)
        _, internals = forward(state, return_layers=True)
        scale = 1.0 / np.sqrt(state.config.d)
        rng = np.random.default_rng(6)
        for (_, global_, _), rf in zip(internals, state.feature_maps, strict=True):
            (x,) = global_._parents
            assert x.data.dtype == rf.directions.dtype == np.float32
            g = rng.standard_normal(x.data.shape)

            def run(dtype):
                h = parameter(x.data.astype(dtype))
                out = kernelized_attention(h, cast_map(rf, dtype), scale)
                ad.backward(sum_axis(mul(out, constant(g.astype(dtype))), axis=None,
                                     keepdims=False))
                assert out.data.dtype == h.grad.dtype == dtype
                return out.data, h.grad

            out32, grad32 = run(np.float32)
            out64, grad64 = run(np.float64)
            assert close(out32, out64, 1e-5)
            assert close(grad32, grad64, 1e-5)

    @pytest.mark.parametrize("norm", [50.0, 200.0, 1000.0])
    def test_underflow_denominator_rejected(self, norm):
        """The large-norm opposite rows of the float64 test: one key's
        scale lies below e^-69 or flushes to zero, and the op raises."""
        rf = cast_map(make_feature_map(4, 2, seed=18), np.float32)
        z = np.array([[norm, 0.0], [-norm, 0.0]], dtype=np.float32)
        with pytest.raises(AttentionError, match="denominator underflow"):
            kernelized_of(z, rf, scale=1.0)
