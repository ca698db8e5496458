"""Gradient engine tests: every primitive against central finite differences.

`logsumexp_rows` below is a taped row-wise log-sum-exp under an optional
keep-mask.  `src/` has none (the sampled-softmax loss is one fused node);
it is a piece of the oracles in `test_attention.py` and `test_train.py`.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import pgtr.autodiff as ad
from pgtr.autodiff import NumericsError, Tensor, constant, parameter


def logsumexp_rows(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise log(sum(exp)) over the entries `mask` keeps, on the tape.

    `mask` is a constant boolean array of `a`'s shape (any other dtype
    keeps its nonzero entries); None keeps every entry.  Every row must
    keep at least one entry.
    """
    x = a.data
    if mask is None:
        mx = x.max(axis=1, keepdims=True)
        e = x - mx
    else:
        if mask.shape != x.shape:
            raise ValueError("mask shape mismatch")
        keep = mask.astype(bool, copy=False)
        if not keep.any(axis=1).all():
            raise ValueError("logsumexp_rows: some row has no unmasked entry")
        e = np.where(keep, x, -np.inf)
        mx = e.max(axis=1, keepdims=True)
        e -= mx
    np.exp(e, out=e)  # dropped entries become exp(-inf) = 0
    total = e.sum(axis=1, keepdims=True)

    def bw(g):
        ad._accum(a, e * (g / total))

    return ad._make(mx + np.log(total), "logsumexp_rows", (a,), bw)


def finite_difference_check(build_loss, arrays, h=1e-5, rtol=1e-4):
    """`build_loss(tensors) -> scalar Tensor`; checks grads of every array."""
    tensors = [parameter(a) for a in arrays]
    loss = build_loss(tensors)
    ad.backward(loss)
    for t, a in zip(tensors, arrays):
        got = t.grad if t.grad is not None else np.zeros_like(a)
        flat = a.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = build_loss([parameter(x) for x in arrays]).item()
            flat[idx] = orig - h
            f_minus = build_loss([parameter(x) for x in arrays]).item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2 * h)
            ref = got.ravel()[idx]
            denom = max(1.0, abs(fd), abs(ref))
            assert abs(fd - ref) / denom < rtol, (
                f"gradient mismatch at {idx}: reverse={ref}, fd={fd}")


def mean_all(t):
    return ad.sum_axis(t, axis=None, keepdims=False) * (1.0 / t.data.size)


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


class TestBasics:
    def test_quadratic(self):
        x = parameter(np.array([[1.0], [2.0]]))
        loss = ad.sum_axis(x * x, axis=None, keepdims=False)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0], [4.0]])

    def test_constant_loss_zero_grads(self):
        x = parameter(np.array([[1.0, 2.0]]))
        ad.backward(constant(np.array(3.0)))
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(x * x)

    def test_grad_accumulates_on_reuse(self):
        x = parameter(np.array([[3.0]]))
        loss = ad.sum_axis(x * x + x, axis=None, keepdims=False)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[7.0]])

    def test_nonfinite_aborts_with_op_name(self):
        x = parameter(np.array([[800.0]]))
        with pytest.raises(NumericsError, match="exp"):
            ad.exp(x)

    def test_constants_skip_gradients(self):
        c = constant(np.ones((2, 2)))
        out = c * 2.0
        assert out._backward is None


class TestPrimitiveGradients:
    """Central finite differences at relative 1e-4 for every primitive."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def _weighted(self, op):
        """Reduce an op output to a scalar through fixed random weights."""

        def build(tensors):
            out = op(*tensors)
            w = constant(np.random.default_rng(99).standard_normal(out.data.shape))
            return ad.sum_axis(out * w, axis=None, keepdims=False)

        return build

    def test_add_broadcast(self):
        finite_difference_check(self._weighted(ad.add),
                                [rand(self.rng, 3, 4), rand(self.rng, 3, 1)])

    def test_sub_broadcast(self):
        finite_difference_check(self._weighted(ad.sub),
                                [rand(self.rng, 3, 4), rand(self.rng, 1, 4)])

    def test_mul_broadcast(self):
        finite_difference_check(self._weighted(ad.mul),
                                [rand(self.rng, 3, 4), rand(self.rng, 3, 1)])

    def test_div(self):
        b = rand(self.rng, 3, 1) + 2.0
        finite_difference_check(self._weighted(ad.div), [rand(self.rng, 3, 4), b])

    def test_neg(self):
        finite_difference_check(self._weighted(ad.neg), [rand(self.rng, 3, 4)])

    def test_matmul(self):
        finite_difference_check(self._weighted(ad.matmul),
                                [rand(self.rng, 3, 4), rand(self.rng, 4, 2)])

    def test_transpose(self):
        finite_difference_check(self._weighted(ad.transpose), [rand(self.rng, 3, 4)])

    def test_exp(self):
        finite_difference_check(self._weighted(ad.exp), [rand(self.rng, 3, 4)])

    def test_log(self):
        finite_difference_check(self._weighted(ad.log), [rand(self.rng, 3, 4) + 2.0])

    def test_leaky_relu(self):
        x = rand(self.rng, 3, 4)
        x[np.abs(x) < 0.05] = 0.5  # keep clear of the kink
        finite_difference_check(self._weighted(lambda t: ad.leaky_relu(t, 0.2)), [x])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_sum_axis(self, axis):
        finite_difference_check(self._weighted(lambda t: ad.sum_axis(t, axis=axis)),
                                [rand(self.rng, 3, 4)])

    def test_gather_rows_with_repeats(self):
        idx = np.array([0, 2, 2, 1])
        finite_difference_check(self._weighted(lambda t: ad.gather_rows(t, idx)),
                                [rand(self.rng, 3, 4)])

    def test_slice_rows(self):
        finite_difference_check(self._weighted(lambda t: ad.slice_rows(t, 1, 3)),
                                [rand(self.rng, 4, 3)])

    def test_concat_rows(self):
        finite_difference_check(self._weighted(lambda a, b: ad.concat_rows([a, b])),
                                [rand(self.rng, 2, 3), rand(self.rng, 3, 3)])

    def test_spmm(self):
        s = sp.random(5, 4, density=0.5, random_state=3, format="csr")
        finite_difference_check(self._weighted(lambda t: ad.spmm(s, t)),
                                [rand(self.rng, 4, 3)])

    def test_l2_normalize_rows(self):
        x = rand(self.rng, 4, 3) + np.sign(rand(self.rng, 4, 3)) * 0.5
        finite_difference_check(self._weighted(ad.l2_normalize_rows), [x])

    def test_logsumexp_rows(self):
        finite_difference_check(self._weighted(logsumexp_rows), [rand(self.rng, 4, 5)])

    def test_logsumexp_rows_masked(self):
        mask = (np.random.default_rng(5).random((4, 5)) > 0.4).astype(float)
        mask[:, 0] = 1.0
        finite_difference_check(
            self._weighted(lambda t: logsumexp_rows(t, mask)),
            [rand(self.rng, 4, 5)])

    def test_composite_model_like_loss(self):
        """Random small composition through most primitives at once."""
        rng = self.rng
        s = sp.random(6, 6, density=0.4, random_state=11, format="csr")
        s = s + s.T
        idx = np.array([0, 3, 5])
        mask = np.ones((3, 3))

        def build(ts):
            x, w = ts
            h = ad.spmm(s, x)
            h = ad.l2_normalize_rows(ad.matmul(h, w) + x * 0.3)
            rows = ad.gather_rows(h, idx)
            scores = ad.matmul(rows, ad.transpose(rows)) * 2.0
            lse = logsumexp_rows(scores, mask)
            return mean_all(lse - ad.sum_axis(rows * rows, axis=1))

        finite_difference_check(build, [rand(rng, 6, 4) + 0.5, rand(rng, 4, 4)])


class TestGatherRowsScatter:
    """The backward of `gather_rows` equals an `np.add.at` scatter bit for bit."""

    @pytest.mark.parametrize("n_rows, idx", [
        (5, [3, 0, 3, 4, 0, 3, 1]),      # repeated, unsorted
        (1, [0, 0, 0]),                  # a single row
        (4, [2, 0, 3, 1, 2, 1, 0, 3]),   # every row hit
        (6, [5]),
        (3, [(i * i) % 7 % 3 for i in range(40)]),  # many repeats a row
    ])
    def test_equals_add_at(self, n_rows, idx):
        rng = np.random.default_rng(n_rows)
        idx = np.array(idx)
        # magnitudes from 1e-8 to 1e8, so the order of the repeats' sum shows
        g = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 9, size=(idx.size, 3))
        a = parameter(rng.normal(size=(n_rows, 3)))
        ad.backward(ad.sum_axis(ad.gather_rows(a, idx) * constant(g), axis=None,
                                keepdims=False))
        want = np.zeros((n_rows, 3))
        np.add.at(want, idx, g)
        assert a.grad.tobytes() == want.tobytes()

    def test_repeats_add_in_index_order(self):
        a = parameter(np.zeros((2, 1)))
        g = np.array([[1.0], [1e16], [-1e16], [1.0]])
        ad.backward(ad.sum_axis(ad.gather_rows(a, [0, 0, 0, 1]) * constant(g),
                                axis=None, keepdims=False))
        # ((1 + 1e16) - 1e16) is 0 in float64; the reverse order gives 1
        assert a.grad.ravel().tolist() == [0.0, 1.0]


class TestNormalizeAndMaskErrors:
    def test_zero_norm_row_rejected(self):
        with pytest.raises(NumericsError, match="zero-norm"):
            ad.l2_normalize_rows(constant(np.zeros((2, 3))))

    def test_empty_mask_row_rejected(self):
        x = constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match="no unmasked"):
            logsumexp_rows(x, np.array([[1.0, 0.0], [0.0, 0.0]]))
