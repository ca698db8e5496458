"""Gradient engine tests: every primitive against central finite differences.

`as_float64` turns a float32 model state into one that computes in
float64, for the oracle and finite-difference tests of other modules.
`tape_nodes` and `held_arrays` list what a tape holds, and `close` compares
arrays in the Frobenius norm, for the same tests.

The ops defined below (`constant`, broadcast `add`, `sub`, `mul` and
`div`, `matmul`, `transpose`, `leaky_relu`, `neg`, `exp`, `log`,
`sum_axis`, `gather_rows`, `slice_rows`, `concat_rows`,
`logsumexp_rows`, a taped row-wise log-sum-exp under an optional
keep-mask, `l2_normalize_rows`, the cosine scores' normalization, and the
layer's pieces `spmm`, `leaky_transform` and `column_mean`) are built on
the engine's `_make`, but `src/` runs none of them: the position vectors,
each layer and the sampled-softmax loss, row normalization included, are
each one fused node.  They are the pieces of the taped oracles in the
other test modules, and are checked here like the engine's own ops.
`add` and `mul` take a scalar or array second operand as a constant of the
first operand's dtype.  `taped_layer` composes the layer pieces into the
oracle of `backbone.propagate_layer`.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import pgtr.autodiff as ad
from pgtr.autodiff import NumericsError, Tensor
from pgtr.backbone import LEAKY_SLOPE, propagate_layer


def constant(data) -> Tensor:
    """A leaf standing for a fixed input.  Like every leaf it receives a
    gradient from `backward`, which the tests do not read."""
    return Tensor(data)


def as_float64(state, graph):
    """`state`, built by `init_model` for `graph`, changed in place to compute
    in float64, and returned.  The parameters are cast (their float32
    values are exact in float64); the normalized
    adjacency and the spectral columns of the position features are taken
    again from `graph` and the float64 spectral block, so a float64 oracle
    built from those sees the same constants."""
    for t in state.parameters():
        t.data = t.data.astype(np.float64)
    state.adjacency = graph.normalized_adjacency()
    enc = state.enc
    if enc.features is not None:
        enc.features = enc.features.astype(np.float64)
        if enc.spectral is not None:
            enc.features[:, :enc.spectral.matrix.shape[0]] = enc.spectral.matrix.T
    return state


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
            if isinstance(held, Tensor):
                arrays.append(held.data)
            elif isinstance(held, np.ndarray):
                arrays.append(held)
    return arrays


def close(got, want, rel):
    """Equal to relative `rel` in the Frobenius norm."""
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _wrap(x, dtype) -> Tensor:
    """`x` as a constant of `dtype` unless it is a Tensor (a 0-d float64
    array would promote a float32 one)."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def _binary(op: str, data, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Record a two-operand op.  `grad_a(g)` / `grad_b(g)` map the output
    gradient to an operand's; both operands receive theirs."""
    def bw(g):
        ad._accum(a, _unbroadcast(grad_a(g), a.data.shape))
        ad._accum(b, _unbroadcast(grad_b(g), b.data.shape))

    return ad._make(data, op, (a, b), bw)


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.data.dtype)
    return _binary("add", a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.data.dtype)
    return _binary("mul", a.data * b.data, a, b,
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary("div", a.data / b.data, a, b,
                   lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("matmul", a.data @ b.data, a, b,
                   lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def transpose(a: Tensor) -> Tensor:
    return ad._make(a.data.T, "transpose", (a,), lambda g: ad._accum(a, g.T))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    pos = a.data > 0

    def bw(g):
        ad._accum(a, np.where(pos, g, slope * g))

    return ad._make(np.where(pos, a.data, slope * a.data), "leaky_relu", (a,), bw)


def neg(a: Tensor) -> Tensor:
    return ad._make(-a.data, "neg", (a,), lambda g: ad._accum(a, -g))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return ad._make(data, "exp", (a,), lambda g: ad._accum(a, g * data))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return ad._make(data, "log", (a,), lambda g: ad._accum(a, g / a.data))


def sum_axis(a: Tensor, axis: int | None = None, keepdims: bool = True) -> Tensor:
    if axis is None:
        g_shape = (1,) * a.data.ndim
    else:
        g_shape = list(a.data.shape)
        g_shape[axis] = 1

    def bw(g):
        ad._accum(a, np.broadcast_to(np.reshape(g, g_shape), a.data.shape).copy())

    return ad._make(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), bw)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        ad._accum(a, ga)

    return ad._make(a.data[idx], "gather_rows", (a,), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def bw(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        ad._accum(a, ga)

    return ad._make(a.data[start:stop].copy(), "slice_rows", (a,), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            ad._accum(p, g[lo:hi])

    return ad._make(np.concatenate([p.data for p in parts], axis=0), "concat_rows",
                    tuple(parts), bw)


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


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Each row of `a` over its L2 norm; a zero-norm row raises
    NumericsError."""
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    bad = np.nonzero(norms.ravel() == 0.0)[0]
    if bad.size:
        raise NumericsError(f"l2_normalize_rows: zero-norm row(s) {bad[:5].tolist()}")
    data = a.data / norms

    def bw(g):
        inner = (g * data).sum(axis=1, keepdims=True)
        ad._accum(a, (g - data * inner) / norms)

    return ad._make(data, "l2_normalize_rows", (a,), bw)


def spmm(s: sp.spmatrix, a: Tensor) -> Tensor:
    """Constant sparse matrix times tensor; gradient flows through `a` only."""
    st = s.T

    def bw(g):
        ad._accum(a, np.asarray(st @ g))

    return ad._make(np.asarray(s @ a.data), "spmm", (a,), bw)


def leaky_transform(x: Tensor, w: Tensor) -> Tensor:
    """leaky_relu(x W^T) as one node with parents x and W, bit for bit the
    taped `leaky_relu(matmul(x, transpose(w)))` (so W's gradient is taken
    as (x^T dz)^T rather than dz^T x)."""
    z = x.data @ w.data.T
    pos = z > 0

    def bw(g):
        dz = np.where(pos, g, LEAKY_SLOPE * g)
        ad._accum(x, dz @ w.data)
        ad._accum(w, (x.data.T @ dz).T)

    return ad._make(np.where(pos, z, LEAKY_SLOPE * z), "leaky_transform", (x, w), bw)


def column_mean(a: Tensor) -> Tensor:
    """A (T, d) table whose every row is the mean of the T rows of `a`:
    softmax attention of the rows over themselves in its small-logit
    limit, where every weight is 1/T.  The value and the gradient handed
    back (every row g.sum(axis=0) / T) are read-only broadcasts of one
    row."""
    n = a.data.shape[0]

    def bw(g):
        ad._accum(a, np.broadcast_to(g.sum(axis=0, keepdims=True) / n, a.data.shape))

    return ad._make(np.broadcast_to(a.data.mean(axis=0, keepdims=True), a.data.shape),
                    "column_mean", (a,), bw)


def taped_layer(h, adj, transform=None, pos=None, lambda2=0.0, lambda3=0.0):
    """`backbone.propagate_layer` as the taped composition it fuses: `spmm`,
    `leaky_transform` for transform-gcn, `mix(local, pos, 1, λ2)`,
    `column_mean` and `mix(local, global, 1 - λ3, λ3)`."""
    local = spmm(adj, h)
    if transform is not None:
        local = leaky_transform(local, transform)
    if lambda3 == 0.0:
        return local
    attn_in = local if pos is None or lambda2 == 0.0 else ad.mix(local, pos, 1.0, lambda2)
    return ad.mix(local, column_mean(attn_in), 1.0 - lambda3, lambda3)


def finite_difference_check(build_loss, arrays, h=1e-5, rtol=1e-4):
    """`build_loss(tensors) -> scalar Tensor`; checks grads of every array."""
    tensors = [Tensor(a) for a in arrays]
    loss = build_loss(tensors)
    ad.backward(loss)
    for t, a in zip(tensors, arrays):
        got = t.grad if t.grad is not None else np.zeros_like(a)
        flat = a.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = build_loss([Tensor(x) for x in arrays]).item()
            flat[idx] = orig - h
            f_minus = build_loss([Tensor(x) for x in arrays]).item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2 * h)
            ref = got.ravel()[idx]
            denom = max(1.0, abs(fd), abs(ref))
            assert abs(fd - ref) / denom < rtol, (
                f"gradient mismatch at {idx}: reverse={ref}, fd={fd}")


def mean_all(t):
    return mul(sum_axis(t, axis=None, keepdims=False), 1.0 / t.data.size)


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


class TestBasics:
    def test_quadratic(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        loss = sum_axis(mul(x, x), axis=None, keepdims=False)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0], [4.0]])

    def test_constant_loss_zero_grads(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        ad.backward(constant(np.array(3.0)))
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(mul(x, x))

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([[3.0]]))
        loss = sum_axis(add(mul(x, x), x), axis=None, keepdims=False)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[7.0]])

    def test_nonfinite_aborts_with_op_name(self):
        """Ops do not scan their outputs; `check_finite` on the node names
        the op."""
        x = Tensor(np.array([[800.0]]))
        out = exp(x)
        assert np.isinf(out.data).all()
        with pytest.raises(NumericsError, match="^non-finite intermediate produced by 'exp'$"):
            ad.check_finite(out)


class TestPrimitiveGradients:
    """Central finite differences at relative 1e-4 for every primitive."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def _weighted(self, op):
        """Reduce an op output to a scalar through fixed random weights."""

        def build(tensors):
            out = op(*tensors)
            w = constant(np.random.default_rng(99).standard_normal(out.data.shape))
            return sum_axis(mul(out, w), axis=None, keepdims=False)

        return build

    def test_add_broadcast(self):
        finite_difference_check(self._weighted(add),
                                [rand(self.rng, 3, 4), rand(self.rng, 3, 1)])

    def test_sub_broadcast(self):
        finite_difference_check(self._weighted(sub),
                                [rand(self.rng, 3, 4), rand(self.rng, 1, 4)])

    def test_mul_broadcast(self):
        finite_difference_check(self._weighted(mul),
                                [rand(self.rng, 3, 4), rand(self.rng, 3, 1)])

    def test_div(self):
        b = rand(self.rng, 3, 1) + 2.0
        finite_difference_check(self._weighted(div), [rand(self.rng, 3, 4), b])

    def test_neg(self):
        finite_difference_check(self._weighted(neg), [rand(self.rng, 3, 4)])

    def test_matmul(self):
        finite_difference_check(self._weighted(matmul),
                                [rand(self.rng, 3, 4), rand(self.rng, 4, 2)])

    def test_transpose(self):
        finite_difference_check(self._weighted(transpose), [rand(self.rng, 3, 4)])

    def test_exp(self):
        finite_difference_check(self._weighted(exp), [rand(self.rng, 3, 4)])

    def test_log(self):
        finite_difference_check(self._weighted(log), [rand(self.rng, 3, 4) + 2.0])

    def test_leaky_relu(self):
        x = rand(self.rng, 3, 4)
        x[np.abs(x) < 0.05] = 0.5  # keep clear of the kink
        finite_difference_check(self._weighted(lambda t: leaky_relu(t, 0.2)), [x])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_sum_axis(self, axis):
        finite_difference_check(self._weighted(lambda t: sum_axis(t, axis=axis)),
                                [rand(self.rng, 3, 4)])

    def test_gather_rows_with_repeats(self):
        idx = np.array([0, 2, 2, 1])
        finite_difference_check(self._weighted(lambda t: gather_rows(t, idx)),
                                [rand(self.rng, 3, 4)])

    def test_slice_rows(self):
        finite_difference_check(self._weighted(lambda t: slice_rows(t, 1, 3)),
                                [rand(self.rng, 4, 3)])

    def test_concat_rows(self):
        finite_difference_check(self._weighted(lambda a, b: concat_rows([a, b])),
                                [rand(self.rng, 2, 3), rand(self.rng, 3, 3)])

    def test_spmm(self):
        s = sp.random(5, 4, density=0.5, random_state=3, format="csr")
        finite_difference_check(self._weighted(lambda t: spmm(s, t)),
                                [rand(self.rng, 4, 3)])

    @pytest.mark.parametrize("rows", [1, 4])
    def test_column_mean(self, rows):
        finite_difference_check(self._weighted(column_mean), [rand(self.rng, rows, 3)])

    def test_l2_normalize_rows(self):
        x = rand(self.rng, 4, 3) + np.sign(rand(self.rng, 4, 3)) * 0.5
        finite_difference_check(self._weighted(l2_normalize_rows), [x])

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
            h = spmm(s, x)
            h = l2_normalize_rows(add(matmul(h, w), mul(x, 0.3)))
            rows = gather_rows(h, idx)
            scores = mul(matmul(rows, transpose(rows)), 2.0)
            lse = logsumexp_rows(scores, mask)
            return mean_all(sub(lse, sum_axis(mul(rows, rows), axis=1)))

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
        a = Tensor(rng.normal(size=(n_rows, 3)))
        ad.backward(sum_axis(mul(gather_rows(a, idx), constant(g)), axis=None,
                             keepdims=False))
        want = np.zeros((n_rows, 3))
        np.add.at(want, idx, g)
        assert a.grad.tobytes() == want.tobytes()

    def test_repeats_add_in_index_order(self):
        a = Tensor(np.zeros((2, 1)))
        g = np.array([[1.0], [1e16], [-1e16], [1.0]])
        ad.backward(sum_axis(mul(gather_rows(a, [0, 0, 0, 1]), constant(g)),
                             axis=None, keepdims=False))
        # ((1 + 1e16) - 1e16) is 0 in float64; the reverse order gives 1
        assert a.grad.ravel().tolist() == [0.0, 1.0]


class TestNormalizeAndMaskErrors:
    def test_zero_norm_row_rejected(self):
        with pytest.raises(NumericsError, match="zero-norm"):
            l2_normalize_rows(constant(np.zeros((2, 3))))

    def test_empty_mask_row_rejected(self):
        x = constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match="no unmasked"):
            logsumexp_rows(x, np.array([[1.0, 0.0], [0.0, 0.0]]))


def allocating_accum(t, g):
    """The plain accumulation rule: every sum is a new full array, even of
    two row broadcasts."""
    t.grad = g if t.grad is None else t.grad + g


class TestSharedGradients:
    """Gradients handed to several parents, or handed on as views, sum to the
    same bits as with an allocate-always `_accum`: no sum writes into an
    array another node also holds, and summing two row broadcasts as one
    row changes no bit."""

    def _leaf_grads(self, build, arrays):
        tensors = [Tensor(a.copy()) for a in arrays]
        ad.backward(build(tensors))
        return [t.grad for t in tensors]

    def _check(self, build, arrays, monkeypatch):
        got = self._leaf_grads(build, arrays)
        with monkeypatch.context() as patch:
            patch.setattr(ad, "_accum", allocating_accum)
            want = self._leaf_grads(build, arrays)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    def _weights(self, shape):
        # magnitudes from 1e-6 to 1e6, so a changed summation order shows
        rng = np.random.default_rng(31)
        return constant(rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape))

    def test_add_of_a_tensor_to_itself(self, monkeypatch):
        def build(ts):
            a, b = ts
            h = mul(a, b)
            twice = add(h, h)  # both operands take the one output gradient,
            out = ad.mean([twice, b])  # which `b` holds too
            out = add(mul(out, a), add(out, a))
            return sum_axis(mul(out, self._weights(out.data.shape)), axis=None, keepdims=False)

        rng = np.random.default_rng(1)
        self._check(build, [rand(rng, 4, 3), rand(rng, 4, 3)], monkeypatch)

    def test_table_read_twice_by_the_readout(self, monkeypatch):
        s = sp.random(5, 5, density=0.5, random_state=2, format="csr")

        def build(ts):
            (a,) = ts
            h1 = spmm(s, a)
            # `mean` hands one array to each table, twice to h1 and a
            out = ad.mean([a, h1, h1, a, spmm(s, h1)])
            return sum_axis(mul(out, self._weights(out.data.shape)), axis=None, keepdims=False)

        self._check(build, [rand(np.random.default_rng(2), 5, 3)], monkeypatch)

    def test_layers_hand_pos_row_broadcasts(self, monkeypatch):
        s = sp.random(5, 5, density=0.5, random_state=4, format="csr")

        def build(ts):
            h, pos = ts
            # each layer hands `pos` a read-only broadcast of one row, and
            # the injection then a full gradient
            x = ad.mix(h, pos, 1.0, 0.5)
            for _ in range(2):
                x = propagate_layer(x, s, pos=pos, lambda2=0.7, lambda3=0.5)
            return sum_axis(mul(x, self._weights(x.data.shape)), axis=None, keepdims=False)

        rng = np.random.default_rng(4)
        self._check(build, [rand(rng, 5, 3), rand(rng, 5, 3)], monkeypatch)

    def test_two_row_broadcasts_stay_one_row(self):
        """Two read-only broadcasts of a row sum as one row, still a
        broadcast, and the first one stored is not written into."""
        rng = np.random.default_rng(5)
        rows = [rand(rng, 1, 3) for _ in range(2)]
        first = rows[0].copy()
        t = Tensor(rand(rng, 4, 3))
        for r in rows:
            ad._accum(t, np.broadcast_to(r, (4, 3)))
        assert t.grad.strides[0] == 0
        assert rows[0].tobytes() == first.tobytes()
        assert t.grad.tobytes() == np.broadcast_to(first + rows[1], (4, 3)).tobytes()

    def test_transposed_view(self, monkeypatch):
        def build(ts):
            a, b = ts
            at = transpose(a)  # hands `a` a transposed view of its gradient
            out = ad.mix(add(at, b), transpose(at), 0.25, 0.75)
            out = add(out, matmul(at, a))
            return sum_axis(mul(out, self._weights(out.data.shape)), axis=None, keepdims=False)

        rng = np.random.default_rng(3)
        self._check(build, [rand(rng, 3, 3), rand(rng, 3, 3)], monkeypatch)


class TestMixAndMean:
    """`mix` and `mean` against finite differences, and bit for bit against
    the taped `add`/`mul` compositions they replace."""

    @staticmethod
    def taped_mix(a, b, wa, wb):
        return add(mul(a, wa), mul(b, wb))

    @staticmethod
    def taped_mean(tables):
        acc = tables[0]
        for t in tables[1:]:
            acc = add(acc, t)
        return mul(acc, 1.0 / len(tables))

    def _weighted(self, op):
        def build(tensors):
            out = op(tensors)
            w = np.random.default_rng(99).standard_normal(out.data.shape)
            return sum_axis(mul(out, w), axis=None, keepdims=False)  # w in out's dtype

        return build

    @pytest.mark.parametrize("wa, wb", [(0.5, 0.5), (0.7, 0.3), (0.0, 1.0)])
    def test_mix_finite_differences(self, wa, wb):
        rng = np.random.default_rng(4)
        finite_difference_check(self._weighted(lambda ts: ad.mix(*ts, wa, wb)),
                                [rand(rng, 3, 4), rand(rng, 3, 4)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mean_finite_differences(self, n):
        rng = np.random.default_rng(5)
        finite_difference_check(self._weighted(ad.mean), [rand(rng, 3, 2) for _ in range(n)])

    def _same_bits(self, fused, taped, arrays):
        results = []
        for op in (fused, taped):
            tensors = [Tensor(a) for a in arrays]
            out = op(tensors)
            # a second consumer of each input, so the op's gradient is summed
            loss = self._weighted(op)(tensors)
            for t in tensors:
                loss = add(loss, sum_axis(mul(t, t), axis=None, keepdims=False))
            ad.backward(loss)
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in tensors])
        assert results[0] == results[1]

    def test_mix_matches_taped_composition(self):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=(6, 5)) * 1e3, rng.normal(size=(6, 5)) * 1e-3]
        self._same_bits(lambda ts: ad.mix(*ts, 1.0 - 0.3, 0.3),
                        lambda ts: self.taped_mix(*ts, 1.0 - 0.3, 0.3), arrays)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mix_with_unit_weight_matches_taped_sum(self, dtype):
        """`mix(h, pos, 1.0, λ)`, the forward's position injection, is the
        taped h + pos·λ it replaces, bit for bit: h·1.0 is exact."""
        rng = np.random.default_rng(7)
        arrays = [(rng.normal(size=(6, 5)) * 1e3).astype(dtype),
                  (rng.normal(size=(6, 5)) * 1e-3).astype(dtype)]
        self._same_bits(lambda ts: ad.mix(*ts, 1.0, 0.37),
                        lambda ts: add(ts[0], mul(ts[1], 0.37)), arrays)

    @pytest.mark.parametrize("wa", [1.0, 0.5])
    def test_unit_weight_hands_on_the_upstream_gradient(self, wa):
        """With wa = 1.0, `a` gets the array its consumer handed `mix`, not
        a copy; another weight allocates g * wa."""
        rng = np.random.default_rng(8)
        a, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        out = ad.mix(a, b, wa, 0.37)
        upstream = rng.normal(size=(4, 3))
        root = ad._make(np.array(0.0), "consumer", (out,), lambda g: ad._accum(out, upstream))
        ad.backward(root)
        assert np.shares_memory(a.grad, upstream) == (wa == 1.0)
        assert a.grad.tobytes() == (upstream * wa).tobytes()
        assert b.grad.tobytes() == (upstream * 0.37).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_mean_matches_taped_composition(self, n):
        rng = np.random.default_rng(n)
        arrays = [rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-5, 6) for _ in range(n)]
        self._same_bits(ad.mean, self.taped_mean, arrays)


class TestCheckFinite:
    def test_names_the_first_op_with_finite_inputs(self):
        """exp overflows, and the log, the sum and the product after it are
        not finite either: the op named is exp, whose input was finite."""
        x = Tensor(np.array([[1.0, 800.0]]))
        out = sum_axis(mul(log(exp(x)), constant(np.array([[2.0, 0.5]]))), axis=None)
        assert not np.isfinite(out.data).all()
        with pytest.raises(NumericsError, match="^non-finite intermediate produced by 'exp'$"):
            ad.check_finite(out)

    def test_nonfinite_parameter_is_named_by_the_first_op_reading_it(self):
        w = Tensor(np.array([[1.0, np.nan]]))
        x = Tensor(np.ones((1, 2)))
        out = sum_axis(mul(leaky_relu(add(x, w)), 3.0), axis=None)
        with pytest.raises(NumericsError, match="^non-finite intermediate produced by 'add'$"):
            ad.check_finite(out)

    def test_finite_output_does_not_walk_the_tape(self, monkeypatch):
        def no_walk(root):
            raise AssertionError("check_finite walked a finite tape")

        monkeypatch.setattr(ad, "_topo_order", no_walk)
        x = Tensor(np.ones((3, 2)))
        ad.check_finite(sum_axis(exp(x), axis=None))

    def test_nonfinite_constant_node_is_named_by_its_op(self):
        """A non-finite root whose only input is a finite constant leaf is
        named by its own op."""
        out = exp(constant(np.array([[800.0]])))
        with pytest.raises(NumericsError, match="^non-finite intermediate produced by 'exp'$"):
            ad.check_finite(out)
