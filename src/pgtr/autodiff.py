"""Reverse-mode gradient engine over float64 numpy arrays.

Implements only the operations the recommender needs: dense and sparse
matrix products, broadcast elementwise arithmetic, exp/log, row
gather/slice/concat, L2 row normalization and reductions.  Modules add
fused ops through `_make` with a hand-written backward:
`attention.kernelized_attention` and the sampled-softmax loss of
`train.batch_loss`.  Every operation validates its output for finiteness
and aborts with the operation name on NaN/Inf.

An op records a backward closure only when some input needs a gradient
(a trainable leaf or a node computed from one), and the closure computes
the gradient of just those inputs: constants such as a scalar `1/tau` or a
0/1 mask are never differentiated.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NumericsError",
    "Tensor",
    "parameter",
    "constant",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "exp",
    "log",
    "leaky_relu",
    "sum_axis",
    "gather_rows",
    "slice_rows",
    "concat_rows",
    "spmm",
    "l2_normalize_rows",
    "backward",
    "zero_grad",
]


class NumericsError(RuntimeError):
    """Raised when an operation produces a non-finite intermediate."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_finite(data: np.ndarray, op: str):
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite intermediate produced by '{op}'")


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """Array node in the computation graph.

    `trainable` marks optimizer-owned leaves; interior nodes carry a
    backward closure that accumulates into their parents' `.grad`.
    """

    __slots__ = ("data", "grad", "trainable", "name", "_parents", "_backward", "_op", "_needs")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.trainable = bool(trainable)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = "leaf"
        self._needs = self.trainable

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.data.shape}, trainable={self.trainable})"

    # arithmetic sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    @property
    def T(self):
        return transpose(self)


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(data, trainable=True, name=name)


def constant(data, name: str | None = None) -> Tensor:
    return Tensor(data, trainable=False, name=name)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, op: str, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    out._op = op
    _check_finite(out.data, op)
    if any(p._needs for p in parents):
        out._parents = parents
        out._backward = backward_fn
        out._needs = True
    return out


def _accum(t: Tensor, g: np.ndarray):
    t.grad = g if t.grad is None else t.grad + g


def _binary(op: str, data, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Record a two-operand op.  `grad_a(g)` / `grad_b(g)` map the output
    gradient to an operand's and run only for an operand that needs one."""
    def bw(g):
        if a._needs:
            _accum(a, _unbroadcast(grad_a(g), a.data.shape))
        if b._needs:
            _accum(b, _unbroadcast(grad_b(g), b.data.shape))

    return _make(data, op, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a.data * b.data, a, b,
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary("div", a.data / b.data, a, b,
                   lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, -g)

    return _make(-a.data, "neg", (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("matmul", a.data @ b.data, a, b,
                   lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def transpose(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g.T)

    return _make(a.data.T, "transpose", (a,), bw)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)

    def bw(g):
        _accum(a, g * data)

    return _make(data, "exp", (a,), bw)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def bw(g):
        _accum(a, g / a.data)

    return _make(data, "log", (a,), bw)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    pos = a.data > 0

    def bw(g):
        _accum(a, g * np.where(pos, 1.0, slope))

    return _make(np.where(pos, a.data, slope * a.data), "leaky_relu", (a,), bw)


def sum_axis(a: Tensor, axis: int | None = None, keepdims: bool = True) -> Tensor:
    def bw(g):
        _accum(a, np.broadcast_to(np.reshape(g, g_shape), a.data.shape).copy())

    data = a.data.sum(axis=axis, keepdims=keepdims)
    if axis is None:
        g_shape = (1,) * a.data.ndim
    else:
        g_shape = list(a.data.shape)
        g_shape[axis] = 1
        g_shape = tuple(g_shape)
    return _make(data, "sum", (a,), bw)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        _accum(a, _scatter_rows(g, idx, a.data.shape))

    return _make(a.data[idx], "gather_rows", (a,), bw)


def _scatter_rows(rows: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Zeros of `shape` with row j of `rows` added at row idx[j]: the
    backward of a row gather.  A scatter-add through bincount on flat
    positions: like np.add.at it adds repeated rows in index order (bit for
    bit), at a fraction of add.at's per-element cost."""
    width = int(np.prod(shape[1:]))
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=shape[0] * width).reshape(shape)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def bw(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        _accum(a, ga)

    return _make(a.data[start:stop].copy(), "slice_rows", (a,), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p._needs:
                _accum(p, g[lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=0), "concat_rows", tuple(parts), bw)


def spmm(s: sp.spmatrix, a: Tensor) -> Tensor:
    """Constant sparse matrix times tensor; gradient flows through `a` only."""
    st = s.T

    def bw(g):
        _accum(a, np.asarray(st @ g))

    return _make(np.asarray(s @ a.data), "spmm", (a,), bw)


def l2_normalize_rows(a: Tensor) -> Tensor:
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    bad = np.nonzero(norms.ravel() == 0.0)[0]
    if bad.size:
        raise NumericsError(f"l2_normalize_rows: zero-norm row(s) {bad[:5].tolist()}")
    data = a.data / norms

    def bw(g):
        inner = (g * data).sum(axis=1, keepdims=True)
        _accum(a, (g - data * inner) / norms)

    return _make(data, "l2_normalize_rows", (a,), bw)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._needs and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss._needs:
        return
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topo_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(params: list[Tensor]):
    for p in params:
        p.grad = None
