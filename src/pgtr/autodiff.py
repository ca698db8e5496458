"""Reverse-mode gradient engine over numpy arrays.

Holds only the operations the model runs: a weighted sum of two tensors
(`mix`, the position injection) and the mean of several (`mean`, the
readout).  Other modules add fused ops through `_make`, each with a
hand-written backward: the position vectors of
`encodings.position_tape`, a whole layer (propagation, global term and
mix) in `backbone.propagate_layer` and the sampled-softmax loss of
`train.batch_loss`, which L2-normalizes the rows it reads.  Every node a
forward records is one of these.

Ops do not scan their outputs for NaN/Inf.  The model checks its outputs
(`forward`'s node table, `batch_loss`'s loss) with `check_finite`, which
on a non-finite output walks the tape that output holds and names the
first op that produced a non-finite value.

`backward` releases what it has consumed: once an interior node's backward
has run, its `.grad` and closure are dropped, so a step's tape shrinks as
backward runs.  Leaves keep `.grad` for the optimizer.  A node stores the
first gradient it receives as given and never writes into it: each later
one allocates a new sum, and two read-only broadcasts of one row sum as
one row.

Every op records a backward closure that accumulates into all of its
inputs: every leaf of a tape the model builds is a parameter, and what
gets trained is what `ModelState.named_parameters()` lists.  Every node
keeps its parents, which `check_finite` walks.

A tensor holds float32 or float64 data (anything else becomes float64),
and each op computes in the dtype of its inputs: the model's float32
parameters give float32 tables, gradients and losses, and a state cast to
float64 computes in float64 throughout.  Scalars enter only as the fused
nodes' Python-float weights (`mix`'s, a layer's λs, the loss's 1/tau),
which take the tensors' dtype; `PGTRConfig` stores its floats as Python
floats.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "NumericsError",
    "Tensor",
    "mix",
    "mean",
    "backward",
    "zero_grad",
    "check_finite",
]


class NumericsError(RuntimeError):
    """Raised when an operation produces a non-finite intermediate."""


def _as_array(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


class Tensor:
    """Array node in the computation graph: a leaf, such as a parameter, or
    an interior node whose backward closure accumulates into its parents'
    `.grad`.  Clear `.grad` to None (`zero_grad`) before a new
    accumulation.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_op")

    def __init__(self, data):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = "leaf"

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor({self._op}, shape={self.data.shape})"


def _make(data, op: str, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    out._op = op
    out._parents = parents
    out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add `g` to `t.grad`.  The first gradient is stored as given and never
    written into: `mean` hands one array to several parents, and a
    backward may hand over a view of its own buffer.  Two read-only
    broadcasts of one row, such as each `propagate_layer`'s gradient of
    `pos`, sum as one row and stay a broadcast; any other later gradient
    allocates the sum."""
    if t.grad is None:
        t.grad = g
    elif g.ndim and t.grad.strides[0] == g.strides[0] == 0:
        t.grad = np.broadcast_to(t.grad[:1] + g[:1], g.shape)
    else:
        t.grad = t.grad + g


def mix(a: Tensor, b: Tensor, wa: float, wb: float) -> Tensor:
    """a * wa + b * wb for same-shape tensors and Python-float weights, as
    one node: the position injection h + λ1·pos with wa = 1.0 (exact).  Bit
    for bit the tests' taped `add(mul(a, wa), mul(b, wb))`: the output is
    b * wb, with a * wa added into it (addition commutes), and a itself
    when wa = 1.0, since a * 1.0 would only copy it.  Likewise `a` gets
    the upstream gradient itself."""
    def bw(g):
        _accum(a, g if wa == 1.0 else g * wa)
        _accum(b, g * wb)

    out = b.data * wb
    out += a.data if wa == 1.0 else a.data * wa
    return _make(out, "mix", (a, b), bw)


def mean(tables: list[Tensor]) -> Tensor:
    """((t0 + t1) + ...) * (1/n) over n same-shape tensors, as one node:
    the arithmetic of the taped sum-then-scale, bit for bit."""
    scale = 1.0 / len(tables)
    total = tables[0].data.copy()
    for t in tables[1:]:
        total += t.data
    total *= scale

    def bw(g):
        share = g * scale
        for t in tables:
            _accum(t, share)

    return _make(total, "mean", tuple(tables), bw)


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
            if id(p) not in seen:
                stack.append((p, False))
    return order


def check_finite(root: Tensor):
    """Raise NumericsError when `root.data` holds a NaN or Inf, naming the
    first op in the tape's post-order whose output is not finite.  A node
    comes after its inputs in that order, so the op named computed a
    non-finite value from finite interior inputs; a non-finite parameter is
    named by the first op that reads it.  A finite root costs one scan."""
    if np.isfinite(root.data).all():
        return
    bad = next((node for node in _topo_order(root)
                if node._parents and not np.isfinite(node.data).all()), root)
    raise NumericsError(f"non-finite intermediate produced by '{bad._op}'")


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf,
    whatever made it: every node differentiates all of its parents.

    Each interior node's `.grad` and backward closure are released once the
    closure has run, so the arrays they hold are freed as backward goes and
    a second `backward` over the same tape adds nothing.  Nodes keep their
    `.data` and parents."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topo_order(loss)):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None


def zero_grad(params: list[Tensor]):
    for p in params:
        p.grad = None
