"""Sampled-softmax training with in-batch negatives and top-K evaluation."""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import NumericsError, Tensor
from .data import InteractionDataset, check_field_types, check_integer_ids
from .model import ModelState, forward
from .optim import AdamState, adam_step

__all__ = [
    "NoNegativesError",
    "TrainConfig",
    "RankingMetrics",
    "train",
    "evaluate",
    "ranking_metrics",
]

log = logging.getLogger(__name__)

# ranking_metrics ranks about this many table entries at a time, so its
# temporaries, in the table's dtype, stay O(block) instead of O(users x items)
_RANK_BLOCK_ENTRIES = 1 << 18

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 2048
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        check_field_types(TrainConfig, vars(self))
        for name, low in (("batch_size", 2), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and >= 0")


class NoNegativesError(ValueError):
    """No pair of a batch has an in-batch negative, so it has no loss."""


@dataclass
class RankingMetrics:
    recall_at_k: float
    ndcg_at_k: float
    k: int
    per_user_recall: np.ndarray
    per_user_ndcg: np.ndarray
    user_indices: np.ndarray


def _row_entries(matrix: sp.csr_matrix, rows):
    """(position in `rows`, column) of every stored entry of the CSR
    `matrix`'s rows `rows`, row after row in stored order.  `rows` is an
    index array, or a slice of consecutive rows, whose entries are one run
    of the CSR arrays."""
    if isinstance(rows, slice):
        counts = np.diff(matrix.indptr[rows.start:rows.stop + 1])
        cols = matrix.indices[matrix.indptr[rows.start]:matrix.indptr[rows.stop]]
        return np.repeat(np.arange(counts.size), counts), cols
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    at = np.repeat(np.arange(rows.size), counts)
    # each gathered row's stored entries, consecutive from its start
    entry = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(at.size)
    return at, matrix.indices[entry]


def _marks(ids: np.ndarray, size: int):
    """The distinct values of `ids`, integers in [0, size), in increasing
    order, and a (size,) intp lookup of each one's position among them, -1
    at every other value: a bool mark per value and its running count."""
    marked = np.zeros(size, dtype=bool)
    marked[ids] = True
    pos = np.cumsum(marked, dtype=np.intp)
    pos *= marked
    pos -= 1
    return np.flatnonzero(marked), pos


def _batch_mask(users: np.ndarray, items: np.ndarray, user_items: sp.csr_matrix,
                mask: np.ndarray | None = None):
    """The (distinct users × distinct items) in-batch score table of a
    batch, as the coordinates of the entries it drops.

    `user_items` is the canonical boolean (users, items) CSR of training
    items.  Returns `batch_users` (the batch's distinct users, sorted),
    `urow` (pair a's user is `batch_users[urow[a]]`), `uniq` and `inv`
    (the same for items), `drop`, `kept` and `untrained`.  A user's row
    drops every distinct batch item the user trained on, positives
    included: `drop` holds the flat, row-major indices
    row * uniq.size + column of those entries, strictly increasing.  Pair
    a's row is its user's row with its own positive, column `inv[a]`, put
    back, and `kept` counts that row's entries.  `untrained` is true where
    a pair's item is not among its user's training items, so its entry is
    not in `drop`.  Only the batch users' CSR rows are read, each stored
    item mapped to its column through a lookup of the distinct items.

    No sort is made: the batch's users and items are marked in bool arrays
    the size of the catalog, `user_items.shape`, whose true entries, in
    order, are `batch_users` and `uniq`.  A running count of the marks
    minus one is each marked id's position among them, so it gives `urow`
    and `inv`, and, with -1 at the unmarked items, the item lookup: O(b +
    n_users + n_items) work in all.  The dropped entries are marked in a
    flat bool table of m * n entries: a new one, or the cleared prefix of
    `mask`, a buffer of at least that many entries that `train` holds for
    its whole call."""
    batch_users, user_pos = _marks(users, user_items.shape[0])
    uniq, col_of = _marks(items, user_items.shape[1])
    urow, inv = user_pos[users], col_of[items]
    m, n = batch_users.size, uniq.size
    row, col = _row_entries(user_items, batch_users)
    col = col_of[col]  # -1 for an item outside the batch
    at = col >= 0
    row = row[at]
    drop = row * n + col[at]
    if mask is None:
        dropped = np.zeros(m * n, dtype=bool)
    else:
        dropped = mask[:m * n]
        dropped.fill(False)
    dropped[drop] = True
    untrained = ~dropped[urow * n + inv]
    kept = (n - np.bincount(row, minlength=m))[urow] + ~untrained
    return batch_users, urow, uniq, inv, drop, kept, untrained


def batch_loss(state: ModelState, users: np.ndarray, items: np.ndarray,
               user_items, *, _tables=None) -> tuple[Tensor, int]:
    """Tape-recorded sampled-softmax loss for one batch of (user, item) pairs.

    `user_items` marks each user's training items: a scipy sparse matrix
    of shape (n_users, n_items), such as
    `InteractionDataset.user_item_matrix()`, or a sequence of n_users
    per-user item-id sequences, converted on every call.  Each pair is
    scored against the batch's distinct items, and the pairs of one user
    share every score but their positive's: the
    scores form one (distinct users × distinct items) table whose user
    row keeps the items the user never trained on, and a pair's row adds
    its own positive.  `_batch_mask` lists the dropped entries' flat
    indices, which is all the loss reads; it also marks them in one flat
    (distinct users × distinct items) bool table, to find the pairs whose
    item the user never trained on.  A pair keeps a negative when its row
    keeps at least two entries.  The loss on the forward's node table,
    cosines included, is one tape node, `in_batch_softmax`, with a
    hand-written backward.  Pairs may repeat.  Returns the scalar loss
    tensor and the number of pairs skipped for lack of negatives.  Raises
    NumericsError naming the op when the node table or the loss is not
    finite (`ad.check_finite`) or naming a batch row of zero norm (other
    rows are not read);
    NoNegativesError, a ValueError, when no pair keeps a negative; and
    ValueError when `users` and `items` differ in length, when
    `user_items` has the wrong shape or an item id that is not an integer
    or lies outside [0, n_items), when a pair's id is not
    an integer (a DataError naming the side) or is out of range, or when
    a pair's item is not among its user's training items.

    `_tables` is private to `train`: its pair of flat buffers, the score
    table's and the mask's, that the step's tables are written into (see
    `train`).  Left out, as every other caller leaves it, each call
    allocates its own.
    """
    table, mask = (None, None) if _tables is None else _tables
    user_items = _user_items(user_items, "user_items", (state.n_users, state.n_items),
                             "the model's user-item table")
    if np.shape(users) != np.shape(items):
        raise ValueError(f"users holds {np.size(users)} pair ids but items holds "
                         f"{np.size(items)}; a pair takes one of each")
    for name, ids, n in (("user", users, state.n_users), ("item", items, state.n_items)):
        ids = check_integer_ids(ids, f"pair {name}s")
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            a = int(np.argmax(bad))
            raise ValueError(f"pair {a}: {name} id {int(ids[a])} outside [0, {n})")
    # cast once in range: an id outside int64 would wrap
    users, items = (np.asarray(ids).astype(np.int64, copy=False) for ids in (users, items))
    batch_users, urow, uniq, inv, drop, kept, untrained = _batch_mask(users, items,
                                                                      user_items, mask)
    if untrained.any():
        a = int(np.argmax(untrained))
        raise ValueError(f"pair {a} (user {int(users[a])}, item {int(items[a])}): "
                         "the item is not among the user's training items")
    keep = kept >= 2
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise NoNegativesError("every pair in the batch lacks negatives")
    loss = _in_batch_softmax(forward(state), batch_users, state.n_users + uniq, urow[keep],
                             inv[keep], drop, 1.0 / state.config.tau, table)
    ad.check_finite(loss)
    return loss, users.size - n_keep


def _unit_rows(h: np.ndarray, ids: np.ndarray | None = None):
    """The rows `ids` of the node table `h` (all when None) over their L2
    norms, and the (n, 1) norms.  Zero-norm rows raise NumericsError naming
    up to 5 of their node ids."""
    rows = h if ids is None else h[ids]
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        bad = bad if ids is None else ids[bad]
        raise NumericsError(f"zero-norm node row(s) {bad[:5].tolist()}")
    return rows / norms, norms


# `_in_batch_softmax` shifts a user row whose exponentials, shifted by 1/tau,
# sum below this by its own maximum instead.  The floor bounds the backward's
# row scale, a sum of w / total, by 2^64 w per pair: a total near the float32
# minimum would put it near float32's overflow.
_MIN_ROW_TOTAL = 2.0 ** -64


def _in_batch_softmax(h: Tensor, user_rows: np.ndarray, item_rows: np.ndarray,
                      urow: np.ndarray, inv: np.ndarray, drop: np.ndarray,
                      inv_tau: float, table: np.ndarray | None = None) -> Tensor:
    """The mean over pairs of log-sum-exp over a pair's kept scores minus
    its positive score, as one tape node whose parent is the node table `h`.

    The rows read are L2-normalized (`_unit_rows`): U = unit(h[user_rows])
    * inv_tau (scaling the (m, d) rows is cheaper than the (m, u) scores)
    and I = unit(h[item_rows]) give the cosine table S = U I^T of the
    batch's distinct users and items.  Pair a has user row urow[a] and
    positive column inv[a]; `drop` lists the flat indices of the entries
    the user rows drop, positives included (`_batch_mask`), and every pair
    given keeps a negative.  Cosines are at most 1, so no score exceeds
    1/tau, a constant log-sum-exp shift: S becomes E = exp(S - 1/tau)
    in place, with 1/tau in the table's dtype, the dropped entries are set
    to 0, and a product with a ones vector gives each user's base.  Pair a
    adds its positive score pos_a = S[urow[a], inv[a]], read from the table
    after the product and before the shift, so it is the very entry its
    row drops and adds back: its total is base[urow[a]] + exp(pos_a - 1/tau)
    and its log-sum-exp 1/tau + log(total).
    A user row whose base falls below _MIN_ROW_TOTAL (2^-64; only possible
    for tau < ~0.045) is recomputed with its own maximum s as the shift; each
    of its pairs takes the shift max(s, pos_a), which scales the base by
    exp(s - max(s, pos_a)), so every total is at least 1.  With w the loss
    gradient of a log-sum-exp and r_a = w / total_a, the gradient G of S is
    E with each row scaled by R, the sum of r_a scale_a over the row's
    pairs, plus c_a = r_a exp(pos_a - shift_a) - w at each pair's positive
    (0 in E; repeated pairs add up there through a scatter-add).  The
    backward writes G over E; the unit rows get D = (G I) / tau and G^T U,
    both written into one (m + n, d) array, and a row of norm r read from
    h gets (D - unit (D . unit)) / r, the normalization's Jacobian, formed
    in that array and copied into h's gradient (the rows are distinct, and
    every other row gets 0).  The op holds one (m, u) table, in h's dtype:
    a new array, or, when `table` is a flat buffer of h's dtype
    (`train`'s), a view of its first m * u entries, which the next step
    that writes the buffer overwrites.  Such a loss's backward
    must run before that step, as `train` runs it.
    """
    rows = np.concatenate([user_rows, item_rows])
    unit, norms = _unit_rows(h.data, rows)
    u = unit[:user_rows.size] * inv_tau
    items = unit[user_rows.size:]
    m, n = user_rows.size, item_rows.size
    if table is None or table.dtype != u.dtype:
        e = u @ items.T
    else:
        e = np.matmul(u, items.T, out=table[:m * n].reshape(m, n))
    ones = np.ones(n, dtype=e.dtype)
    # in the table's dtype: a float64 shift would promote a float32 loss
    row_shift = np.full(m, inv_tau, dtype=e.dtype)
    positives = urow * n + inv
    pos = e.reshape(-1)[positives]
    e -= row_shift[0]
    np.exp(e, out=e)
    e.reshape(-1)[drop] = 0
    base = e @ ones
    low = np.flatnonzero(base < _MIN_ROW_TOTAL)
    if low.size:
        low = low[np.isin(low, urow)]  # a row with no pair may keep no entry
    if low.size:
        mask = np.ones(e.size, dtype=bool)
        mask[drop] = False
        s = np.where(mask.reshape(m, n)[low], u[low] @ items.T, -np.inf)
        row_shift[low] = s.max(axis=1)
        e[low] = np.exp(s - row_shift[low, None])
        base[low] = e[low] @ ones
    pair_row_shift = row_shift[urow]
    shift = np.maximum(pair_row_shift, pos)
    scale = np.exp(pair_row_shift - shift)
    pos_exp = np.exp(pos - shift)
    total = base[urow] * scale + pos_exp
    loss = (shift + np.log(total) - pos).sum() * (1.0 / urow.size)

    def bw(g):
        w = g * (1.0 / urow.size)
        r = w / total
        # E becomes G
        big_r = np.bincount(urow, weights=r * scale, minlength=m).astype(e.dtype)
        np.multiply(e, big_r[:, None], out=e)
        np.add.at(e.reshape(-1), positives, r * pos_exp - w)
        d = np.empty_like(unit)
        np.matmul(e, items, out=d[:m])
        d[:m] *= inv_tau
        np.matmul(e.T, u, out=d[m:])
        d -= unit * (d * unit).sum(axis=1, keepdims=True)
        d /= norms
        grad = np.zeros_like(h.data)
        grad[rows] = d
        ad._accum(h, grad)

    return ad._make(loss, "in_batch_softmax", (h,), bw)


def train(state: ModelState, fit: InteractionDataset, val: InteractionDataset,
          cfg: TrainConfig):
    """Mini-batch epochs with early stopping on validation Recall@20, the
    paper's metric and `evaluate`'s default k.

    Returns the state holding the best-validation parameters plus a
    history record per epoch: `epoch`, `train_loss`, `val_recall` and
    `val_ndcg` (both at k = 20), `skipped_pairs` (pairs the epoch's batches
    dropped for lack of negatives), `seconds` and `eval_seconds` (the
    validation `evaluate` time within `seconds`).  Before the first step, a
    ValueError names `fit` or `val` and both shapes when its (n_users,
    n_items) differs from the state's.  A batch in which no pair keeps a
    negative takes no step, and all its pairs count as skipped.  An epoch
    that takes no step records a NaN `train_loss` and stops training with a
    warning.  A NumericsError in a step or in validation (a non-finite node table,
    loss or parameter gradient, or a zero-norm row that either reads)
    stops training with a warning and restores the best parameters.

    The call holds two flat buffers, allocated before the first step and
    released when it returns: the in-batch score table's, in the
    embeddings' dtype, and the mask's, bool.  Each holds min(batch_size,
    n_users) x min(batch_size, n_items) entries, the largest table a batch
    makes, and every step writes its tables into their prefixes, so a
    step reuses the pages of the one before instead of faulting in fresh
    ones.  The next step's `batch_loss` overwrites a step's table, so each
    step's backward runs before it.
    """
    shape = (state.n_users, state.n_items)
    for name, ds in (("fit", fit), ("val", val)):
        if (ds.n_users, ds.n_items) != shape:
            raise ValueError(f"train's {name} has (n_users, n_items) = "
                             f"{(ds.n_users, ds.n_items)} but the model has {shape}")
    rng = np.random.default_rng(cfg.seed)
    named = state.named_parameters()
    params = [t for _, t in named]
    opt = AdamState(params, lr=cfg.lr)
    train_items = fit.user_item_matrix()
    size = min(cfg.batch_size, state.n_users) * min(cfg.batch_size, state.n_items)
    tables = (np.empty(size, dtype=state.embeddings.data.dtype), np.empty(size, dtype=bool))

    best_recall = -np.inf
    best_params = [p.data.copy() for p in params]
    best_epoch = 0
    history = []
    epochs_since_best = 0
    diverged = False

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(len(fit))
        epoch_loss, n_batches, skipped_pairs = 0.0, 0, 0
        try:
            for lo in range(0, len(fit), cfg.batch_size):
                sel = perm[lo:lo + cfg.batch_size]
                ad.zero_grad(params)
                # rebinding `loss` frees the previous step's tape once this
                # step's forward is built, so the backward reuses its memory.
                # Freeing it after this backward, or each tape at the end of
                # its own backward, cost ~77k and ~400k minor page faults per
                # fit-b256 `train()` (ROADMAP, Recent).
                try:
                    loss, skipped = batch_loss(state, fit.users[sel], fit.items[sel], train_items,
                                               _tables=tables)
                except NoNegativesError:
                    skipped_pairs += sel.size
                    continue
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    ad.backward(loss)
                for name, t in named:
                    if t.grad is not None and not np.isfinite(t.grad).all():
                        raise NumericsError(f"non-finite gradient of {name!r}")
                adam_step(opt)
                epoch_loss += loss.item()
                n_batches += 1
                skipped_pairs += skipped
            t_eval = time.perf_counter()
            metrics = evaluate(state, fit, val) if len(val) else None
            eval_seconds = time.perf_counter() - t_eval
        except NumericsError as err:
            # diverged parameters: stop and fall back to the best ones
            log.warning("training aborted at epoch %d: %s", epoch, err)
            diverged = True
            break
        mean_loss = epoch_loss / n_batches if n_batches else float("nan")

        if metrics is not None:
            val_recall, val_ndcg = metrics.recall_at_k, metrics.ndcg_at_k
        else:
            val_recall = val_ndcg = float("nan")
        history.append({
            "epoch": epoch,
            "train_loss": mean_loss,
            "val_recall": val_recall,
            "val_ndcg": val_ndcg,
            "skipped_pairs": skipped_pairs,
            "seconds": time.perf_counter() - t0,
            "eval_seconds": eval_seconds,
        })
        if len(val) and val_recall > best_recall:
            best_recall = val_recall
            best_params = [p.data.copy() for p in params]
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if not n_batches:
            log.warning("training stopped at epoch %d: no batch kept a pair with a negative",
                        epoch)
            break
        if len(val) and epochs_since_best >= cfg.patience:
            break

    if len(val) or diverged:
        for p, snap in zip(params, best_params):
            p.data = snap
    log.info("training finished: best epoch %d, best val recall %.4f",
             best_epoch, best_recall)
    return state, history


def _user_items(rows, name: str, shape: tuple[int, int],
                owner: str = "scores") -> sp.csr_matrix:
    """Boolean (users, items) CSR matrix of a sparse matrix or of per-user
    item-id sequences, checked against `owner`'s shape.  A canonical bool
    CSR with no stored False, such as `user_item_matrix()`, is returned as
    it is; any other form's (user, item) pairs, a matrix's stored nonzero
    entries or each row's ids, go to `InteractionDataset.user_item_matrix()`.
    A sequence entry must be an integer id in [0, n_items) (see
    `check_integer_ids`): a ValueError names `name` and the row or the id."""
    if sp.issparse(rows):
        if rows.shape != shape:
            raise ValueError(f"{name} has shape {rows.shape} but {owner} has shape {shape}")
        if (rows.format == "csr" and rows.dtype == bool and rows.has_canonical_format
                and rows.data.all()):
            return rows
        users, items = rows.nonzero()  # the coordinates of stored nonzero entries
    else:
        n_users, n_items = shape
        if len(rows) != n_users:
            raise ValueError(f"{name} has {len(rows)} rows but {owner} has {n_users}")
        parts = [check_integer_ids(r, f"{name} row {u}") for u, r in enumerate(rows)]
        users = np.repeat(np.arange(n_users), [p.size for p in parts])
        items = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        bad = (items < 0) | (items >= n_items)
        if bad.any():
            raise ValueError(f"{name} holds item id {int(items[bad][0])} "
                             f"outside [0, {n_items})")
    return InteractionDataset(*shape, users, items).user_item_matrix()


def _spans(n: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) runs that cover range(n), each of about
    _RANK_BLOCK_ENTRIES // width positions (at least one), so that a run of
    rows `width` entries wide holds about _RANK_BLOCK_ENTRIES entries."""
    step = max(1, _RANK_BLOCK_ENTRIES // width)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _negated(scores: np.ndarray, rows, observed: sp.csr_matrix, dtype) -> np.ndarray:
    """-scores[rows] in `dtype`, a new array (negation is exact), with the
    rows' observed entries at +inf, where a ranking drops them.  `rows` is
    an index array or a slice, which reads the table without a gather."""
    neg = np.negative(scores[rows], dtype=dtype)
    neg[_row_entries(observed, rows)] = np.inf
    return neg


def ranking_metrics(scores: np.ndarray, observed_items, test_items,
                    k: int = 20) -> RankingMetrics:
    """Recall@k / NDCG@k from a dense (N, M) score table.

    `scores` is a 2-D numpy array of real integers or floats.
    `observed_items` and `test_items` are each either a scipy sparse
    matrix of exactly the table's shape, whose stored nonzero entries mark
    a user's items (such as `InteractionDataset.user_item_matrix()`), or a
    sequence of N per-user integer item-id sequences.  Observed (training +
    validation) items are masked out; ties break toward the lower item
    index; NaN and infinite scores are dropped from a top-k list; users
    without test items are excluded.  `k` is a Python or numpy integer of
    at least 1.  The caller's table is never written.

    Ranking takes two phases.  First, each block of rows (temporaries stay
    near _RANK_BLOCK_ENTRIES entries, in the table's floating dtype or else
    float64) is negated into its own buffer with observed entries at +inf;
    the block's test entries, read straight from `test_items`' rows, are
    gathered, and the buffer is partitioned in place at its k-th value,
    whose first k values, the multiset of each row's listed values, fill
    one (N, k) table.  NaN stays in the buffer: the partition puts it last,
    and a NaN k-th value reads as +inf.  Second, one pass ranks every test
    entry against its row of that table.  An entry is a hit when its value
    v is finite and at most the row's k-th value; its rank counts the
    finite listed values below v, plus, when v ties another listed value or
    equals the k-th value, the unobserved entries of the row equal to v at
    lower columns.  Such a tie is listed only while that count stays below
    the listed copies of v.  Only the tied entries' rows are negated again
    from `scores`, a block at a time, to be read in column order.  The
    listed -inf values are counted only when the table holds one.  The
    hits' discounts fill one (N, k) table, summed once per row over all k
    slots; a row that lists fewer than k finite values (its k-th value is
    +inf or NaN, or it lists -inf) is summed again over exactly its list's
    length, as one sum per user would.  A user's hits are counted from the
    kept hit rows, and the ideal DCG of each list length min(targets, k)
    that occurs is summed once into a table indexed by length.
    """
    if not (isinstance(scores, np.ndarray) and scores.ndim == 2
            and scores.dtype.kind in "iuf"):
        got = (f"a {scores.ndim}-D {scores.dtype} array" if isinstance(scores, np.ndarray)
               else type(scores).__name__)
        raise ValueError(f"scores must be a 2-D array of real integers or floats, got {got}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)  # a numpy k would carry its dtype into the block arithmetic
    if k < 1:
        raise ValueError("k must be >= 1")
    n_users, n_items = scores.shape
    observed = _user_items(observed_items, "observed_items", scores.shape)
    tests = _user_items(test_items, "test_items", scores.shape)
    n_targets = np.diff(tests.indptr)
    users = np.flatnonzero(n_targets)
    if not users.size:
        raise ValueError("no user has test items to evaluate")
    discounts = 1.0 / np.log2(np.arange(k) + 2.0)
    kk = min(k, n_items)
    dtype = scores.dtype if np.issubdtype(scores.dtype, np.floating) else np.float64
    rows, cols = np.repeat(np.arange(n_users), n_targets), tests.indices
    v = np.empty(cols.size, dtype=dtype)  # each test entry's negated score
    top = np.empty((n_users, kk), dtype=dtype)
    for lo, hi in _spans(n_users, n_items):
        neg = _negated(scores, slice(lo, hi), observed, dtype)
        a, b = tests.indptr[lo], tests.indptr[hi]
        v[a:b] = neg[rows[a:b] - lo, cols[a:b]]
        neg.partition(kk - 1, axis=1)
        top[lo:hi] = neg[:, :kk]
    kth = top[:, kk - 1]
    hit = np.flatnonzero(np.isfinite(v) & ~(v > kth[rows]))  # true for a NaN k-th value
    r, c, v = rows[hit], cols[hit], v[hit]
    # -inf values sort below every hit but take no rank; `==` leaves NaN out
    neg_inf = top == -np.inf
    any_neg_inf = neg_inf.any()
    rank = (-np.count_nonzero(neg_inf, axis=1)[r] if any_neg_inf
            else np.zeros(r.size, dtype=np.intp))
    copies = np.empty(r.size, dtype=np.intp)  # listed entries equal to v
    for a, b in _spans(r.size, kk):
        listed = top[r[a:b]]
        rank[a:b] += np.count_nonzero(listed < v[a:b, None], axis=1)
        copies[a:b] = np.count_nonzero(listed == v[a:b, None], axis=1)
    tied = np.flatnonzero((copies > 1) | (v == kth[r]))
    keep = np.ones(r.size, dtype=bool)
    for a, b in _spans(tied.size, n_items):
        t = tied[a:b]
        ahead = np.count_nonzero((_negated(scores, r[t], observed, dtype) == v[t, None])
                                 & (np.arange(n_items) < c[t, None]), axis=1)
        rank[t] += ahead
        keep[t] = ahead < copies[t]
    r, rank = r[keep], rank[keep]
    gains = np.zeros((n_users, kk))
    gains[r, rank] = discounts[rank]
    dcg = gains.sum(axis=1)
    # a row lists fewer than kk finite values when its k-th value is not
    # finite or it lists -inf: sum it over exactly its list's length, as one
    # sum per user would
    short = ~np.isfinite(kth)
    if any_neg_inf:
        short |= neg_inf.any(axis=1)
    if short.any():
        n_top = np.count_nonzero(np.isfinite(top[short]), axis=1)
        short = np.flatnonzero(short)
        for n in np.unique(n_top):
            same = short[n_top == n]
            dcg[same] = gains[same, :n].sum(axis=1)
    recalls = np.bincount(r, minlength=n_users)[users] / n_targets[users]
    # the ideal DCG of each list length that occurs, read from one table
    ideal_len = np.minimum(n_targets[users], k)
    ideal = np.zeros(kk + 1)
    for m in np.flatnonzero(np.bincount(ideal_len, minlength=kk + 1)):
        ideal[m] = discounts[:m].sum()
    ndcgs = dcg[users] / ideal[ideal_len]
    return RankingMetrics(float(recalls.mean()), float(ndcgs.mean()), k,
                          recalls, ndcgs, users.astype(np.int64))


def evaluate(state: ModelState, observed: InteractionDataset, test: InteractionDataset,
             k: int = 20) -> RankingMetrics:
    """Score every item for every test user with the current model.

    Ranks the full score table through one `ranking_metrics` call, with
    `observed`'s items masked out, in two phases: each block of users is
    negated into its own buffer and partitioned in place at its k-th value,
    filling one (users, k) table of listed values, then one pass ranks
    every test item against its user's row of that table, rereading only
    tied rows in column order; no per-row sort and no membership table is
    built.
    `observed` and `test` are datasets, each ranked through its cached
    `user_item_matrix()`; a matrix raises TypeError (`ranking_metrics`
    takes matrices).  Only the forward's node table is read: its tape is
    dropped without a backward, so no parameter's `.grad` changes, and its
    rows are normalized in plain numpy for the cosine scores.  Raises
    NumericsError when a node's representation is not finite (`forward`
    names the op) or has zero norm (`_unit_rows` names the node), so
    `train` takes its divergence path on it.
    """
    for name, items in (("observed", observed), ("test", test)):
        if not isinstance(items, InteractionDataset):
            raise TypeError(f"evaluate's {name} must be an InteractionDataset, got "
                            f"{type(items).__name__}; rank matrices with ranking_metrics")
    h_norm, _ = _unit_rows(forward(state).data)
    scores = h_norm[:state.n_users] @ h_norm[state.n_users:].T
    return ranking_metrics(scores, observed.user_item_matrix(), test.user_item_matrix(), k)
