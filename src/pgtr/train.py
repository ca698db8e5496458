"""Sampled-softmax training with in-batch negatives and top-K evaluation."""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .attention import AttentionError
from .autodiff import NumericsError, Tensor
from .data import InteractionDataset
from .model import ModelState, forward
from .optim import AdamState, adam_step

__all__ = [
    "TrainConfig",
    "RankingMetrics",
    "train",
    "evaluate",
    "ranking_metrics",
]

log = logging.getLogger(__name__)

# ranking_metrics scores about this many table entries at a time, so its
# temporaries stay O(block) instead of O(users x items)
_RANK_BLOCK_ENTRIES = 1 << 18

@dataclass
class TrainConfig:
    batch_size: int = 2048
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    k: int = 20
    seed: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 2), ("max_epochs", 1), ("patience", 1), ("k", 1)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and >= 0")


@dataclass
class RankingMetrics:
    recall_at_k: float
    ndcg_at_k: float
    k: int
    per_user_recall: np.ndarray
    per_user_ndcg: np.ndarray
    user_indices: np.ndarray


def _batch_mask(users: np.ndarray, items: np.ndarray, user_items: sp.csr_matrix):
    """Candidate mask of the (b × distinct items) in-batch score table.

    `user_items` is the boolean (users, items) CSR of training items.
    Returns `uniq` (the batch's distinct items, sorted), `inv` (pair a's
    item is `uniq[inv[a]]`), the (b, uniq.size) boolean mask and
    `untrained`, true where a pair's item is not among its user's
    training items.  Row a keeps its own positive (column `inv[a]`) plus
    every distinct batch item the user has never interacted with."""
    uniq, inv = np.unique(items, return_inverse=True)
    mask = ~user_items[users][:, uniq].toarray()
    rows = np.arange(users.size)
    untrained = mask[rows, inv]
    mask[rows, inv] = True
    return uniq, inv, mask, untrained


def batch_loss(state: ModelState, users: np.ndarray, items: np.ndarray,
               user_items) -> tuple[Tensor, int]:
    """Tape-recorded sampled-softmax loss for one batch of (user, item) pairs.

    `user_items` marks each user's training items: a scipy sparse matrix
    of shape (n_users, n_items), such as the
    `InteractionDataset.user_item_matrix()` that `train` builds once, or a
    sequence of n_users per-user item-id sequences, converted on every
    call.  Each pair is scored against the batch's distinct items: a (b ×
    distinct items) table whose row keeps the pair's positive and the
    items its user never trained on.  The loss after the forward pass's
    row normalization is one tape node, `in_batch_softmax`, with a
    hand-written backward.  Returns the scalar loss tensor and
    the number of pairs skipped for lack of negatives.  Raises ValueError
    when `user_items` has the wrong shape or an item id outside
    [0, n_items), when a pair's id is out of range, or when a pair's item
    is not among its user's training items.
    """
    user_items = _user_items(user_items, "user_items", (state.n_users, state.n_items),
                             "the model's user-item table")
    for name, ids, n in (("user", users, state.n_users), ("item", items, state.n_items)):
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            a = int(np.argmax(bad))
            raise ValueError(f"pair {a}: {name} id {int(ids[a])} outside [0, {n})")
    uniq, inv, mask, untrained = _batch_mask(users, items, user_items)
    if untrained.any():
        a = int(np.argmax(untrained))
        raise ValueError(f"pair {a} (user {int(users[a])}, item {int(items[a])}): "
                         "the item is not among the user's training items")
    keep = np.count_nonzero(mask, axis=1) >= 2
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ValueError("every pair in the batch lacks negatives")
    h_norm = ad.l2_normalize_rows(forward(state))
    loss = _in_batch_softmax(h_norm, users, state.n_users + uniq, inv, mask, keep,
                             1.0 / state.config.tau)
    return loss, users.size - n_keep


def _in_batch_softmax(h: Tensor, users: np.ndarray, item_rows: np.ndarray,
                      inv: np.ndarray, mask: np.ndarray, keep: np.ndarray,
                      inv_tau: float) -> Tensor:
    """The mean over kept pairs of log-sum-exp over a row's unmasked scores
    minus its positive score, as one tape node whose parent is `h`.

    U = h[users] * inv_tau (scaling the (b, d) rows is cheaper than the
    (b, u) scores) and I = h[item_rows] give the scores S = U I^T; pair a's
    positive is column inv[a].  S becomes its row-shifted exponentials in
    place, and the backward scales them in place into the softmax weights,
    so the op holds one (b, u) table.  The arithmetic is that of the taped
    composition (gathers, matmul, masked log-sum-exp, sums), so the loss
    and h's gradient are the same bit for bit.
    """
    u = h.data[users] * inv_tau
    items = h.data[item_rows]
    items_inv = items[inv]
    e = u @ items.T
    np.copyto(e, -np.inf, where=~mask)
    top = e.max(axis=1, keepdims=True)
    e -= top
    np.exp(e, out=e)  # masked entries become exp(-inf) = 0
    total = e.sum(axis=1, keepdims=True)
    lse = top + np.log(total)
    pos = (u * items_inv).sum(axis=1, keepdims=True)
    n_keep = int(np.count_nonzero(keep))
    keep_col = keep[:, None].astype(np.float64)
    loss = ((lse - pos) * keep_col).sum() * (1.0 / n_keep)

    def bw(g):
        w = g * (1.0 / n_keep) * keep_col
        p = np.multiply(e, w / total, out=e)
        d_u = p @ items - w * items_inv
        d_items = (u.T @ p).T - ad._scatter_rows(w * u, inv, items.shape)
        grad = ad._scatter_rows(d_u * inv_tau, users, h.data.shape)
        grad[item_rows] += d_items
        ad._accum(h, grad)

    return ad._make(loss, "in_batch_softmax", (h,), bw)


def train(state: ModelState, fit: InteractionDataset, val: InteractionDataset,
          cfg: TrainConfig):
    """Mini-batch epochs with early stopping on validation Recall@k.

    Returns the state holding the best-validation parameters plus a
    history record per epoch: `epoch`, `train_loss`, `val_recall`,
    `val_ndcg`, `skipped_pairs` (pairs the epoch's batches dropped for lack
    of negatives) and `seconds`.  A non-finite value (NumericsError) or an
    attention denominator underflow (AttentionError) in a step or in
    validation stops training with a warning and restores the best
    parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    params = state.parameters()
    opt = AdamState(params, lr=cfg.lr)
    train_items = fit.user_item_matrix()
    pairs_u = fit.users.copy()
    pairs_i = fit.items.copy()
    n_pairs = pairs_u.size

    best_recall = -np.inf
    best_params = [p.data.copy() for p in params]
    best_epoch = 0
    history = []
    epochs_since_best = 0
    diverged = False

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(n_pairs)
        epoch_loss, n_batches, skipped_pairs = 0.0, 0, 0
        try:
            for lo in range(0, n_pairs, cfg.batch_size):
                sel = perm[lo:lo + cfg.batch_size]
                if sel.size < 2:
                    continue
                ad.zero_grad(params)
                loss, skipped = batch_loss(state, pairs_u[sel], pairs_i[sel], train_items)
                ad.backward(loss)
                adam_step(opt)
                epoch_loss += loss.item()
                n_batches += 1
                skipped_pairs += skipped
            metrics = evaluate(state, fit, val, k=cfg.k) if len(val) else None
        except (NumericsError, AttentionError) as err:
            # diverged parameters: stop and fall back to the best ones
            log.warning("training aborted at epoch %d: %s", epoch, err)
            diverged = True
            break
        mean_loss = epoch_loss / max(n_batches, 1)

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
        })
        if len(val) and val_recall > best_recall:
            best_recall = val_recall
            best_params = [p.data.copy() for p in params]
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
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
    item-id sequences, checked against `owner`'s shape.  Stored zeros are
    dropped and a repeated id gives one entry."""
    if sp.issparse(rows):
        if rows.shape != shape:
            raise ValueError(f"{name} has shape {rows.shape} but {owner} has shape {shape}")
        m = rows.tocsr().astype(bool)
    else:
        n_users, n_items = shape
        if len(rows) != n_users:
            raise ValueError(f"{name} has {len(rows)} rows but {owner} has {n_users}")
        parts = [np.asarray(r, dtype=np.int64) for r in rows]
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum([p.size for p in parts], out=indptr[1:])
        indices = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        bad = (indices < 0) | (indices >= n_items)
        if bad.any():
            raise ValueError(f"{name} holds item id {int(indices[bad][0])} "
                             f"outside [0, {n_items})")
        m = sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr), shape=shape)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def _top_k(neg: np.ndarray, k: int):
    """Row, column and rank of the finite entries among each row's first k
    in a stable ascending sort of `neg`, in rank order, and the count per
    row.  Ranks count only the finite entries, so a dropped one leaves no
    gap.  `neg` holds no NaN."""
    cols = np.argpartition(neg, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(neg, cols[:, k - 1:], axis=1)
    # a row whose k candidates are its only entries <= the k-th value has no
    # tie across the cut: they are the first k of the stable sort
    tied = np.flatnonzero(np.count_nonzero(neg <= kth, axis=1) != k)
    cols.sort(axis=1)
    if tied.size:
        # the first k of a stable sort: every entry below the k-th value,
        # then the lowest-index ties at that value
        sub, cut = neg[tied], kth[tied]
        below = sub < cut
        tie = sub == cut
        need = k - np.count_nonzero(below, axis=1)
        keep = below | (tie & (np.cumsum(tie, axis=1) <= need[:, None]))
        cols[tied] = np.nonzero(keep)[1].reshape(tied.size, k)
    # stable: equal values stay in column order
    order = np.argsort(np.take_along_axis(neg, cols, axis=1), axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    finite = np.isfinite(np.take_along_axis(neg, cols, axis=1))
    r, j = np.nonzero(finite)
    rank = np.cumsum(finite, axis=1)[r, j] - 1
    return r, cols[r, j], rank, np.count_nonzero(finite, axis=1)


def ranking_metrics(scores: np.ndarray, observed_items, test_items,
                    k: int = 20) -> RankingMetrics:
    """Recall@k / NDCG@k from a dense (N, M) score table.

    `observed_items` and `test_items` are each either a scipy sparse
    matrix of exactly the table's shape, whose stored nonzero entries mark
    a user's items (such as `InteractionDataset.user_item_matrix()`), or a
    sequence of N per-user item-id sequences.  Observed (training +
    validation) items are masked out; ties break toward the lower item
    index; NaN and infinite scores are dropped from a top-k list; users
    without test items are excluded.  Users are ranked in blocks of rows,
    so temporaries stay near _RANK_BLOCK_ENTRIES entries.  One partial
    sort picks each row's k candidates; only the rows with a tie across
    the k-th value pay for the lowest-index tie rule.
    """
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
    n_hits = np.zeros(n_users, dtype=np.int64)
    dcg = np.zeros(n_users)
    observed_user = np.repeat(np.arange(n_users), np.diff(observed.indptr))
    step = max(1, _RANK_BLOCK_ENTRIES // n_items)
    for lo in range(0, n_users, step):
        hi = min(lo + step, n_users)
        # negated, NaN and observed items at +inf: the ranking is the
        # ascending order and drops them
        neg = np.negative(scores[lo:hi], dtype=np.float64)
        neg[np.isnan(neg)] = np.inf
        a, b = observed.indptr[lo], observed.indptr[hi]
        neg[observed_user[a:b] - lo, observed.indices[a:b]] = np.inf
        r, c, rank, n_top = _top_k(neg, kk)
        hit = tests[lo:hi].toarray()[r, c]
        n_hits[lo:hi] = np.bincount(r[hit], minlength=hi - lo)
        gains = np.zeros((hi - lo, kk))
        gains[r[hit], rank[hit]] = discounts[rank[hit]]
        # sum each row over exactly its list's length, as one sum per user would
        for n in np.unique(n_top):
            same = n_top == n
            dcg[lo:hi][same] = gains[same, :n].sum(axis=1)
    recalls = n_hits[users] / n_targets[users]
    ideal_len, inv = np.unique(np.minimum(n_targets[users], k), return_inverse=True)
    idcg = np.array([discounts[:m].sum() for m in ideal_len])[inv]
    ndcgs = dcg[users] / idcg
    return RankingMetrics(float(recalls.mean()), float(ndcgs.mean()), k,
                          recalls, ndcgs, users.astype(np.int64))


def evaluate(state: ModelState, observed: InteractionDataset,
             test: InteractionDataset, k: int = 20) -> RankingMetrics:
    """Score every item for every test user with the current model.

    Ranks through `ranking_metrics`, with `observed`'s items masked out.
    Raises NumericsError when a node's representation has zero norm, so
    `train` takes its divergence path on it.
    """
    h = forward(state).data
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if (norms == 0.0).any():
        bad = int(np.flatnonzero(norms.ravel() == 0.0)[0])
        raise NumericsError(f"zero-norm representation for node {bad}")
    h_norm = h / norms
    scores = h_norm[:state.n_users] @ h_norm[state.n_users:].T
    return ranking_metrics(scores, observed.user_item_matrix(), test.user_item_matrix(), k)
