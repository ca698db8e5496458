"""Sampled-softmax training with in-batch negatives and top-K evaluation."""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

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
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")


@dataclass
class RankingMetrics:
    recall_at_k: float
    ndcg_at_k: float
    k: int
    per_user_recall: np.ndarray
    per_user_ndcg: np.ndarray
    user_indices: np.ndarray


def _batch_mask(users: np.ndarray, items: np.ndarray,
                train_items_per_user) -> np.ndarray:
    """0/1 candidate mask for the in-batch score matrix.

    Row a keeps its own positive (the diagonal) plus the first column of
    every distinct other item the user has never interacted with."""
    b = users.size
    _, first_pos = np.unique(items, return_index=True)
    first_occ = np.zeros(b, dtype=bool)
    first_occ[first_pos] = True
    mask = np.zeros((b, b), dtype=np.float64)
    for a in range(b):
        interacted = np.isin(items, train_items_per_user[users[a]], assume_unique=False)
        mask[a] = first_occ & ~interacted
    np.fill_diagonal(mask, 1.0)
    return mask


def batch_loss(state: ModelState, users: np.ndarray, items: np.ndarray,
               train_items_per_user) -> tuple[Tensor, int]:
    """Tape-recorded sampled-softmax loss for one batch of (user, item) pairs.

    Returns the scalar loss tensor and the number of pairs skipped for
    lack of negatives.
    """
    cfg = state.config
    mask = _batch_mask(users, items, train_items_per_user)
    keep = mask.sum(axis=1) >= 2.0
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ValueError("every pair in the batch lacks negatives")
    h = forward(state)
    h_norm = ad.l2_normalize_rows(h)
    su = ad.gather_rows(h_norm, users)
    si = ad.gather_rows(h_norm, state.n_users + items)
    scores = ad.matmul(su, ad.transpose(si)) * (1.0 / cfg.tau)
    pos = ad.sum_axis(su * si, axis=1) * (1.0 / cfg.tau)
    lse = ad.logsumexp_rows(scores, mask)
    per_pair = (lse - pos) * keep[:, None].astype(np.float64)
    loss = ad.sum_axis(per_pair, axis=None, keepdims=False) * (1.0 / n_keep)
    return loss, users.size - n_keep


def train(state: ModelState, fit: InteractionDataset, val: InteractionDataset,
          cfg: TrainConfig):
    """Mini-batch epochs with early stopping on validation Recall@k.

    Returns the state holding the best-validation parameters plus a
    history record per epoch.  A non-finite value (NumericsError) or an
    attention overflow/underflow (AttentionError) in a step or in
    validation stops training with a warning and restores the best
    parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    params = state.parameters()
    opt = AdamState(params, lr=cfg.lr)
    train_items = fit.items_of_user()
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
        epoch_loss, n_batches = 0.0, 0
        try:
            for lo in range(0, n_pairs, cfg.batch_size):
                sel = perm[lo:lo + cfg.batch_size]
                if sel.size < 2:
                    continue
                ad.zero_grad(params)
                loss, _ = batch_loss(state, pairs_u[sel], pairs_i[sel], train_items)
                ad.backward(loss)
                adam_step(opt)
                epoch_loss += loss.item()
                n_batches += 1
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


def ranking_metrics(scores: np.ndarray, observed_items, test_items,
                    k: int = 20) -> RankingMetrics:
    """Recall@k / NDCG@k from a dense (N, M) score table.

    Observed (training + validation) items are masked out; ties break
    toward the lower item index; users without test items are excluded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_users, n_items = scores.shape
    discounts = 1.0 / np.log2(np.arange(k) + 2.0)
    recalls, ndcgs, users = [], [], []
    for u in range(n_users):
        targets = np.asarray(test_items[u], dtype=np.int64)
        if targets.size == 0:
            continue
        s = scores[u].astype(np.float64, copy=True)
        s[np.asarray(observed_items[u], dtype=np.int64)] = -np.inf
        order = np.argsort(-s, kind="stable")
        top = order[:k]
        top = top[np.isfinite(s[top])]
        hits = np.isin(top, targets)
        recalls.append(hits.sum() / targets.size)
        dcg = float((hits * discounts[:top.size]).sum())
        idcg = float(discounts[:min(k, targets.size)].sum())
        ndcgs.append(dcg / idcg)
        users.append(u)
    if not users:
        raise ValueError("no user has test items to evaluate")
    recalls = np.array(recalls)
    ndcgs = np.array(ndcgs)
    return RankingMetrics(float(recalls.mean()), float(ndcgs.mean()), k,
                          recalls, ndcgs, np.array(users, dtype=np.int64))


def evaluate(state: ModelState, observed: InteractionDataset,
             test: InteractionDataset, k: int = 20) -> RankingMetrics:
    """Score every item for every test user with the current model."""
    h = forward(state).data
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if (norms == 0.0).any():
        bad = int(np.flatnonzero(norms.ravel() == 0.0)[0])
        raise ValueError(f"zero-norm representation for node {bad}")
    h_norm = h / norms
    scores = h_norm[:state.n_users] @ h_norm[state.n_users:].T
    return ranking_metrics(scores, observed.items_of_user(), test.items_of_user(), k)
