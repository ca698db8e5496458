"""Loss, negatives, training loop, and ranking metric tests."""
import contextlib
import dataclasses
import logging
import math
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import pgtr.autodiff as ad
from pgtr.autodiff import NumericsError
from pgtr.data import DataError, InteractionDataset, SplitSpec, build_graph, split_by_ratio
from pgtr.encodings import EncodingError
from pgtr.model import PGTRConfig, forward, init_model, load_checkpoint, save_checkpoint
from pgtr.synthetic import clustered_interactions
from pgtr.train import (
    TrainConfig,
    _batch_mask,
    _in_batch_softmax,
    _user_items,
    batch_loss,
    evaluate,
    ranking_metrics,
    train,
)
from test_autodiff import (as_float64, gather_rows, held_arrays, l2_normalize_rows,
                           logsumexp_rows, matmul, mul, sub, sum_axis, tape_nodes, transpose)
from test_encodings import awkward_interactions


def ssm_loss(score_pos, scores_neg) -> float:
    """Mean sampled-softmax loss over pairs, one pair at a time: the oracle
    for the (b × distinct items) `batch_loss`.

    `score_pos[p]` is the positive score of pair p, `scores_neg[p]` its
    negative scores.  Computed through log-sum-exp for stability.
    """
    score_pos = np.atleast_1d(np.asarray(score_pos, dtype=np.float64))
    total = 0.0
    for pos, negs in zip(score_pos, scores_neg):
        cand = np.concatenate([[pos], np.asarray(negs, dtype=np.float64)])
        if not np.all(np.isfinite(cand)):
            raise NumericsError("ssm_loss: non-finite score")
        mx = cand.max()
        total += mx + np.log(np.exp(cand - mx).sum()) - pos
    return total / score_pos.size


def in_batch_negatives(batch, train_items_per_user) -> list[np.ndarray]:
    """Per-pair negative item sets: other pairs' positives the user never
    interacted with in training."""
    if len(batch) < 2:
        raise ValueError("batch must contain at least two pairs")
    items = np.array([i for _, i in batch], dtype=np.int64)
    out = []
    for a, (u, _) in enumerate(batch):
        others = np.unique(np.delete(items, a))
        interacted = np.asarray(train_items_per_user[u], dtype=np.int64)
        out.append(np.setdiff1d(others, interacted, assume_unique=False))
    return out


def batch_mask_loop(users, items, train_items_per_user) -> np.ndarray:
    """One `np.isin` per batch row: the oracle for the sparse-gather
    `_batch_mask`.  Returns the 0/1 mask as float64."""
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


def ranking_metrics_loop(scores, observed_items, test_items, k):
    """One full stable argsort per user: the oracle for the blocked
    `ranking_metrics`.  Returns the fields of `RankingMetrics` as a tuple."""
    n_users, _ = scores.shape
    discounts = 1.0 / np.log2(np.arange(k) + 2.0)
    recalls, ndcgs, users = [], [], []
    for u in range(n_users):
        targets = np.unique(np.asarray(test_items[u], dtype=np.int64))
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
    return (float(recalls.mean()), float(ndcgs.mean()), k,
            recalls, ndcgs, np.array(users, dtype=np.int64))


def oracle_batch_loss(state, users, items, items_of) -> tuple[float, int]:
    """Per-pair sampled-softmax loss of a batch from `in_batch_negatives`
    and `ssm_loss`, with the pairs that lack negatives skipped."""
    tau = state.config.tau
    h = forward(state).data
    h = h / np.linalg.norm(h, axis=1, keepdims=True)
    pos_scores, neg_scores = [], []
    batch = list(zip(users.tolist(), items.tolist()))
    negs = in_batch_negatives(batch, items_of)
    for (u, i), cand in zip(batch, negs):
        if cand.size == 0:
            continue
        pos_scores.append(h[u] @ h[state.n_users + i] / tau)
        neg_scores.append(np.array([h[u] @ h[state.n_users + j] / tau for j in cand]))
    if not pos_scores:
        return math.nan, len(batch)
    return ssm_loss(pos_scores, neg_scores), len(batch) - len(pos_scores)


def taped_in_batch_softmax(h, users, item_rows, inv, mask, keep, inv_tau):
    """The loss as the taped composition of gathers, products, a matmul, the
    masked log-sum-exp and sums that `_in_batch_softmax` fuses into one
    node: its oracle."""
    su = mul(gather_rows(h, users), inv_tau)
    si = gather_rows(h, item_rows)
    scores = matmul(su, transpose(si))
    pos = sum_axis(mul(su, gather_rows(si, inv)), axis=1)
    lse = logsumexp_rows(scores, mask)
    per_pair = mul(sub(lse, pos), keep[:, None].astype(np.float64))
    return mul(sum_axis(per_pair, axis=None, keepdims=False), 1.0 / np.count_nonzero(keep))


def dense_mask(drop, m, n):
    """The (m, n) boolean table of user rows whose False entries are
    `_batch_mask`'s flat `drop` indices."""
    mask = np.ones(m * n, dtype=bool)
    mask[drop] = False
    return mask.reshape(m, n)


def pair_mask(drop, urow, inv, m, n):
    """The (b, n) boolean table of pair rows: pair a's row is its user's
    row of `dense_mask` with its own positive, column inv[a], put back."""
    mask = dense_mask(drop, m, n)[urow]
    mask[np.arange(urow.size), inv] = True
    return mask


def fused_loss_and_grad(h, user_rows, item_rows, urow, inv, drop, keep, tau):
    """The `in_batch_softmax` node, over the pairs `keep` marks, on a leaf
    holding the node table `h`, and the leaf's gradient.  `backward`
    releases an interior node's gradient, so the leaf stands in for
    `forward`'s table."""
    leaf = ad.Tensor(h)
    loss = _in_batch_softmax(leaf, user_rows, item_rows, urow[keep], inv[keep], drop, 1.0 / tau)
    ad.backward(loss)
    return loss, leaf.grad


def assert_matches_taped_oracle(loss, grad, h, users, item_rows, inv, mask, keep, tau):
    """`loss` and `grad`, the fused node's loss and gradient of the node
    table `h`, agree with the float64 taped composition, `l2_normalize_rows`
    and then the loss, on `h` cast to float64.  The loss bound is relative
    to max(1, |loss|), since a loss near 0 at a small tau carries rounding
    of order eps / tau from its terms, and the gradient's scales with
    1/tau.  For a float32 table they are bounds the masked, row-max-shifted
    form of the loss, computed in float32, also meets on
    `softmax_batches`' draws."""
    leaf = ad.Tensor(h.astype(np.float64))
    want = taped_in_batch_softmax(l2_normalize_rows(leaf), users, item_rows, inv, mask, keep,
                                  1.0 / tau)
    ad.backward(want)
    assert loss.data.dtype == grad.dtype == h.dtype
    loss_tol, grad_tol = (1e-12, 1e-13) if h.dtype == np.float64 else (1e-4, 4e-6)
    assert abs(loss.item() - want.item()) <= loss_tol * max(1.0, abs(want.item()))
    assert np.abs(grad - leaf.grad).max() * tau <= grad_tol


@st.composite
def softmax_batches(draw):
    """A random float32 or float64 node table, per-user training items and
    a batch of training pairs drawn with replacement, so users, items and
    whole pairs repeat.  One user trained on every item, so its pairs keep
    no negative; half the batches hold one distinct item, so no pair keeps
    one.  At tau = 0.001 and 0.01 some user rows' exponentials, shifted by
    1/tau, sum below the floor, so the row-max fallback runs."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trained = rng.random((n_users, n_items)) < 0.5
    trained[draw(st.integers(0, n_users - 1))] = True
    pairs = np.argwhere(trained)
    if draw(st.booleans()):
        pairs = pairs[pairs[:, 1] == pairs[0, 1]]
    users, items = pairs[rng.integers(0, len(pairs), size=draw(st.integers(2, 16)))].T
    h = rng.standard_normal((n_users + n_items, draw(st.integers(1, 5))))
    # the generator, not `draw`, picks the dtype and tau: the derandomized
    # draws spread evenly over them then
    h = h.astype(rng.choice([np.float32, np.float64]))
    return (h, sp.csr_matrix(trained), users, items,
            float(rng.choice([0.001, 0.01, 0.05, 0.2, 1.0])))


def tiny_state(ds, seed):
    cfg = PGTRConfig(d=4, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2,
                     n_r=2, tau=0.25)
    return init_model(build_graph(ds), cfg, seed=seed)


class TestSsmLoss:
    def test_uniform_scores_give_log_batch(self):
        for b in (2, 5, 64):
            loss = ssm_loss([0.7], [np.full(b - 1, 0.7)])
            assert loss == pytest.approx(math.log(b), abs=1e-10)

    def test_dominant_positive_drives_loss_to_zero(self):
        loss = ssm_loss([60.0], [np.array([0.0, 1.0])])
        assert 0.0 <= loss < 1e-20

    def test_frozen_three_candidate_value(self):
        expected = math.log(1 + math.exp(-1.0) + math.exp(-0.5))
        loss = ssm_loss([1.0], [np.array([0.0, 0.5])])
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.6802, abs=1e-4)

    def test_mean_over_pairs(self):
        l1 = ssm_loss([1.0], [np.array([0.0])])
        l2 = ssm_loss([2.0], [np.array([0.0, 1.0])])
        both = ssm_loss([1.0, 2.0], [np.array([0.0]), np.array([0.0, 1.0])])
        assert both == pytest.approx((l1 + l2) / 2)

    def test_positive_always(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            loss = ssm_loss([rng.normal()], [rng.normal(size=3)])
            assert loss > 0

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericsError):
            ssm_loss([np.inf], [np.array([0.0])])


class TestInBatchNegatives:
    def test_two_disjoint_pairs(self):
        negs = in_batch_negatives([(0, 0), (1, 1)], {0: [0], 1: [1]})
        assert negs[0].tolist() == [1]
        assert negs[1].tolist() == [0]

    def test_interacted_items_excluded(self):
        negs = in_batch_negatives([(0, 0), (1, 1)], {0: [0, 1], 1: [1]})
        assert negs[0].size == 0
        assert negs[1].tolist() == [0]

    def test_random_batches_sound(self):
        rng = np.random.default_rng(1)
        ds = clustered_interactions(30, 40, 3, per_user=8, seed=2)
        items_of = ds.items_of_user()
        for _ in range(5):
            sel = rng.choice(len(ds), size=16, replace=False)
            batch = [(int(ds.users[s]), int(ds.items[s])) for s in sel]
            batch_items = {i for _, i in batch}
            negs = in_batch_negatives(batch, items_of)
            for (u, _), cand in zip(batch, negs):
                assert set(cand.tolist()) <= batch_items
                assert not set(cand.tolist()) & set(items_of[u].tolist())

    def test_batch_too_small(self):
        with pytest.raises(ValueError):
            in_batch_negatives([(0, 0)], {0: [0]})


class TestBatchLossTape:
    def test_matches_scalar_oracle(self):
        """The (b × distinct items) tape loss equals the per-pair formula,
        in float64."""
        ds = clustered_interactions(10, 12, 2, per_user=4, seed=3)
        state = as_float64(tiny_state(ds, seed=4), build_graph(ds))
        users, items = ds.users[:6], ds.items[:6]
        items_of = ds.items_of_user()
        loss, skipped = batch_loss(state, users, items, items_of)
        expected, expected_skipped = oracle_batch_loss(state, users, items, items_of)
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert skipped == expected_skipped

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 24),
           as_matrix=st.booleans())
    def test_random_batches_match_oracle(self, small_model64, seed, size, as_matrix):
        """Pairs drawn with replacement, so items and users repeat; in float64."""
        ds, state = small_model64
        items_of = ds.items_of_user()
        user_items = ds.user_item_matrix() if as_matrix else items_of
        sel = np.random.default_rng(seed).integers(0, len(ds), size=size)
        users, items = ds.users[sel], ds.items[sel]
        expected, expected_skipped = oracle_batch_loss(state, users, items, items_of)
        if expected_skipped == size:
            with pytest.raises(ValueError, match="lacks negatives"):
                batch_loss(state, users, items, user_items)
            return
        loss, skipped = batch_loss(state, users, items, user_items)
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert skipped == expected_skipped

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 24))
    def test_one_distinct_item_lacks_negatives(self, small_model, seed, size):
        """Every pair shares one item (u = 1): no row has a negative."""
        ds, state = small_model
        rng = np.random.default_rng(seed)
        item = ds.items[rng.integers(len(ds))]
        users = rng.choice(ds.users[ds.items == item], size=size)
        with pytest.raises(ValueError, match="every pair in the batch lacks negatives"):
            batch_loss(state, users, np.full(size, item), ds.items_of_user())

    def test_positive_outside_training_items_rejected(self, small_model):
        ds, state = small_model
        items_of = ds.items_of_user()
        user = 0
        item = int(np.setdiff1d(np.arange(ds.n_items), items_of[user])[0])
        users = np.concatenate([ds.users[:3], [user, user]])
        items = np.concatenate([ds.items[:3], [item, item]])
        with pytest.raises(ValueError, match=rf"^pair 3 \(user {user}, item {item}\): "
                                             "the item is not among the user's training"):
            batch_loss(state, users, items, items_of)

    @pytest.mark.parametrize("case, message", [
        ("training id", r"^user_items holds item id 99 outside \[0, 10\)$"),
        ("fractional id", r"^user_items row 3 must hold integer ids, got float64 values$"),
        ("bool id", r"^user_items row 3 must hold integer ids, got bool values$"),
        ("matrix shape", r"^user_items has shape \(8, 11\) but the model's user-item "
                         r"table has shape \(8, 10\)$"),
        ("list length", r"^user_items has 7 rows but the model's user-item table has 8$"),
        ("pair item", r"^pair 2: item id 10 outside \[0, 10\)$"),
        ("pair user", r"^pair 0: user id -1 outside \[0, 8\)$"),
    ])
    def test_malformed_inputs_rejected(self, small_model, case, message):
        ds, state = small_model
        users, items = ds.users[:6].copy(), ds.items[:6].copy()
        user_items = ds.items_of_user()
        if case == "training id":
            user_items[3] = np.append(user_items[3], 99)
        elif case == "fractional id":
            user_items[3] = np.append(user_items[3], 2.5)
        elif case == "bool id":
            user_items[3] = np.ones(2, dtype=bool)
        elif case == "matrix shape":
            user_items = sp.csr_matrix((8, 11), dtype=bool)
        elif case == "list length":
            user_items = user_items[:7]
        elif case == "pair item":
            items[2] = 10
        else:
            users[0] = -1
        with pytest.raises(ValueError, match=message):
            batch_loss(state, users, items, user_items)

    @pytest.mark.parametrize("side", ["users", "items"])
    @pytest.mark.parametrize("ids", [np.ones(6, dtype=bool), np.full(6, 0.5)],
                             ids=["bool", "fractional"])
    def test_malformed_pair_ids_rejected(self, small_model, side, ids):
        """A pair id that is no integer is a DataError naming the side, not
        an IndexError from the mask's indexing."""
        ds, state = small_model
        pairs = {"users": ds.users[:6], "items": ds.items[:6], side: ids}
        with pytest.raises(DataError, match=f"^pair {side} must hold integer ids, "
                                            f"got {ids.dtype} values$"):
            batch_loss(state, pairs["users"], pairs["items"], ds.user_item_matrix())

    def test_pair_lengths_must_match(self, small_model):
        """Six users and five items name both lengths, not numpy's bare
        broadcast error from the mask."""
        ds, state = small_model
        with pytest.raises(ValueError, match=r"^users holds 6 pair ids but items holds 5; "
                                             r"a pair takes one of each$"):
            batch_loss(state, ds.users[:6], ds.items[:5], ds.user_item_matrix())

    def test_whole_float_pair_ids_give_the_int_loss(self, small_model):
        ds, state = small_model
        users, items = ds.users[:6], ds.items[:6]
        want, want_skipped = batch_loss(state, users, items, ds.user_item_matrix())
        got, got_skipped = batch_loss(state, users.astype(np.float64),
                                      items.astype(np.float64).tolist(), ds.user_item_matrix())
        assert got.data.tobytes() == want.data.tobytes() and got_skipped == want_skipped

    def test_score_table_is_distinct_users_by_distinct_items(self, small_model):
        """Everything after the row normalization is one node, which keeps
        one (distinct users × distinct items) table for its backward; no
        array on the tape or in a backward closure is a (b, u) pair table
        or has b * b entries."""
        ds, state = small_model
        sel = np.random.default_rng(3).integers(0, len(ds), size=24)
        users, items = ds.users[sel], ds.items[sel]
        b, m, u = users.size, np.unique(users).size, np.unique(items).size
        # no other array the op holds is (m, u): its rows and columns are
        # (m, d), (u, d), (m,) and (b,)
        assert 1 < m < u < b and state.config.d not in (m, u)
        loss, _ = batch_loss(state, users, items, ds.items_of_user())
        assert loss._op == "in_batch_softmax"
        [h] = loss._parents
        assert h._op == "mean"
        held = held_arrays(loss)
        assert sum(a.shape == (m, u) for a in held) == 1
        assert all(a.shape != (b, u) for a in held)
        assert max(a.size for a in held) < b * b

    @settings(max_examples=400)  # most draws lack negatives
    @given(batch=softmax_batches())
    def test_fused_loss_matches_taped_oracle(self, batch):
        """The loss node of `batch_loss` on a given raw node table against
        the float64 taped composition of `l2_normalize_rows` and the
        (b × distinct items) pair table on the same table: the same loss
        and gradient of the table to rounding, or the same lack of
        negatives.  The draws repeat users and whole pairs, hold a user who
        trained on every item and take tau down to 0.001.  The node
        normalizes only the rows it reads, scores each user once, shifts by
        1/tau and scales rows in its backward, so its last bits differ from
        the oracle's on purpose."""
        h, trained, users, items, tau = batch
        n_users, n_items = trained.shape
        state = SimpleNamespace(n_users=n_users, n_items=n_items,
                                config=SimpleNamespace(tau=tau))
        batch_users, urow, uniq, inv, drop, kept, _ = _batch_mask(users, items, trained)
        keep = kept >= 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["pgtr.train"], "forward", lambda s: ad.Tensor(h))
            if not keep.any():
                with pytest.raises(ValueError, match="every pair in the batch lacks negatives"):
                    batch_loss(state, users, items, trained)
                return
            loss, skipped = batch_loss(state, users, items, trained)
        assert skipped == np.count_nonzero(~keep)
        [leaf] = loss._parents
        ad.backward(loss)
        assert_matches_taped_oracle(loss, leaf.grad, h, users, n_users + uniq, inv,
                                    pair_mask(drop, urow, inv, batch_users.size, uniq.size),
                                    keep, tau)

    def test_underflowing_rows_take_the_row_max_fallback(self):
        """A float32 batch at tau = 0.01.  User 0 scores near -1/tau against
        every item, so its row's exponentials shifted by 1/tau underflow to
        0; user 2's sum to ~4e-38, a normal float32 whose reciprocal times
        a (1/tau)-long row overflows.  Those rows are shifted by their own
        maximum, user 1's row keeps the 1/tau shift, and the loss and
        gradient are finite and match the float64 oracle."""
        tau = 0.01
        angles = np.array([np.pi, 0.0, 1.63, 0.0, 0.1, 0.2])
        # users 0-2, then items 0-2
        h = np.c_[np.cos(angles), np.sin(angles)].astype(np.float32)
        trained = sp.csr_matrix(np.array([[1, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=bool))
        users, items = np.array([0, 1, 0, 2]), np.array([0, 1, 2, 0])
        batch_users, urow, uniq, inv, drop, kept, untrained = _batch_mask(users, items, trained)
        assert not untrained.any() and drop.tolist() == [0, 2, 4, 6]
        keep = kept >= 2
        assert keep.all()
        shifted = np.exp(h[:3] * np.float32(1 / tau) @ h[3:].T - np.float32(1 / tau))
        bases = np.where(dense_mask(drop, 3, 3), shifted, 0).sum(axis=1)
        assert bases.dtype == np.float32
        assert bases[0] == 0 and bases[1] > 1
        assert np.finfo(np.float32).tiny < bases[2] < 2.0 ** -64
        got, got_grad = fused_loss_and_grad(h, batch_users, 3 + uniq, urow, inv, drop, keep, tau)
        assert np.isfinite(got.item()) and np.isfinite(got_grad).all()
        assert_matches_taped_oracle(got, got_grad, h, users, 3 + uniq, inv,
                                    pair_mask(drop, urow, inv, 3, 3), keep, tau)

    def test_fallback_pair_shift_covers_a_positive_far_above_the_row(self):
        """A float32 batch at tau = 0.01 in which user 0 has two pairs.  Its
        untrained items score ~117 below its first positive, so its row
        underflows and takes the row-max fallback; shifted by that row
        maximum alone, the first positive's exponential overflows float32.
        The second positive sits just below the row maximum.  Each pair's
        shift is the larger of the row maximum and its positive, so the
        loss and gradient are finite and match the float64 oracle."""
        tau = 0.01
        angles = np.radians([0.0, 110.0, 0.0, 101.0, 100.0, 120.0])
        # users 0-1, then items 0-3
        h = np.c_[np.cos(angles), np.sin(angles)].astype(np.float32)
        trained = sp.csr_matrix(np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool))
        users, items = np.array([0, 0, 1, 1]), np.array([0, 1, 2, 3])
        batch_users, urow, uniq, inv, drop, kept, untrained = _batch_mask(users, items, trained)
        assert not untrained.any() and (kept >= 2).all()
        scores = h[:2] * np.float32(1 / tau) @ h[2:].T
        kept_scores = np.where(dense_mask(drop, 2, 4), scores, -np.inf)
        bases = np.exp(kept_scores - np.float32(1 / tau)).sum(axis=1)
        assert bases[0] == 0 and bases[1] > 2.0 ** -64
        row_max = kept_scores[0].max()
        with np.errstate(over="ignore"):
            assert np.exp(scores[0, 0] - row_max) == np.inf
        assert row_max - 5 < scores[0, 1] < row_max
        keep = kept >= 2
        got, got_grad = fused_loss_and_grad(h, batch_users, 2 + uniq, urow, inv, drop, keep, tau)
        assert np.isfinite(got.item()) and np.isfinite(got_grad).all()
        assert_matches_taped_oracle(got, got_grad, h, users, 2 + uniq, inv,
                                    pair_mask(drop, urow, inv, 2, 4), keep, tau)

    def test_held_table_keeps_the_table_dtype(self, small_model, small_model64):
        """The one (distinct users × distinct items) table the node holds
        has the node table's dtype: a float64 shift meeting a float32 table
        would double its memory and time."""
        for ds, state in (small_model, small_model64):
            sel = np.random.default_rng(3).integers(0, len(ds), size=24)
            users, items = ds.users[sel], ds.items[sel]
            m, u = np.unique(users).size, np.unique(items).size
            loss, _ = batch_loss(state, users, items, ds.user_item_matrix())
            [table] = [a for a in held_arrays(loss) if a.shape == (m, u)]
            assert table.dtype == loss.data.dtype == state.embeddings.data.dtype

    def test_backward_never_differentiates_a_constant(self, small_model, monkeypatch):
        """Every leaf the loss's backward reaches is a parameter: a constant
        such as 1/tau, the mask or the frozen features is held as an array,
        not as a leaf, so no gradient is formed for it, and every parameter
        gets one."""
        ds, state = small_model
        targets = []
        real_accum = ad._accum

        def recording_accum(t, g):
            targets.append(t)
            real_accum(t, g)

        monkeypatch.setattr(ad, "_accum", recording_accum)
        ad.zero_grad(state.parameters())
        loss, _ = batch_loss(state, ds.users[:8], ds.items[:8], ds.items_of_user())
        params = {id(p) for p in state.parameters()}
        assert {id(n) for n in tape_nodes(loss) if n._op == "leaf"} == params
        ad.backward(loss)
        assert {id(t) for t in targets if t._op == "leaf"} == params
        assert all(p.grad is not None for p in state.parameters())

    @staticmethod
    def _batch(ds, state):
        """A batch of the small model's pairs that keeps a negative, and the
        node ids of the rows its loss reads."""
        sel = np.random.default_rng(4).integers(0, len(ds), size=6)
        users, items = ds.users[sel], ds.items[sel]
        read = np.union1d(users, state.n_users + items)
        assert read.size < state.n_nodes
        return users, items, read

    @staticmethod
    def _loss_on_table(state, users, items, user_items, zero_rows=()):
        """`batch_loss` on a leaf holding the model's node table with the
        rows `zero_rows` set to 0, after its backward: the loss and the
        leaf's gradient."""
        h = forward(state).data.copy()
        h[list(zero_rows)] = 0.0
        leaf = ad.Tensor(h)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["pgtr.train"], "forward", lambda s: leaf)
            loss, _ = batch_loss(state, users, items, user_items)
        ad.backward(loss)
        return loss, leaf.grad

    def test_gradient_is_zero_outside_the_batch_rows(self, small_model):
        """The loss normalizes and reads only the batch's user and item
        rows, so every other row of the node table gets a gradient of
        exactly 0."""
        ds, state = small_model
        users, items, read = self._batch(ds, state)
        _, grad = self._loss_on_table(state, users, items, ds.items_of_user())
        outside = np.setdiff1d(np.arange(state.n_nodes), read)
        assert not grad[outside].any()
        assert grad[read].any()

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_zero_norm_batch_row_names_its_node(self, small_model, side):
        ds, state = small_model
        users, items, _ = self._batch(ds, state)
        node = int(users[2]) if side == "user" else state.n_users + int(items[2])
        with pytest.raises(NumericsError, match=re.escape(f"zero-norm node row(s) [{node}]")):
            self._loss_on_table(state, users, items, ds.items_of_user(), [node])

    def test_zero_norm_row_outside_the_batch_changes_nothing(self, small_model):
        """A zero-norm row the loss does not read leaves the loss and the
        gradient bit for bit as they were."""
        ds, state = small_model
        users, items, read = self._batch(ds, state)
        outside = np.setdiff1d(np.arange(state.n_nodes), read)
        loss, grad = self._loss_on_table(state, users, items, ds.items_of_user())
        got_loss, got_grad = self._loss_on_table(state, users, items, ds.items_of_user(),
                                                 outside[:2])
        assert got_loss.data.tobytes() == loss.data.tobytes()
        assert got_grad.tobytes() == grad.tobytes()


@pytest.fixture(scope="module")
def small_model():
    ds = clustered_interactions(8, 10, 2, per_user=4, seed=11)
    return ds, tiny_state(ds, seed=12)


@pytest.fixture(scope="module")
def small_model64(small_model):
    """`small_model`'s data and a copy of its state computing in float64."""
    ds, _ = small_model
    return ds, as_float64(tiny_state(ds, seed=12), build_graph(ds))


@st.composite
def mask_batches(draw):
    """Per-user training items (one user holds every item), a batch of
    (user, item) pairs drawn with replacement, and how many entries a
    larger earlier draw's mask buffer holds beyond this batch's table.
    Half the catalogs are far larger than the batch, so most ids are never
    marked, and either side's ids 0 and n - 1 are drawn often."""
    large = draw(st.booleans())
    n_users = draw(st.integers(20, 300) if large else st.integers(1, 6))
    n_items = draw(st.integers(40, 400) if large else st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.02, 0.3, 0.7]))
    items_of = [np.flatnonzero(rng.random(n_items) < share).tolist() for _ in range(n_users)]
    items_of[draw(st.integers(0, n_users - 1))] = list(range(n_items))
    size = draw(st.integers(1, 16))

    def ids(n):
        one = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
        return np.array(draw(st.lists(one, min_size=size, max_size=size)), dtype=np.int64)

    return ids(n_users), ids(n_items), items_of, draw(st.integers(0, 300))


class TestBatchMask:
    @given(batch=mask_batches())
    def test_matches_loop_oracle(self, batch):
        """The user rows rebuilt from the dropped entries' flat indices
        keep, for each pair, once each, the item ids of the (b, b) loop
        oracle's row of that pair, but for its own positive: pair a's row is
        its user's row with column inv[a] put back.  A user row drops every
        batch item the user trained on; the indices are row-major without
        repeats, `kept` counts each pair's row and `untrained` flags the
        pairs whose item the user never trained on.  The distinct ids and
        the intp positions `urow` and `inv` are `np.unique`'s.  A mask
        buffer longer than the table and full of True, as a larger earlier
        draw leaves it, gives the same outputs as a new table."""
        users, items, items_of, extra = batch
        # one user holds every item
        n_items = max(len(row) for row in items_of)
        user_items = _user_items(items_of, "items_of", (len(items_of), n_items))
        out = _batch_mask(users, items, user_items)
        batch_users, urow, uniq, inv, drop, kept, untrained = out
        oracle = batch_mask_loop(users, items, items_of)
        b, m, n = users.size, batch_users.size, uniq.size
        for distinct, pos, ids in ((batch_users, urow, users), (uniq, inv, items)):
            want, want_pos = np.unique(ids, return_inverse=True)
            np.testing.assert_array_equal(distinct, want)
            np.testing.assert_array_equal(pos, want_pos)
            assert pos.dtype == np.intp
        np.testing.assert_array_equal(batch_users[urow], users)
        np.testing.assert_array_equal(uniq[inv], items)
        assert np.all(np.diff(drop) > 0)
        assert drop.size == 0 or 0 <= drop[0] and drop[-1] < m * n
        user_rows = dense_mask(drop, m, n)
        for r, user in enumerate(batch_users):
            assert set(uniq[~user_rows[r]].tolist()) == set(items_of[user]) & set(items.tolist())
        for a in range(b):
            want = set(items[oracle[a] != 0].tolist())
            assert set(uniq[user_rows[urow[a]]].tolist()) | {items[a]} == want
            assert kept[a] == len(want)
        np.testing.assert_array_equal(
            untrained, [i not in items_of[u] for u, i in zip(users, items)])
        reused = _batch_mask(users, items, user_items, np.ones(m * n + extra, dtype=bool))
        for got, want in zip(reused, out):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestTrainLoop:
    def _setup(self, seed=0, backbone="lightgcn"):
        ds = clustered_interactions(24, 30, 3, per_user=8, seed=seed)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.5, seed=seed))
        g = build_graph(fit)
        cfg = PGTRConfig(d=6, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2,
                         n_r=2, lambda3=0.5, backbone=backbone)
        state = init_model(g, cfg, seed=seed)
        return state, fit, val, test

    def test_zero_learning_rate_freezes_everything(self):
        state, fit, val, _ = self._setup(1)
        before = {n: t.data.copy() for n, t in state.named_parameters()}
        _, history = train(state, fit, val, TrainConfig(batch_size=32, lr=0.0,
                                                        max_epochs=4, patience=2, seed=1))
        for n, t in state.named_parameters():
            np.testing.assert_array_equal(t.data, before[n])
        recalls = [h["val_recall"] for h in history]
        assert len(set(recalls)) == 1

    def test_same_seed_identical_loss_curve(self):
        curves = []
        for _ in range(2):
            state, fit, val, _ = self._setup(2)
            _, history = train(state, fit, val,
                               TrainConfig(batch_size=32, lr=1e-2, max_epochs=4,
                                           patience=4, seed=7))
            curves.append([h["train_loss"] for h in history])
        assert curves[0] == curves[1]

    def test_loss_drops_below_uniform_baseline(self):
        """Clustered data, enough epochs: loss beats the ln(batch) baseline."""
        ds = clustered_interactions(18, 24, 3, per_user=6, seed=5)
        fit, val, _ = split_by_ratio(ds, SplitSpec(0.6, seed=5))
        g = build_graph(fit)
        cfg = PGTRConfig(d=6, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2,
                         n_r=2, lambda3=0.3, tau=0.2)
        state = init_model(g, cfg, seed=5)
        batch = 32
        _, history = train(state, fit, val,
                           TrainConfig(batch_size=batch, lr=5e-2, max_epochs=50,
                                       patience=50, seed=5))
        assert history[-1]["train_loss"] < math.log(batch)
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_early_stopping_returns_best_checkpoint(self):
        state, fit, val, _ = self._setup(3)
        state, history = train(state, fit, val,
                               TrainConfig(batch_size=32, lr=2e-2, max_epochs=30,
                                           patience=5, seed=3))
        best = max(h["val_recall"] for h in history)
        now = evaluate(state, fit, val, k=20).recall_at_k
        assert now == pytest.approx(best, abs=1e-12)

    def test_user_item_matrices_are_built_once(self, monkeypatch):
        """`train` builds the fit and validation CSRs once, and every batch
        and every epoch's validation reads them (copies of the split, so
        `build_graph(fit)` built none of theirs)."""
        state, fit, val, _ = self._setup(4)
        fit, val = (InteractionDataset(d.n_users, d.n_items, d.users, d.items)
                    for d in (fit, val))
        built = []
        real = InteractionDataset._build_user_item_matrix

        def recording(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(InteractionDataset, "_build_user_item_matrix", recording)
        _, history = train(state, fit, val, TrainConfig(batch_size=32, lr=1e-2, max_epochs=4,
                                                        patience=4, seed=4))
        assert len(history) == 4
        assert [id(ds) for ds in built] == [id(fit), id(val)]

    def test_large_step_trains_every_epoch(self, caplog):
        """At lr=0.5 on the default config the global term, a column mean,
        has nothing to underflow: all 5 epochs train with finite, falling
        losses and no warning is logged."""
        ds = clustered_interactions(200, 300, seed=0)
        fit, val, _ = split_by_ratio(ds, SplitSpec(0.8, seed=0))
        state = init_model(build_graph(fit), PGTRConfig(), seed=0)
        with caplog.at_level(logging.WARNING, logger="pgtr.train"):
            _, history = train(state, fit, val, TrainConfig(lr=0.5, max_epochs=5))
        assert caplog.records == []
        losses = [h["train_loss"] for h in history]
        assert len(losses) == 5 and all(math.isfinite(x) for x in losses)
        assert losses[-1] < losses[0]

    def test_zero_norm_in_validation_takes_divergence_path(self, caplog, monkeypatch):
        """A zero-norm row in the third validation pass aborts training at
        epoch 3 and restores the parameters a clean two-epoch run keeps."""
        train_mod = sys.modules["pgtr.train"]
        real_forward, real_evaluate = train_mod.forward, train_mod.evaluate
        passes = []

        def evaluate(*args, **kwargs):
            passes.append(True)
            try:
                return real_evaluate(*args, **kwargs)
            finally:
                passes[-1] = False

        def forward(state):
            h = real_forward(state)
            if len(passes) == 3 and passes[-1]:
                h.data[5] = 0.0
            return h

        state, fit, val, _ = self._setup(6)
        clean, clean_history = train(state, fit, val, TrainConfig(
            batch_size=32, lr=2e-2, max_epochs=2, patience=5, seed=6))
        state, fit, val, _ = self._setup(6)
        monkeypatch.setattr(train_mod, "forward", forward)
        monkeypatch.setattr(train_mod, "evaluate", evaluate)
        with caplog.at_level(logging.WARNING, logger="pgtr.train"):
            state, history = train(state, fit, val, TrainConfig(
                batch_size=32, lr=2e-2, max_epochs=5, patience=5, seed=6))
        assert ("training aborted at epoch 3: zero-norm node row(s) [5]"
                in caplog.text)
        assert [row["val_recall"] for row in history] == [
            row["val_recall"] for row in clean_history]
        for (name, got), (_, want) in zip(state.named_parameters(), clean.named_parameters()):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)

    def test_nan_in_embeddings_names_the_op(self, caplog):
        """The forward's non-finite node table is checked once, and the
        check walks its tape: the warning names the first op that saw the
        NaN, the `mix` that adds the position vectors to the embeddings.
        Training stops in epoch 1 with the parameters as they were."""
        state, fit, val, _ = self._setup(7)
        state.embeddings.data[3, 1] = np.nan
        before = [t.data.copy() for t in state.parameters()]
        with caplog.at_level(logging.WARNING, logger="pgtr.train"):
            state, history = train(state, fit, val, TrainConfig(
                batch_size=32, lr=1e-2, max_epochs=3, patience=3, seed=7))
        assert ("training aborted at epoch 1: non-finite intermediate produced by 'mix'"
                in caplog.text)
        assert history == []
        for got, want in zip(state.parameters(), before, strict=True):
            np.testing.assert_array_equal(got.data, want)

    def test_evaluate_names_the_op(self):
        state, fit, val, _ = self._setup(7)
        state.embeddings.data[3, 1] = np.nan
        with pytest.raises(NumericsError, match="^non-finite intermediate produced by 'mix'$"):
            evaluate(state, fit, val, k=5)

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_inf_in_embeddings_names_the_op(self, backbone, caplog):
        """An Inf embedding turns into NaN downstream without a numpy warning
        escaping the forward, and both `train` and `evaluate` name the `mix`
        that first saw it."""
        state, fit, val, _ = self._setup(7, backbone)
        state.embeddings.data[3, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError,
                               match="^non-finite intermediate produced by 'mix'$"):
                evaluate(state, fit, val, k=5)
            with caplog.at_level(logging.WARNING, logger="pgtr.train"):
                _, history = train(state, fit, val, TrainConfig(
                    batch_size=32, lr=1e-2, max_epochs=3, patience=3, seed=7))
        assert ("training aborted at epoch 1: non-finite intermediate produced by 'mix'"
                in caplog.text)
        assert history == []

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_a_failure_runs_the_forward_once(self, run, monkeypatch):
        """A NaN embedding fails the first step (or `evaluate`) after one
        forward: the failing output's tape names the op, with no rerun."""
        train_mod = sys.modules["pgtr.train"]
        real_forward = train_mod.forward
        calls = []

        def forward(state):
            calls.append(True)
            return real_forward(state)

        state, fit, val, _ = self._setup(7)
        state.embeddings.data[3, 1] = np.nan
        monkeypatch.setattr(train_mod, "forward", forward)
        if run == "train":
            train(state, fit, val, TrainConfig(batch_size=32, max_epochs=2, patience=2))
        else:
            with pytest.raises(NumericsError, match="'mix'"):
                evaluate(state, fit, val, k=5)
        assert len(calls) == 1

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_a_step_inside_evaluate_gets_every_gradient(self, backbone, monkeypatch):
        """A training step that runs while `evaluate`'s forward is being
        made, on the same state, gives every parameter the gradient it gets
        outside `evaluate`, bit for bit: `evaluate` changes nothing the
        step reads."""
        train_mod = sys.modules["pgtr.train"]
        real_forward = train_mod.forward
        state, fit, val, _ = self._setup(7, backbone)
        users, items, seen = fit.users[:16], fit.items[:16], fit.user_item_matrix()

        def step():
            ad.zero_grad(state.parameters())
            loss, _ = batch_loss(state, users, items, seen)
            ad.backward(loss)
            return [p.grad for p in state.parameters()]

        want = step()
        got, inside = [], []

        def forward(s):
            if not inside:  # evaluate's call; the step's own forward is the real one
                inside.append(True)
                got.extend(step())
            return real_forward(s)

        monkeypatch.setattr(train_mod, "forward", forward)
        evaluate(state, fit, val, k=5)
        assert inside and len(got) == len(want)
        for g, w in zip(got, want, strict=True):
            assert g is not None and g.tobytes() == w.tobytes()

    def test_evaluate_leaves_parameters_as_found(self):
        """`evaluate` leaves every parameter's `.data` and `.grad` as it found
        them, also when its forward raises."""
        state, fit, val, _ = self._setup(7, "transform-gcn")
        loss, _ = batch_loss(state, fit.users[:16], fit.items[:16], fit.user_item_matrix())
        ad.backward(loss)
        params = state.parameters()
        params[-1].grad = None
        before = [(p.data, p.data.copy(), p.grad, None if p.grad is None else p.grad.copy())
                  for p in params]

        def assert_as_found():
            for p, (data, values, grad, grad_values) in zip(params, before, strict=True):
                assert p.data is data and p.data.tobytes() == values.tobytes()
                assert p.grad is grad
                assert grad is None or grad.tobytes() == grad_values.tobytes()

        evaluate(state, fit, val, k=5)
        assert_as_found()
        # a NaN embedding makes the forward raise; the embeddings' copy holds it too
        state.embeddings.data[3, 1] = before[0][1][3, 1] = np.nan
        with pytest.raises(NumericsError):
            evaluate(state, fit, val, k=5)
        assert_as_found()

    @pytest.mark.parametrize("part", ["loss", "gradient of 'embeddings'"])
    def test_nonfinite_without_a_failing_op_names_the_part(self, part, caplog, monkeypatch):
        """An Inf planted in the loss node (after the forward's check) is
        named by the loss op; a NaN planted in a parameter's gradient after
        `backward`, which no check before it sees, is named by the
        parameter."""
        train_mod = sys.modules["pgtr.train"]
        real_softmax, real_backward = train_mod._in_batch_softmax, ad.backward

        def in_batch_softmax(*args):
            loss = real_softmax(*args)
            if part == "loss":
                loss.data = np.array(np.inf)
            return loss

        def backward(loss):
            real_backward(loss)
            if part != "loss":
                state.embeddings.grad[0, 0] = np.nan

        state, fit, val, _ = self._setup(8)
        monkeypatch.setattr(train_mod, "_in_batch_softmax", in_batch_softmax)
        monkeypatch.setattr(ad, "backward", backward)
        with caplog.at_level(logging.WARNING, logger="pgtr.train"):
            train(state, fit, val, TrainConfig(batch_size=32, max_epochs=2, patience=2))
        named = ("intermediate produced by 'in_batch_softmax'" if part == "loss"
                 else part)
        assert f"training aborted at epoch 1: non-finite {named}" in caplog.text

    def test_history_schema(self):
        state, fit, val, _ = self._setup(4)
        _, history = train(state, fit, val, TrainConfig(batch_size=32, lr=1e-2,
                                                        max_epochs=2, patience=2, seed=4))
        for row in history:
            assert set(row) == {"epoch", "train_loss", "val_recall", "val_ndcg",
                                "skipped_pairs", "seconds", "eval_seconds"}
            assert 0 < row["eval_seconds"] < row["seconds"]

    def test_skipped_pairs_are_counted(self):
        """User 0 has interacted with every item of the one batch an epoch
        holds, so its four pairs have no negatives in every epoch."""
        users = [0, 0, 0, 0, 1, 1, 2, 2]
        items = [0, 1, 2, 3, 0, 1, 2, 3]
        fit = InteractionDataset(3, 4, users, items)
        val = InteractionDataset(3, 4, [], [])
        _, history = train(tiny_state(fit, seed=0), fit, val,
                           TrainConfig(batch_size=8, lr=1e-2, max_epochs=3, patience=3))
        assert [row["skipped_pairs"] for row in history] == [4, 4, 4]

    def test_batch_without_negatives_takes_no_step(self):
        """Batches of two from the fit above: a batch of two user-0 pairs
        keeps no pair, takes no step and counts both as skipped, while the
        other batches train.  The expected counts replay each epoch's
        shuffle of the pairs."""
        users = [0, 0, 0, 0, 1, 1, 2, 2]
        items = [0, 1, 2, 3, 0, 1, 2, 3]
        fit = InteractionDataset(3, 4, users, items)
        val = InteractionDataset(3, 4, [], [])
        cfg = TrainConfig(batch_size=2, lr=1e-2, max_epochs=3, patience=3)
        _, history = train(tiny_state(fit, seed=0), fit, val, cfg)
        rng = np.random.default_rng(cfg.seed)
        skipped, empty_batches = [], 0
        for _ in range(cfg.max_epochs):
            perm = rng.permutation(len(users))
            count = 0
            for lo in range(0, len(users), 2):
                batch = [(users[a], items[a]) for a in perm[lo:lo + 2]]
                kept = sum(negs.size > 0 for negs in in_batch_negatives(batch, fit.items_of_user()))
                count += len(batch) - kept
                empty_batches += kept == 0
            skipped.append(count)
        assert empty_batches > 0
        assert [row["skipped_pairs"] for row in history] == skipped
        assert all(math.isfinite(row["train_loss"]) for row in history)

    def test_epoch_without_a_step_stops_training(self, caplog):
        """User 0 trained on every item and holds every pair, so no batch
        keeps a pair: the first epoch records a NaN loss and training stops
        with the parameters untouched."""
        fit = InteractionDataset(2, 3, [0, 0, 0], [0, 1, 2])
        state = tiny_state(fit, seed=0)
        before = [t.data.copy() for t in state.parameters()]
        with caplog.at_level(logging.WARNING, logger="pgtr.train"):
            state, history = train(state, fit, InteractionDataset(2, 3, [], []),
                                   TrainConfig(batch_size=2, max_epochs=3, patience=3))
        assert "training stopped at epoch 1: no batch kept a pair with a negative" in caplog.text
        assert len(history) == 1
        assert math.isnan(history[0]["train_loss"]) and history[0]["skipped_pairs"] == 3
        for got, want in zip(state.parameters(), before, strict=True):
            np.testing.assert_array_equal(got.data, want)

    @pytest.mark.parametrize("name", ["fit", "val"])
    def test_datasets_of_another_shape_rejected_before_a_step(self, name):
        """A dataset built for 61 items on a 60-item model: the error names
        it and both shapes before any step, so no parameter moves."""
        ds = clustered_interactions(40, 60, 2, per_user=6, seed=1)
        fit, val, _ = split_by_ratio(ds, SplitSpec(0.8, seed=1))
        state = init_model(build_graph(fit), PGTRConfig(d=8, h_c=4, n_d=2, n_r=2), seed=1)
        before = [t.data.copy() for t in state.parameters()]
        data = {"fit": fit, "val": val}
        wide = data[name]
        data[name] = InteractionDataset(wide.n_users, 61, wide.users, wide.items)
        with pytest.raises(ValueError, match=re.escape(
                f"train's {name} has (n_users, n_items) = (40, 61) but the model has (40, 60)")):
            train(state, data["fit"], data["val"], TrainConfig(batch_size=32, max_epochs=3))
        for got, want in zip(state.parameters(), before, strict=True):
            np.testing.assert_array_equal(got.data, want)

    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3), ("max_epochs", 0), ("batch_size", 1), ("patience", 0),
        ("lr", float("nan")), ("lr", float("inf")), ("batch_size", float("nan")),
        ("batch_size", 8.5), ("max_epochs", 1.5), ("patience", True),
        ("seed", 1.5), ("lr", "0.1"), ("seed", -1)])
    def test_config_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_config_fields_cannot_be_assigned(self, field):
        cfg = TrainConfig()
        for value in (getattr(cfg, field), 0):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field, value)


class TestStepBuffers:
    """`train`'s two flat buffers, the score table's and the mask's, held
    for the call and written by every step."""

    @staticmethod
    def _setup(dtype, backbone):
        ds = clustered_interactions(24, 30, 3, per_user=8, seed=3)
        fit, val, _ = split_by_ratio(ds, SplitSpec(0.75, seed=3))
        g = build_graph(fit)
        cfg = PGTRConfig(d=6, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2, n_r=2,
                         lambda3=0.5, backbone=backbone)
        state = init_model(g, cfg, seed=3)
        if dtype == np.float64:
            state = as_float64(state, g)
        return state, fit, val

    @staticmethod
    def _step(state, users, items, user_items, **tables):
        """One step's loss bytes and each parameter's gradient bytes."""
        params = state.parameters()
        ad.zero_grad(params)
        loss, _ = batch_loss(state, users, items, user_items, **tables)
        ad.backward(loss)
        return [loss.data.tobytes()] + [None if p.grad is None else p.grad.tobytes()
                                        for p in params]

    @staticmethod
    def _spy_tables(monkeypatch, seen):
        """Make `_in_batch_softmax` call `seen(table, loss)` on each step."""
        train_mod = sys.modules["pgtr.train"]
        real = train_mod._in_batch_softmax

        def spy(*args):
            loss = real(*args)
            seen(args[-1], loss)
            return loss

        monkeypatch.setattr(train_mod, "_in_batch_softmax", spy)

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_buffers_match_fresh_tables(self, dtype, backbone):
        """Batches whose tables grow, shrink and grow again, written into
        buffers that start full of NaN and True: every step's loss and
        gradients are the bytes of `batch_loss` allocating its own.  The
        mask marks the dropped entries, and a pair whose entry is not
        marked is one the user never trained on: each batch with such a
        pair added, in its user's row, the table's last, is rejected as
        without the buffers, which a stale True there would hide."""
        state, fit, _ = self._setup(dtype, backbone)
        user_items = fit.user_item_matrix()
        order = np.random.default_rng(5).permutation(len(fit))
        sizes = [40, 6, 24, 3, len(fit)]
        size = state.n_users * state.n_items
        tables = (np.full(size, np.nan, dtype=dtype), np.ones(size, dtype=bool))
        shapes = []
        for b in sizes:
            sel = order[:b]
            users, items = fit.users[sel], fit.items[sel]
            shapes.append((np.unique(users).size, np.unique(items).size))
            last = users.max()
            never = np.flatnonzero(~user_items[last].toarray().ravel())[-1]
            bad_users, bad_items = np.append(users, last), np.append(items, never)
            with pytest.raises(ValueError, match="not among the user's training items") as err:
                batch_loss(state, bad_users, bad_items, user_items)
            with pytest.raises(ValueError, match=re.escape(str(err.value))):
                batch_loss(state, bad_users, bad_items, user_items, _tables=tables)
            assert (self._step(state, users, items, user_items, _tables=tables)
                    == self._step(state, users, items, user_items))
            order = np.roll(order, 7)
        areas = [m * n for m, n in shapes]
        assert areas[0] > areas[1] < areas[2] > areas[3] < areas[4] == max(areas)
        # the steps wrote the buffers' prefixes, and nothing past them
        assert np.isfinite(tables[0][:areas[4]]).all() and np.isnan(tables[0][areas[4]:]).all()
        assert not tables[1][:areas[4]].all() and tables[1][areas[4]:].all()
        # a score buffer of another dtype is left alone, not cast into
        other = np.full(size, np.nan, dtype=np.float64 if dtype == np.float32 else np.float32)
        assert (self._step(state, users, items, user_items, _tables=(other, tables[1]))
                == self._step(state, users, items, user_items))
        assert np.isnan(other).all()

    def test_consecutive_steps_share_one_buffer(self, monkeypatch):
        """Each step's table, held by its loss's backward, is a view of one
        base buffer of the call, whatever its shape."""
        held = []

        def seen(table, loss):
            views = [a for a in held_arrays(loss) if a.base is table]
            assert len(views) == 1 and views[0].ndim == 2
            held.append((table, views[0].shape))

        self._spy_tables(monkeypatch, seen)
        state, fit, val = self._setup(np.float32, "lightgcn")
        train(state, fit, val, TrainConfig(batch_size=32, max_epochs=2, patience=2))
        assert len(held) >= 4 and len({shape for _, shape in held}) > 1
        buffer = held[0][0]
        assert buffer.ndim == 1 and buffer.dtype == np.float32
        assert all(table is buffer for table, _ in held)

    def test_buffers_released_when_train_returns(self, monkeypatch):
        buffers = []
        self._spy_tables(monkeypatch, lambda table, loss: buffers.append(weakref.ref(table)))
        state, fit, val = self._setup(np.float32, "lightgcn")
        train(state, fit, val, TrainConfig(batch_size=32, max_epochs=2, patience=2))
        assert buffers and all(ref() is None for ref in buffers)
        for name, module in list(sys.modules.items()):
            if name == "pgtr" or name.startswith("pgtr."):
                held = [key for key, value in vars(module).items()
                        if isinstance(value, np.ndarray)]
                assert not held, f"{name} holds arrays {held}"

    def test_concurrent_calls_use_their_own_buffers(self, monkeypatch):
        """Three concurrent `train` calls, more than the host's cores, with
        the interpreter switching threads often: each writes one buffer of
        its own and trains exactly as a call alone does."""
        cfg = TrainConfig(batch_size=32, max_epochs=2, patience=2)
        n_calls = 3

        def run():
            state, fit, val = self._setup(np.float32, "lightgcn")
            _, history = train(state, fit, val, cfg)
            return [h["train_loss"] for h in history], [p.data.tobytes()
                                                        for p in state.parameters()]

        alone = run()
        used = {}
        all_started = threading.Barrier(n_calls, timeout=60)

        def seen(table, loss):
            tables = used.setdefault(threading.get_ident(), [])
            if not tables:
                all_started.wait()  # every call holds its buffers from here on
            tables.append(table)

        self._spy_tables(monkeypatch, seen)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=n_calls) as pool:
                futures = [pool.submit(run) for _ in range(n_calls)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [alone] * n_calls
        assert len(used) == n_calls
        firsts = [tables[0] for tables in used.values()]
        assert all(t is tables[0] for tables in used.values() for t in tables)
        assert len({id(t) for t in firsts}) == n_calls


@settings(max_examples=40, deadline=None)
@given(ds=awkward_interactions(), batch_size=st.integers(2, 8), groups=st.integers(1, 2),
       h_c=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_pipeline_trains_or_fails_before_training(ds, batch_size, groups, h_c, seed):
    """Split, graph, model, two epochs, evaluation and a checkpoint round
    trip on an awkward graph: a typed error comes before `train`, or every
    stage finishes with finite numbers.  A NaN loss marks only an epoch
    that took no step, and is the last one."""
    try:
        fit, val, test = split_by_ratio(ds, SplitSpec(0.8, seed=seed))
        graph = build_graph(fit)
        cfg = PGTRConfig(d=4, h_c=h_c, h_d=2, h_r=2, h_y=2, n_d=groups, n_r=groups)
        state = init_model(graph, cfg, seed=seed)
        train_cfg = TrainConfig(batch_size=batch_size, max_epochs=2, patience=2, seed=seed)
    except (DataError, EncodingError, ValueError):
        return
    state, history = train(state, fit, val, train_cfg)
    assert 1 <= len(history) <= 2
    for row in history:
        no_step = row["skipped_pairs"] == len(fit)
        assert math.isnan(row["train_loss"]) if no_step else math.isfinite(row["train_loss"])
        assert not no_step or row is history[-1]
        recall, ndcg = row["val_recall"], row["val_ndcg"]
        assert (math.isfinite(recall) and math.isfinite(ndcg)) if len(val) else (
            math.isnan(recall) and math.isnan(ndcg))
    try:
        metrics = evaluate(state, fit, test, k=5)
    except ValueError as err:
        assert str(err) == "no user has test items to evaluate"
    else:
        assert math.isfinite(metrics.recall_at_k) and math.isfinite(metrics.ndcg_at_k)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(state, path)
        restored = load_checkpoint(path, graph)
    np.testing.assert_array_equal(forward(restored).data, forward(state).data)


def brute_force_metrics(scores, observed, targets, k):
    """Exhaustive-sort oracle for a single user."""
    m = scores.size
    order = sorted(range(m), key=lambda i: (-scores[i], i))
    order = [i for i in order if i not in observed][:k]
    hits = [i in targets for i in order]
    recall = sum(hits) / len(targets)
    dcg = sum(h / math.log2(r + 2) for r, h in enumerate(hits))
    idcg = sum(1 / math.log2(r + 2) for r in range(min(k, len(targets))))
    return recall, dcg / idcg


class TestRankingMetrics:
    def test_half_recall(self):
        scores = np.zeros((1, 30))
        scores[0, 3] = 1.0
        got = ranking_metrics(scores, [[]], [[3, 25]], k=20)
        # item 25 sits beyond rank 20 only if pushed out; with 30 items and
        # k=20 both fit; force one hit by shrinking k
        got = ranking_metrics(scores, [[]], [[3, 25]], k=1)
        assert got.recall_at_k == pytest.approx(0.5)

    def test_ndcg_rank_one(self):
        scores = np.array([[0.9, 0.1, 0.0]])
        got = ranking_metrics(scores, [[]], [[0]], k=20)
        assert got.ndcg_at_k == pytest.approx(1.0)

    def test_ndcg_rank_two(self):
        scores = np.array([[0.9, 0.5, 0.0]])
        got = ranking_metrics(scores, [[]], [[1]], k=20)
        assert got.ndcg_at_k == pytest.approx(1 / math.log2(3), abs=1e-4)
        assert got.ndcg_at_k == pytest.approx(0.6309, abs=1e-4)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n_items = int(rng.integers(5, 60))
            k = int(rng.integers(1, 25))
            scores = np.round(rng.random((1, n_items)), 2)  # force ties
            observed = rng.choice(n_items, size=min(3, n_items - 2), replace=False)
            remaining = np.setdiff1d(np.arange(n_items), observed)
            targets = rng.choice(remaining, size=min(4, remaining.size), replace=False)
            got = ranking_metrics(scores, [observed], [targets], k=k)
            want_recall, want_ndcg = brute_force_metrics(
                scores[0], set(observed.tolist()), set(targets.tolist()), k)
            assert got.recall_at_k == want_recall
            assert got.ndcg_at_k == pytest.approx(want_ndcg, abs=1e-12)

    def test_observed_items_never_in_topk(self):
        rng = np.random.default_rng(7)
        scores = rng.random((5, 15))
        observed = [rng.choice(15, size=5, replace=False) for _ in range(5)]
        targets = [np.setdiff1d(np.arange(15), o)[:3] for o in observed]
        got = ranking_metrics(scores, observed, targets, k=12)
        # recompute top lists the way the metric does and assert masking
        for u in range(5):
            s = scores[u].copy()
            s[observed[u]] = -np.inf
            top = np.argsort(-s, kind="stable")[:12]
            top = top[np.isfinite(s[top])]
            assert not set(top.tolist()) & set(observed[u].tolist())
            assert top.size == 10  # 15 items minus 5 observed

    def test_adding_a_hit_never_decreases_metrics(self):
        rng = np.random.default_rng(8)
        scores = rng.random((1, 40))
        observed = np.array([], dtype=int)
        targets = np.array([5, 11])
        base = ranking_metrics(scores, [observed], [targets], k=10)
        top = np.argsort(-scores[0], kind="stable")[:10]
        extra = next(i for i in top if i not in targets)
        more = ranking_metrics(scores, [observed], [np.append(targets, extra)], k=10)
        assert more.recall_at_k >= base.recall_at_k or more.ndcg_at_k >= base.ndcg_at_k

    def test_users_without_test_items_excluded(self):
        scores = np.random.default_rng(9).random((3, 10))
        got = ranking_metrics(scores, [[], [], []], [[1], [], [2]], k=5)
        assert got.user_indices.tolist() == [0, 2]

    def test_no_evaluable_users_rejected(self):
        with pytest.raises(ValueError):
            ranking_metrics(np.zeros((2, 4)), [[], []], [[], []], k=2)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            ranking_metrics(np.zeros((1, 4)), [[]], [[1]], k=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.True_, "2", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            ranking_metrics(np.zeros((1, 4)), [[]], [[1]], k=k)

    def test_non_integer_k_rejected_by_evaluate(self):
        ds = clustered_interactions(12, 16, 2, per_user=5, seed=10)
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5"):
            evaluate(tiny_state(ds, seed=10), ds, ds, k=2.5)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_k_accepted(self, k):
        scores = np.array([[0.9, 0.5, 0.7, 0.1]])
        got = ranking_metrics(scores, [[]], [[1, 2]], k=k)
        want = ranking_metrics(scores, [[]], [[1, 2]], k=2)
        assert (got.recall_at_k, got.ndcg_at_k, got.k) == (want.recall_at_k, want.ndcg_at_k, 2)
        assert type(got.k) is int

    def test_repeated_test_id_counts_once(self):
        """Per-user lists and a matrix give the same recall when a test id
        repeats: the repeat is one target, not two."""
        scores = np.array([[0.9, 0.1, 0.2, 0.3]])
        from_lists = ranking_metrics(scores, [[]], [[0, 0]], k=2)
        from_matrix = ranking_metrics(scores, [[]], sp.csr_matrix([[1, 0, 0, 0]]), k=2)
        assert from_lists.recall_at_k == from_matrix.recall_at_k == 1.0
        assert from_lists.ndcg_at_k == from_matrix.ndcg_at_k == 1.0

    def test_nan_scores_are_dropped(self):
        """A NaN is dropped like an observed item: it neither hides nor
        displaces the finite entries, so recall@k never falls as k grows."""
        scores = np.array([[0.5, np.nan, np.nan, np.nan]])
        recalls = [ranking_metrics(scores, [[]], [[0]], k=k).recall_at_k for k in (1, 2, 3, 4)]
        assert recalls == [1.0, 1.0, 1.0, 1.0]


@st.composite
def ranking_cases(draw):
    """Tie-heavy quantized score tables with +inf, -inf, NaN and -0.0
    entries, observed and test items (repeats allowed), users without test
    items and k up to past n_items; a table where no user has test items
    must fail as the oracle does.  The table is float64, float32 or int32
    (which holds neither infinity, NaN nor -0.0); the oracle ranks it in
    float64."""
    n_users = draw(st.integers(1, 10))
    n_items = draw(st.integers(1, 25))
    k = draw(st.integers(1, 30))
    levels = draw(st.integers(1, 4))
    p_inf, p_pos_inf, p_nan, p_obs, p_test = (draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
                                              for _ in range(5))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(-levels, levels + 1, size=(n_users, n_items)).astype(dtype)
    if dtype is not np.int32:
        scores /= levels
        scores[(scores == 0) & (rng.random(scores.shape) < 0.5)] = -0.0
        scores[rng.random(scores.shape) < p_inf] = -np.inf
        scores[rng.random(scores.shape) < p_pos_inf] = np.inf
        scores[rng.random(scores.shape) < p_nan] = np.nan
    observed = [np.flatnonzero(rng.random(n_items) < p_obs) for _ in range(n_users)]
    # user 0 leaves fewer than k items unobserved
    observed[0] = rng.permutation(n_items)[:max(0, n_items - k + 1)]
    observed = [np.concatenate([o, o[:1]]) for o in observed]
    tests = [np.flatnonzero(rng.random(n_items) < p_test).tolist() for _ in range(n_users)]
    n_repeats = draw(st.integers(0, 2))
    tests = [t + t[:n_repeats] for t in tests]
    return scores, observed, tests, k


@st.composite
def cut_tie_cases(draw):
    """Continuous score tables small enough for one ranking block.  Among a
    row's unobserved items, even rows get copies of their k-th score past
    the cut, so a tie crosses it; odd rows get a score one ulp below the
    k-th past the cut, one ulp above it and a repeated score inside the top
    k, so no tie crosses it.  Half of the tied items are test items."""
    n_users = draw(st.integers(2, 12))
    n_items = draw(st.integers(4, 60))
    k = draw(st.integers(1, n_items - 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.standard_normal((n_users, n_items))
    observed = [rng.choice(n_items, size=int(rng.integers(0, n_items - k - 2)), replace=False)
                for _ in range(n_users)]
    tests = [np.flatnonzero(rng.random(n_items) < 0.2) for _ in range(n_users)]
    for u in range(n_users):
        free = np.setdiff1d(np.arange(n_items), observed[u])
        order = free[np.argsort(-scores[u, free], kind="stable")]
        kth, past = scores[u, order[k - 1]], order[k:]
        if u % 2 == 0:
            tied = rng.choice(past, size=int(rng.integers(1, past.size + 1)), replace=False)
            scores[u, tied] = kth
            tests[u] = np.union1d(tests[u], tied[rng.random(tied.size) < 0.5])
        else:
            scores[u, past[0]] = np.nextafter(kth, -np.inf)
            if k >= 2:
                scores[u, order[k - 2]] = np.nextafter(kth, np.inf)
                scores[u, order[0]] = scores[u, order[1]]
    return scores, observed, tests, k


@st.composite
def listed_tie_cases(draw):
    """Score tables of one to four levels, small enough for one ranking
    block, whose test items only column order can rank.  Odd rows are
    short: fewer than k of their entries are finite and unobserved, the
    rest observed or NaN or ±inf.  In a row whose first k listed entries
    are all finite, test items take at least one entry at its k-th value
    (listed or not); in every row, they take some of the listed entries
    that tie another one, and a few other items.  Float64 or float32."""
    n_users = draw(st.integers(1, 10))
    n_items = draw(st.integers(2, 40))
    k = draw(st.integers(1, n_items))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, draw(st.integers(1, 4)), size=(n_users, n_items)).astype(dtype)
    observed, tests = [], []
    for u in range(n_users):
        free = rng.permutation(n_items)
        if u % 2:
            gone = free[int(rng.integers(0, k)):]
            masked = rng.random(gone.size) < 0.5
            observed.append(gone[masked])
            scores[u, gone[~masked]] = rng.choice([np.nan, np.inf, -np.inf], size=(~masked).sum())
        else:
            observed.append(free[:int(rng.integers(0, n_items - k + 1))])
        s = scores[u].astype(np.float64)
        s[observed[u]] = -np.inf
        top = np.argsort(-s, kind="stable")[:k]  # as the oracle lists a row
        top = top[np.isfinite(s[top])]
        values, counts = np.unique(s[top], return_counts=True)
        tied = top[np.isin(s[top], values[counts > 1])]
        at_kth = np.flatnonzero(s == s[top[-1]]) if top.size == k else np.zeros(0, int)
        picks = [rng.choice(at_kth, size=int(rng.integers(1, at_kth.size + 1)), replace=False)
                 if at_kth.size else at_kth,
                 tied[rng.random(tied.size) < 0.5],
                 np.flatnonzero(rng.random(n_items) < 0.1)]
        tests.append(np.unique(np.concatenate(picks)))
    return scores, observed, tests, k


def assert_matches_loop_oracle(scores, observed, tests, k):
    want = ranking_metrics_loop(scores, observed, tests, k)
    got = ranking_metrics(scores, observed, tests, k)
    fields = (got.recall_at_k, got.ndcg_at_k, got.k, got.per_user_recall,
              got.per_user_ndcg, got.user_indices)
    for g, w in zip(fields, want):
        np.testing.assert_array_equal(g, w)
    assert got.user_indices.dtype == np.int64


def assert_matches_or_fails_as_loop_oracle(scores, observed, tests, k):
    try:
        ranking_metrics_loop(scores, observed, tests, k)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            ranking_metrics(scores, observed, tests, k)
        return
    assert_matches_loop_oracle(scores, observed, tests, k)


@contextlib.contextmanager
def rank_blocks_of(n_rows, scores):
    """`ranking_metrics` ranks `scores` in blocks of `n_rows` rows (the last
    may be shorter), and its tied rows `n_rows` at a time."""
    train_mod = sys.modules["pgtr.train"]
    n_users, n_items = scores.shape
    with mock.patch.object(train_mod, "_RANK_BLOCK_ENTRIES", n_rows * n_items):
        assert train_mod._spans(n_users, n_items)[0] == (0, min(n_rows, n_users))
        yield


class TestRankingMatchesLoopOracle:
    @given(case=ranking_cases())
    def test_random_tables(self, case):
        assert_matches_or_fails_as_loop_oracle(*case)

    @given(case=cut_tie_cases())
    def test_ties_across_the_cut(self, case):
        """One block holds rows a tie crosses the k-th value in and rows
        without one; both rank as the oracle's stable sort does."""
        scores, observed, tests, k = case
        if not any(len(t) for t in tests):
            return
        neg = -scores
        for u, o in enumerate(observed):
            neg[u, o] = np.inf
        kth = np.sort(neg, axis=1)[:, k - 1:k]
        at_or_below = np.count_nonzero(neg <= kth, axis=1)
        assert (at_or_below[0::2] > k).all() and (at_or_below[1::2] == k).all()
        assert scores.size <= sys.modules["pgtr.train"]._RANK_BLOCK_ENTRIES
        assert_matches_loop_oracle(scores, observed, tests, k)

    @given(case=listed_tie_cases())
    def test_ties_inside_the_list_and_at_the_kth_value(self, case):
        """Test items at the k-th value (listed or cut), tied with other
        listed items, or in rows with fewer than k finite entries rank as
        the oracle's stable sort ranks them."""
        scores, observed, tests, k = case
        if not any(len(t) for t in tests):
            return
        assert scores.size <= sys.modules["pgtr.train"]._RANK_BLOCK_ENTRIES
        assert_matches_loop_oracle(scores, observed, tests, k)

    def test_temporaries_stay_near_one_block(self):
        """Ranking a tie-heavy table many blocks large allocates a few
        blocks' worth of temporaries besides its (N, k) gains table: no
        full-table array, and tied rows are gathered a block at a time."""
        rng = np.random.default_rng(21)
        n_users, n_items, k = 1000, 3000, 20
        scores = rng.integers(0, 3, size=(n_users, n_items)).astype(np.float32)
        users = np.repeat(np.arange(n_users), 30)
        items = rng.integers(0, n_items, size=users.size)
        observed = InteractionDataset(n_users, n_items, users[::4], items[::4]).user_item_matrix()
        tests = InteractionDataset(n_users, n_items, users, items).user_item_matrix()
        assert 25 <= tests.nnz / n_users <= 30
        train_mod = sys.modules["pgtr.train"]
        block_bytes = (train_mod._RANK_BLOCK_ENTRIES // n_items) * n_items * scores.itemsize
        assert scores.nbytes >= 10 * block_bytes
        tracemalloc.start()
        try:
            ranking_metrics(scores, observed, tests, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * block_bytes + n_users * k * 8

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_signed_zeros_tie(self, dtype):
        """0.0 and -0.0 compare equal, so they rank as ties in column order,
        as the oracle's stable sort ranks them."""
        scores = np.tile(np.array([0.0, -0.0, 1.0, -0.0, 0.0, -0.0, 0.0, -1.0], dtype), (8, 1))
        observed, tests = [[]] * 8, [[u] for u in range(8)]  # user u's test item is u
        got = ranking_metrics(scores, observed, tests, k=4)
        # the first four: item 2, then the lowest-index zeros 0, 1 and 3
        assert got.per_user_recall.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
        assert_matches_loop_oracle(scores, observed, tests, 4)

    def test_hit_rank_skips_non_finite_and_later_ties(self, monkeypatch):
        """The hit (item 3) ties at 0.5 with items 1, 5, 7 and 8; the top 6
        keep items 1, 3, 5 and 7 of them, after the +inf item 0 and 0.9.
        The +inf takes a slot but no rank, and NaN is not listed, so the hit
        ranks third (after 0.9 and item 1) and the list holds 5 entries.
        The tie sends the row back to `scores` once, to be read in column
        order."""
        scores = np.array([[np.inf, 0.5, np.nan, 0.5, 0.9, 0.5, 0.1, 0.5, 0.5, -np.inf]])
        train_mod = sys.modules["pgtr.train"]
        real_negated = train_mod._negated
        calls = []

        def recording_negated(scores, rows, observed, dtype):
            calls.append((rows, real_negated(scores, rows, observed, dtype)))
            return calls[-1][1]

        monkeypatch.setattr(train_mod, "_negated", recording_negated)
        got = ranking_metrics(scores, [[]], [[3]], k=6)
        [(block, buffer), (tied_rows, _)] = calls
        assert block == slice(0, 1) and tied_rows.tolist() == [0]
        # the block's buffer, partitioned in place: its first 6 values are listed
        assert np.sort(buffer[0, :6]).tolist() == [-np.inf, -0.9, -0.5, -0.5, -0.5, -0.5]
        assert np.count_nonzero(np.isfinite(buffer[0, :6])) == 5
        assert got.per_user_ndcg.tolist() == [1 / np.log2(4)]  # rank 2: the third slot
        assert got.per_user_recall.tolist() == [1.0]
        assert_matches_loop_oracle(scores, [[]], [[3]], 6)

    @given(case=ranking_cases())
    def test_recall_never_falls_as_k_grows(self, case):
        scores, observed, tests, _ = case
        if not any(len(t) for t in tests):
            return
        recalls = [ranking_metrics(scores, observed, tests, k).per_user_recall
                   for k in range(1, scores.shape[1] + 2)]
        for shorter, longer in zip(recalls, recalls[1:]):
            assert (longer >= shorter).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_caller_table_is_unchanged(self, dtype):
        """Each block is negated into a buffer of its own, partitioned in
        place, and tied rows are negated again from the table, so the
        caller's table, NaN and infinities included, keeps every bit."""
        rng = np.random.default_rng(5)
        scores = rng.integers(-2, 3, size=(9, 12)).astype(dtype)
        if dtype is not np.int32:
            scores[rng.random(scores.shape) < 0.2] = np.nan
            scores[rng.random(scores.shape) < 0.1] = np.inf
            scores[rng.random(scores.shape) < 0.1] = -np.inf
            scores[scores == 0] = -0.0
        observed = [rng.choice(12, size=3, replace=False) for _ in range(9)]
        tests = [rng.choice(12, size=4, replace=False) for _ in range(9)]
        before = scores.copy()
        with rank_blocks_of(2, scores):
            assert_matches_loop_oracle(scores, observed, tests, 5)
        assert_matches_loop_oracle(scores, observed, tests, 5)
        assert scores.dtype == dtype and scores.tobytes() == before.tobytes()

    @pytest.mark.parametrize("scores, got", [
        (np.zeros(4), "a 1-D float64 array"),
        ([[0.1, 0.9], [0.2, 0.3]], "list"),
        (np.zeros((2, 4, 1)), "a 3-D float64 array"),
        (np.array([["a", "b"], ["c", "d"]]), "a 2-D <U1 array"),
        (np.zeros((2, 4), dtype=bool), "a 2-D bool array"),
        (np.zeros((2, 4), dtype=complex), "a 2-D complex128 array"),
    ], ids=["1-d", "list", "3-d", "strings", "bool", "complex"])
    def test_malformed_score_table_rejected(self, scores, got):
        with pytest.raises(ValueError, match=rf"^scores must be a 2-D array of real integers "
                                             rf"or floats, got {re.escape(got)}$"):
            ranking_metrics(scores, [[], []], [[0], [1]], k=2)

    @pytest.mark.parametrize("entries, rows", [
        (70, [2] * 20),
        (29, [1] * 40),  # fewer entries than a row: blocks of one row
        (90, [3] * 13 + [1]),  # a short last block
    ], ids=["2-row", "1-row", "short-last"])
    def test_blocks_agree_with_one_pass(self, monkeypatch, entries, rows):
        rng = np.random.default_rng(13)
        scores = np.round(rng.random((40, 30)), 1)
        observed = [rng.choice(30, size=5, replace=False) for _ in range(40)]
        tests = [rng.choice(30, size=int(rng.integers(0, 4)), replace=False)
                 for _ in range(40)]
        whole = ranking_metrics(scores, observed, tests, k=7)
        train_mod = sys.modules["pgtr.train"]
        block_rows = []
        real_negated = train_mod._negated

        def recording_negated(scores, rows, observed, dtype):
            if isinstance(rows, slice):  # a block of the first phase, not tied rows
                block_rows.append(rows.stop - rows.start)
            return real_negated(scores, rows, observed, dtype)

        monkeypatch.setattr(train_mod, "_negated", recording_negated)
        monkeypatch.setattr(train_mod, "_RANK_BLOCK_ENTRIES", entries)
        blocked = ranking_metrics(scores, observed, tests, k=7)
        assert block_rows == rows
        np.testing.assert_array_equal(blocked.per_user_ndcg, whole.per_user_ndcg)
        np.testing.assert_array_equal(blocked.per_user_recall, whole.per_user_recall)
        np.testing.assert_array_equal(blocked.user_indices, whole.user_indices)

    @pytest.mark.parametrize("observed, tests, message", [
        ([[]], [[1], [2]], "observed_items has 1 rows but scores has 2"),
        ([[], []], [[1]], "test_items has 1 rows but scores has 2"),
        ([[-1], []], [[1], [2]], r"observed_items holds item id -1 outside \[0, 4\)"),
        ([[4], []], [[1], [2]], r"observed_items holds item id 4 outside \[0, 4\)"),
        ([[], []], [[1], [2, 9]], r"test_items holds item id 9 outside \[0, 4\)"),
        ([[], []], [[-2], [2]], r"test_items holds item id -2 outside \[0, 4\)"),
        (sp.csr_matrix((2, 5), dtype=bool), [[1], [2]],
         r"observed_items has shape \(2, 5\) but scores has shape \(2, 4\)"),
        ([[], []], sp.csr_matrix((3, 4), dtype=bool),
         r"test_items has shape \(3, 4\) but scores has shape \(2, 4\)"),
        ([[], []], [[1e30], [2]], r"test_items holds item id 1000000000000000019884624838656 "
                                  r"outside \[0, 4\)"),
    ])
    def test_malformed_item_lists_rejected(self, observed, tests, message):
        with pytest.raises(ValueError, match=message):
            ranking_metrics(np.zeros((2, 4)), observed, tests, k=2)

    @pytest.mark.parametrize("observed, tests, message", [
        ([[]], [[1.7]], r"^test_items row 0 must hold integer ids, got float64 values$"),
        ([[]], [[1, np.nan]], r"^test_items row 0 must hold integer ids, got float64 values$"),
        ([[True]], [[1]], r"^observed_items row 0 must hold integer ids, got bool values$"),
    ])
    def test_non_integer_item_ids_rejected(self, observed, tests, message):
        """A truncated 1.7 would count item 1 as a hit, and True would mask
        item 1."""
        with pytest.raises(ValueError, match=message):
            ranking_metrics(np.array([[0.1, 0.9, 0.2]]), observed, tests, k=1)

    def test_whole_float_item_ids_accepted(self):
        got = ranking_metrics(np.array([[0.1, 0.9, 0.2]]), [[0.0]], [[1.0]], k=1)
        assert got.recall_at_k == 1.0


class TestRankingShortcuts:
    """Each whole-array shortcut of `ranking_metrics`' second phase, on a
    fixed table, against the loop oracle bit for bit: the -inf count taken
    only when a listed value is -inf, one DCG sum over rows that list k
    finite values, hits counted per user, and the ideal DCG read from a
    table by list length."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_listing_nan_and_neg_inf(self, dtype):
        """Row 0 lists -inf (its +inf score) and NaN (it has fewer than k
        non-NaN entries), so its minimum listed value reads NaN; its hits
        rank after the -inf, which takes no rank.  Row 1 lists neither."""
        scores = np.array([[np.inf, 0.3, np.nan, 0.1, np.nan, 0.2],
                           [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]], dtype=dtype)
        observed, tests = [[5], []], [[1, 3], [1, 4]]
        got = ranking_metrics(scores, observed, tests, k=5)
        assert got.per_user_ndcg[0] == 1.0  # items 1 and 3 rank first and second
        assert_matches_loop_oracle(scores, observed, tests, 5)

    def test_short_rows_beside_full_rows(self):
        """k = 20 over 30 items.  Row 0 leaves 12 items unobserved, row 1
        lists 5 -inf values before 15 finite ones (its k-th value is
        finite), row 2 has 17 NaN scores; every finite listed entry of those
        rows is a test item.  Summed over all k slots, their zero-padded
        gains would round differently from a sum over their 12, 15 and 13
        entries.  Row 3 lists k finite values."""
        rng = np.random.default_rng(3)
        n_items, k = 30, 20
        scores = rng.permutation(np.arange(4 * n_items, dtype=np.float64)).reshape(4, n_items)
        scores /= 4 * n_items
        observed = [rng.permutation(n_items)[:18], [], [], [0, 1]]
        tests = [np.setdiff1d(np.arange(n_items), observed[0])]
        scores[1, :5] = np.inf
        tests.append(5 + np.argsort(-scores[1, 5:], kind="stable")[:15])
        scores[2, 13:] = np.nan
        tests += [np.arange(13), [2, 5, 7]]
        got = ranking_metrics(scores, observed, tests, k)
        assert got.per_user_recall[:3].tolist() == [1.0, 1.0, 1.0]
        assert_matches_loop_oracle(scores, observed, tests, k)

    def test_more_test_items_than_k(self):
        """The ideal DCG caps each user's list length at k: users with 30,
        12 and 3 test items at k = 10 (one of the 3 ranks first), and one
        whose test items all rank first."""
        rng = np.random.default_rng(4)
        scores = rng.random((4, 40))
        tests = [rng.permutation(40)[:30], rng.permutation(40)[:12],
                 np.argsort(-scores[2])[[0, 15, 30]], np.argsort(-scores[3])[:10]]
        got = ranking_metrics(scores, [[]] * 4, tests, k=10)
        assert got.per_user_ndcg[3] == 1.0
        assert_matches_loop_oracle(scores, [[]] * 4, tests, 10)

    def test_k_above_the_item_count(self):
        """k = 10 over 6 items: a user whose 6 items are all test items
        lists them all, and the ideal DCG's list is 6 long."""
        scores = np.random.default_rng(5).random((3, 6))
        observed, tests = [[], [0], []], [np.arange(6), [1, 2], [3]]
        got = ranking_metrics(scores, observed, tests, k=10)
        assert (got.per_user_recall[0], got.per_user_ndcg[0]) == (1.0, 1.0)
        assert_matches_loop_oracle(scores, observed, tests, 10)


class TestRankingAcrossBlocks:
    """`TestRankingMatchesLoopOracle`'s properties with blocks of 1-4 rows,
    so a table's hits, ranks and ties cross block boundaries."""

    @given(case=ranking_cases(), n_rows=st.integers(1, 4))
    def test_random_tables(self, case, n_rows):
        with rank_blocks_of(n_rows, case[0]):
            assert_matches_or_fails_as_loop_oracle(*case)

    @given(case=cut_tie_cases(), n_rows=st.integers(1, 4))
    def test_ties_across_the_cut(self, case, n_rows):
        with rank_blocks_of(n_rows, case[0]):
            assert_matches_or_fails_as_loop_oracle(*case)

    @given(case=listed_tie_cases(), n_rows=st.integers(1, 4))
    def test_ties_inside_the_list_and_at_the_kth_value(self, case, n_rows):
        with rank_blocks_of(n_rows, case[0]):
            assert_matches_or_fails_as_loop_oracle(*case)


@st.composite
def item_rows(draw):
    """(n_items, rows, zeros): per-user item-id lists, in drawn order with
    repeats and empty rows, and per user the ids of stored False entries
    to add (a row may also hold them as True)."""
    n_users, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = st.lists(st.lists(st.integers(0, n_items - 1), max_size=6),
                    min_size=n_users, max_size=n_users)
    return n_items, draw(rows), draw(rows)


class TestSparseItemInputs:
    @pytest.mark.parametrize("sparse_observed, sparse_tests",
                             [(True, True), (True, False), (False, True)])
    def test_user_item_matrices_match_item_lists(self, sparse_observed, sparse_tests):
        ds = clustered_interactions(30, 40, 3, per_user=10, seed=4)
        fit, _, test = split_by_ratio(ds, SplitSpec(0.6, seed=4))
        scores = np.round(np.random.default_rng(4).random((30, 40)), 1)
        want = ranking_metrics(scores, fit.items_of_user(), test.items_of_user(), k=7)
        got = ranking_metrics(
            scores, fit.user_item_matrix() if sparse_observed else fit.items_of_user(),
            test.user_item_matrix() if sparse_tests else test.items_of_user(), k=7)
        for name in ("recall_at_k", "ndcg_at_k", "k", "per_user_recall",
                     "per_user_ndcg", "user_indices"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_stored_zeros_and_repeats(self):
        """Only stored nonzero entries mark an item, once each."""
        scores = np.array([[0.9, 0.8, 0.7, 0.6], [0.1, 0.2, 0.3, 0.4]])
        observed = sp.coo_matrix(([1.0, 0.0, 2.0, 2.0], ([0, 0, 1, 1], [0, 1, 3, 3])),
                                 shape=(2, 4))
        tests = sp.csr_matrix(([True, True, True], [1, 2, 2], [0, 1, 3]), shape=(2, 4))
        got = ranking_metrics(scores, observed, tests, k=1)
        want = ranking_metrics(scores, [[0], [3]], [[1], [2]], k=1)
        assert got.per_user_recall.tolist() == want.per_user_recall.tolist() == [1.0, 1.0]

    @given(drawn=item_rows())
    def test_every_form_gives_the_dataset_matrix(self, drawn):
        """`_user_items` builds no CSR of its own: item lists (of ints or of
        whole floats) and COO, CSC, float, unsorted or stored-False
        matrices each give the indptr, indices and data that
        `InteractionDataset.user_item_matrix()` builds from their pairs."""
        n_items, rows, zeros = drawn
        shape = (len(rows), n_items)
        users = np.repeat(np.arange(shape[0]), [len(r) for r in rows])
        items = np.array([i for r in rows for i in r], dtype=np.int64)
        want = InteractionDataset(*shape, users, items).user_item_matrix()
        coo = sp.coo_matrix((np.ones(items.size), (users, items)), shape=shape)
        indptr = np.cumsum([0] + [len(r) for r in rows])
        with_zeros = [r + z for r, z in zip(rows, zeros)]
        stored = [[True] * len(r) + [False] * len(z) for r, z in zip(rows, zeros)]
        forms = {
            "lists": rows,
            "floats": [np.array(r, dtype=np.float64) for r in rows],
            "coo": coo,
            "csc": coo.tocsc(),
            "float": coo.tocsr(),
            "unsorted": sp.csr_matrix((np.ones(items.size, dtype=bool), items, indptr),
                                      shape=shape),
            "stored False": sp.csr_matrix(
                (np.array([x for r in stored for x in r], dtype=bool),
                 np.array([i for r in with_zeros for i in r], dtype=np.int64),
                 np.cumsum([0] + [len(r) for r in with_zeros])), shape=shape),
        }
        for form, given_rows in forms.items():
            got = _user_items(given_rows, "rows", shape)
            assert got.shape == shape and got.dtype == bool, form
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part),
                                              err_msg=f"{form} {part}")

    def test_canonical_bool_matrix_is_used_as_is(self):
        """A canonical bool CSR with no stored False is returned unchanged;
        any other form is converted to one."""
        m = clustered_interactions(30, 40, 3, per_user=10, seed=4).user_item_matrix()
        assert _user_items(m, "m", m.shape) is m
        unsorted = m.copy()
        unsorted.indices[:2] = unsorted.indices[1::-1]
        unsorted.has_sorted_indices = False
        repeated = sp.csr_matrix((np.r_[m.data, True], np.r_[m.indices, m.indices[-1]],
                                  np.r_[m.indptr[:-1], m.nnz + 1]), shape=m.shape)
        stored_false = m.copy()
        stored_false.data[0] = False
        for other in (m.astype(np.float64), m.tocsc(), m.tocoo(), unsorted, repeated,
                      stored_false):
            got = _user_items(other, "m", m.shape)
            assert got is not other and got.format == "csr" and got.dtype == bool
            assert got.has_canonical_format and got.data.all()
            np.testing.assert_array_equal(got.toarray(), other.toarray() != 0)


class TestEvaluate:
    def test_model_evaluation_consistent_with_metric_core(self, monkeypatch):
        """evaluate ranks the model's table as ranking_metrics does with
        per-user lists, and builds no per-user lists itself."""
        ds = clustered_interactions(12, 16, 2, per_user=5, seed=10)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.5, seed=10))
        g = build_graph(fit)
        cfg = PGTRConfig(d=4, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2, n_r=2)
        state = init_model(g, cfg, seed=10)

        from pgtr.model import forward
        h = forward(state).data
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
        scores = h[:12] @ h[12:].T
        want = ranking_metrics(scores, fit.items_of_user(), test.items_of_user(), k=10)

        def no_lists(self):
            raise AssertionError("evaluate built per-user item lists")

        monkeypatch.setattr(InteractionDataset, "items_of_user", no_lists)
        got = evaluate(state, fit, test, k=10)
        assert got.recall_at_k == want.recall_at_k
        assert got.ndcg_at_k == want.ndcg_at_k
        np.testing.assert_array_equal(got.per_user_ndcg, want.per_user_ndcg)

    @staticmethod
    def _fresh_split(seed=11):
        """A model and (fit, test) datasets whose matrices are not built yet:
        copies of the split, so `build_graph(fit)` built none of theirs."""
        ds = clustered_interactions(20, 24, 2, per_user=6, seed=seed)
        fit, _, test = split_by_ratio(ds, SplitSpec(0.6, seed=seed))
        state = tiny_state(fit, seed=seed)
        return state, *(InteractionDataset(d.n_users, d.n_items, d.users, d.items)
                        for d in (fit, test))

    @pytest.mark.parametrize("side", ["observed", "test"])
    def test_matrix_raises_type_error(self, side):
        """`evaluate` takes datasets only; `ranking_metrics` takes matrices."""
        state, fit, test = self._fresh_split()
        args = {"observed": fit, "test": test}
        args[side] = args[side].user_item_matrix()
        with pytest.raises(TypeError, match=f"^evaluate's {side} must be an InteractionDataset, "
                                            "got csr_matrix; rank matrices with ranking_metrics$"):
            evaluate(state, **args, k=5)

    def test_dataset_form_builds_each_matrix_once(self, monkeypatch):
        """Three calls with the same datasets build each one's CSR on the
        first call only."""
        state, fit, test = self._fresh_split()
        built = []
        real = InteractionDataset._build_user_item_matrix

        def recording(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(InteractionDataset, "_build_user_item_matrix", recording)
        for _ in range(3):
            evaluate(state, fit, test, k=5)
        assert [id(ds) for ds in built] == [id(fit), id(test)]

    def test_zero_norm_row_raises_numerics_error(self, monkeypatch):
        ds = clustered_interactions(12, 16, 2, per_user=5, seed=10)
        state = tiny_state(ds, seed=10)
        train_mod = sys.modules["pgtr.train"]
        real_forward = train_mod.forward

        def forward(s):
            h = real_forward(s)
            h.data[14] = 0.0
            return h

        monkeypatch.setattr(train_mod, "forward", forward)
        with pytest.raises(NumericsError,
                           match=re.escape("zero-norm node row(s) [14]")):
            evaluate(state, ds, ds, k=5)
