"""Loss, negatives, training loop, and ranking metric tests."""
import logging
import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import pgtr.autodiff as ad
from pgtr.autodiff import NumericsError
from pgtr.data import InteractionDataset, SplitSpec, build_graph, split_by_ratio
from pgtr.model import PGTRConfig, forward, init_model
from pgtr.synthetic import clustered_interactions
from pgtr.train import (
    TrainConfig,
    _batch_mask,
    _user_items,
    batch_loss,
    evaluate,
    ranking_metrics,
    train,
)
from test_attention import held_arrays
from test_autodiff import logsumexp_rows


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
    su = ad.gather_rows(h, users) * inv_tau
    si = ad.gather_rows(h, item_rows)
    scores = ad.matmul(su, ad.transpose(si))
    pos = ad.sum_axis(su * ad.gather_rows(si, inv), axis=1)
    lse = logsumexp_rows(scores, mask)
    per_pair = (lse - pos) * keep[:, None].astype(np.float64)
    return ad.sum_axis(per_pair, axis=None, keepdims=False) * (1.0 / np.count_nonzero(keep))


@st.composite
def softmax_batches(draw):
    """A random node table, per-user training items and a batch of training
    pairs drawn with replacement, so users and items repeat.  One user
    trained on every item, so its pairs keep no negative; half the batches
    hold one distinct item, so no pair keeps one."""
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
    return h, sp.csr_matrix(trained), users, items, draw(st.sampled_from([0.05, 0.2, 1.0]))


def tiny_state(ds, seed):
    cfg = PGTRConfig(d=4, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2,
                     n_r=2, m_features=8, tau=0.25)
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
        """The (b × distinct items) tape loss equals the per-pair formula."""
        ds = clustered_interactions(10, 12, 2, per_user=4, seed=3)
        state = tiny_state(ds, seed=4)
        users, items = ds.users[:6], ds.items[:6]
        items_of = ds.items_of_user()
        loss, skipped = batch_loss(state, users, items, items_of)
        expected, expected_skipped = oracle_batch_loss(state, users, items, items_of)
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert skipped == expected_skipped

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 24),
           as_matrix=st.booleans())
    def test_random_batches_match_oracle(self, small_model, seed, size, as_matrix):
        """Pairs drawn with replacement, so items and users repeat."""
        ds, state = small_model
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

    def test_score_table_is_batch_by_distinct_items(self, small_model):
        """Everything after the row normalization is one node, which keeps
        one (b, u) table for its backward; no array on the tape or in a
        backward closure has b * b entries."""
        ds, state = small_model
        sel = np.random.default_rng(3).integers(0, len(ds), size=24)
        users, items = ds.users[sel], ds.items[sel]
        b, u = users.size, np.unique(items).size
        # no other array the op holds is (b, u): its rows and columns are
        # (b, d), (u, d) and (b, 1)
        assert 1 < u < b and u != state.config.d
        loss, _ = batch_loss(state, users, items, ds.items_of_user())
        assert loss._op == "in_batch_softmax"
        [h_norm] = loss._parents
        assert h_norm._op == "l2_normalize_rows"
        held = held_arrays(loss)
        assert sum(a.shape == (b, u) for a in held) == 1
        assert max(a.size for a in held) < b * b

    @given(batch=softmax_batches())
    def test_fused_loss_matches_taped_oracle(self, batch):
        """The loss node of `batch_loss` on a given node table against the
        taped composition: the same loss and the same gradient of the
        normalized table, bit for bit, or the same lack of negatives."""
        h, trained, users, items, tau = batch
        n_users, n_items = trained.shape
        state = SimpleNamespace(n_users=n_users, n_items=n_items,
                                config=SimpleNamespace(tau=tau))
        uniq, inv, mask, _ = _batch_mask(users, items, trained)
        keep = np.count_nonzero(mask, axis=1) >= 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["pgtr.train"], "forward", lambda s: ad.parameter(h))
            if not keep.any():
                with pytest.raises(ValueError, match="every pair in the batch lacks negatives"):
                    batch_loss(state, users, items, trained)
                return
            loss, skipped = batch_loss(state, users, items, trained)
        [h_norm] = loss._parents
        ad.backward(loss)
        want_norm = ad.parameter(h_norm.data)
        want = taped_in_batch_softmax(want_norm, users, n_users + uniq, inv, mask, keep,
                                      1.0 / tau)
        ad.backward(want)
        assert skipped == np.count_nonzero(~keep)
        assert loss.data.tobytes() == want.data.tobytes()
        assert h_norm.grad.tobytes() == want_norm.grad.tobytes()

    def test_backward_never_differentiates_a_constant(self, small_model, monkeypatch):
        """No gradient is formed for a constant such as 1/tau or the mask."""
        ds, state = small_model
        targets = []
        real_accum = ad._accum

        def recording_accum(t, g):
            targets.append(t)
            real_accum(t, g)

        monkeypatch.setattr(ad, "_accum", recording_accum)
        ad.zero_grad(state.parameters())
        loss, _ = batch_loss(state, ds.users[:8], ds.items[:8], ds.items_of_user())
        ad.backward(loss)
        assert targets
        assert [t for t in targets if not t._needs] == []
        assert all(p.grad is not None for p in state.parameters())


@pytest.fixture(scope="module")
def small_model():
    ds = clustered_interactions(8, 10, 2, per_user=4, seed=11)
    return ds, tiny_state(ds, seed=12)


@st.composite
def mask_batches(draw):
    """Per-user training items (one user holds every item) and a batch of
    (user, item) pairs drawn with replacement."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 8))
    items_of = [sorted(draw(st.sets(st.integers(0, n_items - 1))))
                for _ in range(n_users)]
    items_of[draw(st.integers(0, n_users - 1))] = list(range(n_items))
    size = draw(st.integers(1, 16))
    users = np.array(draw(st.lists(st.integers(0, n_users - 1), min_size=size,
                                   max_size=size)), dtype=np.int64)
    items = np.array(draw(st.lists(st.integers(0, n_items - 1), min_size=size,
                                   max_size=size)), dtype=np.int64)
    return users, items, items_of


class TestBatchMask:
    @given(batch=mask_batches())
    def test_matches_loop_oracle(self, batch):
        """Each row keeps the same item ids as the (b, b) loop oracle's row,
        once each; `untrained` flags the pairs whose item the user never
        trained on."""
        users, items, items_of = batch
        # one user holds every item
        n_items = max(len(row) for row in items_of)
        user_items = _user_items(items_of, "items_of", (len(items_of), n_items))
        uniq, inv, mask, untrained = _batch_mask(users, items, user_items)
        oracle = batch_mask_loop(users, items, items_of)
        np.testing.assert_array_equal(uniq, np.unique(items))
        np.testing.assert_array_equal(uniq[inv], items)
        assert mask.dtype == bool
        assert mask.shape == (users.size, uniq.size)
        for a in range(users.size):
            assert set(uniq[mask[a]].tolist()) == set(items[oracle[a] != 0].tolist())
        np.testing.assert_array_equal(
            untrained, [i not in items_of[u] for u, i in zip(users, items)])


class TestTrainLoop:
    def _setup(self, seed=0):
        ds = clustered_interactions(24, 30, 3, per_user=8, seed=seed)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.5, seed=seed))
        g = build_graph(fit)
        cfg = PGTRConfig(d=6, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2,
                         n_r=2, m_features=16, lambda3=0.5)
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
                         n_r=2, m_features=16, lambda3=0.3, tau=0.2)
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

    def test_attention_failure_takes_divergence_path(self, caplog):
        ds = clustered_interactions(200, 300, seed=0)
        fit, val, _ = split_by_ratio(ds, SplitSpec(0.8, seed=0))
        state = init_model(build_graph(fit), PGTRConfig(), seed=0)
        with caplog.at_level(logging.WARNING, logger="pgtr.train"):
            state, history = train(state, fit, val, TrainConfig(lr=0.5, max_epochs=5))
        assert "attention denominator underflow" in caplog.text
        aborted = int(re.search(r"training aborted at epoch (\d+)", caplog.text).group(1))
        # the epochs before the aborted one are recorded, and the best comes back
        assert len(history) == aborted - 1
        best = max(h["val_recall"] for h in history)
        now = evaluate(state, fit, val, k=20).recall_at_k
        assert now == pytest.approx(best, abs=1e-12)

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
        assert "training aborted at epoch 3: zero-norm representation for node 5" in caplog.text
        assert [row["val_recall"] for row in history] == [
            row["val_recall"] for row in clean_history]
        for (name, got), (_, want) in zip(state.named_parameters(), clean.named_parameters()):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)

    def test_history_schema(self):
        state, fit, val, _ = self._setup(4)
        _, history = train(state, fit, val, TrainConfig(batch_size=32, lr=1e-2,
                                                        max_epochs=2, patience=2, seed=4))
        for row in history:
            assert set(row) == {"epoch", "train_loss", "val_recall", "val_ndcg",
                                "skipped_pairs", "seconds"}

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

    @pytest.mark.parametrize("field, value", [
        ("k", 0), ("lr", -1e-3), ("max_epochs", 0), ("batch_size", 1), ("patience", 0),
        ("lr", float("nan")), ("lr", float("inf")), ("batch_size", float("nan"))])
    def test_config_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})


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
    """Tie-heavy quantized score tables with -inf and NaN entries, observed
    and test items (repeats allowed), users without test items and k up to
    past n_items; a table where no user has test items must fail as the
    oracle does."""
    n_users = draw(st.integers(1, 10))
    n_items = draw(st.integers(1, 25))
    k = draw(st.integers(1, 30))
    levels = draw(st.integers(1, 4))
    p_inf, p_nan, p_obs, p_test = (draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
                                   for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, levels + 1, size=(n_users, n_items)) / levels
    scores[rng.random(scores.shape) < p_inf] = -np.inf
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


def assert_matches_loop_oracle(scores, observed, tests, k):
    want = ranking_metrics_loop(scores, observed, tests, k)
    got = ranking_metrics(scores, observed, tests, k)
    fields = (got.recall_at_k, got.ndcg_at_k, got.k, got.per_user_recall,
              got.per_user_ndcg, got.user_indices)
    for g, w in zip(fields, want):
        np.testing.assert_array_equal(g, w)
    assert got.user_indices.dtype == np.int64


class TestRankingMatchesLoopOracle:
    @given(case=ranking_cases())
    def test_random_tables(self, case):
        scores, observed, tests, k = case
        try:
            ranking_metrics_loop(scores, observed, tests, k)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                ranking_metrics(scores, observed, tests, k)
            return
        assert_matches_loop_oracle(scores, observed, tests, k)

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

    @given(case=ranking_cases())
    def test_recall_never_falls_as_k_grows(self, case):
        scores, observed, tests, _ = case
        if not any(len(t) for t in tests):
            return
        recalls = [ranking_metrics(scores, observed, tests, k).per_user_recall
                   for k in range(1, scores.shape[1] + 2)]
        for shorter, longer in zip(recalls, recalls[1:]):
            assert (longer >= shorter).all()

    def test_blocks_agree_with_one_pass(self, monkeypatch):
        rng = np.random.default_rng(13)
        scores = np.round(rng.random((40, 30)), 1)
        observed = [rng.choice(30, size=5, replace=False) for _ in range(40)]
        tests = [rng.choice(30, size=int(rng.integers(0, 4)), replace=False)
                 for _ in range(40)]
        whole = ranking_metrics(scores, observed, tests, k=7)
        train_mod = sys.modules["pgtr.train"]
        block_rows = []
        real_top_k = train_mod._top_k

        def recording_top_k(neg, k):
            block_rows.append(neg.shape[0])
            return real_top_k(neg, k)

        monkeypatch.setattr(train_mod, "_top_k", recording_top_k)
        monkeypatch.setattr(train_mod, "_RANK_BLOCK_ENTRIES", 70)
        blocked = ranking_metrics(scores, observed, tests, k=7)
        assert block_rows == [2] * 20
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
    ])
    def test_malformed_item_lists_rejected(self, observed, tests, message):
        with pytest.raises(ValueError, match=message):
            ranking_metrics(np.zeros((2, 4)), observed, tests, k=2)


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


class TestEvaluate:
    def test_model_evaluation_consistent_with_metric_core(self, monkeypatch):
        """evaluate ranks the model's table as ranking_metrics does with
        per-user lists, and builds no per-user lists itself."""
        ds = clustered_interactions(12, 16, 2, per_user=5, seed=10)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.5, seed=10))
        g = build_graph(fit)
        cfg = PGTRConfig(d=4, layers=1, h_c=2, h_d=2, h_r=2, h_y=2, n_d=2,
                         n_r=2, m_features=8)
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
        with pytest.raises(NumericsError, match="^zero-norm representation for node 14$"):
            evaluate(state, ds, ds, k=5)
