"""Model composition tests: reduction, mixing, census, checkpoints."""
import struct

import numpy as np
import pytest

import pgtr.autodiff as ad
from pgtr.autodiff import constant
from pgtr.backbone import BackboneConfig, normalized_adjacency, propagate_layer, readout
from pgtr.data import InteractionDataset, build_graph
from pgtr.model import (
    ModelState,
    PGTRConfig,
    count_added_parameters,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from pgtr.synthetic import clustered_interactions

SMALL = dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3, m_features=32)


def mean_all(t):
    return ad.sum_axis(t, axis=None, keepdims=False) * (1.0 / t.data.size)


def small_graph(seed=0, n_users=12, n_items=14):
    return build_graph(clustered_interactions(n_users, n_items, 3, per_user=5, seed=seed))


def position_matrix(enc):
    """Dense (N+M) x d position vectors for every node, users first,
    computed in plain numpy apart from the taped `position_tape`."""
    n, m = enc.n_users, enc.n_items
    inner = np.zeros((n + m, enc.d))
    p = enc.projection
    if p is None:
        return inner
    if enc.spectral is not None:
        inner += enc.spectral.matrix.T @ p.w_spectral.data.T
    for pair_u, pair_i, w in ((enc.degree_user, enc.degree_item, p.w_degree),
                              (enc.pagerank_user, enc.pagerank_item, p.w_pagerank)):
        if pair_u is not None:
            (table_u, asg_u), (table_i, asg_i) = pair_u, pair_i
            stacked = np.vstack([table_u.data[asg_u.group_of], table_i.data[asg_i.group_of]])
            inner += stacked @ w.data.T
    if enc.types is not None:
        type_rows = np.concatenate([np.ones(n, dtype=np.int64), np.zeros(m, dtype=np.int64)])
        inner += enc.types.data[type_rows] @ p.w_type.data.T
    return np.vstack([inner[:n] @ p.w_user.data.T, inner[n:] @ p.w_item.data.T])


def score(h_final, u, i, tau, n_users):
    """Temperature-scaled cosine between a user row and an item row."""
    hu = h_final[u]
    hi = h_final[n_users + i]
    nu, ni = np.linalg.norm(hu), np.linalg.norm(hi)
    if nu == 0.0:
        raise ValueError(f"zero-norm representation for user node {u}")
    if ni == 0.0:
        raise ValueError(f"zero-norm representation for item node {i}")
    return float(hu @ hi / (nu * ni * tau))


class TestBackboneReduction:
    def test_all_off_equals_bare_backbone(self):
        g = small_graph(1)
        cfg = PGTRConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0,
                         use_spectral=False, use_degree=False,
                         use_pagerank=False, use_type=False, **SMALL)
        state = init_model(g, cfg, seed=3)
        got = forward(state).data

        adj = normalized_adjacency(g)
        h = constant(state.embeddings.data.copy())
        tables = [h]
        bcfg = BackboneConfig()
        for l in range(cfg.layers):
            h = propagate_layer(h, adj, bcfg, l)
            tables.append(h)
        bare = readout(tables).data
        assert np.abs(got - bare).max() <= 1e-12

    def test_rankings_identical(self):
        g = small_graph(2)
        cfg = PGTRConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0,
                         use_spectral=False, use_degree=False,
                         use_pagerank=False, use_type=False, **SMALL)
        state = init_model(g, cfg, seed=4)
        got = forward(state).data
        adj = normalized_adjacency(g)
        h = constant(state.embeddings.data.copy())
        tables = [h]
        for l in range(cfg.layers):
            h = propagate_layer(h, adj, BackboneConfig(), l)
            tables.append(h)
        bare = readout(tables).data
        for u in range(g.n_users):
            a = np.argsort(-(got[u] @ got[g.n_users:].T), kind="stable")
            b = np.argsort(-(bare[u] @ bare[g.n_users:].T), kind="stable")
            np.testing.assert_array_equal(a[:5], b[:5])


class TestMixing:
    def test_attention_fixed_point_at_lambda3_one(self):
        # one user-item edge with equal embeddings: every table stays constant
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        cfg = PGTRConfig(d=4, layers=1, lambda1=0.0, lambda2=0.0, lambda3=1.0,
                         h_c=1, h_d=1, h_r=1, h_y=1, n_d=1, n_r=1, m_features=16,
                         use_spectral=False, use_degree=False,
                         use_pagerank=False, use_type=False)
        state = init_model(g, cfg, seed=5)
        row = np.array([0.3, -0.2, 0.5, 0.1])
        state.embeddings.data = np.vstack([row, row])
        out, internals = forward(state, return_layers=True)
        local, global_, mixed = internals[0]
        np.testing.assert_allclose(local.data, np.vstack([row, row]), atol=1e-12)
        np.testing.assert_allclose(mixed.data, global_.data, atol=1e-15)
        np.testing.assert_allclose(global_.data, local.data, atol=1e-10)

    def test_convex_mixing_on_segment(self):
        g = small_graph(3)
        cfg = PGTRConfig(lambda3=0.3, **SMALL)
        state = init_model(g, cfg, seed=6)
        _, internals = forward(state, return_layers=True)
        for local, global_, mixed in internals:
            np.testing.assert_allclose(
                mixed.data, 0.7 * local.data + 0.3 * global_.data, atol=1e-12)

    def test_endpoints_reproduce_candidates(self):
        g = small_graph(4)
        for lam, pick in ((0.0, "local"), (1.0, "global")):
            cfg = PGTRConfig(lambda3=lam, **SMALL)
            state = init_model(g, cfg, seed=7)
            _, internals = forward(state, return_layers=True)
            local, global_, mixed = internals[-1]
            target = local if pick == "local" else global_
            np.testing.assert_array_equal(mixed.data, target.data)


class TestDenseOracle:
    def test_tiny_graph_matches_stepwise_dense_evaluation(self):
        """3 users, 3 items, kernelized attention, lambda3 = 0.5."""
        ds = InteractionDataset(3, 3, np.array([0, 0, 1, 2, 2]),
                                np.array([0, 1, 1, 1, 2]))
        g = build_graph(ds)
        cfg = PGTRConfig(d=4, layers=2, lambda1=1.0, lambda2=1.0, lambda3=0.5,
                         h_c=2, h_d=2, h_r=2, h_y=2, n_d=2, n_r=2, m_features=8)
        state = init_model(g, cfg, seed=8)
        got = forward(state).data

        # independent dense evaluation of the whole chain, with the
        # unstabilized feature map phi(x) = exp(Wx - |x|^2/2)/sqrt(m)
        adj = normalized_adjacency(g).toarray()
        pos = position_matrix(state.enc)
        scale = 1.0 / np.sqrt(cfg.d)
        h = state.embeddings.data + cfg.lambda1 * pos
        tables = [h]
        for layer in range(cfg.layers):
            local = adj @ h
            attn_in = local + cfg.lambda2 * pos
            x = scale * attn_in
            w = state.feature_maps[layer].directions
            phi = np.exp(x @ w.T - 0.5 * (x * x).sum(axis=1, keepdims=True))
            phi /= np.sqrt(cfg.m_features)
            global_ = (phi @ (phi.T @ attn_in)) / (phi @ phi.sum(axis=0))[:, None]
            h = 0.5 * local + 0.5 * global_
            tables.append(h)
        expected = np.mean(tables, axis=0)
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestScore:
    def test_identical_rows(self):
        h = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert score(h, 0, 0, tau=1.0, n_users=1) == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        h = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert score(h, 0, 0, tau=0.5, n_users=1) == pytest.approx(0.0)

    def test_temperature_and_scale_invariance(self):
        h = np.array([[1.0, 0.0], [5.0 / np.sqrt(2), 5.0 / np.sqrt(2)]])
        got = score(h, 0, 0, tau=0.2, n_users=1)
        assert got == pytest.approx((1 / np.sqrt(2)) / 0.2, abs=1e-4)
        assert got == pytest.approx(3.5355, abs=1e-3)
        h2 = h.copy()
        h2[1] *= 17.0
        assert score(h2, 0, 0, tau=0.2, n_users=1) == pytest.approx(got)

    def test_zero_norm_rejected(self):
        h = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="user node 0"):
            score(h, 0, 0, tau=1.0, n_users=1)


class TestParameterCensus:
    def formula(self, cfg):
        return (2 * (cfg.n_d * cfg.h_d + cfg.n_r * cfg.h_r + cfg.h_y)
                + cfg.d * (cfg.h_c + cfg.h_d + cfg.h_r + cfg.h_y + 2 * cfg.d))

    def test_default_configuration_gives_4200(self):
        g = build_graph(clustered_interactions(60, 80, 4, per_user=20, seed=9))
        cfg = PGTRConfig()
        state = init_model(g, cfg, seed=10)
        assert count_added_parameters(state) == 4200
        assert self.formula(cfg) == 4200

    def test_all_encodings_ablated_gives_zero(self):
        g = small_graph(5)
        cfg = PGTRConfig(use_spectral=False, use_degree=False,
                         use_pagerank=False, use_type=False, **SMALL)
        state = init_model(g, cfg, seed=11)
        assert count_added_parameters(state) == 0

    def test_random_configs_match_closed_form(self):
        rng = np.random.default_rng(12)
        g = small_graph(6, n_users=15, n_items=18)
        for _ in range(8):
            cfg = PGTRConfig(d=int(rng.integers(2, 9)),
                             h_c=int(rng.integers(1, 5)),
                             h_d=int(rng.integers(1, 5)),
                             h_r=int(rng.integers(1, 5)),
                             h_y=int(rng.integers(1, 5)),
                             n_d=int(rng.integers(1, 6)),
                             n_r=int(rng.integers(1, 6)),
                             m_features=8)
            state = init_model(g, cfg, seed=13)
            assert count_added_parameters(state) == self.formula(cfg)

    def test_small_against_embedding_budget_of_paper_datasets(self):
        cfg = PGTRConfig()
        added = self.formula(cfg)
        for n, m in [(1435, 1522), (13024, 22347), (23566, 48123), (52643, 91599)]:
            assert added < (n + m) * cfg.d

    def test_projections_on_rejected(self):
        g = small_graph(7)
        cfg = PGTRConfig(use_projections=True, **SMALL)
        state = init_model(g, cfg, seed=14)
        with pytest.raises(ValueError):
            count_added_parameters(state)


class TestSpectralFrozen:
    def test_spectral_matrix_constant_across_training_steps(self):
        from pgtr.optim import AdamState, adam_step

        g = small_graph(8)
        cfg = PGTRConfig(**SMALL)
        state = init_model(g, cfg, seed=15)
        snapshot = state.enc.spectral.matrix.copy()
        params = state.parameters()
        opt = AdamState(params, lr=0.05)
        for _ in range(3):
            ad.zero_grad(params)
            loss = mean_all(forward(state))
            ad.backward(loss)
            adam_step(opt)
        np.testing.assert_array_equal(state.enc.spectral.matrix, snapshot)
        assert all(name != "spectral" for name, _ in state.named_parameters())


class TestDifferentiability:
    @pytest.mark.parametrize("use_projections", [False, True])
    def test_forward_plus_loss_passes_finite_differences(self, use_projections):
        from pgtr.train import batch_loss

        ds = clustered_interactions(6, 6, 2, per_user=3, seed=16)
        g = build_graph(ds)
        cfg = PGTRConfig(d=3, layers=1, h_c=2, h_d=2, h_r=2, h_y=2,
                         n_d=2, n_r=2, m_features=8, lambda3=0.5,
                         use_projections=use_projections)
        state = init_model(g, cfg, seed=17)
        if use_projections:
            # at the init scale attention is a near-uniform average, whose q and
            # k gradients are too small for the check to see
            rng = np.random.default_rng(19)
            state.embeddings.data *= 5.0
            for w in state.attn_projections[0]:
                w.data = rng.uniform(-2.0, 2.0, size=w.data.shape)
            assert {"attn_q0", "attn_k0", "attn_v0"} <= dict(state.named_parameters()).keys()
        users = ds.users[:4]
        items = ds.items[:4]
        train_items = ds.items_of_user()

        loss, _ = batch_loss(state, users, items, train_items)
        ad.backward(loss)
        stored = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                  for name, t in state.named_parameters()}

        h = 1e-5
        rng = np.random.default_rng(18)
        for name, t in state.named_parameters():
            flat = t.data.ravel()
            probe = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for idx in probe:
                orig = flat[idx]
                flat[idx] = orig + h
                up = batch_loss(state, users, items, train_items)[0].item()
                flat[idx] = orig - h
                down = batch_loss(state, users, items, train_items)[0].item()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                ref = stored[name].ravel()[idx]
                denom = max(1.0, abs(fd), abs(ref))
                assert abs(fd - ref) / denom < 1e-4, f"{name}[{idx}]: {ref} vs {fd}"


class TestCheckpoint:
    def test_roundtrip_restores_forward_exactly(self, tmp_path):
        g = small_graph(9)
        cfg = PGTRConfig(**SMALL)
        state = init_model(g, cfg, seed=19)
        # perturb away from the init so restore is non-trivial
        rng = np.random.default_rng(20)
        for _, t in state.named_parameters():
            t.data += 0.01 * rng.standard_normal(t.data.shape)
        want = forward(state).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        restored = load_checkpoint(path, g)
        np.testing.assert_array_equal(forward(restored).data, want)
        assert restored.config == state.config

    def test_wrong_graph_rejected(self, tmp_path):
        g = small_graph(10)
        state = init_model(g, PGTRConfig(**SMALL), seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        other = small_graph(11, n_users=13, n_items=14)
        with pytest.raises(ValueError, match="different graph"):
            load_checkpoint(path, other)
        same_shape = small_graph(11)
        assert (same_shape.n_users, same_shape.n_items) == (g.n_users, g.n_items)
        with pytest.raises(ValueError, match="different graph"):
            load_checkpoint(path, same_shape)

    def test_load_restores_the_spectral_block_without_solving(self, tmp_path, monkeypatch):
        g = small_graph(14)
        state = init_model(g, PGTRConfig(**SMALL), seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)

        def no_solve(*args, **kwargs):
            raise AssertionError("load_checkpoint ran the eigensolver")

        monkeypatch.setattr("pgtr.encodings.symmetric_eigs_smallest", no_solve)
        restored = load_checkpoint(path, g)
        np.testing.assert_array_equal(restored.enc.spectral.matrix, state.enc.spectral.matrix)
        np.testing.assert_array_equal(forward(restored).data, forward(state).data)

    def test_truncated_file_names_the_short_section(self, tmp_path):
        g = small_graph(13)
        state = init_model(g, PGTRConfig(**SMALL), seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack("<I", raw[5:9])
        block0 = 13 + meta_len  # magic, version, header length, header, block count
        cuts = {
            4: "the version",
            7: "the header length",
            9 + meta_len // 2: "the header",
            9 + meta_len + 2: "the block count",
            block0 + 2: "the name length of block 0",
            block0 + 4 + 3: "the name of block 0",
            block0 + 4 + 10 + 3: "the shape of block 'embeddings'",
            block0 + 4 + 10 + 8 + 5: "the data of block 'embeddings'",
            len(raw) - 1: "the data of block 'spectral'",
        }
        assert raw[block0 + 4:block0 + 14] == b"embeddings"
        for cut, section in cuts.items():
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"truncated in {section}"):
                load_checkpoint(path, g)

    def test_version_2_rejected(self, tmp_path):
        """Version-2 headers carry the removed `attention` field."""
        g = small_graph(15)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(g, PGTRConfig(**SMALL), seed=24), path)
        raw = bytearray(path.read_bytes())
        assert raw[4] == 3
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^unsupported checkpoint version 2$"):
            load_checkpoint(path, g)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"nope")
        g = small_graph(12)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(p, g)
