"""Model composition tests: reduction, mixing, census, checkpoints."""
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgtr.autodiff as ad
from pgtr.autodiff import constant
from pgtr.backbone import normalized_adjacency, propagate_layer, readout
from pgtr.data import InteractionDataset, build_graph
from pgtr.encodings import EncodingError
from pgtr.model import (
    EMBED_INIT_STD,
    ModelState,
    PGTRConfig,
    count_added_parameters,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from pgtr.synthetic import clustered_interactions
from test_encodings import awkward_interactions

SMALL = dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3, m_features=32)


def mean_all(t):
    return ad.sum_axis(t, axis=None, keepdims=False) * (1.0 / t.data.size)


def small_graph(seed=0, n_users=12, n_items=14):
    return build_graph(clustered_interactions(n_users, n_items, 3, per_user=5, seed=seed))


def position_matrix(state):
    """Dense (N+M) x d position vectors for every node, users first,
    computed in plain numpy apart from the taped `position_tape`."""
    enc = state.enc
    n, m = enc.n_users, enc.n_items
    inner = np.zeros((n + m, state.config.d))
    if enc.w_user is None:
        return inner
    if enc.spectral is not None:
        inner += enc.spectral.matrix.T @ enc.spectral.projection.data.T
    for e in enc.grouped:
        inner += e.table.data[e.group_of] @ e.projection.data.T
    return np.vstack([inner[:n] @ enc.w_user.data.T, inner[n:] @ enc.w_item.data.T])


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
        for l in range(cfg.layers):
            h = propagate_layer(h, adj)
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
            h = propagate_layer(h, adj)
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
        pos = position_matrix(state)
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
        ids = [e.group_of.copy() for e in state.enc.grouped]
        params = state.parameters()
        opt = AdamState(params, lr=0.05)
        for _ in range(3):
            ad.zero_grad(params)
            loss = mean_all(forward(state))
            ad.backward(loss)
            adam_step(opt)
        np.testing.assert_array_equal(state.enc.spectral.matrix, snapshot)
        for e, before in zip(state.enc.grouped, ids, strict=True):
            np.testing.assert_array_equal(e.group_of, before)
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


def read_checkpoint(path):
    """The version, header and named blocks of a checkpoint file."""
    raw = path.read_bytes()

    def take(size):
        nonlocal pos
        pos += size
        return raw[pos - size:pos]

    pos = 5
    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(take(meta_len))
    blocks = {}
    for _ in range(struct.unpack("<I", take(4))[0]):
        name = take(struct.unpack("<I", take(4))[0]).decode()
        rows, cols = struct.unpack("<II", take(8))
        blocks[name] = np.frombuffer(take(8 * rows * cols), "<f8").reshape(rows, cols).copy()
    return raw[4], meta, blocks


def write_checkpoint(path, version, meta, blocks):
    header = json.dumps(meta).encode()
    parts = [b"PGTR", struct.pack("<BI", version, len(header)), header,
             struct.pack("<I", len(blocks))]
    for name, block in blocks.items():
        parts += [struct.pack("<I", len(name)), name.encode(),
                  struct.pack("<II", *block.shape), block.astype("<f8").tobytes()]
    path.write_bytes(b"".join(parts))


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

        def no_pagerank(*args, **kwargs):
            raise AssertionError("load_checkpoint ran PageRank")

        monkeypatch.setattr("pgtr.encodings.symmetric_eigs_smallest", no_solve)
        monkeypatch.setattr("pgtr.encodings.pagerank", no_pagerank)
        restored = load_checkpoint(path, g)
        np.testing.assert_array_equal(restored.enc.spectral.matrix, state.enc.spectral.matrix)
        for got, want in zip(restored.enc.grouped, state.enc.grouped, strict=True):
            assert got.name == want.name and got.group_of.dtype == np.int64
            np.testing.assert_array_equal(got.group_of, want.group_of)
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
        """Version-2 headers carry the removed `attention` field; version 3
        files hold no group ids."""
        g = small_graph(15)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(g, PGTRConfig(**SMALL), seed=24), path)
        raw = bytearray(path.read_bytes())
        assert raw[4] == 4
        for version in (2, 3):
            raw[4] = version
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError, match=f"^unsupported checkpoint version {version}$"):
                load_checkpoint(path, g)

    def test_malformed_header_names_the_field(self, tmp_path):
        g = small_graph(16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(g, PGTRConfig(**SMALL), seed=25), path)
        raw = path.read_bytes()
        version, meta, blocks = read_checkpoint(path)
        write_checkpoint(path, version, meta, blocks)
        assert path.read_bytes() == raw  # the test's reader and writer match the format
        edits = {"'seed'": lambda m: m.pop("seed"),
                 "'attention'": lambda m: m["config"].update(attention="kernelized")}
        for field, edit in edits.items():
            bad = json.loads(json.dumps(meta))
            edit(bad)
            write_checkpoint(path, version, bad, blocks)
            with pytest.raises(ValueError, match=field):
                load_checkpoint(path, g)

    def test_feature_map_seeds_must_match_the_seed(self, tmp_path):
        """A stored seed list of another length or value fails the load;
        before, a short list loaded and the first forward raised IndexError."""
        g = small_graph(18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(g, PGTRConfig(**SMALL, layers=2), seed=27), path)
        version, meta, blocks = read_checkpoint(path)
        seeds = meta["feature_map_seeds"]
        assert len(seeds) == 2
        for bad in (seeds[:1], seeds + seeds[:1], [seeds[0], seeds[1] + 1], []):
            write_checkpoint(path, version, dict(meta, feature_map_seeds=bad), blocks)
            with pytest.raises(ValueError, match="^checkpoint field 'feature_map_seeds' "):
                load_checkpoint(path, g)

    @pytest.mark.parametrize("field, value", [
        ("d", "6"), ("d", 6.0), ("layers", True), ("tau", "0.2"), ("tau", False),
        ("use_spectral", "no"), ("use_spectral", 1), ("backbone", 1)])
    def test_header_value_of_the_wrong_type_names_the_field(self, tmp_path, field, value):
        g = small_graph(16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(g, PGTRConfig(**SMALL), seed=25), path)
        version, meta, blocks = read_checkpoint(path)
        meta["config"][field] = value
        write_checkpoint(path, version, meta, blocks)
        with pytest.raises(ValueError, match=f"^config field '{field}' must be "):
            load_checkpoint(path, g)

    def test_float_field_takes_an_int(self):
        cfg = PGTRConfig.from_dict(dict(PGTRConfig().to_dict(), tau=1, lambda3=0))
        assert (cfg.tau, cfg.lambda3) == (1, 0)

    def test_malformed_group_ids_name_the_block(self, tmp_path):
        g = small_graph(17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(g, PGTRConfig(**SMALL), seed=26), path)
        version, meta, blocks = read_checkpoint(path)
        ids = blocks["pagerank_groups"]
        assert ids.shape == (1, g.n_users + g.n_items) and ids.max() == 2 * SMALL["n_r"] - 1
        for bad in (None, ids[:, :-1], 0.5, -1.0, 2.0 * SMALL["n_r"], np.nan):
            edited = dict(blocks)
            if bad is None:
                del edited["pagerank_groups"]
            elif np.ndim(bad):
                edited["pagerank_groups"] = bad
            else:
                edited["pagerank_groups"] = ids.copy()
                edited["pagerank_groups"][0, 3] = bad
            write_checkpoint(path, version, meta, edited)
            with pytest.raises(ValueError, match="'pagerank_groups'"):
                load_checkpoint(path, g)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"nope")
        g = small_graph(12)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(p, g)


class TestDrawOrder:
    @pytest.mark.parametrize("kw", [
        {},
        dict(backbone="transform-gcn", use_projections=True),
        dict(use_degree=False, use_type=False),
        dict(use_spectral=False, use_degree=False, use_pagerank=False, use_type=False,
             backbone="transform-gcn"),
    ])
    def test_replays_from_the_seed(self, kw):
        """`init_model` draws from `default_rng(seed)`, in order: the
        embeddings; the degree, PageRank and type tables; the item, user,
        spectral, degree, PageRank and type projections; the backbone
        transforms; each layer's q, k and v projections; the feature-map
        seeds.  Checkpoints and repeated runs rely on it."""
        g = small_graph(18)
        cfg = PGTRConfig(**SMALL, **kw)
        state = init_model(g, cfg, seed=27)
        rng = np.random.default_rng(27)

        def uniform(rows, cols):
            bound = 0.1 / np.sqrt(cols)
            return rng.uniform(-bound, bound, size=(rows, cols))

        n_nodes = g.n_users + g.n_items
        want = {"embeddings": rng.normal(0.0, EMBED_INIT_STD, size=(n_nodes, cfg.d))}
        grouped = [(name, groups, h) for name, groups, h in
                   (("degree", cfg.n_d, cfg.h_d), ("pagerank", cfg.n_r, cfg.h_r), ("type", 1, cfg.h_y))
                   if getattr(cfg, f"use_{name}")]
        for name, groups, h in grouped:
            want[name] = uniform(2 * groups, h)
        if cfg.use_spectral or grouped:
            want["proj_item"] = uniform(cfg.d, cfg.d)
            want["proj_user"] = uniform(cfg.d, cfg.d)
        if cfg.use_spectral:
            want["proj_spectral"] = uniform(cfg.d, cfg.h_c)
        for name, _, h in grouped:
            want[f"proj_{name}"] = uniform(cfg.d, h)
        if cfg.backbone == "transform-gcn":
            for l in range(cfg.layers):
                want[f"backbone_w{l}"] = uniform(cfg.d, cfg.d)
        if cfg.use_projections:
            for l in range(cfg.layers):
                for tag in "qkv":
                    want[f"attn_{tag}{l}"] = uniform(cfg.d, cfg.d)
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(cfg.layers)]

        got = dict(state.named_parameters())
        assert list(got) == list(want)
        for name, data in want.items():
            np.testing.assert_array_equal(got[name].data, data, err_msg=name)
        assert [fm.seed for fm in state.feature_maps] == seeds


class TestRejectedBeforeSolving:
    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("init_model solved before checking its input")

        monkeypatch.setattr("pgtr.encodings.symmetric_eigs_smallest", fail)
        monkeypatch.setattr("pgtr.encodings.pagerank", fail)

    def test_unknown_backbone(self):
        with pytest.raises(ValueError, match="unknown backbone 'lightgnc'"):
            init_model(small_graph(19), PGTRConfig(backbone="lightgnc"))

    @pytest.mark.parametrize("field, value", [
        ("tau", 0.0), ("tau", -0.2), ("tau", float("nan")), ("tau", float("inf")),
        ("lambda3", float("nan")), ("lambda1", float("inf")), ("lambda_c", -0.5),
        ("d", 0), ("m_features", float("nan"))])
    def test_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            init_model(small_graph(19), PGTRConfig(**{field: value}))

    def test_side_with_fewer_nodes_than_groups(self):
        with pytest.raises(EncodingError, match="^degree encoding needs 10 groups per side, "
                                                "but the user side has 5 nodes$"):
            init_model(small_graph(20, n_users=5), PGTRConfig())
        with pytest.raises(EncodingError, match="^pagerank encoding needs 7 groups per side, "
                                                "but the item side has 6 nodes$"):
            init_model(small_graph(20, n_items=6), PGTRConfig(n_d=2, n_r=7))


@settings(max_examples=60, deadline=None)
@given(ds=awkward_interactions(), n_d=st.integers(1, 6), n_r=st.integers(1, 6),
       h_c=st.integers(1, 4), lambda_c=st.sampled_from([0.0, 0.5]))
@example(ds=InteractionDataset(1, 3, np.array([0, 0]), np.array([0, 2])),
         n_d=1, n_r=1, h_c=1, lambda_c=0.0)
def test_init_builds_or_raises_a_typed_error(ds, n_d, n_r, h_c, lambda_c):
    cfg = PGTRConfig(d=4, h_c=h_c, h_d=2, h_r=2, h_y=2, n_d=n_d, n_r=n_r, m_features=8,
                     lambda_c=lambda_c)
    g = build_graph(ds)
    if min(ds.n_users, ds.n_items) < max(n_d, n_r):
        with pytest.raises(EncodingError, match="groups per side"):
            init_model(g, cfg)
        return
    try:
        state = init_model(g, cfg)
    except (EncodingError, ValueError):
        return
    assert [e.name for e in state.enc.grouped] == ["degree", "pagerank", "type"]
