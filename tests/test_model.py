"""Model composition tests: reduction, mixing, census, checkpoints."""
import dataclasses
import io
import json
import pickle
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgtr.autodiff as ad
from pgtr.backbone import propagate_layer
from pgtr.data import InteractionDataset, build_graph
from pgtr.encodings import EncodingError, position_tape
from pgtr.linalg import symmetric_normalized
from pgtr.model import (
    EMBED_INIT_STD,
    PGTRConfig,
    count_added_parameters,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from pgtr.optim import AdamState, adam_step
from pgtr.synthetic import clustered_interactions
from pgtr.train import batch_loss
from test_autodiff import (as_float64, close, constant, mean_all, mul, sum_axis, taped_layer,
                           tape_nodes)
from test_encodings import awkward_interactions

SMALL = dict(d=6, h_c=3, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3)


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


def taped_layers(state):
    """The default forward's layers as `test_autodiff.taped_layer`, the
    taped composition each `propagate_layer` node fuses: the position
    node, and per layer its input h and its output.  For λ3 != 0 the
    output is the `mix` whose parents are local and the `column_mean`
    global term, whose parent is the attention input local + λ2·pos."""
    cfg = state.config
    pos = position_tape(state.enc)
    h = state.embeddings
    if pos is not None and cfg.lambda1 != 0.0:
        h = ad.mix(h, pos, 1.0, cfg.lambda1)
    layers = []
    for layer in range(cfg.layers):
        out = taped_layer(h, state.adjacency,
                          state.transforms[layer] if state.transforms else None,
                          pos, cfg.lambda2, cfg.lambda3)
        layers.append((h, out))
        h = out
    return pos, layers


def fused_layer(state, pos, layer, h):
    """The model's `propagate_layer` node for `layer` on input `h`."""
    cfg = state.config
    return propagate_layer(h, state.adjacency,
                           state.transforms[layer] if state.transforms else None,
                           pos, cfg.lambda2, cfg.lambda3)


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
        state = as_float64(init_model(g, cfg, seed=3), g)
        got = forward(state).data

        adj = g.normalized_adjacency()
        h = constant(state.embeddings.data.copy())
        tables = [h]
        for l in range(cfg.layers):
            h = propagate_layer(h, adj)
            tables.append(h)
        bare = ad.mean(tables).data
        assert np.abs(got - bare).max() <= 1e-12

    def test_rankings_identical(self):
        g = small_graph(2)
        cfg = PGTRConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0,
                         use_spectral=False, use_degree=False,
                         use_pagerank=False, use_type=False, **SMALL)
        state = init_model(g, cfg, seed=4)
        got = forward(state).data
        adj = g.normalized_adjacency()
        h = constant(state.embeddings.data.copy())
        tables = [h]
        for l in range(cfg.layers):
            h = propagate_layer(h, adj)
            tables.append(h)
        bare = ad.mean(tables).data
        for u in range(g.n_users):
            a = np.argsort(-(got[u] @ got[g.n_users:].T), kind="stable")
            b = np.argsort(-(bare[u] @ bare[g.n_users:].T), kind="stable")
            np.testing.assert_array_equal(a[:5], b[:5])


class TestMixing:
    """Each layer against the taped oracle composition (`taped_layers`):
    the global term's fixed point, convex mixing and the endpoints."""

    def test_attention_fixed_point_at_lambda3_one(self):
        # one user-item edge with equal embeddings: every table stays constant
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        cfg = PGTRConfig(d=4, layers=1, lambda1=0.0, lambda2=0.0, lambda3=1.0,
                         h_c=1, h_d=1, h_r=1, h_y=1, n_d=1, n_r=1,
                         use_spectral=False, use_degree=False,
                         use_pagerank=False, use_type=False)
        state = init_model(g, cfg, seed=5)
        row = np.array([0.3, -0.2, 0.5, 0.1])
        state.embeddings.data = np.vstack([row, row])
        pos, ((h, mixed),) = taped_layers(state)
        local, global_ = mixed._parents
        np.testing.assert_allclose(local.data, np.vstack([row, row]), atol=1e-12)
        np.testing.assert_allclose(global_.data, local.data, atol=1e-10)
        np.testing.assert_allclose(fused_layer(state, pos, 0, h).data, global_.data,
                                   atol=1e-15)
        np.testing.assert_allclose(forward(state).data, np.vstack([row, row]), atol=1e-10)

    def test_convex_mixing_on_segment(self):
        g = small_graph(3)
        cfg = PGTRConfig(lambda3=0.3, **SMALL)
        state = as_float64(init_model(g, cfg, seed=6), g)
        pos, layers = taped_layers(state)
        for layer, (h, mixed) in enumerate(layers):
            local, global_ = mixed._parents
            np.testing.assert_allclose(
                fused_layer(state, pos, layer, h).data,
                0.7 * local.data + 0.3 * global_.data, atol=1e-12)

    def test_endpoints_reproduce_candidates(self):
        """λ3 = 0 gives the local table bit for bit; λ3 = 1 gives the global
        term, one row for every node, to float64 rounding (the node forms
        mean(local) + λ2·mean(pos), the oracle mean(local + λ2·pos))."""
        g = small_graph(4)
        for lam in (0.0, 1.0):
            cfg = PGTRConfig(lambda3=lam, **SMALL)
            state = as_float64(init_model(g, cfg, seed=7), g)
            pos, layers = taped_layers(state)
            h, want = layers[-1]
            got = fused_layer(state, pos, cfg.layers - 1, h).data
            if lam == 0.0:
                np.testing.assert_array_equal(got, want.data)
            else:
                assert (got == got[0]).all()
                assert close(got, want.data, 1e-12)

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_forward_and_gradients_match_taped_composition(self, backbone):
        """In float64 the fused forward and every parameter's gradient equal
        the taped composition's to 1e-12 relative."""
        g = small_graph(5)
        state = as_float64(init_model(g, PGTRConfig(**SMALL, backbone=backbone), seed=8), g)
        weights = constant(np.random.default_rng(9).standard_normal(
            (state.n_nodes, state.config.d)))

        def taped_forward(state):
            _, layers = taped_layers(state)
            return ad.mean([layers[0][0]] + [out for _, out in layers])

        results = []
        for build in (forward, taped_forward):
            ad.zero_grad(state.parameters())
            out = build(state)
            ad.backward(sum_axis(mul(out, weights), axis=None, keepdims=False))
            results.append((out.data, [t.grad for t in state.parameters()]))
        (got, got_grads), (want, want_grads) = results
        assert close(got, want, 1e-12)
        for (name, _), a, b in zip(state.named_parameters(), got_grads, want_grads, strict=True):
            assert close(a, b, 1e-12), name


class TestDenseOracle:
    def test_tiny_graph_matches_stepwise_dense_evaluation(self):
        """3 users, 3 items, lambda3 = 0.5."""
        ds = InteractionDataset(3, 3, np.array([0, 0, 1, 2, 2]),
                                np.array([0, 1, 1, 1, 2]))
        g = build_graph(ds)
        cfg = PGTRConfig(d=4, layers=2, lambda1=1.0, lambda2=1.0, lambda3=0.5,
                         h_c=2, h_d=2, h_r=2, h_y=2, n_d=2, n_r=2)
        state = as_float64(init_model(g, cfg, seed=8), g)
        got = forward(state).data

        # independent dense evaluation of the whole chain; the global term
        # is attention with every one of the (T, T) weights 1/T
        adj = g.normalized_adjacency().toarray()
        pos = position_matrix(state)
        t = g.n_users + g.n_items
        h = state.embeddings.data + cfg.lambda1 * pos
        tables = [h]
        for layer in range(cfg.layers):
            local = adj @ h
            attn_in = local + cfg.lambda2 * pos
            global_ = np.full((t, t), 1.0 / t) @ attn_in
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
                             n_r=int(rng.integers(1, 6)))
            state = init_model(g, cfg, seed=13)
            assert count_added_parameters(state) == self.formula(cfg)

    def test_small_against_embedding_budget_of_paper_datasets(self):
        cfg = PGTRConfig()
        added = self.formula(cfg)
        for n, m in [(1435, 1522), (13024, 22347), (23566, 48123), (52643, 91599)]:
            assert added < (n + m) * cfg.d


class TestSpectralFrozen:
    def test_spectral_matrix_constant_across_training_steps(self):
        from pgtr.optim import AdamState, adam_step

        g = small_graph(8)
        cfg = PGTRConfig(**SMALL)
        state = init_model(g, cfg, seed=15)
        snapshot = state.enc.spectral.matrix.copy()
        features = state.enc.features.copy()
        ids = [e.group_of.copy() for e in state.enc.grouped]
        params = state.parameters()
        opt = AdamState(params, lr=0.05)
        for _ in range(3):
            ad.zero_grad(params)
            loss = mean_all(forward(state))
            ad.backward(loss)
            adam_step(opt)
        np.testing.assert_array_equal(state.enc.spectral.matrix, snapshot)
        np.testing.assert_array_equal(state.enc.features, features)
        for e, before in zip(state.enc.grouped, ids, strict=True):
            np.testing.assert_array_equal(e.group_of, before)
        assert all(name != "spectral" for name, _ in state.named_parameters())


class TestReleasedTape:
    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_backward_keeps_only_parameter_gradients(self, backbone):
        """After `backward` no interior node of a default forward holds a
        gradient or a backward closure, each keeps its value and parents,
        and every parameter holds its gradient."""
        g = small_graph(12)
        state = init_model(g, PGTRConfig(**SMALL, layers=2, backbone=backbone), seed=16)
        out = forward(state)
        interior = [n for n in tape_nodes(out) if n._op != "leaf"]
        assert {n._op for n in interior} == {"position", "propagate_layer", "mix", "mean"}
        parents = {id(n): n._parents for n in interior}
        ad.backward(mean_all(out))
        for node in interior:
            assert node.grad is None and node._backward is None, node._op
            assert node._parents is parents[id(node)] and node.data is not None
        for name, t in state.named_parameters():
            assert t.grad is not None and np.isfinite(t.grad).all(), name


class TestForwardScratch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_no_node_peaks_a_table_above_what_it_holds(self, monkeypatch, backbone, dtype):
        """Under tracemalloc, each node of one `forward(state)` (and the
        finiteness check after the last) peaks less than one (T, d) table
        above the memory held once it has made its output: the injection
        and each layer write into their own output tables."""
        g = small_graph(3, n_users=200, n_items=300)
        state = init_model(g, PGTRConfig(backbone=backbone), seed=3)
        if dtype == np.float64:
            as_float64(state, g)
        forward(state)  # first-call set-up stays out of the count
        scratch, real_make = [], ad._make

        def make(*args):
            held, peak = tracemalloc.get_traced_memory()
            scratch.append(peak - held)
            tracemalloc.reset_peak()
            return real_make(*args)

        monkeypatch.setattr(ad, "_make", make)
        tracemalloc.start()
        try:
            out = forward(state)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch.append(peak - held)
        assert out.data.dtype == dtype
        assert len(scratch) == 6  # position, mix, two layers, mean, the check
        assert max(scratch) < out.data.nbytes, scratch


class TestGraphAdjacency:
    def test_set_up_builds_and_normalizes_the_adjacency_once(self, monkeypatch):
        """`init_model` normalizes the graph's adjacency once, and the
        spectral Laplacian, PageRank and the model read that one matrix and
        the one adjacency the graph built."""
        g = small_graph(4, n_users=20, n_items=30)
        data_mod, enc_mod = sys.modules["pgtr.data"], sys.modules["pgtr.encodings"]
        normalized, ranked, laplacians = [], [], []
        for module, name, calls in ((data_mod, "symmetric_normalized", normalized),
                                    (enc_mod, "pagerank", ranked),
                                    (enc_mod, "normalized_laplacian", laplacians)):
            def spy(*args, real=getattr(module, name), calls=calls):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(module, name, spy)
        state = init_model(g, PGTRConfig(**SMALL), seed=4)
        assert len(normalized) == len(ranked) == len(laplacians) == 1
        adj, s = g.full_adjacency(), g.normalized_adjacency()
        assert normalized[0][0] is adj
        assert ranked[0][0] is adj and ranked[0][1] is s
        assert laplacians[0][0] is adj and laplacians[0][1] is s
        np.testing.assert_array_equal(state.adjacency.toarray(), s.toarray().astype(np.float32))

    def test_one_read_only_matrix_per_graph(self):
        g = small_graph(5)
        for get in (g.full_adjacency, g.normalized_adjacency):
            m = get()
            assert get() is m
            assert not any(part.flags.writeable for part in (m.data, m.indices, m.indptr))
        want = symmetric_normalized(g.full_adjacency())
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(g.normalized_adjacency(), part),
                                          getattr(want, part))


class TestDtype:
    """The model computes in its arrays' dtype: float32 as `init_model`
    builds it, float64 once cast.  A float64 scalar or buffer meeting a
    float32 table promotes it silently (and NumPy 1.x and 2.x promote
    differently), so each step of a training step is checked."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_a_training_step_keeps_the_dtype(self, backbone, dtype, monkeypatch):
        ds = clustered_interactions(12, 14, 3, per_user=5, seed=28)
        g = build_graph(ds)
        state = init_model(g, PGTRConfig(**SMALL, backbone=backbone), seed=29)
        if dtype == np.float64:
            as_float64(state, g)
        loss, _ = batch_loss(state, ds.users[:16], ds.items[:16], ds.user_item_matrix())
        nodes = tape_nodes(loss)
        assert {n._op for n in nodes if n._op != "leaf"} == {
            "position", "propagate_layer", "mix", "mean", "in_batch_softmax"}
        assert all(n.data.dtype == dtype for n in nodes), [
            n._op for n in nodes if n.data.dtype != dtype]

        handed = []  # (receiving op, dtype) of every gradient the backward passes
        accum = ad._accum

        def recording_accum(t, g):
            handed.append((t._op, g.dtype))
            accum(t, g)

        monkeypatch.setattr(ad, "_accum", recording_accum)
        opt = AdamState(state.parameters())
        ad.backward(loss)
        assert handed and all(dt == dtype for _, dt in handed), handed
        for name, t in state.named_parameters():
            assert t.grad.dtype == dtype, name
        adam_step(opt)
        for (name, t), m, v in zip(state.named_parameters(), opt.m, opt.v):
            assert t.data.dtype == m.dtype == v.dtype == dtype, name

    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_numpy_float_config_keeps_float32(self, backbone):
        """A NumPy float64 is a `float`, so the config takes one; the config
        stores it as a Python float, and the weights it becomes (1/tau and
        `mix`'s λs) keep the node table, the loss and every parameter
        gradient float32."""
        ds = clustered_interactions(12, 14, 3, per_user=5, seed=28)
        weights = dict(tau=0.2, lambda1=1.0, lambda2=0.5, lambda3=0.5)
        cfg = PGTRConfig(**SMALL, backbone=backbone,
                         **{name: np.float64(v) for name, v in weights.items()})
        state = init_model(build_graph(ds), cfg, seed=29)
        assert all(type(getattr(cfg, name)) is float for name in weights)
        assert forward(state).data.dtype == np.float32
        loss, _ = batch_loss(state, ds.users[:16], ds.items[:16], ds.user_item_matrix())
        assert loss.data.dtype == np.float32
        ad.backward(loss)
        for name, t in state.named_parameters():
            assert t.grad.dtype == np.float32, name


class TestDifferentiability:
    @pytest.mark.parametrize("backbone", ["lightgcn", "transform-gcn"])
    def test_forward_plus_loss_passes_finite_differences(self, backbone):
        ds = clustered_interactions(6, 6, 2, per_user=3, seed=16)
        g = build_graph(ds)
        cfg = PGTRConfig(d=3, layers=1, h_c=2, h_d=2, h_r=2, h_y=2,
                         n_d=2, n_r=2, lambda3=0.5, backbone=backbone)
        state = as_float64(init_model(g, cfg, seed=17), g)
        if backbone == "transform-gcn":
            # at the init scale the transform's gradient is too small for
            # the check to see
            (w,) = state.transforms
            w.data = np.random.default_rng(19).uniform(-2.0, 2.0, size=w.data.shape)
            assert "backbone_w0" in dict(state.named_parameters())
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
    """The JSON header and the named blocks of a checkpoint file."""
    with np.load(path, allow_pickle=False) as npz:
        blocks = {name: npz[name] for name in npz.files}
    return json.loads(str(blocks.pop("header"))), blocks


def write_checkpoint(path, meta, blocks):
    """A checkpoint file of the header `meta` and a name-to-array dict."""
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(meta)), **blocks)


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def write_members(path, members):
    """A zip archive of (member name, bytes) pairs, which may repeat a name."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members:
            archive.writestr(name, data)


def saved_checkpoint(tmp_path, graph_seed, seed, **cfg):
    """A saved checkpoint's path, its graph and its state."""
    g = small_graph(graph_seed)
    state = init_model(g, PGTRConfig(**SMALL, **cfg), seed=seed)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    return path, g, state


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

    def test_roundtrip_keeps_float32_parameters_bit_for_bit(self, tmp_path):
        g = small_graph(9)
        state = init_model(g, PGTRConfig(**SMALL, backbone="transform-gcn"), seed=30)
        rng = np.random.default_rng(31)
        for _, t in state.named_parameters():
            t.data += rng.standard_normal(t.data.shape).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        restored = dict(load_checkpoint(path, g).named_parameters())
        for name, t in state.named_parameters():
            assert t.data.dtype == restored[name].data.dtype == np.float32, name
            assert t.data.tobytes() == restored[name].data.tobytes(), name

    def test_blocks_are_stored_in_their_own_dtype(self, tmp_path):
        """Parameters as float32, group ids as int64 and the spectral block
        as float64, each as the state holds it, with no .npz suffix added."""
        path, _, state = saved_checkpoint(tmp_path, 9, 34)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        meta, blocks = read_checkpoint(path)
        assert meta["version"] == 8
        stored = [(name, t.data) for name, t in state.named_parameters()]
        stored += [(f"{e.name}_groups", e.group_of) for e in state.enc.grouped]
        stored.append(("spectral", state.enc.spectral.matrix))
        assert list(blocks) == [name for name, _ in stored]
        for name, want in stored:
            assert blocks[name].dtype == want.dtype, name
            assert blocks[name].tobytes() == want.tobytes(), name
        assert all(blocks[f"{e.name}_groups"].dtype == np.int64 for e in state.enc.grouped)
        assert blocks["spectral"].dtype == np.float64
        assert blocks["embeddings"].dtype == np.float32

    def test_block_saved_from_float64_loads_as_nearest_float32(self, tmp_path):
        g = small_graph(9)
        state = as_float64(init_model(g, PGTRConfig(**SMALL), seed=32), g)
        rng = np.random.default_rng(33)
        for _, t in state.named_parameters():
            t.data = rng.standard_normal(t.data.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        restored = dict(load_checkpoint(path, g).named_parameters())
        for name, t in state.named_parameters():
            got = restored[name].data
            assert got.dtype == np.float32, name
            # astype rounds to the nearest float32
            np.testing.assert_array_equal(got, t.data.astype(np.float32), err_msg=name)

    def test_fortran_order_block_loads_its_values(self, tmp_path):
        """A block stored in column-major order (its .npy header says
        `fortran_order`) loads as the same array."""
        path, g, state = saved_checkpoint(tmp_path, 9, 35)
        meta, blocks = read_checkpoint(path)
        want = np.random.default_rng(36).standard_normal(blocks["embeddings"].shape)
        write_checkpoint(path, meta, dict(blocks, embeddings=np.asfortranarray(want)))
        with zipfile.ZipFile(path) as archive, archive.open("embeddings.npy") as member:
            np.lib.format.read_magic(member)
            assert np.lib.format.read_array_header_1_0(member)[1]
        got = load_checkpoint(path, g).embeddings.data
        np.testing.assert_array_equal(got, want.astype(np.float32))

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
        assert restored.enc.spectral.matrix.dtype == np.float64
        np.testing.assert_array_equal(restored.enc.spectral.matrix, state.enc.spectral.matrix)
        for got, want in zip(restored.enc.grouped, state.enc.grouped, strict=True):
            assert got.name == want.name and got.group_of.dtype == np.int64
            np.testing.assert_array_equal(got.group_of, want.group_of)
        # the position node's feature matrix is rebuilt from the stored blocks
        np.testing.assert_array_equal(restored.enc.features, state.enc.features)
        np.testing.assert_array_equal(forward(restored).data, forward(state).data)

    def test_flipped_byte_in_a_parameter_block_rejected(self, tmp_path):
        """The archive's CRC-32 catches a corrupted parameter value, which
        would otherwise load as a finite, plausible number."""
        path, g, state = saved_checkpoint(tmp_path, 13, 22)
        raw = path.read_bytes()
        at = raw.find(state.embeddings.data.tobytes())
        assert at > 0
        for offset in (0, 57, state.embeddings.data.nbytes - 1):
            corrupt = bytearray(raw)
            corrupt[at + offset] ^= 0x01
            path.write_bytes(bytes(corrupt))
            with pytest.raises(ValueError, match="^not a readable checkpoint: "
                                                 "Bad CRC-32 for file 'embeddings.npy'$"):
                load_checkpoint(path, g)

    def test_truncated_file_rejected(self, tmp_path):
        path, g, state = saved_checkpoint(tmp_path, 13, 22)
        raw = path.read_bytes()
        embeddings_at = raw.find(state.embeddings.data.tobytes())
        for cut in (0, 3, 40, embeddings_at + 10, len(raw) // 2, len(raw) - 23, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="^not a readable checkpoint: "):
                load_checkpoint(path, g)

    @pytest.mark.parametrize("claimed", [(2**32, 2**32), (27, 6), (25, 6)],
                             ids=["beyond-maxsize", "one-row-more", "one-row-fewer"])
    def test_block_header_claiming_other_than_its_bytes_rejected(self, tmp_path, monkeypatch,
                                                                 claimed):
        """A member's .npy header is checked against the member's size
        before numpy reads (and allocates) any array, so even a byte count
        beyond sys.maxsize is rejected as a mismatch; so are trailing bytes
        the header does not claim."""
        path, g, state = saved_checkpoint(tmp_path, 13, 22)
        meta, blocks = read_checkpoint(path)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f4", "fortran_order": False, "shape": claimed})
        members = [("header.npy", npy_bytes(np.array(json.dumps(meta))))]
        members += [(f"{name}.npy", header.getvalue() + block.tobytes() if name == "embeddings"
                     else npy_bytes(block)) for name, block in blocks.items()]
        write_members(path, members)

        def no_read(*args, **kwargs):
            raise AssertionError("an array was read before every header was checked")

        monkeypatch.setattr(np.lib.format, "read_array", no_read)
        if claimed[0] > 2**31:
            assert 4 * claimed[0] * claimed[1] > sys.maxsize
        with pytest.raises(ValueError, match="^not a readable checkpoint: block 'embeddings' "
                                             "holds [0-9]+ bytes, its float32 header claims "):
            load_checkpoint(path, g)

    def test_version_2_rejected(self, tmp_path):
        """Version-2 headers carry the removed `attention` field, version 3
        files hold no group ids, version-4 headers carry the removed switch
        for query, key and value maps, version 5 stored every block as
        float64 (its files are not archives; see the next test), and
        version-6 headers carry the removed attention feature maps' seeds,
        and version-7 headers the removed weight of the one-sided spectral
        mix."""
        path, g, _ = saved_checkpoint(tmp_path, 15, 24)
        meta, blocks = read_checkpoint(path)
        for version in (2, 3, 4, 5, 6, 7, "8"):
            write_checkpoint(path, dict(meta, version=version), blocks)
            with pytest.raises(ValueError,
                               match=f"^unsupported checkpoint version {version!r}$"):
                load_checkpoint(path, g)
        del meta["version"]
        write_checkpoint(path, meta, blocks)
        with pytest.raises(ValueError, match="^unsupported checkpoint version None$"):
            load_checkpoint(path, g)

    def test_removed_lambda_c_field_rejected(self, tmp_path):
        """A current-version header that still carries the one-sided
        spectral mix's weight fails on the field, whatever its value."""
        path, g, _ = saved_checkpoint(tmp_path, 15, 24)
        meta, blocks = read_checkpoint(path)
        for value in (0.0, 0.5):
            write_checkpoint(path, dict(meta, config=dict(meta["config"], lambda_c=value)),
                             blocks)
            with pytest.raises(ValueError, match="^unknown config field 'lambda_c'$"):
                load_checkpoint(path, g)

    def test_format_5_file_rejected(self, tmp_path):
        """The bespoke format 5 (magic, version byte, length-prefixed JSON
        header and float64 blocks) is not an npz archive."""
        path, g, _ = saved_checkpoint(tmp_path, 15, 24)
        meta, _ = read_checkpoint(path)
        header = json.dumps(meta).encode()
        path.write_bytes(b"PGTR" + bytes([5]) + len(header).to_bytes(4, "little") + header)
        with pytest.raises(ValueError, match="^not a readable checkpoint: File is not a zip file$"):
            load_checkpoint(path, g)

    def test_malformed_header_names_the_field(self, tmp_path):
        path, g, _ = saved_checkpoint(tmp_path, 16, 25)
        meta, blocks = read_checkpoint(path)
        write_checkpoint(path, meta, blocks)
        # the test's reader and writer match the format
        reread_meta, reread = read_checkpoint(path)
        assert reread_meta == meta and reread.keys() == blocks.keys()
        assert all(reread[k].dtype == v.dtype and reread[k].tobytes() == v.tobytes()
                   for k, v in blocks.items())
        without_seed = {k: v for k, v in meta.items() if k != "seed"}
        edits = [
            ("'seed'", without_seed),
            ("'attention'", dict(meta, config=dict(meta["config"], attention="kernelized"))),
            ("^checkpoint header is not a JSON object$", 5),
            ("^checkpoint header is not a JSON object$", [meta]),
            ("^checkpoint field 'config' must be an object, got \\[1\\]$", dict(meta, config=[1])),
        ]
        edits += [(f"^checkpoint field 'seed' must be a non-negative int, got {bad!r}$",
                   dict(meta, seed=bad)) for bad in ("abc", 1.5, True, -1)]
        for match, bad in edits:
            write_checkpoint(path, bad, blocks)
            with pytest.raises(ValueError, match=match):
                load_checkpoint(path, g)
        # a header that is no JSON string, or none at all
        for header in ({"header": np.array("{")}, {"header": np.zeros(2)},
                       {"header": np.array(json.dumps(meta).encode())}, {}):
            with open(path, "wb") as fh:
                np.savez(fh, **header, **blocks)
            with pytest.raises(ValueError, match="^not a readable checkpoint: "
                                                 "its header is no JSON"):
                load_checkpoint(path, g)

    @pytest.mark.parametrize("field, value", [
        ("d", "6"), ("d", 6.0), ("layers", True), ("tau", "0.2"), ("tau", False),
        ("use_spectral", "no"), ("use_spectral", 1), ("backbone", 1)])
    def test_header_value_of_the_wrong_type_names_the_field(self, tmp_path, field, value):
        path, g, _ = saved_checkpoint(tmp_path, 16, 25)
        meta, blocks = read_checkpoint(path)
        meta["config"][field] = value
        write_checkpoint(path, meta, blocks)
        with pytest.raises(ValueError, match=f"^config field '{field}' must be "):
            load_checkpoint(path, g)

    def test_float_field_takes_an_int(self):
        cfg = PGTRConfig.from_dict(dict(PGTRConfig().to_dict(), tau=1, lambda3=0))
        assert (cfg.tau, cfg.lambda3) == (1, 0)

    def test_unknown_block_names_the_block(self, tmp_path):
        """Only the blocks a save of the config writes may load: an extra one,
        here after the expected ones, is rejected by name."""
        path, g, _ = saved_checkpoint(tmp_path, 17, 26)
        meta, blocks = read_checkpoint(path)
        write_checkpoint(path, meta, dict(blocks, bogus=np.zeros((1, 1))))
        with pytest.raises(ValueError, match="^checkpoint holds an unknown block 'bogus'$"):
            load_checkpoint(path, g)
        # a block of an encoding the config turns off is unknown too
        off = dict(meta, config=dict(meta["config"], use_degree=False))
        write_checkpoint(path, off, blocks)
        with pytest.raises(ValueError, match="^checkpoint holds an unknown block 'degree'$"):
            load_checkpoint(path, g)

    def test_repeated_block_names_the_block(self, tmp_path):
        """A second copy of a block is rejected, not loaded over the first."""
        path, g, _ = saved_checkpoint(tmp_path, 17, 26)
        with zipfile.ZipFile(path) as archive:
            members = [(name, archive.read(name)) for name in archive.namelist()]
        name, data = members[1]
        assert name == "embeddings.npy"
        with pytest.warns(UserWarning, match="Duplicate name"):
            write_members(path, members + [(name, data)])
        with pytest.raises(ValueError, match="^not a readable checkpoint: "
                                             "block 'embeddings' appears twice$"):
            load_checkpoint(path, g)

    def test_parameter_block_must_be_a_float_block_of_its_shape(self, tmp_path):
        path, g, state = saved_checkpoint(tmp_path, 17, 26)
        meta, blocks = read_checkpoint(path)
        embeddings = blocks["embeddings"]
        for bad in (None, embeddings[:-1], embeddings.T, embeddings.astype(np.int64),
                    embeddings.astype(np.complex64)):
            edited = {k: v for k, v in blocks.items() if k != "embeddings"}
            if bad is not None:
                edited["embeddings"] = bad
            write_checkpoint(path, meta, edited)
            with pytest.raises(ValueError, match="^checkpoint parameter block 'embeddings' "
                                                 "is missing or not a \\(26, 6\\) block"):
                load_checkpoint(path, g)

    def test_malformed_group_ids_name_the_block(self, tmp_path):
        path, g, _ = saved_checkpoint(tmp_path, 17, 26)
        meta, blocks = read_checkpoint(path)
        ids = blocks["pagerank_groups"]
        assert ids.shape == (g.n_users + g.n_items,) and ids.dtype == np.int64
        assert ids.max() == 2 * SMALL["n_r"] - 1
        for bad in (None, ids[:-1], ids[None, :], ids.astype(np.float64), -1, 2 * SMALL["n_r"]):
            edited = dict(blocks)
            if bad is None:
                del edited["pagerank_groups"]
            elif np.ndim(bad):
                edited["pagerank_groups"] = bad
            else:
                edited["pagerank_groups"] = ids.copy()
                edited["pagerank_groups"][3] = bad
            write_checkpoint(path, meta, edited)
            with pytest.raises(ValueError, match="'pagerank_groups'"):
                load_checkpoint(path, g)

    def test_object_and_pickled_members_rejected(self, tmp_path):
        """No member is unpickled: an object array and a bare pickle in a
        parameter's place are rejected before anything is read."""
        path, g, _ = saved_checkpoint(tmp_path, 17, 26)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        objects = np.empty((26, 6), dtype=object)
        objects[:] = 1.0
        for data in (npy_bytes(objects), pickle.dumps(np.zeros((26, 6), np.float32))):
            write_members(path, dict(members, **{"embeddings.npy": data}).items())
            with pytest.raises(ValueError, match="^not a readable checkpoint: "):
                load_checkpoint(path, g)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        g = small_graph(12)
        for raw in (b"nope", b"", npy_bytes(np.zeros(3))):
            p.write_bytes(raw)
            with pytest.raises(ValueError, match="^not a readable checkpoint"):
                load_checkpoint(p, g)


class TestDrawOrder:
    @pytest.mark.parametrize("kw", [
        {},
        dict(backbone="transform-gcn"),
        dict(use_degree=False, use_type=False),
        dict(use_spectral=False, use_degree=False, use_pagerank=False, use_type=False,
             backbone="transform-gcn"),
    ])
    def test_replays_from_the_seed(self, kw):
        """`init_model` draws from `default_rng(seed)`, in order: the
        embeddings; the degree, PageRank and type tables; the item, user,
        spectral, degree, PageRank and type projections; the backbone
        transforms.  Each parameter is then cast to float32.  Checkpoints
        and repeated runs rely on it."""
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
        got = dict(state.named_parameters())
        assert list(got) == list(want)
        for name, data in want.items():
            np.testing.assert_array_equal(got[name].data, data.astype(np.float32),
                                          err_msg=name)


def moved(name: str, value):
    """Another valid value of the config field `name` than `value`."""
    if name == "backbone":
        return "transform-gcn"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    raise AssertionError(f"no other value known for config field {name!r}")


def observables(cfg: PGTRConfig) -> dict:
    """What a config can change: each parameter and frozen block of
    `init_model`, the `forward` table, and `batch_loss`'s loss on a fixed
    batch."""
    ds = clustered_interactions(12, 14, 3, per_user=5, seed=5)
    state = init_model(build_graph(ds), cfg, seed=0)
    out = {f"parameter {name}": t.data for name, t in state.named_parameters()}
    out.update((f"frozen {name}", block) for name, block in state.enc.frozen_blocks())
    out["forward"] = forward(state).data
    loss, _ = batch_loss(state, ds.users[:16], ds.items[:16], ds.user_item_matrix())
    out["loss"] = loss.data
    return out


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PGTRConfig)])
def test_every_config_field_changes_the_model(name):
    """A field whose other valid value changes no parameter, frozen block,
    forward table or loss is a dead knob."""
    base = PGTRConfig(**SMALL)
    other = dataclasses.replace(base, **{name: moved(name, getattr(base, name))})
    want, got = observables(base), observables(other)
    assert want.keys() != got.keys() or any(
        want[key].shape != got[key].shape or not np.array_equal(want[key], got[key])
        for key in want), f"{name} changes nothing observable"


class TestFrozenConfig:
    """A config is checked when it is built and cannot change afterwards, so
    a model and every checkpoint of it hold the config that was checked."""

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PGTRConfig)])
    def test_fields_cannot_be_assigned(self, name):
        cfg = PGTRConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, moved(name, getattr(cfg, name)))
        assert cfg == PGTRConfig()

    def test_model_config_cannot_change_so_its_checkpoint_loads(self, tmp_path):
        path, g, state = saved_checkpoint(tmp_path, 16, 25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.config.lambda3 = 2.0
        save_checkpoint(state, path)
        assert load_checkpoint(path, g).config == state.config == PGTRConfig(**SMALL)

    def test_out_of_range_value_raises_when_built(self):
        with pytest.raises(ValueError, match="^tau"):
            PGTRConfig(tau=0.0)
        with pytest.raises(ValueError, match=r"^lambda3=2.0 must lie in \[0, 1\]$"):
            dataclasses.replace(PGTRConfig(), lambda3=2.0)
        with pytest.raises(ValueError, match="^config field 'd' must be int, got 6.5$"):
            PGTRConfig.from_dict(dict(PGTRConfig().to_dict(), d=6.5))


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
        ("lambda3", float("nan")), ("lambda1", float("inf")),
        ("d", 0), ("d", 6.5), ("n_d", 2.0), ("layers", True),
        ("use_spectral", "no")])
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
       h_c=st.integers(1, 4))
@example(ds=InteractionDataset(1, 3, np.array([0, 0]), np.array([0, 2])),
         n_d=1, n_r=1, h_c=1)
def test_init_builds_or_raises_a_typed_error(ds, n_d, n_r, h_c):
    cfg = PGTRConfig(d=4, h_c=h_c, h_d=2, h_r=2, h_y=2, n_d=n_d, n_r=n_r)
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
