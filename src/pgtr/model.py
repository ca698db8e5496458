"""Position-aware graph transformer: forward pass, scoring, checkpoints.

Composes position injection, local propagation, position re-injection,
all-pairs attention, local/global mixing, and mean readout over the
bipartite graph.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import MIN_DENOMINATOR, AttentionError, RandomFeatureMap, make_feature_map
from .autodiff import Tensor, constant, parameter
from .backbone import BackboneConfig, normalized_adjacency, propagate_layer, readout
from .data import BipartiteGraph
from .encodings import PositionalEncodingSet, build_encoding_set

__all__ = [
    "PGTRConfig",
    "ModelState",
    "init_model",
    "forward",
    "score",
    "count_added_parameters",
    "save_checkpoint",
    "load_checkpoint",
]

EMBED_INIT_STD = 0.1
CHECKPOINT_MAGIC = b"PGTR"
CHECKPOINT_VERSION = 1


@dataclass
class PGTRConfig:
    d: int = 32
    layers: int = 2
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.5
    lambda_c: float = 0.0
    tau: float = 0.2
    h_c: int = 50
    h_d: int = 4
    h_r: int = 4
    h_y: int = 4
    n_d: int = 10
    n_r: int = 10
    m_features: int = 64
    use_spectral: bool = True
    use_degree: bool = True
    use_pagerank: bool = True
    use_type: bool = True
    backbone: str = "lightgcn"
    use_projections: bool = False
    attention: str = "kernelized"

    def validate(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda_c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} must lie in [0, 1]")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        for name in ("d", "layers", "h_c", "h_d", "h_r", "h_y", "n_d", "n_r", "m_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.attention not in ("kernelized", "exact"):
            raise ValueError(f"unknown attention mode {self.attention!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PGTRConfig":
        cfg = cls(**d)
        cfg.validate()
        return cfg


class ModelState:
    """Embedding table, encodings, feature maps, and graph constants."""

    def __init__(self, config: PGTRConfig, n_users: int, n_items: int,
                 adjacency, n_isolated: int, embeddings: Tensor,
                 enc: PositionalEncodingSet, feature_maps: list[RandomFeatureMap],
                 backbone_cfg: BackboneConfig,
                 attn_projections: list[tuple[Tensor, Tensor, Tensor]] | None,
                 seed: int):
        self.config = config
        self.n_users = n_users
        self.n_items = n_items
        self.adjacency = adjacency
        self.n_isolated = n_isolated
        self.embeddings = embeddings
        self.enc = enc
        self.feature_maps = feature_maps
        self.backbone_cfg = backbone_cfg
        self.attn_projections = attn_projections
        self.seed = seed

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [("embeddings", self.embeddings)]
        named.extend(self.enc.trainable_tables())
        for l, w in enumerate(self.backbone_cfg.transforms):
            named.append((f"backbone_w{l}", w))
        if self.attn_projections:
            for l, (wq, wk, wv) in enumerate(self.attn_projections):
                named.extend([(f"attn_q{l}", wq), (f"attn_k{l}", wk), (f"attn_v{l}", wv)])
        return named

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_model(graph: BipartiteGraph, cfg: PGTRConfig, seed: int = 0) -> ModelState:
    cfg.validate()
    rng = np.random.default_rng(seed)
    n_nodes = graph.n_users + graph.n_items
    embeddings = parameter(rng.normal(0.0, EMBED_INIT_STD, size=(n_nodes, cfg.d)),
                           name="embeddings")
    enc = build_encoding_set(
        graph, d=cfg.d, h_c=cfg.h_c, h_d=cfg.h_d, h_r=cfg.h_r, h_y=cfg.h_y,
        n_d=cfg.n_d, n_r=cfg.n_r, lambda_c=cfg.lambda_c, rng=rng,
        use_spectral=cfg.use_spectral, use_degree=cfg.use_degree,
        use_pagerank=cfg.use_pagerank, use_type=cfg.use_type)
    transforms = []
    if cfg.backbone == "transform-gcn":
        bound = 0.1 / np.sqrt(cfg.d)
        transforms = [parameter(rng.uniform(-bound, bound, size=(cfg.d, cfg.d)),
                                name=f"backbone_w{l}") for l in range(cfg.layers)]
    backbone_cfg = BackboneConfig(variant=cfg.backbone, layers=cfg.layers,
                                  transforms=transforms)
    attn_projections = None
    if cfg.use_projections:
        bound = 0.1 / np.sqrt(cfg.d)
        attn_projections = []
        for l in range(cfg.layers):
            attn_projections.append(tuple(
                parameter(rng.uniform(-bound, bound, size=(cfg.d, cfg.d)),
                          name=f"attn_{tag}{l}") for tag in "qkv"))
    fm_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(cfg.layers)]
    feature_maps = [make_feature_map(cfg.m_features, cfg.d, s) for s in fm_seeds]
    adjacency, n_isolated = normalized_adjacency(graph)
    return ModelState(cfg, graph.n_users, graph.n_items, adjacency, n_isolated,
                      embeddings, enc, feature_maps, backbone_cfg,
                      attn_projections, seed)


def _position_tape(state: ModelState) -> Tensor | None:
    """P_j for every node on the gradient tape, users first."""
    enc = state.enc
    if not enc.any_enabled:
        return None
    n, m = enc.n_users, enc.n_items
    p = enc.projection
    terms = []
    if enc.spectral is not None:
        terms.append(ad.matmul(constant(enc.spectral.matrix.T), ad.transpose(p.w_spectral)))
    if enc.degree_user is not None:
        table_u, asg_u = enc.degree_user
        table_i, asg_i = enc.degree_item
        stacked = ad.concat_rows([ad.gather_rows(table_u, asg_u.group_of),
                                  ad.gather_rows(table_i, asg_i.group_of)])
        terms.append(ad.matmul(stacked, ad.transpose(p.w_degree)))
    if enc.pagerank_user is not None:
        table_u, asg_u = enc.pagerank_user
        table_i, asg_i = enc.pagerank_item
        stacked = ad.concat_rows([ad.gather_rows(table_u, asg_u.group_of),
                                  ad.gather_rows(table_i, asg_i.group_of)])
        terms.append(ad.matmul(stacked, ad.transpose(p.w_pagerank)))
    if enc.types is not None:
        type_rows = np.concatenate([np.ones(n, dtype=np.int64), np.zeros(m, dtype=np.int64)])
        terms.append(ad.matmul(ad.gather_rows(enc.types, type_rows), ad.transpose(p.w_type)))
    inner = terms[0]
    for t in terms[1:]:
        inner = inner + t
    return ad.concat_rows([
        ad.matmul(ad.slice_rows(inner, 0, n), ad.transpose(p.w_user)),
        ad.matmul(ad.slice_rows(inner, n, n + m), ad.transpose(p.w_item)),
    ])


def _kernelized_attention_tape(h: Tensor, rf: RandomFeatureMap, scale: float,
                               proj: tuple[Tensor, Tensor, Tensor] | None) -> Tensor:
    if proj is None:
        q = k = v = h
    else:
        wq, wk, wv = proj
        q = ad.matmul(h, ad.transpose(wq))
        k = ad.matmul(h, ad.transpose(wk))
        v = ad.matmul(h, ad.transpose(wv))
    phi_q = _feature_map_tape(q * scale, rf)
    phi_k = phi_q if proj is None else _feature_map_tape(k * scale, rf)
    summary = ad.matmul(ad.transpose(phi_k), v)
    totals = ad.sum_axis(phi_k, axis=0)
    numer = ad.matmul(phi_q, summary)
    denom = ad.matmul(phi_q, ad.transpose(totals))
    if denom.data.min() < MIN_DENOMINATOR:
        raise AttentionError("attention denominator underflow; inputs need rescaling")
    return ad.div(numer, denom)


def _feature_map_tape(x: Tensor, rf: RandomFeatureMap) -> Tensor:
    sq = ad.sum_axis(x * x, axis=1)
    logits = ad.matmul(x, constant(rf.directions.T))
    if logits.data.max(initial=-np.inf) > 700.0:
        raise AttentionError("feature map direction products overflow exp; scale inputs down")
    return ad.exp(logits - sq * 0.5) * (1.0 / np.sqrt(rf.m))


def _exact_attention_tape(h: Tensor, scale: float,
                          proj: tuple[Tensor, Tensor, Tensor] | None) -> Tensor:
    if proj is None:
        q = k = v = h
    else:
        wq, wk, wv = proj
        q = ad.matmul(h, ad.transpose(wq))
        k = ad.matmul(h, ad.transpose(wk))
        v = ad.matmul(h, ad.transpose(wv))
    logits = ad.matmul(q * scale, ad.transpose(k * scale))
    weights = ad.exp(logits - ad.logsumexp_rows(logits))
    return ad.matmul(weights, v)


def forward(state: ModelState, return_layers: bool = False):
    """Final node table H ((N+M) x d) on the gradient tape.

    With `return_layers`, also returns per-layer (local, global, mixed)
    triples for inspection.
    """
    cfg = state.config
    scale = 1.0 / np.sqrt(cfg.d)
    needs_pos = (cfg.lambda1 != 0.0 or (cfg.lambda2 != 0.0 and cfg.lambda3 != 0.0))
    pos = _position_tape(state) if needs_pos else None

    h = state.embeddings
    if pos is not None and cfg.lambda1 != 0.0:
        h = h + pos * cfg.lambda1
    tables = [h]
    internals = []
    for layer in range(cfg.layers):
        local = propagate_layer(h, state.adjacency, state.backbone_cfg, layer)
        if cfg.lambda3 != 0.0:
            attn_in = local + pos * cfg.lambda2 if (pos is not None and cfg.lambda2 != 0.0) else local
            proj = state.attn_projections[layer] if state.attn_projections else None
            if cfg.attention == "exact":
                global_ = _exact_attention_tape(attn_in, scale, proj)
            else:
                global_ = _kernelized_attention_tape(attn_in, state.feature_maps[layer],
                                                     scale, proj)
            mixed = local * (1.0 - cfg.lambda3) + global_ * cfg.lambda3
        else:
            global_ = None
            mixed = local
        internals.append((local, global_, mixed))
        tables.append(mixed)
        h = mixed
    out = readout(tables)
    if return_layers:
        return out, internals
    return out


def score(h_final: np.ndarray, u: int, i: int, tau: float, n_users: int) -> float:
    """Temperature-scaled cosine between a user row and an item row."""
    hu = h_final[u]
    hi = h_final[n_users + i]
    nu, ni = np.linalg.norm(hu), np.linalg.norm(hi)
    if nu == 0.0:
        raise ValueError(f"zero-norm representation for user node {u}")
    if ni == 0.0:
        raise ValueError(f"zero-norm representation for item node {i}")
    return float(hu @ hi / (nu * ni * tau))


def count_added_parameters(state: ModelState) -> int:
    """Trainable scalars beyond the embedding table (projections-off only)."""
    if state.config.use_projections:
        raise ValueError("parameter census is defined for the projections-off configuration")
    return sum(t.data.size for _, t in state.enc.trainable_tables())


def save_checkpoint(state: ModelState, path):
    """Versioned header, config JSON, then named row-major float64 blocks."""
    meta = {
        "config": state.config.to_dict(),
        "n_users": state.n_users,
        "n_items": state.n_items,
        "seed": state.seed,
        "feature_map_seeds": [rf.seed for rf in state.feature_maps],
    }
    blocks = list(state.named_parameters())
    if state.enc.spectral is not None:
        blocks.append(("spectral", constant(state.enc.spectral.matrix)))
    raw = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<I", len(blocks)))
        for name, tensor in blocks:
            encoded = name.encode("utf-8")
            rows, cols = tensor.data.shape
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", rows, cols))
            fh.write(tensor.data.astype("<f8").tobytes(order="C"))


def _read(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"checkpoint truncated in {what}: "
                         f"expected {size} bytes, found {len(data)}")
    return data


def load_checkpoint(path, graph: BipartiteGraph) -> ModelState:
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("not a model checkpoint")
        (version,) = struct.unpack("<B", _read(fh, 1, "the version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read(fh, 4, "the header length"))
        meta = json.loads(_read(fh, meta_len, "the header").decode("utf-8"))
        (n_blocks,) = struct.unpack("<I", _read(fh, 4, "the block count"))
        blocks = {}
        for index in range(n_blocks):
            (name_len,) = struct.unpack("<I", _read(fh, 4, f"the name length of block {index}"))
            name = _read(fh, name_len, f"the name of block {index}").decode("utf-8")
            rows, cols = struct.unpack("<II", _read(fh, 8, f"the shape of block {name!r}"))
            data = _read(fh, rows * cols * 8, f"the data of block {name!r}")
            blocks[name] = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()

    if meta["n_users"] != graph.n_users or meta["n_items"] != graph.n_items:
        raise ValueError("checkpoint was built for a different graph")
    cfg = PGTRConfig.from_dict(meta["config"])
    state = init_model(graph, cfg, seed=meta["seed"])
    state.feature_maps = [make_feature_map(cfg.m_features, cfg.d, s)
                          for s in meta["feature_map_seeds"]]
    for name, tensor in state.named_parameters():
        if name not in blocks:
            raise ValueError(f"checkpoint missing parameter block {name!r}")
        if blocks[name].shape != tensor.data.shape:
            raise ValueError(f"checkpoint block {name!r} has the wrong shape")
        tensor.data = blocks[name]
    if state.enc.spectral is not None and "spectral" in blocks:
        state.enc.spectral.matrix = blocks["spectral"]
    return state
