"""Position-aware graph transformer: model state, forward pass, checkpoints.

The forward pass composes position injection (`encodings.position_tape`),
local propagation (`backbone`), position re-injection, kernelized
all-pairs attention (`attention`), local/global mixing, and mean readout
over the bipartite graph, all on the gradient tape.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import typing
from dataclasses import dataclass

import numpy as np

from .attention import RandomFeatureMap, kernelized_attention, make_feature_map
from .autodiff import Tensor, parameter
from .backbone import normalized_adjacency, propagate_layer, readout
from .data import BipartiteGraph
from .encodings import PositionalEncodingSet, build_encoding_set, position_tape

__all__ = [
    "PGTRConfig",
    "ModelState",
    "init_model",
    "forward",
    "count_added_parameters",
    "save_checkpoint",
    "load_checkpoint",
]

EMBED_INIT_STD = 0.1
CHECKPOINT_MAGIC = b"PGTR"
CHECKPOINT_VERSION = 4
HEADER_FIELDS = ("config", "n_users", "n_items", "graph_hash", "seed", "feature_map_seeds")


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

    def validate(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda_c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} must lie in [0, 1]")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        for name in ("d", "layers", "h_c", "h_d", "h_r", "h_y", "n_d", "n_r", "m_features"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if self.backbone not in ("lightgcn", "transform-gcn"):
            raise ValueError(f"unknown backbone {self.backbone!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PGTRConfig":
        """The config a `to_dict` record describes.  Raises ValueError naming
        the field on an unknown key or a value of the wrong type: an int
        field takes an int, a float field an int or a float, and only a
        bool field takes a bool."""
        types = typing.get_type_hints(cls)
        unknown = sorted(set(d) - types.keys())
        if unknown:
            raise ValueError(f"unknown config field {unknown[0]!r}")
        for name, value in d.items():
            want = (int, float) if types[name] is float else types[name]
            if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
                raise ValueError(f"config field {name!r} must be "
                                 f"{types[name].__name__}, got {value!r}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass(eq=False)
class ModelState:
    """Embedding table, encodings, backbone transforms (one per layer for
    transform-gcn, none for lightgcn), feature maps, and graph constants."""

    config: PGTRConfig
    n_users: int
    n_items: int
    graph_hash: str
    adjacency: object
    embeddings: Tensor
    enc: PositionalEncodingSet
    feature_maps: list[RandomFeatureMap]
    transforms: list[Tensor]
    attn_projections: list[tuple[Tensor, Tensor, Tensor]] | None
    seed: int

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [("embeddings", self.embeddings)]
        named.extend(self.enc.trainable_tables())
        for l, w in enumerate(self.transforms):
            named.append((f"backbone_w{l}", w))
        if self.attn_projections:
            for l, (wq, wk, wv) in enumerate(self.attn_projections):
                named.extend([(f"attn_q{l}", wq), (f"attn_k{l}", wk), (f"attn_v{l}", wv)])
        return named

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _graph_hash(graph: BipartiteGraph) -> str:
    """Hash of the user-item adjacency structure, which checkpoints record."""
    digest = hashlib.sha256()
    for part in (graph.user_adj.indptr, graph.user_adj.indices):
        digest.update(np.asarray(part, dtype="<i8").tobytes())
    return digest.hexdigest()


def init_model(graph: BipartiteGraph, cfg: PGTRConfig, seed: int = 0) -> ModelState:
    return _init_model(graph, cfg, seed, stored=None)


def _init_model(graph: BipartiteGraph, cfg: PGTRConfig, seed: int,
                stored: dict | None) -> ModelState:
    """`init_model`, taking the frozen encoding blocks from `stored` (see
    `build_encoding_set`) instead of computing them when it is not None."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    n_nodes = graph.n_users + graph.n_items
    embeddings = parameter(rng.normal(0.0, EMBED_INIT_STD, size=(n_nodes, cfg.d)),
                           name="embeddings")
    enc = build_encoding_set(graph, cfg, rng, stored)
    bound = 0.1 / np.sqrt(cfg.d)

    def square(name: str) -> Tensor:
        return parameter(rng.uniform(-bound, bound, size=(cfg.d, cfg.d)), name=name)

    transforms = []
    if cfg.backbone == "transform-gcn":
        transforms = [square(f"backbone_w{l}") for l in range(cfg.layers)]
    attn_projections = None
    if cfg.use_projections:
        attn_projections = [tuple(square(f"attn_{tag}{l}") for tag in "qkv")
                            for l in range(cfg.layers)]
    fm_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(cfg.layers)]
    feature_maps = [make_feature_map(cfg.m_features, cfg.d, s) for s in fm_seeds]
    return ModelState(cfg, graph.n_users, graph.n_items, _graph_hash(graph),
                      normalized_adjacency(graph), embeddings, enc, feature_maps,
                      transforms, attn_projections, seed)


def forward(state: ModelState, return_layers: bool = False):
    """Final node table H ((N+M) x d) on the gradient tape.

    With `return_layers`, also returns per-layer (local, global, mixed)
    triples for inspection.
    """
    cfg = state.config
    scale = 1.0 / np.sqrt(cfg.d)
    needs_pos = (cfg.lambda1 != 0.0 or (cfg.lambda2 != 0.0 and cfg.lambda3 != 0.0))
    pos = position_tape(state.enc) if needs_pos else None

    h = state.embeddings
    if pos is not None and cfg.lambda1 != 0.0:
        h = h + pos * cfg.lambda1
    tables = [h]
    internals = []
    for layer in range(cfg.layers):
        local = propagate_layer(h, state.adjacency,
                                state.transforms[layer] if state.transforms else None)
        if cfg.lambda3 != 0.0:
            attn_in = local + pos * cfg.lambda2 if (pos is not None and cfg.lambda2 != 0.0) else local
            proj = state.attn_projections[layer] if state.attn_projections else None
            global_ = kernelized_attention(attn_in, state.feature_maps[layer], scale, proj)
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


def count_added_parameters(state: ModelState) -> int:
    """Trainable scalars beyond the embedding table (projections-off only)."""
    if state.config.use_projections:
        raise ValueError("parameter census is defined for the projections-off configuration")
    return sum(t.data.size for _, t in state.enc.trainable_tables())


def save_checkpoint(state: ModelState, path):
    """Versioned header, config JSON, then named row-major float64 blocks:
    the parameters, each grouped encoding's group ids as a (1, N+M) row
    `<name>_groups`, and the frozen `spectral` block.  Loading restores the
    frozen blocks, so it runs neither the eigensolve nor PageRank."""
    meta = {
        "config": state.config.to_dict(),
        "n_users": state.n_users,
        "n_items": state.n_items,
        "graph_hash": state.graph_hash,
        "seed": state.seed,
        "feature_map_seeds": [rf.seed for rf in state.feature_maps],
    }
    blocks = [(name, t.data) for name, t in state.named_parameters()]
    blocks += [(f"{e.name}_groups", e.group_of[None, :]) for e in state.enc.grouped]
    if state.enc.spectral is not None:
        blocks.append(("spectral", state.enc.spectral.matrix))
    raw = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<I", len(blocks)))
        for name, array in blocks:
            encoded = name.encode("utf-8")
            rows, cols = array.shape
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", rows, cols))
            fh.write(array.astype("<f8").tobytes(order="C"))


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

    missing = [field for field in HEADER_FIELDS if field not in meta]
    if missing:
        raise ValueError(f"checkpoint header lacks the field {missing[0]!r}")
    if ([meta["n_users"], meta["n_items"], meta["graph_hash"]]
            != [graph.n_users, graph.n_items, _graph_hash(graph)]):
        raise ValueError("checkpoint was built for a different graph")
    cfg = PGTRConfig.from_dict(meta["config"])
    state = _init_model(graph, cfg, meta["seed"], stored=blocks)
    if meta["feature_map_seeds"] != [rf.seed for rf in state.feature_maps]:
        raise ValueError("checkpoint field 'feature_map_seeds' differs from the "
                         "feature maps its seed draws")
    for name, tensor in state.named_parameters():
        if name not in blocks:
            raise ValueError(f"checkpoint missing parameter block {name!r}")
        if blocks[name].shape != tensor.data.shape:
            raise ValueError(f"checkpoint block {name!r} has the wrong shape")
        tensor.data = blocks[name]
    return state
