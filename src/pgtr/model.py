"""Position-aware graph transformer: model state, forward pass, checkpoints.

The forward pass composes position injection (`encodings.position_tape`),
one node per layer for local propagation, the global term and their mix
(`backbone.propagate_layer`), and mean readout over the bipartite graph,
all on the gradient tape.  The global term is the column mean of the
layer's position-injected table, given to every node: all-pairs softmax
attention with the input table as queries, keys and values, in the
small-logit limit that its 1/sqrt(d)-scaled logits sit in.

The model computes in float32: `init_model` makes its random draws in
float64 and casts the parameters, the frozen position features and the
normalized adjacency to float32.  The eigensolve, PageRank and the stored
spectral block stay float64.  The forward takes its dtype from those
arrays, so a state whose arrays are cast to float64 computes in float64.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, check_finite, mean, mix
from .backbone import propagate_layer
from .data import BipartiteGraph, check_field_types, field_types
from .encodings import PositionalEncodingSet, _init_table, build_encoding_set, position_tape

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
CHECKPOINT_VERSION = 8
HEADER_FIELDS = ("config", "n_users", "n_items", "graph_hash", "seed")
# the dtype `init_model` casts the model's arrays to (see the module docstring)
MODEL_DTYPE = np.float32


@dataclass(frozen=True)
class PGTRConfig:
    """The model's hyperparameters, immutable and checked when built (also
    by `dataclasses.replace`): ValueError names a field of the wrong type
    (`check_field_types`) or out of range.  Floats are stored as Python
    floats, since a NumPy float64 would promote float32 arithmetic."""

    d: int = 32
    layers: int = 2
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.5
    tau: float = 0.2
    h_c: int = 50
    h_d: int = 4
    h_r: int = 4
    h_y: int = 4
    n_d: int = 10
    n_r: int = 10
    use_spectral: bool = True
    use_degree: bool = True
    use_pagerank: bool = True
    use_type: bool = True
    backbone: str = "lightgcn"

    def __post_init__(self):
        check_field_types(PGTRConfig, vars(self))
        for name in ("lambda1", "lambda2", "lambda3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} must lie in [0, 1]")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        for name in ("d", "layers", "h_c", "h_d", "h_r", "h_y", "n_d", "n_r"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if self.backbone not in ("lightgcn", "transform-gcn"):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        for name, kind in field_types(PGTRConfig).items():
            if kind is float:
                object.__setattr__(self, name, float(getattr(self, name)))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PGTRConfig":
        """The config a `to_dict` record describes.  Raises ValueError naming
        the field on an unknown key or an invalid value; a value of the
        wrong type is named as a config field."""
        unknown = sorted(set(d) - field_types(cls).keys())
        if unknown:
            raise ValueError(f"unknown config field {unknown[0]!r}")
        check_field_types(cls, d, "config field {!r}")
        return cls(**d)


@dataclass(eq=False)
class ModelState:
    """Embedding table, encodings, backbone transforms (one per layer for
    transform-gcn, none for lightgcn), and graph constants."""

    config: PGTRConfig
    n_users: int
    n_items: int
    graph_hash: str
    adjacency: object
    embeddings: Tensor
    enc: PositionalEncodingSet
    transforms: list[Tensor]
    seed: int

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [("embeddings", self.embeddings)]
        named.extend(self.enc.trainable_tables())
        for l, w in enumerate(self.transforms):
            named.append((f"backbone_w{l}", w))
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
    rng = np.random.default_rng(seed)
    n_nodes = graph.n_users + graph.n_items
    embeddings = Tensor(rng.normal(0.0, EMBED_INIT_STD, size=(n_nodes, cfg.d)))
    enc = build_encoding_set(graph, cfg, rng, stored)
    transforms = []
    if cfg.backbone == "transform-gcn":
        transforms = [_init_table(cfg.d, cfg.d, rng) for _ in range(cfg.layers)]
    state = ModelState(cfg, graph.n_users, graph.n_items, _graph_hash(graph),
                       graph.normalized_adjacency().astype(MODEL_DTYPE), embeddings, enc,
                       transforms, seed)
    for t in state.parameters():
        t.data = t.data.astype(MODEL_DTYPE)
    if enc.features is not None:
        enc.features = enc.features.astype(MODEL_DTYPE)
    return state


def forward(state: ModelState) -> Tensor:
    """Final node table H ((N+M) x d) on the gradient tape: the `position`
    node, the injection `mix` h + λ1·pos, one `propagate_layer` node per
    layer and the readout's `mean`.

    The ops do not check their outputs, and numpy's overflow, invalid and
    divide warnings are silenced while they run; the table is checked once
    at the end (`check_finite`), so a NaN or Inf raises NumericsError
    naming the op that produced it.
    """
    cfg = state.config
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        needs_pos = (cfg.lambda1 != 0.0 or (cfg.lambda2 != 0.0 and cfg.lambda3 != 0.0))
        pos = position_tape(state.enc) if needs_pos else None

        h = state.embeddings
        if pos is not None and cfg.lambda1 != 0.0:
            h = mix(h, pos, 1.0, cfg.lambda1)
        tables = [h]
        for layer in range(cfg.layers):
            h = propagate_layer(h, state.adjacency,
                                state.transforms[layer] if state.transforms else None,
                                pos, cfg.lambda2, cfg.lambda3)
            tables.append(h)
        out = mean(tables)
    check_finite(out)
    return out


def count_added_parameters(state: ModelState) -> int:
    """Trainable scalars the positional encodings add to the embeddings and
    the backbone: the paper's census, 4200 at the default config."""
    return sum(t.data.size for _, t in state.enc.trainable_tables())


def _blocks(state: ModelState) -> list[tuple[str, np.ndarray]]:
    """The named blocks a checkpoint of `state` holds, in file order."""
    return ([(name, t.data) for name, t in state.named_parameters()]
            + state.enc.frozen_blocks())


def save_checkpoint(state: ModelState, path):
    """An npz archive of a JSON `header` string (format version, config,
    graph size and hash, seeds) and each block in its own dtype: the
    parameters, the int64 `<name>_groups` ids and the float64 `spectral`
    block, so loading runs neither the eigensolve nor PageRank."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_dict(),
        "n_users": state.n_users,
        "n_items": state.n_items,
        "graph_hash": state.graph_hash,
        "seed": state.seed,
    }
    # through a handle: given a path, np.savez would append ".npz" to it
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(meta)), **dict(_blocks(state)))


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo, name: str) -> np.ndarray:
    """The array of the .npy member `info`.  Its header is parsed once and
    checked against the member's size before the data is read, so a false
    claim allocates nothing; reading the member to its end checks its
    CRC-32.  The array is a read-only view of the bytes read."""
    with archive.open(info) as member:
        read_header = (np.lib.format.read_array_header_1_0
                       if np.lib.format.read_magic(member) == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(member)
        count = math.prod(shape)
        size = member.tell() + count * dtype.itemsize
        if dtype.hasobject or size != info.file_size:
            raise ValueError(f"block {name!r} holds {info.file_size} bytes, "
                             f"its {dtype} header claims {size}")
        data = member.read()
    return np.frombuffer(data, dtype, count).reshape(shape, order="F" if fortran_order else "C")


def _read_archive(fh) -> tuple[object, dict[str, np.ndarray]]:
    """The parsed JSON header and the other arrays of the npz archive in
    `fh`, each member read by `_read_member`."""
    try:
        blocks = {}
        with zipfile.ZipFile(fh) as archive:
            for info in archive.infolist():
                name = info.filename.removesuffix(".npy")
                if name in blocks:
                    raise ValueError(f"block {name!r} appears twice")
                blocks[name] = _read_member(archive, info, name)
        return json.loads(str(blocks.pop("header", ""))), blocks
    except json.JSONDecodeError as err:
        raise ValueError(f"not a readable checkpoint: its header is no JSON ({err})") from err
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"not a readable checkpoint: {err}") from err


def load_checkpoint(path, graph: BipartiteGraph) -> ModelState:
    """The model `save_checkpoint` wrote for `graph`, each parameter block
    cast to the dtype `init_model` gives it (float32: a float32 block loads
    bit for bit, a float64 one as its nearest float32 values).  Raises
    ValueError naming the cause for a file that is no readable npz archive
    (empty, truncated, failing a CRC-32, holding objects) of this version,
    has a malformed header, was built for another graph, or holds a block
    that is unknown, repeated, missing, of the wrong shape or dtype, or of
    another size than its .npy header claims."""
    with open(path, "rb") as fh:
        meta, blocks = _read_archive(fh)
    if not isinstance(meta, dict):
        raise ValueError("checkpoint header is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    missing = [field for field in HEADER_FIELDS if field not in meta]
    if missing:
        raise ValueError(f"checkpoint header lacks the field {missing[0]!r}")
    if not isinstance(meta["config"], dict):
        raise ValueError(f"checkpoint field 'config' must be an object, got {meta['config']!r}")
    seed = meta["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"checkpoint field 'seed' must be a non-negative int, got {seed!r}")
    if ([meta["n_users"], meta["n_items"], meta["graph_hash"]]
            != [graph.n_users, graph.n_items, _graph_hash(graph)]):
        raise ValueError("checkpoint was built for a different graph")
    cfg = PGTRConfig.from_dict(meta["config"])
    state = _init_model(graph, cfg, seed, stored=blocks)
    expected = {name for name, _ in _blocks(state)}
    unknown = [name for name in blocks if name not in expected]
    if unknown:
        raise ValueError(f"checkpoint holds an unknown block {unknown[0]!r}")
    for name, tensor in state.named_parameters():
        block = blocks.get(name)
        if (block is None or block.shape != tensor.data.shape
                or not np.issubdtype(block.dtype, np.floating)):
            raise ValueError(f"checkpoint parameter block {name!r} is missing or "
                             f"not a {tensor.data.shape} block of floats")
        tensor.data = block.astype(tensor.data.dtype)
    return state
