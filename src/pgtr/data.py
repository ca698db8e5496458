"""Interaction data: loading, bipartite graph construction, splits, noise."""
from __future__ import annotations

import functools
import logging
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .linalg import symmetric_normalized

__all__ = [
    "DataError",
    "InteractionDataset",
    "BipartiteGraph",
    "SplitSpec",
    "NoiseSpec",
    "load_interactions",
    "save_interactions",
    "save_remap",
    "build_graph",
    "split_by_ratio",
    "inject_noise",
]

log = logging.getLogger(__name__)


class DataError(ValueError):
    pass


def _round_half_up(x: np.ndarray) -> np.ndarray:
    """round-half-away-from-zero of nonnegative floats, elementwise, as
    int64 (Python round() is banker's)."""
    return np.floor(x + 0.5).astype(np.int64)


def _read_only(m: sp.csr_matrix) -> sp.csr_matrix:
    """`m`, with its index and data arrays made read-only."""
    for part in (m.data, m.indices, m.indptr):
        part.flags.writeable = False
    return m


def check_integer_ids(values, name: str) -> np.ndarray:
    """`values` as an array of integer ids: integers, or floats that are
    finite and whole, not yet cast.  Raises DataError naming `name` for
    any other values, bools included."""
    ids = np.asarray(values)
    kind = ids.dtype.kind  # an empty list converts to float64
    if kind not in "iuf" or (kind == "f" and not (np.isfinite(ids)
                                                 & (ids == np.round(ids))).all()):
        raise DataError(f"{name} must hold integer ids, got {ids.dtype} values")
    return ids


@functools.cache
def field_types(cls) -> dict:
    """The resolved type hints of the dataclass `cls`, by field name,
    resolved on the first call for each class; the dict is shared, so
    callers only read it."""
    return typing.get_type_hints(cls)


def check_field_types(cls, values: dict, field: str = "{}"):
    """Raise ValueError on the first entry of `values` whose type does not
    fit its field of the dataclass `cls`: an int field takes an int, a
    float field an int or a float, and only a bool field takes a bool.  The
    message begins with `field.format(name)`."""
    types = field_types(cls)
    for name, value in values.items():
        want = (int, float) if types[name] is float else types[name]
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ValueError(f"{field.format(name)} must be "
                             f"{types[name].__name__}, got {value!r}")


@dataclass(frozen=True)
class InteractionDataset:
    """Implicit-feedback records over contiguous integer ids, as an
    immutable value.

    `users[i]` interacted with `items[i]`.  Both are read-only int64 copies
    of the arrays given, and every consumer shares the one canonical CSR
    that `user_item_matrix()` builds on first use.  Records may repeat a
    pair: the CSR and `items_of_user` hold each pair once, and
    `load_interactions` collapses repeats as it reads.  `n_users` and
    `n_items` are non-negative Python or numpy ints, stored as ints;
    anything else raises DataError naming the field.  Raw-id remap tables
    (index -> original token), given when the data came from a file, are
    kept as tuples, whatever sequence the caller passed.
    """

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray
    user_raw_ids: tuple[int, ...] | None = None
    item_raw_ids: tuple[int, ...] | None = None
    _matrix: sp.csr_matrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_users", "n_items"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 0:
                raise DataError(f"{name} must be a non-negative int, got {size!r}")
            object.__setattr__(self, name, int(size))
        users, items = (check_integer_ids(getattr(self, n), n) for n in ("users", "items"))
        if users.shape != items.shape:
            raise DataError("users/items length mismatch")
        # checked before the cast, which would wrap an id outside int64
        if users.size:
            if users.min() < 0 or users.max() >= self.n_users:
                raise DataError("user index out of range")
            if items.min() < 0 or items.max() >= self.n_items:
                raise DataError("item index out of range")
        for name, ids in (("users", users), ("items", items)):
            ids = np.array(ids, dtype=np.int64)  # a copy: the caller's array stays its own
            ids.flags.writeable = False
            object.__setattr__(self, name, ids)
        for name in ("user_raw_ids", "item_raw_ids"):
            if getattr(self, name) is not None:  # a tuple: no caller can append to it
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def __len__(self) -> int:
        return int(self.users.size)

    def pairs(self) -> set[tuple[int, int]]:
        return set(zip(self.users.tolist(), self.items.tolist()))

    def items_of_user(self) -> list[np.ndarray]:
        """Per-user sorted int64 item arrays: the rows of
        `user_item_matrix()`, so a repeated pair gives one entry."""
        m = self.user_item_matrix()
        # with no users np.split still returns one (empty) part
        return np.split(m.indices.astype(np.int64), m.indptr[1:-1])[:self.n_users]

    def user_item_matrix(self) -> sp.csr_matrix:
        """Boolean (n_users, n_items) CSR matrix, true where the user
        interacted with the item, in canonical form: repeated pairs give one
        entry and each row's item ids are sorted.  The first call builds it
        and every call returns that same matrix, with read-only arrays: copy
        it to modify it."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", self._build_user_item_matrix())
        return self._matrix

    def _build_user_item_matrix(self) -> sp.csr_matrix:
        """`user_item_matrix()` built straight from the sorted, deduplicated
        keys user * n_items + item; the index arrays are int32 unless a
        dimension or the entry count needs int64, as in scipy's
        (data, (row, col)) constructor."""
        key = np.sort(self.users * self.n_items + self.items)
        key = key[np.diff(key, prepend=-1) != 0]
        users, items = np.divmod(key, max(self.n_items, 1))
        fits = max(self.n_users, self.n_items, key.size) <= np.iinfo(np.int32).max
        index = np.int32 if fits else np.int64
        indptr = np.zeros(self.n_users + 1, dtype=index)
        np.cumsum(np.bincount(users, minlength=self.n_users), out=indptr[1:])
        m = sp.csr_matrix((np.ones(key.size, dtype=bool), items.astype(index), indptr),
                          shape=(self.n_users, self.n_items))
        m.has_canonical_format = True
        return _read_only(m)

    def subset(self, mask: np.ndarray) -> "InteractionDataset":
        return InteractionDataset(self.n_users, self.n_items,
                                  self.users[mask], self.items[mask],
                                  self.user_raw_ids, self.item_raw_ids)


def load_interactions(path) -> InteractionDataset:
    """Parse whitespace- or comma-separated (user, item) integer lines.

    Raw ids are remapped to contiguous indices in first-seen order and
    duplicate pairs are collapsed.  Lines starting with '#' and blank
    lines are skipped.
    """
    path = Path(path)
    user_index: dict[int, int] = {}
    item_index: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    users: list[int] = []
    items: list[int] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.replace(",", " ").split()
            if len(tokens) != 2:
                raise DataError(f"{path}:{lineno}: expected two integer tokens, got {text!r}")
            try:
                raw_u, raw_i = int(tokens[0]), int(tokens[1])
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: non-integer token in {text!r}") from e
            u = user_index.setdefault(raw_u, len(user_index))
            i = item_index.setdefault(raw_i, len(item_index))
            if (u, i) in seen:
                continue
            seen.add((u, i))
            users.append(u)
            items.append(i)
    if not users:
        raise DataError(f"{path}: no interactions found")
    return InteractionDataset(
        n_users=len(user_index), n_items=len(item_index),
        users=np.array(users), items=np.array(items),
        user_raw_ids=tuple(user_index), item_raw_ids=tuple(item_index))


def save_interactions(ds: InteractionDataset, path):
    with Path(path).open("w", encoding="utf-8") as fh:
        for u, i in zip(ds.users.tolist(), ds.items.tolist()):
            fh.write(f"{u} {i}\n")


def save_remap(ds: InteractionDataset, path):
    """Sidecar raw_id -> index tables, users then items."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("# user raw_id index\n")
        for idx, raw in enumerate(ds.user_raw_ids or range(ds.n_users)):
            fh.write(f"{raw} {idx}\n")
        fh.write("# item raw_id index\n")
        for idx, raw in enumerate(ds.item_raw_ids or range(ds.n_items)):
            fh.write(f"{raw} {idx}\n")


class BipartiteGraph:
    """Compressed sparse user-item adjacency with both orientations.  The
    (N+M) x (N+M) adjacency and its symmetric normalization are built on
    first use, once per graph, and shared by every reader (the model, the
    spectral block and PageRank), with read-only arrays."""

    def __init__(self, ds: InteractionDataset):
        if len(ds) == 0:
            raise DataError("cannot build a graph from an empty dataset")
        self.n_users = ds.n_users
        self.n_items = ds.n_items
        m = ds.user_item_matrix().astype(np.float64)
        self.user_adj = m                       # users x items
        self.item_adj = m.T.tocsr()             # items x users
        self.item_adj.sort_indices()
        self.user_degree = np.diff(self.user_adj.indptr)
        self.item_degree = np.diff(self.item_adj.indptr)
        self._full = self._normalized = None

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def degrees(self) -> np.ndarray:
        """All node degrees, users then items."""
        return np.concatenate([self.user_degree, self.item_degree]).astype(np.float64)

    def full_adjacency(self) -> sp.csr_matrix:
        """(N+M) x (N+M) symmetric 0/1 adjacency, users then items: the
        user rows of `user_adj` with item columns shifted past the users,
        then the item rows of `item_adj`, with sorted indices.  Every call
        returns the one matrix the first call built."""
        if self._full is None:
            n, m = self.n_users, self.n_items
            ua, ia = self.user_adj, self.item_adj
            self._full = _read_only(sp.csr_matrix(
                (np.concatenate([ua.data, ia.data]),
                 np.concatenate([ua.indices + n, ia.indices]),
                 np.concatenate([ua.indptr, ia.indptr[1:] + ua.nnz])), shape=(n + m, n + m)))
        return self._full

    def normalized_adjacency(self) -> sp.csr_matrix:
        """D^{-1/2} A D^{-1/2} of `full_adjacency()` (`symmetric_normalized`),
        symmetric bit for bit: entry (i, j) is the product d_i^{-1/2}
        d_j^{-1/2}.  Isolated nodes keep an all-zero row.  Every call
        returns the one matrix the first call built."""
        if self._normalized is None:
            self._normalized = _read_only(symmetric_normalized(self.full_adjacency()))
        return self._normalized


def build_graph(ds: InteractionDataset) -> BipartiteGraph:
    return BipartiteGraph(ds)


@dataclass(frozen=True)
class SplitSpec:
    """`split_by_ratio`'s fractions and seed, checked when made: ValueError
    names a field of the wrong type (`check_field_types`) or out of range,
    and the seed is a non-negative int."""

    train_fraction: float
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_field_types(SplitSpec, vars(self))
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie in (0, 1)")
        if not 0.0 <= self.val_fraction < 1.0:
            raise DataError("val_fraction must lie in [0, 1)")


def split_by_ratio(ds: InteractionDataset, spec: SplitSpec):
    """Per-user split into (train_fit, validation, test), each holding its
    records in `ds`'s order.

    Each user's records are shuffled; `train_fraction` of them (rounded
    half away from zero, floor 1) form the training pool, the rest go to
    test; `val_fraction` of the pool (same rounding, keeping >= 1 fit
    record) is carved out as validation.  Raises DataError when `ds`
    repeats a pair, since its copies could land in both fit and test.

    The random stream is fixed: `default_rng(spec.seed)` makes one
    in-place `Generator.shuffle` of each user's record indices (in record
    order), for each user with at least 2 records, in user order.  The
    shuffled run's first records go to fit, the next to validation, the
    rest to test.
    """
    repeats = len(ds) - ds.user_item_matrix().nnz
    if repeats:
        raise DataError(f"dataset repeats {repeats} (user, item) pair record(s); "
                        "deduplicate it before splitting")
    rng = np.random.default_rng(spec.seed)
    # each user's record indices, in record order
    order = np.argsort(ds.users, kind="stable")
    users = ds.users[order]
    bounds = np.searchsorted(users, np.arange(ds.n_users + 1))
    k = np.diff(bounds)
    for lo, hi in zip(bounds[:-1][k > 1].tolist(), bounds[1:][k > 1].tolist()):
        rng.shuffle(order[lo:hi])
    n_pool = np.minimum(k, np.maximum(1, _round_half_up(k * spec.train_fraction)))
    n_val = np.minimum(_round_half_up(n_pool * spec.val_fraction), n_pool - 1)
    # each record's position in its user's shuffled run
    position = np.empty(len(ds), dtype=np.int64)
    position[order] = np.arange(len(ds)) - bounds[users]
    part = ((position >= (n_pool - n_val)[ds.users]).astype(np.int64)
            + (position >= n_pool[ds.users]))
    return ds.subset(part == 0), ds.subset(part == 1), ds.subset(part == 2)


@dataclass(frozen=True)
class NoiseSpec:
    """`inject_noise`'s proportion and seed, checked as `SplitSpec`'s are."""

    proportion: float
    seed: int = 0

    def __post_init__(self):
        check_field_types(NoiseSpec, vars(self))
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.proportion < 1.0:
            raise DataError("noise proportion must lie in (0, 1)")


def inject_noise(train: InteractionDataset, full: InteractionDataset,
                 spec: NoiseSpec) -> InteractionDataset:
    """Add round(rho * k) fake items per user, sampled outside `full`.

    `k` counts the user's distinct items in `train`: its row length in
    `train.user_item_matrix()`, so a repeated pair counts once.  Users
    already adjacent to every item are skipped (a warning reports how
    many).  Raises DataError when `full` and `train` differ in (n_users,
    n_items).
    """
    shapes = (train.n_users, train.n_items), (full.n_users, full.n_items)
    if shapes[0] != shapes[1]:
        raise DataError(f"train has (n_users, n_items) = {shapes[0]} "
                        f"but full has {shapes[1]}")
    rng = np.random.default_rng(spec.seed)
    full_items = full.user_item_matrix()
    n_adds = _round_half_up(spec.proportion * np.diff(train.user_item_matrix().indptr))
    all_items = np.arange(train.n_items)
    add_users, add_items = [], []
    skipped = 0
    for u in np.flatnonzero(n_adds).tolist():
        seen = full_items.indices[full_items.indptr[u]:full_items.indptr[u + 1]]
        candidates = np.setdiff1d(all_items, seen, assume_unique=True)
        if candidates.size == 0:
            skipped += 1
            continue
        n_add = min(int(n_adds[u]), candidates.size)
        chosen = rng.choice(candidates, size=n_add, replace=False)
        add_users.extend([u] * n_add)
        add_items.extend(chosen.tolist())
    if skipped:
        log.warning("inject_noise: skipped %d user(s) adjacent to every item", skipped)
    return InteractionDataset(
        train.n_users, train.n_items,
        np.concatenate([train.users, np.array(add_users, dtype=np.int64)]),
        np.concatenate([train.items, np.array(add_items, dtype=np.int64)]),
        train.user_raw_ids, train.item_raw_ids)
