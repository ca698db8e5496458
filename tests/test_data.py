"""Data ingestion, graph construction, splits, and noise injection."""
import dataclasses
import hashlib
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from pgtr.data import (
    DataError,
    InteractionDataset,
    NoiseSpec,
    SplitSpec,
    build_graph,
    field_types,
    inject_noise,
    load_interactions,
    save_interactions,
    save_remap,
    split_by_ratio,
)
from pgtr.synthetic import clustered_interactions
from test_encodings import awkward_interactions

# fractions whose products with small counts often land on a half
FRACTIONS = st.one_of(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]), st.floats(0.01, 0.99))


def neighbors(adj, node):
    """Row `node` of a CSR adjacency: the node's neighbor ids."""
    return adj.indices[adj.indptr[node]:adj.indptr[node + 1]]


def split_oracle(ds, spec):
    """`split_by_ratio` as a loop over users: each user's record indices, in
    record order, reordered by `rng.permutation` (which draws nothing for
    fewer than 2 records), then cut into fit, validation and test."""
    rng = np.random.default_rng(spec.seed)
    order = np.argsort(ds.users, kind="stable")
    bounds = np.searchsorted(ds.users[order], np.arange(ds.n_users + 1))
    parts = ([], [], [])
    for u in range(ds.n_users):
        idx = order[bounds[u]:bounds[u + 1]]
        k = idx.size
        if k == 0:
            continue
        idx = idx[rng.permutation(k)]
        n_pool = min(k, max(1, math.floor(k * spec.train_fraction + 0.5)))
        n_val = math.floor(n_pool * spec.val_fraction + 0.5)
        if n_pool - n_val < 1:
            n_val = n_pool - 1
        for part, chunk in zip(parts, (idx[:n_pool - n_val], idx[n_pool - n_val:n_pool],
                                       idx[n_pool:])):
            part.append(chunk)
    return tuple(ds.subset(np.sort(np.concatenate(part))) if part else ds.subset([])
                 for part in parts)


def write_lines(tmp_path, lines, name="inter.txt"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


class TestLoad:
    def test_duplicates_collapsed(self, tmp_path):
        p = write_lines(tmp_path, ["0 0", "0 0", "1 0"])
        ds = load_interactions(p)
        assert (ds.n_users, ds.n_items, len(ds)) == (2, 1, 2)

    def test_first_seen_remap(self, tmp_path):
        p = write_lines(tmp_path, ["7 3", "3 7"])
        ds = load_interactions(p)
        assert ds.user_raw_ids == (7, 3)
        assert ds.item_raw_ids == (3, 7)
        assert ds.users.tolist() == [0, 1]
        assert ds.items.tolist() == [0, 1]

    def test_comma_separated_and_comments(self, tmp_path):
        p = write_lines(tmp_path, ["# header", "1,2", "", "3 4"])
        ds = load_interactions(p)
        assert len(ds) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = write_lines(tmp_path, ["0 0", "zero one"])
        with pytest.raises(DataError, match=":2"):
            load_interactions(p)

    def test_wrong_token_count(self, tmp_path):
        p = write_lines(tmp_path, ["0 0 5"])
        with pytest.raises(DataError, match="two integer tokens"):
            load_interactions(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_lines(tmp_path, ["# nothing"])
        with pytest.raises(DataError, match="no interactions"):
            load_interactions(p)

    def test_roundtrip_with_remap(self, tmp_path):
        p = write_lines(tmp_path, ["10 20", "11 20", "10 21"])
        ds = load_interactions(p)
        save_interactions(ds, tmp_path / "out.txt")
        save_remap(ds, tmp_path / "remap.txt")
        again = load_interactions(tmp_path / "out.txt")
        assert again.pairs() == ds.pairs()
        remap = (tmp_path / "remap.txt").read_text()
        assert "10 0" in remap and "20 0" in remap

    def test_caller_raw_id_lists_are_copied(self):
        """A list given to the constructor is stored as a tuple, so
        appending to the caller's list changes neither the dataset nor a
        subset."""
        user_ids, item_ids = [10, 20], [30]
        d = InteractionDataset(2, 1, [0, 1], [0, 0], user_raw_ids=user_ids,
                               item_raw_ids=item_ids)
        s = d.subset(np.array([True, False]))
        user_ids.append(30)
        item_ids.append(40)
        for out in (d, s):
            assert out.user_raw_ids == (10, 20) and out.item_raw_ids == (30,)

    def test_derived_raw_id_tables_cannot_change(self, tmp_path):
        """The raw-id tables a loaded dataset hands to its splits, subsets
        and noisy copies are tuples: none of them can be appended to, so
        no dataset changes another's, and `save_remap` writes the same
        file from each."""
        p = write_lines(tmp_path, ["7 3", "3 7", "7 5", "9 3", "3 5", "9 7"])
        ds = load_interactions(p)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.5, val_fraction=0.0, seed=1))
        derived = [ds.subset(ds.users > 0), fit, val, test,
                   inject_noise(fit, ds, NoiseSpec(0.5, seed=1))]
        for out in derived:
            assert out.user_raw_ids == (7, 3, 9) and out.item_raw_ids == (3, 7, 5)
            for table in (out.user_raw_ids, out.item_raw_ids):
                with pytest.raises(AttributeError):
                    table.append(99)
            save_remap(out, tmp_path / "remap.txt")
            assert (tmp_path / "remap.txt").read_text() == (
                "# user raw_id index\n7 0\n3 1\n9 2\n"
                "# item raw_id index\n3 0\n7 1\n5 2\n")


class TestGraph:
    def test_single_edge_degrees(self):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        assert g.user_degree.tolist() == [1]
        assert g.item_degree.tolist() == [1]

    def test_k22_degrees(self):
        g = build_graph(InteractionDataset(2, 2, np.array([0, 0, 1, 1]),
                                           np.array([0, 1, 0, 1])))
        assert g.user_degree.tolist() == [2, 2]
        assert g.item_degree.tolist() == [2, 2]

    def test_degrees_are_the_full_adjacency_row_lengths(self):
        """`degrees()` lists every node's degree, users first, as float64:
        the row lengths of `full_adjacency()`."""
        rng = np.random.default_rng(5)
        users, items = rng.integers(0, 6, size=20), rng.integers(0, 9, size=20)
        g = build_graph(InteractionDataset(7, 9, users, items))  # user 6 is isolated
        got = g.degrees()
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.diff(g.full_adjacency().indptr))
        assert got[:7].tolist() == g.user_degree.tolist()

    def test_adjacency_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        n, m = 50, 80
        dense = np.zeros((n, m))
        users, items = [], []
        for u in range(n):
            for i in rng.choice(m, size=rng.integers(1, 10), replace=False):
                if dense[u, i] == 0:
                    dense[u, i] = 1
                    users.append(u)
                    items.append(int(i))
        g = build_graph(InteractionDataset(n, m, np.array(users), np.array(items)))
        np.testing.assert_array_equal(g.user_adj.toarray(), dense)
        np.testing.assert_array_equal(g.item_adj.toarray(), dense.T)

    def test_transpose_consistency(self):
        ds = clustered_interactions(30, 40, 3, per_user=10, seed=2)
        g = build_graph(ds)
        for u in range(g.n_users):
            for i in neighbors(g.user_adj, u):
                assert u in neighbors(g.item_adj, i)

    def test_neighbor_lists_sorted(self):
        ds = clustered_interactions(20, 25, 2, per_user=8, seed=3)
        g = build_graph(ds)
        for u in range(g.n_users):
            nb = neighbors(g.user_adj, u)
            assert np.all(np.diff(nb) > 0)

    def test_user_item_matrix_matches_item_lists(self):
        """One entry per repeated pair; a user without items has an empty row."""
        ds = InteractionDataset(3, 4, np.array([2, 0, 2, 0, 2]), np.array([3, 1, 0, 1, 1]))
        m = ds.user_item_matrix()
        assert m.format == "csr" and m.dtype == bool and m.shape == (3, 4)
        assert m.has_sorted_indices
        assert [neighbors(m, u).tolist() for u in range(3)] == [[1], [], [0, 1, 3]]
        assert m.data.all()

    @given(data=st.data(), n_users=st.integers(0, 6), n_items=st.integers(0, 6))
    def test_user_item_matrix_matches_scipy_coo_build(self, data, n_users, n_items):
        """Unsorted pairs with repeats, or none, give scipy's own
        (data, (row, col)) build: the same arrays, dtypes and canonical flag."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, max(n_users - 1, 0)),
                                             st.integers(0, max(n_items - 1, 0))),
                                   max_size=30 if n_users and n_items else 0))
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        items = np.array([i for _, i in pairs], dtype=np.int64)
        for ds in (InteractionDataset(n_users, n_items, users, items),
                   InteractionDataset(n_users, n_items, users.tolist(), items.tolist())):
            got = ds.user_item_matrix()
            want = sp.csr_matrix((np.ones(users.size, dtype=bool), (users, items)),
                                 shape=(n_users, n_items))
            assert got.format == "csr" and got.shape == want.shape
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).dtype == getattr(want, part).dtype, part
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part),
                                              err_msg=part)
            assert got.has_canonical_format and want.has_canonical_format

    @given(ds=awkward_interactions())
    def test_full_adjacency_matches_block_assembly(self, ds):
        """The concatenated CSR is the hstack/vstack assembly of the two
        orientations: the same arrays, dtypes and sorted flag."""
        g = build_graph(ds)
        n, m = g.n_users, g.n_items
        want = sp.vstack([sp.hstack([sp.csr_matrix((n, n)), g.user_adj]),
                          sp.hstack([g.item_adj, sp.csr_matrix((m, m))])]).tocsr()
        got = g.full_adjacency()
        assert got.format == "csr" and got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(want, part).dtype, part
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part), err_msg=part)
        assert got.has_sorted_indices and want.has_sorted_indices

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            build_graph(InteractionDataset(2, 2, np.array([], dtype=int),
                                           np.array([], dtype=int)))


class TestIds:
    @pytest.mark.parametrize("users, items, name", [
        ([0.7, 1.2], [0, 1], "users"),
        ([True, False], [0, 1], "users"),
        (["1", "0"], [0, 1], "users"),
        ([0, None], [0, 1], "users"),
        (np.array([0, 1], dtype=object), [0, 1], "users"),
        ([0, 1], [np.nan, 0.0], "items"),
        ([0, 1], [1.0, np.inf], "items"),
        ([0, 1], [0.5, 1.0], "items"),
        ([0, 1], np.array([1, 0], dtype=complex), "items"),
    ])
    def test_non_integer_ids_rejected(self, users, items, name):
        with pytest.raises(DataError, match=f"^{name} must hold integer ids, got "):
            InteractionDataset(2, 2, users, items)

    @pytest.mark.parametrize("users, items", [
        ([], []),
        (np.array([], dtype=np.float32), np.array([], dtype=np.int8)),
        (np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.int32)),
        ([1.0, -0.0], [0, 1]),
        (np.array([1, 0], dtype=np.int16), np.array([0.0, 1.0], dtype=np.float32)),
    ])
    def test_integral_ids_kept_as_int64(self, users, items):
        ds = InteractionDataset(2, 2, users, items)
        assert ds.users.dtype == ds.items.dtype == np.int64
        assert ds.users.tolist() == [int(u) for u in users]
        assert ds.items.tolist() == [int(i) for i in items]

    @pytest.mark.parametrize("users, message", [
        ([1e30], "user index out of range"),
        ([-1.0], "user index out of range"),
        ([np.iinfo(np.uint64).max], "user index out of range"),
    ])
    def test_out_of_range_id_rejected_before_the_cast(self, users, message):
        with pytest.raises(DataError, match=message):
            InteractionDataset(2, 2, np.array(users), [0])

    @pytest.mark.parametrize("users, items, message", [
        ([0, 1], [0], "^users/items length mismatch$"),
        ([[0, 1]], [0, 1], "^users/items length mismatch$"),
        ([0, 1], [0, 2], "^item index out of range$"),
        ([0, 1], [-1, 0], "^item index out of range$"),
    ], ids=["short-items", "2-d-users", "item-too-large", "item-negative"])
    def test_items_must_pair_with_users_and_lie_in_range(self, users, items, message):
        with pytest.raises(DataError, match=message):
            InteractionDataset(2, 2, users, items)


class TestCheckedWhenMade:
    """Sizes, fractions and seeds are checked as a dataset or spec is made:
    a ValueError names the field, before any later call can trip on it."""

    @pytest.mark.parametrize("n_users, n_items, users, items, name", [
        (2.5, 3, [0], [1], "n_users"),
        (2, "3", [0], [1], "n_items"),
        (True, 3, [0], [1], "n_users"),
        (2, np.bool_(True), [0], [0], "n_items"),
        (-1, 3, [], [], "n_users"),
        (2, -3, [], [], "n_items"),
        (np.float64(2.0), 3, [0], [1], "n_users"),
    ])
    def test_dataset_sizes_are_non_negative_ints(self, n_users, n_items, users, items, name):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative int"):
            InteractionDataset(n_users, n_items, users, items)

    def test_numpy_int_sizes_are_stored_as_ints(self):
        ds = InteractionDataset(np.int64(2), np.uint8(3), [1], [2])
        assert (ds.n_users, ds.n_items) == (2, 3)
        assert type(ds.n_users) is int and type(ds.n_items) is int

    @pytest.mark.parametrize("make, name", [
        (lambda: SplitSpec(0.8, val_fraction="0.2"), "val_fraction"),
        (lambda: SplitSpec("0.8"), "train_fraction"),
        (lambda: SplitSpec(0.8, seed=-1), "seed"),
        (lambda: SplitSpec(0.8, seed=1.5), "seed"),
        (lambda: SplitSpec(0.8, seed=True), "seed"),
        (lambda: NoiseSpec(0.1, seed=-1), "seed"),
        (lambda: NoiseSpec(0.1, seed=1.5), "seed"),
        (lambda: NoiseSpec("0.1"), "proportion"),
    ], ids=["split-val_fraction-str", "split-train_fraction-str", "split-seed-negative",
            "split-seed-float", "split-seed-bool", "noise-seed-negative", "noise-seed-float",
            "noise-proportion-str"])
    def test_spec_fields(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: SplitSpec(0.8, val_fraction=1.0), r"^val_fraction must lie in \[0, 1\)$"),
        (lambda: SplitSpec(0.8, val_fraction=-0.1), r"^val_fraction must lie in \[0, 1\)$"),
        (lambda: NoiseSpec(0.0), r"^noise proportion must lie in \(0, 1\)$"),
        (lambda: NoiseSpec(1.0), r"^noise proportion must lie in \(0, 1\)$"),
    ], ids=["split-val_fraction-one", "split-val_fraction-negative", "noise-proportion-zero",
            "noise-proportion-one"])
    def test_spec_fractions_out_of_range(self, make, message):
        with pytest.raises(DataError, match=message):
            make()

    def test_type_hints_resolved_once_per_class(self, monkeypatch):
        """Many constructions of `PGTRConfig` (also through `from_dict`),
        `TrainConfig` and `SplitSpec`, rejected ones among them, resolve
        each class's type hints once."""
        from pgtr.model import PGTRConfig
        from pgtr.train import TrainConfig
        resolved = []
        real = typing.get_type_hints

        def spy(cls, *args, **kwargs):
            resolved.append(cls.__name__)
            return real(cls, *args, **kwargs)

        field_types.cache_clear()
        monkeypatch.setattr(typing, "get_type_hints", spy)
        try:
            for seed in range(40):
                PGTRConfig(d=seed + 1, tau=0.5)
                PGTRConfig.from_dict(PGTRConfig(layers=3).to_dict())
                TrainConfig(seed=seed, lr=1)
                SplitSpec(0.5, seed=seed)
                for make in (lambda: PGTRConfig(d=2.0), lambda: TrainConfig(seed="1"),
                             lambda: SplitSpec(0.5, seed=True)):
                    with pytest.raises(ValueError, match="must be "):
                        make()
        finally:
            field_types.cache_clear()
        assert sorted(resolved) == ["PGTRConfig", "SplitSpec", "TrainConfig"]


class TestImmutable:
    """A dataset is a value: read-only id arrays it owns, fields that cannot
    be reassigned, and one canonical CSR built on first use and shared."""

    @staticmethod
    def coo_build(ds):
        return sp.csr_matrix((np.ones(len(ds), dtype=bool), (ds.users, ds.items)),
                             shape=(ds.n_users, ds.n_items))

    def test_user_item_matrix_is_built_once(self, monkeypatch):
        ds = clustered_interactions(12, 16, 2, per_user=5, seed=1)
        built = []
        real = InteractionDataset._build_user_item_matrix

        def recording(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(InteractionDataset, "_build_user_item_matrix", recording)
        first = ds.user_item_matrix()
        assert all(ds.user_item_matrix() is first for _ in range(3))
        assert [id(d) for d in built] == [id(ds)]

    @pytest.mark.parametrize("array", ["data", "indices", "indptr", "users", "items"])
    def test_arrays_are_read_only(self, array):
        ds = clustered_interactions(12, 16, 2, per_user=5, seed=1)
        owner = ds if array in ("users", "items") else ds.user_item_matrix()
        with pytest.raises(ValueError, match="read-only"):
            getattr(owner, array)[0] = getattr(owner, array)[1]

    def test_caller_arrays_stay_writeable_and_unchanged(self):
        users, items = np.array([2, 0, 1], dtype=np.int64), np.array([1, 3, 0], dtype=np.int64)
        ds = InteractionDataset(3, 4, users, items)
        ds.user_item_matrix()
        assert users.flags.writeable and items.flags.writeable
        assert users.tolist() == [2, 0, 1] and items.tolist() == [1, 3, 0]
        assert not np.shares_memory(ds.users, users) and not np.shares_memory(ds.items, items)
        users[0], items[0] = 0, 0
        assert ds.users.tolist() == [2, 0, 1] and ds.items.tolist() == [1, 3, 0]

    @pytest.mark.parametrize("name, value", [
        ("n_users", 5), ("n_items", 5), ("users", np.array([0])),
        ("items", np.array([0])), ("user_raw_ids", [0]), ("item_raw_ids", [0]),
    ])
    def test_fields_cannot_be_assigned(self, name, value):
        ds = InteractionDataset(2, 2, [0, 1], [1, 0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, value)

    @pytest.mark.parametrize("spec, name", [
        (SplitSpec(0.8), "train_fraction"), (SplitSpec(0.8), "val_fraction"),
        (SplitSpec(0.8), "seed"), (NoiseSpec(0.2), "proportion"), (NoiseSpec(0.2), "seed"),
    ])
    def test_spec_fields_cannot_be_assigned(self, spec, name):
        """A spec is checked when made, so no field can change after, to a
        valid value or not."""
        for value in (getattr(spec, name), 5):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)

    def test_racing_first_calls_build_equal_matrices(self):
        """Threads that race to the first call, with no lock, each get the
        canonical matrix, and later calls return one of them every time."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                ds = clustered_interactions(40, 50, 3, per_user=10, seed=seed)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = [f.result(timeout=30) for f in
                           [pool.submit(ds.user_item_matrix) for _ in range(16)]]
                kept = ds.user_item_matrix()
                assert any(m is kept for m in got) and ds.user_item_matrix() is kept
                for m in got:
                    assert (m != self.coo_build(ds)).nnz == 0 and m.has_canonical_format
        finally:
            sys.setswitchinterval(interval)

    def test_derived_datasets_hold_their_own_matrix(self):
        """Outputs of `subset`, `split_by_ratio` and `inject_noise` made
        after their source built its matrix each build their own."""
        ds = clustered_interactions(30, 40, 3, per_user=10, seed=2)
        source = ds.user_item_matrix()
        fit, val, test = split_by_ratio(ds, SplitSpec(0.8, seed=2))
        fit.user_item_matrix()
        derived = [ds.subset(ds.users % 2 == 0), fit, val, test,
                   inject_noise(fit, ds, NoiseSpec(0.3, seed=2))]
        for out in derived:
            m = out.user_item_matrix()
            assert m is not source and not np.shares_memory(m.indices, source.indices)
            assert (m != self.coo_build(out)).nnz == 0
        assert len({id(out.user_item_matrix()) for out in derived}) == len(derived)


class TestSplit:
    def test_forced_ratio_for_ten_records(self):
        ds = InteractionDataset(1, 10, np.zeros(10, dtype=int), np.arange(10))
        fit, val, test = split_by_ratio(ds, SplitSpec(0.2, seed=4))
        # pool = round(10 * 0.2) = 2, val = round(2 * 0.2) = 0
        assert len(fit) == 2 and len(val) == 0 and len(test) == 8

    def test_partition_reconstructs_dataset(self):
        ds = clustered_interactions(40, 60, 4, per_user=12, seed=6)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.4, seed=7))
        all_pairs = fit.pairs() | val.pairs() | test.pairs()
        assert all_pairs == ds.pairs()
        assert len(fit) + len(val) + len(test) == len(ds)
        assert not (fit.pairs() & val.pairs())
        assert not (fit.pairs() & test.pairs())
        assert not (val.pairs() & test.pairs())

    def test_overall_fractions(self):
        ds = clustered_interactions(100, 150, 4, per_user=25, seed=8)
        fit, val, test = split_by_ratio(ds, SplitSpec(0.2, seed=9))
        n = len(ds)
        assert abs(len(fit) / n - 0.16) < 0.02
        assert abs(len(val) / n - 0.04) < 0.02
        assert abs(len(test) / n - 0.80) < 0.02

    def test_every_user_keeps_a_training_record(self):
        ds = InteractionDataset(3, 5, np.array([0, 1, 1, 2, 2, 2]),
                                np.array([0, 0, 1, 2, 3, 4]))
        fit, _, _ = split_by_ratio(ds, SplitSpec(0.2, seed=1))
        assert set(fit.users.tolist()) == {0, 1, 2}

    def test_deterministic(self):
        ds = clustered_interactions(30, 40, 3, per_user=9, seed=10)
        a = split_by_ratio(ds, SplitSpec(0.6, seed=11))
        b = split_by_ratio(ds, SplitSpec(0.6, seed=11))
        for x, y in zip(a, b):
            assert x.pairs() == y.pairs()

    def test_seed_changes_partition(self):
        ds = clustered_interactions(30, 40, 3, per_user=9, seed=10)
        a, _, _ = split_by_ratio(ds, SplitSpec(0.6, seed=1))
        b, _, _ = split_by_ratio(ds, SplitSpec(0.6, seed=2))
        assert a.pairs() != b.pairs()

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            SplitSpec(0.0)

    def test_repeated_pair_rejected(self):
        """Pair (0, 1) is recorded twice: split, one copy could land in fit
        and the other in test, where it is masked as observed and can never
        be a hit."""
        ds = InteractionDataset(1, 3, [0, 0, 0, 0], [1, 1, 2, 0])
        assert len(ds) == 4 and ds.user_item_matrix().nnz == 3
        with pytest.raises(DataError, match="repeats 1 "):
            split_by_ratio(ds, SplitSpec(0.5, val_fraction=0.0, seed=0))

    @given(ds=awkward_interactions(), train_fraction=FRACTIONS,
           val_fraction=st.one_of(st.just(0.0), FRACTIONS), seed=st.integers(0, 2**32 - 1))
    def test_per_user_counts_follow_the_rounding_rules(self, ds, train_fraction,
                                                       val_fraction, seed):
        """A user with k records keeps pool = min(k, max(1, round(k * train)))
        for fit and validation, val = round(pool * val_fraction) of them
        (at most pool - 1) for validation, and the rest for test; rounding
        is half away from zero."""
        fit, val, test = split_by_ratio(ds, SplitSpec(train_fraction, val_fraction, seed))
        for u in range(ds.n_users):
            k = int(np.count_nonzero(ds.users == u))
            pool = min(k, max(1, math.floor(k * train_fraction + 0.5)))
            n_val = max(0, min(pool - 1, math.floor(pool * val_fraction + 0.5)))
            got = [int(np.count_nonzero(part.users == u)) for part in (fit, val, test)]
            assert got == [pool - n_val, n_val, k - pool]
            assert k == 0 or got[0] >= 1
        assert sorted(fit.pairs() | val.pairs() | test.pairs()) == sorted(ds.pairs())

    @given(ds=awkward_interactions(), train_fraction=FRACTIONS,
           val_fraction=st.one_of(st.just(0.0), FRACTIONS), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_per_user_loop(self, ds, train_fraction, val_fraction, seed):
        """One in-place shuffle per user makes the draws, and so the parts,
        of one `rng.permutation` per user."""
        spec = SplitSpec(train_fraction, val_fraction, seed)
        for got, want in zip(split_by_ratio(ds, spec), split_oracle(ds, spec)):
            np.testing.assert_array_equal(got.users, want.users)
            np.testing.assert_array_equal(got.items, want.items)

    def test_random_stream_is_pinned(self):
        """The SHA-256 of the parts' users and items arrays: a change to the
        shuffles' order or count changes every later split."""
        parts = split_by_ratio(clustered_interactions(300, 490, per_user=10, seed=0),
                               SplitSpec(0.8, seed=0))
        digest = hashlib.sha256()
        for part in parts:
            for ids in (part.users, part.items):
                digest.update(ids.astype("<i8").tobytes())
        assert [len(part) for part in parts] == [1800, 600, 600]
        assert digest.hexdigest() == ("a9c1f97b410e3f67689730ffeef325c3"
                                      "47cfea72aa08e12d24091fb26b5283fa")


class TestNoise:
    def test_one_in_ten(self):
        full = InteractionDataset(1, 30, np.zeros(10, dtype=int), np.arange(10))
        noisy = inject_noise(full, full, NoiseSpec(0.1, seed=0))
        assert len(noisy) == 11

    def test_rounding_to_zero(self):
        full = InteractionDataset(1, 5, np.zeros(1, dtype=int), np.array([0]))
        noisy = inject_noise(full, full, NoiseSpec(0.3, seed=0))
        assert len(noisy) == 1

    def test_repeated_pair_counts_once(self):
        """Item 1 is recorded twice: k = 1 distinct item, round(0.3) = 0."""
        train = InteractionDataset(1, 10, [0, 0], [1, 1])
        noisy = inject_noise(train, train, NoiseSpec(0.3))
        assert len(noisy) == 2

    def test_noise_disjoint_from_full(self):
        ds = clustered_interactions(30, 50, 3, per_user=10, seed=12)
        fit, _, _ = split_by_ratio(ds, SplitSpec(0.4, seed=13))
        noisy = inject_noise(fit, ds, NoiseSpec(0.3, seed=14))
        added = noisy.pairs() - fit.pairs()
        assert added
        assert not (added & ds.pairs())

    def test_saturated_user_skipped(self, caplog):
        full = InteractionDataset(1, 3, np.zeros(3, dtype=int), np.arange(3))
        with caplog.at_level("WARNING"):
            noisy = inject_noise(full, full, NoiseSpec(0.3, seed=0))
        assert len(noisy) == 3
        assert "skipped 1" in caplog.text

    def test_full_of_another_shape_rejected(self):
        train = InteractionDataset(3, 5, np.array([0, 1, 2]), np.array([0, 1, 2]))
        for full in (InteractionDataset(2, 5, np.array([0, 1]), np.array([0, 1])),
                     InteractionDataset(3, 6, np.array([0, 1, 2]), np.array([0, 1, 5]))):
            with pytest.raises(DataError, match=rf"^train has \(n_users, n_items\) = "
                                                rf"\(3, 5\) but full has \({full.n_users}, "
                                                rf"{full.n_items}\)$"):
                inject_noise(train, full, NoiseSpec(0.5, seed=0))

    @given(ds=awkward_interactions(), train_fraction=FRACTIONS,
           proportion=FRACTIONS, seed=st.integers(0, 2**32 - 1))
    def test_per_user_additions(self, ds, train_fraction, proportion, seed):
        """A user with k training records gains min(round(rho * k),
        candidates) distinct items, none of them in `full`; rounding is
        half away from zero, and the training records come first, as they
        were."""
        train, _, _ = split_by_ratio(ds, SplitSpec(train_fraction, seed=seed))
        noisy = inject_noise(train, ds, NoiseSpec(proportion, seed=seed))
        np.testing.assert_array_equal(noisy.users[:len(train)], train.users)
        np.testing.assert_array_equal(noisy.items[:len(train)], train.items)
        added_users, added_items = noisy.users[len(train):], noisy.items[len(train):]
        full = ds.items_of_user()
        for u in range(ds.n_users):
            k = int(np.count_nonzero(train.users == u))
            candidates = ds.n_items - full[u].size
            items = added_items[added_users == u]
            assert items.size == min(math.floor(proportion * k + 0.5), candidates)
            assert np.unique(items).size == items.size
            assert not np.isin(items, full[u]).any()

    def test_deterministic(self):
        ds = clustered_interactions(20, 40, 2, per_user=8, seed=15)
        a = inject_noise(ds, ds, NoiseSpec(0.2, seed=16))
        b = inject_noise(ds, ds, NoiseSpec(0.2, seed=16))
        assert a.pairs() == b.pairs()


class TestClusteredInteractions:
    @pytest.mark.parametrize("kwargs, argument", [
        # each cluster holds 2 items and every draw stays inside it
        (dict(n_users=8, n_items=8, n_clusters=4, per_user=3, in_cluster=1.0), "per_user"),
        # one cluster and every draw outside it
        (dict(n_users=8, n_items=8, n_clusters=1, per_user=3, in_cluster=0.0), "per_user"),
        (dict(n_users=8, n_items=3, n_clusters=4), "n_clusters"),
        (dict(n_users=3, n_items=8, n_clusters=4), "n_clusters"),
        (dict(n_clusters=0), "n_clusters"),
        (dict(in_cluster=1.5), "in_cluster"),
        (dict(in_cluster=-0.1), "in_cluster"),
    ])
    def test_impossible_arguments_name_the_argument(self, kwargs, argument):
        with pytest.raises(ValueError, match=f"^{argument}="):
            clustered_interactions(**kwargs)

    @pytest.mark.parametrize("in_cluster, per_user", [(1.0, 2), (0.0, 4)])
    def test_a_pool_just_large_enough_is_drawn_in_full(self, in_cluster, per_user):
        """At the bounds every draw stays inside (1.0) or outside (0.0) the
        user's cluster, and a pool exactly `per_user` items large is drawn in full."""
        n_clusters = 4 if in_cluster == 1.0 else 2
        ds = clustered_interactions(8, 8, n_clusters, per_user=per_user,
                                    in_cluster=in_cluster, seed=1)
        np.testing.assert_array_equal(np.bincount(ds.users, minlength=8), per_user)
        same = (ds.users * n_clusters) // 8 == (ds.items * n_clusters) // 8
        assert same.all() if in_cluster == 1.0 else not same.any()
