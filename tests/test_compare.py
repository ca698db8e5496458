"""Tests of `experiments/compare.py`: one seed of a tiny cell, with the
checkout compared against itself, and the relabeling of ids."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pgtr.synthetic import clustered_interactions

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def compare_mod():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "experiments" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_of_a_tiny_cell(compare_mod):
    cell = compare_mod.Cell("tiny", 30, 40, per_user=8, train_fraction=0.8,
                            model=dict(d=8, h_c=4, h_d=2, h_r=2, h_y=2, n_d=3, n_r=3),
                            train=dict(lr=5e-3, max_epochs=2, patience=2, batch_size=64))
    ((got_cell, rows),) = compare_mod.compare(ROOT, ROOT, [cell], [3])
    assert got_cell is cell
    ((seed, a, b),) = rows
    assert seed == 3 and a["epochs"] == 2 and 1 <= a["best_epoch"] <= 2
    assert a["pgtr"] == str(ROOT / "src" / "pgtr")
    # one tree, one seed: the runs repeat exactly
    assert a == b and 0.0 <= a["recall"] <= 1.0 and 0.0 <= a["ndcg"] <= 1.0
    table = compare_mod.report([(cell, rows)])
    assert "| 3 | " in table and "| tiny | recall@20 |" in table
    assert "| 0 / 0 | 1 | ±0.005 | no interval |" in table  # one seed gives no interval


def test_tree_without_sources_rejected(compare_mod, tmp_path, capsys):
    with pytest.raises(SystemExit):
        compare_mod.main([str(ROOT), str(tmp_path)])
    assert f"{tmp_path} holds no src/pgtr" in capsys.readouterr().err


def test_relabel_keeps_the_degrees_and_the_pairs(compare_mod):
    ds = clustered_interactions(30, 40, per_user=8, seed=2)
    out = compare_mod.relabel(ds, 5)
    assert (out.n_users, out.n_items, len(out)) == (ds.n_users, ds.n_items, len(ds))
    assert len(out.pairs()) == len(ds.pairs())
    for side in ("users", "items"):
        before, after = getattr(ds, side), getattr(out, side)
        n = ds.n_users if side == "users" else ds.n_items
        np.testing.assert_array_equal(np.sort(np.bincount(after, minlength=n)),
                                      np.sort(np.bincount(before, minlength=n)))
        assert not np.array_equal(after, before)  # the ids did move
    # the same seed renames the same way
    np.testing.assert_array_equal(compare_mod.relabel(ds, 5).items, out.items)


@pytest.mark.parametrize("capped", [False, True])
def test_a_capped_run_fails_and_names_the_cell(compare_mod, monkeypatch, capsys, capped):
    """A run that used every epoch of its budget makes `main` exit with
    status 1 naming its cell; the summary counts capped runs per tree."""
    def fabricated(tree_a, tree_b, cells, seeds, jobs=1):
        def run(cell, seed, tree):
            cap = cell.train["max_epochs"]
            hit = capped and cell.name == "sparse" and tree == "B" and seed == 1
            return {"recall": 0.1, "ndcg": 0.05, "epochs": cap if hit else cap - 1,
                    "best_epoch": 1}
        return [(cell, [(seed, run(cell, seed, "A"), run(cell, seed, "B")) for seed in seeds])
                for cell in cells]

    monkeypatch.setattr(compare_mod, "compare", fabricated)
    status = compare_mod.main([str(ROOT), str(ROOT), "--seeds", "2"])
    out, err = capsys.readouterr()
    assert status == (1 if capped else 0)
    assert "| sparse | recall@20 |" in out and "| 0/2 | 0/2 |" in out
    if capped:
        assert "| 0/2 | 1/2 |" in out
        assert err == ("runs used all their max_epochs, so the budget stopped them: "
                       "sparse (0 of 2 runs of A, 1 of B)\n")
    else:
        assert "| 0/2 | 1/2 |" not in out and err == ""



def fabricated_rows(diffs, base=0.3):
    return [(seed, {"recall": base, "ndcg": base},
             {"recall": base + d, "ndcg": base + d}) for seed, d in enumerate(diffs)]


@pytest.mark.parametrize("diffs, want", [
    ([0.01 + 0.001 * i for i in range(10)], "better"),
    ([-0.01 - 0.001 * i for i in range(10)], "worse"),
    ([(-1) ** i * 0.001 for i in range(10)], "equivalent"),
    ([0.0] * 10, "equivalent"),
    ([(-1) ** i * 0.02 for i in range(10)], "undecided: add seeds"),
    ([0.02], "no interval"),
], ids=["10-of-10-positive", "10-of-10-negative", "tight-symmetric", "identical",
        "wide-symmetric", "one-seed"])
def test_paired_verdicts(compare_mod, diffs, want):
    """Fabricated seed rows give each verdict: an interval clear of 0, one
    inside the +-0.005 margin, one wider than it, and none from one seed."""
    s = compare_mod.summarize(fabricated_rows(diffs), "recall")
    assert s["verdict"] == want
    assert s["mean_diff"] == pytest.approx(np.mean(diffs))
    if len(diffs) == 1:
        assert s["interval"] is None
    else:
        low, high = s["interval"]
        half = 2.262157162798205 * np.std(diffs, ddof=1) / np.sqrt(10)  # t(0.975, 9)
        assert (low, high) == pytest.approx((np.mean(diffs) - half, np.mean(diffs) + half))


def test_sign_test_counts_wins_and_drops_ties(compare_mod):
    s = compare_mod.summarize(fabricated_rows([0.01] * 9 + [-0.01]), "ndcg")
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["sign_p"] == pytest.approx(0.021484375)  # 2 * 11 / 1024
    s = compare_mod.summarize(fabricated_rows([0.01] * 8 + [0.0, 0.0]), "ndcg")
    assert (s["wins"], s["losses"]) == (8, 0) and s["sign_p"] == pytest.approx(2 / 256)
    s = compare_mod.summarize(fabricated_rows([0.0] * 3), "ndcg")
    assert (s["wins"], s["losses"], s["sign_p"]) == (0, 0, 1.0)
