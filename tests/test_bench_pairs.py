"""Tests of `experiments/bench_pairs.py` on fabricated benchmark output:
the table, the per-pair lines, the gain and no-regression verdicts and a
failed run."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [{"name": "setup_s", "better": "lower", "bound": 0.25},
           {"name": "train_pairs_per_s", "better": "higher", "bound": 0.25}]


@pytest.fixture(scope="module")
def pairs_mod():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "experiments" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(setup_s, pairs_per_s, correct=True, failed=0):
    """The last line `benchmarks/run.py` prints, after a line of text."""
    return "  setup_s  0.1 s\n" + json.dumps({
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                    "train_pairs_per_s": {"value": pairs_per_s, "unit": "pairs/s"}}})


def fabricated(pairs_mod, monkeypatch, readings):
    """Patch the benchmark run to print readings[(tree, seed)] and record
    the order of the runs."""
    order = []

    def fake(tree, workload, seed):
        order.append((tree.name, seed))
        return pairs_mod.last_json(run_line(*readings[tree.name, seed]), f"{tree} seed {seed}")

    monkeypatch.setattr(pairs_mod, "run_once", fake)
    return order


def test_met_gain_and_alternating_order(pairs_mod, monkeypatch):
    """B's set-up is 10% faster on 10 of 10 pairs, far outside A's
    quartiles; its throughput is equal on every pair."""
    readings = {}
    for seed in range(5, 15):
        readings["a", seed] = (0.100 + 0.001 * (seed % 3), 1000.0)
        readings["b", seed] = (0.090 + 0.001 * (seed % 3), 1000.0)
    order = fabricated(pairs_mod, monkeypatch, readings)
    pairs = pairs_mod.run_pairs(Path("a"), Path("b"), "fit", 10, 5)
    assert order[:4] == [("a", 5), ("b", 5), ("b", 6), ("a", 6)]
    table = pairs_mod.table("fit", METRICS, pairs).splitlines()
    # three runs read 0.100, three 0.101 and four 0.102: q25 interpolates to 0.10025
    assert table[2] == ("| fit | setup_s | 0.101 [0.10025, 0.102] | 0.091 [0.09025, 0.092] "
                        "| -9.9% | 10/10 | met | within bound |")
    assert table[3].endswith("| +0.0% | 0/10 (10 ties) | not met | within bound |")


def test_a_line_per_pair_gives_its_seed_order_and_readings(pairs_mod, monkeypatch, capsys,
                                                          tmp_path):
    """Under the table, one line per pair names its seed and the tree that
    ran first, and gives both trees' readings of every end-to-end metric,
    the parent's first."""
    readings = {}
    for seed in (7, 8, 9):
        readings["a", seed] = (0.1 + 0.001 * seed, 1000.0 + seed)
        readings["b", seed] = (0.123456789012, 2000.0)
    order = fabricated(pairs_mod, monkeypatch, readings)
    assert pairs_mod.main(trees(tmp_path) + ["--pairs", "3", "--first-seed", "7"]) == 0
    table, listed = capsys.readouterr().out.split("\n\n")
    assert len(table.splitlines()) == 2 + len(METRICS)
    assert listed.splitlines() == [
        "- seed 7, parent first: setup_s 0.107 / 0.123456789, train_pairs_per_s 1007 / 2000",
        "- seed 8, change first: setup_s 0.108 / 0.123456789, train_pairs_per_s 1008 / 2000",
        "- seed 9, parent first: setup_s 0.109 / 0.123456789, train_pairs_per_s 1009 / 2000"]
    assert [tree for tree, _ in order] == ["a", "b", "b", "a", "a", "b"]


@pytest.mark.parametrize("wins, spread, met", [
    (9, 0.001, True),    # 9 of 10, a gap of ~0.01 against an IQR of ~0.001
    (8, 0.001, False),   # too few wins
    (10, 0.05, False),   # every pair won, but the gap is inside A's IQR
])
def test_verdict_needs_wins_and_a_gap_beyond_the_parent_iqr(pairs_mod, wins, spread, met):
    rng = np.random.default_rng(0)
    a = 0.1 + spread * rng.standard_normal(10)
    b = a - 0.01
    b[wins:] = a[wins:] + 0.001
    assert pairs_mod.gain_met(a, b, lower=True) is met
    assert pairs_mod.gain_met(-a, -b, lower=False) is met


def test_ties_count_for_neither_side(pairs_mod):
    a = np.full(10, 0.1)
    assert not pairs_mod.gain_met(a, a.copy(), lower=True)
    b = a.copy()
    b[:9] = 0.05  # 9 wins and one tie: met
    assert pairs_mod.gain_met(a, b, lower=True)
    b[8] = 0.1    # 8 wins and two ties: not met
    assert not pairs_mod.gain_met(a, b, lower=True)


def trees(tmp_path, workloads=("fit",)):
    """Two source trees, a and b, each with a `benchmarks/run.py` and a
    BENCHMARK.json listing `workloads` and METRICS as its end-to-end
    metrics."""
    bench = {"workloads": [{"name": name} for name in workloads], "end_to_end": METRICS}
    for tree in ("a", "b"):
        (tmp_path / tree / "benchmarks").mkdir(parents=True)
        (tmp_path / tree / "benchmarks" / "run.py").write_text("")
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(bench))
    return [str(tmp_path / "a"), str(tmp_path / "b")]


@pytest.mark.parametrize("setup_s, pairs_per_s, worse", [
    (0.1249, 750.1, []),                                   # both just inside their bound
    (0.1251, 750.1, ["setup_s"]),                          # lower is better: 25.1% higher
    (0.1249, 749.9, ["train_pairs_per_s"]),                # higher is better: 25.01% lower
    (0.1251, 749.9, ["setup_s", "train_pairs_per_s"]),
])
def test_worse_beyond_a_bound_exits_1_naming_the_metric(pairs_mod, monkeypatch, capsys,
                                                       tmp_path, setup_s, pairs_per_s, worse):
    """The change is worse than the parent's median by just inside or just
    outside the metrics' 25% bounds, in each metric's direction."""
    readings = {}
    for seed in range(4):
        readings["a", seed] = (0.1, 1000.0)
        readings["b", seed] = (setup_s, pairs_per_s)
    fabricated(pairs_mod, monkeypatch, readings)
    status = pairs_mod.main(trees(tmp_path) + ["--workload", "fit", "--pairs", "4"])
    out, err = capsys.readouterr()
    rows = [line for line in out.splitlines() if line.startswith("| fit | ")]
    verdicts = [line.rsplit("|", 2)[1].strip() for line in rows]
    assert verdicts == ["worse beyond bound" if m["name"] in worse else "within bound"
                        for m in METRICS]
    assert status == (1 if worse else 0)
    assert err == (f"worse beyond bound on fit: {', '.join(worse)}\n" if worse else "")


@pytest.mark.parametrize("worse_on", [None, "cold", "both"])
def test_without_a_workload_every_workload_runs(pairs_mod, monkeypatch, capsys, tmp_path,
                                                worse_on):
    """Without --workload, each workload of A's BENCHMARK.json runs its
    pairs in listed order and prints its own table; the script exits 1,
    naming each workload's metrics worse beyond their bound, only after
    the last workload has run."""
    order = []

    def fake(tree, workload, seed):
        order.append((workload, tree.name, seed))
        worse = tree.name == "b" and worse_on in (workload, "both")
        return pairs_mod.last_json(run_line(0.2 if worse else 0.1, 1000.0), "run")

    monkeypatch.setattr(pairs_mod, "run_once", fake)
    status = pairs_mod.main(trees(tmp_path, ("fit", "cold")) + ["--pairs", "2"])
    out, err = capsys.readouterr()
    assert order == [("fit", "a", 0), ("fit", "b", 0), ("fit", "b", 1), ("fit", "a", 1),
                     ("cold", "a", 0), ("cold", "b", 0), ("cold", "b", 1), ("cold", "a", 1)]
    parts = out.split("\n\n")
    assert len(parts) == 4  # each workload's table, then its pair lines
    for workload, text, listed in zip(("fit", "cold"), parts[::2], parts[1::2]):
        rows = text.strip().splitlines()
        assert rows[0].startswith("| workload | metric |") and len(rows) == 2 + len(METRICS)
        assert all(row.startswith(f"| {workload} | ") for row in rows[2:])
        assert [line.split(":")[0] for line in listed.strip().splitlines()] == [
            "- seed 0, parent first", "- seed 1, change first"]
    named = {None: [], "cold": ["cold"], "both": ["fit", "cold"]}[worse_on]
    assert err == "".join(f"worse beyond bound on {w}: setup_s\n" for w in named)
    assert status == (1 if named else 0)


@pytest.mark.parametrize("bad", [dict(correct=False), dict(failed=2)])
def test_a_failed_run_exits_1_naming_it(pairs_mod, monkeypatch, capsys, tmp_path, bad):
    trees(tmp_path)
    ok = (0.1, 1000.0)

    def fake_run(cmd, **kwargs):
        tree, seed = Path(cmd[1]).parents[1].name, int(cmd[-1])
        line = run_line(*ok, **(bad if (tree, seed) == ("b", 4) else {}))
        return type("Done", (), {"stdout": line, "returncode": 0})

    monkeypatch.setattr(pairs_mod.subprocess, "run", fake_run)
    status = pairs_mod.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "fit",
                             "--pairs", "3", "--first-seed", "3"])
    out, err = capsys.readouterr()
    assert status == 1 and out == ""
    assert err.startswith(f"run {tmp_path / 'b'} seed 4 is not correct or failed operations: {{")
    # and without the failed run, the same call prints the table
    bad.clear()
    assert pairs_mod.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "fit",
                           "--pairs", "3", "--first-seed", "3"]) == 0
    assert ("| fit | setup_s | 0.1 [0.1, 0.1] | 0.1 [0.1, 0.1] | +0.0% | 0/3 (3 ties) | not met "
            "| within bound |") in capsys.readouterr().out
