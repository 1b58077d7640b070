"""The arithmetic of tools/bench_pairs.py on fixed fake runs; no benchmark runs."""
import json

import pytest

from tools import bench_pairs


def _run(tree, seed, tpot, tok, workload="edge_stream", correct=True):
    return {"tree": tree, "workload": workload, "seed": seed, "correct": correct,
            "metrics": {"tpot_ms_mean": tpot, "tok_per_s": tok}}


PARENT = {1: (1.0, 100.0), 2: (1.2, 90.0), 3: (1.1, 95.0), 4: (1.4, 80.0),
          5: (1.3, 85.0)}
CHANGE = {1: (0.8, 100.0), 2: (0.9, 110.0), 3: (1.1, 99.0), 4: (1.0, 70.0),
          5: (0.7, 120.0)}
RUNS = ([_run("parent", s, *v) for s, v in PARENT.items()]
        + [_run("change", s, *v) for s, v in CHANGE.items()])
METRICS = {"tpot_ms_mean": "lower", "tok_per_s": "higher"}


def test_summary_counts_pairs_in_each_metrics_direction():
    summary = bench_pairs.summarise(RUNS, METRICS)["edge_stream"]
    tpot = summary["tpot_ms_mean"]
    # parent 1.0 1.1 1.2 1.3 1.4, change 0.7 0.8 0.9 1.0 1.1: seed 3 ties
    assert (tpot["parent_median"], tpot["change_median"]) == (1.2, 0.9)
    assert tpot["parent_q1"] == pytest.approx(1.1)
    assert tpot["parent_q3"] == pytest.approx(1.3)
    assert tpot["change_q1"] == pytest.approx(0.8)
    assert tpot["change_q3"] == pytest.approx(1.0)
    assert tpot["change_over_parent"] == 0.75
    assert (tpot["change_better_pairs"], tpot["ties"]) == ("4 of 5", 1)
    # 4 of 5 is below nine tenths, though the medians differ by more than the IQR
    assert tpot["gain_shown"] is False
    tok = summary["tok_per_s"]
    # higher is better: seeds 2, 3 and 5 won, seed 4 lost, seed 1 tied
    assert (tok["change_better_pairs"], tok["ties"]) == ("3 of 5", 1)
    assert (tok["parent_median"], tok["change_median"]) == (90.0, 100.0)


def test_gain_shown_needs_nine_tenths_and_a_gap_wider_than_the_parent_iqr():
    runs = [_run("parent", s, 1.0 + s / 100, 1.0) for s in range(1, 11)]
    runs += [_run("change", s, 0.9 + s / 100, 1.0) for s in range(1, 11)]
    tpot = bench_pairs.summarise(runs, METRICS)["edge_stream"]["tpot_ms_mean"]
    assert tpot["change_better_pairs"] == "10 of 10"
    assert tpot["gain_shown"] is True       # 0.1 apart, parent IQR 0.045
    narrow = [dict(r, metrics=dict(r["metrics"], tpot_ms_mean=r["metrics"]["tpot_ms_mean"]
                                   + (0.08 if r["tree"] == "change" else 0)))
              for r in runs]
    tpot = bench_pairs.summarise(narrow, METRICS)["edge_stream"]["tpot_ms_mean"]
    assert tpot["change_better_pairs"] == "10 of 10"
    assert tpot["gain_shown"] is False      # 0.02 apart
    assert bench_pairs.summarise(runs, METRICS)["edge_stream"]["tok_per_s"][
        "change_better_pairs"] == "0 of 10"


def test_pairs_match_by_workload_and_seed():
    runs = RUNS + [_run("parent", 6, 9.0, 1.0), _run("change", 1, 5.0, 5.0, "spec_decode")]
    summary = bench_pairs.summarise(runs, METRICS)
    assert summary["edge_stream"] == bench_pairs.summarise(RUNS, METRICS)["edge_stream"]
    assert summary["spec_decode"] == {}     # no parent run to pair with


def test_seed_ranges():
    assert bench_pairs.seed_range("1-3,7") == [1, 2, 3, 7]


def test_order_alternates_and_an_incorrect_run_fails(tmp_path, monkeypatch):
    calls = []

    def fake(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, seed))
        tpot = 1.0 if tree.name == "p" else 0.9
        return {"workload": workload, "seed": seed, "correct": seed != 2,
                "metrics": {"tpot_ms_mean": tpot}}

    monkeypatch.setattr(bench_pairs, "run_one", fake)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"claim": "kept"}))
    code = bench_pairs.main(["--parent", str(tmp_path / "p"), "--change",
                             str(tmp_path / "c"), "--workloads", "a,b", "--seeds", "1-2",
                             "--seconds", "1", "--out", str(out)])
    assert code == 1
    assert calls == [("p", "a", 1), ("c", "a", 1), ("p", "b", 1), ("c", "b", 1),
                     ("c", "a", 2), ("p", "a", 2), ("c", "b", 2), ("p", "b", 2)]
    doc = json.loads(out.read_text())
    assert doc["claim"] == "kept" and len(doc["runs"]) == 8
    assert doc["summary"]["a"]["tpot_ms_mean"]["change_better_pairs"] == "2 of 2"
