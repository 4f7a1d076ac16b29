"""``tools/bench_pairs.py``: its pairing order and its summary, with the
benchmark runs replaced by stand-ins, so nothing here runs the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(checks_per_s, rss, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "checks_per_s": {"value": checks_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "unlisted": {"value": 1.0, "unit": "s"}}}


def test_pairs_alternate_which_side_runs_first(bench_pairs):
    orders = [bench_pairs.pair_order(i) for i in range(4)]
    assert orders == [("parent", "change"), ("change", "parent")] * 2


def test_runs_go_in_pair_order_and_append_one_line_each(bench_pairs, tmp_path,
                                                        monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, seed, seconds))
        return {"result": _result(100.0 if side == "parent" else 120.0, 50.0)}

    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"side": "parent", "seed": 1, "trace": 0,
                               "workload": "registry-sweep",
                               "result": _result(1.0, 1.0)}) + "\n")
    assert bench_pairs.main(["--workload", "registry-sweep", "--first-seed", "7",
                             "--pairs", "3", "--out", str(out)]) == 0
    # each run lasts the run_seconds BENCHMARK.json sets
    seconds = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    assert calls == [(side, seed, seconds) for side, seed in
                     [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                      ("parent", 9), ("change", 9)]]
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 7                      # appended after the line there
    assert [(l["side"], l["seed"], seconds) for l in lines[1:]] == calls
    assert all(l["workload"] == "registry-sweep" and l["trace"] == 0 for l in lines[1:])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == ("registry-sweep: 3 pairs, 0 runs not correct, "
                          "0 runs repeat a seed and side")
    assert printed[1] == ("  checks_per_s: parent 100 [100, 100]  change 120 [120, 120]  "
                          "pairs won: change 3, parent 0")
    # only end-to-end metrics are summarised
    assert [line.split(":")[0] for line in printed[2:]] == ["  peak_rss_mb"]


def test_summary_medians_quartiles_and_wins(bench_pairs):
    runs = []
    values = [(1, 100.0, 110.0), (2, 104.0, 103.0), (3, 96.0, 96.0), (4, 108.0, 130.0),
              (5, 102.0, 120.0)]
    for seed, parent, change in values:
        runs.append({"side": "parent", "seed": seed, "trace": 0, "workload": "w",
                     "result": _result(parent, 50.0)})
        runs.append({"side": "change", "seed": seed, "trace": 0, "workload": "w",
                     "result": _result(change, 49.0 if seed != 2 else 51.0)})
    # a run with no partner, a failed run and a traced run are not pairs
    runs.append({"side": "parent", "seed": 6, "trace": 0, "workload": "w",
                 "result": _result(1.0, 1.0)})
    # a repeat of seed 4's change run, not correct, is counted and replaces
    # the first in its pair
    runs.append({"side": "change", "seed": 4, "trace": 0, "workload": "w",
                 "result": _result(90.0, 52.0, correct=False)})
    runs.append({"side": "change", "seed": 7, "trace": 0, "workload": "w",
                 "result": None, "error": "exit 2"})
    runs.append({"side": "change", "seed": 1, "trace": 1, "workload": "w",
                 "result": _result(5.0, 5.0, correct=False)})
    better = {"checks_per_s": "higher", "peak_rss_mb": "lower"}
    summary = bench_pairs.summarize(runs, better)
    assert list(summary) == ["w"]                             # the traced run is left out
    group = summary["w"]
    assert group["pairs"] == 5 and group["incorrect"] == 2 and group["duplicate"] == 1
    assert set(group["metrics"]) == set(better)
    cps = group["metrics"]["checks_per_s"]
    assert cps["parent"] == (100.0, 102.0, 104.0)
    assert cps["change"] == (96.0, 103.0, 110.0)
    assert cps["wins"] == {"change": 2, "parent": 2}          # seed 3 is a tie
    rss = group["metrics"]["peak_rss_mb"]
    assert rss["wins"] == {"change": 3, "parent": 2}          # lower is better


def test_summarize_reads_a_file_and_runs_nothing(bench_pairs, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    monkeypatch.setattr(bench_pairs, "extract", no_run)
    monkeypatch.setattr(bench_pairs, "snapshot", no_run)
    path = tmp_path / "BENCH_y.json"
    path.write_text("\n".join(json.dumps({"side": side, "seed": 1, "trace": 0,
                                          "result": _result(v, 10.0)})
                              for side, v in (("change", 2.0), ("parent", 1.0))) + "\n")
    assert bench_pairs.main(["--summarize", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "None: 1 pairs, 0 runs not correct, 0 runs repeat a seed and side"
    assert "pairs won: change 1, parent 0" in out[1]
    assert "pairs won: change 0, parent 0" in out[2]
