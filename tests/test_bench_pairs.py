"""The verdicts of scripts/bench_pairs.py on synthetic runs, and a run that fails."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


class TestVerdict:
    def test_clear_gain_is_claimed(self):
        change = [p * 1.2 for p in PARENT]
        v = verdict(PARENT, change, "higher", 0.25)
        assert (v["change_wins"], v["pairs"], v["claim"], v["bound"]) == (10, 10, True, "ok")
        assert v["relative_change"] == pytest.approx(0.2)

    def test_eight_wins_of_ten_is_no_claim(self):
        change = [p * 1.2 for p in PARENT]
        change[0], change[1] = PARENT[0] - 1, PARENT[1]  # one loss, one tie
        v = verdict(PARENT, change, "higher", 0.25)
        assert v["change_wins"] == 8 and not v["claim"]

    def test_gain_within_the_parent_iqr_is_no_claim(self):
        # Every pair is won, but by less than the parent's own spread.
        change = [p + 0.5 for p in PARENT]
        v = verdict(PARENT, change, "higher", 0.25)
        assert v["change_wins"] == 10
        assert v["change"]["median"] - v["parent"]["median"] < (
            v["parent"]["q3"] - v["parent"]["q1"])
        assert not v["claim"]

    def test_lower_is_better(self):
        latency = [p / 100 for p in PARENT]
        v = verdict(latency, [x * 0.8 for x in latency], "lower", 0.25)
        assert v["claim"] and v["bound"] == "ok"
        v = verdict(latency, [x * 1.3 for x in latency], "lower", 0.25)
        assert v["change_wins"] == 0 and not v["claim"] and v["bound"] == "worse"

    def test_worse_beyond_the_bound(self):
        v = verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)
        assert v["bound"] == "worse"
        v = verdict(PARENT, [p * 0.9 for p in PARENT], "higher", 0.25)
        assert v["bound"] == "ok"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 65.0, 135.0]
        v = verdict(parent, list(parent), "higher", 0.1)
        assert v["bound"] == "unresolved"
        # ... unless every change run beats every parent run.
        v = verdict(parent, [200.0 + p for p in parent], "higher", 0.1)
        assert v["bound"] == "ok"


def _run(failed: int, attempted: int = 100, value: float = 1.0) -> dict:
    metrics = {m: value for m in ("setup_s", "peak_rss_mb", "ops_per_s", "central_qps",
                                  "latency_p50_ms", "latency_p95_ms")}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


class TestFailedVerdict:
    def test_equal_shares_are_ok(self):
        v = bench_pairs.failed_verdict({"parent": [_run(0), _run(0)], "change": [_run(0)] * 2})
        assert (v["parent"], v["change"], v["verdict"]) == (0.0, 0.0, "ok")

    def test_a_larger_failed_share_is_worse(self):
        v = bench_pairs.failed_verdict({"parent": [_run(1), _run(1)],
                                        "change": [_run(1), _run(2)]})
        assert v["parent"] == pytest.approx(0.01) and v["change"] == pytest.approx(0.015)
        assert v["verdict"] == "worse"
        v = bench_pairs.failed_verdict({"parent": [_run(2)], "change": [_run(1)]})
        assert v["verdict"] == "ok"

    def test_a_run_that_exited_nonzero_is_worse(self):
        v = bench_pairs.failed_verdict({"parent": [_run(0), _run(0)], "change": [None, _run(0)]})
        assert v["crashed"] == {"parent": 0, "change": 1} and v["verdict"] == "worse"


def test_a_failing_run_is_recorded_and_the_other_pairs_are_kept(tmp_path, monkeypatch, capsys):
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append(tree.name)
        if len(calls) == 3:
            raise bench_pairs.RunFailed(1, ["Traceback (most recent call last):", "boom"])
        return _run(0, value=float(len(calls)))

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["p", "c", "--pairs", "3", "--seconds", "1",
                             "--workloads", "sim-mix", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["sim-mix seed 1"]
    # Pair 2 runs the change first, and that run fails.
    assert entry["failures"] == [{"side": "change", "pair": 2, "returncode": 1,
                                  "stderr_tail": ["Traceback (most recent call last):", "boom"]}]
    assert [r and r["metrics"]["ops_per_s"] for r in entry["runs"]["parent"]] == [1.0, 4.0, 5.0]
    assert [r and r["metrics"]["ops_per_s"] for r in entry["runs"]["change"]] == [2.0, None, 6.0]
    assert entry["metrics"]["ops_per_s"]["pairs"] == 2
    assert entry["failed_share"]["verdict"] == "worse"
    assert "failed share" in capsys.readouterr().out
