"""The claim and bound verdicts of scripts/bench_pairs.py, on synthetic runs."""

from __future__ import annotations

import importlib.util
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
