"""Harness: workload generation, policy runs, comparison, throughput."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from supervisord import harness
from supervisord.couplet import DETECT_MS_PER_FRAME
from supervisord.engine import ANSWER_TOKENS, EngineBackends, Supervisor
from supervisord.errors import NodeFailure, WorkloadSpecError
from supervisord.harness import (
    _HIER_OVERHEAD,
    RESTART_CAP,
    PolicyConfig,
    _hierarchical_plan,
    compare,
    per_query_delta_csv,
    run_policy,
    throughput_from_report,
)
from supervisord.memory import HashingEmbedder, MemoryStore, whitespace_tokens
from supervisord.routing import default_model_catalog, invocation_cost
from supervisord.state import CostKnob, ExecutionFlag, Money
from supervisord.tools import default_registry
from supervisord.workload import (
    CATEGORIES,
    CATEGORY_TABLE,
    WorkloadSpec,
    default_workload_spec,
    generate_workload,
    materialize_workload,
    workload_digest,
)


class TestWorkloadSpec:
    def test_fifteen_categories(self):
        assert len(CATEGORIES) == 15

    def test_mix_must_sum_to_one(self):
        spec = default_workload_spec(10)
        spec.category_mix = {c: 0.5 / len(CATEGORIES) for c in CATEGORIES}
        with pytest.raises(WorkloadSpecError) as exc:
            spec.validate()
        assert exc.value.field_path == "category_mix"

    def test_missing_category_rejected(self):
        spec = default_workload_spec(10)
        del spec.category_mix["video_analysis"]
        with pytest.raises(WorkloadSpecError):
            spec.validate()

    def test_bad_failure_rate_names_field(self):
        spec = default_workload_spec(10)
        spec.failure_injection["yolo-detect"] = 1.5
        with pytest.raises(WorkloadSpecError) as exc:
            spec.validate()
        assert exc.value.field_path == "failure_injection.yolo-detect"


class TestGeneration:
    def test_degenerate_single_category(self):
        mix = {c: 0.0 for c in CATEGORIES}
        mix["audio_transcription"] = 1.0
        spec = WorkloadSpec(total_queries=10, category_mix=mix, ambiguity_rate=0.0)
        queries = generate_workload(spec)
        assert len(queries) == 10
        assert all(q.ground_truth.expected_flag is ExecutionFlag.AUDIO for q in queries)
        assert all("transcript" in next(iter(q.fixtures.values())) for q in queries)

    def test_deterministic_for_fixed_seed(self):
        spec = default_workload_spec(300, seed=12)
        a = generate_workload(spec)
        b = generate_workload(spec)
        assert workload_digest(a) == workload_digest(b)
        assert [q.text for q in a] == [q.text for q in b]

    def test_ambiguity_rate_within_binomial_tolerance(self):
        spec = default_workload_spec(1000, seed=4)
        spec.ambiguity_rate = 0.1
        queries = generate_workload(spec)
        ambiguous = sum(q.ground_truth.ambiguous for q in queries)
        sigma = math.sqrt(1000 * 0.1 * 0.9)
        assert abs(ambiguous - 100) <= 4 * sigma

    def test_counts_match_mix_exactly(self):
        spec = default_workload_spec(997)  # prime: exercises apportionment
        queries = generate_workload(spec)
        assert len(queries) == 997


def _spec(total, seed=WorkloadSpec.seed, **fields):
    spec = default_workload_spec(total, seed=seed)
    for name, value in fields.items():
        setattr(spec, name, value)
    return spec


_VIDEO_ONLY = {c: float(c == "video_analysis") for c in CATEGORIES}


class TestWholeOutput:
    """sha256 of each materialized workload: every text, attachment, fixture and
    ground-truth field the generator draws, where `workload_digest` covers only
    the id, category, text and ambiguity of each query.

    Complex-orchestration attachments carry no preset modality; the engine
    detects `.pdf` as a document. With that modality written back, each
    workload hashes to the digest it had while the generator preset it."""

    @pytest.mark.parametrize("spec, expected, preset", [
        (_spec(1000), "2b96b5db084e8893ae4b33b9667ec850111f8382618b85852e11cddcf316859c",
         "fde0cafede8f0d0b901c404c13834529af42c3610b7c05636f287c688350f0db"),
        (_spec(1000, 1), "2b0c5cb1856a95f425d0f29b82bfd579fe133c940d4ba3ea1c86132bb7f30625",
         "2d790733f9501ec5098c3dac121db6b17a3e141a341f0b740d12def3e720999b"),
        (_spec(400, 2026), "dfdf473907dc140b5d27aaac81f483eb663cf12e109c30061f30f1258058c473",
         "ec02dc17e0f25a36b25b17fb78adfe19a90a99ba1d72365de47862b6b071db94"),
        (_spec(2847), "74b31871c831ce071e882c09060b6b7906f124296f600bc12834e814c76b3edd",
         "1371487d168a11b4e47b9c8b9e721562fb627cc42dee727b77fc2a6bf317af19"),
        (_spec(1000, 1, ambiguity_rate=0.6, memory_hint_rate=0.2),
         "dc32d26e7c9905f727de59d4e7f79dbd05511b6490c51be7c6e43cf143e81fa3",
         "2121a808c15da546472c09b7d8a9f2f01741c0e8fa22e9904c8d913d21af7e42"),
        (_spec(500, 9, category_mix=_VIDEO_ONLY),
         "7f174002fb8ff407417434d506a1ff5c113d0fb0b7a9c1ba545cac3c1438e51f",
         "7f174002fb8ff407417434d506a1ff5c113d0fb0b7a9c1ba545cac3c1438e51f"),
    ], ids=["default", "seed-1", "seed-2026-400", "default-2847", "ambiguous", "video-only"])
    def test_materialized_workload_digest(self, spec, expected, preset):
        document = materialize_workload(generate_workload(spec), spec)
        assert _sha256(document) == expected
        for query in document["queries"]:
            if query["category"] == "complex_orchestration":
                for attachment in query["attachments"]:
                    assert attachment["modality"] is None
                    attachment["modality"] = "document"
        assert _sha256(document) == preset


def _sha256(document: dict) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def small_run():
    spec = default_workload_spec(150, seed=21)
    queries = generate_workload(spec)
    centralized = run_policy(queries, "centralized", spec, seed=2)
    hierarchical = run_policy(queries, "hierarchical", spec, seed=2)
    return spec, queries, centralized, hierarchical


class TestRunPolicy:
    def test_no_failures_no_ambiguity_both_perfect(self):
        spec = default_workload_spec(60, seed=8)
        spec.ambiguity_rate = 0.0
        spec.failure_injection = {}
        queries = generate_workload(spec)
        centralized = run_policy(queries, "centralized", spec, seed=2)
        hierarchical = run_policy(queries, "hierarchical", spec, seed=2)
        assert centralized.aggregates["accuracy"] == 1.0
        assert hierarchical.aggregates["accuracy"] == 1.0
        assert centralized.aggregates["rework_rate"] == 0.0
        assert hierarchical.aggregates["rework_rate"] == 0.0

    @pytest.mark.parametrize("policy", ["centralized", "hierarchical", "monolithic"])
    def test_one_query_report_has_its_tta_as_quartiles(self, policy):
        spec = default_workload_spec(1)
        report = run_policy(generate_workload(spec), policy, spec, seed=1)
        [record] = report.per_query
        assert record.tta_ms > 0
        a = report.aggregates
        assert a["tta_p25_ms"] == a["tta_median_ms"] == a["tta_p75_ms"] == record.tta_ms
        assert f"  {record.tta_ms}-{record.tta_ms}\n" in report.render_table()

    def test_report_self_consistency(self, small_run):
        _, _, centralized, hierarchical = small_run
        assert centralized.check_self_consistency()
        assert hierarchical.check_self_consistency()

    def test_parallel_branch_gap(self, small_run):
        spec, queries, centralized, hierarchical = small_run
        cent = {r.query_id: r for r in centralized.per_query}
        hier = {r.query_id: r for r in hierarchical.per_query}
        video_ids = [q.query_id for q in queries
                     if q.category == "video_analysis" and not q.ground_truth.ambiguous]
        assert video_ids
        # hierarchical runs the same branches sequentially, so it is slower
        # on every non-ambiguous video query.
        assert all(hier[i].tta_ms > cent[i].tta_ms for i in video_ids)

    def test_centralized_repairs_hierarchical_restarts(self):
        mix = {c: 0.0 for c in CATEGORIES}
        mix["ocr_extraction"] = 1.0
        spec = WorkloadSpec(total_queries=8, category_mix=mix, seed=13, ambiguity_rate=0.0,
                            failure_injection={"tesseract-ocr": 1.0})
        queries = generate_workload(spec)
        centralized = run_policy(queries, "centralized", spec, seed=2)
        hierarchical = run_policy(queries, "hierarchical", spec, seed=2)
        # every centralized query repaired exactly once (alternative tool succeeds);
        # hierarchical re-runs its whole chain until the coupled draw clears.
        assert all(r.rework_internal == 1 for r in centralized.per_query)
        assert all(r.rework_internal >= 1 for r in hierarchical.per_query)
        assert hierarchical.aggregates["tta_mean_ms"] > centralized.aggregates["tta_mean_ms"]

    def test_monolithic_runs(self, small_run):
        spec, queries, *_ = small_run
        report = run_policy(queries, "monolithic", spec, seed=2)
        assert report.aggregates["queries"] == len(queries)
        assert float(report.aggregates["mean_cost_usd"]) > 0

    def test_unknown_policy_rejected(self, small_run):
        spec, queries, *_ = small_run
        with pytest.raises(ValueError):
            run_policy(queries, "anarchic", spec)

    def test_deterministic_reports(self):
        spec = default_workload_spec(60, seed=31)
        queries = generate_workload(spec)
        a = run_policy(queries, "centralized", spec, seed=7)
        b = run_policy(queries, "centralized", spec, seed=7)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_centralized_run_embeds_and_ranks_nothing(self, monkeypatch):
        # Each query's store is dropped unread, and none holds two records.
        calls = []
        embed = HashingEmbedder.embed
        monkeypatch.setattr(HashingEmbedder, "embed",
                            lambda self, text: calls.append(text) or embed(self, text))

        class CountingStore(MemoryStore):
            retrieves = 0

            def retrieve_relevant(self, *args, **kwargs):
                CountingStore.retrieves += 1
                return super().retrieve_relevant(*args, **kwargs)

        monkeypatch.setattr(harness, "MemoryStore", CountingStore)
        spec = default_workload_spec(200)
        queries = generate_workload(spec)
        assert any(q.ground_truth.memory_hint for q in queries)
        report = run_policy(queries, "centralized", spec, seed=5)
        assert report.aggregates["queries"] == 200
        assert (len(calls), CountingStore.retrieves) == (0, 0)


_PERCEPTUAL_TOOLS = (
    "yolo-detect", "clip-embed", "vision-analyze", "image-generate",
    "whisper-transcribe", "audio-analyze", "tesseract-ocr", "pdf-parse", "table-extract",
)


class TestReportBytes:
    """Report bytes of each policy for a fixed small workload.

    A change that moves report numbers on purpose re-pins these digests and
    says so; any other change must leave them as they are.
    """

    @staticmethod
    def digest(policy, faults, policy_cfg=None):
        spec = default_workload_spec(300)
        if faults:
            spec.failure_injection = {tool: 0.3 for tool in _PERCEPTUAL_TOOLS}
            spec.ambiguity_rate = 0.6
        report = run_policy(generate_workload(spec), policy, spec, policy_cfg)
        doc = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
        return hashlib.sha256(doc.encode()).hexdigest()

    # Test ids leave the digest out, so a re-pin keeps each test's name.
    @pytest.mark.parametrize("parallel_enabled,faults,expected", [
        (True, False, "7a89bed5761410eae8e56a0bec19b3043b892bd70f8c6b3b8f1f30f464640d8c"),
        (False, False, "61ab96b10b200e6a475ff78a653851e49974d3029b369dd359af1bd71b244fc4"),
        (True, True, "3b9722e20a0e3a25bf21026a3e90934a1d58893ede539f40cd47f5c64f47a06b"),
    ], ids=["parallel", "serial", "parallel-faults"])
    def test_centralized_report_digest(self, parallel_enabled, faults, expected):
        policy_cfg = PolicyConfig(parallel_enabled=parallel_enabled)
        assert self.digest("centralized", faults, policy_cfg) == expected

    @pytest.mark.parametrize("policy,faults,expected", [
        ("hierarchical", False, "0f701fbafc597babb279c01d0663f2810b1c5833602ed2c090d1ed91be2e2c0c"),
        ("hierarchical", True, "d30bb8630cdd18f98ce14abfec6e89172c7b19f1c7cde8fe951c4c03ccf1db45"),
        ("monolithic", False, "8be7bb6e84732021b704f5a09d89329512bec1dc0f80909e0619a6c87acc3af5"),
        ("monolithic", True, "92346a899e810bef49b2c943897566131607a4dc1da5ebc7fc651f739b1fa3e7"),
    ], ids=["hierarchical", "hierarchical-faults", "monolithic", "monolithic-faults"])
    def test_baseline_report_digest(self, policy, faults, expected):
        assert self.digest(policy, faults) == expected

    def test_comparison_digest(self):
        spec = default_workload_spec(300)
        queries = generate_workload(spec)
        centralized = run_policy(queries, "centralized", spec)
        hierarchical = run_policy(queries, "hierarchical", spec)
        text = json.dumps(compare(centralized, hierarchical).to_json_dict(), sort_keys=True)
        text += "\n" + per_query_delta_csv(centralized, hierarchical)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "6fe57d922500c08ec9264a0f6e0625159f0cf3eaa8814a8d363671d851d7adf6"


class TestCompare:
    def test_self_comparison_all_zero(self):
        spec = default_workload_spec(40, seed=9)
        queries = generate_workload(spec)
        report = run_policy(queries, "centralized", spec, seed=3)
        delta = compare(report, report)
        assert delta.tta_reduction_median_pct == 0.0
        assert delta.cost_reduction_pct == 0.0
        assert delta.throughput_ratio == 1.0
        assert delta.accuracy_delta_pp == 0.0

    def test_csv_export(self):
        spec = default_workload_spec(20, seed=9)
        queries = generate_workload(spec)
        a = run_policy(queries, "centralized", spec, seed=3)
        b = run_policy(queries, "hierarchical", spec, seed=3)
        text = per_query_delta_csv(a, b)
        lines = text.strip().splitlines()
        assert len(lines) == 21
        assert lines[0].startswith("query_id,category")


class TestThroughput:
    def test_single_session_serial_law(self):
        spec = default_workload_spec(50, seed=14)
        queries = generate_workload(spec)
        report = run_policy(queries, "centralized", spec, seed=3)
        qps = throughput_from_report(report, parallel_sessions=1)
        mean_tta = report.aggregates["tta_mean_ms"]
        assert qps == pytest.approx(1000.0 / mean_tta, rel=1e-9)

    def test_more_sessions_monotone_below_saturation(self):
        spec = default_workload_spec(120, seed=14)
        queries = generate_workload(spec)
        report = run_policy(queries, "centralized", spec, seed=3)
        values = [throughput_from_report(report, s) for s in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_centralized_outpaces_hierarchical_at_64_sessions(self):
        spec = default_workload_spec(200, seed=14)
        queries = generate_workload(spec)
        centralized = run_policy(queries, "centralized", spec, seed=3)
        hierarchical = run_policy(queries, "hierarchical", spec, seed=3)
        ratio = throughput_from_report(centralized, 64) / throughput_from_report(hierarchical, 64)
        assert ratio >= 1.15


class TestMonotoneDamage:
    def test_hierarchical_tta_nondecreasing_in_failure_rate(self):
        # A raised rate only adds failing draws, so each query restarts at
        # least as often and never turns correct. One query's TTA may still
        # fall: a restart that now fails at an earlier stage costs less.
        spec = default_workload_spec(150, seed=19)
        spec.ambiguity_rate = 0.0
        queries = generate_workload(spec)
        for seed in range(1, 13):
            previous = None
            for rate in (0.0, 0.05, 0.15, 0.3):
                spec.failure_injection = {t: rate for t in (
                    "yolo-detect", "whisper-transcribe", "tesseract-ocr", "pdf-parse",
                    "table-extract",
                )}
                report = run_policy(queries, "hierarchical", spec, seed=seed)
                records = {r.query_id: r for r in report.per_query}
                mean_tta = statistics.fmean(r.tta_ms for r in report.per_query)
                if previous is not None:
                    before, previous_mean = previous
                    for query_id, r in records.items():
                        assert r.rework_internal >= before[query_id].rework_internal
                        assert before[query_id].correct or not r.correct
                    assert mean_tta > previous_mean, (seed, rate)
                previous = records, mean_tta


class TestSeedTree:
    """Every simulated draw is keyed by the query it belongs to."""

    def test_node_latencies_vary_across_queries(self, monkeypatch):
        rows = []
        process = Supervisor.process

        def recording(self, state, **kwargs):
            outcome = process(self, state, **kwargs)
            rows.append(outcome.trace_rows)
            return outcome

        monkeypatch.setattr(Supervisor, "process", recording)
        spec = default_workload_spec(1000)
        run_policy(generate_workload(spec), "centralized", spec, seed=1)
        first_attempts = defaultdict(list)  # (node id, tool) -> latencies
        for trace in rows:
            failed = {r.node_id for r in trace if r.event == "failed"}
            for r in trace:
                if r.event == "done" and r.node_id not in failed:
                    first_attempts[r.node_id, r.tool].append(r.latency_ms)
        frequent = {site: set(v) for site, v in first_attempts.items() if len(v) >= 20}
        assert len(frequent) >= 10
        assert [site for site, values in frequent.items() if len(values) < 2] == []

    def test_failure_draws_are_common_to_both_policies(self, monkeypatch):
        # Only yolo-detect fails, so a hierarchical query restarts exactly when
        # its restart-0 draw fails.
        centralized_failed = set()
        inject = EngineBackends._maybe_inject_failure

        def recording(self, node, attempt, tool_name):
            try:
                inject(self, node, attempt, tool_name)
            except NodeFailure:
                query_id, restart = self.query_id.split("#")
                if restart == "r0" and attempt == 0:
                    centralized_failed.add(query_id)
                raise

        monkeypatch.setattr(EngineBackends, "_maybe_inject_failure", recording)
        spec = default_workload_spec(1000)
        spec.failure_injection = {"yolo-detect": 0.3}
        queries = generate_workload(spec)
        run_policy(queries, "centralized", spec, seed=1)
        hierarchical = run_policy(queries, "hierarchical", spec, seed=1)
        hierarchical_failed = {r.query_id for r in hierarchical.per_query if r.rework_internal}
        assert len(hierarchical_failed) >= 30
        assert centralized_failed == hierarchical_failed


def one_query(category, failure_injection):
    """A one-query unambiguous workload of `category`: (spec, queries)."""
    mix = {c: 0.0 for c in CATEGORIES}
    mix[category] = 1.0
    spec = WorkloadSpec(total_queries=1, category_mix=mix, seed=5,
                        failure_injection=failure_injection, ambiguity_rate=0.0)
    return spec, generate_workload(spec)


def fee(tool: str) -> Money:
    registry = default_registry()
    return registry.get(registry.id_for_name(tool)).cost.per_invocation


class TestOneChargingRule:
    """Every policy charges every attempt once, when it ends: a result pays
    its price, a raised failure its tool's per-invocation fee."""

    @staticmethod
    def centralized_rows(monkeypatch, queries, spec):
        """The centralized record and the trace rows of every restart."""
        rows = []
        process = Supervisor.process

        def recording(self, state, **kwargs):
            outcome = process(self, state, **kwargs)
            rows.extend(outcome.trace_rows)
            return outcome

        monkeypatch.setattr(Supervisor, "process", recording)
        [record] = run_policy(queries, "centralized", spec, seed=1).per_query
        return record, rows

    def test_failed_attempt_pays_its_tool_fee_under_both_policies(self, monkeypatch):
        spec, queries = one_query("vision_qa", {"yolo-detect": 1.0})
        assert fee("yolo-detect") == Money.from_usd("0.004")
        record, rows = self.centralized_rows(monkeypatch, queries, spec)
        failed = [(r.tool, r.cost_usd) for r in rows if r.event == "failed"]
        assert failed == [("yolo-detect", "0.004000")]
        charged = sum((Money.from_usd(r.cost_usd) for r in rows if r.cost_usd), Money(0))
        assert record.cost_usd == charged.usd_str()
        # Every hierarchical attempt fails at yolo-detect after the coordination
        # stages, and each of them pays its fee, the failed stage included.
        [hierarchical] = run_policy(queries, "hierarchical", spec, seed=1).per_query
        assert hierarchical.rework_internal == RESTART_CAP + 1
        attempt = sum((fee(t) for t in (*_HIER_OVERHEAD, "yolo-detect")), Money(0))
        assert hierarchical.cost_usd == Money(attempt.micros * (RESTART_CAP + 1)).usd_str()

    def test_mixed_retrieval_pays_three_weak_model_calls(self):
        spec, [query] = one_query("mixed_retrieval", {})
        catalog = default_model_catalog()
        weak = catalog.by_name("phi-3.5-mini-instruct")
        assert weak.cost_per_mtok == Money.from_usd("0.40")
        weak_price = invocation_cost(weak, whitespace_tokens(query.text) + ANSWER_TOKENS)
        strong_price = invocation_cost(
            catalog.strongest(CostKnob.CLOSED_SRC), _hierarchical_plan(query).strong_tokens
        )
        fees = sum((fee(t) for t in (*_HIER_OVERHEAD, "ensemble-aggregate")), Money(0))
        expected = fees + strong_price + Money(3 * weak_price.micros)
        assert weak_price.micros > 0
        [record] = run_policy([query], "hierarchical", spec, seed=1).per_query
        assert record.cost_usd == expected.usd_str()

    def test_repairs_before_a_pipeline_failure_count_as_internal_rework(self, monkeypatch):
        # frames fails on yolo-detect, is repaired onto vision-analyze, fails
        # again and has no tool left: one repair and one restart per attempt.
        spec, queries = one_query("video_analysis", {"yolo-detect": 1.0, "vision-analyze": 1.0})
        record, rows = self.centralized_rows(monkeypatch, queries, spec)
        assert not record.correct
        assert sum(r.event == "repaired" for r in rows) == RESTART_CAP + 1
        assert record.rework_internal == 2 * (RESTART_CAP + 1)


class TestNoSeededGenerator:
    @pytest.mark.parametrize("policy", ["centralized", "hierarchical", "monolithic"])
    def test_run_policy_seeds_no_generator(self, policy, monkeypatch):
        spec = default_workload_spec(200)
        spec.failure_injection = {tool: 0.3 for tool in _PERCEPTUAL_TOOLS}
        queries = generate_workload(spec)
        seedings = []
        seed = random.Random.seed

        def counting(self, *args, **kwargs):
            seedings.append(args)
            return seed(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", counting)
        run_policy(queries, policy, spec, seed=1)
        assert seedings == []


class TestSimulateLoadsNoNumpy:
    def test_policies_and_simulate_leave_numpy_unimported(self, tmp_path):
        # A fresh interpreter, since this one has imported numpy for other tests.
        script = "\n".join([
            "import sys",
            "from supervisord.cli import main",
            "from supervisord.harness import run_policy",
            "from supervisord.workload import default_workload_spec, generate_workload",
            "spec = default_workload_spec(200)",
            "queries = generate_workload(spec)",
            "for policy in ('centralized', 'hierarchical', 'monolithic'):",
            "    run_policy(queries, policy, spec, seed=1)",
            "out = sys.argv[1]",
            "assert main(['--store-root', out, 'simulate', '--queries', '50', '--out', out]) == 0",
            "print('numpy' in sys.modules)",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(harness.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestWeakFractionCalibration:
    def test_standard_text_workload_routes_96_percent_weak(self):
        from supervisord.routing import route_strong_weak

        mix = {c: 0.0 for c in CATEGORIES}
        for category in ("text_reasoning", "coding_assistance", "analytical_mathematics",
                         "summarization_rewriting", "general_qa"):
            mix[category] = 0.2
        spec = WorkloadSpec(total_queries=1000, category_mix=mix, seed=42,
                            ambiguity_rate=0.0, failure_injection={})
        queries = generate_workload(spec)
        weak = sum(1 for q in queries if route_strong_weak(q.text).route == "weak")
        assert 0.94 <= weak / len(queries) <= 0.98


class TestMaterializedWorkload:
    def test_freeze_and_reload(self, tmp_path):
        from supervisord.workload import load_workload_file

        spec = default_workload_spec(30, seed=3)
        queries = generate_workload(spec)
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps(materialize_workload(queries, spec)))
        loaded_spec, loaded_queries = load_workload_file(str(path))
        assert loaded_queries is not None
        assert [q.text for q in loaded_queries] == [q.text for q in queries]
        report_a = run_policy(queries, "hierarchical", spec, seed=2)
        report_b = run_policy(loaded_queries, "hierarchical", loaded_spec, seed=2)
        assert report_a.aggregates == report_b.aggregates

    def test_fixture_without_tokens_costs_every_policy_the_same_default(self, tmp_path):
        from supervisord.harness import POLICIES
        from supervisord.workload import load_workload_file

        spec = default_workload_spec(30, seed=3)
        workload = materialize_workload(generate_workload(spec), spec)
        fixtures = [f for q in workload["queries"] for f in q["fixtures"].values()]
        assert fixtures
        costs = []
        for tokens in (None, 120, 100):
            for fixture in fixtures:
                fixture.pop("tokens", None)
                if tokens is not None:
                    fixture["tokens"] = tokens
            path = tmp_path / f"tokens-{tokens}.json"
            path.write_text(json.dumps(workload))
            loaded_spec, loaded = load_workload_file(str(path))
            costs.append({
                policy: [r.cost_usd for r in run_policy(loaded, policy, loaded_spec, seed=2).per_query]
                for policy in POLICIES
            })
        unstated, stated_default, stated_other = costs
        for policy in ("hierarchical", "monolithic"):
            assert unstated[policy] == stated_default[policy], policy
            assert unstated[policy] != stated_other[policy], policy  # tokens are charged
        assert unstated["centralized"] == stated_default["centralized"]


class TestPolicyFairness:
    def test_hierarchical_stages_exist_in_registry(self):
        from supervisord.harness import _HIER_OVERHEAD, _STRONG_STAGE
        from supervisord.tools import default_registry

        registry = default_registry()
        names = {registry.get(t).name for t in registry.all_ids()}
        used = set(_HIER_OVERHEAD) | {_STRONG_STAGE}
        for category in CATEGORY_TABLE.values():
            used.update(category.stages)
        assert used <= names

    def test_clarification_rerun_scales_detection_with_frames(self):
        # Both the answering attempt and the post-clarification re-run detect
        # over every frame, so ten more frames cost twice ten frames of time.
        mix = {c: 0.0 for c in CATEGORIES}
        mix["video_analysis"] = 1.0
        spec = WorkloadSpec(total_queries=1, category_mix=mix, seed=5,
                            failure_injection={}, ambiguity_rate=1.0)
        [query] = generate_workload(spec)
        assert query.ground_truth.ambiguous
        [fixture] = query.fixtures.values()
        ttas = []
        for frames in (6, 16):
            fixture["frames"] = frames
            ttas.append(run_policy([query], "hierarchical", spec).per_query[0].tta_ms)
        assert ttas[1] - ttas[0] == 2 * 10 * DETECT_MS_PER_FRAME

    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_monolithic_restarts_on_injected_strong_model_failures(self, rate):
        spec = default_workload_spec(200, seed=11)
        queries = generate_workload(spec)
        spec.failure_injection = {}
        clean = run_policy(queries, "monolithic", spec, seed=3)
        spec.failure_injection = {"llm-strong-invoke": rate}
        faulty = run_policy(queries, "monolithic", spec, seed=3)
        restarts = [r.rework_internal for r in faulty.per_query]
        assert all(r.rework_internal == 0 for r in clean.per_query)
        assert sum(restarts) > 0
        # A restart adds time and no cost: the failed strong stage pays
        # llm-strong-invoke's per-invocation fee, which is $0.
        for before, after in zip(clean.per_query, faulty.per_query):
            if after.correct:
                assert (after.tta_ms > before.tta_ms) == (after.rework_internal > 0)
                assert after.cost_usd == before.cost_usd
            else:
                assert after.cost_usd == "0.000000"
        if rate == 1.0:
            assert set(restarts) == {RESTART_CAP + 1}
            assert faulty.aggregates["accuracy"] < 1.0

    def test_strong_model_failure_draws_are_common_to_both_baselines(self):
        # Both plans run llm-strong-invoke once, so with only that tool failing
        # each query restarts the same number of times under either baseline.
        spec = default_workload_spec(600)
        spec.failure_injection = {"llm-strong-invoke": 0.4}
        queries = generate_workload(spec)
        hierarchical = run_policy(queries, "hierarchical", spec, seed=1)
        monolithic = run_policy(queries, "monolithic", spec, seed=1)
        restarts = [r.rework_internal for r in hierarchical.per_query]
        assert sum(restarts) >= 200
        assert restarts == [r.rework_internal for r in monolithic.per_query]
