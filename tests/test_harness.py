"""Harness: workload generation, policy runs, comparison, throughput."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from supervisord.couplet import DETECT_MS_PER_FRAME
from supervisord.errors import IncomparableReports, WorkloadSpecError
from supervisord.harness import (
    CATEGORIES,
    CATEGORY_TABLE,
    MetricsReport,
    PolicyConfig,
    WorkloadSpec,
    compare,
    default_workload_spec,
    generate_workload,
    per_query_delta_csv,
    run_policy,
    throughput_from_report,
    workload_digest,
)
from supervisord.state import ExecutionFlag


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

    def test_report_self_consistency(self, small_run):
        _, _, centralized, hierarchical = small_run
        assert centralized.check_self_consistency()
        assert hierarchical.check_self_consistency()

    def test_report_json_round_trip(self, small_run):
        _, _, centralized, _ = small_run
        doc = json.dumps(centralized.to_json_dict(), sort_keys=True)
        back = MetricsReport.from_json_dict(json.loads(doc))
        assert back.check_self_consistency()
        assert back.aggregates == centralized.aggregates

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

    @pytest.mark.parametrize("parallel_enabled,faults,expected", [
        (True, False, "5ea8f99b9fa1d14df8dd18e9bfc126b0592dfb5c67faee0d53579819cb10017c"),
        (False, False, "e2597bdeea4161cf47b77abcd532d36162f6cbbd7daa559b3d13108e0a7ed257"),
        (True, True, "2a17de09ae7e524bad8f5301db08e9026e3f87d70f0bafc162da417c9c861412"),
    ])
    def test_centralized_report_digest(self, parallel_enabled, faults, expected):
        policy_cfg = PolicyConfig(parallel_enabled=parallel_enabled)
        assert self.digest("centralized", faults, policy_cfg) == expected

    @pytest.mark.parametrize("policy,faults,expected", [
        ("hierarchical", False, "3a5c96a5de77eac4842a106fb594c02910f8966b649da08f4d47f4e307a374f3"),
        ("hierarchical", True, "306af6559e6fa8a823062e622c99bad1cffb5abb865b5e01b9eaf3343d5dc802"),
        ("monolithic", False, "6c119081b04a711547b14131ee3cd0f6318697732ccb3a0b29a116df6ede8f6c"),
        ("monolithic", True, "f62631f472a1954a5be06e3337b48167637be96f2df0c4b0a379ca53bb5a8ad2"),
    ])
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
        assert digest == "14d0d02620f2d1ef2eb7d91e2413a9975e2a14384f08cda003bbebbff4d149a9"


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

    def test_mismatched_workloads_rejected(self):
        spec_a = default_workload_spec(40, seed=9)
        spec_b = default_workload_spec(40, seed=10)
        report_a = run_policy(generate_workload(spec_a), "centralized", spec_a, seed=3)
        report_b = run_policy(generate_workload(spec_b), "centralized", spec_b, seed=3)
        with pytest.raises(IncomparableReports):
            compare(report_a, report_b)

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
        qps = throughput_from_report(report, parallel_sessions=1, workers=10_000)
        mean_tta = report.aggregates["tta_mean_ms"]
        assert qps == pytest.approx(1000.0 / mean_tta, rel=1e-9)

    def test_more_sessions_monotone_below_saturation(self):
        spec = default_workload_spec(120, seed=14)
        queries = generate_workload(spec)
        report = run_policy(queries, "centralized", spec, seed=3)
        values = [throughput_from_report(report, s, workers=64) for s in (1, 2, 4, 8)]
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
        spec = default_workload_spec(150, seed=19)
        spec.ambiguity_rate = 0.0
        queries = generate_workload(spec)
        previous = None
        for rate in (0.0, 0.05, 0.15, 0.3):
            spec.failure_injection = {t: rate for t in (
                "yolo-detect", "whisper-transcribe", "tesseract-ocr", "pdf-parse",
                "table-extract",
            )}
            report = run_policy(queries, "hierarchical", spec, seed=3)
            ttas = {r.query_id: r.tta_ms for r in report.per_query}
            if previous is not None:
                assert all(ttas[i] >= previous[i] for i in ttas)
            previous = ttas


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
        from supervisord.harness import load_workload_file, materialize_workload

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


class TestPolicyFairness:
    def test_hierarchical_stages_exist_in_registry(self):
        from supervisord.harness import _HIER_OVERHEAD, _HIER_SYNTH
        from supervisord.tools import default_registry

        registry = default_registry()
        names = {registry.get(t).name for t in registry.all_ids()}
        used = set(_HIER_OVERHEAD) | {_HIER_SYNTH}
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
