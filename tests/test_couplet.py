"""Couplet pipeline: intent parsing, backends, contextualization."""

from __future__ import annotations

import pathlib

import pytest

from supervisord.couplet import (
    PerceptualTask,
    SimulatedBackend,
    TaskKind,
    contextualize_timeline,
    execute_perceptual,
    keyed_uniform,
    merge_timeline,
    parse_intent,
    stable_seed,
    summarize_payload,
)
from supervisord.errors import AmbiguousIntent, NodeFailure
from supervisord.state import Modality

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestParseIntent:
    def test_video_products_query(self):
        task = parse_intent(
            "what products are shown in this video", Modality.VIDEO, attachment_ref="v.mp4"
        )
        assert task.kind is TaskKind.DETECT_OBJECTS
        assert task.parameters["frame_interval_s"] == 1.0

    def test_video_named_granularity(self):
        task = parse_intent("detect objects every 2 seconds", Modality.VIDEO)
        assert task.parameters["frame_interval_s"] == 2.0

    def test_audio_transcribe(self):
        task = parse_intent("transcribe", Modality.AUDIO)
        assert task.kind is TaskKind.TRANSCRIBE
        assert task.parameters["language"] == "auto"

    def test_scanned_document_goes_to_ocr(self):
        task = parse_intent("analyze this document", Modality.IMAGE, scanned=True)
        assert task.kind is TaskKind.OCR

    def test_native_document_goes_to_parser(self):
        task = parse_intent("what does this say about revenue", Modality.DOCUMENT)
        assert task.kind is TaskKind.PARSE_PDF

    def test_tables_request(self):
        task = parse_intent("extract the tables", Modality.DOCUMENT)
        assert task.kind is TaskKind.EXTRACT_TABLES

    def test_image_generation(self):
        task = parse_intent("draw a cat on a mat", Modality.IMAGE)
        assert task.kind is TaskKind.GENERATE_IMAGE
        assert task.parameters["prompt"] == "draw a cat on a mat"

    def test_vague_query_raises_ambiguous_intent(self):
        with pytest.raises(AmbiguousIntent):
            parse_intent("the usual", Modality.VIDEO)

    def test_text_modality_rejected(self):
        with pytest.raises(ValueError):
            parse_intent("hello", Modality.TEXT)


class TestTaskSchema:
    def test_unknown_parameter_rejected(self):
        task = PerceptualTask(TaskKind.TRANSCRIBE, {"pitch": 1})
        with pytest.raises(ValueError):
            task.validate()

    def test_missing_required_parameter_is_ambiguous(self):
        task = PerceptualTask(TaskKind.GENERATE_IMAGE, {})
        with pytest.raises(AmbiguousIntent):
            task.validate()

    def test_wrong_type_rejected(self):
        task = PerceptualTask(TaskKind.OCR, {"targets": "dates"})
        with pytest.raises(ValueError):
            task.validate()


class TestSimulatedBackend:
    def test_ten_frame_detection_latency(self):
        backend = SimulatedBackend({"v.mp4": {"frames": 10, "detections": []}})
        task = PerceptualTask(TaskKind.DETECT_OBJECTS, {"frame_interval_s": 1.0}, "v.mp4")
        result = execute_perceptual(task, backend, seed=1, tool_name="yolo-detect")
        assert result.latency_ms == 1800

    def test_empty_audio_fixture(self):
        backend = SimulatedBackend({})
        task = PerceptualTask(TaskKind.TRANSCRIBE, {"language": "auto"}, "missing.mp3")
        result = execute_perceptual(task, backend, seed=1)
        assert result.payload["transcript"] == []

    def test_deterministic_for_fixed_seed(self):
        backend = SimulatedBackend({"a.png": {"detections": [{"label": "cat"}]}})
        task = PerceptualTask(TaskKind.DETECT_OBJECTS, {}, "a.png")
        first = backend.invoke(task, 42, tool_name="yolo-detect")
        second = backend.invoke(task, 42, tool_name="yolo-detect")
        assert (first.payload, first.confidence) == (second.payload, second.confidence)

    def test_scripted_confidence_and_refinement(self):
        fixtures = {
            "h.png": {
                "text_blocks": ["x"],
                "tool_confidence": {"tesseract-ocr": 0.2},
                "refined_confidence": {"tesseract-ocr": 0.9},
            }
        }
        backend = SimulatedBackend(fixtures)
        plain = backend.invoke(PerceptualTask(TaskKind.OCR, {}, "h.png"), 1, "tesseract-ocr")
        refined = backend.invoke(
            PerceptualTask(TaskKind.OCR, {"targets": ["dates"]}, "h.png"), 1, "tesseract-ocr"
        )
        assert plain.confidence == 0.2
        assert refined.confidence == 0.9

    def test_scripted_failure(self):
        backend = SimulatedBackend({"a.pdf": {"tool_failure": {"pdf-parse": True}}})
        task = PerceptualTask(TaskKind.PARSE_PDF, {}, "a.pdf")
        with pytest.raises(NodeFailure):
            backend.invoke(task, 1, tool_name="pdf-parse")


class TestKeyedUniform:
    def test_pinned_value(self):
        # Fixed bytes of blake2b: the same key draws the same number in every process.
        key = (1, "q00001#r0", "yolo-detect", 0, "failure", 0)
        assert stable_seed(*key) == 0xBDA2F13750590875
        assert keyed_uniform(*key) == (0xBDA2F13750590875 >> 11) / 2**53 == 0.7407675514262771

    def test_in_unit_interval_and_spread(self):
        draws = [keyed_uniform("spread", i) for i in range(4000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        # Each tenth of [0, 1) holds about 400 draws.
        counts = [sum(1 for u in draws if k / 10 <= u < (k + 1) / 10) for k in range(10)]
        assert all(300 <= c <= 500 for c in counts)

    def test_distinct_keys_distinct_draws(self):
        assert keyed_uniform(1, "q1", "latency") != keyed_uniform(1, "q2", "latency")
        assert keyed_uniform(1, "q1", "latency") != keyed_uniform(1, "q1", "failure")


class TestContextualize:
    def test_video_timeline_pairing(self):
        detections = [
            {"label": "sneakers", "t_start": 12, "t_end": 18, "conf": 0.94},
        ]
        transcript = [
            {"word": "comfort", "t": 14.0, "conf": 0.98},
            {"word": "later", "t": 40.0, "conf": 0.9},
        ]
        timeline, summary = contextualize_timeline(detections, transcript)
        assert timeline[0]["mentions"] == ["comfort"]
        assert "At 0:12-0:18, the sneakers appears" in summary

    def test_overlap_tolerance_boundaries(self):
        detections = [{"label": "bag", "t_start": 10, "t_end": 12}]
        inside = merge_timeline(detections, [{"word": "carry", "t": 13.0}])
        outside = merge_timeline(detections, [{"word": "carry", "t": 13.5}])
        assert inside[0]["mentions"] == ["carry"]
        assert outside[0]["mentions"] == []

    def test_empty_detections_summary(self):
        assert summarize_payload(TaskKind.DETECT_OBJECTS, {"detections": []}, "") == (
            "No objects found."
        )

    def test_table_summary_matches_golden(self):
        payload = {
            "tables": [
                {"headers": ["quarter", "revenue", "growth"],
                 "rows": [["Q1", 112, "4%"], ["Q2", 124, "9%"], ["Q3", 131, "6%"]]}
            ]
        }
        rendered = summarize_payload(TaskKind.EXTRACT_TABLES, payload, "extract the tables")
        assert rendered == (GOLDEN / "table_summary.txt").read_text().strip()

    def test_pipeline_total_over_fixture_corpus(self):
        backend = SimulatedBackend({"a.pdf": {"text_blocks": ["hello"], "tables": []}})
        for query, modality in [
            ("extract the text", Modality.DOCUMENT),
            ("what objects are shown", Modality.IMAGE),
            ("transcribe", Modality.AUDIO),
        ]:
            try:
                task = parse_intent(query, modality, attachment_ref="a.pdf")
                result = execute_perceptual(task, backend, seed=1)
                assert summarize_payload(task.kind, result.payload, query)
            except (AmbiguousIntent, NodeFailure):
                pass  # typed errors are acceptable terminal states
