"""End-to-end engine behavior: pipelines, clarification, accounting, persistence."""

from __future__ import annotations

import json
import socket

import pytest

from supervisord.clock import VirtualClock
from supervisord.couplet import SimulatedBackend, TaskKind
from supervisord.engine import (
    CLARIFY_USER_DELAY_MS,
    EngineConfig,
    QueryOutcome,
    Supervisor,
    append_trace_rows,
    load_state_file,
    save_state_file,
)
from supervisord.errors import BudgetExceeded
from supervisord.memory import MemoryStore
from supervisord.scenarios import load_scenario, run_scenario
from supervisord.state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
)


def session(sid="0-" + "22" * 8):
    return SessionMeta(session_id=sid, created_at_ms=0)


def run_query(query, attachments=(), fixtures=None, config=None, clarifier=None,
              memory=None, knob=CostKnob.TRAD_COUPLET, failure_rates=None):
    supervisor = Supervisor(config or EngineConfig(seed=3))
    state = QueryState(
        user_query=query, cost_knob=knob, session=session(), attachments=list(attachments)
    )
    outcome = supervisor.process(
        state,
        memory_store=memory or MemoryStore(),
        perceptual_backend=SimulatedBackend(fixtures or {}),
        clarifier=clarifier,
        clock=VirtualClock(),
        query_id="t0",
        failure_rates=failure_rates,
    )
    return state, outcome


class TestFlagPipelines:
    def test_text_query_routes_weak(self):
        state, outcome = run_query("what time is it in Tokyo")
        assert outcome.flag is ExecutionFlag.ROUTELLM
        assert outcome.routing.route == "weak"
        assert state.subflag is Subflag.GENERAL
        assert outcome.segments["answer"]

    def test_hard_text_routes_strong(self):
        _, outcome = run_query(
            "Analyze the trade-off between eventual and strong consistency, prove your "
            "reasoning step by step, evaluate the implications for replication, and "
            "compare recovery strategies",
            knob=CostKnob.CLOSED_SRC,
        )
        assert outcome.routing.route == "strong"
        assert outcome.routing.chosen_model == "gpt-4o"

    def test_audio_pipeline_produces_transcript(self):
        fixtures = {"a.mp3": {"transcript": [{"word": "hello", "t": 0.0, "conf": 0.9}]}}
        _, outcome = run_query(
            "transcribe this recording",
            [Attachment("path", "a.mp3", declared_name="a.mp3")],
            fixtures,
        )
        assert outcome.flag is ExecutionFlag.AUDIO
        assert "hello" in outcome.segments["transcript"]
        assert "transcript" in outcome.evidence_keys

    def test_vision_flag_without_image_runs_moe(self):
        _, outcome = run_query("identify the objects shown please")
        assert outcome.flag is ExecutionFlag.MOE
        assert outcome.segments["answer"]

    def test_video_pipeline_timeline(self):
        fixtures = {
            "ad.mp4": {
                "frames": 5,
                "detections": [
                    {"label": "bottle", "box": [0, 0, 5, 5], "t_start": 3, "t_end": 7, "conf": 0.9}
                ],
                "transcript": [{"word": "refreshing", "t": 4.0, "conf": 0.95}],
            }
        }
        _, outcome = run_query(
            "what products are shown in this advertisement video",
            [Attachment("path", "ad.mp4", declared_name="ad.mp4")],
            fixtures,
        )
        assert outcome.flag is ExecutionFlag.VIDEO
        assert "refreshing" in outcome.segments["timeline"]
        assert {"detections", "transcript", "timeline"} <= outcome.evidence_keys

    def test_url_attachments_need_no_network(self, monkeypatch):
        def no_network(*args, **kwargs):
            raise OSError("network access during a query")

        monkeypatch.setattr(socket, "socket", no_network)
        talk, report = "https://cdn.example/talk.mp3", "https://cdn.example/report"
        fixtures = {talk: {"transcript": [{"word": "hello", "t": 0.0, "conf": 0.9}]}}
        state, outcome = run_query(
            "transcribe this recording",
            [Attachment("url", talk), Attachment("url", report, mime="application/pdf")],
            fixtures,
        )
        assert [a.detected_modality for a in state.attachments] == [
            Modality.AUDIO, Modality.DOCUMENT
        ]
        assert outcome.flag is ExecutionFlag.AUDIO
        assert "hello" in outcome.segments["transcript"]
        assert not outcome.failed


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        def run():
            _, outcome = run_query("summarize this text")
            return json.dumps([r.to_json_dict() for r in outcome.trace_rows], sort_keys=True)

        assert run() == run()

    def test_different_seed_changes_latencies(self):
        _, a = run_query("summarize this text", config=EngineConfig(seed=1))
        _, b = run_query("summarize this text", config=EngineConfig(seed=2))
        assert a.tta_ms != b.tta_ms


class TestClarification:
    def test_self_serve_from_memory_hint(self):
        memory = MemoryStore()
        config = EngineConfig(seed=3)
        memory.add_turn(
            "Context note: when I say the usual, I mean dates and totals.",
            Modality.TEXT,
            config.embedder,
        )
        _, outcome = run_query(
            "Summarize this in the usual style", memory=memory, config=config,
            clarifier=lambda q: pytest.fail("should not ask the user"),
        )
        assert outcome.clarifications_user == 0

    def test_no_hint_asks_user(self):
        asked = []
        _, outcome = run_query(
            "Summarize this in the usual style",
            clarifier=lambda q: asked.append(q) or "a formal tone",
        )
        assert asked and outcome.clarifications_user == 1
        assert outcome.tta_ms >= CLARIFY_USER_DELAY_MS

    def test_non_interactive_unanswered(self):
        state, outcome = run_query("Summarize this in the usual style", clarifier=None)
        assert outcome.best_effort
        assert state.clarify_question is not None
        assert state.clarify_response is None

    def test_memory_disabled_cannot_self_serve(self):
        config = EngineConfig(seed=3, memory_enabled=False)
        memory = MemoryStore()
        memory.add_turn(
            "Context note: when I say the usual, I mean dates.", Modality.TEXT, config.embedder
        )
        asked = []
        _, outcome = run_query(
            "Summarize this in the usual style", memory=memory, config=config,
            clarifier=lambda q: asked.append(q) or "dates",
        )
        assert asked

    def test_refining_non_ocr_node_keeps_its_schema(self, monkeypatch):
        # Detection fails over to vision-analyze at low confidence, so the
        # clarified rounds refine a detect_objects node, whose schema has no
        # `targets` or `refined` parameter.
        scenario = load_scenario("video-advertisement")
        fixture = scenario.fixtures["sneaker_ad.mp4"]
        fixture["tool_failure"] = {"yolo-detect": True}
        fixture["tool_confidence"] = {"vision-analyze": 0.45}
        scenario.clarify_reply = "the sneakers and the bag please"
        invoked = []
        original = SimulatedBackend.invoke

        def spy(self, task, seed, tool_name=""):
            invoked.append((task.kind, dict(task.parameters)))
            return original(self, task, seed, tool_name=tool_name)

        monkeypatch.setattr(SimulatedBackend, "invoke", spy)
        outcome = run_scenario(scenario)
        assert isinstance(outcome, QueryOutcome)
        assert outcome.best_effort
        assert outcome.clarifications_user == 3
        frames = [params for kind, params in invoked if kind is TaskKind.DETECT_OBJECTS]
        assert len(frames) > 1
        assert all("targets" not in params for params in frames)


class TestRepairAndEscalation:
    def test_injected_failure_repairs_locally(self):
        fixtures = {"a.mp3": {"transcript": [{"word": "x", "t": 0.0, "conf": 0.9}]}}
        _, outcome = run_query(
            "transcribe this recording",
            [Attachment("path", "a.mp3", declared_name="a.mp3")],
            fixtures,
            failure_rates={"whisper-transcribe": 1.0},
        )
        assert outcome.repair_count == 1
        assert not outcome.failed
        events = [(r.node_id, r.event) for r in outcome.trace_rows]
        assert ("p0", "failed") in events and ("p0", "repaired") in events

    def test_repair_disabled_fails_pipeline(self):
        fixtures = {"a.mp3": {"transcript": []}}
        _, outcome = run_query(
            "transcribe this recording",
            [Attachment("path", "a.mp3", declared_name="a.mp3")],
            fixtures,
            config=EngineConfig(seed=3, repair_enabled=False),
            failure_rates={"whisper-transcribe": 1.0},
        )
        assert outcome.failed


class TestAccounting:
    def test_session_cost_matches_outcome(self):
        state, outcome = run_query("what time is it in Tokyo")
        assert state.session.cumulative_cost == outcome.cost

    def test_budget_cap_raises(self):
        config = EngineConfig(seed=3, budget_cap=Money.from_usd("0.000001"))
        with pytest.raises(BudgetExceeded):
            run_query("what time is it in Tokyo", config=config)

    def test_turn_count_increments(self):
        state, _ = run_query("hello")
        assert state.session.turn_count == 1


class TestPersistence:
    def test_state_file_round_trip(self, tmp_path):
        state, _ = run_query("transcribe this recording",
                             [Attachment("path", "a.mp3", declared_name="a.mp3")],
                             {"a.mp3": {"transcript": []}})
        root = str(tmp_path)
        save_state_file(root, state)
        loaded = load_state_file(root, state.session.session_id)
        assert loaded.user_query == state.user_query
        assert loaded.session.cumulative_cost == state.session.cumulative_cost

    def test_trace_jsonl_schema(self, tmp_path):
        state, outcome = run_query("what time is it in Tokyo")
        path = append_trace_rows(str(tmp_path), state.session.session_id, outcome.trace_rows)
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows
        expected_keys = {"ts", "session_id", "node_id", "tool", "event",
                         "latency_ms", "cost_usd", "confidence"}
        assert all(set(row) == expected_keys for row in rows)
        assert all(row["event"] in ("start", "done", "failed", "repaired", "clarify")
                   for row in rows)
        assert any(row["event"] == "done" and row["tool"].endswith("-invoke") for row in rows)
