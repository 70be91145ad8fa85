"""End-to-end engine behavior: pipelines, clarification, accounting, persistence."""

from __future__ import annotations

import json
import os
import socket

import pytest
from hypothesis import example, given, settings, strategies as st

from supervisord.couplet import SimulatedBackend, TaskKind
from supervisord.engine import (
    ANSWER_TOKENS,
    CLARIFY_USER_DELAY_MS,
    EngineBackends,
    STATE_JOURNAL_HEADER,
    STATE_JOURNAL_REWRITE_FACTOR,
    EngineConfig,
    QueryOutcome,
    Supervisor,
    append_trace_rows,
    load_state_file,
    load_trace_rows,
    save_session_memory,
    save_state_file,
    state_path,
)
from supervisord.errors import BudgetExceeded, CorruptState, UnplannableQuery
from supervisord.memory import (
    COMPRESSION_TRIGGER_TOKENS,
    HashingEmbedder,
    MemoryStore,
    load_memory,
    memory_path,
    save_memory,
    whitespace_tokens,
)
from supervisord.routing import select_tier
from supervisord.scenarios import SCENARIO_FILES, Scenario, load_scenario, run_scenario
from supervisord.scheduler import Scheduler
from supervisord.state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
    serialize_state,
)


_PERCEPTUAL_TOOLS = ("whisper-transcribe", "audio-analyze", "yolo-detect", "vision-analyze",
                     "clip-embed", "tesseract-ocr", "pdf-parse", "table-extract")


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
            [Attachment("url", talk), Attachment("url", report)],
            fixtures,
        )
        assert [a.detected_modality for a in state.attachments] == [
            Modality.AUDIO, Modality.UNKNOWN
        ]
        assert outcome.flag is ExecutionFlag.AUDIO
        assert "hello" in outcome.segments["transcript"]
        assert not outcome.failed


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        def run():
            _, outcome = run_query("summarize this text")
            return "".join(r.to_json_line() for r in outcome.trace_rows)

        assert run() == run()

    def test_different_seed_changes_latencies(self):
        _, a = run_query("summarize this text", config=EngineConfig(seed=1))
        _, b = run_query("summarize this text", config=EngineConfig(seed=2))
        assert a.tta_ms != b.tta_ms


class TestClarification:
    def test_self_serve_from_memory_hint(self):
        memory = MemoryStore()
        memory.add_turn(
            "Context note: when I say the usual, I mean dates and totals.",
            Modality.TEXT,
            HashingEmbedder(),
        )
        _, outcome = run_query(
            "Summarize this in the usual style", memory=memory,
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
            "Context note: when I say the usual, I mean dates.", Modality.TEXT, HashingEmbedder()
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

    # "you know" alone is no underspecification marker, so only the intent
    # parse asks; "like last time" is one, so the answer comes before the parse.
    @pytest.mark.parametrize("query", ["you know", "you know, like last time"])
    def test_answered_ambiguous_intent_builds_from_query_and_answer(self, query):
        asked = []
        _, outcome = run_query(
            query, [Attachment("path", "photo.png", declared_name="photo.png")],
            clarifier=lambda q: asked.append(q) or "identify the red car",
        )
        assert len(asked) == outcome.clarifications_user == 1
        assert not outcome.failed
        assert list(outcome.segments) == ["detections"]

    def test_still_ambiguous_after_the_answer_fails_the_turn(self):
        config = EngineConfig(seed=3)
        registry = config.registry
        memory_fee = registry.get(registry.id_for_name("memory-retrieve")).cost.per_invocation
        state, outcome = run_query(
            "you know, like last time",
            [Attachment("path", "photo.png", declared_name="photo.png")],
            config=config, clarifier=lambda q: "the red car",
        )
        assert outcome.failed
        assert outcome.cost == memory_fee == state.session.cumulative_cost


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

    @pytest.mark.parametrize("name", ["video-advertisement", "financial-analysis"])
    def test_budget_cap_covers_every_node(self, name):
        # Uncapped, these scenarios cost $0.011200 and $0.013826, mostly on
        # perceptual and join nodes; the cap must stop them all the same.
        scenario = load_scenario(name)
        cap = Money.from_usd("0.001")
        state = QueryState(
            user_query=scenario.query,
            cost_knob=select_tier(scenario.knob),
            session=session(),
            attachments=[Attachment("path", n, declared_name=n) for n in scenario.attachments],
        )
        with pytest.raises(BudgetExceeded):
            Supervisor(EngineConfig(seed=7, budget_cap=cap)).process(
                state,
                memory_store=MemoryStore(),
                perceptual_backend=SimulatedBackend(scenario.fixtures),
                clarifier=lambda _q: scenario.clarify_reply,
                query_id=f"scenario-{name}",
            )
        assert Money(0) < state.session.cumulative_cost <= cap

    def test_turn_count_increments(self):
        state, _ = run_query("hello")
        assert state.session.turn_count == 1


class CountingStore(MemoryStore):
    retrieves = 0

    def retrieve_relevant(self, *args, **kwargs):
        self.retrieves += 1
        return super().retrieve_relevant(*args, **kwargs)


def memory_fee() -> Money:
    registry = EngineConfig().registry
    return registry.get(registry.id_for_name("memory-retrieve")).cost.per_invocation


class TestEmptyStore:
    """A pool of at most one record is returned unranked: step 3 embeds no
    query for it, and a stored turn is embedded at its first ranking or save."""

    QUERY = "what time is it in Tokyo"

    def test_turns_embed_only_when_a_pool_is_ranked(self, monkeypatch):
        calls, store = [], CountingStore()
        embed = HashingEmbedder.embed
        monkeypatch.setattr(HashingEmbedder, "embed",
                            lambda self, text: calls.append(text) or embed(self, text))
        counts = []
        for _ in range(4):
            run_query(self.QUERY, memory=store)
            counts.append((len(calls), store.retrieves, store.turn_count))
        # Turn 3 ranks two records: the query and both stored turns are
        # embedded; turn 4 adds the query and the third turn.
        assert counts == [(0, 0, 1), (0, 0, 2), (3, 1, 3), (5, 2, 4)]

    def test_first_turn_keeps_the_memory_row_and_fee(self):
        _, outcome = run_query(self.QUERY)
        memory_row = outcome.trace_rows[0]
        assert (memory_row.node_id, memory_row.tool) == ("memory", "memory-retrieve")
        assert memory_row.cost_usd == memory_fee().usd_str()


class TestPromptTokens:
    """A turn counts its prompt tokens once, from the counts the store keeps,
    and the count is the whitespace tokens of the query and of the context:
    the short-term window, the retrieved records and the summary."""

    QUERIES = (
        "summarize the quarterly revenue figures for the board",
        "what time is it in Tokyo",
        "rewrite   this\tparagraph\u2028so it reads better\n",
        "solve 3x + 7 = 22 step by step",
        "as discussed, send the usual report",
    )
    # Contents whose whitespace is not single spaces, and an empty one.
    ODD_CONTENTS = ("alpha\tbeta  gamma\u2028delta\n", "", "  lead and trail  ", "x\x1cy\u3000z")

    @pytest.fixture
    def checks(self, monkeypatch):
        """(prompt tokens counted, tokens of query and context text, context
        text) per model node."""
        seen, context = [], [""]
        original_run_node = EngineBackends.run_node
        original_context_tokens = MemoryStore.context_tokens

        def context_tokens(store, retrieved):
            summary = [store.compressed.text] if store.compressed else []
            context[0] = "\n".join(
                [r.content for r in (*store.short_term, *retrieved)] + summary
            )
            return original_context_tokens(store, retrieved)

        def run_node(backends, node, seed):
            result = original_run_node(backends, node, seed)
            if node.role in ("model", "synthesize"):
                expected = (whitespace_tokens(backends.state.user_query)
                            + whitespace_tokens(context[0]))
                seen.append((backends.prompt_tokens, expected, context[0]))
                assert result.tokens == expected + ANSWER_TOKENS
            return result

        monkeypatch.setattr(MemoryStore, "context_tokens", context_tokens)
        monkeypatch.setattr(EngineBackends, "run_node", run_node)
        return seen

    def turns(self, checks, store, count, config=None, start=0):
        """Runs the turns and returns the checks they added."""
        supervisor = Supervisor(config or EngineConfig(seed=3))
        first = len(checks)
        for i in range(start, start + count):
            before = len(checks)
            state = QueryState(user_query=self.QUERIES[i % len(self.QUERIES)],
                               cost_knob=CostKnob.TRAD_COUPLET, session=session())
            outcome = supervisor.process(state, memory_store=store, query_id=f"t{i}")
            assert not outcome.failed and len(checks) > before
        assert all(counted == expected for counted, expected, _ in checks)
        return checks[first:]

    def filled_store(self, records):
        store = MemoryStore()
        for i in range(records):
            store.add_turn(self.ODD_CONTENTS[i % len(self.ODD_CONTENTS)] + f" turn {i}",
                           Modality.TEXT, HashingEmbedder())
        return store

    def test_empty_store(self, checks):
        self.turns(checks, MemoryStore(), 1)
        assert checks == [(whitespace_tokens(self.QUERIES[0]),) * 2 + ("",)]

    def test_forced_compression(self, checks):
        store = self.filled_store(9)
        self.turns(checks, store, 3)
        store.maybe_compress(force=True)
        added = self.turns(checks, store, 6, start=3)
        assert all(store.compressed.text in text for *_, text in added)

    def test_triggered_compression_after_a_forced_one(self, checks):
        store = self.filled_store(4)
        store.maybe_compress(force=True)
        first_summary = store.compressed.text
        filler = " ".join(["word"] * 300)
        while store._retrievable_tokens < COMPRESSION_TRIGGER_TOKENS - 100:
            store.add_turn(filler, Modality.TEXT, HashingEmbedder())
        for i in range(40):
            self.turns(checks, store, 1, start=i)
            if store.compressed.text != first_summary:
                break
        assert store.compressed.text.startswith(first_summary + "\n")
        added = self.turns(checks, store, 3, start=40)
        assert all(store.compressed.text in text for *_, text in added)

    def test_resumed_compressed_store(self, checks, tmp_path):
        store = self.filled_store(12)
        store.maybe_compress(force=True)
        self.turns(checks, store, 2)
        path = str(tmp_path / "s.memory.json")
        save_memory(store, path)
        loaded = load_memory(path)
        added = self.turns(checks, loaded, 4, start=2)
        assert all(loaded.compressed.text in text for *_, text in added)

    def test_memory_disabled(self, checks):
        config = EngineConfig(seed=3, memory_enabled=False)
        self.turns(checks, self.filled_store(6), 2, config=config)
        assert all(text == "" for *_, text in checks)
        assert checks[0][0] == whitespace_tokens(self.QUERIES[0])


def rows_cost(outcome) -> Money:
    """Sum of `cost_usd` over the outcome's trace rows that carry one: the
    `done` rows, memory row included, and the `failed` rows."""
    rows = [r for r in outcome.trace_rows if r.cost_usd is not None]
    return sum((Money.from_usd(r.cost_usd) for r in rows), Money(0))


class RecordingScheduler(Scheduler):
    """Keeps the last graph it executed, so a test can read its results ledger."""

    graph = None

    def execute(self, graph, *args, **kwargs):
        self.graph = graph
        return super().execute(graph, *args, **kwargs)


def run_scenario_turn(scenario, config=None, failure_rates=None, meta=None):
    """Run a scenario like `run_scenario`; returns (state, outcome, executed graph)."""
    supervisor = Supervisor(config or EngineConfig(seed=7))
    scheduler = supervisor.scheduler = RecordingScheduler(
        supervisor.config.registry,
        repair_enabled=supervisor.config.repair_enabled,
        parallel_enabled=supervisor.config.parallel_enabled,
    )
    state = QueryState(
        user_query=scenario.query,
        cost_knob=select_tier(scenario.knob),
        session=meta or session(),
        attachments=[Attachment("path", n, declared_name=n) for n in scenario.attachments],
    )
    outcome = supervisor.process(
        state,
        memory_store=MemoryStore(),
        perceptual_backend=SimulatedBackend(scenario.fixtures),
        clarifier=(lambda _q: scenario.clarify_reply) if scenario.clarify_reply else None,
        query_id=f"scenario-{scenario.name}",
        failure_rates=failure_rates,
    )
    return state, outcome, scheduler.graph


class TestCostConservation:
    """One results ledger per graph and one charge per attempt, when it ends:
    the turn's cost, the session's delta and the trace rows always agree."""

    def test_clarified_answer_covers_every_node(self):
        # The clarification refines p0; synth, downstream of it, must re-run
        # too, and the answer must keep p1's result from the first round.
        scenario = load_scenario("handwritten-notes")
        scenario.attachments.append("typed_page.png")
        scenario.fixtures["typed_page.png"] = {"text_blocks": ["Agenda: budget review"]}
        state, outcome, graph = run_scenario_turn(scenario)
        assert outcome.clarifications_user == 1
        assert sorted(outcome.segments) == ["extraction_0", "extraction_1", "synthesis"]
        assert not outcome.failed
        assert set(graph.results) == set(graph.nodes)
        # p0's first attempt (tesseract-ocr, confidence 0.2) pays its $0.004000
        # like the attempts that follow it.
        assert outcome.cost == Money.from_usd("0.021348")
        assert outcome.cost == rows_cost(outcome) == state.session.cumulative_cost

    def test_failed_pipeline_charges_completed_work(self):
        scenario = load_scenario("video-advertisement")
        failing = {"yolo-detect": 1.0, "vision-analyze": 1.0, "clip-embed": 1.0}
        state, outcome, _ = run_scenario_turn(scenario, failure_rates=failing)
        assert outcome.failed
        # Memory ($0.000200) and whisper-transcribe ($0.004000) finished; frames
        # failed on yolo-detect ($0.004000) and vision-analyze ($0.006000), each
        # paying its fee, before it ran out of tools.
        assert outcome.cost == Money.from_usd("0.014200")
        failed = [(r.tool, r.cost_usd) for r in outcome.trace_rows if r.event == "failed"]
        assert failed == [("yolo-detect", "0.004000"), ("vision-analyze", "0.006000")]
        assert outcome.cost == rows_cost(outcome) == state.session.cumulative_cost

    def test_budget_cap_stops_at_the_first_node_that_crosses_it(self, monkeypatch):
        # speech finishes first, at $0.004000 against a $0.001 cap; the
        # run must stop there, before align is ever launched.
        launched = []
        run_node = EngineBackends.run_node

        def counting(self, node, seed):
            launched.append(node.node_id)
            return run_node(self, node, seed)

        monkeypatch.setattr(EngineBackends, "run_node", counting)
        cap = Money.from_usd("0.001")
        config = EngineConfig(seed=7, budget_cap=cap)
        scenario = load_scenario("video-advertisement")
        with pytest.raises(BudgetExceeded, match="0.004200 would exceed"):
            run_scenario_turn(scenario, config=config)
        assert launched == ["frames", "speech"]

    def test_bundled_scenarios_conserve_cost(self):
        for name in SCENARIO_FILES:
            state, outcome, graph = run_scenario_turn(load_scenario(name))
            assert not outcome.failed, name
            assert set(graph.results) == set(graph.nodes), name
            assert outcome.cost == rows_cost(outcome) == state.session.cumulative_cost, name

    @settings(max_examples=60, deadline=None)
    @example(query="you know, like last time", names=["photo.png"], confidences={},
             failure_rates={}, reply="the red car", cap_micros=None, seed=0)
    @given(
        query=st.sampled_from([
            "transcribe this recording",
            "what objects are in this image",
            "Analyze this document",
            "extract the tables from this report",
            "What products are shown in this video? Provide timestamps.",
            "compare these reports and chart trends, then plan a budget and summarize risks",
            "what time is it in Tokyo",
            "Summarize this in the usual style",
            "you know, like last time",
        ]),
        names=st.lists(
            st.sampled_from(["memo.mp3", "photo.png", "notes_scan.png", "report.pdf",
                             "ad.mp4", "blob.xyz"]),
            max_size=3, unique=True,
        ),
        confidences=st.dictionaries(
            st.sampled_from(_PERCEPTUAL_TOOLS), st.floats(0.0, 1.0), max_size=3
        ),
        failure_rates=st.dictionaries(
            st.sampled_from(_PERCEPTUAL_TOOLS), st.sampled_from([0.0, 0.3, 1.0]), max_size=3
        ),
        reply=st.one_of(st.none(), st.sampled_from(
            ["dates and names", "the totals", "identify the red car", "the red car"]
        )),
        cap_micros=st.one_of(st.none(), st.integers(0, 40_000)),
        seed=st.integers(0, 2**16),
    )
    def test_every_path_conserves_cost(
        self, query, names, confidences, failure_rates, reply, cap_micros, seed
    ):
        fixtures = {
            name: {
                "text_blocks": ["line one", "line two"],
                "transcript": [{"word": "hello", "t": 0.5, "conf": 0.9}],
                "detections": [{"label": "shoe", "t_start": 1, "t_end": 2, "conf": 0.9}],
                "frames": 3,
                "tool_confidence": confidences,
            }
            for name in names
        }
        scenario = Scenario("property", query, "trad_couplet", names, fixtures, reply)
        cap = None if cap_micros is None else Money(cap_micros)
        meta = session()
        try:
            _, outcome, graph = run_scenario_turn(
                scenario, EngineConfig(seed=seed, budget_cap=cap), failure_rates, meta
            )
        except (BudgetExceeded, UnplannableQuery):
            # The typed errors `run` maps to exit codes. A refused charge is
            # never added, so the cap holds on this path too.
            assert cap is None or meta.cumulative_cost <= cap
            return
        assert isinstance(outcome, QueryOutcome)
        assert outcome.cost == meta.cumulative_cost == rows_cost(outcome)
        assert cap is None or outcome.cost <= cap
        assert not outcome.failed or not outcome.answer_text
        if not outcome.failed:
            assert set(graph.results) == set(graph.nodes)
            segments = {n.segment for n in graph.nodes.values() if n.segment}
            assert segments == set(outcome.segments)


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

    @staticmethod
    def journal_state(turn, query="what does the ünïcode chart show?"):
        return QueryState(
            user_query=f"{query} ({turn})", cost_knob=CostKnob.OPEN_SRC,
            session=SessionMeta("0-" + "33" * 8, 0, Money(1_000 * turn), turn),
            flag=ExecutionFlag.VISION if turn % 2 else None,
        )

    def test_state_journal_loads_the_last_complete_snapshot_at_every_cut(self, tmp_path):
        root = str(tmp_path)
        states = [self.journal_state(turn) for turn in (1, 2, 3)]
        for state in states:
            save_state_file(root, state)
        path = state_path(root, states[0].session.session_id)
        lines = [serialize_state(state) + b"\n" for state in states]
        with open(path, "rb") as fh:
            journal = fh.read()
        assert journal == STATE_JOURNAL_HEADER + b"".join(lines)
        first_end = len(STATE_JOURNAL_HEADER) + len(lines[0])
        last_start = len(journal) - len(lines[2])
        sid = states[0].session.session_id
        for cut in range(len(journal)):
            with open(path, "wb") as fh:
                fh.write(journal[:cut])
            if cut < first_end:  # inside the header or the first snapshot line
                with pytest.raises(CorruptState):
                    load_state_file(root, sid)
                continue
            expected = lines[0] if cut < last_start else lines[1]
            assert serialize_state(load_state_file(root, sid)) + b"\n" == expected
            if cut >= last_start:
                save_state_file(root, states[2])
                assert serialize_state(load_state_file(root, sid)) + b"\n" == lines[2]

    def test_state_journal_rejects_a_bad_complete_line(self, tmp_path):
        root = str(tmp_path)
        state = self.journal_state(1)
        path = save_state_file(root, state)
        with open(path, "ab") as fh:
            fh.write(b'{"version": 1, "state": \n')
        with pytest.raises(CorruptState):
            load_state_file(root, state.session.session_id)
        with open(path, "wb") as fh:
            fh.write(serialize_state(state) + b"\n" + serialize_state(state) + b"\n")
        with pytest.raises(CorruptState, match="no state journal header"):
            load_state_file(root, state.session.session_id)
        with open(path, "wb") as fh:
            fh.write(STATE_JOURNAL_HEADER + serialize_state(state))
        with pytest.raises(CorruptState, match="no complete snapshot line"):
            load_state_file(root, state.session.session_id)

    def test_state_journal_is_rewritten_before_it_outgrows_its_bound(self, tmp_path):
        root = str(tmp_path)
        rewrites, previous = 0, 0
        for turn in range(300):
            state = self.journal_state(turn, "tell me more " * (1 + turn % 7))
            path = save_state_file(root, state)
            line = serialize_state(state) + b"\n"
            size = os.path.getsize(path)
            assert size <= (STATE_JOURNAL_REWRITE_FACTOR + 1) * len(line)
            if size != previous + len(line):
                assert size == len(STATE_JOURNAL_HEADER) + len(line)
                rewrites += 1
            previous = size
            assert serialize_state(load_state_file(root, state.session.session_id)) + b"\n" == line
        assert 2 < rewrites < 300 // 8

    @pytest.mark.parametrize("save", ["state", "memory", "trace"])
    def test_save_creates_a_missing_store_root(self, tmp_path, save):
        memory = MemoryStore()
        state, outcome = run_query("what time is it in Tokyo", memory=memory)
        sid = state.session.session_id
        write = {
            "state": lambda root: save_state_file(root, state),
            "memory": lambda root: save_session_memory(root, sid, memory),
            "trace": lambda root: append_trace_rows(root, sid, outcome.trace_rows),
        }[save]
        present, missing = tmp_path / "present", tmp_path / "missing" / "root"
        present.mkdir()
        with open(write(str(present)), "rb") as fh:
            expected = fh.read()
        with open(write(str(missing)), "rb") as fh:
            assert fh.read() == expected

    @pytest.mark.parametrize("kind", ["state", "memory", "trace"])
    def test_a_save_cut_at_any_byte_loads_the_save_before_and_the_next_save_completes(
        self, tmp_path, kind
    ):
        root, memory = str(tmp_path), MemoryStore()
        sid = session().session_id
        save, load = {
            "state": (lambda state, _: save_state_file(root, state),
                      lambda: serialize_state(load_state_file(root, sid))),
            "memory": (lambda *_: save_session_memory(root, sid, memory),
                       lambda: [(r.record_id, r.content, r.embedding.tolist())
                                for r in load_memory(memory_path(root, sid)).full_history]),
            "trace": (lambda _, outcome: append_trace_rows(root, sid, outcome.trace_rows),
                      lambda: load_trace_rows(root, sid)),
        }[kind]
        saves, views = [], []
        for query in ("what time is it in Tokyo", "and in Paris", "compare the two"):
            turn = run_query(query, memory=memory)
            path = save(*turn)
            with open(path, "rb") as fh:
                saves.append(fh.read())
            views.append(load())
        before, last, _ = saves
        assert last.startswith(before) and len(last) > len(before)  # the second save appended
        for cut in range(len(before), len(last)):
            with open(path, "wb") as fh:
                fh.write(last[:cut])
            kept = load()
            if kind == "trace":  # a row is the log's unit: the cut keeps the rows it completes
                assert kept == views[1][:len(views[0]) + last[len(before):cut].count(b"\n")]
            else:
                assert kept == views[0]
            save(*turn)
            # The state and memory journals now hold the third turn whole; the
            # trace log holds what the cut kept, then the third turn's rows.
            assert load() == (kept + views[2][len(views[1]):] if kind == "trace" else views[2])
            with open(path, "rb") as fh:
                assert fh.read().endswith(b"\n")

    def test_trace_jsonl_schema(self, tmp_path):
        state, outcome = run_query("what time is it in Tokyo")
        path = append_trace_rows(str(tmp_path), state.session.session_id, outcome.trace_rows)
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows
        expected_keys = {"ts", "node_id", "tool", "event", "latency_ms", "cost_usd", "confidence"}
        assert all(set(row) == expected_keys for row in rows)
        assert all(row["event"] in ("done", "failed", "repaired", "clarify") for row in rows)
        assert any(row["event"] == "done" and row["tool"].endswith("-invoke") for row in rows)
