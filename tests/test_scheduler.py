"""Scheduler: graph shapes, critical-path execution, repair, clarification."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supervisord.clock import VirtualClock
from supervisord.couplet import BackendResult
from supervisord.errors import PipelineFailed, UnplannableQuery
from supervisord.routing import route_strong_weak
from supervisord.scheduler import (
    ExecutionGraph,
    GraphNode,
    NodeResult,
    Scheduler,
    TraceRow,
    build_graph,
    check_clarification,
)
from supervisord.state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
)
from supervisord.tools import LatencyPrior, Requirement, ToolRegistry, ToolSpec, ToolCategory
from supervisord.tools import default_registry


def make_state(query="test", attachments=(), knob=CostKnob.TRAD_COUPLET):
    return QueryState(
        user_query=query,
        cost_knob=knob,
        session=SessionMeta("0-" + "11" * 8, 0),
        attachments=list(attachments),
    )


def attach(name, modality):
    return Attachment("path", name, declared_name=name, detected_modality=modality)


class StubBackends:
    """Fixed per-node latencies; scripted failures by (node_id, attempt). Keeps
    the node ids in launch order."""

    def __init__(self, latencies=None, failures=(), confidences=None):
        self.latencies = latencies or {}
        self.failures = set(failures)
        self.confidences = confidences or {}
        self.launched = []

    def run_node(self, node, seed):
        self.launched.append(node.node_id)
        attempt = len(node.failed_tools)
        if (node.node_id, attempt) in self.failures:
            from supervisord.errors import NodeFailure

            raise NodeFailure(f"scripted failure {node.node_id}@{attempt}")
        return BackendResult(
            payload={"ok": True},
            confidence=self.confidences.get(node.node_id, 0.95),
            latency_ms=self.latencies.get(node.node_id),
            tokens=10,
        )

    def node_cost(self, node, invocation):
        return Money(1000)


def simple_registry(n_alternatives=3):
    registry = ToolRegistry()
    for i in range(n_alternatives):
        registry.register_tool(
            ToolSpec(
                name=f"stub-{i}",
                category=ToolCategory.ORCHESTRATION,
                input_modalities=frozenset(),
                output_tags=frozenset({"ok"}),
                latency_prior=LatencyPrior(100 + i, 100 + i),
            )
        )
    return registry


def edges_of(graph: ExecutionGraph) -> list[tuple[str, str]]:
    """(producer, consumer) pairs, read from each node's parents."""
    return [(p, c) for c in graph.nodes for p in graph.parents(c)]


def longest_path_ms(edges: list[tuple[str, str]], latencies: dict[str, int]) -> int:
    """Reference oracle: longest dependency chain over per-node latencies (DAG)."""
    children: dict[str, list[str]] = {}
    indegree: dict[str, int] = {n: 0 for n in latencies}
    for p, c in edges:
        children.setdefault(p, []).append(c)
        indegree[c] += 1
    finish: dict[str, int] = {}
    order = [n for n in latencies if indegree[n] == 0]
    queue = list(order)
    while queue:
        node = queue.pop(0)
        start = max((finish[p] for p, c in edges if c == node), default=0)
        finish[node] = start + latencies[node]
        for child in children.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    return max(finish.values(), default=0)


def chain_graph(registry, latencies):
    graph = ExecutionGraph()
    requirement = Requirement(output_tags=frozenset({"ok"}))
    tool = registry.match_tools(requirement)[0]
    prev = None
    for node_id in latencies:
        graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
        if prev:
            graph.add_edge(prev, node_id)
        prev = node_id
    return graph


class TestBuildGraphShapes:
    def test_video_two_branches_plus_join(self):
        state = make_state(
            "what products are shown", [attach("v.mp4", Modality.VIDEO)]
        )
        graph = build_graph(ExecutionFlag.VIDEO, state, default_registry())
        assert set(graph.nodes) == {"frames", "speech", "align"}
        assert edges_of(graph) == [("frames", "align"), ("speech", "align")]

    def test_routellm_two_node_chain(self):
        state = make_state("hello world")
        decision = route_strong_weak("hello world")
        graph = build_graph(
            ExecutionFlag.ROUTELLM, state, default_registry(), routing_decision=decision
        )
        assert list(graph.nodes) == ["route", "invoke"]
        assert edges_of(graph) == [("route", "invoke")]

    def test_complex_three_documents_fan_out(self):
        state = make_state(
            "compare these three reports and chart trends",
            [attach(f"r{i}.pdf", Modality.DOCUMENT) for i in range(3)],
        )
        graph = build_graph(ExecutionFlag.COMPLEX, state, default_registry())
        branches = [n for n in graph.nodes if n.startswith("branch")]
        assert len(branches) == 3
        edges = edges_of(graph)
        for branch in branches:
            assert ("decompose", branch) in edges
            assert (branch, "synth") in edges
        cross = [(p, c) for p, c in edges if p.startswith("branch") and c.startswith("branch")]
        assert cross == []

    def test_moe_parallel_expertsding(self):
        state = make_state("gather expert perspectives")
        graph = build_graph(ExecutionFlag.MOE, state, default_registry())
        experts = [n for n in graph.nodes if n.startswith("expert")]
        assert len(experts) == 3
        assert all(e in graph.parents("aggregate") for e in experts)

    def test_audio_single_branch(self):
        state = make_state("transcribe this recording", [attach("a.mp3", Modality.AUDIO)])
        graph = build_graph(ExecutionFlag.AUDIO, state, default_registry())
        assert list(graph.nodes) == ["p0"]

    def test_unplannable_without_attachment(self):
        with pytest.raises(UnplannableQuery):
            build_graph(ExecutionFlag.VIDEO, make_state("x"), default_registry())

    def test_cycle_rejected(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": 1, "b": 1})
        with pytest.raises(ValueError, match="cycle"):
            graph.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            graph.add_edge("a", "a")
        assert edges_of(graph) == [("a", "b")]

    def test_execute_rejects_a_cycle_before_any_node_runs(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"src": 1, "a": 1, "b": 1})
        with pytest.raises(ValueError, match="cycle"):
            graph.add_edge("b", "a")
        assert not graph.results
        # The rejected edge left the chain as it was, so it runs in order.
        Scheduler(registry).execute(graph, VirtualClock(), StubBackends(), seed=1)
        assert list(graph.results) == ["src", "a", "b"]


class TestExecuteCriticalPath:
    def test_three_parallel_nodes_max(self):
        registry = simple_registry()
        graph = ExecutionGraph()
        requirement = Requirement(output_tags=frozenset({"ok"}))
        tool = registry.match_tools(requirement)[0]
        for node_id in ("a", "b", "c"):
            graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
        backends = StubBackends({"a": 300, "b": 500, "c": 200})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert outcome.total_latency_ms == 500

    def test_chain_sums(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": None, "b": None})
        backends = StubBackends({"a": 300, "b": 500})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert outcome.total_latency_ms == 800

    def test_diamond(self):
        registry = simple_registry()
        requirement = Requirement(output_tags=frozenset({"ok"}))
        tool = registry.match_tools(requirement)[0]
        graph = ExecutionGraph()
        for node_id in ("src", "a", "b", "join"):
            graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
        graph.add_edge("src", "a")
        graph.add_edge("src", "b")
        graph.add_edge("a", "join")
        graph.add_edge("b", "join")
        backends = StubBackends({"src": 100, "a": 400, "b": 250, "join": 50})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert outcome.total_latency_ms == 550

    def test_matches_longest_path_oracle_random_dags(self):
        rng = random.Random(7)
        registry = simple_registry()
        requirement = Requirement(output_tags=frozenset({"ok"}))
        tool = registry.match_tools(requirement)[0]
        for _ in range(30):
            n = rng.randint(2, 15)
            graph = ExecutionGraph()
            latencies = {}
            for i in range(n):
                node_id = f"n{i}"
                graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
                latencies[node_id] = rng.randint(1, 1000)
                for j in range(i):
                    if rng.random() < 0.25:
                        graph.add_edge(f"n{j}", node_id)
            backends = StubBackends(latencies)
            outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
            assert outcome.total_latency_ms == longest_path_ms(edges_of(graph), latencies)

    def test_deterministic_trace(self):
        registry = simple_registry()

        def run():
            graph = chain_graph(registry, {"a": None, "b": None, "c": None})
            outcome = Scheduler(registry).execute(
                graph, VirtualClock(), StubBackends(), seed=42
            )
            return [(r.ts, r.node_id, r.event, r.latency_ms) for r in outcome.trace]

        assert run() == run()

    def test_sequential_when_parallel_disabled(self):
        registry = simple_registry()
        requirement = Requirement(output_tags=frozenset({"ok"}))
        tool = registry.match_tools(requirement)[0]
        graph = ExecutionGraph()
        for node_id in ("a", "b"):
            graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
        backends = StubBackends({"a": 300, "b": 500})
        scheduler = Scheduler(registry, parallel_enabled=False)
        outcome = scheduler.execute(graph, VirtualClock(), backends, seed=1)
        assert outcome.total_latency_ms == 800

    @pytest.mark.parametrize("parallel", [True, False])
    def test_critical_path_is_longest_dependency_chain(self, parallel):
        # Serially, b waits for a's slot and finishes last, yet the longest
        # dependency chain into join still runs through a.
        registry = simple_registry()
        graph = graph_of(registry, ["a", "b", "join"], [("a", "join"), ("b", "join")])
        backends = StubBackends({"a": 300, "b": 100, "join": 10})
        scheduler = Scheduler(registry, parallel_enabled=parallel)
        outcome = scheduler.execute(graph, VirtualClock(), backends, seed=1)
        assert outcome.total_latency_ms == (310 if parallel else 410)
        assert {n for n, r in graph.results.items() if r.critical} == {"a", "join"}


def graph_of(registry, nodes, edges):
    requirement = Requirement(output_tags=frozenset({"ok"}))
    tool = registry.match_tools(requirement)[0]
    graph = ExecutionGraph()
    for node_id in nodes:
        graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
    for producer, consumer in edges:
        graph.add_edge(producer, consumer)
    return graph


def spans(trace):
    """(start, ts, node, event) per row; an attempt's row starts at `ts - latency_ms`."""
    return [(None if r.latency_ms is None else r.ts - r.latency_ms, r.ts, r.node_id, r.event)
            for r in trace]


class TestPinnedEventOrder:
    """Exact (start, ts, node, event) sequences and launch order: tie-breaks, repairs."""

    def test_single_slot_fan_out_with_repair(self):
        # a, b, c become ready together; b fails once and is relaunched ahead
        # of the still-waiting c because it was inserted first.
        registry = simple_registry()
        graph = graph_of(
            registry,
            ["src", "a", "b", "c", "join"],
            [("src", "a"), ("src", "b"), ("src", "c"),
             ("a", "join"), ("b", "join"), ("c", "join")],
        )
        backends = StubBackends(
            {"src": 100, "a": 300, "b": 200, "c": 50, "join": 10}, failures={("b", 0)}
        )
        outcome = Scheduler(registry, parallel_enabled=False).execute(
            graph, VirtualClock(), backends, seed=1
        )
        assert spans(outcome.trace) == [
            (0, 100, "src", "done"),
            (100, 400, "a", "done"),
            (400, 500, "b", "failed"), (None, 500, "b", "repaired"),
            (500, 700, "b", "done"),
            (700, 750, "c", "done"),
            (750, 760, "join", "done"),
        ]
        assert backends.launched == ["src", "a", "b", "b", "c", "join"]

    def test_unbounded_diamond_with_repair(self):
        # a's failure and b's completion tie at 200; a is popped first.
        registry = simple_registry()
        graph = graph_of(
            registry,
            ["src", "a", "b", "join"],
            [("src", "a"), ("src", "b"), ("a", "join"), ("b", "join")],
        )
        backends = StubBackends(
            {"src": 100, "a": 200, "b": 100, "join": 50}, failures={("a", 0)}
        )
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert spans(outcome.trace) == [
            (0, 100, "src", "done"),
            (100, 200, "a", "failed"), (None, 200, "a", "repaired"),
            (100, 200, "b", "done"),
            (200, 400, "a", "done"),
            (400, 450, "join", "done"),
        ]
        assert backends.launched == ["src", "a", "b", "a", "join"]


class TestRepair:
    def test_failed_node_replaced_and_done_preserved(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": None, "b": None})
        backends = StubBackends({"a": 100, "b": 100}, failures={("b", 0)})
        scheduler = Scheduler(registry)
        outcome = scheduler.execute(graph, VirtualClock(), backends, seed=1)
        assert graph.repair_log[0].failed_node == "b"
        assert graph.repair_log[0].preserved_nodes == 1
        events = [(r.node_id, r.event) for r in outcome.trace]
        assert ("b", "failed") in events and ("b", "repaired") in events
        assert "a" in graph.results

    def test_preserved_count_after_four_of_five(self):
        registry = simple_registry()
        graph = chain_graph(registry, {f"n{i}": None for i in range(5)})
        backends = StubBackends(failures={("n4", 0)})
        Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert graph.repair_log[0].preserved_nodes == 4

    def test_done_results_identical_after_repair(self):
        registry = simple_registry()
        requirement = Requirement(output_tags=frozenset({"ok"}))
        tool = registry.match_tools(requirement)[0]
        graph = ExecutionGraph()
        for node_id in ("left", "right"):
            graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
        backends = StubBackends({"left": 50, "right": 400}, failures={("right", 0)})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        # untouched by the right-node repair: one attempt, launched at 0
        left = [(r.ts - r.latency_ms, r.ts, r.event, r.latency_ms)
                for r in outcome.trace if r.node_id == "left"]
        assert left == [(0, 50, "done", 50)]
        assert backends.launched.count("left") == 1
        assert graph.results["left"].confidence == 0.95

    def test_each_row_carries_its_attempts_own_latency(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": None, "b": None})
        # a's first attempt raises, so its latency is the prior's 100 ms.
        backends = StubBackends({"a": 200, "b": 50}, failures={("a", 0)})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        rows = [(r.ts - r.latency_ms, r.ts, r.node_id, r.event, r.latency_ms)
                for r in outcome.trace if r.event != "repaired"]
        assert rows == [
            (0, 100, "a", "failed", 100),
            (100, 300, "a", "done", 200),
            (300, 350, "b", "done", 50),
        ]
        # The critical path still counts both of a's attempts.
        assert outcome.total_latency_ms == 350
        assert graph.results["a"].critical and graph.results["b"].critical

    def test_every_attempt_is_charged_once_when_it_ends(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": None, "b": None})
        charged = []

        class Charging(StubBackends):
            def node_cost(self, node, invocation):
                charged.append((node.node_id, invocation is None))
                return Money(1000 + 500 * (invocation is None))

        backends = Charging(failures={("a", 0)}, confidences={"b": 0.1})
        with pytest.raises(PipelineFailed) as exc:
            Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        # a raised (fee), was repaired and done; b returned a low-confidence
        # result (its price) on both attempts before its repairs ran out.
        assert charged == [("a", True), ("a", False), ("b", False), ("b", False), ("b", False)]
        ended = [(r.node_id, r.event, r.cost_usd) for r in exc.value.trace
                 if r.event in ("done", "failed")]
        assert ended == [
            ("a", "failed", "0.001500"), ("a", "done", "0.001000"),
            ("b", "failed", "0.001000"), ("b", "failed", "0.001000"), ("b", "failed", "0.001000"),
        ]
        assert all(r.cost_usd is None for r in exc.value.trace if r.event not in ("done", "failed"))

    def test_repair_budget_exhaustion(self):
        registry = simple_registry(n_alternatives=5)
        graph = chain_graph(registry, {"a": None})
        backends = StubBackends(failures={("a", 0), ("a", 1), ("a", 2)})
        scheduler = Scheduler(registry)
        with pytest.raises(PipelineFailed):
            scheduler.execute(graph, VirtualClock(), backends, seed=1)
        assert len(graph.repair_log) == 2

    def test_repair_budget_carries_across_a_reset(self):
        registry = simple_registry(n_alternatives=5)
        graph = chain_graph(registry, {"a": None})
        backends = StubBackends(failures={("a", 0), ("a", 1)})
        scheduler = Scheduler(registry)
        scheduler.execute(graph, VirtualClock(), backends, seed=1)
        assert "a" in graph.results and len(graph.repair_log) == 2
        graph.reset("a")  # as a clarification round does
        backends.failures.add(("a", 2))
        with pytest.raises(PipelineFailed):
            scheduler.execute(graph, VirtualClock(), backends, seed=2)
        assert len(graph.repair_log) == 2 and "a" not in graph.results

    def test_no_alternative_tool_fails_pipeline(self):
        registry = simple_registry(n_alternatives=1)
        graph = chain_graph(registry, {"a": None})
        backends = StubBackends(failures={("a", 0)})
        with pytest.raises(PipelineFailed) as exc:
            Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert exc.value.trace  # partial trace carried out

    def test_low_confidence_counts_as_failure(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": None})
        backends = StubBackends(confidences={"a": 0.1})
        scheduler = Scheduler(registry, repair_enabled=False)
        with pytest.raises(PipelineFailed):
            scheduler.execute(graph, VirtualClock(), backends, seed=1)


class TestClarification:
    def result(self, confidence, critical=True):
        return NodeResult(
            node_id="n0", output={}, confidence=confidence, tool_name="tesseract-ocr",
            critical=critical,
        )

    def test_low_confidence_after_repair_asks(self):
        question = check_clarification([self.result(0.2)], repair_attempted=True)
        assert question is not None and "What specific information" in question

    def test_high_confidence_silent(self):
        assert check_clarification([self.result(0.9)], repair_attempted=True) is None

    def test_no_repair_no_question(self):
        assert check_clarification([self.result(0.2)], repair_attempted=False) is None

    def test_hint_shapes_question(self):
        result = NodeResult(
            node_id="n0", output={"clarify_hint": "handwritten"}, confidence=0.2,
            tool_name="tesseract-ocr", critical=True,
        )
        question = check_clarification([result], repair_attempted=True)
        assert question == (
            "I notice this is handwritten. What specific information are you looking for?"
        )


def row_dict(row: TraceRow) -> dict:
    """The trace log's object for a row, as the log was written before rows
    were encoded field by field."""
    return {
        "ts": row.ts,
        "node_id": row.node_id,
        "tool": row.tool,
        "event": row.event,
        "latency_ms": row.latency_ms,
        "cost_usd": row.cost_usd,
        "confidence": row.confidence,
    }


_STRINGS = st.one_of(
    st.sampled_from(['"', "\\", 'a "quoted" \\path\\', "\x00\x1f\x7f\t\n\r\b\f",
                     "\u2028\u2029", "caf\u00e9 \u4e2d", "\U0001f600", "\ud800", ""]),
    st.text(st.characters(codec=None, categories=None)),  # surrogates included
)
_INTS = st.one_of(st.sampled_from([0, -1, -(2**63), 2**64, 10**30]), st.integers())
_FLOATS = st.one_of(
    st.sampled_from([0.1, 1e-7, 1e16, -0.0, 1.0, 0.95, float("nan"), float("inf"), -float("inf")]),
    st.floats(),
)
_VALUES = st.one_of(
    _STRINGS, _INTS, _FLOATS, st.none(), st.booleans(), st.floats().map(np.float64),
)
_FIELDS = ("ts", "node_id", "tool", "event", "latency_ms", "cost_usd", "confidence")


class TestTraceLine:
    """`TraceRow.to_json_line` writes the bytes `json.dumps` writes."""

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({name: _VALUES for name in _FIELDS}))
    @example(dict(ts=1, node_id="n0", tool="yolo-detect", event="done",
                  latency_ms=None, cost_usd=None, confidence=None))
    @example(dict(ts=0, node_id="\u2028", tool="\U0001f600", event='"\\',
                  latency_ms=-5, cost_usd="0.000150", confidence=1))
    @example(dict(ts=0, node_id="", tool="t", event="done",
                  latency_ms=None, cost_usd=None, confidence=None))
    @example(dict(ts=True, node_id="n", tool="t", event="done",
                  latency_ms=2**70, cost_usd=None, confidence=np.float64(0.1)))
    def test_line_matches_json_dumps(self, fields):
        row = TraceRow(**fields)
        assert row.to_json_line() == json.dumps(row_dict(row), sort_keys=True) + "\n"

    def test_scheduler_rows_match_json_dumps(self):
        registry = simple_registry()
        graph = chain_graph(registry, {"a": None, "b": None})
        backends = StubBackends({"a": 100}, failures={("b", 0)}, confidences={"a": 0.8125})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        assert {row.event for row in outcome.trace} == {"done", "failed", "repaired"}
        for row in outcome.trace:
            assert row.to_json_line() == json.dumps(row_dict(row), sort_keys=True) + "\n"
