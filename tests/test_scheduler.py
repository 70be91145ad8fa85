"""Scheduler: graph shapes, critical-path execution, repair, verification."""

from __future__ import annotations

import random

import pytest

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
    verify_output,
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
    """Fixed per-node latencies; scripted failures by (node_id, attempt)."""

    def __init__(self, latencies=None, failures=(), confidences=None):
        self.latencies = latencies or {}
        self.failures = set(failures)
        self.confidences = confidences or {}

    def run_node(self, node, seed):
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
        assert ("frames", "align") in graph.edges and ("speech", "align") in graph.edges
        assert ("frames", "speech") not in graph.edges  # independent branches

    def test_routellm_two_node_chain(self):
        state = make_state("hello world")
        decision = route_strong_weak("hello world")
        graph = build_graph(
            ExecutionFlag.ROUTELLM, state, default_registry(), routing_decision=decision
        )
        assert list(graph.nodes) == ["route", "invoke"]
        assert graph.edges == [("route", "invoke")]

    def test_complex_three_documents_fan_out(self):
        state = make_state(
            "compare these three reports and chart trends",
            [attach(f"r{i}.pdf", Modality.DOCUMENT) for i in range(3)],
        )
        graph = build_graph(ExecutionFlag.COMPLEX, state, default_registry())
        branches = [n for n in graph.nodes if n.startswith("branch")]
        assert len(branches) == 3
        for branch in branches:
            assert ("decompose", branch) in graph.edges
            assert (branch, "synth") in graph.edges
        cross = [(p, c) for p, c in graph.edges if p.startswith("branch") and c.startswith("branch")]
        assert cross == []

    def test_moe_parallel_expertsding(self):
        state = make_state("gather expert perspectives")
        graph = build_graph(ExecutionFlag.MOE, state, default_registry())
        experts = [n for n in graph.nodes if n.startswith("expert")]
        assert len(experts) == 3
        assert all((e, "aggregate") in graph.edges for e in experts)

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
        graph.add_edge("b", "a")
        with pytest.raises(ValueError):
            graph.topological_order()


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
            assert outcome.total_latency_ms == longest_path_ms(graph.edges, latencies)

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


def graph_of(registry, nodes, edges):
    requirement = Requirement(output_tags=frozenset({"ok"}))
    tool = registry.match_tools(requirement)[0]
    graph = ExecutionGraph()
    for node_id in nodes:
        graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
    for producer, consumer in edges:
        graph.add_edge(producer, consumer)
    return graph


class TestPinnedEventOrder:
    """Exact (ts, node, event) sequences: launch order, tie-breaks, repairs."""

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
        assert [(r.ts, r.node_id, r.event) for r in outcome.trace] == [
            (0, "src", "start"), (100, "src", "done"),
            (100, "a", "start"), (400, "a", "done"),
            (400, "b", "start"), (500, "b", "failed"), (500, "b", "repaired"),
            (500, "b", "start"), (700, "b", "done"),
            (700, "c", "start"), (750, "c", "done"),
            (750, "join", "start"), (760, "join", "done"),
        ]

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
        assert [(r.ts, r.node_id, r.event) for r in outcome.trace] == [
            (0, "src", "start"), (100, "src", "done"),
            (100, "a", "start"), (100, "b", "start"),
            (200, "a", "failed"), (200, "a", "repaired"), (200, "a", "start"),
            (200, "b", "done"),
            (400, "a", "done"),
            (400, "join", "start"), (450, "join", "done"),
        ]


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
        assert graph.nodes["a"].status == "done"

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
        left = next(r for r in outcome.results if r.node_id == "left")
        assert left.latency_ms == 50  # untouched by the right-node repair

    def test_repair_budget_exhaustion(self):
        registry = simple_registry(n_alternatives=5)
        graph = chain_graph(registry, {"a": None})
        backends = StubBackends(failures={("a", 0), ("a", 1), ("a", 2)})
        scheduler = Scheduler(registry)
        with pytest.raises(PipelineFailed):
            scheduler.execute(graph, VirtualClock(), backends, seed=1)
        assert len(graph.repair_log) == 2

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
            node_id="n0", output={}, confidence=confidence, latency_ms=10,
            cost=Money(0), tool_name="tesseract-ocr", critical=critical,
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
            latency_ms=10, cost=Money(0), tool_name="tesseract-ocr", critical=True,
        )
        question = check_clarification([result], repair_attempted=True)
        assert question == (
            "I notice this is handwritten. What specific information are you looking for?"
        )

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            check_clarification([], threshold=1.5)


class TestVerifyOutput:
    def trace(self):
        return [TraceRow(ts=0, session_id="s", node_id="p0", tool="t", event="done")]

    def test_missing_segment_fails(self):
        verdict = verify_output({"detections": "cat"}, self.trace(), ["detections", "timeline"])
        assert verdict.status == "fail"
        assert any("timeline" in r for r in verdict.reasons)

    def test_complete_single_segment_passes(self):
        verdict = verify_output({"answer": "42"}, self.trace(), ["answer"])
        assert verdict.passed

    def test_citation_of_unknown_node_fails(self):
        verdict = verify_output(
            {"answer": "42"}, self.trace(), ["answer"], cited_nodes={"answer": ["ghost"]}
        )
        assert verdict.status == "fail"
