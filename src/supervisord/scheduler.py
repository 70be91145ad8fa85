"""Execution graphs: flag-shaped DAG construction, virtual-clock execution,
local repair, clarification checks, and structural output verification.

Execution is one event loop under a virtual clock. Independent branches run
concurrently, so total latency equals the longest dependency chain of node
latencies rather than their sum. A node's latency is the one its backend
reports, or a draw from its tool's latency prior when the backend reports
none. A failing node is repaired in place: its tool is swapped for the
next-ranked capable alternative while every completed node's result is
preserved.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Optional

from .couplet import PerceptualTask, TaskKind, stable_seed
from .decomposition import FLAG_REQUIRED_MODALITIES
from .errors import NoCapableTool, NodeFailure, PipelineFailed, UnplannableQuery
from .routing import RoutingDecision
from .state import (
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
)
from .tools import Requirement, ToolId, ToolRegistry

REPAIR_LIMIT = 2  # repairs per node before the pipeline fails
CLARIFICATION_LIMIT = 3  # clarification rounds per query
DEFAULT_CLARIFICATION_THRESHOLD = 0.5
FAILURE_CONFIDENCE = 0.35  # a result below this confidence counts as a failure
MOE_WIDTH = 3  # experts in a mixture-of-experts graph

# Task kind -> capability tag its node's tool must produce. OCR and native
# parsing are distinct capabilities so scanned pages avoid native parsers.
KIND_OUTPUT_TAGS: dict[TaskKind, str] = {
    TaskKind.DETECT_OBJECTS: "detections",
    TaskKind.EMBED_IMAGE: "image_embedding",
    TaskKind.OCR: "ocr",
    TaskKind.TRANSCRIBE: "transcript",
    TaskKind.EXTRACT_TABLES: "tables",
    TaskKind.GENERATE_IMAGE: "image_ref",
    TaskKind.PARSE_PDF: "parse",
}


@dataclass
class GraphNode:
    node_id: str
    tool: ToolId
    requirement: Requirement
    role: str  # perceptual | model | route | align | aggregate | decompose | synthesize | overhead
    task: Optional[PerceptualTask] = None
    model_name: Optional[str] = None
    segment: Optional[str] = None  # answer segment this node feeds
    status: str = "pending"  # pending | running | done | failed | repaired
    failed_tools: list[ToolId] = field(default_factory=list)
    repairs: int = 0


@dataclass
class RepairEvent:
    failed_node: str
    cause: str
    replacement_tool: ToolId
    preserved_nodes: int


@dataclass
class NodeResult:
    node_id: str
    output: dict[str, Any]
    confidence: float
    latency_ms: int
    cost: Money
    tool_name: str
    tokens: int = 0
    critical: bool = False


@dataclass
class TraceRow:
    """One JSON-lines trace event."""

    ts: int
    session_id: str
    node_id: str
    tool: str
    event: str  # start | done | failed | repaired | clarify
    latency_ms: Optional[int] = None
    cost_usd: Optional[str] = None
    confidence: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "ts": self.ts,
            "session_id": self.session_id,
            "node_id": self.node_id,
            "tool": self.tool,
            "event": self.event,
            "latency_ms": self.latency_ms,
            "cost_usd": self.cost_usd,
            "confidence": self.confidence,
        }


class ExecutionGraph:
    """DAG of tool invocations with per-node status and a repair log."""

    def __init__(self):
        self.nodes: dict[str, GraphNode] = {}
        self.edges: list[tuple[str, str]] = []
        self.repair_log: list[RepairEvent] = []
        self._parents: dict[str, list[str]] = {}
        self._children: dict[str, list[str]] = {}

    def add_node(self, node: GraphNode) -> GraphNode:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        self._parents[node.node_id] = []
        self._children[node.node_id] = []
        return node

    def add_edge(self, producer: str, consumer: str) -> None:
        if producer not in self.nodes or consumer not in self.nodes:
            raise ValueError(f"edge references unknown node: {producer} -> {consumer}")
        self.edges.append((producer, consumer))
        self._children[producer].append(consumer)
        self._parents[consumer].append(producer)

    def parents(self, node_id: str) -> list[str]:
        return self._parents[node_id]

    def children(self, node_id: str) -> list[str]:
        return self._children[node_id]

    def topological_order(self) -> list[str]:
        """Kahn order: sources in insertion order, then children as they free up.

        Raises ValueError when the edges contain a cycle.
        """
        indegree = {n: len(parents) for n, parents in self._parents.items()}
        order = [n for n in self.nodes if indegree[n] == 0]
        for node_id in order:  # `order` grows while it is walked
            for child in self._children[node_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        if len(order) < len(self.nodes):
            raise ValueError("execution graph contains a dependency cycle")
        return order

    def done_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.status == "done")


# --- graph construction -----------------------------------------------------------


def _attachments_by_modality(state: QueryState, *modalities: Modality):
    wanted = set(modalities)
    return [
        a for a in state.attachments
        if a.detected_modality in wanted
    ]


def _attachment_ref(att) -> str:
    return att.declared_name or str(att.source)


def build_graph(
    flag: ExecutionFlag,
    state: QueryState,
    registry: ToolRegistry,
    *,
    routing_decision: Optional[RoutingDecision] = None,
) -> ExecutionGraph:
    """Build the flag-shaped execution graph for a reconciled query state.

    Raises UnplannableQuery when no registered tool covers a required step.
    """
    from .couplet import parse_intent  # local import avoids a cycle at module load

    graph = ExecutionGraph()

    def match(requirement: Requirement) -> ToolId:
        try:
            return registry.match_tools(requirement)[0]
        except NoCapableTool as exc:
            raise UnplannableQuery(str(exc), requirement=exc.requirement) from exc

    def perceptual_node(node_id: str, att, segment: str, modalities=None) -> GraphNode:
        modality = att.detected_modality
        scanned = modality is Modality.IMAGE or (
            att.declared_name is not None and "scan" in att.declared_name.lower()
        )
        task = parse_intent(
            state.user_query,
            modality,
            attachment_ref=_attachment_ref(att),
            scanned=scanned,
        )
        requirement = Requirement(
            input_modalities=frozenset(modalities or {modality}),
            output_tags=frozenset({KIND_OUTPUT_TAGS[task.kind]}),
            state=state,
        )
        return graph.add_node(
            GraphNode(
                node_id=node_id,
                tool=match(requirement),
                requirement=requirement,
                role="perceptual",
                task=task,
                segment=segment,
            )
        )

    if flag in (ExecutionFlag.AUDIO, ExecutionFlag.VISION, ExecutionFlag.DOCUMENT,
                ExecutionFlag.IMAGEN):
        attachments = _attachments_by_modality(state, *FLAG_REQUIRED_MODALITIES[flag])
        if not attachments:
            raise UnplannableQuery(f"flag {flag.value} requires a matching attachment")
        segment = {
            ExecutionFlag.AUDIO: "transcript",
            ExecutionFlag.VISION: "detections",
            ExecutionFlag.DOCUMENT: "extraction",
            ExecutionFlag.IMAGEN: "image",
        }[flag]
        if len(attachments) == 1:
            perceptual_node("p0", attachments[0], segment)
        else:
            # Several attachments of the same modality: independent branches
            # joined by a synthesis node.
            synth_req = Requirement(output_tags=frozenset({"synthesis"}), state=state)
            synth = graph.add_node(
                GraphNode("synth", match(synth_req), synth_req, role="synthesize",
                          segment="synthesis")
            )
            for i, att in enumerate(attachments):
                node = perceptual_node(f"p{i}", att, f"{segment}_{i}")
                graph.add_edge(node.node_id, synth.node_id)

    elif flag is ExecutionFlag.VIDEO:
        videos = _attachments_by_modality(state, Modality.VIDEO)
        if not videos:
            raise UnplannableQuery("video flag requires a video attachment")
        att = videos[0]
        ref = _attachment_ref(att)
        detect_req = Requirement(
            input_modalities=frozenset({Modality.VIDEO}),
            output_tags=frozenset({"detections"}),
            state=state,
        )
        frames = graph.add_node(
            GraphNode(
                "frames", match(detect_req), detect_req, role="perceptual",
                task=PerceptualTask(TaskKind.DETECT_OBJECTS, {"frame_interval_s": 1.0}, ref),
                segment="detections",
            )
        )
        audio_req = Requirement(
            input_modalities=frozenset({Modality.VIDEO}),
            output_tags=frozenset({"transcript"}),
            state=state,
        )
        speech = graph.add_node(
            GraphNode(
                "speech", match(audio_req), audio_req, role="perceptual",
                task=PerceptualTask(TaskKind.TRANSCRIBE, {"language": "auto"}, ref),
                segment="transcript",
            )
        )
        align_req = Requirement(output_tags=frozenset({"timeline"}), state=state)
        align = graph.add_node(
            GraphNode("align", match(align_req), align_req, role="align", segment="timeline")
        )
        graph.add_edge(frames.node_id, align.node_id)
        graph.add_edge(speech.node_id, align.node_id)

    elif flag is ExecutionFlag.ROUTELLM:
        if routing_decision is None:
            raise UnplannableQuery("routellm flag requires a routing decision")
        route_req = Requirement(
            input_modalities=frozenset({Modality.TEXT}),
            output_tags=frozenset({"complexity_score"}),
            state=state,
        )
        route = graph.add_node(
            GraphNode("route", match(route_req), route_req, role="route")
        )
        invoke_req = Requirement(
            input_modalities=frozenset({Modality.TEXT}),
            output_tags=frozenset({"answer_text"}),
            tier=_invoke_tier(routing_decision),
            state=state,
        )
        invoke = graph.add_node(
            GraphNode(
                "invoke", match(invoke_req), invoke_req, role="model",
                model_name=routing_decision.chosen_model, segment="answer",
            )
        )
        graph.add_edge(route.node_id, invoke.node_id)

    elif flag is ExecutionFlag.MOE:
        agg_req = Requirement(output_tags=frozenset({"aggregation"}), state=state)
        agg = graph.add_node(
            GraphNode("aggregate", match(agg_req), agg_req, role="aggregate",
                      segment="answer")
        )
        expert_req = Requirement(
            input_modalities=frozenset({Modality.TEXT}),
            output_tags=frozenset({"answer_text"}),
            state=state,
        )
        for i in range(MOE_WIDTH):
            expert = graph.add_node(
                GraphNode(f"expert{i}", match(expert_req), expert_req, role="model",
                          segment=f"expert_{i}")
            )
            graph.add_edge(expert.node_id, agg.node_id)

    elif flag is ExecutionFlag.COMPLEX:
        decomp_req = Requirement(
            input_modalities=frozenset({Modality.TEXT}),
            output_tags=frozenset({"complexity_score"}),
            state=state,
        )
        decomp = graph.add_node(
            GraphNode("decompose", match(decomp_req), decomp_req, role="decompose")
        )
        synth_req = Requirement(output_tags=frozenset({"synthesis"}), state=state)
        synth = graph.add_node(
            GraphNode("synth", match(synth_req), synth_req, role="synthesize",
                      segment="synthesis")
        )
        subtasks = _complex_subtasks(state)
        for i, (att, segment) in enumerate(subtasks):
            if att is not None:
                node = perceptual_node(f"branch{i}", att, segment)
            else:
                # Text-only subtask runs on a lightweight model.
                req = Requirement(
                    input_modalities=frozenset({Modality.TEXT}),
                    output_tags=frozenset({"answer_text"}),
                    state=state,
                )
                node = graph.add_node(
                    GraphNode(f"branch{i}", match(req), req, role="model", segment=segment)
                )
            graph.add_edge(decomp.node_id, node.node_id)
            graph.add_edge(node.node_id, synth.node_id)
    else:  # pragma: no cover - flag enum is closed
        raise UnplannableQuery(f"unsupported flag {flag}")

    graph.topological_order()
    return graph


def _invoke_tier(decision: RoutingDecision) -> Optional[CostKnob]:
    # The invoke node's latency/tool tier mirrors the chosen model family;
    # strong routes bind to the closed-tier tool, weak to the open-tier one,
    # except couplet-tier weak models which bind to the couplet coordinator.
    if decision.route == "strong":
        return CostKnob.CLOSED_SRC
    if decision.chosen_model.startswith("couplet-"):
        return CostKnob.TRAD_COUPLET
    return CostKnob.OPEN_SRC


def _complex_subtasks(state: QueryState):
    """Split a complex query into enumerable subtasks (heuristic).

    Attachments become per-attachment branches; with fewer than two
    attachments, conjunction clauses become text subtasks.
    """
    perceptual = [a for a in state.attachments if a.detected_modality]
    if len(perceptual) >= 2:
        return [(att, f"part_{i}") for i, att in enumerate(perceptual)]
    if len(perceptual) == 1:
        return [(perceptual[0], "part_0"), (None, "part_1")]
    clauses = max(2, min(4, state.user_query.lower().count(" and ") + 1))
    return [(None, f"part_{i}") for i in range(clauses)]


# --- execution ---------------------------------------------------------------------


@dataclass
class ExecutionOutcome:
    results: list[NodeResult]
    total_latency_ms: int
    trace: list[TraceRow]
    critical_node_ids: set[str] = field(default_factory=set)


class Scheduler:
    """Runs execution graphs under a virtual clock with bounded local repair.

    Capacity is one running node when `parallel_enabled` is off and unbounded
    otherwise. With `repair_enabled` off, the first failure fails the pipeline.
    """

    def __init__(
        self,
        registry: ToolRegistry,
        *,
        repair_enabled: bool = True,
        parallel_enabled: bool = True,
    ):
        self.registry = registry
        self.repair_enabled = repair_enabled
        self.parallel_enabled = parallel_enabled

    # -- repair ------------------------------------------------------------------

    def repair(self, graph: ExecutionGraph, node_id: str, cause: str) -> ToolId:
        """Swap the failed node's tool for the next-ranked capable alternative.

        Completed nodes keep their status and results; exhausting alternatives
        or the per-node repair budget raises PipelineFailed.
        """
        node = graph.nodes[node_id]
        node.failed_tools.append(node.tool)
        node.status = "failed"
        if not self.repair_enabled or node.repairs >= REPAIR_LIMIT:
            raise PipelineFailed(
                f"node {node_id} failed ({cause}) with repair budget exhausted"
            )
        try:
            ranked = self.registry.match_tools(node.requirement, exclude=node.failed_tools)
        except NoCapableTool:
            raise PipelineFailed(
                f"node {node_id} failed ({cause}) with no alternative tool"
            ) from None
        replacement = ranked[0]
        node.tool = replacement
        node.repairs += 1
        node.status = "repaired"
        graph.repair_log.append(
            RepairEvent(
                failed_node=node_id,
                cause=cause,
                replacement_tool=replacement,
                preserved_nodes=graph.done_count(),
            )
        )
        return replacement

    # -- execution -----------------------------------------------------------------

    def execute(
        self,
        graph: ExecutionGraph,
        clock,
        backends,
        seed: int,
        session_id: str = "",
    ) -> ExecutionOutcome:
        """Event-driven execution: nodes start as soon as their parents are done.

        Nodes already done (from an earlier clarification round) are kept and
        not re-run. Ready nodes launch in insertion order while capacity
        allows; running nodes finish in (finish time, insertion) order and the
        clock advances to each finish. A repaired node becomes ready again
        under its original insertion index. Deterministic for a fixed seed.
        Returns per-node results and the total virtual latency, which equals
        the critical path when capacity is unbounded.
        """
        order = graph.topological_order()
        start_ms = clock.now_ms()
        results: dict[str, NodeResult] = {}
        trace: list[TraceRow] = []
        node_elapsed: dict[str, int] = {}
        attempts: dict[str, tuple] = {}  # node_id -> (invocation, failed, cause)
        insertion = {node_id: i for i, node_id in enumerate(graph.nodes)}
        running: list[tuple[int, int, str]] = []  # (finish_ts, insertion, node_id)
        # Unfinished parents per node; a node is ready once its count is zero.
        waiting = {
            node_id: sum(graph.nodes[p].status != "done" for p in graph.parents(node_id))
            for node_id in graph.nodes
        }
        # Heap of (insertion, node_id); built in insertion order, so already a heap.
        ready: list[tuple[int, str]] = [
            (insertion[node_id], node_id)
            for node_id, node in graph.nodes.items()
            if node.status != "done" and waiting[node_id] == 0
        ]

        def launch(node_id: str, at_ms: int) -> None:
            node = graph.nodes[node_id]
            node.status = "running"
            attempt_seed = stable_seed(seed, node_id, len(node.failed_tools))
            trace.append(
                TraceRow(ts=at_ms, session_id=session_id, node_id=node_id,
                         tool=self.registry.get(node.tool).name, event="start")
            )
            try:
                invocation = backends.run_node(node, attempt_seed)
                latency = (
                    invocation.latency_ms
                    if invocation.latency_ms is not None
                    else self.registry.sample_latency(node.tool, attempt_seed)
                )
                failed = invocation.confidence < FAILURE_CONFIDENCE
                cause = f"low confidence {invocation.confidence:.2f}" if failed else ""
            except NodeFailure as exc:
                invocation = None
                latency = self.registry.sample_latency(node.tool, attempt_seed)
                failed = True
                cause = str(exc)
            node_elapsed[node_id] = node_elapsed.get(node_id, 0) + int(latency)
            heapq.heappush(running, (at_ms + int(latency), insertion[node_id], node_id))
            attempts[node_id] = (invocation, failed, cause)

        def launch_ready(at_ms: int) -> None:
            while ready and (self.parallel_enabled or not running):
                launch(heapq.heappop(ready)[1], at_ms)

        launch_ready(start_ms)
        while running:
            finish_ts, _, node_id = heapq.heappop(running)
            clock.advance_to(finish_ts)
            node = graph.nodes[node_id]
            invocation, failed, cause = attempts.pop(node_id)
            tool_spec = self.registry.get(node.tool)
            if failed:
                trace.append(
                    TraceRow(ts=finish_ts, session_id=session_id, node_id=node_id,
                             tool=tool_spec.name, event="failed",
                             latency_ms=node_elapsed[node_id],
                             confidence=None if invocation is None else invocation.confidence)
                )
                try:
                    replacement = self.repair(graph, node_id, cause or "backend failure")
                except PipelineFailed as exc:
                    exc.partial_results = list(results.values())
                    exc.trace = trace
                    raise
                trace.append(
                    TraceRow(ts=finish_ts, session_id=session_id, node_id=node_id,
                             tool=self.registry.get(replacement).name, event="repaired")
                )
                heapq.heappush(ready, (insertion[node_id], node_id))
            else:
                node.status = "done"
                cost = backends.node_cost(node, invocation)
                results[node_id] = NodeResult(
                    node_id=node_id,
                    output=invocation.payload,
                    confidence=invocation.confidence,
                    latency_ms=node_elapsed[node_id],
                    cost=cost,
                    tool_name=tool_spec.name,
                    tokens=invocation.tokens,
                )
                trace.append(
                    TraceRow(ts=finish_ts, session_id=session_id, node_id=node_id,
                             tool=tool_spec.name, event="done",
                             latency_ms=node_elapsed[node_id],
                             cost_usd=cost.usd_str(), confidence=invocation.confidence)
                )
                for child in graph.children(node_id):
                    waiting[child] -= 1
                    if waiting[child] == 0 and graph.nodes[child].status != "done":
                        heapq.heappush(ready, (insertion[child], child))
            launch_ready(finish_ts)

        outcome = ExecutionOutcome(
            results=[results[n] for n in graph.nodes if n in results],
            total_latency_ms=clock.now_ms() - start_ms,
            trace=trace,
        )
        outcome.critical_node_ids = self._critical_nodes(graph, node_elapsed, order)
        for result in outcome.results:
            result.critical = result.node_id in outcome.critical_node_ids
        return outcome

    def _critical_nodes(
        self, graph: ExecutionGraph, elapsed: dict[str, int], order: list[str]
    ) -> set[str]:
        """Nodes on (one of) the longest dependency chains."""
        finish: dict[str, int] = {}
        for node_id in order:
            if node_id not in elapsed:
                continue
            start = max(
                (finish[p] for p in graph.parents(node_id) if p in finish), default=0
            )
            finish[node_id] = start + elapsed[node_id]
        if not finish:
            return set()
        total = max(finish.values())
        critical: set[str] = set()

        def walk_back(node_id: str) -> None:
            critical.add(node_id)
            start = finish[node_id] - elapsed[node_id]
            for p in graph.parents(node_id):
                if p in finish and finish[p] == start:
                    walk_back(p)

        for node_id, value in finish.items():
            if value == total:
                walk_back(node_id)
                break
        return critical


# --- clarification and verification ---------------------------------------------------


def check_clarification(
    results: list[NodeResult],
    threshold: float = DEFAULT_CLARIFICATION_THRESHOLD,
    *,
    repair_attempted: bool = False,
) -> Optional[str]:
    """Emit a clarification question when critical-path confidence is low.

    Only fires after a repair has been attempted: the engine first tries to
    self-serve, then asks.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    if not repair_attempted:
        return None
    critical = [r for r in results if r.critical]
    if not critical:
        return None
    worst = min(critical, key=lambda r: (r.confidence, r.node_id))
    if worst.confidence >= threshold:
        return None
    subject = worst.output.get("clarify_hint") if isinstance(worst.output, dict) else None
    if subject:
        return f"I notice this is {subject}. What specific information are you looking for?"
    return (
        f"Confidence is low on the {worst.tool_name} output. "
        f"What specific information are you looking for?"
    )


@dataclass
class VerificationVerdict:
    status: str  # "pass" | "fail"
    reasons: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def verify_output(
    answer_segments: dict[str, str],
    trace: list[TraceRow],
    required_segments: list[str],
    cited_nodes: Optional[dict[str, list[str]]] = None,
) -> VerificationVerdict:
    """Structural verification: every required segment answered, every cited
    evidence node present in the trace."""
    reasons = []
    for segment in required_segments:
        if not answer_segments.get(segment, "").strip():
            reasons.append(f"missing answer segment {segment!r}")
    if cited_nodes:
        trace_ids = {row.node_id for row in trace}
        for segment, nodes in cited_nodes.items():
            for node_id in nodes:
                if node_id not in trace_ids:
                    reasons.append(
                        f"segment {segment!r} cites node {node_id!r} absent from trace"
                    )
    return VerificationVerdict("fail" if reasons else "pass", reasons)
