"""Execution graphs: flag-shaped DAG construction, virtual-clock execution,
local repair, and clarification checks.

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
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Optional

from .couplet import (
    PERCEPTUAL_MODALITIES,
    PerceptualTask,
    TaskKind,
    keyed_uniform,
    parse_intent,
    stable_seed,
)
from .decomposition import FLAG_REQUIRED_MODALITIES
from .errors import NoCapableTool, NodeFailure, PipelineFailed, UnplannableQuery
from .routing import RoutingDecision
from .state import CostKnob, ExecutionFlag, Modality, QueryState
from .tools import Requirement, ToolId, ToolRegistry

REPAIR_LIMIT = 2  # repairs per node before the pipeline fails
CLARIFICATION_LIMIT = 3  # clarification rounds per query
CLARIFICATION_THRESHOLD = 0.5  # critical-path confidence below this asks the user
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
    """One tool invocation; `len(failed_tools)` is its attempt number and its repairs so far."""

    node_id: str
    tool: ToolId
    requirement: Requirement
    role: str  # perceptual | model | route | align | aggregate | decompose | synthesize
    task: Optional[PerceptualTask] = None
    model_name: Optional[str] = None
    segment: Optional[str] = None  # answer segment this node feeds
    failed_tools: list[ToolId] = field(default_factory=list)


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
    tool_name: str
    critical: bool = False


@dataclass
class TraceRow:
    """One JSON-lines trace event."""

    ts: int
    node_id: str
    tool: str
    event: str  # done | failed (an attempt, which began at ts - latency_ms) | repaired | clarify
    latency_ms: Optional[int] = None
    cost_usd: Optional[str] = None
    confidence: Optional[float] = None

    def to_json_line(self) -> str:
        """The row's trace-log line: what `json.dumps` writes for a dict of
        the seven fields with `sort_keys=True`, and a newline."""
        v = _json_value
        return (
            f'{{"confidence": {v(self.confidence)}, "cost_usd": {v(self.cost_usd)}, '
            f'"event": {v(self.event)}, "latency_ms": {v(self.latency_ms)}, '
            f'"node_id": {v(self.node_id)}, "tool": {v(self.tool)}, "ts": {v(self.ts)}}}\n'
        )


def _json_value(value) -> str:
    """`json.dumps(value, sort_keys=True)`, without building an encoder for a
    value of exactly `str`, `int` or finite `float` type, or `None`."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and -math.inf < value < math.inf:  # json spells NaN and infinities
        return float.__repr__(value)
    if value is None:
        return "null"
    return json.dumps(value, sort_keys=True)


class ExecutionGraph:
    """DAG of tool invocations with a repair log and the results ledger: one
    result per done node, kept across executions."""

    def __init__(self):
        self.nodes: dict[str, GraphNode] = {}
        self.repair_log: list[RepairEvent] = []
        self.results: dict[str, NodeResult] = {}  # node_id -> result, in completion order
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
        """Raises ValueError for an unknown node or an edge that closes a cycle."""
        if producer not in self.nodes or consumer not in self.nodes:
            raise ValueError(f"edge references unknown node: {producer} -> {consumer}")
        downstream = [consumer]
        for node_id in downstream:  # grows while it is walked
            if node_id == producer:
                raise ValueError(f"edge {producer} -> {consumer} closes a dependency cycle")
            downstream.extend(c for c in self._children[node_id] if c not in downstream)
        self._children[producer].append(consumer)
        self._parents[consumer].append(producer)

    def parents(self, node_id: str) -> list[str]:
        return self._parents[node_id]

    def children(self, node_id: str) -> list[str]:
        return self._children[node_id]

    def reset(self, node_id: str) -> None:
        """Drop the results of a node and of everything downstream of it, so
        the next execution runs them again."""
        self.results.pop(node_id, None)
        for child in self._children[node_id]:
            self.reset(child)


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
    graph = ExecutionGraph()

    def add(node_id: str, role: str, output_tag: str, inputs=(), tier=None, **fields) -> GraphNode:
        """Add a node bound to the best-ranked tool for its requirement.

        Raises UnplannableQuery, carrying the requirement, when no tool fits.
        """
        requirement = Requirement(
            input_modalities=frozenset(inputs),
            output_tags=frozenset({output_tag}),
            tier=tier,
            state=state,
        )
        try:
            tool = registry.match_tools(requirement)[0]
        except NoCapableTool as exc:
            raise UnplannableQuery(str(exc), requirement=exc.requirement) from exc
        return graph.add_node(GraphNode(node_id, tool, requirement, role, **fields))

    def perceptual_node(node_id: str, att, segment: str) -> GraphNode:
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
        return add(node_id, "perceptual", KIND_OUTPUT_TAGS[task.kind], {modality},
                   task=task, segment=segment)

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
            add("synth", "synthesize", "synthesis", segment="synthesis")
            for i, att in enumerate(attachments):
                perceptual_node(f"p{i}", att, f"{segment}_{i}")
                graph.add_edge(f"p{i}", "synth")

    elif flag is ExecutionFlag.VIDEO:
        videos = _attachments_by_modality(state, Modality.VIDEO)
        if not videos:
            raise UnplannableQuery("video flag requires a video attachment")
        ref = _attachment_ref(videos[0])
        add("frames", "perceptual", "detections", {Modality.VIDEO}, segment="detections",
            task=PerceptualTask(TaskKind.DETECT_OBJECTS, {"frame_interval_s": 1.0}, ref))
        add("speech", "perceptual", "transcript", {Modality.VIDEO}, segment="transcript",
            task=PerceptualTask(TaskKind.TRANSCRIBE, {"language": "auto"}, ref))
        add("align", "align", "timeline", segment="timeline")
        graph.add_edge("frames", "align")
        graph.add_edge("speech", "align")

    elif flag is ExecutionFlag.ROUTELLM:
        if routing_decision is None:
            raise UnplannableQuery("routellm flag requires a routing decision")
        add("route", "route", "complexity_score", {Modality.TEXT})
        add("invoke", "model", "answer_text", {Modality.TEXT}, _invoke_tier(routing_decision),
            model_name=routing_decision.chosen_model, segment="answer")
        graph.add_edge("route", "invoke")

    elif flag is ExecutionFlag.MOE:
        add("aggregate", "aggregate", "aggregation", segment="answer")
        for i in range(MOE_WIDTH):
            add(f"expert{i}", "model", "answer_text", {Modality.TEXT}, segment=f"expert_{i}")
            graph.add_edge(f"expert{i}", "aggregate")

    elif flag is ExecutionFlag.COMPLEX:
        add("decompose", "decompose", "complexity_score", {Modality.TEXT})
        add("synth", "synthesize", "synthesis", segment="synthesis")
        for i, (att, segment) in enumerate(_complex_subtasks(state)):
            node_id = f"branch{i}"
            if att is not None:
                perceptual_node(node_id, att, segment)
            else:
                # Text-only subtask runs on a lightweight model.
                add(node_id, "model", "answer_text", {Modality.TEXT}, segment=segment)
            graph.add_edge("decompose", node_id)
            graph.add_edge(node_id, "synth")
    else:  # pragma: no cover - flag enum is closed
        raise UnplannableQuery(f"unsupported flag {flag}")
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

    Attachments of a perceptual modality become per-attachment branches;
    with fewer than two, conjunction clauses become text subtasks.
    """
    perceptual = _attachments_by_modality(state, *PERCEPTUAL_MODALITIES)
    if len(perceptual) >= 2:
        return [(att, f"part_{i}") for i, att in enumerate(perceptual)]
    if len(perceptual) == 1:
        return [(perceptual[0], "part_0"), (None, "part_1")]
    clauses = max(2, min(4, state.user_query.lower().count(" and ") + 1))
    return [(None, f"part_{i}") for i in range(clauses)]


# --- execution ---------------------------------------------------------------------


@dataclass
class ExecutionOutcome:
    total_latency_ms: int
    trace: list[TraceRow]


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

        Completed nodes keep their results. Exhausting the alternatives, or a
        node's `REPAIR_LIMIT` repairs over every execution of the graph, raises
        PipelineFailed.
        """
        node = graph.nodes[node_id]
        node.failed_tools.append(node.tool)
        if not self.repair_enabled or len(node.failed_tools) > REPAIR_LIMIT:
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
        graph.repair_log.append(
            RepairEvent(
                failed_node=node_id,
                cause=cause,
                replacement_tool=replacement,
                preserved_nodes=len(graph.results),
            )
        )
        return replacement

    # -- execution -----------------------------------------------------------------

    def execute(self, graph: ExecutionGraph, clock, backends, seed: int) -> ExecutionOutcome:
        """Event-driven execution: nodes start as soon as their parents are done.

        Nodes already done (from an earlier clarification round) are kept and
        not re-run. Ready nodes launch in insertion order while capacity
        allows; running nodes finish in (finish time, insertion) order and the
        clock advances to each finish. A repaired node becomes ready again
        under its original insertion index. Deterministic for a fixed seed.
        Every attempt is priced and charged by `backends.node_cost` once, when
        it ends, and leaves one trace row then, `done` or `failed`, carrying
        that cost and that attempt's own latency: the attempt began at the
        row's `ts - latency_ms`. A done node is recorded in
        `graph.results`, flagged `critical` when it lies on this call's
        longest dependency chain, which counts every attempt of a repaired
        node. Returns this call's trace and its total virtual latency, which
        equals the critical path when capacity is unbounded.
        """
        start_ms = clock.now_ms()
        trace: list[TraceRow] = []
        node_elapsed: dict[str, int] = {}
        finished: dict[str, int] = {}  # node_id -> dependency finish, in completion order
        attempts: dict[str, tuple] = {}  # node_id -> (invocation, failed, cause, latency)
        insertion = {node_id: i for i, node_id in enumerate(graph.nodes)}
        running: list[tuple[int, int, str]] = []  # (finish_ts, insertion, node_id)
        # Unfinished parents per node; a node is ready once its count is zero.
        waiting = {
            node_id: sum(p not in graph.results for p in graph.parents(node_id))
            for node_id in graph.nodes
        }
        # Heap of (insertion, node_id); built in insertion order, so already a heap.
        ready: list[tuple[int, str]] = [
            (insertion[node_id], node_id)
            for node_id in graph.nodes
            if node_id not in graph.results and waiting[node_id] == 0
        ]

        def launch(node_id: str, at_ms: int) -> None:
            node = graph.nodes[node_id]
            attempt_seed = stable_seed(seed, node_id, len(node.failed_tools))
            try:
                invocation = backends.run_node(node, attempt_seed)
                latency = invocation.latency_ms
                failed = invocation.confidence < FAILURE_CONFIDENCE
                cause = f"low confidence {invocation.confidence:.2f}" if failed else ""
            except NodeFailure as exc:
                invocation, latency, failed, cause = None, None, True, str(exc)
            if latency is None:
                latency = self.registry.sample_latency(
                    node.tool, keyed_uniform(attempt_seed, "latency")
                )
            latency = int(latency)
            node_elapsed[node_id] = node_elapsed.get(node_id, 0) + latency
            heapq.heappush(running, (at_ms + latency, insertion[node_id], node_id))
            attempts[node_id] = (invocation, failed, cause, latency)

        def launch_ready(at_ms: int) -> None:
            while ready and (self.parallel_enabled or not running):
                launch(heapq.heappop(ready)[1], at_ms)

        launch_ready(start_ms)
        while running:
            finish_ts, _, node_id = heapq.heappop(running)
            clock.advance_to(finish_ts)
            node = graph.nodes[node_id]
            invocation, failed, cause, latency = attempts.pop(node_id)
            tool_name = self.registry.get(node.tool).name
            cost = backends.node_cost(node, invocation)
            trace.append(
                TraceRow(ts=finish_ts, node_id=node_id, tool=tool_name,
                         event="failed" if failed else "done", latency_ms=latency,
                         cost_usd=cost.usd_str(),
                         confidence=None if invocation is None else invocation.confidence)
            )
            if failed:
                try:
                    replacement = self.repair(graph, node_id, cause or "backend failure")
                except PipelineFailed as exc:
                    exc.trace = trace
                    raise
                trace.append(
                    TraceRow(ts=finish_ts, node_id=node_id,
                             tool=self.registry.get(replacement).name, event="repaired")
                )
                heapq.heappush(ready, (insertion[node_id], node_id))
            else:
                # Finish along dependencies alone, as if every node had its own
                # slot: a wait for the single slot in serial mode is not a chain.
                finished[node_id] = node_elapsed[node_id] + max(
                    (finished[p] for p in graph.parents(node_id) if p in finished),
                    default=0,
                )
                graph.results[node_id] = NodeResult(
                    node_id, invocation.payload, invocation.confidence, tool_name
                )
                for child in graph.children(node_id):
                    waiting[child] -= 1
                    if waiting[child] == 0 and child not in graph.results:
                        heapq.heappush(ready, (insertion[child], child))
            launch_ready(finish_ts)

        # Critical path: from the first node with the latest dependency finish,
        # walk back through the parents that finished when it started.
        critical: set[str] = set()
        latest = max(finished.values(), default=None)
        stack = [n for n, ts in finished.items() if ts == latest][:1]
        while stack:
            node_id = stack.pop()
            critical.add(node_id)
            started = finished[node_id] - node_elapsed[node_id]
            stack.extend(p for p in graph.parents(node_id) if finished.get(p) == started)
        for node_id, result in graph.results.items():
            result.critical = node_id in critical
        return ExecutionOutcome(total_latency_ms=clock.now_ms() - start_ms, trace=trace)


# --- clarification ---------------------------------------------------------------------


def weakest_critical(results: Iterable[NodeResult]) -> Optional[NodeResult]:
    """The critical-path result of lowest confidence, the smaller node id on a
    tie; None when no result is critical."""
    return min(
        (r for r in results if r.critical), key=lambda r: (r.confidence, r.node_id), default=None
    )


def check_clarification(
    results: Iterable[NodeResult], *, repair_attempted: bool = False
) -> Optional[str]:
    """Emit a clarification question when critical-path confidence is low.

    Only fires after a repair has been attempted: the engine first tries to
    self-serve, then asks.
    """
    if not repair_attempted:
        return None
    worst = weakest_critical(results)
    if worst is None or worst.confidence >= CLARIFICATION_THRESHOLD:
        return None
    subject = worst.output.get("clarify_hint") if isinstance(worst.output, dict) else None
    if subject:
        return f"I notice this is {subject}. What specific information are you looking for?"
    return (
        f"Confidence is low on the {worst.tool_name} output. "
        f"What specific information are you looking for?"
    )
