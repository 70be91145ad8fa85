"""The supervisor: one query end to end.

decompose -> route -> build graph -> execute (repair, clarification) ->
assemble -> account -> remember. Policy simulation and the CLI both drive this
class; everything nondeterministic flows from explicit seeds so fixed-seed
runs reproduce identical traces byte for byte. A session persists across
processes: `save_turn` saves a processed turn to the session's state journal,
memory journal and trace log, and `load_session` reads its state and memory
back.
"""

from __future__ import annotations

import os
import secrets
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import couplet as couplet_mod
from .clock import VirtualClock
from .couplet import (
    SimulatedBackend,
    contextualize_timeline,
    keyed_uniform,
    stable_seed,
    summarize_payload,
)
from .decomposition import (
    classify_flag_detail,
    detect_modality,
    reconcile_flag,
)
from .errors import (
    AmbiguousIntent,
    CorruptState,
    InvalidInput,
    NodeFailure,
    PipelineFailed,
    UnknownSession,
)
from .memory import (
    HashingEmbedder,
    MemoryStore,
    embed,
    load_memory,
    memory_path,
    save_memory,
    whitespace_tokens,
)
from .routing import (
    ModelCatalog,
    RoutingDecision,
    charge,
    default_model_catalog,
    invocation_cost,
    route_strong_weak,
    token_cost,
)
from .scheduler import (
    CLARIFICATION_LIMIT,
    ExecutionGraph,
    GraphNode,
    Scheduler,
    TraceRow,
    build_graph,
    check_clarification,
    weakest_critical,
)
from .state import (
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
    new_session,
    parse_jsonl,
    serialize_state,
    deserialize_state,
    write_jsonl,
)
from .tools import ToolRegistry, default_registry

CLARIFY_USER_DELAY_MS = 12_000  # virtual time a user takes to answer a question
ANSWER_TOKENS = 150  # tokens a model node is charged for its answer

_EXPERT_SUBFLAG_ORDER = (
    Subflag.GENERAL,
    Subflag.CODING,
    Subflag.SUMMARIZATION_REWRITING,
    Subflag.ANALYTICAL_MATHS,
)


@dataclass
class EngineConfig:
    registry: ToolRegistry = field(default_factory=default_registry)
    catalog: ModelCatalog = field(default_factory=default_model_catalog)
    seed: int = 0
    parallel_enabled: bool = True
    memory_enabled: bool = True
    repair_enabled: bool = True
    budget_cap: Optional[Money] = None
    flag_rules: Optional[dict] = None


@dataclass
class QueryOutcome:
    answer_text: str = ""
    segments: dict[str, str] = field(default_factory=dict)
    evidence_keys: set[str] = field(default_factory=set)
    flag: Optional[ExecutionFlag] = None
    routing: Optional[RoutingDecision] = None
    tta_ms: int = 0
    cost: Money = field(default_factory=Money)
    clarifications_user: int = 0
    best_effort: bool = False
    failed: bool = False
    trace_rows: list[TraceRow] = field(default_factory=list)
    repair_count: int = 0


def _draw_confidence(seed: int, low: float, high: float) -> float:
    # Drawn only by the roles that report a drawn confidence.
    return round(low + (high - low) * keyed_uniform(seed, "confidence"), 4)


class EngineBackends:
    """Binds graph nodes to backends. Join nodes (temporal alignment,
    aggregation, synthesis) read their parents' outputs and confidences from
    the graph's results ledger: a node launches only once its parents are done."""

    def __init__(
        self,
        graph: ExecutionGraph,
        state: QueryState,
        config: EngineConfig,
        perceptual: SimulatedBackend,
        context_tokens: int,
        failure_rates: Optional[dict[str, float]] = None,
        query_id: str = "",
    ):
        self.graph = graph
        self.state = state
        self.config = config
        self.perceptual = perceptual
        self.failure_rates = failure_rates or {}
        self.query_id = query_id
        self.query_tokens = whitespace_tokens(state.user_query)
        # What a model node reads: the query and the turn's context, whose
        # count the caller takes once per turn.
        self.prompt_tokens = self.query_tokens + context_tokens

    def _maybe_inject_failure(self, node: GraphNode, attempt: int, tool_name: str) -> None:
        rate = self.failure_rates.get(tool_name, 0.0)
        if rate <= 0:
            return
        # Keyed like the hierarchical baseline's stage draw: the tool and its
        # occurrence in the plan, so both policies share one draw per query.
        occurrence = 0
        for other in self.graph.nodes.values():
            if other is node:
                break
            occurrence += other.tool == node.tool
        draw = keyed_uniform(
            self.config.seed, self.query_id, tool_name, occurrence, "failure", attempt
        )
        if draw < rate:
            raise NodeFailure(f"injected failure on {tool_name}")

    def _model_entry(self, node: GraphNode):
        catalog = self.config.catalog
        if node.model_name:
            return catalog.by_name(node.model_name)
        tier = self.state.cost_knob
        if node.node_id.startswith("expert"):
            index = int(node.node_id.removeprefix("expert") or 0)
            subflag = _EXPERT_SUBFLAG_ORDER[index % len(_EXPERT_SUBFLAG_ORDER)]
            return catalog.weak_model(subflag, tier)
        return catalog.weak_model(Subflag.GENERAL, tier)

    def run_node(self, node: GraphNode, seed: int) -> couplet_mod.BackendResult:
        tool_name = node.tool.value.split(":", 1)[1]
        attempt = len(node.failed_tools)
        self._maybe_inject_failure(node, attempt, tool_name)
        if node.role == "perceptual":
            result = couplet_mod.execute_perceptual(
                node.task, self.perceptual, seed, tool_name=tool_name
            )
        elif node.role in ("model", "synthesize"):
            results = self.graph.results
            parent_outputs = [results[p].output for p in self.graph.parents(node.node_id)]
            text = self._render_model_answer(node, parent_outputs)
            tokens = self.prompt_tokens + ANSWER_TOKENS
            payload = {"answer_text": text} if node.role == "model" else {
                "synthesis": text, "answer_text": text,
            }
            result = couplet_mod.BackendResult(
                payload=payload, confidence=_draw_confidence(seed, 0.85, 0.98),
                tokens=tokens,
            )
        elif node.role in ("route", "decompose"):
            payload = {"complexity_score": 1.0}
            if node.role == "decompose":
                payload["subtask_count"] = len(self.graph.nodes) - 2
            result = couplet_mod.BackendResult(
                payload=payload, confidence=_draw_confidence(seed, 0.9, 0.99),
                tokens=self.query_tokens,
            )
        elif node.role == "align":
            detections, transcript = [], []
            for parent in self.graph.parents(node.node_id):
                payload = self.graph.results[parent].output
                for i, det in enumerate(payload.get("detections", [])):
                    if "t_start" not in det:  # the fixture rules give t_start and t_end together
                        raise InvalidInput(
                            f"fixtures invalid at {self.graph.nodes[parent].task.source}"
                            f".detections[{i}]: a video detection must give t_start and t_end"
                        )
                detections.extend(payload.get("detections", []))
                transcript.extend(payload.get("transcript", []))
            transcript.sort(key=lambda w: w["t"])
            timeline, summary = contextualize_timeline(detections, transcript)
            result = couplet_mod.BackendResult(
                payload={"timeline": timeline, "timeline_summary": summary},
                confidence=_draw_confidence(seed, 0.85, 0.98),
                tokens=60,
            )
        elif node.role == "aggregate":
            best_text, best_conf = "", -1.0
            for parent_id in sorted(self.graph.parents(node.node_id)):
                parent = self.graph.results[parent_id]
                if parent.output.get("answer_text") and parent.confidence > best_conf:
                    best_conf = parent.confidence
                    best_text = parent.output["answer_text"]
            result = couplet_mod.BackendResult(
                payload={"aggregation": "confidence-weighted selection",
                         "answer_text": best_text or "No expert produced an answer."},
                confidence=max(best_conf, 0.5),
                tokens=40,
            )
        else:  # pragma: no cover - roles are closed
            raise NodeFailure(f"no backend for role {node.role}")
        return result

    def _render_model_answer(self, node: GraphNode, parent_outputs: list[dict]) -> str:
        evidence_bits = []
        for payload in parent_outputs:
            for key in ("answer_text", "timeline_summary", "synthesis"):
                if payload.get(key):
                    evidence_bits.append(str(payload[key]))
        base = f"Answer to: {self.state.user_query.strip()}"
        if self.state.clarify_response:
            base += f" (clarified: {self.state.clarify_response})"
        if evidence_bits:
            base += " | " + " | ".join(evidence_bits[:4])
        if node.role == "synthesize":
            return f"Synthesis across {len(parent_outputs)} branch(es). {base}"
        return base

    def node_cost(self, node: GraphNode, invocation: Optional[couplet_mod.BackendResult]) -> Money:
        """Price an attempt as it ends and charge it to the session against the
        budget cap: a result pays its price, an attempt that raised (`None`)
        its tool's per-invocation fee."""
        spec = self.config.registry.get(node.tool)
        if invocation is None:
            cost = spec.cost.per_invocation
        elif node.role == "model":
            cost = invocation_cost(self._model_entry(node), invocation.tokens)
        else:
            cost = spec.cost.per_invocation + token_cost(spec.cost.per_mtok, invocation.tokens)
        charge(self.state.session, cost, self.config.budget_cap)
        return cost


class Supervisor:
    """Centralized orchestration engine for one session at a time, on one thread."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.embedder = HashingEmbedder()
        self.scheduler = Scheduler(
            self.config.registry,
            repair_enabled=self.config.repair_enabled,
            parallel_enabled=self.config.parallel_enabled,
        )

    # -- session helpers ---------------------------------------------------------

    def new_session(self) -> SessionMeta:
        # Session ids must be globally unique across concurrent sessions, so
        # they always draw real entropy; simulations construct their own
        # deterministic SessionMeta instead.
        return new_session(lambda: int(time.time() * 1000), lambda: secrets.token_bytes(16))

    # -- main pipeline ------------------------------------------------------------

    def process(
        self,
        state: QueryState,
        *,
        memory_store: MemoryStore,
        perceptual_backend: Optional[SimulatedBackend] = None,
        clarifier: Optional[Callable[[str], Optional[str]]] = None,
        query_seed: int = 0,
        failure_rates: Optional[dict[str, float]] = None,
        query_id: str = "",
    ) -> QueryOutcome:
        config = self.config
        clock = VirtualClock()
        backend = perceptual_backend or SimulatedBackend()
        outcome = QueryOutcome()
        cost_before = state.session.cumulative_cost

        # 1. Attachment decomposition.
        for att in state.attachments:
            if att.detected_modality is None:
                att.detected_modality = detect_modality(att)
        modalities = {
            a.detected_modality
            for a in state.attachments
            if a.detected_modality and a.detected_modality is not Modality.UNKNOWN
        }
        primary = Modality(min((m.value for m in modalities), default="text"))
        marker = detect_underspecified(state.user_query)

        # 2. Flag classification plus safety reconciliation.
        decision = classify_flag_detail(state.user_query, modalities, rules=config.flag_rules)
        state.flag = reconcile_flag(decision.flag, modalities)
        outcome.flag = state.flag

        # 3. Memory: retrieve, count the context, self-serve underspecified parameters.
        resolution_text = ""
        context_tokens = 0
        if config.memory_enabled:
            mem_tool = config.registry.id_for_name("memory-retrieve")
            mem_latency = config.registry.sample_latency(
                mem_tool, keyed_uniform(config.seed, query_id, "memory", "latency")
            )
            clock.advance(mem_latency)
            mem_cost = config.registry.get(mem_tool).cost.per_invocation
            charge(state.session, mem_cost, config.budget_cap)
            if memory_store.retrievable_count < 2:  # nothing to rank, so no query vector
                retrieved = memory_store.retrievable()
            else:
                query_embedding = embed(state.user_query or " ", self.embedder)
                retrieved = memory_store.retrieve_relevant(query_embedding, primary)
            context_tokens = memory_store.context_tokens(retrieved)
            outcome.trace_rows.append(TraceRow(
                ts=clock.now_ms(), node_id="memory", tool="memory-retrieve", event="done",
                latency_ms=mem_latency, cost_usd=mem_cost.usd_str(), confidence=1.0,
            ))
            resolution_text = self._self_serve_resolution(state, marker, memory_store, retrieved)

        if marker and not resolution_text and state.clarify_response is None:
            question = (
                f"Could you spell out what {marker!r} refers to here? "
                f"What specific information are you looking for?"
            )
            answered = self._ask_user(state, question, clarifier, clock, outcome)
            if not answered:
                outcome.best_effort = True

        # 4. Routing for text-only queries.
        routing_decision = None
        if state.flag is ExecutionFlag.ROUTELLM:
            routing_decision = route_strong_weak(
                state.user_query,
                catalog=config.catalog,
                tier=state.cost_knob,
            )
            outcome.routing = routing_decision
            state.subflag = routing_decision.subflag

        # 5. Build and execute the graph with bounded clarification rounds.
        try:
            graph = build_graph(
                state.flag, state, config.registry, routing_decision=routing_decision
            )
        except AmbiguousIntent as exc:
            # Take the answer given earlier this turn, else ask, and build once
            # more from the query and the answer together. A turn that is still
            # ambiguous has nothing to run and fails below.
            graph = ExecutionGraph()
            question = f"I could not pin down the task ({exc.missing}). What exactly should I do?"
            if state.clarify_response is not None or self._ask_user(
                state, question, clarifier, clock, outcome
            ):
                clarified = replace(
                    state, user_query=f"{state.user_query} {state.clarify_response}"
                )
                with suppress(AmbiguousIntent):
                    graph = build_graph(
                        state.flag, clarified, config.registry, routing_decision=routing_decision
                    )
            outcome.failed = not graph.nodes

        if not outcome.failed:
            backends = EngineBackends(
                graph, state, config, backend, context_tokens,
                failure_rates=failure_rates, query_id=query_id,
            )
            for round_index in range(CLARIFICATION_LIMIT + 1):
                try:
                    executed = self.scheduler.execute(
                        graph, clock, backends,
                        stable_seed(config.seed, query_id, query_seed, round_index),
                    )
                except PipelineFailed as exc:
                    outcome.failed = True
                    outcome.trace_rows.extend(exc.trace)
                    break
                outcome.trace_rows.extend(executed.trace)
                question = check_clarification(
                    graph.results.values(), repair_attempted=bool(graph.repair_log)
                )
                if question is None:
                    break
                if round_index >= CLARIFICATION_LIMIT:
                    outcome.best_effort = True
                    break
                answered = self._ask_user(state, question, clarifier, clock, outcome)
                if not answered:
                    outcome.best_effort = True
                    break
                self._refine_graph(graph, state)

        if not outcome.failed:
            # 6. Assemble answer segments from node evidence.
            outcome.segments, outcome.evidence_keys = self._assemble(graph, state)
            outcome.answer_text = "\n".join(
                f"[{name}] {text}" for name, text in outcome.segments.items()
            )

        # 7. Accounting: every charge of the turn went through `charge` as it was
        # incurred, so the turn's cost is the session's delta.
        outcome.cost = state.session.cumulative_cost - cost_before
        outcome.repair_count = len(graph.repair_log)
        outcome.tta_ms = clock.now_ms()  # the turn's clock starts at 0
        if outcome.failed:
            return outcome

        # 8. Remember the turn.
        if config.memory_enabled:
            memory_store.add_turn(
                f"Q: {state.user_query}\nA: {outcome.answer_text[:400]}",
                primary,
                self.embedder,
                created_at_ms=clock.now_ms(),
            )
            memory_store.maybe_compress()
        state.session.turn_count += 1
        return outcome

    # -- helpers -------------------------------------------------------------------

    def _ask_user(self, state, question, clarifier, clock, outcome) -> bool:
        state.clarify_question = question
        outcome.trace_rows.append(TraceRow(
            ts=clock.now_ms(), node_id="clarify", tool="supervisor", event="clarify",
        ))
        outcome.clarifications_user += 1
        if clarifier is None:
            return False
        response = clarifier(question)
        if response is None:
            return False
        clock.advance(CLARIFY_USER_DELAY_MS)
        state.clarify_response = response
        return True

    def _self_serve_resolution(self, state, marker, memory_store, retrieved) -> str:
        if not marker:
            return ""
        pool = memory_store.short_term + retrieved
        for record in pool:
            if marker in record.content.lower() and record.content != state.user_query:
                # A prior turn explains the elliptical reference; fold it in.
                state.clarify_response = None
                state.clarify_question = None
                return record.content
        return ""

    def _refine_graph(self, graph: ExecutionGraph, state) -> None:
        """Clarified queries re-run the low-confidence node with focused
        parameters, and everything downstream of it; other work is kept."""
        worst = weakest_critical(graph.results.values())
        if worst is None:
            return
        node = graph.nodes[worst.node_id]
        if node.task is not None and state.clarify_response:
            stop = {"and", "the", "for", "with", "please", "from", "about"}
            targets = [
                w.strip(" .,") for w in state.clarify_response.lower().split()
                if len(w) > 2 and w.strip(" .,") not in stop
            ]
            schema = couplet_mod.TASK_SCHEMAS[node.task.kind]
            for name, value in (("targets", targets[:5]), ("refined", True)):
                if name in schema:
                    node.task.parameters[name] = value
        graph.reset(node.node_id)

    def _assemble(self, graph, state):
        segments: dict[str, str] = {}
        evidence_keys: set[str] = set()
        for node_id, node in graph.nodes.items():
            payload = graph.results[node_id].output
            evidence_keys.update(k for k in payload if k not in ("targets", "clarify_hint"))
            if not node.segment:
                continue
            if node.role == "perceptual":
                text = summarize_payload(node.task.kind, payload, state.user_query)
            elif node.role == "align":
                text = payload.get("timeline_summary", "")
            else:
                text = payload.get("answer_text") or payload.get("synthesis") or ""
            segments[node.segment] = text
        return segments, evidence_keys


def detect_underspecified(query: str) -> Optional[str]:
    q = query.lower()
    for marker in couplet_mod.UNDERSPEC_MARKERS:
        if marker in q:
            return marker
    return None


# --- session persistence -----------------------------------------------------------


def state_path(store_root: str, session_id: str) -> str:
    return os.path.join(store_root, f"{session_id}.state.json")


def trace_path(store_root: str, session_id: str) -> str:
    return os.path.join(store_root, f"{session_id}.trace.jsonl")


# The state file is a journal: this header line, then one snapshot line per save.
STATE_JOURNAL_HEADER = b'{"format": "supervisord-state-journal", "version": 1}\n'
# A save rewrites the journal instead of appending once the file has reached
# this many times the length of the new snapshot line. That bounds disk use
# and load time, and spreads the rewrite over the appends before it.
STATE_JOURNAL_REWRITE_FACTOR = 64


def save_state_file(store_root: str, state: QueryState) -> str:
    """Save the state to the session's state journal as one snapshot line.

    The line is appended while the journal is shorter than
    `STATE_JOURNAL_REWRITE_FACTOR` times its length; otherwise the journal is
    rewritten as the header and the line (`state.write_jsonl`).
    """
    path = state_path(store_root, state.session.session_id)
    line = serialize_state(state) + b"\n"
    write_jsonl(
        path, line,
        lambda st: st.st_size < STATE_JOURNAL_REWRITE_FACTOR * len(line),
        lambda _: STATE_JOURNAL_HEADER + line,
    )
    return path


def load_state_file(store_root: str, session_id: str) -> QueryState:
    """The state of the journal's last complete snapshot line.

    An unterminated last line is an interrupted append and is dropped. A file
    with no newline is the one-document layout of earlier versions.
    """
    path = state_path(store_root, session_id)
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n")
    if end < 0:
        return deserialize_state(data)
    if not data.startswith(STATE_JOURNAL_HEADER):
        raise CorruptState(f"malformed state file {path}: no state journal header")
    start = data.rfind(b"\n", 0, end) + 1
    if start < len(STATE_JOURNAL_HEADER):
        raise CorruptState(f"malformed state file {path}: no complete snapshot line")
    return deserialize_state(data[start:end])


def append_trace_rows(store_root: str, session_id: str, rows: list[TraceRow]) -> str:
    """Append one JSON line per row; a torn last line, which readers drop, is
    not kept (`state.write_jsonl`)."""
    path = trace_path(store_root, session_id)
    data = "".join(row.to_json_line() for row in rows).encode("utf-8")
    write_jsonl(path, data, lambda _: True, lambda kept: kept + data)
    return path


def load_trace_rows(store_root: str, session_id: str) -> list[dict]:
    """The session's trace rows; none if it has no trace log yet."""
    path = trace_path(store_root, session_id)
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    source = f"malformed trace file {path}"
    rows = parse_jsonl(data, source)
    for number, row in enumerate(rows, 1):
        if not isinstance(row, dict) or not {"ts", "event", "node_id", "tool"} <= row.keys():
            raise CorruptState(f"{source}: line {number} is not a trace row")
        if type(row["ts"]) is not int or type(row.get("latency_ms")) not in (int, type(None)):
            raise CorruptState(f"{source}: line {number}: ts and latency_ms must be integers")
    return rows


def save_session_memory(store_root: str, session_id: str, store: MemoryStore) -> str:
    path = memory_path(store_root, session_id)
    save_memory(store, path)
    return path


def save_turn(
    store_root: str, state: QueryState, memory: MemoryStore, outcome: QueryOutcome
) -> str:
    """Save a processed turn: its state, then the session's memory, then its
    trace rows. Returns the trace log's path."""
    session_id = state.session.session_id
    save_state_file(store_root, state)
    save_session_memory(store_root, session_id, memory)
    return append_trace_rows(store_root, session_id, outcome.trace_rows)


def load_session(store_root: str, session_id: str) -> tuple[QueryState, MemoryStore]:
    """The session's last saved state and its memory (empty if it has none).

    Raises `UnknownSession` when the session has no state file.
    """
    try:
        state = load_state_file(store_root, session_id)
    except FileNotFoundError:
        raise UnknownSession(f"unknown session {session_id!r} under {store_root}") from None
    path = memory_path(store_root, session_id)
    return state, load_memory(path) if os.path.exists(path) else MemoryStore()
