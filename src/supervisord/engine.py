"""The supervisor: one query end to end.

decompose -> route -> build graph -> execute (repair, clarification) ->
verify -> account -> remember. Policy simulation and the CLI both drive this
class; everything nondeterministic flows from explicit seeds so fixed-seed
runs reproduce identical traces byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import secrets
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import couplet as couplet_mod
from .clock import VirtualClock
from .couplet import SimulatedBackend, contextualize_timeline, stable_seed, summarize_payload
from .decomposition import (
    classify_flag_detail,
    detect_modality,
    reconcile_flag,
)
from .errors import AmbiguousIntent, CorruptState, NodeFailure, PipelineFailed
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
    accumulate_cost,
    default_model_catalog,
    invocation_cost,
    route_strong_weak,
    token_cost,
)
from .scheduler import (
    CLARIFICATION_LIMIT,
    ExecutionGraph,
    GraphNode,
    NodeResult,
    Scheduler,
    TraceRow,
    build_graph,
    check_clarification,
    verify_output,
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
)
from .tools import ToolRegistry, default_registry

CLARIFY_USER_DELAY_MS = 12_000  # virtual time a user takes to answer a question
ANSWER_TOKENS = 150  # tokens a model node is charged for its answer
UNDERSPEC_MARKERS = ("the usual", "as before", "as discussed", "like last time")

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
    embedder: HashingEmbedder = field(default_factory=HashingEmbedder)
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
    rework_internal: int = 0
    best_effort: bool = False
    failed: bool = False
    verified: str = "pass"
    trace_rows: list[TraceRow] = field(default_factory=list)
    repair_count: int = 0


class EngineBackends:
    """Binds graph nodes to backends; holds completed payloads so join nodes
    (temporal alignment, aggregation, synthesis) can read their parents."""

    def __init__(
        self,
        graph: ExecutionGraph,
        state: QueryState,
        config: EngineConfig,
        perceptual: SimulatedBackend,
        failure_rates: Optional[dict[str, float]] = None,
        failure_seed: int = 0,
        query_id: str = "",
    ):
        self.graph = graph
        self.state = state
        self.config = config
        self.perceptual = perceptual
        self.failure_rates = failure_rates or {}
        self.failure_seed = failure_seed
        self.query_id = query_id
        self.payloads: dict[str, dict] = {}

    def _maybe_inject_failure(self, node: GraphNode, attempt: int, tool_name: str) -> None:
        rate = self.failure_rates.get(tool_name, 0.0)
        if rate <= 0:
            return
        draw = random.Random(
            stable_seed(self.failure_seed, self.query_id, node.node_id, attempt)
        ).random()
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

    def _context_tokens(self) -> int:
        return whitespace_tokens(self.state.context.text())

    def run_node(self, node: GraphNode, seed: int) -> couplet_mod.BackendResult:
        tool_name = node.tool.value.split(":", 1)[1]
        attempt = len(node.failed_tools)
        self._maybe_inject_failure(node, attempt, tool_name)
        rng = random.Random(stable_seed(seed, "conf"))
        if node.role == "perceptual":
            result = couplet_mod.execute_perceptual(
                node.task, self.perceptual, seed, tool_name=tool_name
            )
        elif node.role in ("model", "synthesize"):
            parent_payloads = [
                self.payloads[p] for p in self.graph.parents(node.node_id)
                if p in self.payloads
            ]
            text = self._render_model_answer(node, parent_payloads)
            tokens = (
                whitespace_tokens(self.state.user_query)
                + self._context_tokens()
                + ANSWER_TOKENS
            )
            payload = {"answer_text": text} if node.role == "model" else {
                "synthesis": text, "answer_text": text,
            }
            result = couplet_mod.BackendResult(
                payload=payload, confidence=round(rng.uniform(0.85, 0.98), 4),
                tokens=tokens,
            )
        elif node.role == "route":
            result = couplet_mod.BackendResult(
                payload={"complexity_score": 1.0},
                confidence=round(rng.uniform(0.9, 0.99), 4),
                tokens=whitespace_tokens(self.state.user_query),
            )
        elif node.role == "decompose":
            result = couplet_mod.BackendResult(
                payload={"complexity_score": 1.0, "subtask_count": len(self.graph.nodes) - 2},
                confidence=round(rng.uniform(0.9, 0.99), 4),
                tokens=whitespace_tokens(self.state.user_query),
            )
        elif node.role == "align":
            detections, transcript = [], []
            for parent in self.graph.parents(node.node_id):
                payload = self.payloads.get(parent, {})
                detections.extend(payload.get("detections", []))
                transcript.extend(payload.get("transcript", []))
            transcript.sort(key=lambda w: w["t"])
            timeline, summary = contextualize_timeline(detections, transcript)
            result = couplet_mod.BackendResult(
                payload={"timeline": timeline, "timeline_summary": summary},
                confidence=round(rng.uniform(0.85, 0.98), 4),
                tokens=60,
            )
        elif node.role == "aggregate":
            best_text, best_conf = "", -1.0
            for parent in sorted(self.graph.parents(node.node_id)):
                payload = self.payloads.get(parent, {})
                conf = payload.get("_confidence", 0.0)
                if payload.get("answer_text") and conf > best_conf:
                    best_conf = conf
                    best_text = payload["answer_text"]
            result = couplet_mod.BackendResult(
                payload={"aggregation": "confidence-weighted selection",
                         "answer_text": best_text or "No expert produced an answer."},
                confidence=max(best_conf, 0.5),
                tokens=40,
            )
        else:  # pragma: no cover - roles are closed
            raise NodeFailure(f"no backend for role {node.role}", retriable=False)
        stored = dict(result.payload)
        stored["_confidence"] = result.confidence
        self.payloads[node.node_id] = stored
        return result

    def _render_model_answer(self, node: GraphNode, parent_payloads: list[dict]) -> str:
        evidence_bits = []
        for payload in parent_payloads:
            for key in ("answer_text", "timeline_summary", "synthesis"):
                if payload.get(key):
                    evidence_bits.append(str(payload[key]))
        base = f"Answer to: {self.state.user_query.strip()}"
        if self.state.clarify_response:
            base += f" (clarified: {self.state.clarify_response})"
        if evidence_bits:
            base += " | " + " | ".join(evidence_bits[:4])
        if node.role == "synthesize":
            return f"Synthesis across {len(parent_payloads)} branch(es). {base}"
        return base

    def node_cost(self, node: GraphNode, invocation: couplet_mod.BackendResult) -> Money:
        spec = self.config.registry.get(node.tool)
        if node.role in ("model",):
            entry = self._model_entry(node)
            return invocation_cost(entry, invocation.tokens)
        flat = spec.cost.per_invocation
        if spec.cost.per_mtok.micros and invocation.tokens:
            flat = flat + token_cost(spec.cost.per_mtok, invocation.tokens)
        return flat


class Supervisor:
    """Centralized orchestration engine for one session at a time."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
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
        clock=None,
        query_seed: int = 0,
        failure_rates: Optional[dict[str, float]] = None,
        query_id: str = "",
    ) -> QueryOutcome:
        config = self.config
        clock = clock or VirtualClock()
        backend = perceptual_backend or SimulatedBackend()
        outcome = QueryOutcome()
        t0 = clock.now_ms()
        total_cost = Money(0)

        # 1. Attachment decomposition.
        for att in state.attachments:
            if att.detected_modality is None:
                att.detected_modality = detect_modality(att)
        modalities = {
            a.detected_modality
            for a in state.attachments
            if a.detected_modality and a.detected_modality is not Modality.UNKNOWN
        }

        # 2. Flag classification plus safety reconciliation.
        decision = classify_flag_detail(state.user_query, modalities, rules=config.flag_rules)
        state.flag = reconcile_flag(decision.flag, modalities)
        outcome.flag = state.flag

        # 3. Memory: retrieve, integrate, self-serve underspecified parameters.
        resolution_text = ""
        if config.memory_enabled:
            mem_seed = stable_seed(config.seed, query_id, "memory")
            mem_tool = config.registry.id_for_name("memory-retrieve")
            mem_latency = config.registry.sample_latency(mem_tool, mem_seed)
            clock.advance(mem_latency)
            mem_cost = config.registry.get(mem_tool).cost.per_invocation
            total_cost = total_cost + mem_cost
            state.session.add_cost(mem_cost)
            query_embedding = embed(state.user_query or " ", config.embedder)
            query_modality = next(iter(sorted(m.value for m in modalities)), "text")
            retrieved = memory_store.retrieve_relevant(
                query_embedding, Modality(query_modality)
            )
            state.context = memory_store.integrate_context(retrieved)
            outcome.trace_rows.append(TraceRow(
                ts=clock.now_ms(), session_id=state.session.session_id,
                node_id="memory", tool="memory-retrieve", event="done",
                latency_ms=mem_latency, cost_usd=mem_cost.usd_str(), confidence=1.0,
            ))
            resolution_text = self._self_serve_resolution(state, memory_store, retrieved)

        marker = detect_underspecified(state.user_query)
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
            question = f"I could not pin down the task ({exc.missing}). What exactly should I do?"
            if self._ask_user(state, question, clarifier, clock, outcome):
                graph = build_graph(
                    state.flag, state, config.registry, routing_decision=routing_decision
                )
            else:
                outcome.failed = True
                outcome.tta_ms = clock.now_ms() - t0
                return outcome

        backends = EngineBackends(
            graph, state, config, backend,
            failure_rates=failure_rates, failure_seed=config.seed, query_id=query_id,
        )
        exec_outcome = None
        for round_index in range(CLARIFICATION_LIMIT + 1):
            try:
                exec_outcome = self.scheduler.execute(
                    graph, clock, backends, stable_seed(config.seed, query_seed, round_index),
                    session_id=state.session.session_id,
                )
            except PipelineFailed as exc:
                outcome.failed = True
                outcome.trace_rows.extend(exc.trace)
                outcome.repair_count = len(graph.repair_log)
                outcome.tta_ms = clock.now_ms() - t0
                outcome.cost = total_cost
                return outcome
            outcome.trace_rows.extend(exec_outcome.trace)
            question = check_clarification(
                exec_outcome.results, repair_attempted=bool(graph.repair_log)
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
            self._refine_graph(graph, exec_outcome.results, state)
        assert exec_outcome is not None

        # 6. Assemble answer segments from node evidence.
        segments, evidence_keys, cited = self._assemble(graph, exec_outcome.results, state)
        outcome.segments = segments
        outcome.evidence_keys = evidence_keys
        outcome.answer_text = "\n".join(
            f"[{name}] {text}" for name, text in segments.items()
        )

        # 7. Structural verification; failures count as internal rework.
        required = sorted({n.segment for n in graph.nodes.values() if n.segment})
        verdict = verify_output(segments, exec_outcome.trace, required, cited)
        outcome.verified = verdict.status
        if verdict.status == "fail":
            outcome.rework_internal += 1

        # 8. Cost accounting (exact, budget-capped).
        for result in exec_outcome.results:
            node = graph.nodes[result.node_id]
            if node.role == "model":
                entry = backends._model_entry(node)
                accumulate_cost(state.session, result.tokens, entry, config.budget_cap)
                total_cost = total_cost + result.cost
            else:
                state.session.add_cost(result.cost)
                total_cost = total_cost + result.cost
        outcome.cost = total_cost
        outcome.repair_count = len(graph.repair_log)
        outcome.rework_internal += outcome.repair_count

        # 9. Remember the turn.
        if config.memory_enabled:
            primary = next(iter(sorted(m.value for m in modalities)), "text")
            memory_store.add_turn(
                f"Q: {state.user_query}\nA: {outcome.answer_text[:400]}",
                Modality(primary),
                config.embedder,
                created_at_ms=clock.now_ms(),
            )
            memory_store.maybe_compress()
        state.session.turn_count += 1
        outcome.tta_ms = clock.now_ms() - t0
        return outcome

    # -- helpers -------------------------------------------------------------------

    def _ask_user(self, state, question, clarifier, clock, outcome) -> bool:
        state.clarify_question = question
        outcome.trace_rows.append(TraceRow(
            ts=clock.now_ms(), session_id=state.session.session_id, node_id="clarify",
            tool="supervisor", event="clarify",
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

    def _self_serve_resolution(self, state, memory_store, retrieved) -> str:
        marker = detect_underspecified(state.user_query)
        if not marker:
            return ""
        pool = list(memory_store.short_term) + list(retrieved)
        for record in pool:
            if marker in record.content.lower() and record.content != state.user_query:
                # A prior turn explains the elliptical reference; fold it in.
                state.clarify_response = None
                state.clarify_question = None
                return record.content
        return ""

    def _refine_graph(self, graph: ExecutionGraph, results: list[NodeResult], state) -> None:
        """Clarified queries re-run only the low-confidence node with focused
        parameters; completed work is preserved."""
        critical = [r for r in results if r.critical]
        if not critical:
            return
        worst = min(critical, key=lambda r: (r.confidence, r.node_id))
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
        node.status = "pending"

    def _assemble(self, graph, results, state):
        segments: dict[str, str] = {}
        evidence_keys: set[str] = set()
        cited: dict[str, list[str]] = {}
        for result in results:
            node = graph.nodes[result.node_id]
            payload = {k: v for k, v in result.output.items() if not k.startswith("_")}
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
            cited[node.segment] = [result.node_id]
        return segments, evidence_keys, cited


def detect_underspecified(query: str) -> Optional[str]:
    q = query.lower()
    for marker in UNDERSPEC_MARKERS:
        if marker in q:
            return marker
    return None


# --- session persistence -----------------------------------------------------------


def state_path(store_root: str, session_id: str) -> str:
    return os.path.join(store_root, f"{session_id}.state.json")


def trace_path(store_root: str, session_id: str) -> str:
    return os.path.join(store_root, f"{session_id}.trace.jsonl")


def save_state_file(store_root: str, state: QueryState) -> str:
    """Write-then-rename so interrupts never leave a half-written state file."""
    os.makedirs(store_root, exist_ok=True)
    path = state_path(store_root, state.session.session_id)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(serialize_state(state))
    os.replace(tmp, path)
    return path


def load_state_file(store_root: str, session_id: str) -> QueryState:
    with open(state_path(store_root, session_id), "rb") as fh:
        return deserialize_state(fh.read())


def append_trace_rows(store_root: str, session_id: str, rows: list[TraceRow]) -> str:
    """Append one JSON line per row.

    An unterminated last line, left by an interrupted append, is cut off
    first: readers drop it, and the new rows must not run on from it.
    """
    os.makedirs(store_root, exist_ok=True)
    path = trace_path(store_root, session_id)
    data = "".join(json.dumps(row.to_json_dict(), sort_keys=True) + "\n" for row in rows)
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(data.encode("utf-8"))
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
    return rows


def load_session_memory(store_root: str, session_id: str, **kwargs) -> MemoryStore:
    path = memory_path(store_root, session_id)
    if os.path.exists(path):
        return load_memory(path, **kwargs)
    return MemoryStore(**kwargs)


def save_session_memory(store_root: str, session_id: str, store: MemoryStore) -> str:
    os.makedirs(store_root, exist_ok=True)
    path = memory_path(store_root, session_id)
    save_memory(store, path)
    return path
