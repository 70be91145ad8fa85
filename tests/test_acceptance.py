"""Acceptance criteria. One test per criterion; each prints a PASS line with
the measured numbers and enforces its stated tolerance and runtime budget."""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from supervisord.clock import VirtualClock
from supervisord.couplet import BackendResult
from supervisord.decomposition import (
    FLAG_REQUIRED_MODALITIES,
    classify_flag_detail,
    reconcile_flag,
)
from supervisord.harness import PolicyConfig, compare, run_policy, throughput_from_report
from supervisord.memory import MemoryRecord, MemoryStore, score_memory
from supervisord.routing import (
    TIER_PRICE_BANDS,
    charge,
    default_model_catalog,
    invocation_cost,
)
from supervisord.scenarios import load_scenario, run_scenario
from supervisord.scheduler import ExecutionGraph, GraphNode, Scheduler
from supervisord.state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
    deserialize_state,
    serialize_state,
)
from supervisord.tools import LatencyPrior, Requirement, ToolCategory, ToolRegistry, ToolSpec
from supervisord.workload import default_workload_spec, generate_workload


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed() < self.limit, f"runtime {self.elapsed():.1f}s over budget {self.limit}s"


def _report(n, name, detail):
    print(f"ACCEPTANCE {n} {name}: PASS ({detail})")


# --- 1. round-trip and determinism ---------------------------------------------------


def _random_state(rng: random.Random) -> QueryState:
    modalities = list(Modality)
    flags = list(ExecutionFlag)
    attachments = []
    for i in range(rng.randint(0, 4)):
        attachments.append(
            Attachment(
                rng.choice(["path", "url"]),
                f"src-{rng.random()}",
                declared_name=rng.choice([None, f"file{i}.png", f"doc {i}.pdf"]),
                detected_modality=rng.choice([None] + modalities),
            )
        )
    question = rng.choice([None, "which fields?", "what granularity?"])
    return QueryState(
        user_query=rng.choice(["", "hello", "transcribe this", "compare α and β?"]),
        cost_knob=rng.choice(list(CostKnob)),
        session=SessionMeta(
            session_id=f"{rng.randint(0, 2**40)}-{rng.getrandbits(64):016x}",
            created_at_ms=rng.randint(0, 2**40),
            cumulative_cost=Money(rng.randint(0, 10**9)),
            turn_count=rng.randint(0, 500),
        ),
        clarify_question=question,
        clarify_response=rng.choice([None, "dates"]) if question else None,
        attachments=attachments,
        flag=rng.choice([None] + flags),
        subflag=rng.choice([None] + list(Subflag)),
    )


def test_acceptance_1_round_trip_and_determinism():
    budget = Budget(30)
    rng = random.Random(20260810)
    for _ in range(1000):
        state = _random_state(rng)
        data = serialize_state(state)
        assert serialize_state(deserialize_state(data)) == data

    spec = default_workload_spec(50, seed=6)
    queries = generate_workload(spec)
    report_a = run_policy(queries, "centralized", spec, seed=4)
    report_b = run_policy(generate_workload(spec), "centralized", spec, seed=4)
    bytes_a = json.dumps(report_a.to_json_dict(), sort_keys=True)
    bytes_b = json.dumps(report_b.to_json_dict(), sort_keys=True)
    assert bytes_a == bytes_b

    trace_a = [r.to_json_line() for r in run_scenario(load_scenario("video-advertisement")).trace_rows]
    trace_b = [r.to_json_line() for r in run_scenario(load_scenario("video-advertisement")).trace_rows]
    assert trace_a == trace_b
    budget.check()
    _report(1, "round-trip and determinism",
            f"1000 states bit-exact, identical reruns, {budget.elapsed():.1f}s")


# --- 2. memory oracle equivalence ----------------------------------------------------


def _random_store(rng: random.Random, size: int, dimension: int = 64) -> MemoryStore:
    store = MemoryStore(dimension=dimension)
    modalities = list(Modality)
    for i in range(size):
        vec = np.array([rng.gauss(0, 1) for _ in range(dimension)])
        vec /= np.linalg.norm(vec)
        store.store(
            MemoryRecord(f"m{i:05d}", f"note {i}", rng.choice(modalities), vec, i + 1)
        )
    return store


def _oracle_topk(store: MemoryStore, query, modality, k, now_turn):
    # Independent brute force: score every record, full-key sort.
    keyed = []
    for rec in store.full_history:
        score = score_memory(rec, query, modality, now_turn, store.weights, store.decay_rates)
        keyed.append(((-score, -rec.turn_index, rec.record_id), rec.record_id))
    keyed.sort(key=lambda item: item[0])
    return [record_id for _, record_id in keyed[:k]]


def test_acceptance_2_memory_oracle_equivalence():
    budget = Budget(120)
    rng = random.Random(99)
    sizes = [rng.randint(1, 400) for _ in range(196)] + [2000, 5000, 10_000, 1]
    assert len(sizes) == 200 and max(sizes) == 10_000
    dimension = 64
    for index, size in enumerate(sizes):
        store = _random_store(random.Random(1000 + index), size, dimension)
        qvec = np.array([random.Random(2000 + index).gauss(0, 1) for _ in range(dimension)])
        qvec /= np.linalg.norm(qvec)
        modality = list(Modality)[index % len(Modality)]
        got = [r.record_id for r in store.retrieve_relevant(qvec, modality, k=6)]
        expected = _oracle_topk(store, qvec, modality, 6, store.turn_count + 1)
        assert got == expected, f"store {index} (size {size}) diverged from oracle"

    budget.check()
    _report(2, "memory oracle equivalence",
            f"200 stores exact, {budget.elapsed():.1f}s")


# --- 3. scheduler critical-path law ---------------------------------------------------


class _FixedBackends:
    def __init__(self, latencies, failures=()):
        self.latencies = latencies
        self.failures = set(failures)

    def run_node(self, node, seed):
        attempt = len(node.failed_tools)
        if (node.node_id, attempt) in self.failures:
            from supervisord.errors import NodeFailure

            raise NodeFailure("scripted")
        return BackendResult(payload={"ok": True}, confidence=0.95,
                             latency_ms=self.latencies[node.node_id])

    def node_cost(self, node, invocation):
        return Money(0)


def _independent_longest_path(nodes, edges, latencies):
    # Kahn topological order + DP, written apart from the scheduler.
    parents = {n: {p for p, c in edges if c == n} for n in nodes}
    pending = {n: set(ps) for n, ps in parents.items()}
    outgoing = {n: set() for n in nodes}
    for producer, consumer in edges:
        outgoing[producer].add(consumer)
    ready = [n for n in nodes if not pending[n]]
    finish = {}
    while ready:
        node = ready.pop()
        finish[node] = latencies[node] + max((finish[p] for p in parents[node]), default=0)
        for child in outgoing[node]:
            pending[child].discard(node)
            if not pending[child]:
                ready.append(child)
    return max(finish.values(), default=0)


def _random_dag(rng, registry, max_nodes=30):
    requirement = Requirement(output_tags=frozenset({"ok"}))
    tool = registry.match_tools(requirement)[0]
    graph = ExecutionGraph()
    n = rng.randint(1, max_nodes)
    latencies = {}
    for i in range(n):
        node_id = f"n{i}"
        graph.add_node(GraphNode(node_id, tool, requirement, role="perceptual"))
        latencies[node_id] = rng.randint(1, 3000)
        for j in range(i):
            if rng.random() < 0.15:
                graph.add_edge(f"n{j}", node_id)
    return graph, latencies


def _stub_registry():
    registry = ToolRegistry()
    for i in range(3):
        registry.register_tool(ToolSpec(
            name=f"stub-{i}",
            category=ToolCategory.ORCHESTRATION,
            input_modalities=frozenset(),
            output_tags=frozenset({"ok"}),
            latency_prior=LatencyPrior(50, 50),
        ))
    return registry


def test_acceptance_3_critical_path_and_repair_preservation():
    budget = Budget(60)
    registry = _stub_registry()
    rng = random.Random(77)
    for _ in range(500):
        graph, latencies = _random_dag(rng, registry)
        outcome = Scheduler(registry).execute(
            graph, VirtualClock(), _FixedBackends(latencies), seed=1
        )
        edges = [(p, c) for c in graph.nodes for p in graph.parents(c)]
        expected = _independent_longest_path(list(graph.nodes), edges, latencies)
        assert outcome.total_latency_ms == expected

    preserved_checks = 0
    for _ in range(50):
        graph, latencies = _random_dag(rng, registry, max_nodes=12)
        victim = rng.choice(list(graph.nodes))
        backends = _FixedBackends(latencies, failures={(victim, 0)})
        outcome = Scheduler(registry).execute(graph, VirtualClock(), backends, seed=1)
        # one done or failed row per attempt
        attempts = [row.node_id for row in outcome.trace if row.event in ("done", "failed")]
        # every node other than the repaired victim executed exactly once
        for node_id in graph.nodes:
            expected_attempts = 2 if node_id == victim else 1
            assert attempts.count(node_id) == expected_attempts
        assert graph.repair_log and graph.repair_log[0].failed_node == victim
        done_at_failure = graph.repair_log[0].preserved_nodes
        assert done_at_failure == sum(
            1 for row in outcome.trace
            if row.event == "done" and row.ts <= _failure_ts(outcome.trace)
            and row.node_id != victim
        )
        preserved_checks += 1
    assert preserved_checks == 50
    budget.check()
    _report(3, "critical-path law and repair locality",
            f"500 DAGs exact, 50 repairs preserved done work, {budget.elapsed():.1f}s")


def _failure_ts(trace):
    return next(row.ts for row in trace if row.event == "failed")


# --- 4. cost accounting exactness ------------------------------------------------------


def test_acceptance_4_cost_exactness_and_tier_bands():
    budget = Budget(5)
    session = SessionMeta("0-" + "00" * 8, 0)
    catalog = default_model_catalog()

    from supervisord.routing import ModelCatalogEntry

    fixtures = [
        (1_000_000, "2.50", "0", "2.500000"),
        (0, "2.50", "0", "2.500000"),  # running total unchanged by zero tokens
        (400_000, "0.15", "0.001", "2.561000"),
        (123_457, "3.75", "0", "3.023964"),  # 462,963.75 micro rounds half-even
    ]
    for tokens, per_mtok, fee, expected_total in fixtures:
        entry = ModelCatalogEntry(
            model_name="fixture", tier=CostKnob.CLOSED_SRC, subflag_affinity=None,
            cost_per_mtok=Money.from_usd(per_mtok), per_request_fee=Money.from_usd(fee),
        )
        charge(session, invocation_cost(entry, tokens))
        assert session.cumulative_cost.usd_str() == expected_total

    for entry in catalog.entries:
        low, high = TIER_PRICE_BANDS[entry.tier]
        assert low <= entry.cost_per_mtok <= high, entry.model_name
    assert TIER_PRICE_BANDS[CostKnob.TRAD_COUPLET][0].usd_str() == "0.150000"
    assert TIER_PRICE_BANDS[CostKnob.CLOSED_SRC][1].usd_str() == "5.000000"
    budget.check()
    _report(4, "cost accounting exactness",
            f"hand fixtures at 1e-6 USD, catalog in tier bands, {budget.elapsed():.2f}s")


# --- 5. decomposition safety ------------------------------------------------------------


def test_acceptance_5_decomposition_safety_and_fixture_accuracy():
    budget = Budget(10)
    rng = random.Random(5)
    flags = list(ExecutionFlag)
    modalities = list(Modality)
    for _ in range(10_000):
        flag = rng.choice(flags)
        modality_set = {m for m in modalities if rng.random() < 0.4}
        result = reconcile_flag(flag, modality_set)
        required = FLAG_REQUIRED_MODALITIES.get(result)
        if required is not None:
            assert required & modality_set, (flag, modality_set, result)

    from importlib import resources

    rows = json.loads(
        resources.files("supervisord.data").joinpath("labeled_queries.json").read_text()
    )
    assert len(rows) == 150
    correct = sum(
        classify_flag_detail(row["query"], {Modality(m) for m in row["modalities"]}).flag.value
        == row["expected_flag"]
        for row in rows
    )
    assert correct == 150
    budget.check()
    _report(5, "decomposition safety",
            f"10k reconciliation fuzz clean, 150/150 labeled queries, {budget.elapsed():.1f}s")


# --- 6. paper-delta reproduction under calibration ---------------------------------------


@pytest.fixture(scope="module")
def default_runs():
    spec = default_workload_spec(1000)
    queries = generate_workload(spec)
    centralized = run_policy(queries, "centralized", spec, seed=5)
    hierarchical = run_policy(queries, "hierarchical", spec, seed=5)
    return spec, queries, centralized, hierarchical


def test_acceptance_6_paper_deltas_under_calibration(default_runs):
    budget = Budget(300)
    _, _, centralized, hierarchical = default_runs
    delta = compare(centralized, hierarchical)
    assert 60.0 <= delta.tta_reduction_median_pct <= 80.0
    assert delta.rework_reduction_pct >= 75.0
    assert 55.0 <= delta.cost_reduction_pct <= 75.0
    ratio = throughput_from_report(centralized, 64) / throughput_from_report(hierarchical, 64)
    assert ratio >= 1.10
    assert abs(delta.accuracy_delta_pp) <= 1.0
    budget.check()
    _report(6, "paper deltas under calibration",
            f"TTA -{delta.tta_reduction_median_pct:.1f}% "
            f"(IQR {delta.tta_reduction_p25_pct:.1f}-{delta.tta_reduction_p75_pct:.1f}), "
            f"rework -{delta.rework_reduction_pct:.1f}%, "
            f"cost -{delta.cost_reduction_pct:.1f}%, throughput x{ratio:.2f}, "
            f"accuracy {delta.accuracy_delta_pp:+.2f}pp, {budget.elapsed():.1f}s")


# --- 7. case-study scenarios ---------------------------------------------------------------


def _attempt_starts(rows):
    """node_id -> start of its last attempt: the ending row's `ts - latency_ms`."""
    return {r.node_id: r.ts - r.latency_ms for r in rows if r.event in ("done", "failed")}


def test_acceptance_7_case_study_scenarios():
    budget = Budget(20)

    financial = run_scenario(load_scenario("financial-analysis"))
    assert financial.flag is ExecutionFlag.COMPLEX
    starts = _attempt_starts(financial.trace_rows)
    branch_starts = [ts for node, ts in starts.items() if node.startswith("branch")]
    assert len(branch_starts) == 3 and len(set(branch_starts)) == 1  # parallel fan-out
    assert starts["synth"] > max(branch_starts)  # synthesis joins the branches
    assert financial.segments["synthesis"]

    video = run_scenario(load_scenario("video-advertisement"))
    assert video.flag is ExecutionFlag.VIDEO
    starts = _attempt_starts(video.trace_rows)
    assert starts["frames"] == starts["speech"]  # two parallel branches
    done = {r.node_id: r.ts for r in video.trace_rows if r.event == "done"}
    assert starts["align"] >= max(done["frames"], done["speech"])  # temporal join
    assert "Nike Air Jordan sneakers" in video.segments["timeline"]

    handwritten = run_scenario(load_scenario("handwritten-notes"))
    events = [r.event for r in handwritten.trace_rows]
    assert "repaired" in events and "clarify" in events
    assert events.index("repaired") < events.index("clarify")  # repair, then one question
    assert events.count("clarify") == 1
    assert handwritten.clarifications_user == 1
    assert handwritten.repair_count == 1
    budget.check()
    _report(7, "case-study scenarios",
            f"3-branch fan-out, parallel video join, repair-then-clarify, {budget.elapsed():.1f}s")


# --- 8. ablation direction checks ------------------------------------------------------------


def test_acceptance_8_ablation_directions(default_runs):
    budget = Budget(600)
    spec, queries, base, _ = default_runs
    base_tta = base.aggregates["tta_mean_ms"]
    base_rework = base.aggregates["rework_rate"]

    no_parallel = run_policy(queries, "centralized", spec,
                             PolicyConfig(parallel_enabled=False), seed=5)
    parallel_regression = no_parallel.aggregates["tta_mean_ms"] / base_tta - 1.0
    assert parallel_regression >= 0.10  # magnitude floor

    no_memory = run_policy(queries, "centralized", spec,
                           PolicyConfig(memory_enabled=False), seed=5)
    assert no_memory.aggregates["rework_rate"] > base_rework

    no_repair = run_policy(queries, "centralized", spec,
                           PolicyConfig(repair_enabled=False), seed=5)
    assert (
        no_repair.aggregates["tta_mean_ms"] > base_tta
        or no_repair.aggregates["rework_rate"] > base_rework
    )
    assert no_repair.aggregates["tta_mean_ms"] > base_tta
    budget.check()
    _report(8, "ablation directions",
            f"no-parallel +{parallel_regression*100:.1f}% TTA, "
            f"no-memory rework {no_memory.aggregates['rework_rate']:.3f} vs {base_rework:.3f}, "
            f"no-repair +{(no_repair.aggregates['tta_mean_ms']/base_tta-1)*100:.1f}% TTA, "
            f"{budget.elapsed():.1f}s")
