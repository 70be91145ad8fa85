"""Policy simulation over a workload.

Runs a generated or loaded workload (`workload.py`) under three orchestration
policies (centralized engine, fixed decision-tree hierarchical baseline,
monolithic strong-model baseline) on the virtual clock, and reports TTA,
rework, cost, accuracy, and throughput, per policy and as deltas.

A policy run seeds no `random.Random`: it draws each latency and failure with
`couplet.keyed_uniform`, keyed by the run seed and the query, and every policy
keys a failure by (query and restart, tool, occurrence of the tool, attempt),
so the policies fail on the same draws (docs/policies.md, "Random draws"). The
two fixed baselines are one runner over two plans.

The shipped default configuration is calibrated so the hierarchical baseline
exhibits roughly 23% user rework; the comparison validates the orchestration
mechanism under that calibration, not any external corpus.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple, Optional

from .couplet import (
    DEFAULT_FIXTURE_TOKENS,
    DETECT_MS_PER_FRAME,
    SimulatedBackend,
    keyed_uniform,
)
from .engine import ANSWER_TOKENS, CLARIFY_USER_DELAY_MS, EngineConfig, Supervisor
from .memory import MemoryStore, whitespace_tokens
from .routing import invocation_cost
from .state import (
    Attachment,
    CostKnob,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
)
from .workload import CATEGORY_TABLE, GeneratedQuery, GroundTruth, WorkloadSpec, workload_digest

# The benchmark workloads call these two here, and trace the generator by patching it here.
from .workload import default_workload_spec, generate_workload

POLICIES = ("centralized", "hierarchical", "monolithic")

RESTART_CAP = 8
SIM_USER_REPLY = "dates and totals please"
MONO_MS_PER_PERCEPT = 2400  # end-to-end LLM vision per frame or attachment


# --- metrics ------------------------------------------------------------------------


@dataclass
class QueryRecord:
    query_id: str
    category: str
    tta_ms: int
    correct: bool
    rework_user: bool
    rework_internal: int
    cost_usd: str
    work_ms: int = 0

    def to_json_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class MetricsReport:
    policy: str
    workload_digest: str
    seed: int
    per_query: list[QueryRecord]
    aggregates: dict[str, Any] = field(default_factory=dict)

    def compute_aggregates(self) -> dict[str, Any]:
        ttas = [r.tta_ms for r in self.per_query]
        costs = [Money.from_usd(r.cost_usd) for r in self.per_query]
        n = len(self.per_query)
        mean_cost = Money(sum(c.micros for c in costs) // n) if n else Money(0)
        if n >= 2:
            p25, _, p75 = statistics.quantiles(ttas, n=4, method="inclusive")
        else:
            p25 = p75 = float(ttas[0]) if ttas else 0
        agg = {
            "queries": n,
            "tta_median_ms": statistics.median(ttas) if ttas else 0,
            "tta_p25_ms": p25,
            "tta_p75_ms": p75,
            "tta_mean_ms": statistics.fmean(ttas) if ttas else 0.0,
            "accuracy": (sum(1 for r in self.per_query if r.correct) / n) if n else 0.0,
            "rework_rate": (sum(1 for r in self.per_query if r.rework_user) / n) if n else 0.0,
            "rework_internal_mean": (
                statistics.fmean(r.rework_internal for r in self.per_query) if n else 0.0
            ),
            "mean_cost_usd": mean_cost.usd_str(),
            "throughput_qps": (
                1000.0 / statistics.fmean(ttas) if ttas and statistics.fmean(ttas) > 0 else 0.0
            ),
        }
        return agg

    def finalize(self) -> "MetricsReport":
        self.aggregates = self.compute_aggregates()
        return self

    def check_self_consistency(self) -> bool:
        return self.aggregates == self.compute_aggregates()

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "workload_digest": self.workload_digest,
            "seed": self.seed,
            "aggregates": self.aggregates,
            "per_query": [r.to_json_dict() for r in self.per_query],
        }

    def render_table(self) -> str:
        a = self.aggregates
        rows = [
            ("queries", str(a["queries"])),
            ("median TTA (ms)", f"{a['tta_median_ms']:.0f}"),
            ("TTA IQR (ms)", f"{a['tta_p25_ms']:.0f}-{a['tta_p75_ms']:.0f}"),
            ("accuracy", f"{a['accuracy']*100:.1f}%"),
            ("user rework rate", f"{a['rework_rate']*100:.1f}%"),
            ("internal rework (mean)", f"{a['rework_internal_mean']:.2f}"),
            ("mean cost / query", f"${a['mean_cost_usd']}"),
            ("serial throughput (q/s)", f"{a['throughput_qps']:.2f}"),
        ]
        width = max(len(k) for k, _ in rows)
        lines = [f"policy: {self.policy}"]
        lines += [f"  {k.ljust(width)}  {v}" for k, v in rows]
        return "\n".join(lines)


# --- policies -----------------------------------------------------------------------


# Policies run on the run's EngineConfig. The old name stays because the
# benchmark workloads construct `PolicyConfig()` and pass it positionally.
PolicyConfig = EngineConfig


def _sim_session(seed: int, policy: str, query_id: str) -> SessionMeta:
    suffix = hashlib.blake2b(f"{seed}|{policy}|{query_id}".encode(), digest_size=8).hexdigest()
    return SessionMeta(session_id=f"0-{suffix}", created_at_ms=0)


def _is_correct(outcome, gt: GroundTruth) -> bool:
    if outcome.failed:
        return False
    if outcome.flag is not gt.expected_flag:
        return False
    if not gt.evidence_keys <= outcome.evidence_keys:
        return False
    for segment in gt.required_segments:
        if not outcome.segments.get(segment, "").strip():
            return False
    return True


def _run_centralized(
    queries: list[GeneratedQuery],
    spec: WorkloadSpec,
    config: EngineConfig,
    seed: int,
) -> list[QueryRecord]:
    config = replace(config, seed=seed)
    supervisor = Supervisor(config)
    records: list[QueryRecord] = []
    for q in queries:
        total_tta = 0
        total_work = 0
        total_cost = Money(0)
        clarifications = 0
        internal = 0
        outcome = None
        for restart in range(RESTART_CAP + 1):
            memory = MemoryStore()
            if q.ground_truth.memory_hint:
                memory.add_turn(q.ground_truth.memory_hint, Modality.TEXT, supervisor.embedder)
            state = QueryState(
                user_query=q.text,
                cost_knob=CostKnob.TRAD_COUPLET,
                session=_sim_session(seed, "centralized", q.query_id),
                attachments=[
                    Attachment(a.source_kind, a.source, a.declared_name, a.detected_modality)
                    for a in q.attachments
                ],
            )
            outcome = supervisor.process(
                state,
                memory_store=memory,
                perceptual_backend=SimulatedBackend(q.fixtures),
                clarifier=lambda question: SIM_USER_REPLY,
                query_seed=restart,
                failure_rates=spec.failure_injection,
                query_id=f"{q.query_id}#r{restart}",
            )
            total_tta += outcome.tta_ms
            total_work += _work_ms(outcome)
            total_cost = total_cost + outcome.cost
            clarifications += outcome.clarifications_user
            internal += outcome.repair_count
            if not outcome.failed:
                break
            # Repair could not recover (budget exhausted or disabled): the
            # failure surfaces to the user, who asks again after a delay.
            clarifications += 1
            total_tta += CLARIFY_USER_DELAY_MS
            internal += 1
        records.append(
            QueryRecord(
                query_id=q.query_id,
                category=q.category,
                tta_ms=total_tta,
                correct=_is_correct(outcome, q.ground_truth),
                rework_user=clarifications > 0,
                rework_internal=internal,
                cost_usd=total_cost.usd_str(),
                work_ms=total_work,
            )
        )
    return records


def _work_ms(outcome) -> int:
    # Worker occupancy: every attempt's latency, failed ones too, excluding
    # human wait time; only the rows that end an attempt carry a latency.
    return sum(r.latency_ms or 0 for r in outcome.trace_rows)


# The fixed baselines run one plan per query: a fixed sequence of stage tools
# with no scored memory, no win prediction and no local repair, so any stage
# failure restarts the whole plan. The hierarchical (decision-tree) plan runs
# its category's `stages` between mandatory coordination stages and a
# strong-model synthesis; the monolithic plan is the strong model alone.
_HIER_OVERHEAD = ("complexity-analyze", "pipeline-coordinate", "memory-retrieve")
_STRONG_STAGE = "llm-strong-invoke"
_WEAK_STAGE = "slm-weak-invoke"


class _Plan(NamedTuple):
    """One query's fixed pipeline: its stage tools in order, the strong
    model's token count, and the perception ms added to the strong stage."""

    stages: tuple[str, ...]
    strong_tokens: int
    strong_extra_ms: int


def _frames(q: GeneratedQuery) -> Optional[int]:
    """Frame count of the query's video fixture, or None without one."""
    return next((int(f["frames"]) for f in q.fixtures.values() if f.get("frames")), None)


def _evidence_tokens(q: GeneratedQuery) -> int:
    return sum(f.get("tokens", DEFAULT_FIXTURE_TOKENS) for f in q.fixtures.values())


def _hierarchical_plan(q: GeneratedQuery) -> _Plan:
    return _Plan(
        (*_HIER_OVERHEAD, *CATEGORY_TABLE[q.category].stages, _STRONG_STAGE),
        whitespace_tokens(q.text) + _evidence_tokens(q) + 300,
        0,
    )


def _monolithic_plan(q: GeneratedQuery) -> _Plan:
    return _Plan(
        (_STRONG_STAGE,),
        whitespace_tokens(q.text) + 4 * _evidence_tokens(q) + 500,
        MONO_MS_PER_PERCEPT * (_frames(q) or len(q.attachments)),
    )


_PLANS = {"hierarchical": _hierarchical_plan, "monolithic": _monolithic_plan}


def _run_fixed_plan(
    queries: list[GeneratedQuery],
    spec: WorkloadSpec,
    config: EngineConfig,
    seed: int,
    plan_for,
) -> list[QueryRecord]:
    """Run each query's plan (`plan_for(query)`) until an attempt completes,
    restarting the whole plan at most `RESTART_CAP` times; the query is
    correct when an attempt completed."""
    registry = config.registry
    strong_model = config.catalog.strongest(CostKnob.CLOSED_SRC)
    # Plan stages -> (per stage: tool, the tool's occurrence in the plan (a
    # stage's site, as a centralized node's failure draw is keyed), tool id,
    # per-invocation fee in micros and injected failure rate; the weak model
    # its `slm-weak-invoke` stages call, or None).
    plans: dict[tuple[str, ...], tuple] = {}

    records: list[QueryRecord] = []
    for q in queries:
        plan = plan_for(q)
        if plan.stages not in plans:
            steps = []
            for index, tool in enumerate(plan.stages):
                tool_id = registry.id_for_name(tool)
                fee = registry.get(tool_id).cost.per_invocation.micros
                rate = spec.failure_injection.get(tool, 0.0)
                steps.append((tool, plan.stages[:index].count(tool), tool_id, fee, rate))
            weak_model = None
            if _WEAK_STAGE in plan.stages:
                tier = registry.get(registry.id_for_name(_WEAK_STAGE)).tier
                weak_model = config.catalog.weak_model(Subflag.GENERAL, tier)
            plans[plan.stages] = steps, weak_model
        steps, weak_model = plans[plan.stages]
        frames = _frames(q)
        # A completed model stage pays its catalog model for its tokens.
        model_micros = {_STRONG_STAGE: invocation_cost(strong_model, plan.strong_tokens).micros}
        if weak_model is not None:
            model_micros[_WEAK_STAGE] = invocation_cost(
                weak_model, whitespace_tokens(q.text) + ANSWER_TOKENS
            ).micros

        def attempt(run_key: str, may_fail: bool) -> tuple[int, int, bool]:
            """Latency, cost in micros of one run of the plan, and whether it completed.
            `run_key` keys its draws; without `may_fail` no failure is drawn."""
            elapsed = paid = 0
            for tool, occurrence, tool_id, fee, rate in steps:
                if tool == "yolo-detect" and frames:
                    elapsed += DETECT_MS_PER_FRAME * frames
                else:
                    elapsed += registry.sample_latency(
                        tool_id, keyed_uniform(seed, run_key, tool, occurrence, "latency", 0)
                    )
                if tool == _STRONG_STAGE:
                    elapsed += plan.strong_extra_ms
                # A draw is never below 0.0, so a zero rate draws nothing. The
                # key is the centralized engine's for the same tool on the same
                # run. A failed stage pays its tool's fee.
                if may_fail and rate > 0 and keyed_uniform(
                    seed, run_key, tool, occurrence, "failure", 0
                ) < rate:
                    return elapsed, paid + fee, False
                paid += model_micros.get(tool, fee)
            return elapsed, paid, True

        tta = cost = restarts = 0
        for restart in range(RESTART_CAP + 1):
            elapsed, paid, correct = attempt(f"{q.query_id}#r{restart}", True)
            tta += elapsed
            cost += paid
            if correct:
                break
            restarts += 1

        work = tta
        if q.ground_truth.ambiguous and correct:
            # user clarifies, then the fixed plan runs once more
            elapsed, paid, _ = attempt(f"{q.query_id}#clar", False)
            tta += CLARIFY_USER_DELAY_MS + elapsed
            work += elapsed
            cost += paid

        records.append(
            QueryRecord(
                query_id=q.query_id,
                category=q.category,
                tta_ms=tta,
                correct=correct,
                # a fixed plan cannot self-serve ellipsis
                rework_user=q.ground_truth.ambiguous,
                rework_internal=restarts,
                cost_usd=Money(cost).usd_str(),
                work_ms=work,
            )
        )
    return records


def run_policy(
    queries: list[GeneratedQuery],
    policy: str,
    spec: WorkloadSpec,
    config: Optional[EngineConfig] = None,
    seed: int = 0,
) -> MetricsReport:
    """Execute one policy over a generated workload and aggregate metrics.

    Every policy takes its tools and models from `config`; the centralized
    engine also takes its flag rules and switches. `seed` replaces `config.seed`.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    config = config or EngineConfig()
    if policy == "centralized":
        records = _run_centralized(queries, spec, config, seed)
    else:
        records = _run_fixed_plan(queries, spec, config, seed, _PLANS[policy])
    report = MetricsReport(
        policy=policy,
        workload_digest=workload_digest(queries),
        seed=seed,
        per_query=records,
    )
    return report.finalize()


# --- comparison -----------------------------------------------------------------------


@dataclass
class DeltaReport:
    tta_reduction_median_pct: float
    tta_reduction_p25_pct: float
    tta_reduction_p75_pct: float
    rework_reduction_pct: float
    cost_reduction_pct: float
    throughput_ratio: float
    accuracy_delta_pp: float
    accuracy_interval_pp: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "tta_reduction_median_pct": self.tta_reduction_median_pct,
            "tta_reduction_iqr_pct": [self.tta_reduction_p25_pct, self.tta_reduction_p75_pct],
            "rework_reduction_pct": self.rework_reduction_pct,
            "cost_reduction_pct": self.cost_reduction_pct,
            "throughput_ratio": self.throughput_ratio,
            "accuracy_delta_pp": self.accuracy_delta_pp,
            "accuracy_interval_pp": list(self.accuracy_interval_pp),
        }

    def render_table(self) -> str:
        rows = [
            ("median TTA reduction", f"{self.tta_reduction_median_pct:.1f}%"),
            (
                "TTA reduction IQR",
                f"{self.tta_reduction_p25_pct:.1f}%-{self.tta_reduction_p75_pct:.1f}%",
            ),
            ("user rework reduction", f"{self.rework_reduction_pct:.1f}%"),
            ("cost reduction", f"{self.cost_reduction_pct:.1f}%"),
            ("throughput ratio", f"{self.throughput_ratio:.2f}x"),
            ("accuracy delta", f"{self.accuracy_delta_pp:+.2f}pp"),
            (
                "accuracy 95% interval",
                f"[{self.accuracy_interval_pp[0]:+.2f}, {self.accuracy_interval_pp[1]:+.2f}]pp",
            ),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"  {k.ljust(width)}  {v}" for k, v in rows)


def compare(candidate: MetricsReport, baseline: MetricsReport) -> DeltaReport:
    """Deltas of `candidate` relative to `baseline` over the same workload."""
    base_by_id = {r.query_id: r for r in baseline.per_query}
    reductions = []
    for rec in candidate.per_query:
        base = base_by_id[rec.query_id]
        if base.tta_ms > 0:
            reductions.append(100.0 * (base.tta_ms - rec.tta_ms) / base.tta_ms)
    reductions.sort()
    if len(reductions) >= 2:
        quartiles = statistics.quantiles(reductions, n=4, method="inclusive")
        p25, p75 = quartiles[0], quartiles[2]
    else:
        p25 = p75 = reductions[0] if reductions else 0.0
    cand_a, base_a = candidate.aggregates, baseline.aggregates
    rework_reduction = (
        100.0 * (base_a["rework_rate"] - cand_a["rework_rate"]) / base_a["rework_rate"]
        if base_a["rework_rate"] > 0
        else 0.0
    )
    base_cost = float(base_a["mean_cost_usd"])
    cand_cost = float(cand_a["mean_cost_usd"])
    cost_reduction = 100.0 * (base_cost - cand_cost) / base_cost if base_cost > 0 else 0.0
    accuracy_delta = 100.0 * (cand_a["accuracy"] - base_a["accuracy"])
    interval = _two_proportion_interval(
        cand_a["accuracy"], base_a["accuracy"], len(candidate.per_query), len(baseline.per_query)
    )
    return DeltaReport(
        tta_reduction_median_pct=statistics.median(reductions) if reductions else 0.0,
        tta_reduction_p25_pct=p25,
        tta_reduction_p75_pct=p75,
        rework_reduction_pct=rework_reduction,
        cost_reduction_pct=cost_reduction,
        throughput_ratio=(
            cand_a["throughput_qps"] / base_a["throughput_qps"]
            if base_a["throughput_qps"] > 0
            else 0.0
        ),
        accuracy_delta_pp=accuracy_delta,
        accuracy_interval_pp=interval,
    )


def _two_proportion_interval(p1: float, p2: float, n1: int, n2: int) -> tuple[float, float]:
    if n1 == 0 or n2 == 0:
        return (0.0, 0.0)
    se = (p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2) ** 0.5
    delta = p1 - p2
    return (100.0 * (delta - 1.96 * se), 100.0 * (delta + 1.96 * se))


def per_query_delta_csv(candidate: MetricsReport, baseline: MetricsReport) -> str:
    base_by_id = {r.query_id: r for r in baseline.per_query}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["query_id", "category", "tta_ms_candidate", "tta_ms_baseline",
         "tta_reduction_pct", "cost_candidate_usd", "cost_baseline_usd"]
    )
    for rec in candidate.per_query:
        base = base_by_id[rec.query_id]
        reduction = (
            100.0 * (base.tta_ms - rec.tta_ms) / base.tta_ms if base.tta_ms else 0.0
        )
        writer.writerow(
            [rec.query_id, rec.category, rec.tta_ms, base.tta_ms,
             f"{reduction:.2f}", rec.cost_usd, base.cost_usd]
        )
    return buf.getvalue()


# --- throughput -----------------------------------------------------------------------

THROUGHPUT_WORKERS = 16  # size of the worker pool the concurrent sessions share


def throughput_from_report(report: MetricsReport, parallel_sessions: int) -> float:
    """Queries per simulated second with concurrent sessions over a shared pool.

    Fluid model: the makespan is bounded below by both total worker occupancy
    divided by pool size and by the busiest session's sequential span. A single
    serial session therefore degenerates to 1000 / mean TTA.
    """
    if parallel_sessions < 1:
        raise ValueError("parallel_sessions must be at least 1")
    records = report.per_query
    if not records:
        return 0.0
    total_work_ms = sum(r.work_ms for r in records)
    session_spans = [0] * parallel_sessions
    for i, rec in enumerate(records):
        session_spans[i % parallel_sessions] += rec.tta_ms
    makespan_ms = max(total_work_ms / THROUGHPUT_WORKERS, max(session_spans))
    if makespan_ms <= 0:
        return 0.0
    return len(records) * 1000.0 / makespan_ms
