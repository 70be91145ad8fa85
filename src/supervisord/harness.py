"""Synthetic workloads and policy simulation.

Generates deterministic multimodal workloads across fifteen task categories,
runs them under three orchestration policies (centralized engine, fixed
decision-tree hierarchical baseline, monolithic strong-model baseline) on the
virtual clock, and reports TTA, rework, cost, accuracy, and throughput.

The shipped default configuration is calibrated so the hierarchical baseline
exhibits roughly 23% user rework; the comparison validates the orchestration
mechanism under that calibration, not any external corpus.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from .clock import VirtualClock
from .couplet import DETECT_MS_PER_FRAME, SimulatedBackend, stable_seed
from .engine import CLARIFY_USER_DELAY_MS, EngineConfig, Supervisor, detect_underspecified
from .errors import IncomparableReports, WorkloadSpecError
from .memory import MemoryStore, whitespace_tokens
from .routing import invocation_cost
from .state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
)


@dataclass(frozen=True)
class Category:
    """Everything the harness states about one task category.

    `flag`, `evidence` and `segments` are the ground truth of its queries,
    stated here rather than read from the engine's tables so that the engine
    is judged against an independent statement. `stages` is its chain in the
    hierarchical baseline, `extension` the file type of its attachments.
    """

    flag: ExecutionFlag
    evidence: frozenset[str]
    segments: frozenset[str]
    stages: tuple[str, ...] = ()
    extension: Optional[str] = None


_TEXT_CATEGORY = Category(
    ExecutionFlag.ROUTELLM, frozenset({"answer_text"}), frozenset({"answer"})
)
_EXTRACTION = frozenset({"extraction"})
_DETECTIONS = frozenset({"detections"})
_TRANSCRIPT = frozenset({"transcript"})

# Row order is the generator's category order: shuffling and workload digests
# depend on it.
CATEGORY_TABLE: dict[str, Category] = {
    "text_reasoning": _TEXT_CATEGORY,
    "coding_assistance": _TEXT_CATEGORY,
    "analytical_mathematics": _TEXT_CATEGORY,
    "summarization_rewriting": _TEXT_CATEGORY,
    "general_qa": _TEXT_CATEGORY,
    "document_qa": Category(
        ExecutionFlag.DOCUMENT, frozenset({"text_blocks"}), _EXTRACTION, ("pdf-parse",), "pdf"
    ),
    "ocr_extraction": Category(
        ExecutionFlag.DOCUMENT, frozenset({"text_blocks"}), _EXTRACTION, ("tesseract-ocr",), "pdf"
    ),
    "table_extraction": Category(
        ExecutionFlag.DOCUMENT, frozenset({"tables"}), _EXTRACTION, ("table-extract",), "xlsx"
    ),
    "vision_qa": Category(ExecutionFlag.VISION, _DETECTIONS, _DETECTIONS, ("yolo-detect",), "jpg"),
    "object_detection": Category(
        ExecutionFlag.VISION, _DETECTIONS, _DETECTIONS, ("yolo-detect",), "png"
    ),
    "audio_transcription": Category(
        ExecutionFlag.AUDIO, _TRANSCRIPT, _TRANSCRIPT, ("whisper-transcribe",), "mp3"
    ),
    "audio_reasoning": Category(
        ExecutionFlag.AUDIO, _TRANSCRIPT, _TRANSCRIPT, ("whisper-transcribe",), "wav"
    ),
    "video_analysis": Category(
        ExecutionFlag.VIDEO,
        frozenset({"detections", "transcript", "timeline"}),
        frozenset({"timeline"}),
        ("yolo-detect", "whisper-transcribe", "temporal-align"),
        "mp4",
    ),
    "mixed_retrieval": Category(
        ExecutionFlag.MOE,
        frozenset({"answer_text", "aggregation"}),
        frozenset({"answer"}),
        ("slm-weak-invoke", "slm-weak-invoke", "slm-weak-invoke", "ensemble-aggregate"),
    ),
    "complex_orchestration": Category(
        ExecutionFlag.COMPLEX,
        frozenset({"tables", "synthesis"}),
        frozenset({"synthesis", "part_0", "part_1", "part_2"}),
        ("table-extract", "table-extract", "table-extract", "result-synthesize"),
        "pdf",
    ),
}
CATEGORIES: tuple[str, ...] = tuple(CATEGORY_TABLE)

POLICIES = ("centralized", "hierarchical", "monolithic")

RESTART_CAP = 8
SIM_USER_REPLY = "dates and totals please"
MONO_MS_PER_PERCEPT = 2400  # end-to-end LLM vision per frame or attachment

DEFAULT_FAILURE_INJECTION = {
    "yolo-detect": 0.08,
    "whisper-transcribe": 0.08,
    "tesseract-ocr": 0.08,
    "pdf-parse": 0.08,
    "table-extract": 0.08,
}


def _check_rate(value, field_path: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise WorkloadSpecError(f"{field_path} must be a number in [0,1]", field_path)


@dataclass
class WorkloadSpec:
    total_queries: int
    category_mix: dict[str, float] = field(
        default_factory=lambda: {c: 1.0 / len(CATEGORIES) for c in CATEGORIES}
    )
    seed: int = 20260810
    failure_injection: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FAILURE_INJECTION)
    )
    ambiguity_rate: float = 0.23
    memory_hint_rate: float = 0.85

    def validate(self) -> None:
        if self.total_queries <= 0:
            raise WorkloadSpecError("total_queries must be positive", "total_queries")
        missing = set(CATEGORIES) - set(self.category_mix)
        if missing:
            raise WorkloadSpecError(
                f"category_mix missing categories: {sorted(missing)}", "category_mix"
            )
        extra = set(self.category_mix) - set(CATEGORIES)
        if extra:
            raise WorkloadSpecError(
                f"category_mix has unknown categories: {sorted(extra)}", "category_mix"
            )
        total = sum(self.category_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadSpecError(
                f"category_mix proportions sum to {total!r}, expected 1.0", "category_mix"
            )
        if any(v < 0 for v in self.category_mix.values()):
            raise WorkloadSpecError("category_mix proportions must be nonnegative", "category_mix")
        _check_rate(self.ambiguity_rate, "ambiguity_rate")
        _check_rate(self.memory_hint_rate, "memory_hint_rate")
        if not isinstance(self.failure_injection, dict):
            raise WorkloadSpecError("failure_injection must be an object", "failure_injection")
        for tool, rate in self.failure_injection.items():
            _check_rate(rate, f"failure_injection.{tool}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WorkloadSpec":
        """The spec of a workload file; a key the file omits keeps its default,
        except `total_queries`, which `validate` rejects unless given."""
        held = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
        spec = cls(**({"total_queries": 0} | held))
        spec.validate()
        return spec


@dataclass
class GroundTruth:
    expected_flag: ExecutionFlag
    evidence_keys: frozenset[str]
    required_segments: frozenset[str]
    ambiguous: bool = False
    memory_hint: Optional[str] = None


@dataclass
class GeneratedQuery:
    query_id: str
    category: str
    text: str
    attachments: list[Attachment]
    fixtures: dict[str, dict]
    ground_truth: GroundTruth


# --- template banks ---------------------------------------------------------------

_TEXT_TEMPLATES = {
    "text_reasoning": [
        "Explain the main difference between TCP and UDP",
        "What makes a hash map faster than a list lookup",
        "Describe how caching improves web latency",
        "Why do databases use write-ahead logs",
    ],
    "coding_assistance": [
        "Fix this segfault in my parser and show the corrected code",
        "Write a python script that deduplicates a csv file",
        "Debug this stack trace from my api handler",
        "Refactor this function into smaller unit testable pieces",
    ],
    "analytical_mathematics": [
        "Calculate the average of 3, 8, 21 and 40",
        "Solve the equation for the break-even point given fixed costs",
        "Compute the probability of two heads in three coin flips",
        "What is the median of this list of response times",
    ],
    "summarization_rewriting": [
        "Summarize this text in two sentences",
        "Rewrite this paragraph in a formal tone",
        "Condense these meeting minutes into bullet points",
        "Paraphrase this announcement for a general audience",
    ],
    "general_qa": [
        "What time is it in Tokyo when it is noon in Paris",
        "Who wrote the novel this series is based on",
        "What is the capital of the region mentioned earlier",
        "How long does a direct flight take between these cities",
    ],
}

_HARD_TEXT_TEMPLATE = (
    "Analyze the trade-off between eventual and strong consistency, prove your "
    "reasoning step by step, evaluate the implications for replication, and "
    "compare recovery strategies"
)

_AMBIGUOUS_TEXT = {
    "text_reasoning": "Explain it the usual way you did before",
    "coding_assistance": "Fix this code bug the usual way",
    "analytical_mathematics": "Calculate the usual statistics for this list",
    "summarization_rewriting": "Summarize this in the usual style",
    "general_qa": "Answer this like last time, the usual detail",
}

_PERCEPTUAL_TEMPLATES = {
    "document_qa": "What does this report say about revenue and growth",
    "ocr_extraction": "Extract the text from this scanned page of notes",
    "table_extraction": "Extract the tables from this spreadsheet report",
    "vision_qa": "What objects are shown in this photo",
    "object_detection": "Detect and identify the objects visible in this image",
    "audio_transcription": "Transcribe this recording",
    "audio_reasoning": "Listen to this audio recording and summarize the speech",
    "video_analysis": "What products are shown in this advertisement video? Provide timestamps and descriptions.",
}

_AMBIGUOUS_PERCEPTUAL = {
    "document_qa": "Extract the usual fields from this report",
    "ocr_extraction": "Extract the usual fields from this scanned page",
    "table_extraction": "Extract the usual table metrics from this spreadsheet report",
    "vision_qa": "Identify the objects shown, the usual level of detail",
    "object_detection": "Detect the objects in this image, the usual set",
    "audio_transcription": "Transcribe this recording the usual way",
    "audio_reasoning": "Summarize the speech in this audio recording as before",
    "video_analysis": "Describe the products shown in this advertisement video, the usual breakdown",
}

_MOE_TEMPLATES = [
    "Brainstorm perspectives from multiple experts on remote work",
    "Gather expert perspectives and viewpoints on electric vehicle adoption",
    "Brainstorm viewpoints from different experts about open source licensing",
]
_MOE_AMBIGUOUS = "Brainstorm the usual expert perspectives and viewpoints on this topic"

_COMPLEX_TEMPLATE = (
    "Analyze these three quarterly reports, extract key financial metrics, "
    "compare trends across quarters, and generate a summary"
)
_COMPLEX_AMBIGUOUS = (
    "Analyze these three quarterly reports, extract the usual metrics, "
    "compare trends across quarters, and generate a summary"
)

def _hint_for(query_text: str) -> str:
    """A prior-turn note that resolves the query's elliptical marker."""
    marker = detect_underspecified(query_text) or "the usual"
    return (
        f"Context note: when I say {marker}, I mean dates and totals "
        f"with a short formal summary."
    )

_TRANSCRIPT_WORDS = (
    "today we review the quarterly numbers and discuss the launch timeline "
    "for the new product line across regions"
).split()

_DETECTION_LABELS = ("sneakers", "laptop", "bottle", "backpack", "headphones", "monitor")


def _make_fixture(category: str, rng: random.Random) -> dict:
    if category in ("document_qa", "ocr_extraction"):
        return {
            "text_blocks": [
                f"Revenue grew {rng.randint(2, 19)} percent in the quarter.",
                f"Operating costs held at {rng.randint(40, 90)} million.",
            ],
            "tokens": rng.randint(80, 200),
        }
    if category == "table_extraction":
        return {
            "tables": [
                {
                    "headers": ["quarter", "revenue", "growth"],
                    "rows": [["Q1", rng.randint(90, 140), f"{rng.randint(1, 9)}%"]],
                }
            ],
            "text_blocks": ["Summary table attached."],
            "tokens": rng.randint(80, 160),
        }
    if category in ("vision_qa", "object_detection"):
        labels = rng.sample(_DETECTION_LABELS, k=rng.randint(1, 3))
        return {
            "detections": [
                {"label": lab, "box": [0, 0, 10, 10], "conf": round(rng.uniform(0.8, 0.99), 2)}
                for lab in labels
            ],
            "tokens": rng.randint(60, 140),
        }
    if category in ("audio_transcription", "audio_reasoning"):
        n = rng.randint(6, 14)
        start = rng.randint(0, 4)
        return {
            "transcript": [
                {"word": _TRANSCRIPT_WORDS[(start + i) % len(_TRANSCRIPT_WORDS)],
                 "t": round(0.5 * i, 1), "conf": 0.95}
                for i in range(n)
            ],
            "tokens": rng.randint(60, 160),
        }
    if category == "video_analysis":
        frames = rng.randint(6, 15)
        label = rng.choice(_DETECTION_LABELS)
        t0 = rng.randint(2, 10)
        return {
            "frames": frames,
            "detections": [
                {"label": label, "box": [0, 0, 10, 10], "t_start": t0, "t_end": t0 + 6,
                 "conf": round(rng.uniform(0.85, 0.98), 2)}
            ],
            "transcript": [
                {"word": w, "t": float(t0 + 1 + i), "conf": 0.95}
                for i, w in enumerate(("introducing", "the", "new", label))
            ],
            "tokens": rng.randint(80, 200),
        }
    if category == "complex_orchestration":
        return {
            "tables": [
                {
                    "headers": ["metric", "value"],
                    "rows": [["revenue", rng.randint(100, 200)]],
                }
            ],
            "text_blocks": [f"Quarter summary {rng.randint(1, 4)}."],
            "tokens": rng.randint(100, 220),
        }
    return {"tokens": rng.randint(40, 120)}


def generate_workload(spec: WorkloadSpec) -> list[GeneratedQuery]:
    """Deterministic workload with per-query ground-truth descriptors."""
    spec.validate()
    rng = random.Random(spec.seed)
    counts = _apportion(spec.total_queries, spec.category_mix)
    order: list[str] = []
    for category in CATEGORIES:
        order.extend([category] * counts[category])
    rng.shuffle(order)

    queries: list[GeneratedQuery] = []
    for i, category in enumerate(order):
        qrng = random.Random(stable_seed(spec.seed, "query", i))
        ambiguous = qrng.random() < spec.ambiguity_rate
        hint_roll = ambiguous and qrng.random() < spec.memory_hint_rate
        query_id = f"q{i:05d}"
        attachments: list[Attachment] = []
        fixtures: dict[str, dict] = {}
        row = CATEGORY_TABLE[category]
        if category in _TEXT_TEMPLATES:
            if category == "text_reasoning" and not ambiguous and qrng.random() < 0.2:
                text = _HARD_TEXT_TEMPLATE
            elif ambiguous:
                text = _AMBIGUOUS_TEXT[category]
            else:
                bank = _TEXT_TEMPLATES[category]
                text = bank[qrng.randrange(len(bank))]
        elif category == "mixed_retrieval":
            text = _MOE_AMBIGUOUS if ambiguous else _MOE_TEMPLATES[qrng.randrange(len(_MOE_TEMPLATES))]
        elif category == "complex_orchestration":
            text = _COMPLEX_AMBIGUOUS if ambiguous else _COMPLEX_TEMPLATE
            for j in range(3):
                name = f"{query_id}_report{j}.{row.extension}"
                attachments.append(
                    Attachment("path", name, declared_name=name,
                               detected_modality=Modality.DOCUMENT)
                )
                fixtures[name] = _make_fixture(category, qrng)
        else:
            text = _AMBIGUOUS_PERCEPTUAL[category] if ambiguous else _PERCEPTUAL_TEMPLATES[category]
            prefix = "scan_" if category == "ocr_extraction" else ""
            name = f"{prefix}{query_id}.{row.extension}"
            attachments.append(Attachment("path", name, declared_name=name))
            fixtures[name] = _make_fixture(category, qrng)
        queries.append(
            GeneratedQuery(
                query_id=query_id,
                category=category,
                text=text,
                attachments=attachments,
                fixtures=fixtures,
                ground_truth=GroundTruth(
                    expected_flag=row.flag,
                    evidence_keys=row.evidence,
                    required_segments=row.segments,
                    ambiguous=ambiguous,
                    memory_hint=_hint_for(text) if hint_roll else None,
                ),
            )
        )
    return queries


def _apportion(total: int, mix: dict[str, float]) -> dict[str, int]:
    """Largest-remainder apportionment so counts sum exactly to total."""
    raw = {c: total * p for c, p in mix.items()}
    counts = {c: int(v) for c, v in raw.items()}
    leftover = total - sum(counts.values())
    remainders = sorted(raw, key=lambda c: (raw[c] - counts[c], c), reverse=True)
    for c in remainders[:leftover]:
        counts[c] += 1
    return counts


def workload_digest(queries: list[GeneratedQuery]) -> str:
    h = hashlib.blake2b(digest_size=12)
    for q in queries:
        h.update(f"{q.query_id}|{q.category}|{q.text}|{q.ground_truth.ambiguous}".encode())
    return h.hexdigest()


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
        quartiles = statistics.quantiles(ttas, n=4, method="inclusive") if n >= 2 else [0, 0, 0]
        agg = {
            "queries": n,
            "tta_median_ms": statistics.median(ttas) if ttas else 0,
            "tta_p25_ms": quartiles[0],
            "tta_p75_ms": quartiles[2],
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
    embedder = config.embedder
    records: list[QueryRecord] = []
    for q in queries:
        total_tta = 0
        total_work = 0
        total_cost = Money(0)
        clarifications = 0
        internal = 0
        outcome = None
        for restart in range(RESTART_CAP + 1):
            clock = VirtualClock()
            memory = MemoryStore()
            if q.ground_truth.memory_hint:
                memory.add_turn(q.ground_truth.memory_hint, Modality.TEXT, embedder)
            state = QueryState(
                user_query=q.text,
                cost_knob=CostKnob.TRAD_COUPLET,
                session=_sim_session(seed, "centralized", q.query_id),
                attachments=[
                    Attachment(a.source_kind, a.source, a.declared_name, a.detected_modality, a.mime)
                    for a in q.attachments
                ],
            )
            outcome = supervisor.process(
                state,
                memory_store=memory,
                perceptual_backend=SimulatedBackend(q.fixtures),
                clarifier=lambda question: SIM_USER_REPLY,
                clock=clock,
                query_seed=restart,
                failure_rates=spec.failure_injection,
                query_id=f"{q.query_id}#r{restart}",
            )
            total_tta += outcome.tta_ms
            total_work += _work_ms(outcome)
            total_cost = total_cost + outcome.cost
            clarifications += outcome.clarifications_user
            internal += outcome.rework_internal
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
    # Worker occupancy: node latencies, excluding human wait time.
    return sum(r.latency_ms or 0 for r in outcome.trace_rows if r.event == "done")


# Fixed decision-tree baseline: every query runs its category's `stages`
# strictly sequentially, between a mandatory coordination stage and a
# strong-model synthesis. No scored memory, no win prediction, no local
# repair: any stage failure restarts the whole query.
_HIER_OVERHEAD = ("complexity-analyze", "pipeline-coordinate", "memory-retrieve")
_HIER_SYNTH = "llm-strong-invoke"


def _frames(q: GeneratedQuery) -> Optional[int]:
    """Frame count of the query's video fixture, or None without one."""
    return next((int(f["frames"]) for f in q.fixtures.values() if f.get("frames")), None)


def _run_hierarchical(
    queries: list[GeneratedQuery],
    spec: WorkloadSpec,
    config: EngineConfig,
    seed: int,
) -> list[QueryRecord]:
    registry = config.registry
    catalog_entry_strong = config.catalog.strongest(CostKnob.CLOSED_SRC)

    records: list[QueryRecord] = []
    for q in queries:
        chain = (*_HIER_OVERHEAD, *CATEGORY_TABLE[q.category].stages, _HIER_SYNTH)
        frames = _frames(q)
        evidence_tokens = sum(f.get("tokens", 100) for f in q.fixtures.values())
        synth_tokens = whitespace_tokens(q.text) + evidence_tokens + 300

        def stage(index: int, tool_name: str, attempt: int | str) -> tuple[int, Money]:
            """Latency and cost of one stage run; `attempt` keys its latency draw."""
            tool_id = registry.id_for_name(tool_name)
            if tool_name == "yolo-detect" and frames:
                latency = DETECT_MS_PER_FRAME * frames
            else:
                latency = registry.sample_latency(
                    tool_id, stable_seed(seed, "hier-lat", q.query_id, index, attempt)
                )
            if tool_name == _HIER_SYNTH:
                return latency, invocation_cost(catalog_entry_strong, synth_tokens)
            return latency, registry.get(tool_id).cost.per_invocation

        tta = 0
        cost = Money(0)
        restarts = 0
        correct = False
        for attempt in range(RESTART_CAP + 1):
            for index, tool_name in enumerate(chain):
                latency, stage_cost = stage(index, tool_name, attempt)
                tta += latency
                cost = cost + stage_cost
                rate = spec.failure_injection.get(tool_name, 0.0)
                if rate <= 0:  # random() is never below 0.0: no draw can fail
                    continue
                draw = random.Random(
                    stable_seed(seed, "hier", q.query_id, tool_name, index, attempt)
                ).random()
                if draw < rate:
                    break
            else:
                correct = True
                break
            restarts += 1

        work = tta
        if q.ground_truth.ambiguous and correct:
            # user clarifies, then the predetermined pipeline restarts once more
            tta += CLARIFY_USER_DELAY_MS
            for index, tool_name in enumerate(chain):
                latency, stage_cost = stage(index, tool_name, "clar")
                tta += latency
                work += latency
                cost = cost + stage_cost

        records.append(
            QueryRecord(
                query_id=q.query_id,
                category=q.category,
                tta_ms=tta,
                correct=correct,
                # the tree cannot self-serve ellipsis
                rework_user=q.ground_truth.ambiguous,
                rework_internal=restarts,
                cost_usd=cost.usd_str(),
                work_ms=work,
            )
        )
    return records


def _run_monolithic(
    queries: list[GeneratedQuery],
    spec: WorkloadSpec,
    config: EngineConfig,
    seed: int,
) -> list[QueryRecord]:
    registry = config.registry
    strong_tool = registry.id_for_name("llm-strong-invoke")
    strong_model = config.catalog.strongest(CostKnob.CLOSED_SRC)

    records = []
    for q in queries:
        latency = registry.sample_latency(strong_tool, stable_seed(seed, "mono", q.query_id))
        frames = _frames(q)
        if frames:
            latency += MONO_MS_PER_PERCEPT * frames
        elif q.attachments:
            latency += MONO_MS_PER_PERCEPT * len(q.attachments)
        evidence_tokens = sum(f.get("tokens", 100) for f in q.fixtures.values())
        tokens = whitespace_tokens(q.text) + 4 * evidence_tokens + 500
        cost = invocation_cost(strong_model, tokens)
        tta = work = latency
        if q.ground_truth.ambiguous:
            tta += CLARIFY_USER_DELAY_MS + latency
            work += latency
            cost = cost + invocation_cost(strong_model, tokens)
        records.append(
            QueryRecord(
                query_id=q.query_id,
                category=q.category,
                tta_ms=tta,
                correct=True,
                rework_user=q.ground_truth.ambiguous,
                rework_internal=0,
                cost_usd=cost.usd_str(),
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
    runner = {
        "centralized": _run_centralized,
        "hierarchical": _run_hierarchical,
        "monolithic": _run_monolithic,
    }[policy]
    records = runner(queries, spec, config or EngineConfig(), seed)
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
    if candidate.workload_digest != baseline.workload_digest:
        raise IncomparableReports(
            "reports were produced over different workloads "
            f"({candidate.workload_digest} vs {baseline.workload_digest})"
        )
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
    if candidate.workload_digest != baseline.workload_digest:
        raise IncomparableReports("reports were produced over different workloads")
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


def throughput_from_report(
    report: MetricsReport,
    parallel_sessions: int,
    workers: int = 16,
) -> float:
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
    makespan_ms = max(total_work_ms / workers, max(session_spans))
    if makespan_ms <= 0:
        return 0.0
    return len(records) * 1000.0 / makespan_ms


# --- files ------------------------------------------------------------------------------


def load_workload_file(path: str) -> tuple[WorkloadSpec, Optional[list[GeneratedQuery]]]:
    """Load a workload file: a generator spec, or fully materialized queries.

    Materialized files carry a top-level `queries` array; the surrounding
    object still provides failure_injection and seed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorkloadSpecError(f"workload file is not valid JSON: {exc}", "$") from exc
    if not isinstance(obj, dict):
        raise WorkloadSpecError("workload file must hold a JSON object", "$")
    if "queries" not in obj:
        return WorkloadSpec.from_json_dict(obj), None
    if not isinstance(obj["queries"], list) or not obj["queries"]:
        raise WorkloadSpecError("queries must be a nonempty array", "queries")
    queries = [_query_from_json(i, q) for i, q in enumerate(obj["queries"])]
    spec = WorkloadSpec(
        total_queries=len(queries),
        seed=obj.get("seed", 0),
        failure_injection=obj.get("failure_injection", {}),
        ambiguity_rate=obj.get("ambiguity_rate", 0.0),
        memory_hint_rate=obj.get("memory_hint_rate", 0.0),
    )
    spec.validate()
    return spec, queries


def _query_from_json(index: int, obj: dict) -> GeneratedQuery:
    where = f"queries[{index}]"
    if not isinstance(obj, dict):
        raise WorkloadSpecError("query must be an object", where)
    fixtures = obj.get("fixtures", {})
    if not isinstance(fixtures, dict) or not all(isinstance(f, dict) for f in fixtures.values()):
        raise WorkloadSpecError("fixtures must be an object of objects", f"{where}.fixtures")
    for name, fixture in fixtures.items():
        for key in ("frames", "tokens"):
            value = fixture.get(key, 0)
            if type(value) is not int or value < 0:
                raise WorkloadSpecError(f"{key} must be a nonnegative integer, not {value!r}",
                                        f"{where}.fixtures.{name}.{key}")
    category = obj.get("category", "general_qa")
    if category not in CATEGORIES:
        raise WorkloadSpecError(f"unknown category {category!r}", f"{where}.category")
    try:
        gt = obj["ground_truth"]
        return GeneratedQuery(
            query_id=obj.get("query_id", f"q{index:05d}"),
            category=category,
            text=obj["text"],
            attachments=[
                Attachment(
                    "path", a["name"], declared_name=a["name"],
                    detected_modality=Modality(a["modality"]) if a.get("modality") else None,
                )
                for a in obj.get("attachments", [])
            ],
            fixtures=fixtures,
            ground_truth=GroundTruth(
                expected_flag=ExecutionFlag(gt["expected_flag"]),
                evidence_keys=frozenset(gt.get("evidence_keys", [])),
                required_segments=frozenset(gt.get("required_segments", [])),
                ambiguous=gt.get("ambiguous", False),
                memory_hint=gt.get("memory_hint"),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkloadSpecError(f"malformed materialized query: {exc}", where) from exc


def materialize_workload(queries: list[GeneratedQuery], spec: WorkloadSpec) -> dict:
    """Inverse of the materialized loader; useful for freezing workloads."""
    return {
        "seed": spec.seed,
        "failure_injection": spec.failure_injection,
        "ambiguity_rate": spec.ambiguity_rate,
        "memory_hint_rate": spec.memory_hint_rate,
        "queries": [
            {
                "query_id": q.query_id,
                "category": q.category,
                "text": q.text,
                "attachments": [
                    {
                        "name": a.declared_name or str(a.source),
                        "modality": a.detected_modality.value if a.detected_modality else None,
                    }
                    for a in q.attachments
                ],
                "fixtures": q.fixtures,
                "ground_truth": {
                    "expected_flag": q.ground_truth.expected_flag.value,
                    "evidence_keys": sorted(q.ground_truth.evidence_keys),
                    "required_segments": sorted(q.ground_truth.required_segments),
                    "ambiguous": q.ground_truth.ambiguous,
                    "memory_hint": q.ground_truth.memory_hint,
                },
            }
            for q in queries
        ],
    }


def default_workload_spec(total_queries: int = 1000, seed: int = WorkloadSpec.seed) -> WorkloadSpec:
    return WorkloadSpec(total_queries=total_queries, seed=seed)
