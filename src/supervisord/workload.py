"""Synthetic workloads: the fifteen task categories, the generator, and
workload files.

`generate_workload` turns a `WorkloadSpec` into deterministic queries, each
with the ground truth its category states. It is the only code that seeds a
`random.Random`: one for the category order and one per query, keyed by the
spec's seed and the query's index. A workload file holds either a spec or
fully materialized queries (docs/file-formats.md).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from .couplet import check_fixtures, stable_seed
from .engine import detect_underspecified
from .errors import WorkloadSpecError
from .state import Attachment, ExecutionFlag, Modality

@dataclass(frozen=True)
class Category:
    """Everything the generator draws for one task category.

    `flag`, `evidence` and `segments` are the ground truth of its queries,
    stated here rather than read from the engine's tables so that the engine
    is judged against an independent statement. `stages` is its chain in the
    hierarchical baseline. An underspecified query's text is `ambiguous`; any
    other is `hard` one time in five, when the row has one, or else one of
    `texts`. Each `attachments` template, filled with the query id, names one
    attachment, and `fixture` draws that attachment's backend fixture.
    """

    flag: ExecutionFlag
    evidence: frozenset[str]
    segments: frozenset[str]
    texts: tuple[str, ...]
    ambiguous: str
    stages: tuple[str, ...] = ()
    attachments: tuple[str, ...] = ()
    fixture: Optional[Callable[[random.Random], dict]] = None
    hard: Optional[str] = None


_TRANSCRIPT_WORDS = (
    "today we review the quarterly numbers and discuss the launch timeline "
    "for the new product line across regions"
).split()

_DETECTION_LABELS = ("sneakers", "laptop", "bottle", "backpack", "headphones", "monitor")


def _document_fixture(rng: random.Random) -> dict:
    return {
        "text_blocks": [
            f"Revenue grew {rng.randint(2, 19)} percent in the quarter.",
            f"Operating costs held at {rng.randint(40, 90)} million.",
        ],
        "tokens": rng.randint(80, 200),
    }


def _table_fixture(rng: random.Random) -> dict:
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


def _image_fixture(rng: random.Random) -> dict:
    labels = rng.sample(_DETECTION_LABELS, k=rng.randint(1, 3))
    return {
        "detections": [
            {"label": lab, "box": [0, 0, 10, 10], "conf": round(rng.uniform(0.8, 0.99), 2)}
            for lab in labels
        ],
        "tokens": rng.randint(60, 140),
    }


def _audio_fixture(rng: random.Random) -> dict:
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


def _video_fixture(rng: random.Random) -> dict:
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


def _report_fixture(rng: random.Random) -> dict:
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


_ANSWER_TEXT = frozenset({"answer_text"})
_ANSWER = frozenset({"answer"})
_EXTRACTION = frozenset({"extraction"})
_DETECTIONS = frozenset({"detections"})
_TRANSCRIPT = frozenset({"transcript"})

# Row order is the generator's category order: shuffling and workload digests
# depend on it.
CATEGORY_TABLE: dict[str, Category] = {
    "text_reasoning": Category(
        ExecutionFlag.ROUTELLM, _ANSWER_TEXT, _ANSWER,
        ("Explain the main difference between TCP and UDP",
         "What makes a hash map faster than a list lookup",
         "Describe how caching improves web latency",
         "Why do databases use write-ahead logs"),
        "Explain it the usual way you did before",
        hard="Analyze the trade-off between eventual and strong consistency, prove your "
             "reasoning step by step, evaluate the implications for replication, and "
             "compare recovery strategies",
    ),
    "coding_assistance": Category(
        ExecutionFlag.ROUTELLM, _ANSWER_TEXT, _ANSWER,
        ("Fix this segfault in my parser and show the corrected code",
         "Write a python script that deduplicates a csv file",
         "Debug this stack trace from my api handler",
         "Refactor this function into smaller unit testable pieces"),
        "Fix this code bug the usual way",
    ),
    "analytical_mathematics": Category(
        ExecutionFlag.ROUTELLM, _ANSWER_TEXT, _ANSWER,
        ("Calculate the average of 3, 8, 21 and 40",
         "Solve the equation for the break-even point given fixed costs",
         "Compute the probability of two heads in three coin flips",
         "What is the median of this list of response times"),
        "Calculate the usual statistics for this list",
    ),
    "summarization_rewriting": Category(
        ExecutionFlag.ROUTELLM, _ANSWER_TEXT, _ANSWER,
        ("Summarize this text in two sentences",
         "Rewrite this paragraph in a formal tone",
         "Condense these meeting minutes into bullet points",
         "Paraphrase this announcement for a general audience"),
        "Summarize this in the usual style",
    ),
    "general_qa": Category(
        ExecutionFlag.ROUTELLM, _ANSWER_TEXT, _ANSWER,
        ("What time is it in Tokyo when it is noon in Paris",
         "Who wrote the novel this series is based on",
         "What is the capital of the region mentioned earlier",
         "How long does a direct flight take between these cities"),
        "Answer this like last time, the usual detail",
    ),
    "document_qa": Category(
        ExecutionFlag.DOCUMENT, frozenset({"text_blocks"}), _EXTRACTION,
        ("What does this report say about revenue and growth",),
        "Extract the usual fields from this report",
        ("pdf-parse",), ("{}.pdf",), _document_fixture,
    ),
    "ocr_extraction": Category(
        ExecutionFlag.DOCUMENT, frozenset({"text_blocks"}), _EXTRACTION,
        ("Extract the text from this scanned page of notes",),
        "Extract the usual fields from this scanned page",
        ("tesseract-ocr",), ("scan_{}.pdf",), _document_fixture,
    ),
    "table_extraction": Category(
        ExecutionFlag.DOCUMENT, frozenset({"tables"}), _EXTRACTION,
        ("Extract the tables from this spreadsheet report",),
        "Extract the usual table metrics from this spreadsheet report",
        ("table-extract",), ("{}.xlsx",), _table_fixture,
    ),
    "vision_qa": Category(
        ExecutionFlag.VISION, _DETECTIONS, _DETECTIONS,
        ("What objects are shown in this photo",),
        "Identify the objects shown, the usual level of detail",
        ("yolo-detect",), ("{}.jpg",), _image_fixture,
    ),
    "object_detection": Category(
        ExecutionFlag.VISION, _DETECTIONS, _DETECTIONS,
        ("Detect and identify the objects visible in this image",),
        "Detect the objects in this image, the usual set",
        ("yolo-detect",), ("{}.png",), _image_fixture,
    ),
    "audio_transcription": Category(
        ExecutionFlag.AUDIO, _TRANSCRIPT, _TRANSCRIPT,
        ("Transcribe this recording",),
        "Transcribe this recording the usual way",
        ("whisper-transcribe",), ("{}.mp3",), _audio_fixture,
    ),
    "audio_reasoning": Category(
        ExecutionFlag.AUDIO, _TRANSCRIPT, _TRANSCRIPT,
        ("Listen to this audio recording and summarize the speech",),
        "Summarize the speech in this audio recording as before",
        ("whisper-transcribe",), ("{}.wav",), _audio_fixture,
    ),
    "video_analysis": Category(
        ExecutionFlag.VIDEO,
        frozenset({"detections", "transcript", "timeline"}),
        frozenset({"timeline"}),
        ("What products are shown in this advertisement video? Provide timestamps and descriptions.",),
        "Describe the products shown in this advertisement video, the usual breakdown",
        ("yolo-detect", "whisper-transcribe", "temporal-align"), ("{}.mp4",), _video_fixture,
    ),
    "mixed_retrieval": Category(
        ExecutionFlag.MOE,
        frozenset({"answer_text", "aggregation"}),
        _ANSWER,
        ("Brainstorm perspectives from multiple experts on remote work",
         "Gather expert perspectives and viewpoints on electric vehicle adoption",
         "Brainstorm viewpoints from different experts about open source licensing"),
        "Brainstorm the usual expert perspectives and viewpoints on this topic",
        ("slm-weak-invoke", "slm-weak-invoke", "slm-weak-invoke", "ensemble-aggregate"),
    ),
    "complex_orchestration": Category(
        ExecutionFlag.COMPLEX,
        frozenset({"tables", "synthesis"}),
        frozenset({"synthesis", "part_0", "part_1", "part_2"}),
        ("Analyze these three quarterly reports, extract key financial metrics, "
         "compare trends across quarters, and generate a summary",),
        "Analyze these three quarterly reports, extract the usual metrics, "
        "compare trends across quarters, and generate a summary",
        ("table-extract", "table-extract", "table-extract", "result-synthesize"),
        ("{}_report0.pdf", "{}_report1.pdf", "{}_report2.pdf"), _report_fixture,
    ),
}
CATEGORIES: tuple[str, ...] = tuple(CATEGORY_TABLE)

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
        if isinstance(self.total_queries, bool) or not isinstance(self.total_queries, int):
            raise WorkloadSpecError("total_queries must be an integer", "total_queries")
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


def _hint_for(query_text: str) -> str:
    """A prior-turn note that resolves the query's elliptical marker."""
    marker = detect_underspecified(query_text) or "the usual"
    return (
        f"Context note: when I say {marker}, I mean dates and totals "
        f"with a short formal summary."
    )


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
        row = CATEGORY_TABLE[category]
        if ambiguous:
            text = row.ambiguous
        elif row.hard is not None and qrng.random() < 0.2:
            text = row.hard
        elif len(row.texts) == 1:  # no draw: randrange(1) still consumes state
            text = row.texts[0]
        else:
            text = row.texts[qrng.randrange(len(row.texts))]
        names = [template.format(query_id) for template in row.attachments]
        queries.append(
            GeneratedQuery(
                query_id=query_id,
                category=category,
                text=text,
                attachments=[Attachment("path", name, declared_name=name) for name in names],
                fixtures={name: row.fixture(qrng) for name in names},
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
    seen: set[str] = set()
    for i, q in enumerate(queries):
        # Reports and deltas pair the policies' records by query id.
        if q.query_id in seen:
            raise WorkloadSpecError(f"query_id {q.query_id!r} is repeated", f"queries[{i}].query_id")
        seen.add(q.query_id)
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
    fixtures = check_fixtures(obj.get("fixtures", {}), f"{where}.fixtures")
    category = obj.get("category", "general_qa")
    if category not in CATEGORIES:
        raise WorkloadSpecError(f"unknown category {category!r}", f"{where}.category")
    try:
        gt = obj["ground_truth"]
        for key in ("evidence_keys", "required_segments"):
            if not isinstance(gt.get(key, []), list):
                raise WorkloadSpecError(f"must be a list, not {gt[key]!r}",
                                        f"{where}.ground_truth.{key}")
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
