"""Perceptual couplet pipeline: parse intent, execute a backend, summarize.

Specialized perception runs behind a small typed surface: a rule-based intent
parser emits a schema-valid task, a simulated fixture backend executes it,
and a deterministic template renders the raw payload as a natural-language
summary. Video detections and narration merge into one timeline.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from .errors import AmbiguousIntent, EvidenceTypeError, NodeFailure
from .state import Modality

DEFAULT_FRAME_INTERVAL_S = 1.0
DETECT_MS_PER_FRAME = 180
TIMELINE_OVERLAP_TOLERANCE_S = 1.0
CONFIDENCE_RANGE = (0.85, 0.98)  # unscripted fixture confidences are drawn from here


class TaskKind(str, Enum):
    DETECT_OBJECTS = "detect_objects"
    EMBED_IMAGE = "embed_image"
    OCR = "ocr"
    TRANSCRIBE = "transcribe"
    EXTRACT_TABLES = "extract_tables"
    GENERATE_IMAGE = "generate_image"
    PARSE_PDF = "parse_pdf"


# Parameter schema per kind: name -> (type, required)
TASK_SCHEMAS: dict[TaskKind, dict[str, tuple[type, bool]]] = {
    TaskKind.DETECT_OBJECTS: {
        "frame_interval_s": (float, False),
        "target_classes": (list, False),
    },
    TaskKind.EMBED_IMAGE: {},
    TaskKind.OCR: {"targets": (list, False), "refined": (bool, False)},
    TaskKind.TRANSCRIBE: {"language": (str, False)},
    TaskKind.EXTRACT_TABLES: {},
    TaskKind.GENERATE_IMAGE: {"prompt": (str, True)},
    TaskKind.PARSE_PDF: {},
}

@dataclass
class PerceptualTask:
    kind: TaskKind
    parameters: dict[str, Any] = field(default_factory=dict)
    source: str = ""  # attachment reference

    def validate(self) -> None:
        schema = TASK_SCHEMAS[self.kind]
        for name, value in self.parameters.items():
            if name not in schema:
                raise ValueError(f"{self.kind.value}: unknown parameter {name!r}")
            expected, _ = schema[name]
            if expected is float and isinstance(value, int):
                continue
            if not isinstance(value, expected):
                raise ValueError(
                    f"{self.kind.value}: parameter {name!r} must be {expected.__name__}"
                )
        for name, (_, required) in schema.items():
            if required and name not in self.parameters:
                raise AmbiguousIntent(
                    f"{self.kind.value} task is missing required parameter {name!r}",
                    missing=name,
                )


@dataclass
class BackendResult:
    payload: dict[str, Any]
    confidence: float
    latency_ms: Optional[int] = None  # None: scheduler samples the tool prior
    tokens: int = 0


# --- intent parsing -------------------------------------------------------------

_VAGUE_MARKERS = ("the usual", "as before", "as discussed", "like last time", "you know")
_GENERATE_RE = re.compile(r"\b(draw|render|sketch)\b|generate an image|create an image|make an image")
_DETECT_RE = re.compile(r"\b(what|identify|detect|shown|objects|count|recognize|products)\b")
_EMBED_RE = re.compile(r"\b(embed|similar|similarity|nearest)\b")
_READ_RE = re.compile(r"\b(read|text|extract|ocr|analyze|dates|names|notes|transcription)\b")
_TABLE_RE = re.compile(r"\btables?\b|\bspreadsheet\b|\bmetrics\b")
_INTERVAL_RE = re.compile(r"every\s+([0-9.]+)\s*(?:s|sec|seconds)")


def _extraction_targets(query: str) -> Optional[list[str]]:
    found = [t for t in ("dates", "names", "amounts", "totals", "emails") if t in query]
    return found or None


def parse_intent(
    query: str,
    modality: Modality,
    *,
    attachment_ref: str = "",
    scanned: bool = False,
) -> PerceptualTask:
    """Translate a natural-language request into a schema-valid perceptual task.

    An ordered rule table decides the task; modality must be perceptual. Vague
    queries with no actionable verb raise AmbiguousIntent, which feeds the
    clarification hook.
    """
    if modality not in (Modality.IMAGE, Modality.AUDIO, Modality.VIDEO, Modality.DOCUMENT):
        raise ValueError(f"parse_intent requires a perceptual modality, got {modality}")
    q = query.lower()
    has_action = bool(
        _GENERATE_RE.search(q) or _DETECT_RE.search(q) or _EMBED_RE.search(q)
        or _READ_RE.search(q) or _TABLE_RE.search(q)
        or "transcribe" in q or "summarize" in q or "describe" in q
    )
    if not q.strip() or (any(marker in q for marker in _VAGUE_MARKERS) and not has_action):
        raise AmbiguousIntent(
            f"cannot derive a perceptual task from {query!r}", missing="task objective"
        )
    task: Optional[PerceptualTask] = None

    if modality is Modality.AUDIO:
        task = PerceptualTask(TaskKind.TRANSCRIBE, {"language": "auto"}, attachment_ref)
    elif modality is Modality.VIDEO:
        if "transcribe" in q and not _DETECT_RE.search(q):
            task = PerceptualTask(TaskKind.TRANSCRIBE, {"language": "auto"}, attachment_ref)
        else:
            m = _INTERVAL_RE.search(q)
            interval = float(m.group(1)) if m else DEFAULT_FRAME_INTERVAL_S
            task = PerceptualTask(
                TaskKind.DETECT_OBJECTS, {"frame_interval_s": interval}, attachment_ref
            )
    elif modality is Modality.IMAGE:
        if _GENERATE_RE.search(q):
            task = PerceptualTask(TaskKind.GENERATE_IMAGE, {"prompt": query}, attachment_ref)
        elif _EMBED_RE.search(q):
            task = PerceptualTask(TaskKind.EMBED_IMAGE, {}, attachment_ref)
        elif _READ_RE.search(q):
            params: dict[str, Any] = {}
            targets = _extraction_targets(q)
            if targets:
                params["targets"] = targets
            task = PerceptualTask(TaskKind.OCR, params, attachment_ref)
        elif _DETECT_RE.search(q):
            task = PerceptualTask(TaskKind.DETECT_OBJECTS, {}, attachment_ref)
    elif modality is Modality.DOCUMENT:
        if _TABLE_RE.search(q):
            task = PerceptualTask(TaskKind.EXTRACT_TABLES, {}, attachment_ref)
        elif scanned:
            params = {}
            targets = _extraction_targets(q)
            if targets:
                params["targets"] = targets
            task = PerceptualTask(TaskKind.OCR, params, attachment_ref)
        else:
            task = PerceptualTask(TaskKind.PARSE_PDF, {}, attachment_ref)

    if task is None:
        if any(marker in q for marker in _VAGUE_MARKERS) or not q.strip():
            raise AmbiguousIntent(
                f"cannot derive a perceptual task from {query!r}", missing="task objective"
            )
        # Safe defaults for each perceptual modality.
        defaults = {
            Modality.IMAGE: PerceptualTask(TaskKind.DETECT_OBJECTS, {}, attachment_ref),
            Modality.DOCUMENT: PerceptualTask(TaskKind.PARSE_PDF, {}, attachment_ref),
        }
        task = defaults.get(modality)
        if task is None:
            raise AmbiguousIntent(
                f"cannot derive a perceptual task from {query!r}", missing="task objective"
            )
    task.validate()
    return task


# --- backends ---------------------------------------------------------------------


def stable_seed(*parts) -> int:
    """64-bit seed derived from the parts' text; stable across processes."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


class SimulatedBackend:
    """Deterministic backend reading scripted fixtures keyed by attachment reference.

    Fixture schema per attachment: detections / transcript / tables /
    text_blocks (plus optional frames, tool_confidence, refined_confidence,
    tool_failure used to script failure scenarios).
    """

    def __init__(self, fixtures: Optional[dict[str, dict]] = None):
        self.fixtures = fixtures or {}

    def _confidence(self, fixture: dict, tool_name: str, task: PerceptualTask, rng: random.Random) -> float:
        refined = bool(task.parameters.get("targets")) or bool(task.parameters.get("refined"))
        if refined and tool_name in fixture.get("refined_confidence", {}):
            return float(fixture["refined_confidence"][tool_name])
        if tool_name in fixture.get("tool_confidence", {}):
            return float(fixture["tool_confidence"][tool_name])
        return round(rng.uniform(*CONFIDENCE_RANGE), 4)

    def invoke(self, task: PerceptualTask, seed: int, tool_name: str = "") -> BackendResult:
        fixture = self.fixtures.get(task.source, {})
        if fixture.get("tool_failure", {}).get(tool_name):
            raise NodeFailure(f"{tool_name} scripted failure on {task.source}")
        rng = random.Random(stable_seed(seed, task.source, task.kind.value, tool_name))
        latency: Optional[int] = None
        payload: dict[str, Any]
        if task.kind is TaskKind.DETECT_OBJECTS:
            payload = {"detections": fixture.get("detections", [])}
            frames = fixture.get("frames")
            if frames:
                latency = DETECT_MS_PER_FRAME * int(frames)
        elif task.kind is TaskKind.TRANSCRIBE:
            payload = {"transcript": fixture.get("transcript", [])}
        elif task.kind is TaskKind.OCR:
            payload = {
                "text_blocks": fixture.get("text_blocks", []),
                "targets": task.parameters.get("targets", []),
            }
        elif task.kind is TaskKind.EXTRACT_TABLES:
            payload = {"tables": fixture.get("tables", [])}
        elif task.kind is TaskKind.PARSE_PDF:
            payload = {
                "text_blocks": fixture.get("text_blocks", []),
                "tables": fixture.get("tables", []),
            }
        elif task.kind is TaskKind.EMBED_IMAGE:
            payload = {"image_embedding": fixture.get("image_embedding", [0.0] * 8)}
        elif task.kind is TaskKind.GENERATE_IMAGE:
            digest = hashlib.blake2b(
                task.parameters["prompt"].encode(), digest_size=6
            ).hexdigest()
            payload = {"image_ref": f"generated://{digest}"}
        else:  # pragma: no cover - enum is closed
            raise EvidenceTypeError(f"unsupported task kind {task.kind}")
        if "clarify_hint" in fixture:
            payload["clarify_hint"] = fixture["clarify_hint"]
        tokens = fixture.get("tokens", 120)
        return BackendResult(
            payload=payload,
            confidence=self._confidence(fixture, tool_name, task, rng),
            latency_ms=latency,
            tokens=int(tokens),
        )


def execute_perceptual(
    task: PerceptualTask, backend, seed: int, tool_name: str = ""
) -> BackendResult:
    """Validate the task and run it on the bound backend."""
    task.validate()
    return backend.invoke(task, seed, tool_name=tool_name)


# --- summaries and timelines --------------------------------------------------------


def _fmt_ts(seconds: float) -> str:
    total = int(round(seconds))
    return f"{total // 60}:{total % 60:02d}"


def merge_timeline(detections: list[dict], transcript: list[dict]) -> list[dict]:
    """Pair visual detections with narration words in overlapping windows."""
    entries = []
    for det in detections:
        start, end = float(det["t_start"]), float(det["t_end"])
        low, high = start - TIMELINE_OVERLAP_TOLERANCE_S, end + TIMELINE_OVERLAP_TOLERANCE_S
        mentions = [w["word"] for w in transcript if low <= float(w["t"]) <= high]
        entries.append(
            {
                "label": det["label"],
                "t_start": start,
                "t_end": end,
                "mentions": mentions,
                "confidence": det.get("conf", 1.0),
            }
        )
    entries.sort(key=lambda e: (e["t_start"], e["label"]))
    return entries


def summarize_payload(kind: TaskKind, payload: dict, query: str) -> str:
    """Deterministic template rendering of a raw payload."""
    if kind is TaskKind.DETECT_OBJECTS:
        detections = payload.get("detections", [])
        if not detections:
            return "No objects found."
        parts = [
            f"{d['label']} ({_fmt_ts(float(d['t_start']))}-{_fmt_ts(float(d['t_end']))}, "
            f"conf {d.get('conf', 1.0):.2f})"
            if "t_start" in d
            else f"{d['label']} (conf {d.get('conf', 1.0):.2f})"
            for d in detections
        ]
        return f"Detected {len(detections)} object(s): " + "; ".join(parts) + "."
    if kind is TaskKind.TRANSCRIBE:
        transcript = payload.get("transcript", [])
        if not transcript:
            return "Transcript is empty."
        words = " ".join(w["word"] for w in transcript)
        return f"Transcript ({len(transcript)} words): {words}"
    if kind in (TaskKind.OCR, TaskKind.PARSE_PDF):
        blocks = payload.get("text_blocks", [])
        targets = payload.get("targets") or []
        if not blocks:
            return "No text extracted."
        head = f"Extracted {len(blocks)} text block(s)"
        if targets:
            head += f" focused on {', '.join(targets)}"
        body = " | ".join(str(b) for b in blocks[:5])
        summary = f"{head}: {body}"
        tables = payload.get("tables")
        if tables:
            summary += f" Plus {len(tables)} table(s)."
        return summary
    if kind is TaskKind.EXTRACT_TABLES:
        tables = payload.get("tables", [])
        if not tables:
            return "No tables found."
        headers = ", ".join(str(h) for h in tables[0].get("headers", []))
        return f"Extracted {len(tables)} table(s); headers: {headers}."
    if kind is TaskKind.EMBED_IMAGE:
        dim = len(payload.get("image_embedding", []))
        return f"Computed a {dim}-dimensional image embedding."
    if kind is TaskKind.GENERATE_IMAGE:
        return f"Generated image reference: {payload.get('image_ref', '')}"
    raise EvidenceTypeError(f"no template for kind {kind}")


def contextualize_timeline(
    detections: list[dict], transcript: list[dict]
) -> tuple[list[dict], str]:
    """Merged audio/visual timeline plus its narrative summary."""
    timeline = merge_timeline(detections, transcript)
    if not timeline:
        return timeline, "No synchronized events found."
    lines = []
    for entry in timeline:
        span = f"{_fmt_ts(entry['t_start'])}-{_fmt_ts(entry['t_end'])}"
        if entry["mentions"]:
            quoted = " ".join(entry["mentions"])
            lines.append(
                f"At {span}, the {entry['label']} appears while the narration mentions "
                f"\"{quoted}\"."
            )
        else:
            lines.append(f"At {span}, the {entry['label']} appears.")
    return timeline, " ".join(lines)
