"""Perceptual couplet pipeline: parse intent, execute a backend, summarize.

Specialized perception runs behind a small typed surface: a rule-based intent
parser emits a schema-valid task, a simulated fixture backend executes it,
and a deterministic template renders the raw payload as a natural-language
summary. Video detections and narration merge into one timeline. The module
also holds the simulator's key hashes: `stable_seed` and the counter-based
draw `keyed_uniform` that every simulated latency, failure and confidence
uses.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from .errors import AmbiguousIntent, NodeFailure, WorkloadSpecError
from .state import Modality

DEFAULT_FRAME_INTERVAL_S = 1.0
DEFAULT_FIXTURE_TOKENS = 120  # evidence tokens charged for a fixture that states none
DETECT_MS_PER_FRAME = 180
TIMELINE_OVERLAP_TOLERANCE_S = 1.0
CONFIDENCE_RANGE = (0.85, 0.98)  # unscripted fixture confidences are drawn from here
PERCEPTUAL_MODALITIES = (Modality.IMAGE, Modality.AUDIO, Modality.VIDEO, Modality.DOCUMENT)


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

# Phrases that point at earlier context; the engine resolves them from memory or asks.
UNDERSPEC_MARKERS = ("the usual", "as before", "as discussed", "like last time")
_VAGUE_MARKERS = UNDERSPEC_MARKERS + ("you know",)
_GENERATE_RE = re.compile(r"\b(draw|render|sketch)\b|generate an image|create an image|make an image")
_DETECT_RE = re.compile(r"\b(what|identify|detect|shown|objects|count|recognize|products)\b")
_EMBED_RE = re.compile(r"\b(embed|similar|similarity|nearest)\b")
_READ_RE = re.compile(r"\b(read|text|extract|ocr|analyze|dates|names|notes|transcription)\b")
_TABLE_RE = re.compile(r"\btables?\b|\bspreadsheet\b|\bmetrics\b")
_INTERVAL_RE = re.compile(r"every\s+([0-9.]+)\s*(?:s|sec|seconds)")


def _ocr_task(query: str, attachment_ref: str) -> PerceptualTask:
    targets = [t for t in ("dates", "names", "amounts", "totals", "emails") if t in query]
    return PerceptualTask(TaskKind.OCR, {"targets": targets} if targets else {}, attachment_ref)


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
    if modality not in PERCEPTUAL_MODALITIES:
        raise ValueError(f"parse_intent requires a perceptual modality, got {modality}")
    q = query.lower()
    vague = any(marker in q for marker in _VAGUE_MARKERS)
    has_action = bool(
        _GENERATE_RE.search(q) or _DETECT_RE.search(q) or _EMBED_RE.search(q)
        or _READ_RE.search(q) or _TABLE_RE.search(q)
        or "transcribe" in q or "summarize" in q or "describe" in q
    )
    if not q.strip() or (vague and not has_action):
        raise AmbiguousIntent(
            f"cannot derive a perceptual task from {query!r}", missing="task objective"
        )

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
            task = _ocr_task(q, attachment_ref)
        elif _DETECT_RE.search(q) or not vague:
            task = PerceptualTask(TaskKind.DETECT_OBJECTS, {}, attachment_ref)
        else:
            raise AmbiguousIntent(
                f"cannot derive a perceptual task from {query!r}", missing="task objective"
            )
    else:  # Modality.DOCUMENT
        if _TABLE_RE.search(q):
            task = PerceptualTask(TaskKind.EXTRACT_TABLES, {}, attachment_ref)
        elif scanned:
            task = _ocr_task(q, attachment_ref)
        else:
            task = PerceptualTask(TaskKind.PARSE_PDF, {}, attachment_ref)
    task.validate()
    return task


# --- backends ---------------------------------------------------------------------


def stable_seed(*parts) -> int:
    """64-bit seed derived from the parts' text; stable across processes."""
    text = "|".join(map(str, parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def keyed_uniform(*parts) -> float:
    """Uniform draw in [0, 1) keyed by the parts: the top 53 bits of
    `stable_seed(*parts)` times 2**-53.

    A counter-based draw: the key's hash is the number, so no generator is
    seeded and a draw depends on its key alone. Simulated draws are keyed by
    (run seed, query id, site, purpose, attempt); see docs/policies.md.
    """
    return (stable_seed(*parts) >> 11) * 2.0**-53


def _is_scores(value) -> bool:
    return isinstance(value, dict) and all(
        type(v) in (int, float) and 0 <= v <= 1 for v in value.values()
    )


def _is_finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _is_objects(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


# A list entry's key -> (what its value must be, the test of that, whether it
# must be given: always, never, or when the key named is given).
DETECTION_RULES = {
    "label": ("a string", lambda v: isinstance(v, str), True),
    "conf": ("a finite number", _is_finite, False),
    "t_start": ("a finite number", _is_finite, "t_end"),
    "t_end": ("a finite number", _is_finite, "t_start"),
    "box": ("a list of finite numbers",
            lambda v: isinstance(v, list) and all(map(_is_finite, v)), False),
}
TRANSCRIPT_RULES = {
    "word": ("a string", lambda v: isinstance(v, str), True),
    "t": ("a finite number", _is_finite, True),
}
TABLE_RULES = {"headers": ("a list", lambda v: isinstance(v, list), False)}

# Fixture key -> (what its value must be where given, the test of that, and for
# a list of objects the rules each entry keeps).
FIXTURE_RULES = {
    "frames": ("a nonnegative integer", lambda v: type(v) is int and v >= 0),
    "tokens": ("a nonnegative integer", lambda v: type(v) is int and v >= 0),
    "tool_confidence": ("an object of numbers in [0, 1]", _is_scores),
    "refined_confidence": ("an object of numbers in [0, 1]", _is_scores),
    "tool_failure": ("an object", lambda v: isinstance(v, dict)),
    "detections": ("a list of objects", _is_objects, DETECTION_RULES),
    "transcript": ("a list of objects", _is_objects, TRANSCRIPT_RULES),
    "tables": ("a list of objects", _is_objects, TABLE_RULES),
    "text_blocks": ("a list", lambda v: isinstance(v, list)),
}


def check_fixtures(fixtures: object, where: str = "") -> dict[str, dict]:
    """Return `fixtures` if it is an object of fixture objects that keep
    `FIXTURE_RULES`; else raise WorkloadSpecError at `<where>.<name>.<key>`,
    or at `<where>.<name>.<key>[<i>].<entry key>` for a list entry."""
    if not isinstance(fixtures, dict):
        raise WorkloadSpecError("fixtures must be an object of objects", where)
    for name, fixture in fixtures.items():
        at = f"{where}.{name}" if where else name
        if not isinstance(fixture, dict):
            raise WorkloadSpecError(f"must be an object, not {fixture!r}", at)
        for key, (what, holds, *entry_rules) in FIXTURE_RULES.items():
            if key in fixture and not holds(fixture[key]):
                raise WorkloadSpecError(f"must be {what}, not {fixture[key]!r}", f"{at}.{key}")
            for rules in entry_rules:
                for i, entry in enumerate(fixture.get(key, [])):
                    _check_entry(entry, rules, f"{at}.{key}[{i}]")
    return fixtures


def _check_entry(entry: dict, rules: dict, at: str) -> None:
    for key, (what, holds, required) in rules.items():
        if key in entry and not holds(entry[key]):
            raise WorkloadSpecError(f"must be {what}, not {entry[key]!r}", f"{at}.{key}")
        if key not in entry and (required is True or required in entry):
            given = f" when {required} is given" if isinstance(required, str) else ""
            raise WorkloadSpecError(f"must be given{given}: {what}", f"{at}.{key}")


class SimulatedBackend:
    """Deterministic backend reading scripted fixtures keyed by attachment reference.

    Fixture schema per attachment: detections / transcript / tables /
    text_blocks (plus optional frames, tool_confidence, refined_confidence,
    tool_failure used to script failure scenarios).
    """

    def __init__(self, fixtures: Optional[dict[str, dict]] = None):
        self.fixtures = fixtures or {}

    def _confidence(self, fixture: dict, tool_name: str, task: PerceptualTask, seed: int) -> float:
        refined = bool(task.parameters.get("targets")) or bool(task.parameters.get("refined"))
        if refined and tool_name in fixture.get("refined_confidence", {}):
            return float(fixture["refined_confidence"][tool_name])
        if tool_name in fixture.get("tool_confidence", {}):
            return float(fixture["tool_confidence"][tool_name])
        low, high = CONFIDENCE_RANGE
        u = keyed_uniform(seed, task.source, task.kind.value, tool_name, "confidence")
        return round(low + (high - low) * u, 4)

    def invoke(self, task: PerceptualTask, seed: int, tool_name: str = "") -> BackendResult:
        fixture = self.fixtures.get(task.source, {})
        if fixture.get("tool_failure", {}).get(tool_name):
            raise NodeFailure(f"{tool_name} scripted failure on {task.source}")
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
        else:  # TaskKind.GENERATE_IMAGE, the last of the closed enum
            digest = hashlib.blake2b(
                task.parameters["prompt"].encode(), digest_size=6
            ).hexdigest()
            payload = {"image_ref": f"generated://{digest}"}
        if "clarify_hint" in fixture:
            payload["clarify_hint"] = fixture["clarify_hint"]
        tokens = fixture.get("tokens", DEFAULT_FIXTURE_TOKENS)
        return BackendResult(
            payload=payload,
            confidence=self._confidence(fixture, tool_name, task, seed),
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
    return f"Generated image reference: {payload.get('image_ref', '')}"  # GENERATE_IMAGE


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
