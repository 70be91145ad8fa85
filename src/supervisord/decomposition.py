"""Two-stage query decomposition.

Stage one resolves attachment modality deterministically: extension map,
then declared MIME type, then magic-byte signature, then unknown. Stage two
assigns one of the eight execution flags from a published rule table,
followed by a safety reconciliation that demotes modality flags lacking a
matching attachment to the mixture-of-experts flag.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional
from urllib.parse import urlparse

from .state import Attachment, ExecutionFlag, FLAG_PRECEDENCE, Modality

EXTENSION_MAP: dict[str, Modality] = {
    # images
    "jpg": Modality.IMAGE, "jpeg": Modality.IMAGE, "png": Modality.IMAGE,
    "gif": Modality.IMAGE, "webp": Modality.IMAGE, "bmp": Modality.IMAGE,
    # audio
    "mp3": Modality.AUDIO, "wav": Modality.AUDIO, "m4a": Modality.AUDIO,
    "flac": Modality.AUDIO, "ogg": Modality.AUDIO,
    # video
    "mp4": Modality.VIDEO, "avi": Modality.VIDEO, "mov": Modality.VIDEO,
    "mkv": Modality.VIDEO, "webm": Modality.VIDEO,
    # documents
    "pdf": Modality.DOCUMENT, "docx": Modality.DOCUMENT, "xlsx": Modality.DOCUMENT,
    "pptx": Modality.DOCUMENT, "doc": Modality.DOCUMENT, "xls": Modality.DOCUMENT,
    "ppt": Modality.DOCUMENT,
    # plain text
    "txt": Modality.TEXT, "md": Modality.TEXT, "rst": Modality.TEXT,
}

# (offset, signature bytes, modality); RIFF containers discriminated below.
MAGIC_SIGNATURES: tuple[tuple[int, bytes, Modality], ...] = (
    (0, b"\x89PNG\r\n\x1a\n", Modality.IMAGE),
    (0, b"\xff\xd8\xff", Modality.IMAGE),
    (0, b"GIF87a", Modality.IMAGE),
    (0, b"GIF89a", Modality.IMAGE),
    (0, b"%PDF-", Modality.DOCUMENT),
    (0, b"PK\x03\x04", Modality.DOCUMENT),
    (0, b"ID3", Modality.AUDIO),
    (0, b"\xff\xfb", Modality.AUDIO),
    (0, b"\xff\xf3", Modality.AUDIO),
    (0, b"fLaC", Modality.AUDIO),
    (4, b"ftyp", Modality.VIDEO),
    (0, b"\x1aE\xdf\xa3", Modality.VIDEO),
)

# Modality a flag demands of the attachment set; empty intersection demotes
# the flag to moe. Scanned pages arrive as images, so document accepts both.
FLAG_REQUIRED_MODALITIES: dict[ExecutionFlag, frozenset[Modality]] = {
    ExecutionFlag.AUDIO: frozenset({Modality.AUDIO}),
    ExecutionFlag.VIDEO: frozenset({Modality.VIDEO}),
    ExecutionFlag.VISION: frozenset({Modality.IMAGE}),
    ExecutionFlag.IMAGEN: frozenset({Modality.IMAGE}),
    ExecutionFlag.DOCUMENT: frozenset({Modality.DOCUMENT, Modality.IMAGE}),
}


def modality_from_mime(mime: str) -> Modality:
    base = mime.split(";", 1)[0].strip().lower()
    if base.startswith("image/"):
        return Modality.IMAGE
    if base.startswith("audio/"):
        return Modality.AUDIO
    if base.startswith("video/"):
        return Modality.VIDEO
    if base == "application/pdf" or "officedocument" in base or base in (
        "application/msword", "application/vnd.ms-excel", "application/vnd.ms-powerpoint"
    ):
        return Modality.DOCUMENT
    if base.startswith("text/"):
        return Modality.TEXT
    return Modality.UNKNOWN


def modality_from_magic(head: bytes) -> Modality:
    if head[:4] == b"RIFF" and len(head) >= 12:
        tag = head[8:12]
        if tag == b"WEBP":
            return Modality.IMAGE
        if tag == b"WAVE":
            return Modality.AUDIO
        if tag == b"AVI ":
            return Modality.VIDEO
    for offset, sig, modality in MAGIC_SIGNATURES:
        if head[offset:offset + len(sig)] == sig:
            return modality
    return Modality.UNKNOWN


def _extension_of(name: str) -> Optional[str]:
    path = urlparse(name).path if "://" in name else name
    base = os.path.basename(path)
    if "." not in base:
        return None
    return base.rsplit(".", 1)[1].lower()


def detect_modality(attachment: Attachment) -> Modality:
    """Resolve modality: extension, then declared MIME, then magic bytes, then unknown."""
    names = []
    if attachment.declared_name:
        names.append(attachment.declared_name)
    if attachment.source_kind in ("url", "path"):
        names.append(str(attachment.source))
    for name in names:
        ext = _extension_of(name)
        if ext and ext in EXTENSION_MAP:
            return EXTENSION_MAP[ext]

    if attachment.mime:
        resolved = modality_from_mime(attachment.mime)
        if resolved is not Modality.UNKNOWN:
            return resolved

    head = b""
    if attachment.source_kind == "bytes":
        head = bytes(attachment.source[:64])
    elif attachment.source_kind == "path":
        try:
            with open(attachment.source, "rb") as fh:
                head = fh.read(64)
        except OSError:
            head = b""
    if head:
        resolved = modality_from_magic(head)
        if resolved is not Modality.UNKNOWN:
            return resolved
    return Modality.UNKNOWN


# --- flag classification -----------------------------------------------------


@dataclass(frozen=True)
class FlagRule:
    keywords: tuple[str, ...] = ()
    keyword_weight: float = 1.0
    base: float = 0.0
    bonus_modalities: tuple[Modality, ...] = ()  # any-of
    modality_bonus: float = 0.0
    no_attachment_bonus: float = 0.0
    absent_modalities: tuple[Modality, ...] = ()
    absent_bonus: float = 0.0
    multi_step_bonus: float = 0.0


_MULTI_STEP_MARKERS = (
    " and then ", " then ", "after that", "first,", "second,", "finally",
    "two ", "three ", "four ", "five ", "1.", "2.", "3.",
)


def _multi_step_score(query: str) -> int:
    q = query.lower()
    hits = sum(1 for marker in _MULTI_STEP_MARKERS if marker in q)
    hits += max(0, q.count(" and ") - 1)
    if q.count(",") >= 2:
        hits += 1
    return hits


def score_flags(
    query: str, modalities: set[Modality], rules: dict[ExecutionFlag, FlagRule]
) -> dict[ExecutionFlag, float]:
    q = query.lower()
    scores: dict[ExecutionFlag, float] = {}
    for flag in FLAG_PRECEDENCE:
        rule = rules.get(flag, FlagRule())
        score = rule.base
        score += rule.keyword_weight * sum(1 for kw in rule.keywords if kw in q)
        if rule.bonus_modalities and any(m in modalities for m in rule.bonus_modalities):
            score += rule.modality_bonus
        if rule.no_attachment_bonus and not modalities:
            score += rule.no_attachment_bonus
        if rule.absent_bonus and rule.absent_modalities and not any(
            m in modalities for m in rule.absent_modalities
        ):
            score += rule.absent_bonus
        if rule.multi_step_bonus and _multi_step_score(q) >= 2:
            score += rule.multi_step_bonus
        scores[flag] = score
    return scores


@dataclass
class FlagDecision:
    flag: ExecutionFlag
    scores: dict[ExecutionFlag, float]


def classify_flag_detail(
    query: str,
    modalities: set[Modality],
    rules: Optional[dict[ExecutionFlag, FlagRule]] = None,
) -> FlagDecision:
    """Argmax flag assignment; ties broken by the fixed flag precedence."""
    scores = score_flags(query, modalities, rules or default_flag_rules())
    best = max(FLAG_PRECEDENCE, key=lambda f: (scores[f], -FLAG_PRECEDENCE.index(f)))
    return FlagDecision(flag=best, scores=scores)


def reconcile_flag(flag: ExecutionFlag, modalities: set[Modality]) -> ExecutionFlag:
    """Demote a modality flag to moe when no matching attachment exists."""
    required = FLAG_REQUIRED_MODALITIES.get(flag)
    if required is not None and not (required & modalities):
        return ExecutionFlag.MOE
    return flag


# --- rule table file ----------------------------------------------------------


def rules_from_json(obj: dict) -> dict[ExecutionFlag, FlagRule]:
    rules = {}
    for flag_name, raw in obj.items():
        rules[ExecutionFlag(flag_name)] = FlagRule(
            keywords=tuple(raw.get("keywords", [])),
            keyword_weight=float(raw.get("keyword_weight", 1.0)),
            base=float(raw.get("base", 0.0)),
            bonus_modalities=tuple(Modality(m) for m in raw.get("bonus_modalities", [])),
            modality_bonus=float(raw.get("modality_bonus", 0.0)),
            no_attachment_bonus=float(raw.get("no_attachment_bonus", 0.0)),
            absent_modalities=tuple(Modality(m) for m in raw.get("absent_modalities", [])),
            absent_bonus=float(raw.get("absent_bonus", 0.0)),
            multi_step_bonus=float(raw.get("multi_step_bonus", 0.0)),
        )
    return rules


def load_flag_rules(path: str) -> dict[ExecutionFlag, FlagRule]:
    with open(path, "r", encoding="utf-8") as fh:
        return rules_from_json(json.load(fh))


_default_rules_cache: Optional[dict[ExecutionFlag, FlagRule]] = None


def default_flag_rules() -> dict[ExecutionFlag, FlagRule]:
    global _default_rules_cache
    if _default_rules_cache is None:
        text = resources.files("supervisord.data").joinpath("flag_rules.json").read_text("utf-8")
        _default_rules_cache = rules_from_json(json.loads(text))
    return _default_rules_cache
