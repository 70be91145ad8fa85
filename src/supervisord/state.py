"""Query state: the single record carried across every processing stage.

Holds the user query, cost tier, clarification dialogue, attachments,
flag and session metadata, plus a lossless
serialize/rehydrate pair so state can move between stages and processes
without information loss. Execution events live in the JSONL trace
(`scheduler.TraceRow`), not here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from typing import Callable, Optional

from .errors import CorruptState, VersionMismatch

STATE_VERSION = 1

MICROS_PER_USD = 1_000_000


@dataclass(order=True, unsafe_hash=True, slots=True)
class Money:
    """USD amount held as integer micro-dollars; arithmetic is exact.

    Division (e.g. per-token pricing) rounds half-to-even at the final
    micro-dollar, so sums are permutation-invariant.
    """

    micros: int = 0

    @classmethod
    def from_usd(cls, value: "str | int | float | Decimal") -> "Money":
        try:
            dec = Decimal(str(value)).quantize(
                Decimal("0.000001"), rounding=ROUND_HALF_EVEN
            )
        except InvalidOperation as exc:
            raise ValueError(f"not a USD amount: {value!r}") from exc
        return cls(int(dec * MICROS_PER_USD))

    def usd(self) -> Decimal:
        return Decimal(self.micros) / MICROS_PER_USD

    def usd_str(self) -> str:
        whole, frac = divmod(abs(self.micros), MICROS_PER_USD)
        return f"{'-' if self.micros < 0 else ''}{whole}.{frac:06d}"

    def __add__(self, other: "Money") -> "Money":
        return Money(self.micros + other.micros)

    def __sub__(self, other: "Money") -> "Money":
        return Money(self.micros - other.micros)

    def __repr__(self) -> str:
        return f"Money({self.usd_str()})"


def money_div_rounded(numerator_micros: int, denominator: int) -> Money:
    """Divide an exact micro-dollar product, rounding half-to-even."""
    q, r = divmod(numerator_micros, denominator)
    double = r * 2
    if double > denominator or (double == denominator and q % 2 == 1):
        q += 1
    return Money(q)


class CostKnob(str, Enum):
    """User-selected computational tier."""

    OPEN_SRC = "open_src"
    CLOSED_SRC = "closed_src"
    TRAD_COUPLET = "trad_couplet"


class ExecutionFlag(str, Enum):
    """Eight-way routing category assigned by decomposition."""

    AUDIO = "audio"
    VIDEO = "video"
    VISION = "vision"
    IMAGEN = "imagen"
    DOCUMENT = "document"
    ROUTELLM = "routellm"
    MOE = "moe"
    COMPLEX = "complex"


# Fixed precedence used to break classification ties.
FLAG_PRECEDENCE: tuple[ExecutionFlag, ...] = (
    ExecutionFlag.AUDIO,
    ExecutionFlag.VIDEO,
    ExecutionFlag.VISION,
    ExecutionFlag.IMAGEN,
    ExecutionFlag.DOCUMENT,
    ExecutionFlag.ROUTELLM,
    ExecutionFlag.MOE,
    ExecutionFlag.COMPLEX,
)


class Subflag(str, Enum):
    """Four-way weak-query category for lightweight model selection."""

    CODING = "coding"
    SUMMARIZATION_REWRITING = "summarization_rewriting"
    ANALYTICAL_MATHS = "analytical_maths"
    GENERAL = "general"


class Modality(str, Enum):
    """Attachment content categories."""

    TEXT = "text"
    IMAGE = "image"
    AUDIO = "audio"
    VIDEO = "video"
    DOCUMENT = "document"
    UNKNOWN = "unknown"


@dataclass
class Attachment:
    """One attached input, by reference: a URL or a local path."""

    source_kind: str  # "url" | "path"
    source: str
    declared_name: Optional[str] = None
    detected_modality: Optional[Modality] = None

    def validate(self) -> None:
        if self.source_kind not in ("url", "path"):
            raise ValueError(f"unknown attachment source kind {self.source_kind!r}")


@dataclass
class SessionMeta:
    """Per-session metadata: unique id, creation time, cost, turn counter."""

    session_id: str
    created_at_ms: int
    cumulative_cost: Money = field(default_factory=Money)
    turn_count: int = 0

    def add_cost(self, amount: Money) -> None:
        if amount.micros < 0:
            raise ValueError("session cost is monotonically nondecreasing")
        self.cumulative_cost = self.cumulative_cost + amount


@dataclass
class QueryState:
    """Everything one query needs to move between stages without loss."""

    user_query: str
    cost_knob: CostKnob
    session: SessionMeta
    clarify_question: Optional[str] = None
    clarify_response: Optional[str] = None
    attachments: list[Attachment] = field(default_factory=list)
    flag: Optional[ExecutionFlag] = None
    subflag: Optional[Subflag] = None

    def validate(self) -> None:
        if self.clarify_response is not None and self.clarify_question is None:
            raise ValueError("clarify_response requires clarify_question")
        if self.flag is not None and not isinstance(self.flag, ExecutionFlag):
            raise ValueError(f"flag {self.flag!r} outside the execution flag set")
        if self.subflag is not None and not isinstance(self.subflag, Subflag):
            raise ValueError(f"subflag {self.subflag!r} outside the subflag set")
        for att in self.attachments:
            att.validate()
        if self.session.turn_count < 0:
            raise ValueError("turn_count must be nonnegative")


def new_session(clock: Callable[[], int], entropy: Callable[[], bytes]) -> SessionMeta:
    """Create fresh session metadata.

    `clock` returns epoch milliseconds; `entropy` must yield at least 96 bits
    per call (the id consumes the first 64). The id has the form
    `<epoch-millis>-<16 lowercase hex chars>`.
    """
    now_ms = int(clock())
    raw = entropy()
    if len(raw) < 12:
        raise ValueError("entropy source must yield at least 96 bits per call")
    suffix = raw[:8].hex()
    return SessionMeta(session_id=f"{now_ms}-{suffix}", created_at_ms=now_ms)


# --- serialization -----------------------------------------------------------


def _attachment_to_json(att: Attachment) -> dict:
    return {
        "source_kind": att.source_kind,
        "source": att.source,
        "declared_name": att.declared_name,
        "detected_modality": att.detected_modality.value if att.detected_modality else None,
    }


def _attachment_from_json(obj: dict) -> Attachment:
    """A `mime` key from older files is ignored."""
    modality = obj.get("detected_modality")
    return Attachment(
        source_kind=obj["source_kind"],
        source=obj["source"],
        declared_name=obj.get("declared_name"),
        detected_modality=Modality(modality) if modality else None,
    )


def state_to_json_dict(state: QueryState) -> dict:
    return {
        "user_query": state.user_query,
        "cost_knob": state.cost_knob.value,
        "clarify_question": state.clarify_question,
        "clarify_response": state.clarify_response,
        "attachments": [_attachment_to_json(a) for a in state.attachments],
        "session": {
            "session_id": state.session.session_id,
            "created_at_ms": state.session.created_at_ms,
            "cumulative_cost_usd": state.session.cumulative_cost.usd_str(),
            "turn_count": state.session.turn_count,
        },
        "flag": state.flag.value if state.flag else None,
        "subflag": state.subflag.value if state.subflag else None,
    }


def state_from_json_dict(obj: dict) -> QueryState:
    """Inverse of `state_to_json_dict`; the `trace` and `context` keys of older
    files are ignored."""
    session_obj = obj["session"]
    session = SessionMeta(
        session_id=session_obj["session_id"],
        created_at_ms=int(session_obj["created_at_ms"]),
        cumulative_cost=Money.from_usd(session_obj["cumulative_cost_usd"]),
        turn_count=int(session_obj["turn_count"]),
    )
    state = QueryState(
        user_query=obj["user_query"],
        cost_knob=CostKnob(obj["cost_knob"]),
        session=session,
        clarify_question=obj.get("clarify_question"),
        clarify_response=obj.get("clarify_response"),
        attachments=[_attachment_from_json(a) for a in obj["attachments"]],
        flag=ExecutionFlag(obj["flag"]) if obj.get("flag") else None,
        subflag=Subflag(obj["subflag"]) if obj.get("subflag") else None,
    )
    return state


def serialize_state(state: QueryState) -> bytes:
    """Encode a well-formed state as a versioned, deterministic UTF-8 JSON document."""
    state.validate()
    doc = {"version": STATE_VERSION, "state": state_to_json_dict(state)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def deserialize_state(data: bytes) -> QueryState:
    """Rebuild a QueryState; rejects unknown versions and truncated documents."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptState(f"unreadable state document: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CorruptState("state document missing version tag")
    if doc["version"] != STATE_VERSION:
        raise VersionMismatch(
            f"unsupported state version {doc['version']!r} (expected {STATE_VERSION})"
        )
    try:
        state = state_from_json_dict(doc["state"])
        state.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptState(f"malformed state payload: {exc}") from exc
    return state


def parse_jsonl(data: bytes, source: str) -> list:
    """The JSON values of a JSON Lines file, one per newline-terminated line.

    Files in this format grow by appends, so an unterminated final line is an
    append that was interrupted and is dropped. A terminated line that is not
    JSON raises `CorruptState` as `<source>: line <n>: ...`.
    """
    lines = data.split(b"\n")
    lines.pop()  # empty after a final newline, else the torn tail
    values = []
    for number, line in enumerate(lines, 1):
        try:
            values.append(json.loads(line))
        except ValueError as exc:
            raise CorruptState(f"{source}: line {number}: {exc}") from exc
    return values


def write_jsonl(path: str, lines: bytes, append: Callable[[os.stat_result], bool],
                rewrite: Callable[[bytes], bytes]) -> tuple[int, int, int]:
    """Save to the JSON Lines file at `path`; return its (device, inode, size).

    The one save rule of the session files, whose lines count once their
    newline is written (`parse_jsonl`): `lines` are appended when the file
    ends on a complete line and `append(stat)` holds. Otherwise
    `rewrite(kept)` is written to `<path>.tmp`, creating a missing directory,
    and renamed into place. `kept` is the file's complete lines if `append`
    held and only a torn last line stopped the append, else empty.
    """
    kept = b""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        pass
    else:
        with fh:
            st = os.fstat(fh.fileno())
            if st.st_size and append(st):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) == b"\n":
                    fh.write(lines)
                    return st.st_dev, st.st_ino, st.st_size + len(lines)
                fh.seek(0)
                kept = fh.read()
                kept = kept[: kept.rfind(b"\n") + 1]
    data = rewrite(kept)
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(f"{path}.tmp", "wb") as fh:
        fh.write(data)
        st = os.fstat(fh.fileno())
    os.replace(f"{path}.tmp", path)
    return st.st_dev, st.st_ino, len(data)


__all__ = [
    "Attachment",
    "CostKnob",
    "ExecutionFlag",
    "FLAG_PRECEDENCE",
    "Modality",
    "Money",
    "QueryState",
    "STATE_VERSION",
    "SessionMeta",
    "Subflag",
    "deserialize_state",
    "money_div_rounded",
    "new_session",
    "parse_jsonl",
    "serialize_state",
    "state_from_json_dict",
    "state_to_json_dict",
    "write_jsonl",
]
