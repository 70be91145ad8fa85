"""Layered conversation memory with per-modality scoring.

Layers: a five-turn short-term ring (O(1) access), the append-only full
history, the last retrieval result, and an optional compressed summary.
Every record carries its modality. Retrieval is one exact scan of the
uncompressed history that scores each record on cosine similarity,
exponential recency decay at its modality's rate, and a modality-match
bonus.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, EmbeddingUnavailable
from .state import ContextBundle, ContextSegment, Modality

DEFAULT_EMBEDDING_DIM = 64
DEFAULT_TOP_K = 6
SHORT_TERM_TURNS = 5
COMPRESSION_TRIGGER_TOKENS = 8000
COMPRESSION_RATIO_BAND = (10.0, 15.0)

# Per-turn exponential decay rates by modality. The unknown modality is not
# covered by the published table; it reuses the video rate as a middle value.
DEFAULT_DECAY_RATES: dict[Modality, float] = {
    Modality.TEXT: 0.15,
    Modality.IMAGE: 0.08,
    Modality.AUDIO: 0.12,
    Modality.DOCUMENT: 0.06,
    Modality.VIDEO: 0.10,
    Modality.UNKNOWN: 0.10,
}


@dataclass(frozen=True)
class ScoreWeights:
    similarity: float = 0.5
    recency: float = 0.3
    modality: float = 0.2

    def validate(self) -> None:
        if min(self.similarity, self.recency, self.modality) < 0:
            raise ValueError("score weights must be nonnegative")


def whitespace_tokens(text: str) -> int:
    return len(text.split())


# --- embedding ----------------------------------------------------------------


class HashingEmbedder:
    """Deterministic feature-hash embedder over token unigrams and bigrams.

    Dependency-free stand-in for an external embedding service; vectors are
    unit-normalized float64 of a configurable dimension.
    """

    def __init__(self, dimension: int = DEFAULT_EMBEDDING_DIM, seed: int = 0):
        if dimension < 2:
            raise ValueError("embedding dimension must be at least 2")
        self.dimension = dimension
        self.seed = seed

    def _grams(self, text: str) -> list[str]:
        tokens = text.lower().split()
        grams = list(tokens)
        grams.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        return grams

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for gram in self._grams(text):
            digest = hashlib.blake2b(
                f"{self.seed}|{gram}".encode("utf-8"), digest_size=8
            ).digest()
            value = int.from_bytes(digest, "big")
            bucket = value % self.dimension
            sign = 1.0 if (value >> 62) & 1 else -1.0
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            anchor = int.from_bytes(
                hashlib.blake2b(f"{self.seed}|".encode(), digest_size=8).digest(), "big"
            )
            vec[anchor % self.dimension] = 1.0
            return vec
        return vec / norm


def embed(content: str, embedder) -> np.ndarray:
    """Embed text via the configured backend; output is unit-normalized."""
    try:
        raw = np.asarray(embedder.embed(content), dtype=np.float64)
    except Exception as exc:
        raise EmbeddingUnavailable(f"embedding backend failed: {exc}") from exc
    if raw.ndim != 1 or raw.shape[0] != embedder.dimension:
        raise EmbeddingUnavailable(
            f"backend returned shape {raw.shape}, expected ({embedder.dimension},)"
        )
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise EmbeddingUnavailable("backend returned a zero vector")
    return raw / norm


# --- records and scoring --------------------------------------------------------


@dataclass(frozen=True)
class MemoryRecord:
    """One stored turn; frozen, so the JSON `save_memory` caches for it stays exact."""

    record_id: str
    content: str
    modality: Modality
    embedding: np.ndarray
    turn_index: int
    created_at_ms: int = 0


def score_memory(
    record: MemoryRecord,
    query_embedding: np.ndarray,
    query_modality: Modality,
    now_turn: int,
    weights: ScoreWeights = ScoreWeights(),
    decay_rates: Optional[dict[Modality, float]] = None,
) -> float:
    """Weighted sum of cosine similarity, exponential recency, and modality match."""
    weights.validate()
    rates = decay_rates or DEFAULT_DECAY_RATES
    similarity = float(np.dot(record.embedding, query_embedding))
    age = max(0, now_turn - record.turn_index)
    recency = math.exp(-rates[record.modality] * age)
    match = 1.0 if record.modality == query_modality else 0.0
    return (
        weights.similarity * similarity
        + weights.recency * recency
        + weights.modality * match
    )


@dataclass
class CompressedSummary:
    text: str
    source_start_turn: int
    source_end_turn: int
    ratio: float


# --- the layered store ------------------------------------------------------------


class MemoryStore:
    """Layered memory for one session."""

    def __init__(
        self,
        dimension: int = DEFAULT_EMBEDDING_DIM,
        weights: ScoreWeights = ScoreWeights(),
        decay_rates: Optional[dict[Modality, float]] = None,
    ):
        self.dimension = dimension
        self.weights = weights
        self.decay_rates = decay_rates or DEFAULT_DECAY_RATES
        self.full_history: list[MemoryRecord] = []
        self.short_term: deque[MemoryRecord] = deque(maxlen=SHORT_TERM_TURNS)
        self.relevant_cache: list[MemoryRecord] = []
        self.compressed: Optional[CompressedSummary] = None
        self._write_lock = threading.Lock()
        self._encoded_records: list[str] = []  # JSON of full_history[:len], see save_memory
        self._retrievable_tokens = 0  # whitespace tokens of _retrievable(), see maybe_compress

    @property
    def turn_count(self) -> int:
        return len(self.full_history)

    def store(self, record: MemoryRecord) -> "MemoryStore":
        if record.embedding.shape != (self.dimension,):
            raise DimensionMismatch(
                f"record embedding has shape {record.embedding.shape}, store expects "
                f"({self.dimension},)"
            )
        with self._write_lock:
            self.full_history.append(record)
            self.short_term.append(record)
            if self.compressed is None or record.turn_index > self.compressed.source_end_turn:
                self._retrievable_tokens += whitespace_tokens(record.content)
        return self

    def add_turn(
        self,
        content: str,
        modality: Modality,
        embedder,
        created_at_ms: int = 0,
    ) -> MemoryRecord:
        record = MemoryRecord(
            record_id=f"m{len(self.full_history):06d}",
            content=content,
            modality=modality,
            embedding=embed(content, embedder),
            turn_index=len(self.full_history) + 1,
            created_at_ms=created_at_ms,
        )
        self.store(record)
        return record

    def _retrievable(self) -> list[MemoryRecord]:
        # Compressed turns are represented by the summary, not retrieved raw.
        if self.compressed is None:
            return list(self.full_history)
        cutoff = self.compressed.source_end_turn
        return [r for r in self.full_history if r.turn_index > cutoff]

    def _recount_retrievable_tokens(self) -> None:
        self._retrievable_tokens = sum(whitespace_tokens(r.content) for r in self._retrievable())

    def retrieve_relevant(
        self,
        query_embedding: np.ndarray,
        query_modality: Modality,
        k: int = DEFAULT_TOP_K,
        now_turn: Optional[int] = None,
    ) -> list[MemoryRecord]:
        """Top-k retrievable records by exact score, newest-first on ties."""
        if k < 1:
            raise ValueError("k must be at least 1")
        now = self.turn_count + 1 if now_turn is None else now_turn
        scored = [
            (
                -score_memory(
                    rec, query_embedding, query_modality, now, self.weights, self.decay_rates
                ),
                -rec.turn_index,
                rec.record_id,
                rec,
            )
            for rec in self._retrievable()
        ]
        scored.sort(key=lambda item: item[:3])
        result = [rec for *_, rec in scored[:k]]
        self.relevant_cache = result
        return result

    # --- context integration ----------------------------------------------------

    def integrate_context(
        self,
        retrieved: Sequence[MemoryRecord],
        weights: tuple[float, float, float] = (0.6, 0.3, 0.1),
    ) -> ContextBundle:
        """Weighted short / relevant / compressed segments, in that fixed order."""
        short_text = "\n".join(r.content for r in self.short_term)
        relevant_text = "\n".join(r.content for r in retrieved)
        compressed_text = self.compressed.text if self.compressed else ""
        return ContextBundle(
            segments=(
                ContextSegment("short", weights[0], short_text),
                ContextSegment("relevant", weights[1], relevant_text),
                ContextSegment("compressed", weights[2], compressed_text),
            )
        )

    # --- compression -------------------------------------------------------------

    def maybe_compress(
        self,
        compressor: Optional[Callable[[str], str]] = None,
        force: bool = False,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> "MemoryStore":
        """Summarize the uncompressed prefix once history passes 8,000 tokens.

        Explicit requests (`force=True`) compress regardless of size. The
        short-term ring is a separate layer and keeps its raw turns.
        Compressor failure keeps history intact.
        """
        if not force and self._retrievable_tokens <= COMPRESSION_TRIGGER_TOKENS:
            return self
        candidates = self._retrievable()
        if not candidates:
            return self
        source_text = "\n".join(r.content for r in candidates)
        compress = compressor or extractive_compressor
        try:
            summary_text = compress(source_text)
        except Exception as exc:
            if on_event:
                on_event(f"compression failed, history retained: {exc}")
            return self
        in_tokens = whitespace_tokens(source_text)
        out_tokens = max(1, whitespace_tokens(summary_text))
        ratio = in_tokens / out_tokens
        if on_event:
            low, high = COMPRESSION_RATIO_BAND
            status = "within" if low <= ratio <= high else "outside"
            on_event(f"compressed {in_tokens} tokens at {ratio:.1f}:1 ({status} target band)")
        prior_start = self.compressed.source_start_turn if self.compressed else candidates[0].turn_index
        prior_text = f"{self.compressed.text}\n" if self.compressed else ""
        self.compressed = CompressedSummary(
            text=prior_text + summary_text,
            source_start_turn=prior_start,
            source_end_turn=candidates[-1].turn_index,
            ratio=ratio,
        )
        self._recount_retrievable_tokens()
        return self


def extractive_compressor(text: str) -> str:
    """Deterministic fallback compressor: keeps roughly one token in twelve."""
    lines = text.splitlines()
    kept: list[str] = []
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        keep = max(1, len(tokens) // 12)
        kept.append(" ".join(tokens[:keep]))
    return " / ".join(kept)


# --- persistence ---------------------------------------------------------------


def memory_path(store_root: str, session_id: str) -> str:
    return os.path.join(store_root, f"{session_id}.memory.json")


def _encode_record(r: MemoryRecord) -> str:
    return json.dumps(
        {
            "record_id": r.record_id,
            "content": r.content,
            "modality": r.modality.value,
            "embedding": r.embedding.tolist(),
            "turn_index": r.turn_index,
            "created_at_ms": r.created_at_ms,
        },
        sort_keys=True,
    )


def save_memory(store: MemoryStore, path: str) -> None:
    """Write the store as one line of sorted-key JSON, then rename it into place.

    Only records appended since the previous save are encoded; the file bytes
    equal `json.dump` of the whole payload with `sort_keys=True`.
    """
    encoded = store._encoded_records
    encoded.extend(_encode_record(r) for r in store.full_history[len(encoded):])
    compressed = json.dumps(asdict(store.compressed) if store.compressed else None, sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{"compressed": {compressed}, "dimension": {json.dumps(store.dimension)}, '
            f'"records": [{", ".join(encoded)}]}}'
        )
    os.replace(tmp, path)


def load_memory(path: str, **store_kwargs) -> MemoryStore:
    """Rehydrate a store from disk. Keys other than dimension, records and
    compressed, such as the index choice older files recorded, are ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    store = MemoryStore(dimension=int(payload["dimension"]), **store_kwargs)
    for obj in payload["records"]:
        record = MemoryRecord(
            record_id=obj["record_id"],
            content=obj["content"],
            modality=Modality(obj["modality"]),
            embedding=np.asarray(obj["embedding"], dtype=np.float64),
            turn_index=int(obj["turn_index"]),
            created_at_ms=int(obj["created_at_ms"]),
        )
        store.store(record)
    comp = payload.get("compressed")
    if comp:
        store.compressed = CompressedSummary(
            text=comp["text"],
            source_start_turn=int(comp["source_start_turn"]),
            source_end_turn=int(comp["source_end_turn"]),
            ratio=float(comp["ratio"]),
        )
        store._recount_retrievable_tokens()
    return store
