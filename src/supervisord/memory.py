"""Layered conversation memory with per-modality scoring.

Layers: a five-turn short-term ring (O(1) access), the append-only full
history, the last retrieval result, and an optional compressed summary.
Every record carries its modality. Retrieval ranks the uncompressed history
exactly on cosine similarity, exponential recency decay at its modality's
rate, and a modality-match bonus: a vectorized prefilter over append-only
rows picks the candidates, and the scalar `score_memory` ranks them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CorruptState, DimensionMismatch, EmbeddingUnavailable
from .state import ContextBundle, ContextSegment, Modality, parse_jsonl

DEFAULT_EMBEDDING_DIM = 64
DEFAULT_TOP_K = 6
SHORT_TERM_TURNS = 5
COMPRESSION_TRIGGER_TOKENS = 8000
COMPRESSION_RATIO_BAND = (10.0, 15.0)
CONTEXT_WEIGHTS = (0.6, 0.3, 0.1)  # short-term, relevant, compressed
GRAM_CACHE_LIMIT = 16_384  # grams each embedder remembers before it starts over

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
        self._slots: dict[str, tuple[int, float]] = {}  # gram -> (bucket, sign)

    def _grams(self, text: str) -> list[str]:
        tokens = text.lower().split()
        grams = list(tokens)
        grams.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        return grams

    def _slot(self, gram: str) -> tuple[int, float]:
        # A slot depends on the gram alone, so threads that race on the dict
        # at worst hash a gram twice.
        digest = hashlib.blake2b(f"{self.seed}|{gram}".encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        slot = (value % self.dimension, 1.0 if (value >> 62) & 1 else -1.0)
        if len(self._slots) >= GRAM_CACHE_LIMIT:
            self._slots.clear()
        self._slots[gram] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        slots = self._slots
        pairs = [slots.get(gram) or self._slot(gram) for gram in self._grams(text)]
        if pairs:
            # Every addend is +-1.0, so each bucket sum is an exact integer in
            # any order: bincount gives the bytes of a sequential `+=` loop.
            buckets, signs = zip(*pairs)
            vec = np.bincount(buckets, weights=signs, minlength=self.dimension)
        else:
            vec = np.zeros(self.dimension, dtype=np.float64)
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
    """One stored turn; frozen, so its journal line, written once, stays exact."""

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

_MODALITIES = tuple(Modality)  # a row's modality code is its index here
_MODALITY_CODES = {m: code for code, m in enumerate(_MODALITIES)}
# Slack under the k-th best approximate score; see retrieve_relevant.
PREFILTER_SLACK = 1e-9


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
        self._journal_mark: Optional[tuple] = None  # what save_memory last wrote, and where
        self._retrievable_tokens = 0  # whitespace tokens of _retrievable(), see maybe_compress
        # Rows parallel to full_history, grown by doubling; see retrieve_relevant.
        self._embeddings = np.zeros((16, dimension), dtype=np.float64)
        self._turns = np.zeros(16, dtype=np.int64)
        self._codes = np.zeros(16, dtype=np.int8)

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
            n = len(self.full_history)
            if n == len(self._turns):  # full: double the rows
                self._embeddings, self._turns, self._codes = (
                    np.concatenate([rows, np.zeros_like(rows)])
                    for rows in (self._embeddings, self._turns, self._codes)
                )
            self._embeddings[n] = record.embedding
            self._turns[n] = record.turn_index
            self._codes[n] = _MODALITY_CODES[record.modality]
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
        """Top-k retrievable records by exact score, newest-first on ties.

        numpy scores every row approximately; only the rows that can reach
        the top k are scored again with `score_memory` and ranked.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        now = self.turn_count + 1 if now_turn is None else now_turn
        n = len(self.full_history)  # store() writes a row before it appends the record
        turns = self._turns[:n]
        pool = turns > self.compressed.source_end_turn if self.compressed else None
        if (n if pool is None else int(pool.sum())) <= k:
            candidates = self._retrievable()
        else:
            # A record's approximate score a and exact score s differ by at
            # most e, far below 1e-12: embeddings are unit vectors and the
            # weights are of order 1, so the two summation orders of the dot
            # product, and np.exp against math.exp, differ in the last bits
            # only. Let A be the k-th best approximate score in a pool of p
            # records and r a record of the exact top k. At least p-k+1
            # records have s <= s(r), so a <= s(r) + e for each of them, and
            # at least k records have a >= A; one record x is in both sets,
            # so A <= a(x) <= s(r) + e <= a(r) + 2e. Every record of the
            # exact top k therefore has a(r) >= A - PREFILTER_SLACK.
            rates = self.decay_rates or DEFAULT_DECAY_RATES
            codes = self._codes[:n]
            w = self.weights
            rate = np.array([rates.get(m, np.nan) for m in _MODALITIES])
            match = np.array([1.0 if m == query_modality else 0.0 for m in _MODALITIES])
            approx = (
                w.similarity * np.einsum("ij,j->i", self._embeddings[:n], query_embedding)
                + w.recency * np.exp(-rate[codes] * np.maximum(now - turns, 0))
                + w.modality * match[codes]
            )
            if pool is not None:
                approx[~pool] = -np.inf
            if np.isnan(approx).any():
                # A modality missing from the rate table, or a NaN query:
                # leave the whole pool to score_memory, as before.
                keep = np.ones(n, dtype=bool) if pool is None else pool
            else:
                keep = approx >= np.partition(approx, n - k)[n - k] - PREFILTER_SLACK
            history = self.full_history
            candidates = [history[i] for i in np.flatnonzero(keep).tolist()]
        scored = [
            (
                -score_memory(
                    rec, query_embedding, query_modality, now, self.weights, self.decay_rates
                ),
                -rec.turn_index,
                rec.record_id,
                rec,
            )
            for rec in candidates
        ]
        scored.sort(key=lambda item: item[:3])
        result = [rec for *_, rec in scored[:k]]
        self.relevant_cache = result
        return result

    # --- context integration ----------------------------------------------------

    def integrate_context(self, retrieved: Sequence[MemoryRecord]) -> ContextBundle:
        """Weighted short / relevant / compressed segments, in that fixed order."""
        short_text = "\n".join(r.content for r in self.short_term)
        relevant_text = "\n".join(r.content for r in retrieved)
        compressed_text = self.compressed.text if self.compressed else ""
        return ContextBundle(
            segments=(
                ContextSegment("short", CONTEXT_WEIGHTS[0], short_text),
                ContextSegment("relevant", CONTEXT_WEIGHTS[1], relevant_text),
                ContextSegment("compressed", CONTEXT_WEIGHTS[2], compressed_text),
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

JOURNAL_FORMAT = "supervisord-memory-journal"
JOURNAL_VERSION = 1


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


def _file_identity(path: str) -> Optional[tuple[int, int, int]]:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_dev, st.st_ino, st.st_size


def save_memory(store: MemoryStore, path: str) -> None:
    """Persist the store at `path` as a JSON Lines journal.

    If `path` is still the file this store last wrote, the records stored
    since then, and the summary if it changed, are appended to it. Otherwise
    (a first save, another path, a file removed or replaced since, the first
    save after `load_memory`) the whole journal is written to `path.tmp` and
    renamed into place.
    """
    with store._write_lock:
        records, compressed = store.full_history, store.compressed
        # (path, (device, inode, size), records written, summary written)
        mark = store._journal_mark
        append = mark is not None and mark[0] == path and _file_identity(path) == mark[1]
        if append:
            _, (device, inode, size), start, written_summary = mark
            lines = []
        else:
            start, written_summary = 0, None
            header = {"dimension": store.dimension, "format": JOURNAL_FORMAT,
                      "version": JOURNAL_VERSION}
            lines = [json.dumps(header, sort_keys=True) + "\n"]
        lines.extend(_encode_record(r) + "\n" for r in records[start:])
        if compressed != written_summary:
            summary = asdict(compressed) if compressed else None
            lines.append(json.dumps({"compressed": summary}, sort_keys=True) + "\n")
        data = "".join(lines).encode("utf-8")
        if append:
            if data:
                with open(path, "ab") as fh:
                    fh.write(data)
            identity = (device, inode, size + len(data))
        else:
            tmp = f"{path}.tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
                st = os.fstat(fh.fileno())
            os.replace(tmp, path)
            identity = (st.st_dev, st.st_ino, len(data))
        summary_copy = replace(compressed) if compressed else None
        store._journal_mark = (path, identity, len(records), summary_copy)


def _decode_record(obj: dict) -> MemoryRecord:
    return MemoryRecord(
        record_id=obj["record_id"],
        content=obj["content"],
        modality=Modality(obj["modality"]),
        embedding=np.asarray(obj["embedding"], dtype=np.float64),
        turn_index=int(obj["turn_index"]),
        created_at_ms=int(obj["created_at_ms"]),
    )


def _journal_header(line: bytes) -> Optional[dict]:
    try:
        header = json.loads(line)
    except ValueError:
        return None
    return header if isinstance(header, dict) and header.get("format") == JOURNAL_FORMAT else None


def load_memory(path: str, **store_kwargs) -> MemoryStore:
    """Rehydrate a store from a journal or from an older one-line file.

    A journal's unterminated last line is an interrupted append and is
    dropped. The last `compressed` line wins. One-line files may carry keys
    other than dimension, records and compressed, such as the index choice
    older files recorded; they are ignored. Any other defect (invalid JSON, a
    missing key, an unknown modality, an embedding that does not match the
    dimension) raises `CorruptState`. The store's next save rewrites the file
    as a compact journal.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    source = f"malformed memory file {path}"
    try:
        first, newline, _ = data.partition(b"\n")
        header = _journal_header(first) if newline else None
        if header is None:  # the one-line layout of earlier versions
            payload = json.loads(data)
            dimension, objects = payload["dimension"], payload["records"]
            comp = payload.get("compressed")
        else:
            if header.get("version") != JOURNAL_VERSION:
                raise ValueError(f"unsupported journal version {header.get('version')!r}")
            dimension, objects, comp = header["dimension"], [], None
            for obj in parse_jsonl(data, source)[1:]:
                if "compressed" in obj:
                    comp = obj["compressed"]
                else:
                    objects.append(obj)
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError(f"dimension {dimension} is not positive")
        records = [_decode_record(obj) for obj in objects]
        compressed = CompressedSummary(
            text=comp["text"],
            source_start_turn=int(comp["source_start_turn"]),
            source_end_turn=int(comp["source_end_turn"]),
            ratio=float(comp["ratio"]),
        ) if comp else None
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise CorruptState(f"{source}: {exc}") from exc
    store = MemoryStore(dimension=dimension, **store_kwargs)
    try:
        for record in records:
            store.store(record)
    except DimensionMismatch as exc:
        raise CorruptState(f"{source}: {exc}") from exc
    if compressed:
        store.compressed = compressed
        store._recount_retrievable_tokens()
    return store
