"""Layered conversation memory with per-modality scoring.

Layers: the append-only full history, its last five turns as the
short-term window, and an optional compressed summary.
Every record carries its modality. Retrieval ranks the uncompressed history
exactly on cosine similarity, exponential recency decay at its modality's
rate, and a modality-match bonus: a vectorized prefilter over rows built at
the store's first ranking picks the candidates, and the scalar `score_memory`
ranks them.

A turn stored by `add_turn` is embedded when it is first ranked or saved (or
its `embedding` is read), not when it is stored; a pool of at most one
record is returned unranked, so a store that is never ranked or saved
computes no embedding and builds no rows. numpy is imported at the first
embedding, ranking or memory-file load, so `simulate` never loads it.

A `MemoryStore` belongs to one thread: nothing in it is locked, and a
`HashingEmbedder` shared between threads may race on its gram cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import CorruptState, DimensionMismatch
from .state import Modality, parse_jsonl, write_jsonl

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EMBEDDING_DIM = 64
DEFAULT_TOP_K = 6
SHORT_TERM_TURNS = 5
COMPRESSION_TRIGGER_TOKENS = 8000
COMPRESSION_RATIO_BAND = (10.0, 15.0)
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


DEFAULT_SCORE_WEIGHTS = ScoreWeights()


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
        # gram -> bucket for sign +1, dimension + bucket for sign -1
        self._slots: dict[str, int] = {}

    def _grams(self, text: str) -> list[str]:
        tokens = text.lower().split()
        grams = list(tokens)
        grams.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        return grams

    def _slot(self, gram: str) -> int:
        digest = hashlib.blake2b(f"{self.seed}|{gram}".encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        slot = value % self.dimension + (0 if (value >> 62) & 1 else self.dimension)
        if len(self._slots) >= GRAM_CACHE_LIMIT:
            self._slots.clear()
        self._slots[gram] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        import numpy as np
        slots, dim = self._slots, self.dimension
        index = [s if (s := slots.get(g)) is not None else self._slot(g) for g in self._grams(text)]
        # Every addend is +-1, so each bucket is an exact integer: the +1 count
        # less the -1 count gives the bytes of a sequential float `+=` loop.
        counts = np.bincount(np.array(index, dtype=np.intp), minlength=2 * dim)
        vec = (counts[:dim] - counts[dim:]).astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            anchor = int.from_bytes(
                hashlib.blake2b(f"{self.seed}|".encode(), digest_size=8).digest(), "big"
            )
            vec[anchor % self.dimension] = 1.0
            return vec
        return vec / norm


def embed(content: str, embedder: HashingEmbedder) -> np.ndarray:
    """The embedder's vector for `content`, divided once more by its norm.

    That second division moves the low bits of some vectors, and stored
    vectors are kept bit-exact, so it stays.
    """
    import numpy as np
    raw = embedder.embed(content)
    return raw / float(np.linalg.norm(raw))


# --- records and scoring --------------------------------------------------------


class _Unembedded:
    """The embedder of a turn stored before anything read its vector."""

    __slots__ = ("embedder",)

    def __init__(self, embedder):
        self.embedder = embedder


class _EmbeddingField:
    """`MemoryRecord.embedding`: holds a vector, or an `_Unembedded` that the
    first read replaces with `embed(content, embedder)`."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        value = record.__dict__[self.name]
        if isinstance(value, _Unembedded):
            value = record.__dict__[self.name] = embed(record.content, value.embedder)
        return value

    def __set__(self, record, value):
        record.__dict__[self.name] = value


@dataclass(frozen=True)
class MemoryRecord:
    """One stored turn; frozen, so its journal line, written once, stays exact.

    The `embedding` of a turn stored by `MemoryStore.add_turn` is computed
    when it is first read.
    """

    record_id: str
    content: str
    modality: Modality
    embedding: np.ndarray = _EmbeddingField()
    turn_index: int
    created_at_ms: int = 0
    tokens: int = field(init=False, repr=False, compare=False)  # whitespace_tokens(content)

    def __post_init__(self):
        object.__setattr__(self, "tokens", whitespace_tokens(self.content))


def score_memory(
    record: MemoryRecord,
    query_embedding: np.ndarray,
    query_modality: Modality,
    now_turn: int,
    weights: ScoreWeights = DEFAULT_SCORE_WEIGHTS,
    decay_rates: Optional[dict[Modality, float]] = None,
) -> float:
    """Weighted sum of cosine similarity, exponential recency, and modality match."""
    weights.validate()
    rates = decay_rates or DEFAULT_DECAY_RATES
    similarity = float(record.embedding.dot(query_embedding))  # np.dot, needing no import
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

    weights = DEFAULT_SCORE_WEIGHTS
    decay_rates = DEFAULT_DECAY_RATES

    def __init__(self, dimension: int = DEFAULT_EMBEDDING_DIM):
        self.dimension = dimension
        self.full_history: list[MemoryRecord] = []
        self.compressed: Optional[CompressedSummary] = None
        self._journal_mark: Optional[tuple] = None  # what save_memory last wrote, and where
        self._retrievable_tokens = 0  # whitespace tokens of retrievable(), see maybe_compress
        self._retrievable_count = 0  # len(retrievable()), kept as records arrive
        self._summary_tokens = 0  # whitespace tokens of compressed.text
        # Rows of full_history[:_filled], built by ranking; see retrieve_relevant.
        self._embeddings = self._turns = self._codes = None
        self._filled = 0

    @property
    def turn_count(self) -> int:
        return len(self.full_history)

    @property
    def short_term(self) -> list[MemoryRecord]:
        """The last `SHORT_TERM_TURNS` records of the history, oldest first."""
        return self.full_history[-SHORT_TERM_TURNS:]

    def store(self, record: MemoryRecord) -> "MemoryStore":
        if record.embedding.shape != (self.dimension,):
            raise DimensionMismatch(
                f"record embedding has shape {record.embedding.shape}, store expects "
                f"({self.dimension},)"
            )
        self._append(record)
        return self

    def _append(self, record: MemoryRecord) -> None:
        self.full_history.append(record)
        if self.compressed is None or record.turn_index > self.compressed.source_end_turn:
            self._retrievable_tokens += record.tokens
            self._retrievable_count += 1

    def add_turn(
        self,
        content: str,
        modality: Modality,
        embedder,
        created_at_ms: int = 0,
    ) -> MemoryRecord:
        """Store a turn; `embedder` embeds it when it is first ranked or saved.

        Its ranking row is built at its first ranking, and storing imports no
        numpy, so `simulate`, which never ranks or saves, loads neither. Raises
        `DimensionMismatch` at once if the embedder's dimension is not the
        store's.
        """
        if embedder.dimension != self.dimension:
            raise DimensionMismatch(
                f"embedder dimension {embedder.dimension}, store expects {self.dimension}"
            )
        n = len(self.full_history)
        record = MemoryRecord(
            record_id=f"m{n:06d}",
            content=content,
            modality=modality,
            embedding=_Unembedded(embedder),
            turn_index=n + 1,
            created_at_ms=created_at_ms,
        )
        self._append(record)
        return record

    def retrievable(self) -> list[MemoryRecord]:
        """The records retrieval picks from: those past the compressed summary."""
        # Compressed turns are represented by the summary, not retrieved raw.
        if self.compressed is None:
            return list(self.full_history)
        cutoff = self.compressed.source_end_turn
        return [r for r in self.full_history if r.turn_index > cutoff]

    @property
    def retrievable_count(self) -> int:
        """`len(retrievable())`, without building the list."""
        return self._retrievable_count

    def _recount_retrievable(self) -> None:
        pool = self.retrievable()
        self._retrievable_count = len(pool)
        self._retrievable_tokens = sum(r.tokens for r in pool)

    def retrieve_relevant(
        self,
        query_embedding: np.ndarray,
        query_modality: Modality,
        k: int = DEFAULT_TOP_K,
    ) -> list[MemoryRecord]:
        """Top-k retrievable records by exact score, newest-first on ties.

        A pool of at most one record is returned as it is, unranked, and reads
        no vector. Otherwise numpy is imported and the rows of the records
        stored since the last ranking are written (the first ranking allocates
        them); numpy scores every row approximately, and only the rows that
        can reach the top k are scored again with `score_memory` and ranked.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if self._retrievable_count < 2:
            return self.retrievable()
        import numpy as np
        history = self.full_history
        n = len(history)
        if self._turns is None:
            self._embeddings = np.zeros((16, self.dimension), dtype=np.float64)
            self._turns = np.zeros(16, dtype=np.int64)
            self._codes = np.zeros(16, dtype=np.int8)
        while len(self._turns) < n:  # full: double the rows
            self._embeddings, self._turns, self._codes = (
                np.concatenate([rows, np.zeros_like(rows)])
                for rows in (self._embeddings, self._turns, self._codes)
            )
        for i in range(self._filled, n):
            self._embeddings[i] = history[i].embedding
            self._turns[i] = history[i].turn_index
            self._codes[i] = _MODALITY_CODES[history[i].modality]
        self._filled = n
        now = self.turn_count + 1
        turns = self._turns[:n]
        pool = turns > self.compressed.source_end_turn if self.compressed else None
        if (n if pool is None else int(pool.sum())) <= k:
            candidates = self.retrievable()
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
            codes = self._codes[:n]
            w = self.weights
            rate = np.array([self.decay_rates[m] for m in _MODALITIES])
            match = np.array([1.0 if m == query_modality else 0.0 for m in _MODALITIES])
            approx = (
                w.similarity * np.einsum("ij,j->i", self._embeddings[:n], query_embedding)
                + w.recency * np.exp(-rate[codes] * np.maximum(now - turns, 0))
                + w.modality * match[codes]
            )
            if pool is not None:
                approx[~pool] = -np.inf
            keep = approx >= np.partition(approx, n - k)[n - k] - PREFILTER_SLACK
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
        return [rec for *_, rec in scored[:k]]

    # --- context ------------------------------------------------------------------

    def context_tokens(self, retrieved: Sequence[MemoryRecord]) -> int:
        """Whitespace tokens of the short-term window, the retrieved records and
        the summary joined by newlines, from the counts kept per record and for
        the summary: newlines neither merge nor make tokens."""
        tokens = self._summary_tokens
        for record in (*self.short_term, *retrieved):
            tokens += record.tokens
        return tokens

    # --- compression -------------------------------------------------------------

    def maybe_compress(
        self,
        force: bool = False,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> "MemoryStore":
        """Summarize the uncompressed prefix with `extractive_compressor` once
        history passes 8,000 tokens.

        Explicit requests (`force=True`) compress regardless of size. The
        short-term ring is a separate layer and keeps its raw turns.
        """
        if not force and self._retrievable_tokens <= COMPRESSION_TRIGGER_TOKENS:
            return self
        candidates = self.retrievable()
        if not candidates:
            return self
        summary_text = extractive_compressor("\n".join(r.content for r in candidates))
        in_tokens = self._retrievable_tokens
        summary_tokens = whitespace_tokens(summary_text)
        ratio = in_tokens / max(1, summary_tokens)
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
        self._summary_tokens += summary_tokens  # the newline before it adds none
        self._recount_retrievable()
        return self


def extractive_compressor(text: str) -> str:
    """Deterministic compressor: keeps roughly one token in twelve."""
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


def save_memory(store: MemoryStore, path: str) -> None:
    """Persist the store at `path` as a JSON Lines journal (`state.write_jsonl`).

    If `path` is still the file this store last wrote (same device, inode and
    size), the records stored since then, and the summary if it changed, are
    appended to it. Otherwise (a first save, another path, a file removed or
    replaced since, the first save after `load_memory`) the whole journal is
    rewritten.
    """
    records, compressed = store.full_history, store.compressed
    header = {"dimension": store.dimension, "format": JOURNAL_FORMAT, "version": JOURNAL_VERSION}

    def encode(start: int, written_summary: Optional[CompressedSummary]) -> bytes:
        lines = [_encode_record(r) + "\n" for r in records[start:]]
        if compressed != written_summary:
            summary = asdict(compressed) if compressed else None
            lines.append(json.dumps({"compressed": summary}, sort_keys=True) + "\n")
        return "".join(lines).encode("utf-8")

    # (path, (device, inode, size), records written, summary written)
    mark = store._journal_mark
    ours = mark is not None and mark[0] == path
    identity = write_jsonl(
        path,
        encode(mark[2], mark[3]) if ours else b"",
        lambda st: ours and (st.st_dev, st.st_ino, st.st_size) == mark[1],
        lambda _: (json.dumps(header, sort_keys=True) + "\n").encode("utf-8") + encode(0, None),
    )
    summary_copy = replace(compressed) if compressed else None
    store._journal_mark = (path, identity, len(records), summary_copy)


def _decode_record(obj: dict) -> MemoryRecord:
    import numpy as np
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


def load_memory(path: str) -> MemoryStore:
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
    store = MemoryStore(dimension=dimension)
    try:
        for record in records:
            store.store(record)
    except DimensionMismatch as exc:
        raise CorruptState(f"{source}: {exc}") from exc
    if compressed:
        store.compressed = compressed
        store._summary_tokens = whitespace_tokens(compressed.text)
        store._recount_retrievable()
    return store
