"""Memory: embedding, layered store, scoring, retrieval oracle, compression."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supervisord import memory
from supervisord.errors import CorruptState, DimensionMismatch
from supervisord.memory import (
    COMPRESSION_TRIGGER_TOKENS,
    CompressedSummary,
    DEFAULT_DECAY_RATES,
    HashingEmbedder,
    MemoryRecord,
    MemoryStore,
    ScoreWeights,
    embed,
    load_memory,
    save_memory,
    score_memory,
    whitespace_tokens,
)
from supervisord.state import Modality


class TestEmbedder:
    def test_deterministic(self):
        embedder = HashingEmbedder(dimension=64)
        a = embed("the same text twice", embedder)
        b = embed("the same text twice", embedder)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        embedder = HashingEmbedder(dimension=64)
        for text in ("one", "two words", "a much longer sentence with many tokens", ""):
            vec = embedder.embed(text)
            assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9

    def test_configurable_dimension(self):
        embedder = HashingEmbedder(dimension=1536)
        assert embed("external backend style", embedder).shape == (1536,)


def reference_embed(text, dimension=64, seed=0):
    """The embedder's formula without a gram cache: one blake2b per gram, added in order."""
    vec = np.zeros(dimension, dtype=np.float64)
    tokens = text.lower().split()
    for gram in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
        digest = hashlib.blake2b(f"{seed}|{gram}".encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        vec[value % dimension] += 1.0 if (value >> 62) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        anchor = int.from_bytes(hashlib.blake2b(f"{seed}|".encode(), digest_size=8).digest(), "big")
        vec[anchor % dimension] = 1.0
        return vec
    return vec / norm


_WORDS = "the a revenue grew Grew in quarter costs held dog chart x y".split()
_TEXTS = st.one_of(
    st.text(max_size=60),
    st.text(alphabet=" \t\n\r", max_size=6),
    st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join),
)


class TestEmbedderGramCache:
    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=10),
           limit=st.integers(1, 24), dimension=st.sampled_from([2, 7, 64]),
           seed=st.integers(0, 3))
    def test_cached_embed_equals_uncached_formula(self, texts, limit, dimension, seed):
        with mock.patch.object(memory, "GRAM_CACHE_LIMIT", limit):
            embedder = HashingEmbedder(dimension=dimension, seed=seed)
            for text in texts + texts:  # the second pass reads grams from the cache
                got = embedder.embed(text)
                expected = reference_embed(text, dimension, seed)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), text
                assert len(embedder._slots) <= limit

    def test_cache_clears_at_its_bound(self):
        text = " ".join(f"w{i}" for i in range(30))  # 59 distinct grams
        with mock.patch.object(memory, "GRAM_CACHE_LIMIT", 8):
            embedder = HashingEmbedder()
            for _ in range(3):
                assert np.array_equal(embedder.embed(text), reference_embed(text))
                assert 0 < len(embedder._slots) <= 8
        embedder = HashingEmbedder()
        embedder.embed(text)
        assert len(embedder._slots) == 59


def record(store, text, modality=Modality.TEXT, embedder=None):
    embedder = embedder or HashingEmbedder()
    return store.add_turn(text, modality, embedder)


class TestStoreLayers:
    def test_short_term_window_advances(self):
        store = MemoryStore()
        for i in range(6):
            record(store, f"turn {i + 1}")
        window = [r.turn_index for r in store.short_term]
        assert window == [2, 3, 4, 5, 6]

    def test_full_history_append_only_count(self):
        store = MemoryStore()
        for i in range(100):
            record(store, f"turn {i}")
        assert store.turn_count == 100

    def test_dimension_mismatch(self):
        store = MemoryStore(dimension=64)
        bad = MemoryRecord("r0", "x", Modality.TEXT, np.zeros(32), 1)
        with pytest.raises(DimensionMismatch):
            store.store(bad)


class TestScoring:
    def test_perfect_score_is_one(self):
        embedder = HashingEmbedder()
        vec = embedder.embed("identical")
        rec = MemoryRecord("r", "identical", Modality.TEXT, vec, turn_index=5)
        score = score_memory(rec, vec, Modality.TEXT, now_turn=5,
                             weights=ScoreWeights(0.5, 0.3, 0.2))
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_text_recency_decay_two_turns(self):
        vec = np.zeros(64)
        vec[0] = 1.0
        orthogonal = np.zeros(64)
        orthogonal[1] = 1.0
        rec = MemoryRecord("r", "old", Modality.TEXT, vec, turn_index=1)
        score = score_memory(rec, orthogonal, Modality.IMAGE, now_turn=3,
                             weights=ScoreWeights(0.0, 1.0, 0.0))
        assert score == pytest.approx(math.exp(-0.15 * 2), rel=1e-12)
        assert score == pytest.approx(0.7408, abs=5e-5)

    def test_all_components_zero(self):
        vec = np.zeros(64); vec[0] = 1.0
        orthogonal = np.zeros(64); orthogonal[1] = 1.0
        rec = MemoryRecord("r", "x", Modality.AUDIO, vec, turn_index=0)
        score = score_memory(rec, orthogonal, Modality.TEXT, now_turn=10_000)
        assert score == pytest.approx(0.0, abs=1e-9)

    def test_decay_table_covers_all_modalities(self):
        assert set(DEFAULT_DECAY_RATES) == set(Modality)
        assert DEFAULT_DECAY_RATES[Modality.TEXT] == 0.15
        assert DEFAULT_DECAY_RATES[Modality.IMAGE] == 0.08
        assert DEFAULT_DECAY_RATES[Modality.AUDIO] == 0.12
        assert DEFAULT_DECAY_RATES[Modality.DOCUMENT] == 0.06
        assert DEFAULT_DECAY_RATES[Modality.VIDEO] == 0.10

    def test_monotone_in_similarity_and_age(self):
        base = np.zeros(64); base[0] = 1.0
        closer = base.copy()
        query = base.copy()
        partial = np.zeros(64); partial[0] = 0.5; partial[1] = math.sqrt(0.75)
        rec_near = MemoryRecord("a", "x", Modality.TEXT, closer, 5)
        rec_far = MemoryRecord("b", "x", Modality.TEXT, partial, 5)
        assert score_memory(rec_near, query, Modality.TEXT, 6) > score_memory(
            rec_far, query, Modality.TEXT, 6
        )
        old = MemoryRecord("c", "x", Modality.TEXT, closer, 1)
        assert score_memory(rec_near, query, Modality.TEXT, 6) > score_memory(
            old, query, Modality.TEXT, 6
        )


def brute_force_topk(store, query, modality, k, now_turn, after_turn=0):
    scored = sorted(
        (
            (
                -score_memory(r, query, modality, now_turn, store.weights, store.decay_rates),
                -r.turn_index,
                r.record_id,
            ),
            r,
        )
        for r in store.full_history
        if r.turn_index > after_turn
    )
    return [r for _, r in scored[:k]]


class TestRetrieval:
    def test_small_store_returns_all_sorted(self):
        store = MemoryStore()
        embedder = HashingEmbedder()
        for i in range(3):
            record(store, f"note {i}", embedder=embedder)
        query = embedder.embed("note")
        result = store.retrieve_relevant(query, Modality.TEXT, k=6)
        assert len(result) == 3
        assert result == brute_force_topk(store, query, Modality.TEXT, 6, store.turn_count + 1)

    def test_matches_brute_force_oracle(self):
        store = MemoryStore()
        embedder = HashingEmbedder()
        rng = random.Random(17)
        modalities = list(Modality)
        words = "alpha beta gamma delta epsilon zeta eta theta".split()
        for i in range(100):
            text = " ".join(rng.choices(words, k=rng.randint(2, 6)))
            record(store, text, rng.choice(modalities), embedder)
        query = embedder.embed("gamma delta")
        result = store.retrieve_relevant(query, Modality.TEXT, k=6)
        assert result == brute_force_topk(store, query, Modality.TEXT, 6, store.turn_count + 1)

    def test_equal_scores_newer_first(self):
        store = MemoryStore()
        store.weights = ScoreWeights(1.0, 0.0, 0.0)
        embedder = HashingEmbedder()
        record(store, "same text", embedder=embedder)
        record(store, "same text", embedder=embedder)
        query = embedder.embed("same text")
        result = store.retrieve_relevant(query, Modality.TEXT, k=2)
        assert [r.turn_index for r in result] == [2, 1]

    def test_empty_store_returns_empty(self):
        store = MemoryStore()
        assert store.retrieve_relevant(HashingEmbedder().embed("q"), Modality.TEXT) == []

    def test_scaling_weights_keeps_order(self):
        embedder = HashingEmbedder()
        rng = random.Random(3)
        words = "red green blue cyan magenta".split()
        texts = [" ".join(rng.choices(words, k=4)) for _ in range(40)]
        base, scaled = MemoryStore(), MemoryStore()
        base.weights = ScoreWeights(0.5, 0.3, 0.2)
        scaled.weights = ScoreWeights(1.5, 0.9, 0.6)
        for text in texts:
            record(base, text, embedder=embedder)
            record(scaled, text, embedder=embedder)
        query = embedder.embed("red blue")
        a = [r.record_id for r in base.retrieve_relevant(query, Modality.TEXT, k=6)]
        b = [r.record_id for r in scaled.retrieve_relevant(query, Modality.TEXT, k=6)]
        assert a == b

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryStore().retrieve_relevant(HashingEmbedder().embed("q"), Modality.TEXT, k=0)


def filled_store(n, seed):
    store = MemoryStore()
    embedder = HashingEmbedder()
    rng = random.Random(seed)
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    for _ in range(n):
        record(store, " ".join(rng.choices(words, k=rng.randint(1, 5))),
               rng.choice(list(Modality)), embedder)
    return store


def assert_matches_oracle(store, after_turn=0):
    embedder = HashingEmbedder()
    for text in ("gamma delta", "alpha", "zeta eta theta", "unrelated words"):
        query = embedder.embed(text)
        for modality in Modality:
            for k in (1, 6, 40):
                got = store.retrieve_relevant(query, modality, k=k)
                assert got == brute_force_topk(
                    store, query, modality, k, store.turn_count + 1, after_turn
                ), (text, modality, k)


class TestRetrievalPrefilter:
    def test_exact_ties_rank_newest_first(self):
        store = MemoryStore()
        store.decay_rates = {m: 0.0 for m in Modality}
        vec = HashingEmbedder().embed("the same words")
        for i in range(20):
            store.store(MemoryRecord(f"m{i:06d}", "the same words", Modality.TEXT, vec, i + 1))
        result = store.retrieve_relevant(vec, Modality.TEXT, k=6)
        assert [r.turn_index for r in result] == [20, 19, 18, 17, 16, 15]
        assert result == brute_force_topk(store, vec, Modality.TEXT, 6, 21)

    def test_compression_cutoff_masks_rows(self):
        store = filled_store(70, seed=1)
        store.maybe_compress(force=True)
        cutoff = store.compressed.source_end_turn
        assert cutoff == 70
        for _ in range(30):
            record(store, "gamma after the summary", Modality.TEXT)
        record(store, "alpha beta", Modality.IMAGE)
        assert_matches_oracle(store, after_turn=cutoff)
        assert all(r.turn_index > cutoff for r in store.retrieve_relevant(
            HashingEmbedder().embed("alpha"), Modality.TEXT, k=40))

    def test_load_memory_round_trip(self, tmp_path):
        store = filled_store(60, seed=2)
        store.maybe_compress(force=True)
        for i in range(50):
            record(store, f"delta {i} epsilon", list(Modality)[i % len(Modality)])
        path = str(tmp_path / "session.memory.json")
        save_memory(store, path)
        loaded = load_memory(path)
        assert_matches_oracle(loaded, after_turn=loaded.compressed.source_end_turn)
        query = HashingEmbedder().embed("delta epsilon")
        assert [r.record_id for r in loaded.retrieve_relevant(query, Modality.AUDIO)] == [
            r.record_id for r in store.retrieve_relevant(query, Modality.AUDIO)]

    def test_decay_table_replaced_after_storing(self):
        store = filled_store(120, seed=3)
        query = HashingEmbedder().embed("beta")
        before = store.retrieve_relevant(query, Modality.TEXT, k=6)
        store.decay_rates = {m: (2.0 if m == Modality.TEXT else 0.001) for m in Modality}
        after = store.retrieve_relevant(query, Modality.TEXT, k=6)
        assert after != before
        assert_matches_oracle(store)

    def test_modality_missing_from_decay_table_raises_as_before(self):
        store = filled_store(30, seed=4)
        store.decay_rates = {Modality.TEXT: 0.15}
        with pytest.raises(KeyError):
            store.retrieve_relevant(HashingEmbedder().embed("beta"), Modality.TEXT, k=6)


class TestCompression:
    def test_below_trigger_no_compression(self):
        store = MemoryStore()
        embedder = HashingEmbedder()
        # 7,999 tokens of history
        store.add_turn("w " * 3999, Modality.TEXT, embedder)
        store.add_turn("w " * 4000, Modality.TEXT, embedder)
        assert whitespace_tokens(" ".join(r.content for r in store.full_history)) == 7999
        store.maybe_compress()
        assert store.compressed is None

    def test_above_trigger_compresses_with_ratio(self):
        store = MemoryStore()
        embedder = HashingEmbedder()
        store.add_turn("w " * 4500, Modality.TEXT, embedder)
        store.add_turn("w " * 4500, Modality.TEXT, embedder)
        events = []
        store.maybe_compress(on_event=events.append)
        # Each 4,500-token line keeps 375 tokens; " / " joins the two.
        assert store.compressed is not None
        assert store.compressed.ratio == pytest.approx(9000 / 751, rel=1e-6)
        assert events == ["compressed 9000 tokens at 12.0:1 (within target band)"]

    def test_short_turns_compress_outside_the_band(self):
        store = MemoryStore()
        embedder = HashingEmbedder()
        for i in range(3):
            store.add_turn(f"turn {i} of five tokens", Modality.TEXT, embedder)
        events = []
        store.maybe_compress(force=True, on_event=events.append)
        # A line keeps at least one token: "turn / turn / turn" is 5 tokens.
        assert store.compressed.ratio == pytest.approx(15 / 5, rel=1e-6)
        assert events == ["compressed 15 tokens at 3.0:1 (outside target band)"]

    def test_explicit_request_compresses_small_history(self):
        store = MemoryStore()
        embedder = HashingEmbedder()
        store.add_turn("only " * 500, Modality.TEXT, embedder)
        store.maybe_compress(force=True)
        assert store.compressed is not None

    def test_trigger_constant(self):
        assert COMPRESSION_TRIGGER_TOKENS == 8000

    def test_running_token_total_matches_recount(self, tmp_path):
        def recount(store):
            return sum(whitespace_tokens(r.content) for r in store.retrievable())

        rng = random.Random(5)
        embedder = HashingEmbedder()
        store = MemoryStore()
        path = str(tmp_path / "session.memory.json")
        ends = []
        for i in range(120):
            words = rng.randint(0, 400)
            store.add_turn(" ".join(f"w{i}" for _ in range(words)), Modality.TEXT, embedder)
            assert store._retrievable_tokens == recount(store), i
            store.maybe_compress(force=i == 10)
            assert store._retrievable_tokens == recount(store), i
            if store.compressed and store.compressed.source_end_turn not in ends:
                ends.append(store.compressed.source_end_turn)
            if i == 70:
                save_memory(store, path)
                store = load_memory(path)
                assert store._retrievable_tokens == recount(store) > 0
        assert ends == [11, 58, 104]  # forced, triggered, triggered after the reload


def reference_memory_bytes(store, tmp_path):
    """The one-line file earlier versions wrote: `json.dump` of the whole payload."""
    payload = {
        "dimension": store.dimension,
        "records": [
            {
                "record_id": r.record_id,
                "content": r.content,
                "modality": r.modality.value,
                "embedding": [float(x) for x in r.embedding],
                "turn_index": r.turn_index,
                "created_at_ms": r.created_at_ms,
            }
            for r in store.full_history
        ],
        "compressed": (
            {
                "text": store.compressed.text,
                "source_start_turn": store.compressed.source_start_turn,
                "source_end_turn": store.compressed.source_end_turn,
                "ratio": store.compressed.ratio,
            }
            if store.compressed
            else None
        ),
    }
    path = tmp_path / "reference.memory.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path.read_bytes()


def assert_same_store(got, expected):
    """Everything a store holds, compared field by field, plus retrieval."""
    assert got.dimension == expected.dimension
    assert len(got.full_history) == len(expected.full_history)
    for a, b in zip(got.full_history, expected.full_history):
        assert (a.record_id, a.content, a.modality, a.turn_index, a.created_at_ms) == (
            b.record_id, b.content, b.modality, b.turn_index, b.created_at_ms)
        assert np.array_equal(a.embedding, b.embedding)
    assert got.compressed == expected.compressed
    assert [r.record_id for r in got.short_term] == [r.record_id for r in expected.short_term]
    assert got._retrievable_tokens == expected._retrievable_tokens
    embedder = HashingEmbedder(dimension=expected.dimension)
    for text in ("note", "she said ship it", "café \U0001F600"):
        query = embedder.embed(text)
        for modality in (Modality.TEXT, Modality.VIDEO):
            assert [r.record_id for r in got.retrieve_relevant(query, modality, k=4)] == [
                r.record_id for r in expected.retrieve_relevant(query, modality, k=4)]


def journal_lines(path):
    return path.read_bytes().split(b"\n")


def record_line(r):
    return (memory._encode_record(r) + "\n").encode()


def compressed_line(compressed):
    return (json.dumps({"compressed": dataclasses.asdict(compressed)}, sort_keys=True)
            + "\n").encode()


VARIED_CONTENTS = [
    "plain note {i}",
    'she said "ship it" on turn {i}',
    "café résumé naïve {i} — 日本語",
    "emoji \U0001F600 and a backslash \\ {i}",
    "tab\tnewline\nquote' {i}",
]


def varied_store(turns, compress_at=None, dimension=64):
    store = MemoryStore(dimension=dimension)
    embedder = HashingEmbedder(dimension=dimension)
    modalities = list(Modality)
    for i in range(turns):
        text = VARIED_CONTENTS[i % len(VARIED_CONTENTS)].format(i=i)
        store.add_turn(text, modalities[i % len(modalities)], embedder, created_at_ms=37 * i)
        if i == compress_at:
            store.maybe_compress(force=True)
    return store


class TestPersistence:
    def test_legacy_file_loads_and_first_save_migrates(self, tmp_path):
        store = varied_store(30, compress_at=14)
        assert store.compressed is not None
        path = tmp_path / "session.memory.json"
        path.write_bytes(reference_memory_bytes(store, tmp_path))
        loaded = load_memory(str(path))
        assert_same_store(loaded, store)

        save_memory(loaded, str(path))  # the first save after a load rewrites
        lines = journal_lines(path)
        assert json.loads(lines[0]) == {
            "dimension": 64, "format": "supervisord-memory-journal", "version": 1}
        assert lines[1:-2] == [record_line(r)[:-1] for r in store.full_history]
        assert lines[-2] == compressed_line(store.compressed)[:-1]
        assert lines[-1] == b""
        assert_same_store(load_memory(str(path)), store)

        before = path.read_bytes()
        added = loaded.add_turn("after migrating", Modality.AUDIO, HashingEmbedder())
        save_memory(loaded, str(path))
        assert path.read_bytes() == before + record_line(added)
        assert_same_store(load_memory(str(path)), loaded)

    def test_stored_records_are_frozen(self):
        store = MemoryStore()
        rec = record(store, "immutable once stored")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.content = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            store.full_history[0].turn_index = 99

    def test_round_trip(self, tmp_path):
        store = MemoryStore()
        embedder = HashingEmbedder()
        for i in range(8):
            record(store, f"note {i}", Modality.TEXT if i % 2 else Modality.IMAGE, embedder)
        store.maybe_compress(force=True)
        path = str(tmp_path / "session.memory.json")
        save_memory(store, path)
        loaded = load_memory(path)
        assert loaded.turn_count == store.turn_count
        assert [r.record_id for r in loaded.short_term] == [r.record_id for r in store.short_term]
        assert loaded.compressed.text == store.compressed.text
        query = embedder.embed("note 3")
        assert [r.record_id for r in loaded.retrieve_relevant(query, Modality.TEXT)] == [
            r.record_id for r in store.retrieve_relevant(query, Modality.TEXT)
        ]

    @pytest.mark.parametrize("index_kind", ["hnsw", "exact", None])
    def test_loads_older_files_and_drops_index_kind(self, tmp_path, index_kind):
        # A file in the earlier layout, which also recorded the index kind.
        rng = random.Random(41)
        modalities = [Modality.TEXT, Modality.IMAGE, Modality.AUDIO, Modality.DOCUMENT]
        records = []
        for i in range(12):
            vec = np.array([rng.gauss(0, 1) for _ in range(8)])
            vec /= np.linalg.norm(vec)
            records.append({
                "record_id": f"m{i:06d}",
                "content": f"turn {i}",
                "modality": modalities[i % len(modalities)].value,
                "embedding": [float(x) for x in vec],
                "turn_index": i + 1,
                "created_at_ms": 100 * i,
            })
        payload = {
            "dimension": 8,
            "records": records,
            "compressed": {
                "text": "turns one to four",
                "source_start_turn": 1,
                "source_end_turn": 4,
                "ratio": 12.0,
            },
        }
        if index_kind is not None:
            payload["index_kind"] = index_kind
        path = tmp_path / "old.memory.json"
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

        loaded = load_memory(str(path))
        assert loaded.turn_count == 12
        assert loaded.compressed == CompressedSummary("turns one to four", 1, 4, 12.0)
        assert [r.record_id for r in loaded.short_term] == [
            f"m{i:06d}" for i in range(7, 12)
        ]
        query = np.array([rng.gauss(0, 1) for _ in range(8)])
        query /= np.linalg.norm(query)
        for modality in modalities:
            got = loaded.retrieve_relevant(query, modality, k=6)
            expected = brute_force_topk(loaded, query, modality, 6, 13, after_turn=4)
            assert [r.record_id for r in got] == [r.record_id for r in expected]

        resaved = tmp_path / "new.memory.json"
        save_memory(loaded, str(resaved))
        header = json.loads(journal_lines(resaved)[0])
        assert header == {"dimension": 8, "format": "supervisord-memory-journal", "version": 1}
        assert b"index_kind" not in resaved.read_bytes()
        assert_same_store(load_memory(str(resaved)), loaded)


_contents = st.one_of(
    st.sampled_from(['"quoted"', "two\nlines", "café", "\U0001F600 astral", "", "  "]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=24),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _contents, st.sampled_from(list(Modality))),
        st.tuples(st.just("compress"), st.booleans()),
        st.tuples(st.just("save")),
        st.tuples(st.just("reload")),
    ),
    max_size=30,
)


class TestJournal:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_load_equals_store_after_every_save(self, ops):
        embedder = HashingEmbedder(dimension=8)
        store = MemoryStore(dimension=8)
        with tempfile.TemporaryDirectory() as root:
            path = f"{root}/s.memory.json"
            for op in ops + [("save",)]:
                if op[0] == "add":
                    store.add_turn(op[1], op[2], embedder, created_at_ms=store.turn_count * 7)
                elif op[0] == "compress":
                    store.maybe_compress(force=op[1])
                elif op[0] == "reload" and os.path.exists(path):
                    store = load_memory(path)  # unsaved turns are dropped; go on from here
                else:
                    save_memory(store, path)
                    assert_same_store(load_memory(path), store)

    def test_save_appends_the_new_turn_only(self, tmp_path):
        store = varied_store(3)
        path = tmp_path / "s.memory.json"
        save_memory(store, str(path))
        inode = os.stat(path).st_ino
        embedder = HashingEmbedder()
        for i in range(12):
            before = path.read_bytes()
            added = store.add_turn(VARIED_CONTENTS[i % 5].format(i=i), Modality.TEXT, embedder)
            expected = before + record_line(added)
            if i in (4, 9):
                store.maybe_compress(force=True)
                expected += compressed_line(store.compressed)
            save_memory(store, str(path))
            assert path.read_bytes() == expected, i
            assert os.stat(path).st_ino == inode  # appended in place, not renamed over
        before = path.read_bytes()
        save_memory(store, str(path))  # nothing new: nothing written
        assert path.read_bytes() == before
        assert_same_store(load_memory(str(path)), store)

    @pytest.mark.parametrize("last", ["record", "compressed"])
    def test_torn_tail_loses_only_the_last_line(self, tmp_path, last):
        store = varied_store(6, compress_at=2, dimension=8)
        path = tmp_path / "s.memory.json"
        save_memory(store, str(path))
        store.add_turn("the turn being saved", Modality.IMAGE, HashingEmbedder(dimension=8))
        if last == "compressed":
            save_memory(store, str(path))
            store.maybe_compress(force=True)
        earlier = load_memory(str(path))
        save_memory(store, str(path))
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        assert data[start:].startswith(b'{"compressed"' if last == "compressed" else b'{"content"')
        torn = tmp_path / "torn.memory.json"
        for cut in range(start, len(data)):
            torn.write_bytes(data[:cut])
            assert_same_store(load_memory(str(torn)), earlier)
        save_memory(load_memory(str(torn)), str(torn))  # the first save after a load rewrites
        compact = tmp_path / "compact.memory.json"
        save_memory(earlier, str(compact))
        assert torn.read_bytes() == compact.read_bytes()
        assert torn.read_bytes().endswith(b"\n")

    @pytest.mark.parametrize("change", ["deleted", "replaced", "truncated", "grown"])
    def test_file_changed_behind_the_store_is_rewritten_whole(self, tmp_path, change):
        store = varied_store(4)
        path = tmp_path / "s.memory.json"
        save_memory(store, str(path))
        clean = path.read_bytes()
        if change == "deleted":
            path.unlink()
        elif change == "replaced":
            copy = tmp_path / "copy"
            copy.write_bytes(clean)
            os.replace(copy, path)
        elif change == "truncated":
            with open(path, "r+b") as fh:
                fh.truncate(len(clean) - 5)
        else:
            with open(path, "ab") as fh:
                fh.write(b"\n")
        inode = os.stat(path).st_ino if path.exists() else None
        added = store.add_turn("after the change", Modality.TEXT, HashingEmbedder())
        save_memory(store, str(path))
        assert os.stat(path).st_ino != inode
        assert path.read_bytes() == clean + record_line(added)
        assert_same_store(load_memory(str(path)), store)

    @pytest.mark.parametrize("defect", [
        "header-cut", "header-dimension", "bad-line", "unknown-modality",
        "missing-key", "bad-version",
    ])
    def test_defects_other_than_a_torn_tail_are_corrupt(self, tmp_path, defect):
        store = varied_store(3)
        path = tmp_path / "s.memory.json"
        save_memory(store, str(path))
        lines = path.read_bytes().split(b"\n")
        if defect == "header-cut":
            data = lines[0][:30]
        else:
            if defect == "header-dimension":
                lines[0] = lines[0].replace(b'"dimension": 64', b'"dimension": 32')
            elif defect == "bad-line":
                lines[2] = lines[2][:40]
            elif defect == "unknown-modality":
                lines[2] = lines[2].replace(b'"modality": "image"', b'"modality": "smell"')
            elif defect == "missing-key":
                lines[2] = lines[2].replace(b'"turn_index"', b'"turn"')
            else:
                lines[0] = lines[0].replace(b'"version": 1', b'"version": 2')
            data = b"\n".join(lines)
        assert data != path.read_bytes()
        path.write_bytes(data)
        with pytest.raises(CorruptState, match="malformed memory file"):
            load_memory(str(path))


_lazy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _contents, st.sampled_from(list(Modality))),
        st.tuples(st.just("retrieve"), _contents, st.sampled_from(list(Modality)),
                  st.integers(1, 6)),
        st.tuples(st.just("compress")),
        st.tuples(st.just("save")),
    ),
    max_size=40,
)


class TestLazyEmbedding:
    """A turn stored by `add_turn` is embedded on first read; nothing else differs
    from a store that was handed every vector up front."""

    @settings(max_examples=80, deadline=None)
    @given(ops=_lazy_ops)
    def test_lazy_store_equals_eager_store(self, ops):
        embedder = HashingEmbedder(dimension=8)
        lazy, eager = MemoryStore(dimension=8), MemoryStore(dimension=8)
        with tempfile.TemporaryDirectory() as root:
            for op in ops + [("save",)]:
                if op[0] == "add":
                    n, created = eager.turn_count, eager.turn_count * 7
                    lazy.add_turn(op[1], op[2], embedder, created_at_ms=created)
                    eager.store(MemoryRecord(f"m{n:06d}", op[1], op[2], embed(op[1], embedder),
                                             n + 1, created))
                elif op[0] == "retrieve":
                    query = embed(op[1] or " ", embedder)
                    got, expected = (
                        [r.record_id for r in s.retrieve_relevant(query, op[2], k=op[3])]
                        for s in (lazy, eager)
                    )
                    assert got == expected
                elif op[0] == "compress":
                    lazy.maybe_compress(force=True)
                    eager.maybe_compress(force=True)
                else:
                    save_memory(lazy, f"{root}/lazy.memory.json")
                    save_memory(eager, f"{root}/eager.memory.json")
                    with open(f"{root}/lazy.memory.json", "rb") as a, \
                            open(f"{root}/eager.memory.json", "rb") as b:
                        assert a.read() == b.read()
        assert [r.embedding.tobytes() for r in lazy.full_history] == [
            r.embedding.tobytes() for r in eager.full_history]

    @settings(max_examples=60, deadline=None)
    @given(unranked=st.integers(0, 40), ops=st.lists(st.one_of(
        st.tuples(st.just("add"), _contents, st.sampled_from(list(Modality))),
        st.tuples(st.just("store"), _contents, st.sampled_from(list(Modality))),
        st.tuples(st.just("compress")),
        st.tuples(st.just("retrieve"), _contents, st.sampled_from(list(Modality)),
                  st.integers(1, 6)),
    ), max_size=40))
    @example(unranked=20, ops=[("retrieve", "turn 3", Modality.TEXT, 6),
                               ("add", "one more", Modality.IMAGE),
                               ("retrieve", "one more", Modality.IMAGE, 2)])
    def test_rankings_match_oracle_while_rows_grow(self, unranked, ops):
        # The rows are built at the first ranking, which may come after more
        # turns than the first allocation holds, and extended by later ones.
        embedder = HashingEmbedder(dimension=8)
        store = MemoryStore(dimension=8)
        for i in range(unranked):
            store.add_turn(f"turn {i} " + "w " * (i % 5), list(Modality)[i % len(Modality)],
                           embedder)
        for op in ops + [("retrieve", "turn", Modality.TEXT, 6)]:
            n = store.turn_count
            if op[0] == "add":
                store.add_turn(op[1], op[2], embedder)
            elif op[0] == "store":
                store.store(MemoryRecord(f"s{n:06d}", op[1], op[2], embed(op[1] or " ", embedder),
                                         n + 1))
            elif op[0] == "compress":
                store.maybe_compress(force=True)
            else:
                query = embed(op[1] or " ", embedder)
                after = store.compressed.source_end_turn if store.compressed else 0
                assert store.retrieve_relevant(query, op[2], k=op[3]) == brute_force_topk(
                    store, query, op[2], op[3], n + 1, after_turn=after)
                if store.retrievable_count >= 2:
                    assert store._filled == n  # a ranking writes every row
                for i in range(store._filled):
                    record = store.full_history[i]
                    assert store._embeddings[i].tobytes() == record.embedding.tobytes()
                    assert store._turns[i] == record.turn_index
                    assert store._codes[i] == list(Modality).index(record.modality)

    def test_store_and_first_rankings_embed_only_what_they_rank(self):
        embedder = mock.Mock(wraps=HashingEmbedder(), dimension=64)
        store = MemoryStore()
        first = store.add_turn("alpha beta", Modality.TEXT, embedder)
        query = HashingEmbedder().embed("alpha")
        assert store.retrieve_relevant(query, Modality.TEXT) == [first]
        assert embedder.embed.call_count == 0  # a pool of one is returned unranked
        store.add_turn("gamma delta", Modality.IMAGE, embedder)
        store.retrieve_relevant(query, Modality.TEXT)
        assert embedder.embed.call_count == 2
        store.retrieve_relevant(query, Modality.TEXT)
        assert embedder.embed.call_count == 2  # each record once

    def test_dimension_mismatch_raises_at_add_turn(self):
        store = MemoryStore(dimension=64)
        with pytest.raises(DimensionMismatch):
            store.add_turn("x", Modality.TEXT, HashingEmbedder(dimension=32))
        assert store.turn_count == 0
