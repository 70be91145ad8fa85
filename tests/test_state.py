"""Query state: session ids, serialization laws, money exactness."""

from __future__ import annotations

import base64
import json
import random
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from supervisord.cli import main
from supervisord.engine import STATE_JOURNAL_HEADER, load_state_file, save_state_file
from supervisord.errors import CorruptState, VersionMismatch
from supervisord.state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
    deserialize_state,
    money_div_rounded,
    new_session,
    serialize_state,
)


def fixed_clock():
    return 0


def seeded_entropy(seed=1):
    rng = random.Random(seed)
    return lambda: rng.randbytes(16)


class TestNewSession:
    def test_consecutive_ids_differ(self):
        entropy = seeded_entropy()
        a = new_session(fixed_clock, entropy)
        b = new_session(fixed_clock, entropy)
        assert a.session_id != b.session_id

    def test_id_format(self):
        meta = new_session(fixed_clock, seeded_entropy())
        assert re.fullmatch(r"0-[0-9a-f]{16}", meta.session_id)

    def test_many_ids_distinct(self):
        entropy = seeded_entropy(42)
        ids = {new_session(fixed_clock, entropy).session_id for _ in range(10_000)}
        assert len(ids) == 10_000

    def test_fresh_session_counters(self):
        meta = new_session(fixed_clock, seeded_entropy())
        assert meta.cumulative_cost == Money(0)
        assert meta.turn_count == 0

    def test_entropy_starvation_rejected(self):
        with pytest.raises(ValueError):
            new_session(fixed_clock, lambda: b"short")


def make_state(**overrides) -> QueryState:
    state = QueryState(
        user_query="what is in this image",
        cost_knob=CostKnob.TRAD_COUPLET,
        session=SessionMeta(session_id="0-" + "ab" * 8, created_at_ms=0),
        attachments=[
            Attachment("path", "photo.png", declared_name="photo.png",
                       detected_modality=Modality.IMAGE),
        ],
        flag=ExecutionFlag.VISION,
    )
    for key, value in overrides.items():
        setattr(state, key, value)
    return state


class TestSerializationRoundTrip:
    def test_empty_context_round_trip_bit_exact(self):
        state = make_state(attachments=[], flag=None)
        data = serialize_state(state)
        assert serialize_state(deserialize_state(data)) == data

    def test_rich_state_field_equality(self):
        state = make_state(
            attachments=[
                Attachment("url", "https://x/y.png", declared_name="y.png"),
                Attachment("path", "a.mp3", detected_modality=Modality.AUDIO),
            ],
            clarify_question="which fields?",
            clarify_response="dates",
            subflag=Subflag.GENERAL,
        )
        back = deserialize_state(serialize_state(state))
        assert back.user_query == state.user_query
        assert back.cost_knob is state.cost_knob
        assert back.clarify_question == state.clarify_question
        assert back.clarify_response == state.clarify_response
        assert back.flag is state.flag
        assert back.subflag is state.subflag
        assert [a.__dict__ for a in back.attachments] == [a.__dict__ for a in state.attachments]
        assert back.session == state.session

    def test_serialize_is_deterministic(self):
        state = make_state()
        assert serialize_state(state) == serialize_state(state)

    def test_unknown_version_rejected(self):
        data = serialize_state(make_state())
        tampered = data.replace(b'"version":1', b'"version":9', 1)
        with pytest.raises(VersionMismatch):
            deserialize_state(tampered)

    def test_truncated_input_rejected(self):
        data = serialize_state(make_state())
        with pytest.raises(CorruptState):
            deserialize_state(data[: len(data) // 2])

    def test_not_json_rejected(self):
        with pytest.raises(CorruptState):
            deserialize_state(b"\xff\xfe not json")

    def test_clarify_response_requires_question(self):
        state = make_state(clarify_response="yes")
        with pytest.raises(ValueError):
            serialize_state(state)


def _older_state_doc() -> dict:
    """A version-1 document as earlier builds wrote it, with a `trace` list, a
    `context` object and a `mime` key on each attachment."""
    return {
        "version": 1,
        "state": {
            "user_query": "what products are shown in this ad?",
            "cost_knob": "open_src",
            "clarify_question": "which brand?",
            "clarify_response": "the drinks",
            "attachments": [
                {"source_kind": "path", "source": "ad.mp4", "declared_name": "ad.mp4",
                 "detected_modality": "video", "mime": "video/mp4"},
                {"source_kind": "url", "source": "https://cdn/raw", "declared_name": "raw.png",
                 "detected_modality": None, "mime": None},
            ],
            "context": {"segments": [
                {"layer": "short", "weight": 0.6, "text": "earlier turn"},
                {"layer": "relevant", "weight": 0.3, "text": ""},
                {"layer": "compressed", "weight": 0.1, "text": "ünïcode summary"},
            ]},
            "session": {"session_id": "1700000000000-00112233aabbccdd",
                        "created_at_ms": 1700000000000,
                        "cumulative_cost_usd": "0.012345", "turn_count": 3},
            "flag": "video",
            "subflag": "general",
            "trace": [
                {"tool": "yolo-detect", "args_digest": "0123456789abcdef",
                 "start_ms": 0, "end_ms": 1450, "outcome": "done"},
                {"tool": "flag-classifier", "args_digest": "fallback",
                 "start_ms": 1450, "end_ms": 1450, "outcome": "rule_fallback"},
            ],
        },
    }


def _canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def _rewritten(doc: dict) -> bytes:
    """What this version writes for an older document: no trace, no context,
    no mime."""
    del doc["state"]["trace"]
    del doc["state"]["context"]
    for attachment in doc["state"]["attachments"]:
        del attachment["mime"]
    return _canonical(doc)


class TestOlderStateFiles:
    def test_trace_key_ignored_and_dropped_on_rewrite(self):
        doc = _older_state_doc()
        state = deserialize_state(_canonical(doc))
        assert state.user_query == "what products are shown in this ad?"
        assert state.cost_knob is CostKnob.OPEN_SRC
        assert (state.clarify_question, state.clarify_response) == ("which brand?", "the drinks")
        assert [a.__dict__ for a in state.attachments] == [
            Attachment("path", "ad.mp4", "ad.mp4", Modality.VIDEO).__dict__,
            Attachment("url", "https://cdn/raw", "raw.png").__dict__,
        ]
        assert state.session == SessionMeta(
            "1700000000000-00112233aabbccdd", 1700000000000, Money(12_345), 3
        )
        assert (state.flag, state.subflag) == (ExecutionFlag.VIDEO, Subflag.GENERAL)

        rewritten = serialize_state(state)
        assert rewritten == _rewritten(doc)
        assert serialize_state(deserialize_state(rewritten)) == rewritten

    @pytest.mark.parametrize("layout", ["journal", "document"])
    def test_context_key_ignored_and_dropped_on_next_save(self, layout, tmp_path, capsys):
        doc = _older_state_doc()
        del doc["state"]["trace"]
        sid = doc["state"]["session"]["session_id"]
        path = tmp_path / f"{sid}.state.json"
        older = _canonical(doc)
        path.write_bytes(STATE_JOURNAL_HEADER + older + b"\n" if layout == "journal" else older)
        store = ["--store-root", str(tmp_path)]
        assert main([*store, "--json", "inspect", sid]) == 0
        assert json.loads(capsys.readouterr().out)["state"]["turn_count"] == 3

        state = load_state_file(str(tmp_path), sid)
        state.session.turn_count += 1
        save_state_file(str(tmp_path), state)
        newest = json.loads(path.read_bytes().splitlines()[-1])
        assert "context" not in newest["state"]
        assert newest["state"]["session"]["turn_count"] == 4
        assert main([*store, "inspect", sid]) == 0

    def test_mime_key_ignored_and_dropped_on_rewrite(self):
        doc = _older_state_doc()
        doc["state"]["attachments"][1]["mime"] = "application/pdf"
        state = deserialize_state(_canonical(doc))
        assert state.attachments[1].detected_modality is None
        assert b"mime" not in serialize_state(state)
        assert serialize_state(state) == _rewritten(doc)

    def test_inline_bytes_attachment_is_corrupt(self):
        doc = _older_state_doc()
        doc["state"]["attachments"].append(
            {"source_kind": "bytes", "source": base64.b64encode(b"\x89PNG\r\n").decode(),
             "declared_name": "raw.png", "detected_modality": None, "mime": None})
        with pytest.raises(CorruptState, match="unknown attachment source kind 'bytes'"):
            deserialize_state(_canonical(doc))

    def test_first_save_rewrites_older_file_as_journal(self, tmp_path):
        doc = _older_state_doc()
        sid = doc["state"]["session"]["session_id"]
        path = tmp_path / f"{sid}.state.json"
        path.write_bytes(_canonical(doc))
        state = load_state_file(str(tmp_path), sid)
        assert serialize_state(state) == _rewritten(doc)
        state.session.turn_count += 1
        save_state_file(str(tmp_path), state)
        assert path.read_bytes() == STATE_JOURNAL_HEADER + serialize_state(state) + b"\n"

    def test_inspect_reads_older_file(self, tmp_path, capsys, monkeypatch):
        doc = _older_state_doc()
        sid = doc["state"]["session"]["session_id"]
        path = tmp_path / f"{sid}.state.json"
        path.write_bytes(_canonical(doc))
        store = ["--store-root", str(tmp_path)]
        assert main([*store, "--json", "inspect", sid]) == 0
        shown = json.loads(capsys.readouterr().out)["state"]
        assert shown["turn_count"] == 3
        assert shown["cumulative_cost_usd"] == "0.012345"

        monkeypatch.delenv("SUPERVISORD_BUDGET_USD", raising=False)
        lines = iter(["what is the capital of france", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main([*store, "session", "--session", sid]) == 0
        capsys.readouterr()
        header, snapshot = path.read_bytes().splitlines(keepends=True)
        assert header == STATE_JOURNAL_HEADER and snapshot.endswith(b"\n")
        assert main([*store, "--json", "inspect", sid]) == 0
        shown = json.loads(capsys.readouterr().out)["state"]
        assert shown["turn_count"] == 4
        assert shown["user_query"] == "what is the capital of france"
        assert float(shown["cumulative_cost_usd"]) > 0.012345


_flags = st.none() | st.sampled_from(list(ExecutionFlag))
_modalities = st.none() | st.sampled_from(list(Modality))


@st.composite
def states(draw):
    session = SessionMeta(
        session_id=f"{draw(st.integers(0, 2**40))}-{draw(st.integers(0, 2**64 - 1)):016x}",
        created_at_ms=draw(st.integers(0, 2**40)),
        cumulative_cost=Money(draw(st.integers(0, 10**9))),
        turn_count=draw(st.integers(0, 200)),
    )
    attachments = draw(
        st.lists(
            st.builds(
                Attachment,
                source_kind=st.just("path"),
                source=st.text(min_size=1, max_size=30),
                declared_name=st.none() | st.text(max_size=20),
                detected_modality=_modalities,
            ),
            max_size=4,
        )
    )
    question = draw(st.none() | st.text(max_size=40))
    response = draw(st.none() | st.text(max_size=40)) if question is not None else None
    return QueryState(
        user_query=draw(st.text(max_size=120)),
        cost_knob=draw(st.sampled_from(list(CostKnob))),
        session=session,
        clarify_question=question,
        clarify_response=response,
        attachments=attachments,
        flag=draw(_flags),
    )


@settings(max_examples=200, deadline=None)
@given(states())
def test_round_trip_law(state):
    assert serialize_state(deserialize_state(serialize_state(state))) == serialize_state(state)


class TestMoney:
    def test_from_usd_exact(self):
        assert Money.from_usd("2.50").micros == 2_500_000
        assert Money.from_usd("0.061").micros == 61_000

    def test_div_rounds_half_even(self):
        assert money_div_rounded(5, 2).micros == 2  # 2.5 -> 2 (even)
        assert money_div_rounded(7, 2).micros == 4  # 3.5 -> 4 (even)
        assert money_div_rounded(6, 2).micros == 3

    def test_session_cost_monotone(self):
        session = SessionMeta("0-" + "00" * 8, 0)
        session.add_cost(Money(10))
        session.add_cost(Money(0))
        assert session.cumulative_cost == Money(10)
        with pytest.raises(ValueError):
            session.add_cost(Money(-1))

    def test_usd_str_resolution(self):
        assert Money(61_000).usd_str() == "0.061000"

    # Negative amounts occur in `compare` deltas.
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.integers(-999_999, 999_999), st.integers(-10**15, 10**15)))
    @example(0)
    @example(1)
    @example(-1)
    @example(999_999)
    @example(-999_999)
    @example(10**15)
    @example(-10**15)
    def test_usd_str_matches_the_decimal_quotient(self, micros):
        assert Money(micros).usd_str() == f"{Decimal(micros) / 1_000_000:.6f}"
