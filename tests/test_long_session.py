"""A 250-turn session, persisted every turn, pinned to its answers and to the
memory journal, trace log and state journal it leaves.

The inputs are the benchmark's session-long workload at seed 1, taken from
`perfbench/workloads.py` (imported, not changed). Memory compresses once, near
turn 200, so retrieval runs on both sides of a compression cutoff. Each turn
is saved through `engine.save_turn`, as `cmd_session` saves it; perfbench
calls the same three functions (`save_state_file`, `save_session_memory`,
`append_trace_rows`) itself.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from supervisord import engine, errors, memory, routing, scheduler, state

ROOT = Path(__file__).resolve().parent.parent

ANSWERS_SHA256 = "5264b9b9ab20ea700d2d0114e1a22e0b8ce67bf45b66ff1bf69a402790df6292"
# The same store written in the one-line layout of earlier versions.
LEGACY_MEMORY_FILE_SHA256 = "1dc8abee491aab01610a94c54de1af5cd78f346abdefe108f43ddbc788e5ed56"
MEMORY_FILE_SHA256 = "ec3414a7006e13ece551c01f211275e8023423bc74c0544c4bcb3e5301f8ed1a"
TRACE_FILE_SHA256 = "6ac8eb8bb85a75c738691b5c4d78be3a82195142abd94274cf16a7ab32940dc7"
# The log as versions that wrote a `start` row at each launch and a
# `session_id` key on every row left it.
START_ROWS_TRACE_FILE_SHA256 = "43c142171d95c72283441cd4b4790b44af657162bb4d6f1b82d0b20e32b0bafa"
STATE_FILE_SHA256 = "cef35eacf50c66a09b7afa157ad0a8874071dd069f963c5144df30350173020a"
# The journal that versions writing each turn's context into its snapshot
# left: the same snapshots plus a `context` key, so fewer fit before a rewrite.
CONTEXT_STATE_FILE_SHA256 = "9d1dbef8491f54410ad490279ec19eab82660abc1bc95a8d8d7c8e1ca3cede0d"
# That journal as versions that also wrote a `"mime":null` key on every attachment.
MIME_STATE_FILE_SHA256 = "5eb1d54af637c09d8a90a1524c9da8fe034a23090f25cf8fffb82fda4ee866ad"


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def with_context(snapshot: bytes, context: tuple[str, str, str]) -> bytes:
    """The snapshot as versions that stored the turn's context wrote it: the
    short-term window, the retrieved records and the summary as weighted
    segments."""
    doc = json.loads(snapshot)
    doc["state"]["context"] = {"segments": [
        {"layer": layer, "weight": weight, "text": text}
        for (layer, weight), text in zip((("short", 0.6), ("relevant", 0.3), ("compressed", 0.1)),
                                         context)
    ]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


class LaunchRecorder:
    """Wraps `Scheduler.execute` to note, in call order, each launch (its
    virtual time, node and tool) and each priced attempt end: the places where
    versions that wrote `start` rows wrote them."""

    def __init__(self, monkeypatch):
        self.calls = []
        execute = scheduler.Scheduler.execute
        recorder = self

        class Backends:
            def __init__(self, inner, clock, registry):
                self.inner, self.clock, self.registry = inner, clock, registry

            def run_node(self, node, seed):
                recorder.calls.append((self.clock.now_ms(), node.node_id,
                                       self.registry.get(node.tool).name))
                return self.inner.run_node(node, seed)

            def node_cost(self, node, invocation):
                recorder.calls.append(None)
                return self.inner.node_cost(node, invocation)

        def recording_execute(sched, graph, clock, backends, seed):
            return execute(sched, graph, clock, Backends(backends, clock, sched.registry), seed)

        monkeypatch.setattr(scheduler.Scheduler, "execute", recording_execute)

    def with_start_rows(self, rows, session_id: str) -> bytes:
        """The turn's log lines as those versions wrote them: the launches
        noted before an attempt's end go ahead of its row, and any left over
        (a failed pipeline's) after the turn's last row."""
        launches = iter(self.calls)
        lines = []

        def start_rows_until_end():
            for call in launches:
                if call is None:
                    return
                ts, node_id, tool = call
                lines.append(json.dumps({
                    "confidence": None, "cost_usd": None, "event": "start", "latency_ms": None,
                    "node_id": node_id, "session_id": session_id, "tool": tool, "ts": ts,
                }, sort_keys=True) + "\n")

        for row in rows:
            if row.event in ("done", "failed") and row.node_id != "memory":
                start_rows_until_end()
            lines.append(json.dumps({**json.loads(row.to_json_line()), "session_id": session_id},
                                    sort_keys=True) + "\n")
        start_rows_until_end()
        self.calls.clear()
        return "".join(lines).encode("utf-8")


def test_seed_1_session_long_answers_and_memory_file(tmp_path, monkeypatch):
    launches = LaunchRecorder(monkeypatch)
    start_rows_log = b""
    context = []
    context_tokens = memory.MemoryStore.context_tokens

    def record_context(store, retrieved):
        context[:] = ["\n".join(r.content for r in store.short_term),
                      "\n".join(r.content for r in retrieved),
                      store.compressed.text if store.compressed else ""]
        return context_tokens(store, retrieved)

    monkeypatch.setattr(memory.MemoryStore, "context_tokens", record_context)
    context_journal = str(tmp_path / "context.state.json")
    workloads = load_workloads()
    session_id, turns, backend = workloads.make("session-long", 1, str(tmp_path)).turns()
    assert len(turns) == 250
    supervisor = engine.Supervisor(engine.EngineConfig())
    store = memory.MemoryStore()
    session = state.SessionMeta(session_id=session_id, created_at_ms=0)
    knob = routing.select_tier("closed_src")
    store_root = str(tmp_path / "session")
    answers = []
    saved = None
    for i, (text, names) in enumerate(turns):
        launches.calls.clear()
        query = state.QueryState(
            user_query=text, cost_knob=knob, session=session,
            attachments=[state.Attachment("path", n, declared_name=n) for n in names],
        )
        try:
            outcome = supervisor.process(
                query, memory_store=store, perceptual_backend=backend,
                clarifier=lambda _q: workloads.CLARIFY_REPLY,
                query_id=f"{session_id}:{session.turn_count}",
            )
        except errors.SupervisorError as exc:
            answers.append(f"{i}!{type(exc).__name__}")
            continue
        answers.append(f"{i}:{outcome.answer_text}")
        engine.save_turn(store_root, query, store, outcome)
        start_rows_log += launches.with_start_rows(outcome.trace_rows, session_id)
        saved = state.serialize_state(query)
        line = with_context(saved, tuple(context)) + b"\n"
        state.write_jsonl(
            context_journal, line,
            lambda st: st.st_size < engine.STATE_JOURNAL_REWRITE_FACTOR * len(line),
            lambda _: engine.STATE_JOURNAL_HEADER + line,
        )

    assert store.compressed is not None and 150 < store.compressed.source_end_turn < 250
    digest = hashlib.sha256("\n".join(answers).encode("utf-8")).hexdigest()
    assert digest == ANSWERS_SHA256
    memory_file = Path(memory.memory_path(store_root, session_id)).read_bytes()
    assert hashlib.sha256(memory_file).hexdigest() == MEMORY_FILE_SHA256
    trace_file = Path(engine.trace_path(store_root, session_id)).read_bytes()
    state_file = Path(engine.state_path(store_root, session_id)).read_bytes()
    assert hashlib.sha256(trace_file).hexdigest() == TRACE_FILE_SHA256
    assert hashlib.sha256(start_rows_log).hexdigest() == START_ROWS_TRACE_FILE_SHA256
    # That log with its `start` lines dropped and its `session_id` keys cut is this one.
    session_key = f'"session_id": "{session_id}", '.encode()
    assert b"".join(
        line.replace(session_key, b"")
        for line in start_rows_log.splitlines(keepends=True) if b'"event": "start"' not in line
    ) == trace_file
    # Each `start` row's time is its attempt's end less the attempt's latency.
    launched = {}
    for row in map(json.loads, start_rows_log.splitlines()):
        if row["event"] == "start":
            launched[row["node_id"]] = row["ts"]
        elif row["event"] in ("done", "failed") and row["node_id"] != "memory":
            assert row["ts"] - row["latency_ms"] == launched.pop(row["node_id"])
    assert hashlib.sha256(state_file).hexdigest() == STATE_FILE_SHA256
    assert not any("context" in json.loads(line).get("state", {})
                   for line in state_file.splitlines())
    context_file = Path(context_journal).read_bytes()
    assert hashlib.sha256(context_file).hexdigest() == CONTEXT_STATE_FILE_SHA256
    # An attachment's keys sort as declared_name, detected_modality, mime, source.
    with_mime = context_file.replace(b',"source":', b',"mime":null,"source":')
    assert with_mime.count(b',"mime":null') == 30
    assert hashlib.sha256(with_mime).hexdigest() == MIME_STATE_FILE_SHA256
    assert with_mime.replace(b',"mime":null', b"") == context_file
    header, *lines = [json.loads(line) for line in memory_file.splitlines()]
    legacy = {
        "compressed": [obj["compressed"] for obj in lines if "compressed" in obj][-1],
        "dimension": header["dimension"],
        "records": [obj for obj in lines if "compressed" not in obj],
    }
    legacy_bytes = json.dumps(legacy, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(legacy_bytes).hexdigest() == LEGACY_MEMORY_FILE_SHA256
    restored = memory.load_memory(memory.memory_path(store_root, session_id))
    assert restored.turn_count == store.turn_count
    assert restored.compressed == store.compressed
    for got, expected in zip(restored.full_history, store.full_history):
        assert (got.record_id, got.content, got.modality, got.turn_index, got.created_at_ms) == (
            expected.record_id, expected.content, expected.modality, expected.turn_index,
            expected.created_at_ms)
        assert np.array_equal(got.embedding, expected.embedding)
    assert restored._retrievable_tokens == store._retrievable_tokens
    assert answers[-1].startswith(f"{len(turns) - 1}:")
    assert state.serialize_state(engine.load_state_file(store_root, session_id)) == saved
