"""Span tracing installed from outside the program.

`Tracer.install` wraps public functions and methods of the supervisord
modules, at the attribute the caller looks up: engine imports
`classify_flag_detail`, `detect_modality`, `route_strong_weak`, `embed` and
`build_graph` by name, so those are patched on the engine module; methods are
patched on their classes. Spans are kept in memory and aggregated when the
traced round ends. Import this module only once the checkout's `src` is on
the import path.

A span records name, start, end, parent span and operation id. Hooks that
collect counters run outside the span's interval; their time is charged to
no layer, so a parent's self time is its duration minus its children's
durations and the children's hook time.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Optional

from supervisord import couplet, engine, harness, memory, scheduler, tools


def embedder_grams(text: str) -> list[str]:
    """The unigrams and bigrams the hashing embedder hashes for `text`."""
    tokens = text.lower().split()
    return tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]


class Tracer:
    def __init__(self, oracle_every: int = 0):
        # span: [name, start_ns, end_ns, parent_index, op_id, hook_ns]
        self.spans: list[list[Any]] = []
        self.counters: Counter = Counter()
        self.op_id = ""
        self.oracle_every = oracle_every
        self.oracle_failures = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._seen_grams: set[str] = set()
        self._seen_requirements: set[tuple] = set()
        self._retrieves = 0
        self._compressed_until: dict[int, Optional[int]] = {}

    # -- wrapping ------------------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: Callable[..., str] | str,
        after: Optional[Callable[..., None]] = None,
        op: Optional[Callable[..., str]] = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            outer_op = tracer.op_id
            if op is not None:
                tracer.op_id = op(*args, **kwargs)
            span = [span_name, 0, 0, stack[-1] if stack else -1, tracer.op_id, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                tracer.op_id = outer_op
            if after is not None:
                after(result, *args, **kwargs)
                span[5] = clock() - span[2]
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name, after=None, op=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after, op))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the layers of the supervisord package."""
        self.patch(engine.Supervisor, "process", "engine.process", self._after_process,
                   op=lambda *a, **k: k.get("query_id") or self.op_id)
        self.patch(engine, "classify_flag_detail", "decomposition.classify")
        self.patch(engine, "detect_modality", "decomposition.detect_modality")
        self.patch(engine, "route_strong_weak", "routing.route")
        self.patch(engine, "embed", "memory.embed", self._after_embed)
        self.patch(memory, "embed", "memory.embed", self._after_embed)
        self.patch(engine, "build_graph", "scheduler.build_graph")
        self.patch(memory.MemoryStore, "retrieve_relevant", "memory.retrieve", self._after_retrieve)
        self.patch(memory.MemoryStore, "add_turn", "memory.add_turn")
        self.patch(memory.MemoryStore, "maybe_compress", "memory.compress", self._after_compress)
        self.patch(tools.ToolRegistry, "match_tools", "tools.match", self._after_match)
        self.patch(tools.ToolRegistry, "sample_latency", "tools.sample_latency")
        self.patch(scheduler.Scheduler, "execute", "scheduler.execute")
        self.patch(couplet, "execute_perceptual", "couplet.perceptual")
        self.patch(harness, "generate_workload", "harness.generate")
        self.patch(harness, "run_policy", lambda queries, policy, *a, **k: f"harness.{policy}")
        self.patch(engine, "save_state_file", "state.save", self._after_save("state.save.bytes"))
        self.patch(engine, "save_session_memory", "memory.save", self._after_save("memory.save.bytes"))

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as the report writing of a round."""
        stack = self._stack
        span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, 0]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    # -- counters collected by hooks -----------------------------------------------

    def _after_process(self, outcome, supervisor, state, **kwargs) -> None:
        c = self.counters
        if kwargs.get("query_seed", 0) > 0:
            c["engine.restarts"] += 1
        c["engine.clarifications"] += outcome.clarifications_user
        for row in outcome.trace_rows:
            if row.node_id != "memory":  # the engine's own retrieval row is no graph node
                c[f"scheduler.rows.{row.event}"] += 1

    def _after_embed(self, result, content, embedder) -> None:
        grams = embedder_grams(content)
        seen = self._seen_grams
        self.counters["memory.embed.grams"] += len(grams)
        self.counters["memory.embed.grams_reused"] += sum(1 for g in grams if g in seen)
        seen.update(grams)

    def _after_retrieve(self, result, store, query_embedding, query_modality,
                        k=None, now_turn=None) -> None:
        c = self.counters
        pool = retrievable(store)
        c["memory.retrieve.pool_total"] += len(pool)
        c["memory.retrieve.pool_max"] = max(c["memory.retrieve.pool_max"], len(pool))
        self._retrieves += 1
        if self.oracle_every and self._retrieves % self.oracle_every == 0:
            score_memory = memory.score_memory
            now = store.turn_count + 1 if now_turn is None else now_turn
            ranked = sorted(
                pool,
                key=lambda r: (
                    -score_memory(r, query_embedding, query_modality, now,
                                  store.weights, store.decay_rates),
                    -r.turn_index,
                    r.record_id,
                ),
            )[: k or memory.DEFAULT_TOP_K]
            c["memory.retrieve.oracle_checks"] += 1
            if [r.record_id for r in ranked] != [r.record_id for r in result]:
                self.oracle_failures += 1

    def _after_compress(self, result, store, *args, **kwargs) -> None:
        end = store.compressed.source_end_turn if store.compressed else None
        if end != self._compressed_until.get(id(store)):
            self.counters["memory.compressions"] += 1
            self._compressed_until[id(store)] = end

    def _after_match(self, result, registry, requirement, exclude=()) -> None:
        key = (requirement.describe(), tuple(sorted(str(t) for t in exclude)))
        if key in self._seen_requirements:
            self.counters["tools.match.repeats"] += 1
        else:
            self._seen_requirements.add(key)

    def _after_save(self, counter: str):
        def after(path, *args, **kwargs) -> None:
            self.counters[counter] += os.path.getsize(path)

        return after

    # -- aggregation -----------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, hook in spans:
            if parent >= 0:
                child_ns[parent] += (end - start) + hook
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _, _) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            t["calls"] += 1
            t["ns"] += end - start
            t["self_ns"] += (end - start) - child_ns[i]
        return totals


def retrievable(store) -> list:
    """Records past the compression cutoff, the pool retrieval ranks."""
    if store.compressed is None:
        return list(store.full_history)
    cutoff = store.compressed.source_end_turn
    return [r for r in store.full_history if r.turn_index > cutoff]
