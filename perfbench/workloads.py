"""The benchmark's workloads: inputs generated from a seed, run one round at a time.

Every workload is closed-loop with one client on one thread: each query or
turn starts when the previous one has finished. A round is a fixed amount of
work: one `simulate` over a generated workload (sim-mix, sim-faults), or one
whole session (session-long). Every round generates its inputs from the seed
again, so all rounds of a run do the same work and must give the same output.

This module imports supervisord, so it is imported only after `run.py` has
put the checkout's `src` directory on the import path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from importlib import resources

from supervisord import couplet, decomposition, engine, errors, harness, memory, routing
from supervisord import state, tools

SIM_QUERIES = 1000
SESSION_TURNS = 250  # memory compresses once, near turn 200
CLARIFY_REPLY = "dates and totals please"

# sim-faults: injected failure on every perceptual, join and lightweight-model tool.
FAULT_RATE = 0.3
FAULT_TOOLS = (
    "yolo-detect", "clip-embed", "vision-analyze", "image-generate",
    "whisper-transcribe", "audio-analyze", "tesseract-ocr", "pdf-parse", "table-extract",
    "temporal-align", "ensemble-aggregate", "result-synthesize",
    "slm-weak-invoke", "slm-couplet-invoke",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RoundResult:
    ops: int  # one query under one policy, or one session turn
    failed: int
    wall_s: float  # the whole round, input generation included
    work_s: float  # simulate: policies plus reports; session: turns plus persistence
    central_ops: int
    central_s: float  # centralized policy run, or time inside Supervisor.process
    latencies_ms: list[float]  # per operation, in the order the round ran them
    fingerprints: dict[str, str]
    info: dict = field(default_factory=dict)


class ProcessStopwatch:
    """Times each `Supervisor.process` call at its boundary; nothing inside it."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self._original = None

    def __enter__(self):
        original = self._original = engine.Supervisor.process
        latencies, clock = self.latencies_ms, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                latencies.append((clock() - t0) * 1000.0)

        engine.Supervisor.process = timed
        return self

    def __exit__(self, *exc):
        engine.Supervisor.process = self._original
        return False


class NoTrace:
    """Stands in for `tracing.Tracer` in untraced rounds."""

    def __init__(self):
        self.op_id = ""

    def span(self, name):
        return contextlib.nullcontext()


def _load_defaults() -> None:
    """Build the default registry, model catalog and flag rules once."""
    tools.default_registry()
    routing.default_model_catalog()
    decomposition.default_flag_rules()


# --- sim-mix and sim-faults ------------------------------------------------------------


class SimWorkload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        if name == "sim-mix":
            self.policies = ("centralized", "hierarchical", "monolithic")
        else:
            self.policies = ("centralized", "hierarchical")

    def spec(self):
        spec = harness.default_workload_spec(SIM_QUERIES, seed=self.seed)
        if self.name == "sim-faults":
            spec.failure_injection = {tool: FAULT_RATE for tool in FAULT_TOOLS}
            spec.ambiguity_rate = 0.6
            spec.memory_hint_rate = 0.2
        return spec

    def prepare(self) -> None:
        _load_defaults()
        os.makedirs(self.workdir, exist_ok=True)
        harness.generate_workload(self.spec())

    def run_round(self, tracer=None) -> RoundResult:
        tracer = tracer or NoTrace()
        t_round = time.perf_counter()
        spec = self.spec()
        queries = harness.generate_workload(spec)
        t_work = time.perf_counter()
        reports, failed, policy_s = [], 0, {}
        with ProcessStopwatch() as stopwatch:
            for policy in self.policies:
                tracer.op_id = f"policy:{policy}"
                t0 = time.perf_counter()
                try:
                    reports.append(harness.run_policy(
                        queries, policy, spec, harness.PolicyConfig(), spec.seed
                    ))
                except Exception:  # any exception fails every query of the policy
                    traceback.print_exc()
                    failed += len(queries)
                policy_s[policy] = time.perf_counter() - t0
        tracer.op_id = "report"
        with tracer.span("harness.report"):
            texts, comparison = self._report(reports)
        t_end = time.perf_counter()

        failed += self._check(queries, reports)
        fingerprints = {p: sha256(t) for p, t in texts.items()}
        fingerprints["comparison"] = sha256(comparison)
        return RoundResult(
            ops=len(queries) * len(self.policies),
            failed=failed,
            wall_s=t_end - t_round,
            work_s=t_end - t_work,
            central_ops=len(queries),
            central_s=policy_s["centralized"],
            latencies_ms=stopwatch.latencies_ms,
            fingerprints=fingerprints,
            info={"policy_s": policy_s, "queries": len(queries)},
        )

    def _report(self, reports) -> tuple[dict[str, str], str]:
        """The report, comparison and per-query CSV work that `simulate` does."""
        texts = {}
        for report in reports:
            text = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
            with open(os.path.join(self.workdir, f"report-{report.policy}.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            report.render_table()
            texts[report.policy] = text
        payload = {"reports": [r.to_json_dict()["aggregates"] | {"policy": r.policy}
                               for r in reports]}
        if len(reports) >= 2:
            first, second = reports[0], reports[1]
            delta = harness.compare(first, second)
            payload["comparison"] = delta.to_json_dict()
            payload["throughput_64_sessions"] = {
                first.policy: harness.throughput_from_report(first, 64),
                second.policy: harness.throughput_from_report(second, 64),
            }
            with open(os.path.join(self.workdir, "per-query-deltas.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(harness.per_query_delta_csv(first, second))
            delta.render_table()
        return texts, json.dumps(payload, sort_keys=True)

    def _check(self, queries, reports) -> int:
        """Queries failed by a report that is wrong: one record per query, aggregates
        consistent, and every policy over the same workload digest."""
        failed = 0
        expected_ids = sorted(q.query_id for q in queries)
        digest = harness.workload_digest(queries)
        for report in reports:
            ids = sorted(r.query_id for r in report.per_query)
            if ids != expected_ids or not report.check_self_consistency() \
                    or report.workload_digest != digest:
                failed += len(queries)
        return failed


# --- session-long ----------------------------------------------------------------------

_EXTENSIONS = {"audio": "mp3", "video": "mp4", "image": "jpg", "document": "pdf"}
_LABELS = ("sneakers", "laptop", "coffee cup", "bicycle", "dog", "receipt", "chart")
_WORDS = ("revenue", "grew", "in", "the", "third", "quarter", "while", "costs",
          "held", "steady", "across", "regions")


def _fixture(modality: str, rng: random.Random) -> dict:
    if modality == "document":
        return {
            "text_blocks": [f"Revenue grew {rng.randint(2, 19)} percent in the quarter.",
                            f"Operating costs held at {rng.randint(40, 90)} million."],
            "tables": [{"headers": ["quarter", "revenue"],
                        "rows": [[f"Q{rng.randint(1, 4)}", rng.randint(90, 140)]]}],
            "tokens": rng.randint(80, 200),
        }
    if modality == "image":
        return {
            "detections": [{"label": lab, "box": [0, 0, 10, 10],
                            "conf": round(rng.uniform(0.8, 0.99), 2)}
                           for lab in rng.sample(_LABELS, k=rng.randint(1, 3))],
            "tokens": rng.randint(60, 140),
        }
    start = rng.randint(0, len(_WORDS) - 1)
    transcript = [{"word": _WORDS[(start + i) % len(_WORDS)], "t": round(0.5 * i, 1),
                   "conf": 0.95} for i in range(rng.randint(6, 14))]
    if modality == "audio":
        return {"transcript": transcript, "tokens": rng.randint(60, 160)}
    t0 = rng.randint(2, 10)
    return {
        "frames": rng.randint(6, 15),
        "detections": [{"label": rng.choice(_LABELS), "box": [0, 0, 10, 10],
                        "t_start": t0, "t_end": t0 + 6, "conf": 0.9}],
        "transcript": transcript,
        "tokens": rng.randint(80, 200),
    }


class SessionWorkload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.supervisor = None

    def turns(self):
        """The session's turns: labeled queries with one attachment per declared modality."""
        labeled = json.loads(
            resources.files("supervisord.data").joinpath("labeled_queries.json").read_text("utf-8")
        )
        rng = random.Random(self.seed)
        turns, fixtures = [], {}
        for i in range(SESSION_TURNS):
            item = labeled[rng.randrange(len(labeled))]
            names = []
            for modality in item["modalities"]:
                name = f"t{i:04d}_{modality}.{_EXTENSIONS[modality]}"
                fixtures[name] = _fixture(modality, rng)
                names.append(name)
            turns.append((item["query"], names))
        session_id = f"0-{hashlib.blake2b(str(self.seed).encode(), digest_size=8).hexdigest()}"
        return session_id, turns, couplet.SimulatedBackend(fixtures)

    def prepare(self) -> None:
        _load_defaults()
        self.supervisor = engine.Supervisor(engine.EngineConfig())
        self.turns()
        os.makedirs(self.workdir, exist_ok=True)

    def run_round(self, tracer=None) -> RoundResult:
        tracer = tracer or NoTrace()
        t_round = time.perf_counter()
        session_id, turns, backend = self.turns()
        store_root = os.path.join(self.workdir, "session")
        shutil.rmtree(store_root, ignore_errors=True)
        store = memory.MemoryStore()
        session = state.SessionMeta(session_id=session_id, created_at_ms=0)
        knob = routing.select_tier("closed_src")
        answers, latencies, failed, typed = [], [], 0, 0
        process_s = 0.0
        clock = time.perf_counter
        t_work = clock()
        for i, (text, names) in enumerate(turns):
            tracer.op_id = f"turn:{i}"
            query = state.QueryState(
                user_query=text, cost_knob=knob, session=session,
                attachments=[state.Attachment("path", n, declared_name=n) for n in names],
            )
            t0 = clock()
            try:
                outcome = self.supervisor.process(
                    query, memory_store=store, perceptual_backend=backend,
                    clarifier=lambda _q: CLARIFY_REPLY,
                    query_id=f"{session_id}:{session.turn_count}",
                )
            except errors.SupervisorError as exc:
                outcome = None
                typed += 1
                answers.append(f"{i}!{type(exc).__name__}")
            except Exception as exc:  # untyped: the turn fails
                traceback.print_exc()
                outcome = None
                failed += 1
                answers.append(f"{i}!untyped:{type(exc).__name__}")
            t1 = clock()
            if outcome is not None and not isinstance(outcome, engine.QueryOutcome):
                failed += 1
                answers.append(f"{i}!not a QueryOutcome")
                outcome = None
            if outcome is not None:
                answers.append(f"{i}:{outcome.answer_text}")
                engine.save_state_file(store_root, query)
                engine.save_session_memory(store_root, session_id, store)
                engine.append_trace_rows(store_root, session_id, outcome.trace_rows)
            t2 = clock()
            process_s += t1 - t0
            latencies.append((t2 - t0) * 1000.0)
        t_end = clock()

        restored = memory.load_memory(memory.memory_path(store_root, session_id))
        summary = store.compressed.text if store.compressed else None
        restored_summary = restored.compressed.text if restored.compressed else None
        if restored.turn_count != store.turn_count or restored_summary != summary:
            failed += 1
        shutil.rmtree(store_root, ignore_errors=True)
        return RoundResult(
            ops=len(turns),
            failed=failed,
            wall_s=t_end - t_round,
            work_s=t_end - t_work,
            central_ops=len(turns),
            central_s=process_s,
            latencies_ms=latencies,
            fingerprints={"answers": sha256("\n".join(answers))},
            info={"typed_errors": typed, "records": store.turn_count,
                  "compressed_until": store.compressed.source_end_turn if store.compressed else 0},
        )


WORKLOADS = {"sim-mix": SimWorkload, "sim-faults": SimWorkload, "session-long": SessionWorkload}


def make(name: str, seed: int, workdir: str):
    return WORKLOADS[name](name, seed, workdir)
