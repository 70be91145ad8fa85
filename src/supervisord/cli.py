"""Command-line entry points.

Commands: run, session, simulate, inspect, tools list, models list.
Settings (`SETTINGS`): flags > environment (SUPERVISORD_*) > config file >
defaults. `run`, `session` and `simulate` build one EngineConfig from them;
`simulate` runs every policy on it, without the budget.
Commands raise typed errors; `main` maps them to stable exit codes
(`EXIT_CODES`): 2 workload spec violation, unknown policy, bad config file
(unreadable, not a JSON object, an unknown key or a value of the wrong type),
an unreadable input (tool or model catalog, flag rules, fixtures, workload
file, budget amount) or an empty or all-whitespace `run` query, 3 unknown
session, 4 corrupt state, memory or trace file, 11 unplannable query or a
tool catalog without a tool the engine or a baseline names, 12 budget
exceeded (checked as each node finishes). Commands return 13 pipeline failed
and 20 clarification required in non-interactive mode. A command whose stdout
closes early (`simulate | head`) stops quietly with 141, the shell's SIGPIPE code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, TypeVar

from .couplet import SimulatedBackend, check_fixtures
from .decomposition import load_flag_rules
from .engine import (
    EngineConfig,
    Supervisor,
    load_session,
    load_trace_rows,
    save_session_memory,
    save_turn,
)
from .errors import (
    BudgetExceeded,
    CorruptState,
    DuplicateTool,
    InvalidInput,
    InvalidSpec,
    SupervisorError,
    UnknownSession,
    UnknownTool,
    UnplannableQuery,
    WorkloadSpecError,
)
from .harness import POLICIES, compare, per_query_delta_csv, run_policy, throughput_from_report
from .memory import MemoryStore
from .routing import ModelCatalog, default_model_catalog, load_model_catalog, select_tier
from .state import Attachment, Money, QueryState
from .tools import ToolRegistry, default_registry, load_catalog, spec_to_json
from .workload import default_workload_spec, generate_workload, load_workload_file

EXIT_WORKLOAD_SPEC = 2
EXIT_UNKNOWN_SESSION = 3
EXIT_CORRUPT_STATE = 4
EXIT_UNPLANNABLE = 11
EXIT_BUDGET = 12
EXIT_PIPELINE_FAILED = 13
EXIT_CLARIFICATION = 20
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE, what a shell reports for a writer its pipe ended

# The code `main` returns, after printing `error: <message>`, for each typed
# error a command raises. A subclass takes its base's code.
EXIT_CODES: dict[type[SupervisorError], int] = {
    InvalidInput: EXIT_WORKLOAD_SPEC,
    UnknownSession: EXIT_UNKNOWN_SESSION,
    CorruptState: EXIT_CORRUPT_STATE,
    UnplannableQuery: EXIT_UNPLANNABLE,
    UnknownTool: EXIT_UNPLANNABLE,
    BudgetExceeded: EXIT_BUDGET,
}

# What a missing or malformed input file or value raises while it is parsed.
_INPUT_ERRORS = (OSError, ValueError, LookupError, TypeError, AttributeError, InvalidSpec,
                 DuplicateTool)

T = TypeVar("T")


def _pipeline_failed(outcome, session_id: str) -> int:
    """Report a turn whose pipeline failed; its files are already saved."""
    failed = [row for row in outcome.trace_rows if row.event == "failed"]
    where = f" at node {failed[-1].node_id} ({failed[-1].tool})" if failed else ""
    print(f"error: pipeline failed{where} with no repair left; session {session_id}",
          file=sys.stderr)
    return EXIT_PIPELINE_FAILED


def _load_input(what: str, source: str, load: Callable[[str], T]) -> T:
    """Return `load(source)`; an input that cannot be read or parsed raises InvalidInput."""
    try:
        return load(source)
    except _INPUT_ERRORS as exc:
        raise InvalidInput(f"cannot read {what} {source}: {exc}") from exc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Setting -> (the type a config file must give it, its environment variable).
# The key names the setting in the config file, its flag and `CliConfig`.
SETTINGS: dict[str, tuple[type, Optional[str]]] = {
    "store_root": (str, "SUPERVISORD_STORE_ROOT"),
    "tools": (str, None),
    "models": (str, None),
    "flag_rules": (str, None),
    "seed": (int, None),
    "budget_usd": (str, "SUPERVISORD_BUDGET_USD"),
}
_TYPE_NAMES = {str: "a string", int: "an integer"}


@dataclass
class CliConfig:
    store_root: str = "./supervisord-store"
    tools: Optional[str] = None
    models: Optional[str] = None
    flag_rules: Optional[str] = None
    seed: Optional[int] = None  # when given, simulate's workload seed too
    budget_usd: Optional[str] = None

    def registry(self) -> ToolRegistry:
        if not self.tools:
            return default_registry()
        return _load_input("tool catalog", self.tools, load_catalog)

    def catalog(self) -> ModelCatalog:
        if not self.models:
            return default_model_catalog()
        return _load_input("model catalog", self.models, load_model_catalog)

    def engine_config(self) -> EngineConfig:
        budget = _load_input("budget", self.budget_usd, Money.from_usd) if self.budget_usd else None
        flag_rules = (
            _load_input("flag rules", self.flag_rules, load_flag_rules) if self.flag_rules else None
        )
        return EngineConfig(
            registry=self.registry(),
            catalog=self.catalog(),
            seed=self.seed or 0,
            budget_cap=budget,
            flag_rules=flag_rules,
        )


def _config_file(path: str) -> dict:
    values = _load_input("config file", path, _load_json)
    if not isinstance(values, dict):
        raise InvalidInput("config file must hold a JSON object")
    unknown = sorted(set(values) - set(SETTINGS))
    if unknown:
        raise InvalidInput(f"unknown config key {unknown[0]!r}")
    for key, value in sorted(values.items()):
        expected = SETTINGS[key][0]
        if not isinstance(value, expected) or isinstance(value, bool):
            raise InvalidInput(f"config key {key!r} must be {_TYPE_NAMES[expected]}")
    return values


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """Each setting from its flag, else its environment variable, else the config
    file, else its default. An empty flag or environment value counts as unset."""
    values = _config_file(args.config) if args.config else {}
    for key, (_, env_var) in SETTINGS.items():
        for value in (os.environ.get(env_var) if env_var else None, getattr(args, key, None)):
            if value not in (None, ""):
                values[key] = value
    return CliConfig(**values)


def _attachment_from_arg(arg: str) -> Attachment:
    kind = "url" if "://" in arg else "path"
    return Attachment(kind, arg, declared_name=os.path.basename(arg) or arg)


def _fixtures_from_file(path: str) -> dict:
    try:
        return check_fixtures(_load_json(path))
    except WorkloadSpecError as exc:
        raise ValueError(f"{exc.field_path} {exc}".lstrip()) from exc


def _load_fixtures(path: Optional[str]) -> dict:
    return _load_input("fixtures", path, _fixtures_from_file) if path else {}


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# --- run ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    if not args.query.strip():
        raise InvalidInput("empty query")
    cfg = resolve_config(args)
    supervisor = Supervisor(cfg.engine_config())
    session = supervisor.new_session()
    state = QueryState(
        user_query=args.query,
        cost_knob=select_tier(args.knob),
        session=session,
        attachments=[_attachment_from_arg(a) for a in args.attach or []],
    )
    memory = MemoryStore()
    backend = SimulatedBackend(_load_fixtures(args.fixtures))
    outcome = supervisor.process(
        state,
        memory_store=memory,
        perceptual_backend=backend,
        clarifier=None,  # non-interactive: emit the question and exit 20
        query_id=json.dumps([args.query, args.attach or []]),  # same query, same draws
    )
    trace_file = save_turn(cfg.store_root, state, memory, outcome)
    if outcome.clarifications_user and state.clarify_response is None:
        _emit(
            args,
            {"clarification": state.clarify_question, "session_id": session.session_id},
            f"clarification needed: {state.clarify_question}",
        )
        return EXIT_CLARIFICATION
    if outcome.failed:
        return _pipeline_failed(outcome, session.session_id)
    payload = {
        "session_id": session.session_id,
        "flag": outcome.flag.value if outcome.flag else None,
        "answer": outcome.answer_text,
        "tta_ms": outcome.tta_ms,
        "cost_usd": outcome.cost.usd_str(),
        "trace_path": trace_file,
    }
    text = (
        f"{outcome.answer_text}\n\n"
        f"flag={payload['flag']}  tta={outcome.tta_ms} ms  "
        f"cost=${payload['cost_usd']}  trace={trace_file}"
    )
    _emit(args, payload, text)
    return 0


# --- session (interactive REPL) ------------------------------------------------------


def _ask_stdin(question: str) -> Optional[str]:
    """REPL clarifier; an empty line or end of input counts as no answer."""
    try:
        return input(f"{question}\n>> ") or None
    except EOFError:
        return None


def cmd_session(args) -> int:
    cfg = resolve_config(args)
    supervisor = Supervisor(cfg.engine_config())
    if args.session:
        state, memory = load_session(cfg.store_root, args.session)
        session = state.session
    else:
        session, memory = supervisor.new_session(), MemoryStore()
    backend = SimulatedBackend(_load_fixtures(args.fixtures))
    print(f"session {session.session_id} (:cost :memory :summary :quit)")
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line == ":quit":
            break
        if line == ":cost":
            print(f"cumulative cost: ${session.cumulative_cost.usd_str()}")
            continue
        if line == ":memory":
            window = list(memory.short_term)
            print(f"short-term window ({len(window)} of last {memory.turn_count} turns):")
            for rec in window:
                print(f"  [turn {rec.turn_index}] {rec.content[:80]}")
            if memory.compressed:
                print(f"compressed summary over turns "
                      f"{memory.compressed.source_start_turn}-{memory.compressed.source_end_turn}")
            continue
        if line == ":summary":
            memory.maybe_compress(force=True, on_event=lambda m: print(f"  {m}"))
            save_session_memory(cfg.store_root, session.session_id, memory)
            print("session summarized." if memory.compressed else "nothing to summarize.")
            continue
        state = QueryState(
            user_query=line,
            cost_knob=select_tier(args.knob),
            session=session,
            attachments=[],
        )
        outcome = supervisor.process(
            state,
            memory_store=memory,
            perceptual_backend=backend,
            clarifier=_ask_stdin,
            query_id=json.dumps([session.turn_count, line]),  # same turn, same draws
        )
        save_turn(cfg.store_root, state, memory, outcome)
        if outcome.failed:
            return _pipeline_failed(outcome, session.session_id)
        print(outcome.answer_text)
        marker = ", best effort" if outcome.best_effort else ""
        print(f"  ({outcome.tta_ms} ms, ${outcome.cost.usd_str()}{marker})")
    return 0


# --- simulate -------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    queries = None
    try:
        if args.workload:
            spec, queries = _load_input("workload", args.workload, load_workload_file)
        else:
            spec = default_workload_spec()
        if queries is not None and args.queries is not None:
            raise InvalidInput(
                f"{args.workload} holds {len(queries)} materialized queries; "
                "--queries applies only to a workload spec"
            )
        if queries is None:
            if args.queries is not None:  # a spec file's size stands unless overridden
                spec.total_queries = args.queries
            if cfg.seed is not None:
                spec.seed = cfg.seed
            spec.validate()
    except WorkloadSpecError as exc:
        raise InvalidInput(f"workload spec invalid at {exc.field_path}: {exc}") from exc
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for policy in policies:
        if policy not in POLICIES:
            raise InvalidInput(f"unknown policy {policy!r}")
    # A budget caps one session's spend; simulate compares the policies uncapped.
    config = replace(cfg, budget_usd=None).engine_config()
    if queries is None:
        queries = generate_workload(spec)
    out_dir = args.out or cfg.store_root
    os.makedirs(out_dir, exist_ok=True)
    reports = []
    for policy in policies:
        report = run_policy(queries, policy, spec, config, seed=config.seed)
        reports.append(report)
        path = os.path.join(out_dir, f"report-{policy}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True, indent=1)
        if not args.json:
            print(report.render_table())
            print(f"  report written to {path}\n")
    payload = {"reports": [r.to_json_dict()["aggregates"] | {"policy": r.policy} for r in reports]}
    if len(reports) >= 2:
        delta = compare(reports[0], reports[1])
        payload["comparison"] = delta.to_json_dict()
        payload["throughput_64_sessions"] = {
            reports[0].policy: throughput_from_report(reports[0], 64),
            reports[1].policy: throughput_from_report(reports[1], 64),
        }
        csv_path = os.path.join(out_dir, "per-query-deltas.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(per_query_delta_csv(reports[0], reports[1]))
        if not args.json:
            print(f"comparison ({reports[0].policy} vs {reports[1].policy}):")
            print(delta.render_table())
            print(f"  per-query deltas: {csv_path}")
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return 0


# --- inspect --------------------------------------------------------------------------


def cmd_inspect(args) -> int:
    cfg = resolve_config(args)
    sid = args.session_id
    state, memory = load_session(cfg.store_root, sid)
    # Older logs also hold a `start` row per attempt: its ending row's `ts - latency_ms`.
    rows = [row for row in load_trace_rows(cfg.store_root, sid) if row["event"] != "start"]
    if args.json:
        print(json.dumps({
            "state": {
                "session_id": sid,
                "user_query": state.user_query,
                "flag": state.flag.value if state.flag else None,
                "turn_count": state.session.turn_count,
                "cumulative_cost_usd": state.session.cumulative_cost.usd_str(),
            },
            "memory": {
                "turns": memory.turn_count,
                "short_term": [r.content for r in memory.short_term],
                "compressed": bool(memory.compressed),
            },
            "trace": rows,
        }, sort_keys=True))
        return 0
    print(f"session {sid}")
    print(f"  last query : {state.user_query!r}")
    print(f"  flag       : {state.flag.value if state.flag else '-'}")
    print(f"  turns      : {state.session.turn_count}")
    print(f"  cost       : ${state.session.cumulative_cost.usd_str()}")
    print(f"memory layers: {memory.turn_count} turns, "
          f"{len(memory.short_term)} in short-term window, "
          f"compressed={'yes' if memory.compressed else 'no'}")
    for rec in memory.short_term:
        print(f"  [turn {rec.turn_index}] {rec.content[:72]}")
    print(f"trace timeline ({len(rows)} events):")
    for row in rows:
        ts, lat = row["ts"], row.get("latency_ms")
        span = f"{ts:>8}{'':10}" if lat is None else f"{ts - lat:>8}..{ts:<8}"
        lat = f" {lat}ms" if lat else ""
        print(f"  t={span} {row['event']:<9} {row['node_id']:<10} {row['tool']}{lat}")
    return 0


# --- tools / models listings -----------------------------------------------------------


def cmd_tools_list(args) -> int:
    cfg = resolve_config(args)
    registry = cfg.registry()
    specs = [registry.get(t) for t in registry.all_ids()]
    if args.json:
        print(json.dumps([spec_to_json(s) for s in specs], sort_keys=True))
        return 0
    for s in specs:
        mods = ",".join(sorted(m.value for m in s.input_modalities)) or "-"
        print(f"{s.name:<22} {s.category.value:<20} in[{mods}] "
              f"latency {s.latency_prior.min_ms}-{s.latency_prior.max_ms} ms "
              f"tier {s.tier.value}")
    return 0


def cmd_models_list(args) -> int:
    cfg = resolve_config(args)
    catalog = cfg.catalog()
    if args.json:
        print(json.dumps([
            {
                "model_name": e.model_name,
                "tier": e.tier.value,
                "subflag_affinity": e.subflag_affinity.value if e.subflag_affinity else None,
                "cost_per_mtok_usd": e.cost_per_mtok.usd_str(),
            }
            for e in catalog.entries
        ], sort_keys=True))
        return 0
    for e in catalog.entries:
        affinity = e.subflag_affinity.value if e.subflag_affinity else "strong"
        print(f"{e.model_name:<26} {e.tier.value:<13} {affinity:<24} "
              f"${e.cost_per_mtok.usd_str()}/MTok")
    return 0


# --- parser ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supervisord",
        description="Centralized multimodal query supervisor and policy simulator.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--store-root", help="session store directory")
    parser.add_argument("--tools", help="tool catalog JSON")
    parser.add_argument("--models", help="model catalog JSON")
    parser.add_argument("--flag-rules", help="flag rule table JSON")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process one query")
    p_run.add_argument("query")
    p_run.add_argument("--attach", action="append", help="attachment path or URL")
    p_run.add_argument("--knob", default="closed_src", help="cost knob tier")
    p_run.add_argument("--fixtures", help="simulated backend fixtures JSON")
    p_run.add_argument("--budget-usd", dest="budget_usd")
    p_run.set_defaults(func=cmd_run)

    p_sess = sub.add_parser("session", help="interactive session REPL")
    p_sess.add_argument("--session", help="resume an existing session id")
    p_sess.add_argument("--knob", default="closed_src")
    p_sess.add_argument("--fixtures")
    p_sess.add_argument("--budget-usd", dest="budget_usd")
    p_sess.set_defaults(func=cmd_session)

    p_sim = sub.add_parser("simulate", help="run policy simulation over a workload")
    p_sim.add_argument("workload", nargs="?", help="workload spec JSON (default: built-in)")
    p_sim.add_argument("--policies", default="centralized,hierarchical")
    p_sim.add_argument("--queries", type=int, help="queries to generate (default: spec's or 1000)")
    p_sim.add_argument("--out", help="output directory for reports")
    p_sim.set_defaults(func=cmd_simulate)

    p_ins = sub.add_parser("inspect", help="print session state, memory, trace")
    p_ins.add_argument("session_id")
    p_ins.set_defaults(func=cmd_inspect)

    p_tools = sub.add_parser("tools", help="tool registry commands")
    tools_sub = p_tools.add_subparsers(dest="tools_command", required=True)
    p_tools_list = tools_sub.add_parser("list")
    p_tools_list.set_defaults(func=cmd_tools_list)

    p_models = sub.add_parser("models", help="model catalog commands")
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    p_models_list = models_sub.add_parser("list")
    p_models_list.set_defaults(func=cmd_models_list)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))
    except BrokenPipeError:  # stdout's reader has gone (`| head`); devnull takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
