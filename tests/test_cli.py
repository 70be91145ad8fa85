"""CLI: commands, exit codes, config precedence, machine-readable output."""

from __future__ import annotations

import io
import json
import os
from importlib import resources

import pytest

from supervisord import cli, errors
from supervisord.engine import STATE_JOURNAL_HEADER, EngineBackends
from supervisord.errors import NodeFailure
from supervisord.harness import (
    _HARD_TEXT_TEMPLATE,
    default_workload_spec,
    generate_workload,
    materialize_workload,
)
from supervisord.tools import default_registry, spec_to_json

from supervisord.cli import (
    EXIT_BUDGET,
    EXIT_CLARIFICATION,
    EXIT_CORRUPT_STATE,
    EXIT_PIPELINE_FAILED,
    EXIT_UNKNOWN_SESSION,
    EXIT_UNPLANNABLE,
    EXIT_WORKLOAD_SPEC,
    main,
    resolve_config,
    build_parser,
)


@pytest.fixture
def store(tmp_path, monkeypatch):
    root = tmp_path / "store"
    monkeypatch.setenv("SUPERVISORD_STORE_ROOT", str(root))
    monkeypatch.delenv("SUPERVISORD_BUDGET_USD", raising=False)
    return root


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_simple_text_query(self, store, capsys):
        code = run_cli("--json", "run", "hello there", "--knob", "open_src")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] == "routellm"
        assert float(payload["cost_usd"]) > 0
        assert os.path.exists(payload["trace_path"])

    def test_audio_fixture_run(self, store, tmp_path, capsys):
        fixtures = {"a.mp3": {"transcript": [{"word": "hi", "t": 0.0, "conf": 0.9}]}}
        fixture_path = tmp_path / "fixtures.json"
        fixture_path.write_text(json.dumps(fixtures))
        code = run_cli(
            "--json", "run", "transcribe", "--attach", "a.mp3",
            "--knob", "trad_couplet", "--fixtures", str(fixture_path),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] == "audio"
        assert "hi" in payload["answer"]

    def test_unknown_knob_defaults_to_closed(self, store, capsys):
        code = run_cli("--json", "run", "hello", "--knob", "SOMETHING_ELSE")
        assert code == 0

    def test_clarification_exit_code(self, store, capsys):
        code = run_cli("run", "Summarize this in the usual style")
        assert code == EXIT_CLARIFICATION
        assert "clarification needed" in capsys.readouterr().out

    def test_budget_exceeded_exit_code(self, store, capsys):
        code = run_cli("run", "hello there", "--budget-usd", "0.0000005")
        assert code == EXIT_BUDGET

    def test_failed_pipeline_exits_13_after_saving(self, store, tmp_path, capsys):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"memo.mp3": {"tool_failure": {
            "whisper-transcribe": True, "audio-analyze": True}}}))
        code = run_cli("--json", "run", "transcribe this recording", "--attach", "memo.mp3",
                       "--fixtures", str(fixtures))
        assert code == EXIT_PIPELINE_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pipeline failed at node p0 (audio-analyze)")
        sid = captured.err.split()[-1]
        for suffix in ("state.json", "memory.json", "trace.jsonl"):
            assert (store / f"{sid}.{suffix}").exists()

    @pytest.mark.parametrize("other", ["blob.xyz", "notes.txt"])
    def test_complex_query_skips_non_perceptual_attachment(self, store, tmp_path, capsys,
                                                           other):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text("{}")
        code = run_cli(
            "--json", "run",
            "compare these three reports and chart trends, then plan a budget and "
            "summarize risks",
            "--attach", other, "--attach", "r.pdf", "--fixtures", str(fixtures),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] == "complex"
        assert "[part_0]" in payload["answer"] and "[part_1]" in payload["answer"]

    def test_state_files_persisted(self, store, capsys):
        run_cli("--json", "run", "hello there")
        payload = json.loads(capsys.readouterr().out)
        sid = payload["session_id"]
        assert (store / f"{sid}.state.json").exists()
        assert (store / f"{sid}.memory.json").exists()
        assert (store / f"{sid}.trace.jsonl").exists()


class TestInspect:
    def test_round_trip_with_run(self, store, capsys):
        run_cli("--json", "run", "hello there")
        sid = json.loads(capsys.readouterr().out)["session_id"]
        code = run_cli("--json", "inspect", sid)
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"]["session_id"] == sid
        assert doc["trace"]  # timeline mirrors the JSONL file

    def test_unknown_session(self, store, capsys):
        assert run_cli("inspect", "0-doesnotexist0000") == EXIT_UNKNOWN_SESSION

    def test_corrupt_state_file(self, store, capsys):
        run_cli("--json", "run", "hello there")
        sid = json.loads(capsys.readouterr().out)["session_id"]
        (store / f"{sid}.state.json").write_text('{"version": 1, "state": ')
        assert run_cli("inspect", sid) == EXIT_CORRUPT_STATE

    @pytest.mark.parametrize("layout", ["document", "journal"])
    @pytest.mark.parametrize("command", ["inspect", "session"])
    def test_unknown_state_version_exits_4_without_traceback(
        self, store, capsys, monkeypatch, command, layout
    ):
        snapshot = '{"version":2,"state":{}}'
        if layout == "journal":
            snapshot = STATE_JOURNAL_HEADER.decode() + snapshot + "\n"
        store.mkdir()
        (store / "1-aa.state.json").write_text(snapshot)
        monkeypatch.setattr("sys.stdin", io.StringIO(":quit\n"))
        argv = ["inspect", "1-aa"] if command == "inspect" else ["session", "--session", "1-aa"]
        assert run_cli(*argv) == EXIT_CORRUPT_STATE
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported state version 2")
        assert "Traceback" not in err


def legacy_memory_text(journal_text):
    """A journal's store in the one-line layout that earlier versions wrote."""
    header, *lines = [json.loads(line) for line in journal_text.splitlines()]
    summaries = [None] + [obj["compressed"] for obj in lines if "compressed" in obj]
    records = [obj for obj in lines if "compressed" not in obj]
    doc = {"compressed": summaries[-1], "dimension": header["dimension"], "records": records}
    return json.dumps(doc, sort_keys=True)


def corrupt_memory(path, how):
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    if how == "dimension":  # the records hold 64-wide embeddings
        doc = json.loads(legacy_memory_text(text))
        doc["dimension"] = 32
        path.write_text(json.dumps(doc, sort_keys=True))
    elif how == "truncated":
        legacy = legacy_memory_text(text)
        path.write_text(legacy[: len(legacy) // 2])
    elif how == "journal-dimension":
        path.write_text(text.replace('"dimension": 64', '"dimension": 32', 1))
    elif how == "journal-header-cut":
        path.write_text(lines[0][:30])
    else:  # a complete record line that is not JSON
        path.write_text(lines[0] + lines[1][:40] + "\n" + "".join(lines[2:]))


def session_with_turns(monkeypatch, capsys, *turns):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{t}\n" for t in turns)))
    assert run_cli("session") == 0
    return capsys.readouterr().out.split()[1]


class TestCorruptMemory:
    @pytest.mark.parametrize("how", [
        "dimension", "truncated", "journal-dimension", "journal-header-cut", "journal-bad-line",
    ])
    @pytest.mark.parametrize("command", ["inspect", "session"])
    def test_exits_4_without_traceback(self, store, capsys, monkeypatch, command, how):
        run_cli("--json", "run", "hello there")
        sid = json.loads(capsys.readouterr().out)["session_id"]
        corrupt_memory(store / f"{sid}.memory.json", how)
        monkeypatch.setattr("sys.stdin", io.StringIO(":quit\n"))
        argv = ["inspect", sid] if command == "inspect" else ["session", "--session", sid]
        assert run_cli(*argv) == EXIT_CORRUPT_STATE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed memory file ")
        assert "Traceback" not in err

    def test_torn_tail_resumes_without_the_torn_turn(self, store, capsys, monkeypatch):
        sid = session_with_turns(monkeypatch, capsys, "hello there", "what is the capital of france")
        path = store / f"{sid}.memory.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 25])  # inside the second record's line
        monkeypatch.setattr("sys.stdin", io.StringIO(":memory\nhello again\n:quit\n"))
        assert run_cli("session", "--session", sid) == 0
        out = capsys.readouterr().out
        assert "short-term window (1 of last 1 turns)" in out
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert [json.loads(line).get("record_id") for line in lines[:-1]] == [
            None, "m000000", "m000001"]
        assert json.loads(lines[2])["content"].startswith("Q: hello again")


class TestCorruptTrace:
    def test_torn_tail_is_dropped_and_the_next_turn_appends(self, store, capsys, monkeypatch):
        sid = session_with_turns(monkeypatch, capsys, "hello there")
        path = store / f"{sid}.trace.jsonl"
        path.write_bytes(path.read_bytes()[:50])
        assert run_cli("inspect", sid) == 0
        captured = capsys.readouterr()
        assert "trace timeline (0 events):" in captured.out
        assert "Traceback" not in captured.err
        monkeypatch.setattr("sys.stdin", io.StringIO("hello again\n:quit\n"))
        assert run_cli("session", "--session", sid) == 0
        capsys.readouterr()
        assert run_cli("--json", "inspect", sid) == 0
        rows = json.loads(capsys.readouterr().out)["trace"]
        assert rows and path.read_bytes().count(b"\n") == len(rows)

    def test_garbage_line_exits_4_without_traceback(self, store, capsys, monkeypatch):
        sid = session_with_turns(monkeypatch, capsys, "hello there")
        path = store / f"{sid}.trace.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        lines[1] = "not json at all\n"
        path.write_text("".join(lines))
        assert run_cli("inspect", sid) == EXIT_CORRUPT_STATE
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed trace file {path}: line 2: ")
        assert "Traceback" not in err


class TestSimulate:
    def test_small_simulation_with_comparison(self, store, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = run_cli(
            "--json", "--seed", "5", "simulate", "--queries", "40",
            "--policies", "centralized,hierarchical", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "comparison" in payload
        assert (out_dir / "report-centralized.json").exists()
        assert (out_dir / "per-query-deltas.csv").exists()

    def test_self_comparison_zero_deltas(self, store, tmp_path, capsys):
        code = run_cli(
            "--json", "--seed", "5", "simulate", "--queries", "25",
            "--policies", "centralized,centralized", "--out", str(tmp_path / "r"),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["comparison"]["tta_reduction_median_pct"] == 0.0

    def test_seed_reproducibility(self, store, tmp_path, capsys):
        outputs = []
        for run_dir in ("a", "b"):
            code = run_cli(
                "--json", "--seed", "7", "simulate", "--queries", "30",
                "--policies", "centralized", "--out", str(tmp_path / run_dir),
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
            report = (tmp_path / run_dir / "report-centralized.json").read_text()
            outputs.append(report)
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

    def test_invalid_spec_exits_2_with_field(self, store, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"total_queries": 10, "category_mix": {"vision_qa": 1.0}}))
        code = run_cli("simulate", str(bad))
        assert code == EXIT_WORKLOAD_SPEC
        assert "category_mix" in capsys.readouterr().err

    def test_unknown_policy_exits_2(self, store, capsys):
        assert run_cli("simulate", "--policies", "psychic") == EXIT_WORKLOAD_SPEC

    @pytest.mark.parametrize("corrupt,field", [
        (lambda w: w["failure_injection"].update({"yolo-detect": "x"}),
         "failure_injection.yolo-detect"),
        (lambda w: w["failure_injection"].update({"yolo-detect": 7.0}),
         "failure_injection.yolo-detect"),
        (lambda w: w.update(queries=[]), "queries"),
        (lambda w: w["queries"][0].update(fixtures=[]), "queries[0].fixtures"),
        (lambda w: w["queries"][0].update(category="poetry"), "queries[0].category"),
    ], ids=["rate-not-a-number", "rate-above-one", "no-queries", "fixtures-list",
            "unknown-category"])
    def test_invalid_materialized_workload_exits_2(self, store, tmp_path, capsys, corrupt, field):
        spec = default_workload_spec(3, seed=3)
        workload = materialize_workload(generate_workload(spec), spec)
        corrupt(workload)
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps(workload))
        code = run_cli("--json", "simulate", str(path), "--policies", "centralized,hierarchical")
        assert code == EXIT_WORKLOAD_SPEC
        assert capsys.readouterr().err.startswith(f"error: workload spec invalid at {field}: ")

    @pytest.mark.parametrize("key,value", [
        ("tokens", "many"), ("tokens", -5), ("tokens", 120.0), ("frames", True), ("frames", "9"),
    ])
    def test_fixture_count_of_wrong_type_exits_2(self, store, tmp_path, capsys, key, value):
        spec = default_workload_spec(3, seed=1)
        workload = materialize_workload(generate_workload(spec), spec)
        for query in workload["queries"]:
            for fixture in query["fixtures"].values():
                fixture[key] = value
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps(workload))
        code = run_cli("--json", "simulate", str(path), "--policies", "centralized,hierarchical")
        assert code == EXIT_WORKLOAD_SPEC
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: workload spec invalid at queries[0].fixtures.q00000.jpg.{key}: "
        )
        assert "Traceback" not in err


class TestListings:
    def test_tools_list_json(self, store, capsys):
        assert run_cli("--json", "tools", "list") == 0
        entries = json.loads(capsys.readouterr().out)
        assert any(e["name"] == "yolo-detect" for e in entries)

    def test_models_list_json(self, store, capsys):
        assert run_cli("--json", "models", "list") == 0
        entries = json.loads(capsys.readouterr().out)
        assert any(e["model_name"] == "gpt-4o" for e in entries)


class TestConfigPrecedence:
    def test_flag_beats_env_beats_file(self, tmp_path, monkeypatch):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({"store_root": "/from-file", "seed": 1}))
        monkeypatch.setenv("SUPERVISORD_STORE_ROOT", "/from-env")
        parser = build_parser()
        args = parser.parse_args(["--config", str(config_file), "tools", "list"])
        cfg = resolve_config(args)
        assert cfg.store_root == "/from-env"  # env beats file
        assert cfg.seed == 1  # file beats default
        args = parser.parse_args(
            ["--config", str(config_file), "--store-root", "/from-flag", "tools", "list"]
        )
        cfg = resolve_config(args)
        assert cfg.store_root == "/from-flag"  # flag beats env

    def test_budget_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERVISORD_BUDGET_USD", "1.25")
        args = build_parser().parse_args(["tools", "list"])
        cfg = resolve_config(args)
        assert cfg.budget_usd == "1.25"

    @pytest.mark.parametrize("key", ["clock", "parallelism"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({"seed": 1, key: 4}))
        assert run_cli("--config", str(config_file), "tools", "list") == 2
        assert capsys.readouterr().err.strip() == f"error: unknown config key {key!r}"

    @pytest.mark.parametrize("content, message", [
        (None, "error: cannot read config file"),
        ("{not json", "error: cannot read config file"),
        ("[1]", "error: config file must hold a JSON object"),
        ('"seed"', "error: config file must hold a JSON object"),
    ], ids=["missing", "invalid-json", "list", "string"])
    def test_bad_config_file_rejected(self, tmp_path, capsys, content, message):
        config_file = tmp_path / "cfg.json"
        if content is not None:
            config_file.write_text(content)
        assert run_cli("--config", str(config_file), "tools", "list") == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("key, value, type_name", [
        ("seed", "abc", "an integer"),
        ("seed", True, "an integer"),
        ("seed", 1.5, "an integer"),
        ("store_root", 7, "a string"),
        ("tools", ["a.json"], "a string"),
        ("models", None, "a string"),
        ("flag_rules", {"path": "r.json"}, "a string"),
        ("budget_usd", 1.25, "a string"),
    ], ids=["seed-str", "seed-bool", "seed-float", "store_root", "tools", "models",
            "flag_rules", "budget_usd"])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value, type_name):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({key: value}))
        assert run_cli("--config", str(config_file), "tools", "list") == 2
        assert capsys.readouterr().err.strip() == f"error: config key {key!r} must be {type_name}"

    def test_bad_seed_type_stops_simulate(self, tmp_path, capsys):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({"seed": "abc"}))
        code = run_cli("--config", str(config_file), "simulate", "--queries", "20",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()


class TestUnreadableInputs:
    @pytest.mark.parametrize("argv, content, env", [
        (["--tools", "{path}", "tools", "list"], None, {}),
        (["--tools", "{path}", "tools", "list"], "{not json", {}),
        (["--models", "{path}", "models", "list"], None, {}),
        (["--models", "{path}", "models", "list"], "{not json", {}),
        (["--flag-rules", "{path}", "run", "hi"], None, {}),
        (["--flag-rules", "{path}", "run", "hi"], "{not json", {}),
        (["run", "hi", "--fixtures", "{path}"], None, {}),
        (["run", "hi", "--fixtures", "{path}"], "{not json", {}),
        (["simulate", "{path}", "--queries", "5"], None, {}),
        (["run", "hi"], None, {"SUPERVISORD_BUDGET_USD": "abc"}),
    ], ids=["tools-missing", "tools-invalid-json", "models-missing", "models-invalid-json",
            "flag-rules-missing", "flag-rules-invalid-json", "fixtures-missing",
            "fixtures-invalid-json", "workload-missing", "budget-env"])
    def test_exits_2_without_traceback(self, store, tmp_path, monkeypatch, capsys,
                                       argv, content, env):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert run_cli(*[a.replace("{path}", str(path)) for a in argv]) == EXIT_WORKLOAD_SPEC
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert "Traceback" not in err

    # couplet-slm-coding is a trad_couplet model; that band is $0.15-$0.25/MTok.
    @pytest.mark.parametrize("price, code", [
        ("0.15", 0), ("0.25", 0), ("0.14", EXIT_WORKLOAD_SPEC), ("9.99", EXIT_WORKLOAD_SPEC),
    ])
    def test_model_price_outside_its_tier_band_exits_2(self, store, tmp_path, capsys,
                                                       price, code):
        entries = json.loads(
            resources.files("supervisord.data").joinpath("models.json").read_text("utf-8")
        )
        assert entries[0]["model_name"] == "couplet-slm-coding"
        entries[0]["cost_per_mtok_usd"] = price
        catalog = tmp_path / "models.json"
        catalog.write_text(json.dumps(entries))
        try:
            result = run_cli("--models", str(catalog), "models", "list")
        except SystemExit as exc:
            result = exc.code
        assert result == code
        err = capsys.readouterr().err
        if code:
            assert err == (
                f"error: cannot read model catalog {catalog}: couplet-slm-coding: "
                f"{float(price):.6f}/MTok outside the trad_couplet band\n"
            )

    @pytest.mark.parametrize("precondition",
                             ["has_attachment(foo)", "has_attachment", "always(text)"])
    def test_bad_precondition_rejected_at_catalog_load(self, store, tmp_path, capsys,
                                                       precondition):
        registry = default_registry()
        entries = [spec_to_json(registry.get(t)) for t in registry.all_ids()]
        for entry in entries:
            if entry["name"] == "yolo-detect":
                entry["preconditions"] = [precondition]
        catalog = tmp_path / "tools.json"
        catalog.write_text(json.dumps(entries))
        code = run_cli("--tools", str(catalog), "run", "detect the objects in this photo",
                       "--attach", "p.jpg")
        assert code == EXIT_WORKLOAD_SPEC
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read tool catalog {catalog}: ")
        assert "Traceback" not in err


class TestSessionRepl:
    def test_scripted_session(self, store, monkeypatch, capsys):
        lines = iter(["what is the capital of france", ":cost", ":memory", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = run_cli("session", "--knob", "open_src")
        assert code == 0
        output = capsys.readouterr().out
        assert "cumulative cost" in output
        assert "short-term window" in output
        cost_lines = [line for line in output.splitlines() if line.startswith("  (")]
        assert len(cost_lines) == 1
        assert cost_lines[0].endswith(")") and "best effort" not in cost_lines[0]

    def test_session_resume_unknown(self, store):
        assert run_cli("session", "--session", "0-missing") == EXIT_UNKNOWN_SESSION

    def test_clarification_inline(self, store, monkeypatch, capsys):
        lines = iter(["Summarize this in the usual style", "a formal tone", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = run_cli("session")
        assert code == 0
        assert "clarified: a formal tone" in capsys.readouterr().out

    def test_eof_during_clarification_saves_turn(self, store, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("explain it the usual way\n"))
        code = run_cli("session")
        assert code == 0
        out = capsys.readouterr().out
        assert "Answer to: explain it the usual way" in out
        assert [line for line in out.splitlines() if line.startswith("  (")][0].endswith(
            ", best effort)"
        )
        sid = out.split()[1]
        run_cli("--json", "inspect", sid)
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"]["turn_count"] == 1
        assert [r["event"] for r in doc["trace"]].count("clarify") == 1

    def test_unplannable_turn_exits_cleanly(self, store, tmp_path, monkeypatch, capsys):
        catalog = tmp_path / "tools.json"
        registry = default_registry()
        specs = [registry.get(t) for t in registry.all_ids()]
        catalog.write_text(json.dumps(
            [spec_to_json(s) for s in specs if not s.name.endswith("-invoke")]
        ))
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n"))
        code = run_cli("--tools", str(catalog), "session")
        assert code == EXIT_UNPLANNABLE
        err = capsys.readouterr().err
        assert err.startswith("error: no capable tool for requirement")
        assert "Traceback" not in err

    def test_failed_pipeline_turn_exits_13_after_saving(self, store, monkeypatch, capsys):
        def failing(self, node, seed):
            raise NodeFailure(f"backend down for {node.node_id}")

        monkeypatch.setattr(EngineBackends, "run_node", failing)
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\nsecond turn\n"))
        code = run_cli("session")
        assert code == EXIT_PIPELINE_FAILED
        captured = capsys.readouterr()
        assert captured.err.startswith("error: pipeline failed at node route")
        assert "Traceback" not in captured.err
        sid = captured.err.split()[-1]
        assert (store / f"{sid}.state.json").exists()
        assert (store / f"{sid}.trace.jsonl").exists()

    def test_six_turns_memory_window(self, store, monkeypatch, capsys):
        queries = [f"question number {i} about topic {i}" for i in range(6)]
        lines = iter(queries + [":memory", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = run_cli("session", "--knob", "open_src")
        assert code == 0
        output = capsys.readouterr().out
        assert "short-term window (5 of last 6 turns)" in output


def bundled(name):
    return json.loads(resources.files("supervisord.data").joinpath(name).read_text("utf-8"))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def simulate(tmp_path, capsys, name, *flags, policies="centralized,hierarchical"):
    """Run a 30-query `simulate`; returns its stdout and each report file's text."""
    out = tmp_path / name
    code = run_cli(*flags, "--json", "--seed", "5", "simulate", "--queries", "30",
                   "--policies", policies, "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    return stdout, {p: (out / f"report-{p}.json").read_text() for p in policies.split(",")}


def aggregates(report_text):
    return json.loads(report_text)["aggregates"]


class TestSimulateUsesTheGivenCatalogs:
    def test_slower_tools_slow_both_policies(self, store, tmp_path, capsys):
        entries = bundled("tools.json")
        for entry in entries:
            entry["latency_ms"] = {k: 10 * v for k, v in entry["latency_ms"].items()}
        tools = write_json(tmp_path / "tools.json", entries)
        _, base = simulate(tmp_path, capsys, "base")
        _, slow = simulate(tmp_path, capsys, "slow", "--tools", tools)
        for policy in ("centralized", "hierarchical"):
            before = aggregates(base[policy])["tta_median_ms"]
            assert aggregates(slow[policy])["tta_median_ms"] > 5 * before, policy

    def test_cheaper_strong_model_lowers_hierarchical_cost(self, store, tmp_path, capsys):
        entries = bundled("models.json")
        for entry in entries:
            if entry["model_name"] == "gpt-4o":
                entry["cost_per_mtok_usd"] = "2.50"
        models = write_json(tmp_path / "models.json", entries)
        _, base = simulate(tmp_path, capsys, "base", policies="hierarchical")
        _, cheap = simulate(tmp_path, capsys, "cheap", "--models", models,
                            policies="hierarchical")
        before = float(aggregates(base["hierarchical"])["mean_cost_usd"])
        assert float(aggregates(cheap["hierarchical"])["mean_cost_usd"]) < before

    def test_flag_rules_reach_the_centralized_engine(self, store, tmp_path, capsys):
        rules = bundled("flag_rules.json")
        rules["moe"]["keywords"] = []  # expert brainstorms now classify as text queries
        path = write_json(tmp_path / "rules.json", rules)
        _, base = simulate(tmp_path, capsys, "base", policies="centralized")
        _, other = simulate(tmp_path, capsys, "other", "--flag-rules", path,
                            policies="centralized")
        assert aggregates(other["centralized"])["accuracy"] < 1.0
        assert aggregates(base["centralized"])["accuracy"] == 1.0

    @pytest.mark.parametrize("budget", ["0.000001", "abc"])
    def test_budget_never_applies(self, store, tmp_path, monkeypatch, capsys, budget):
        base = simulate(tmp_path, capsys, "base")
        monkeypatch.setenv("SUPERVISORD_BUDGET_USD", budget)
        assert simulate(tmp_path, capsys, "budget") == base


class TestCatalogGaps:
    @pytest.mark.parametrize("missing, argv", [
        ("memory-retrieve", ["run", "hello there"]),
        ("memory-retrieve", ["simulate", "--queries", "5", "--policies", "centralized"]),
        ("pipeline-coordinate", ["simulate", "--queries", "5", "--policies", "hierarchical"]),
    ], ids=["run", "simulate-centralized", "simulate-hierarchical"])
    def test_tool_catalog_without_a_named_tool_exits_11(self, store, tmp_path, capsys,
                                                        missing, argv):
        entries = [e for e in bundled("tools.json") if e["name"] != missing]
        tools = write_json(tmp_path / "tools.json", entries)
        assert run_cli("--tools", tools, *argv) == EXIT_UNPLANNABLE
        assert capsys.readouterr().err == f"error: no tool named {missing!r}\n"

    @pytest.mark.parametrize("drop, query, message", [
        (lambda e: e["subflag_affinity"] == "general", "hello there",
         "catalog has no model with affinity general"),
        (lambda e: e["model_name"] == "gpt-4o", _HARD_TEXT_TEMPLATE,
         "catalog has no strong entry for tier closed_src"),
    ], ids=["no-general-model", "no-closed-strong-model"])
    def test_model_catalog_with_a_gap_exits_2(self, store, tmp_path, capsys,
                                              drop, query, message):
        models = write_json(tmp_path / "models.json",
                            [e for e in bundled("models.json") if not drop(e)])
        assert run_cli("--models", models, "run", query) == EXIT_WORKLOAD_SPEC
        assert capsys.readouterr().err == f"error: cannot read model catalog {models}: {message}\n"


# Typed errors that never reach `main`: each is handled where it is raised, or
# wrapped in an error that `cli.EXIT_CODES` maps.
HANDLED_BEFORE_A_COMMAND = (
    (errors.NodeFailure, "the scheduler repairs the node or fails the pipeline"),
    (errors.PipelineFailed, "the engine ends the turn failed; run and session exit 13"),
    (errors.NoCapableTool, "the scheduler raises UnplannableQuery or PipelineFailed instead"),
    (errors.AmbiguousIntent, "the engine asks the user, else ends the turn failed"),
    (errors.DimensionMismatch, "load_memory wraps it in CorruptState"),
    (errors.DuplicateTool, "a catalog that cannot load raises InvalidInput"),
    (errors.InvalidSpec, "a catalog that cannot load raises InvalidInput"),
    (errors.WorkloadSpecError, "simulate wraps it in InvalidInput with its field path"),
    (errors.IncomparableReports, "simulate compares reports over one workload"),
    (errors.SizeExceeded, "the CLI attaches paths and URLs, never inline bytes"),
    (errors.EmbeddingUnavailable, "the bundled hashing embedder cannot fail"),
    (errors.EvidenceTypeError, "every task kind the engine builds has a handler"),
)


def test_every_error_has_an_exit_code_or_a_handler():
    handled = {error for error, _ in HANDLED_BEFORE_A_COMMAND}
    for error in vars(errors).values():
        if not isinstance(error, type) or not issubclass(error, errors.SupervisorError):
            continue
        if error is errors.SupervisorError:
            continue
        mapped = any(issubclass(error, base) for base in cli.EXIT_CODES)
        assert mapped != (error in handled), error.__name__
