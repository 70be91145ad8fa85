"""The benchmark's own modules (imported, not changed) still run against the package.

`perfbench/tracing.py` patches only attributes that exist: `Tracer.install`
wraps functions at the names the engine looks up, so if a refactor moves one
of them, `perfbench/run.py --trace 1` breaks and the first test fails without
running a round. `perfbench/workloads.py` calls the package by name too; the
smoke test runs two small rounds of each workload.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from supervisord import couplet, engine, harness, memory, scheduler, tools, workload

ROOT = Path(__file__).resolve().parent.parent
OWNERS = (
    engine, memory, couplet, harness, tools, scheduler,
    engine.Supervisor, memory.MemoryStore, tools.ToolRegistry, scheduler.Scheduler,
)


def load_perfbench(module_name: str):
    name = f"perfbench_{module_name}"
    if name not in sys.modules:
        path = ROOT / "perfbench" / f"{module_name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def namespaces() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_existing_attributes_and_restore_puts_them_back():
    before = namespaces()
    tracer = load_perfbench("tracing").Tracer()
    try:
        tracer.install()
        during = namespaces()
    finally:
        tracer.restore()
    patched = set()
    for owner, old, new in zip(OWNERS, before, during):
        assert new.keys() == old.keys(), owner  # nothing added: every attribute existed
        for attr, value in new.items():
            if value is not old[attr]:
                assert value.__wrapped__ is old[attr], (owner, attr)
                patched.add((owner, attr))
    assert {(engine, "embed"), (memory, "embed"), (engine, "classify_flag_detail"),
            (memory.MemoryStore, "retrieve_relevant"), (engine.Supervisor, "process")} <= patched
    after = namespaces()
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        assert all(new[attr] is old[attr] for attr in old), owner


def test_benchmark_reaches_the_generator_through_harness():
    # `perfbench/workloads.py` calls these three as `harness.<name>`, and
    # `perfbench/tracing.py` patches `harness.generate_workload`, so each must
    # be the workload module's own function.
    for name in ("generate_workload", "default_workload_spec", "workload_digest"):
        assert getattr(harness, name) is getattr(workload, name), name


@pytest.mark.parametrize("name", ["sim-mix", "sim-faults", "session-long"])
def test_workload_rounds_run_clean_and_repeat(name, tmp_path, monkeypatch):
    workloads = load_perfbench("workloads")
    monkeypatch.setattr(workloads, "SIM_QUERIES", 45)
    monkeypatch.setattr(workloads, "SESSION_TURNS", 20)
    workload = workloads.make(name, 1, str(tmp_path / name))
    workload.prepare()
    first, second = workload.run_round(), workload.run_round()
    assert first.failed == 0 and second.failed == 0
    assert first.ops > 0 and first.fingerprints == second.fingerprints
