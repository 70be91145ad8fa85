"""`perfbench/tracing.py` (imported, not changed) patches only attributes that exist.

`Tracer.install` wraps functions at the names the engine looks up. If a
refactor moves one of them, `perfbench/run.py --trace 1` breaks; this test
fails first, without running a round.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from supervisord import couplet, engine, harness, memory, scheduler, tools

ROOT = Path(__file__).resolve().parent.parent
OWNERS = (
    engine, memory, couplet, harness, tools, scheduler,
    engine.Supervisor, memory.MemoryStore, tools.ToolRegistry, scheduler.Scheduler,
)


def load_tracing():
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def namespaces() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_existing_attributes_and_restore_puts_them_back():
    before = namespaces()
    tracer = load_tracing().Tracer()
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
