"""Bundled end-to-end scenarios built from scripted perceptual fixtures."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .clock import VirtualClock
from .couplet import SimulatedBackend
from .engine import EngineConfig, QueryOutcome, Supervisor
from .memory import MemoryStore
from .routing import select_tier
from .state import Attachment, QueryState, SessionMeta

SCENARIO_FILES = {
    "financial-analysis": "case_financial.json",
    "video-advertisement": "case_video_ad.json",
    "handwritten-notes": "case_handwritten.json",
}
SCENARIO_SEED = 7


@dataclass
class Scenario:
    name: str
    query: str
    knob: str
    attachments: list[str]
    fixtures: dict[str, dict]
    clarify_reply: Optional[str] = None


def load_scenario(name: str) -> Scenario:
    filename = SCENARIO_FILES[name]
    text = (
        resources.files("supervisord.data").joinpath("fixtures").joinpath(filename)
        .read_text("utf-8")
    )
    obj = json.loads(text)
    return Scenario(
        name=obj["name"],
        query=obj["query"],
        knob=obj.get("knob", "closed_src"),
        attachments=obj["attachments"],
        fixtures=obj["fixtures"],
        clarify_reply=obj.get("clarify_reply"),
    )


def run_scenario(scenario: Scenario) -> QueryOutcome:
    supervisor = Supervisor(EngineConfig(seed=SCENARIO_SEED))
    state = QueryState(
        user_query=scenario.query,
        cost_knob=select_tier(scenario.knob),
        session=SessionMeta(session_id=f"scenario-{scenario.name}", created_at_ms=0),
        attachments=[Attachment("path", n, declared_name=n) for n in scenario.attachments],
    )
    clarifier = (lambda _q: scenario.clarify_reply) if scenario.clarify_reply else None
    return supervisor.process(
        state,
        memory_store=MemoryStore(),
        perceptual_backend=SimulatedBackend(scenario.fixtures),
        clarifier=clarifier,
        clock=VirtualClock(),
        query_id=f"scenario-{scenario.name}",
    )
