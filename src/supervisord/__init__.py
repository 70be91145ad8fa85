"""Centralized multimodal query supervisor and policy simulator."""

from .state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    Money,
    QueryState,
    SessionMeta,
    Subflag,
    deserialize_state,
    new_session,
    serialize_state,
)
from .tools import LatencyPrior, Requirement, ToolCost, ToolRegistry, ToolSpec, default_registry
from .routing import ModelCatalog, RoutingDecision, default_model_catalog, select_tier
from .memory import HashingEmbedder, MemoryRecord, MemoryStore, score_memory
from .scheduler import ExecutionGraph, Scheduler, build_graph
from .engine import EngineConfig, QueryOutcome, Supervisor
from .couplet import PerceptualTask, SimulatedBackend, TaskKind

__version__ = "0.1.0"

__all__ = [
    "Attachment",
    "CostKnob",
    "EngineConfig",
    "ExecutionFlag",
    "ExecutionGraph",
    "HashingEmbedder",
    "LatencyPrior",
    "MemoryRecord",
    "MemoryStore",
    "Modality",
    "ModelCatalog",
    "Money",
    "PerceptualTask",
    "QueryOutcome",
    "QueryState",
    "Requirement",
    "RoutingDecision",
    "Scheduler",
    "SessionMeta",
    "SimulatedBackend",
    "Subflag",
    "Supervisor",
    "TaskKind",
    "ToolCost",
    "ToolRegistry",
    "ToolSpec",
    "build_graph",
    "default_model_catalog",
    "default_registry",
    "deserialize_state",
    "new_session",
    "score_memory",
    "select_tier",
    "serialize_state",
]
