"""Typed tool registry: specifications, capability matching, latency priors.

Tools declare what they consume (modalities), what they produce (output tags),
the predicates that must hold before invocation, and a bounded latency prior
that maps a uniform draw in [0, 1) to a latency; the caller supplies the draw
(`couplet.keyed_uniform`). Matching filters on capability coverage and ranks
by (expected latency, expected cost, name) once per requirement shape, then
checks preconditions against the query state on every call. A `ToolRegistry`
belongs to one thread: registration and the ranking memo take no lock.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable, Optional

from .errors import DuplicateTool, InvalidSpec, NoCapableTool, UnknownTool
from .state import CostKnob, Modality, Money, QueryState

# Token volume assumed when ranking per-token tools against flat-fee tools.
NOMINAL_TOKENS = 1000


class ToolCategory(str, Enum):
    SEMANTIC_ANALYZER = "semantic_analyzer"
    IMAGE = "image"
    AUDIO = "audio"
    DOCUMENT = "document"
    MEMORY = "memory"
    ORCHESTRATION = "orchestration"
    COMPLEXITY_ANALYSIS = "complexity_analysis"


@dataclass(frozen=True)
class LatencyPrior:
    """Bounded latency distribution in integer milliseconds."""

    min_ms: int
    max_ms: int
    shape: str = "uniform"  # "uniform" | "triangular" (mode at midpoint)

    def validate(self) -> None:
        if self.min_ms <= 0 or self.max_ms <= 0:
            raise InvalidSpec("latency bounds must be strictly positive")
        if self.min_ms > self.max_ms:
            raise InvalidSpec(
                f"latency prior inverted: min {self.min_ms} > max {self.max_ms}"
            )
        if self.shape not in ("uniform", "triangular"):
            raise InvalidSpec(f"unknown latency shape {self.shape!r}")

    def mean_ms(self) -> float:
        # Mode sits at the midpoint for the triangular option, so both
        # supported shapes share the same mean.
        return (self.min_ms + self.max_ms) / 2.0

    def sample(self, u: float) -> int:
        """The latency at uniform `u` in [0, 1): an integer uniform takes
        `min + floor(u * (max - min + 1))`, a triangular one the rounded
        inverse CDF with the mode at the midpoint. Both rise with `u`."""
        low, high = self.min_ms, self.max_ms
        if self.shape == "triangular" and u < 0.5:
            value = round(low + (high - low) * math.sqrt(u / 2.0))
        elif self.shape == "triangular":
            value = round(high - (high - low) * math.sqrt((1.0 - u) / 2.0))
        else:
            value = low + math.floor(u * (high - low + 1))
        return min(max(value, low), high)


@dataclass(frozen=True)
class ToolCost:
    """Cost profile: flat fee per invocation plus per-token pricing."""

    per_invocation: Money = field(default_factory=Money)
    per_mtok: Money = field(default_factory=Money)

    def expected_micros(self) -> int:
        return self.per_invocation.micros + (self.per_mtok.micros * NOMINAL_TOKENS) // 1_000_000


# Closed predicate vocabulary evaluated against the current QueryState.
_PREDICATE_RE = re.compile(r"^(?P<name>[a-z_]+)(?:\((?P<arg>[a-z_]+)\))?$")
_KNOWN_PREDICATES = {
    "always",
    "nonempty_query",
    "has_attachment",        # has_attachment(<modality>)
    "has_visual_attachment",  # image or video present
    "has_av_attachment",      # audio or video present
}


@lru_cache(maxsize=256)
def _parse_predicate(text: str) -> tuple[str, Optional[Modality]]:
    m = _PREDICATE_RE.match(text.strip())
    if not m or m.group("name") not in _KNOWN_PREDICATES:
        raise InvalidSpec(f"unknown precondition predicate {text!r}")
    name, arg = m.group("name"), m.group("arg")
    if name != "has_attachment":
        if arg is not None:
            raise InvalidSpec(f"precondition {name!r} takes no argument, got {text!r}")
        return name, None
    try:
        return name, Modality(arg)
    except ValueError:
        raise InvalidSpec(f"precondition {text!r} needs a modality argument") from None


def evaluate_predicate(text: str, state: Optional[QueryState]) -> bool:
    """Evaluate one predicate descriptor; a missing state satisfies everything."""
    name, arg = _parse_predicate(text)
    if state is None or name == "always":
        return True
    if name == "nonempty_query":
        return bool(state.user_query.strip())
    modalities = {
        a.detected_modality for a in state.attachments if a.detected_modality
    }
    if name == "has_attachment":
        return arg in modalities
    if name == "has_visual_attachment":
        return bool(modalities & {Modality.IMAGE, Modality.VIDEO})
    if name == "has_av_attachment":
        return bool(modalities & {Modality.AUDIO, Modality.VIDEO})
    raise InvalidSpec(f"unknown precondition predicate {text!r}")


@dataclass(frozen=True)
class ToolSpec:
    """Typed tool interface: signature, contracts, latency prior, cost, tier."""

    name: str
    category: ToolCategory
    input_modalities: frozenset[Modality]
    output_tags: frozenset[str]
    preconditions: tuple[str, ...] = ()
    latency_prior: LatencyPrior = LatencyPrior(1, 1)
    cost: ToolCost = field(default_factory=ToolCost)
    tier: CostKnob = CostKnob.TRAD_COUPLET

    def validate(self) -> None:
        if not self.name:
            raise InvalidSpec("tool name must be nonempty")
        self.latency_prior.validate()
        for pred in self.preconditions:
            _parse_predicate(pred)


@dataclass(frozen=True, order=True)
class ToolId:
    """Opaque stable identifier assigned at registration."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Requirement:
    """What a graph node needs from a tool."""

    input_modalities: frozenset[Modality] = frozenset()
    output_tags: frozenset[str] = frozenset()
    tier: Optional[CostKnob] = None
    state: Optional[QueryState] = None

    def describe(self) -> str:
        mods = ",".join(sorted(m.value for m in self.input_modalities)) or "-"
        tags = ",".join(sorted(self.output_tags)) or "-"
        tier = self.tier.value if self.tier else "any"
        return f"inputs[{mods}] outputs[{tags}] tier[{tier}]"


class ToolRegistry:
    """Registry of tool specs; matching memoizes a ranking per requirement shape."""

    def __init__(self):
        self._by_id: dict[ToolId, ToolSpec] = {}
        self._ids_by_name: dict[str, ToolId] = {}
        # (input modalities, output tags, tier) -> capable (tool_id, spec), ranked
        self._ranked: dict[tuple, list[tuple[ToolId, ToolSpec]]] = {}

    def register_tool(self, spec: ToolSpec) -> ToolId:
        spec.validate()
        if spec.name in self._ids_by_name:
            raise DuplicateTool(f"tool {spec.name!r} already registered")
        tool_id = ToolId(f"t{len(self._by_id):03d}:{spec.name}")
        self._by_id[tool_id] = spec
        self._ids_by_name[spec.name] = tool_id
        self._ranked.clear()
        return tool_id

    def get(self, tool_id: ToolId) -> ToolSpec:
        try:
            return self._by_id[tool_id]
        except KeyError:
            raise UnknownTool(f"no tool registered under {tool_id}") from None

    def id_for_name(self, name: str) -> ToolId:
        try:
            return self._ids_by_name[name]
        except KeyError:
            raise UnknownTool(f"no tool named {name!r}") from None

    def __len__(self) -> int:
        return len(self._by_id)

    def all_ids(self) -> list[ToolId]:
        return list(self._by_id)

    def _rank_capable(self, req: Requirement) -> list[tuple[ToolId, ToolSpec]]:
        """Tools covering the requirement's modalities, tags and tier, ranked."""
        capable = [
            (spec.latency_prior.mean_ms(), spec.cost.expected_micros(), spec.name, tool_id, spec)
            for tool_id, spec in self._by_id.items()
            if req.input_modalities <= spec.input_modalities
            and req.output_tags <= spec.output_tags
            and (req.tier is None or spec.tier == req.tier)
        ]
        capable.sort(key=lambda item: item[:4])
        return [(tool_id, spec) for *_, tool_id, spec in capable]

    def match_tools(
        self, requirement: Requirement, exclude: Iterable[ToolId] = ()
    ) -> list[ToolId]:
        """Rank capable tools ascending by (expected latency, expected cost, name)."""
        key = (requirement.input_modalities, requirement.output_tags, requirement.tier)
        if not self._by_id:
            raise NoCapableTool("registry is empty", requirement)
        ranked = self._ranked.get(key)
        if ranked is None:
            ranked = self._ranked[key] = self._rank_capable(requirement)
        excluded = set(exclude)
        state = requirement.state
        matched = [
            tool_id
            for tool_id, spec in ranked
            if tool_id not in excluded
            and all(evaluate_predicate(p, state) for p in spec.preconditions)
        ]
        if not matched:
            raise NoCapableTool(
                f"no capable tool for requirement {requirement.describe()}", requirement
            )
        return matched

    def sample_latency(self, tool_id: ToolId, u: float) -> int:
        """Latency (ms) of the tool's declared prior at uniform `u` in [0, 1),
        typically a `couplet.keyed_uniform` draw."""
        return self.get(tool_id).latency_prior.sample(u)


# --- catalog files -----------------------------------------------------------


def spec_from_json(obj: dict) -> ToolSpec:
    for key in ("input_modalities", "output_tags", "preconditions"):
        if not isinstance(obj.get(key, []), list):
            raise InvalidSpec(f"{obj['name']}: {key} must be a list, not {obj[key]!r}")
    latency = obj.get("latency_ms", {})
    cost = obj.get("cost", {})
    return ToolSpec(
        name=obj["name"],
        category=ToolCategory(obj["category"]),
        input_modalities=frozenset(Modality(m) for m in obj.get("input_modalities", [])),
        output_tags=frozenset(obj.get("output_tags", [])),
        preconditions=tuple(obj.get("preconditions", [])),
        latency_prior=LatencyPrior(
            min_ms=int(latency["min"]),
            max_ms=int(latency["max"]),
            shape=latency.get("shape", "uniform"),
        ),
        cost=ToolCost(
            per_invocation=Money.from_usd(cost.get("per_invocation_usd", 0)),
            per_mtok=Money.from_usd(cost.get("per_mtok_usd", 0)),
        ),
        tier=CostKnob(obj.get("tier", "trad_couplet")),
    )


def spec_to_json(spec: ToolSpec) -> dict:
    return {
        "name": spec.name,
        "category": spec.category.value,
        "input_modalities": sorted(m.value for m in spec.input_modalities),
        "output_tags": sorted(spec.output_tags),
        "preconditions": list(spec.preconditions),
        "latency_ms": {
            "min": spec.latency_prior.min_ms,
            "max": spec.latency_prior.max_ms,
            "shape": spec.latency_prior.shape,
        },
        "cost": {
            "per_invocation_usd": str(spec.cost.per_invocation.usd()),
            "per_mtok_usd": str(spec.cost.per_mtok.usd()),
        },
        "tier": spec.tier.value,
    }


def load_catalog(path: str) -> ToolRegistry:
    """Build a registry from a JSON array of tool specifications."""
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    registry = ToolRegistry()
    for obj in entries:
        registry.register_tool(spec_from_json(obj))
    return registry


def default_registry() -> ToolRegistry:
    """Registry built from the bundled catalog (seven category families)."""
    return load_catalog(resources.files("supervisord.data").joinpath("tools.json"))
