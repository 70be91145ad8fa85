"""Cost-tier selection, strong/weak routing, and exact session cost accounting.

Text-only queries are scored by a fixed logistic function of transparent
query features (coefficients published in the docs); scores strictly above
the threshold route to the tier's strongest model, everything else to a
subflag-matched lightweight model. All money flows through integer
micro-dollars so session accounting is exact at 10^-6 USD. A session, and the
`Supervisor` that charges it, belong to one thread: `charge` takes no lock.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Optional, Sequence

from .errors import BudgetExceeded
from .state import CostKnob, Money, SessionMeta, Subflag, money_div_rounded

DEFAULT_WIN_THRESHOLD = 0.4

# Table-driven tier price bands (USD per 1M tokens) used to sanity-check
# catalogs; the default catalog prices sit at each band's midpoint.
TIER_PRICE_BANDS: dict[CostKnob, tuple[Money, Money]] = {
    CostKnob.TRAD_COUPLET: (Money.from_usd("0.15"), Money.from_usd("0.25")),
    CostKnob.OPEN_SRC: (Money.from_usd("0.30"), Money.from_usd("0.50")),
    CostKnob.CLOSED_SRC: (Money.from_usd("2.50"), Money.from_usd("5.00")),
}


def select_tier(requested: str) -> CostKnob:
    """Map a tier string to a CostKnob; anything unrecognized defaults to closed_src."""
    try:
        return CostKnob(requested)
    except ValueError:
        return CostKnob.CLOSED_SRC


@dataclass(frozen=True)
class ModelCatalogEntry:
    model_name: str
    tier: CostKnob
    subflag_affinity: Optional[Subflag]
    cost_per_mtok: Money
    per_request_fee: Money = Money(0)


class ModelCatalog:
    """Lookup of models by tier and subflag affinity."""

    def __init__(self, entries: Sequence[ModelCatalogEntry]):
        self.entries = list(entries)

    def weak_model(self, subflag: Subflag, tier: Optional[CostKnob] = None) -> ModelCatalogEntry:
        matches = [e for e in self.entries if e.subflag_affinity == subflag]
        if tier is not None:
            tiered = [e for e in matches if e.tier == tier]
            if tiered:
                matches = tiered
        if not matches:
            raise LookupError(f"catalog has no model with affinity {subflag.value}")
        return min(matches, key=lambda e: (e.cost_per_mtok.micros, e.model_name))

    def strongest(self, tier: CostKnob) -> ModelCatalogEntry:
        candidates = [e for e in self.entries if e.tier == tier and e.subflag_affinity is None]
        if not candidates:
            raise LookupError(f"catalog has no strong entry for tier {tier.value}")
        return max(candidates, key=lambda e: (e.cost_per_mtok.micros, e.model_name))

    def by_name(self, model_name: str) -> ModelCatalogEntry:
        for entry in self.entries:
            if entry.model_name == model_name:
                return entry
        raise LookupError(f"unknown model {model_name!r}")

    def check_tier_bands(self) -> None:
        for entry in self.entries:
            low, high = TIER_PRICE_BANDS[entry.tier]
            if not (low <= entry.cost_per_mtok <= high):
                raise ValueError(
                    f"{entry.model_name}: {entry.cost_per_mtok.usd_str()}/MTok outside "
                    f"the {entry.tier.value} band"
                )


@dataclass
class RoutingDecision:
    route: str  # "strong" | "weak"
    win_probability: float
    chosen_model: str
    subflag: Optional[Subflag] = None

    def __post_init__(self):
        if (self.route == "weak") != (self.subflag is not None):
            raise ValueError("subflag must be present exactly when route is weak")


# --- win prediction ----------------------------------------------------------

REASONING_VERBS = (
    "prove", "derive", "justify", "explain why", "analyze", "evaluate",
    "compare", "critique", "deduce", "reason", "argue", "trade-off",
    "step by step", "think through", "implications",
)

_MATH_CHARS = set("+-*/=^<>%∑∫√")
_ENUM_RE = re.compile(r"(\(\w\)|\b\d\))")


def route_features(query: str) -> tuple[float, float, float, float]:
    """Feature vector: token count, reasoning-verb count, sub-question count, math density."""
    q = query.lower()
    tokens = float(len(q.split()))
    reasoning = float(sum(1 for verb in REASONING_VERBS if verb in q))
    subquestions = float(q.count("?") + len(_ENUM_RE.findall(q)))
    math_density = sum(1 for ch in q if ch in _MATH_CHARS) / max(1, len(q))
    return (tokens, reasoning, subquestions, math_density)


# Logistic coefficients calibrated against the harness's standard text
# workload (96% weak fraction); see docs/routing-features.md.
WIN_BIAS = -4.0
WIN_COEFFICIENTS = (0.04, 1.6, 0.6, 6.0)


def logistic_win_scorer(features: Sequence[float]) -> float:
    z = WIN_BIAS + sum(c * f for c, f in zip(WIN_COEFFICIENTS, features))
    return 1.0 / (1.0 + math.exp(-z))


def route_strong_weak(
    query: str,
    *,
    catalog: Optional[ModelCatalog] = None,
    tier: CostKnob = CostKnob.CLOSED_SRC,
) -> RoutingDecision:
    """Strong/weak routing with subflag dispatch; strict inequality at the threshold."""
    catalog = catalog or default_model_catalog()
    probability = float(logistic_win_scorer(route_features(query)))
    if probability > DEFAULT_WIN_THRESHOLD:
        model = catalog.strongest(tier)
        return RoutingDecision(
            route="strong", win_probability=probability, chosen_model=model.model_name
        )
    subflag = classify_subflag(query)
    model = catalog.weak_model(subflag, tier)
    return RoutingDecision(
        route="weak",
        win_probability=probability,
        chosen_model=model.model_name,
        subflag=subflag,
    )


# --- subflag classification ---------------------------------------------------

SUBFLAG_KEYWORDS: dict[Subflag, tuple[str, ...]] = {
    Subflag.CODING: (
        "code", "bug", "debug", "segfault", "function", "compile", "script",
        "python", "regex", "stack trace", "parser", "implement", "refactor",
        "unit test", "api",
    ),
    Subflag.SUMMARIZATION_REWRITING: (
        "summarize", "summary", "rewrite", "paraphrase", "rephrase", "shorten",
        "condense", "formal", "tone", "proofread", "edit this",
    ),
    Subflag.ANALYTICAL_MATHS: (
        "calculate", "compute", "solve", "equation", "integral", "derivative",
        "probability", "statistics", "percent", "average", "sum of", "median",
    ),
    Subflag.GENERAL: (),
}

# General wins all ties; remaining ties resolve in this listed order.
_SUBFLAG_TIE_ORDER = (
    Subflag.GENERAL,
    Subflag.CODING,
    Subflag.SUMMARIZATION_REWRITING,
    Subflag.ANALYTICAL_MATHS,
)


def classify_subflag(query: str) -> Subflag:
    """Argmax over the four weak categories; ties go to general."""
    q = query.lower()
    scores = {
        sub: sum(1 for kw in kws if kw in q) for sub, kws in SUBFLAG_KEYWORDS.items()
    }
    return max(_SUBFLAG_TIE_ORDER, key=lambda s: (scores[s], -_SUBFLAG_TIE_ORDER.index(s)))


# --- cost accounting ----------------------------------------------------------


def token_cost(per_mtok: Money, tokens: int) -> Money:
    """Per-token pricing at a per-million-token rate, exact in micro-dollars."""
    if tokens < 0:
        raise ValueError("tokens must be nonnegative")
    return money_div_rounded(per_mtok.micros * tokens, 1_000_000)


def invocation_cost(model: ModelCatalogEntry, token_count: int) -> Money:
    """Per-token pricing plus the fixed per-request fee."""
    return token_cost(model.cost_per_mtok, token_count) + model.per_request_fee


def charge(
    session: SessionMeta, amount: Money, budget_cap: Optional[Money] = None
) -> SessionMeta:
    """Add `amount` to the session; freezes (raises) at the budget cap.

    A charge that would take the session total past the cap is not added.
    """
    new_total = session.cumulative_cost + amount
    if budget_cap is not None and new_total > budget_cap:
        raise BudgetExceeded(
            f"session {session.session_id}: {new_total.usd_str()} would exceed "
            f"budget cap {budget_cap.usd_str()}"
        )
    session.add_cost(amount)
    return session


# --- catalog files -------------------------------------------------------------


def entry_from_json(obj: dict) -> ModelCatalogEntry:
    affinity = obj.get("subflag_affinity")
    return ModelCatalogEntry(
        model_name=obj["model_name"],
        tier=CostKnob(obj["tier"]),
        subflag_affinity=Subflag(affinity) if affinity else None,
        cost_per_mtok=Money.from_usd(obj["cost_per_mtok_usd"]),
        per_request_fee=Money.from_usd(obj.get("per_request_fee_usd", 0)),
    )


def load_model_catalog(path: str) -> ModelCatalog:
    """Read a catalog file. A price outside its tier's band raises ValueError;
    a tier without a strong entry or a subflag without a model raises
    LookupError, since routing and the baselines look both up."""
    with open(path, "r", encoding="utf-8") as fh:
        catalog = ModelCatalog([entry_from_json(o) for o in json.load(fh)])
    catalog.check_tier_bands()
    for tier in CostKnob:
        catalog.strongest(tier)
    for subflag in Subflag:
        catalog.weak_model(subflag)
    return catalog


@cache
def default_model_catalog() -> ModelCatalog:
    return load_model_catalog(resources.files("supervisord.data").joinpath("models.json"))
