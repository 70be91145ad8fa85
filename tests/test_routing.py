"""Routing: tier selection, win-prediction thresholds, subflags, exact cost."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from supervisord import routing
from supervisord.errors import BudgetExceeded
from supervisord.routing import (
    ModelCatalogEntry,
    TIER_PRICE_BANDS,
    charge,
    classify_subflag,
    default_model_catalog,
    invocation_cost,
    logistic_win_scorer,
    route_features,
    route_strong_weak,
    select_tier,
)
from supervisord.state import CostKnob, Money, SessionMeta, Subflag


class TestSelectTier:
    def test_exact_members(self):
        assert select_tier("trad_couplet") is CostKnob.TRAD_COUPLET
        assert select_tier("open_src") is CostKnob.OPEN_SRC
        assert select_tier("closed_src") is CostKnob.CLOSED_SRC

    def test_empty_defaults_closed(self):
        assert select_tier("") is CostKnob.CLOSED_SRC

    def test_case_mismatch_defaults_closed(self):
        assert select_tier("OPEN_SRC") is CostKnob.CLOSED_SRC


def score_as(monkeypatch, probability):
    """Make the router's win scorer return `probability` for every query."""
    monkeypatch.setattr(routing, "logistic_win_scorer", lambda features: probability)


class TestRouteStrongWeak:
    def test_above_threshold_routes_strong(self, monkeypatch):
        score_as(monkeypatch, 0.45)
        decision = route_strong_weak("q")
        assert decision.route == "strong"
        assert decision.subflag is None
        assert decision.chosen_model == "gpt-4o"

    def test_exactly_threshold_routes_weak(self, monkeypatch):
        assert routing.DEFAULT_WIN_THRESHOLD == 0.40
        score_as(monkeypatch, 0.40)
        decision = route_strong_weak("q")
        assert decision.route == "weak"
        assert decision.subflag is Subflag.GENERAL

    def test_constant_zero_scorer_all_weak(self, monkeypatch):
        score_as(monkeypatch, 0.0)
        queries = ["a", "fix this bug", "prove this theorem", "summarize"]
        decisions = [route_strong_weak(q) for q in queries]
        assert all(d.route == "weak" for d in decisions)

    def test_weak_model_respects_tier(self):
        decision = route_strong_weak(
            "fix this segfault in my parser", tier=CostKnob.OPEN_SRC
        )
        assert decision.subflag is Subflag.CODING
        assert decision.chosen_model == "codellama-34b-instruct"

    def test_strong_model_is_tier_strongest(self, monkeypatch):
        score_as(monkeypatch, 0.9)
        decision = route_strong_weak("q", tier=CostKnob.OPEN_SRC)
        assert decision.chosen_model == "llama-3-70b-instruct"

    def test_decision_invariant(self):
        with pytest.raises(ValueError):
            from supervisord.routing import RoutingDecision

            RoutingDecision(route="strong", win_probability=0.9, chosen_model="x",
                            subflag=Subflag.GENERAL)


class TestSubflag:
    def test_coding(self):
        assert classify_subflag("fix this segfault in my parser") is Subflag.CODING

    def test_summarization(self):
        assert classify_subflag("rewrite this paragraph formally") is Subflag.SUMMARIZATION_REWRITING

    def test_general_catch_all(self):
        assert classify_subflag("what time is it in Tokyo") is Subflag.GENERAL

    def test_analytical(self):
        assert classify_subflag("calculate the average score") is Subflag.ANALYTICAL_MATHS


def entry(mtok="2.50", fee="0", tier=CostKnob.CLOSED_SRC):
    return ModelCatalogEntry(
        model_name="m", tier=tier, subflag_affinity=None,
        cost_per_mtok=Money.from_usd(mtok), per_request_fee=Money.from_usd(fee),
    )


class TestCostAccounting:
    def test_one_million_tokens_at_2_50(self):
        session = SessionMeta("0-" + "00" * 8, 0)
        charge(session, invocation_cost(entry("2.50"), 1_000_000))
        assert session.cumulative_cost == Money.from_usd("2.50")

    def test_zero_tokens_zero_fee(self):
        session = SessionMeta("0-" + "00" * 8, 0)
        charge(session, invocation_cost(entry("2.50"), 0))
        assert session.cumulative_cost == Money(0)

    def test_fractional_example_exact(self):
        # 400k tokens at $0.15/MTok plus a $0.001 fee is exactly $0.061.
        session = SessionMeta("0-" + "00" * 8, 0)
        charge(session, invocation_cost(entry("0.15", "0.001"), 400_000))
        assert session.cumulative_cost == Money.from_usd("0.061")
        assert session.cumulative_cost.usd_str() == "0.061000"

    def test_budget_cap_freezes_session(self):
        session = SessionMeta("0-" + "00" * 8, 0)
        cost, cap = invocation_cost(entry("2.50"), 1_000_000), Money.from_usd("3.00")
        charge(session, cost, cap)
        before = session.cumulative_cost
        with pytest.raises(BudgetExceeded):
            charge(session, cost, cap)
        assert session.cumulative_cost == before  # frozen, not corrupted

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8), st.randoms())
    def test_cost_additivity_under_permutation(self, token_counts, rng):
        model = entry("0.15", "0.001")
        a = SessionMeta("0-" + "00" * 8, 0)
        for count in token_counts:
            charge(a, invocation_cost(model, count))
        shuffled = list(token_counts)
        rng.shuffle(shuffled)
        b = SessionMeta("0-" + "00" * 8, 0)
        for count in shuffled:
            charge(b, invocation_cost(model, count))
        assert a.cumulative_cost == b.cumulative_cost

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            invocation_cost(entry(), -1)


class TestDefaultCatalog:
    def test_tier_bands_hold(self):
        default_model_catalog().check_tier_bands()

    def test_bands_match_published_pricing(self):
        assert TIER_PRICE_BANDS[CostKnob.TRAD_COUPLET] == (
            Money.from_usd("0.15"), Money.from_usd("0.25"))
        assert TIER_PRICE_BANDS[CostKnob.OPEN_SRC] == (
            Money.from_usd("0.30"), Money.from_usd("0.50"))
        assert TIER_PRICE_BANDS[CostKnob.CLOSED_SRC] == (
            Money.from_usd("2.50"), Money.from_usd("5.00"))

    def test_every_tier_has_strong_and_all_subflags(self):
        catalog = default_model_catalog()
        for tier in CostKnob:
            assert catalog.strongest(tier)
            for subflag in Subflag:
                assert catalog.weak_model(subflag, tier).tier is tier

    def test_named_examples_in_natural_cells(self):
        catalog = default_model_catalog()
        assert catalog.by_name("codellama-34b-instruct").subflag_affinity is Subflag.CODING
        assert catalog.by_name("llama-3-8b-instruct").subflag_affinity is Subflag.SUMMARIZATION_REWRITING
        assert catalog.by_name("mixtral-8x7b-instruct").subflag_affinity is Subflag.ANALYTICAL_MATHS
        assert catalog.by_name("phi-3.5-mini-instruct").subflag_affinity is Subflag.GENERAL
        assert catalog.strongest(CostKnob.CLOSED_SRC).model_name == "gpt-4o"


def test_win_scorer_features_shape():
    features = route_features("prove this theorem step by step? (a) then (b)")
    assert len(features) == 4
    probability = logistic_win_scorer(features)
    assert 0.0 <= probability <= 1.0
