"""Tool registry: registration, capability matching, latency priors."""

from __future__ import annotations

import pytest

from supervisord.couplet import keyed_uniform
from supervisord.errors import DuplicateTool, InvalidSpec, NoCapableTool, UnknownTool
from supervisord.state import (
    Attachment,
    CostKnob,
    Modality,
    Money,
    QueryState,
    SessionMeta,
)
from supervisord.tools import (
    LatencyPrior,
    Requirement,
    ToolCost,
    ToolRegistry,
    ToolSpec,
    ToolCategory,
    default_registry,
)


def spec(name, category=ToolCategory.IMAGE, inputs=(Modality.IMAGE,), outputs=("detections",),
         latency=(800, 2100), cost="0.004", tier=CostKnob.TRAD_COUPLET, preconditions=()):
    return ToolSpec(
        name=name,
        category=category,
        input_modalities=frozenset(inputs),
        output_tags=frozenset(outputs),
        preconditions=tuple(preconditions),
        latency_prior=LatencyPrior(*latency),
        cost=ToolCost(per_invocation=Money.from_usd(cost)),
        tier=tier,
    )


class TestRegistration:
    def test_register_yolo_detect(self):
        registry = ToolRegistry()
        tool_id = registry.register_tool(spec("yolo-detect", latency=(800, 2100)))
        assert registry.get(tool_id).name == "yolo-detect"
        assert registry.match_tools(Requirement(output_tags=frozenset({"detections"})))

    def test_duplicate_name_rejected(self):
        registry = ToolRegistry()
        first = registry.register_tool(spec("yolo-detect"))
        with pytest.raises(DuplicateTool):
            registry.register_tool(spec("yolo-detect"))
        assert registry.id_for_name("yolo-detect") == first

    def test_inverted_latency_rejected(self):
        registry = ToolRegistry()
        with pytest.raises(InvalidSpec):
            registry.register_tool(spec("bad", latency=(150, 50)))

    def test_unknown_predicate_rejected(self):
        registry = ToolRegistry()
        with pytest.raises(InvalidSpec):
            registry.register_tool(spec("weird", preconditions=("sentient()",)))

    @pytest.mark.parametrize("predicate", [
        "has_attachment(foo)", "has_attachment", "always(text)", "has_context",
    ])
    def test_malformed_predicate_rejected(self, predicate):
        registry = ToolRegistry()
        with pytest.raises(InvalidSpec):
            registry.register_tool(spec("weird", preconditions=(predicate,)))
        assert len(registry) == 0

    def test_unknown_tool_lookup(self):
        registry = ToolRegistry()
        tool_id = registry.register_tool(spec("a"))
        registry2 = ToolRegistry()
        with pytest.raises(UnknownTool):
            registry2.get(tool_id)
        assert registry.id_for_name("a") == tool_id
        with pytest.raises(UnknownTool):
            registry2.id_for_name("a")


class TestMatching:
    def test_category_filter_by_modality(self):
        registry = default_registry()
        matched = registry.match_tools(
            Requirement(
                input_modalities=frozenset({Modality.IMAGE}),
                output_tags=frozenset({"detections"}),
            )
        )
        names = [registry.get(t).name for t in matched]
        assert names and all(
            Modality.IMAGE in registry.get(t).input_modalities for t in matched
        )
        assert "whisper-transcribe" not in names

    def test_empty_requirement_returns_all_sorted(self):
        registry = ToolRegistry()
        registry.register_tool(spec("b", latency=(100, 200)))
        registry.register_tool(spec("a", latency=(100, 100)))
        matched = registry.match_tools(Requirement())
        names = [registry.get(t).name for t in matched]
        assert names == ["a", "b"]

    def test_tie_breaks_lexicographically(self):
        registry = ToolRegistry()
        registry.register_tool(spec("zeta", latency=(100, 200), cost="0.001"))
        registry.register_tool(spec("alpha", latency=(100, 200), cost="0.001"))
        matched = registry.match_tools(Requirement())
        names = [registry.get(t).name for t in matched]
        assert names == ["alpha", "zeta"]

    def test_no_capable_tool_carries_requirement(self):
        registry = ToolRegistry()
        registry.register_tool(spec("img-only"))
        requirement = Requirement(output_tags=frozenset({"transcript"}))
        with pytest.raises(NoCapableTool) as exc:
            registry.match_tools(requirement)
        assert exc.value.requirement is requirement

    def test_ranking_monotonicity(self):
        registry = ToolRegistry()
        registry.register_tool(spec("slow", latency=(1000, 2000)))
        registry.register_tool(spec("fast", latency=(100, 200)))
        registry.register_tool(spec("mid", latency=(500, 600)))
        matched = registry.match_tools(Requirement())
        keys = [
            (registry.get(t).latency_prior.mean_ms(), registry.get(t).cost.expected_micros())
            for t in matched
        ]
        assert keys == sorted(keys)

    def test_precondition_filtering(self):
        registry = ToolRegistry()
        registry.register_tool(spec("needs-audio", preconditions=("has_attachment(audio)",)))
        state = QueryState(
            user_query="x",
            cost_knob=CostKnob.TRAD_COUPLET,
            session=SessionMeta("0-" + "00" * 8, 0),
            attachments=[Attachment("path", "a.png", detected_modality=Modality.IMAGE)],
        )
        with pytest.raises(NoCapableTool):
            registry.match_tools(Requirement(state=state))

    def test_tier_constraint(self):
        registry = default_registry()
        matched = registry.match_tools(
            Requirement(output_tags=frozenset({"answer_text"}), tier=CostKnob.CLOSED_SRC)
        )
        assert [registry.get(t).name for t in matched] == ["llm-strong-invoke"]


def query_state(attachments=()):
    return QueryState(
        user_query="x",
        cost_knob=CostKnob.TRAD_COUPLET,
        session=SessionMeta("0-" + "00" * 8, 0),
        attachments=[Attachment("path", f"f{i}", detected_modality=m)
                     for i, m in enumerate(attachments)],
    )


class TestMatchMemo:
    def test_faster_tool_registered_after_a_match_ranks_first(self):
        registry = ToolRegistry()
        registry.register_tool(spec("slow", latency=(1000, 2000)))
        requirement = Requirement(output_tags=frozenset({"detections"}))
        assert [registry.get(t).name for t in registry.match_tools(requirement)] == ["slow"]
        registry.register_tool(spec("fast", latency=(100, 200)))
        names = [registry.get(t).name for t in registry.match_tools(requirement)]
        assert names == ["fast", "slow"]

    def test_same_requirement_keys_follow_each_state(self):
        registry = ToolRegistry()
        registry.register_tool(spec("visual", latency=(100, 200),
                                    preconditions=("has_visual_attachment",)))
        registry.register_tool(spec("plain", latency=(500, 600)))
        registry.register_tool(spec("needs-audio", latency=(50, 60),
                                    preconditions=("has_attachment(audio)",)))
        tags = frozenset({"detections"})
        bare = Requirement(output_tags=tags, state=query_state())
        rich = Requirement(output_tags=tags, state=query_state(
            attachments=[Modality.AUDIO, Modality.IMAGE]))
        for _ in range(2):  # the second round is served from the memo
            assert [registry.get(t).name for t in registry.match_tools(bare)] == ["plain"]
            assert [registry.get(t).name for t in registry.match_tools(rich)] == [
                "needs-audio", "visual", "plain"]
            assert [registry.get(t).name for t in registry.match_tools(
                Requirement(output_tags=tags))] == ["needs-audio", "visual", "plain"]

    def test_exclude_is_honoured_on_every_call(self):
        registry = ToolRegistry()
        ids = {name: registry.register_tool(spec(name, latency=latency))
               for name, latency in (("a", (100, 100)), ("b", (200, 200)), ("c", (300, 300)))}
        requirement = Requirement()
        assert registry.match_tools(requirement) == [ids["a"], ids["b"], ids["c"]]
        assert registry.match_tools(requirement, exclude=[ids["a"]]) == [ids["b"], ids["c"]]
        assert registry.match_tools(requirement, exclude={ids["b"]}) == [ids["a"], ids["c"]]
        with pytest.raises(NoCapableTool):
            registry.match_tools(requirement, exclude=ids.values())
        assert registry.match_tools(requirement) == [ids["a"], ids["b"], ids["c"]]


# Uniforms at both ends of [0, 1) and on a grid between them.
_U_GRID = [0.0, *(i / 64 for i in range(1, 64)), 1.0 - 2.0**-53]


class TestLatencySampling:
    def test_memory_tool_band(self):
        registry = default_registry()
        memory_id = registry.id_for_name("memory-retrieve")
        draws = {registry.sample_latency(memory_id, keyed_uniform("band", i)) for i in range(500)}
        assert min(draws) >= 50 and max(draws) <= 150
        assert len(draws) > 50  # keyed draws spread over the band

    def test_point_mass_prior(self):
        registry = ToolRegistry()
        tool_id = registry.register_tool(spec("fixed", latency=(100, 100)))
        for u in _U_GRID:
            assert registry.sample_latency(tool_id, u) == 100
            assert LatencyPrior(100, 100, shape="triangular").sample(u) == 100

    def test_same_seed_same_sample(self):
        registry = default_registry()
        tool_id = registry.id_for_name("yolo-detect")
        assert registry.sample_latency(tool_id, keyed_uniform(99)) == registry.sample_latency(
            tool_id, keyed_uniform(99)
        )

    def test_samples_within_bounds_all_defaults(self):
        registry = default_registry()
        for tool_id in registry.all_ids():
            prior = registry.get(tool_id).latency_prior
            for u in _U_GRID:
                assert prior.min_ms <= registry.sample_latency(tool_id, u) <= prior.max_ms

    def test_triangular_within_bounds(self):
        prior = LatencyPrior(100, 300, shape="triangular")
        values = [prior.sample(u) for u in _U_GRID]
        assert values[0] == 100 and values[-1] == 300
        assert all(100 <= v <= 300 for v in values)

    @pytest.mark.parametrize("shape", ["uniform", "triangular"])
    def test_sample_rises_with_the_uniform(self, shape):
        prior = LatencyPrior(7, 19, shape=shape)
        values = [prior.sample(u) for u in _U_GRID]
        assert values == sorted(values)
        assert values[0] == 7 and values[-1] == 19

    def test_integer_draw_is_floor_of_scaled_uniform(self):
        prior = LatencyPrior(10, 13)  # four values, each a quarter of [0, 1)
        assert [prior.sample(u) for u in (0.0, 0.2499, 0.25, 0.5, 0.75, 1.0 - 2.0**-53)] == [
            10, 10, 11, 12, 13, 13,
        ]

    def test_triangular_mode_at_midpoint(self):
        prior = LatencyPrior(100, 300, shape="triangular")
        assert prior.sample(0.5) == 200
        assert prior.sample(0.125) == 150  # CDF at 150: 50**2 / (200 * 100)


class TestDefaultCatalog:
    def test_seven_categories_present(self):
        registry = default_registry()
        categories = {registry.get(t).category for t in registry.all_ids()}
        assert categories == set(ToolCategory)

    def test_table_latency_bands(self):
        registry = default_registry()
        bands = {
            ToolCategory.SEMANTIC_ANALYZER: (450, 1200),
            ToolCategory.IMAGE: (800, 2100),
            ToolCategory.AUDIO: (600, 1800),
            ToolCategory.DOCUMENT: (900, 2400),
            ToolCategory.MEMORY: (50, 150),
            ToolCategory.ORCHESTRATION: (1200, 3500),
            ToolCategory.COMPLEXITY_ANALYSIS: (200, 600),
        }
        for tool_id in registry.all_ids():
            tool = registry.get(tool_id)
            low, high = bands[tool.category]
            assert low <= tool.latency_prior.min_ms <= tool.latency_prior.max_ms <= high, tool.name

    def test_yolo_uses_full_image_band(self):
        registry = default_registry()
        prior = registry.get(registry.id_for_name("yolo-detect")).latency_prior
        assert (prior.min_ms, prior.max_ms) == (800, 2100)
