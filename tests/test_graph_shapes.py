"""Golden graph shapes: every `build_graph` branch over the bundled registry.

Each case pins the nodes in insertion order (the scheduler's ready heap breaks
ties by it), with role, answer segment, matched tool, model name, task kind
and requirement (input modalities, output tags, tier), plus the edges in the
order they were added. `docs/policies.md` shows the same shapes as a table.
"""

from __future__ import annotations

import pytest

from supervisord.errors import UnplannableQuery
from supervisord.routing import RoutingDecision
from supervisord.scheduler import build_graph
from supervisord.state import (
    Attachment,
    CostKnob,
    ExecutionFlag,
    Modality,
    QueryState,
    SessionMeta,
    Subflag,
)
from supervisord.tools import (
    LatencyPrior,
    Requirement,
    ToolCategory,
    ToolRegistry,
    ToolSpec,
    default_registry,
)


def make_state(query, attachments=()):
    return QueryState(
        user_query=query,
        cost_knob=CostKnob.TRAD_COUPLET,
        session=SessionMeta("0-" + "11" * 8, 0),
        attachments=[
            Attachment("path", name, declared_name=name, detected_modality=modality)
            for name, modality in attachments
        ],
    )


A, I, D, V = Modality.AUDIO, Modality.IMAGE, Modality.DOCUMENT, Modality.VIDEO
TEXT = ("text",)
SYNTH = ("synth", "synthesize", "synthesis", "llm-strong-invoke", None, None, (), ("synthesis",), None)
DECOMPOSE = ("decompose", "decompose", None, "complexity-analyze", None, None, TEXT,
             ("complexity_score",), None)
ROUTE = ("route", "route", None, "complexity-analyze", None, None, TEXT, ("complexity_score",), None)
FAN_IN = [("p0", "synth"), ("p1", "synth")]


def text_node(node_id, segment):
    return (node_id, "model", segment, "slm-couplet-invoke", None, None, TEXT, ("answer_text",), None)


def invoke(tool, model, tier):
    return ("invoke", "model", "answer", tool, model, None, TEXT, ("answer_text",), tier)


def complex_edges(n):
    return [e for i in range(n) for e in (("decompose", f"branch{i}"), (f"branch{i}", "synth"))]


# name -> (flag, query, attachments, routing decision, nodes, edges); a node is
# (id, role, segment, tool, model_name, task kind, inputs, output tags, tier).
CASES = {
    "audio": (
        ExecutionFlag.AUDIO, "transcribe this recording", [("a.mp3", A)], None,
        [("p0", "perceptual", "transcript", "whisper-transcribe", None, "transcribe",
          ("audio",), ("transcript",), None)],
        [],
    ),
    "vision-two-images": (
        ExecutionFlag.VISION, "detect the objects in these photos", [("a.png", I), ("b.png", I)],
        None,
        [SYNTH,
         ("p0", "perceptual", "detections_0", "yolo-detect", None, "detect_objects",
          ("image",), ("detections",), None),
         ("p1", "perceptual", "detections_1", "yolo-detect", None, "detect_objects",
          ("image",), ("detections",), None)],
        FAN_IN,
    ),
    "document-scanned-and-native": (
        ExecutionFlag.DOCUMENT, "summarize these documents",
        [("scan_receipt.pdf", D), ("report.pdf", D)], None,
        [SYNTH,
         ("p0", "perceptual", "extraction_0", "tesseract-ocr", None, "ocr",
          ("document",), ("ocr",), None),
         ("p1", "perceptual", "extraction_1", "pdf-parse", None, "parse_pdf",
          ("document",), ("parse",), None)],
        FAN_IN,
    ),
    "imagen": (
        ExecutionFlag.IMAGEN, "generate an image in this style", [("style.png", I)], None,
        [("p0", "perceptual", "image", "image-generate", None, "generate_image",
          ("image",), ("image_ref",), None)],
        [],
    ),
    "video": (
        ExecutionFlag.VIDEO, "what products are shown in this ad", [("ad.mp4", V)], None,
        [("frames", "perceptual", "detections", "yolo-detect", None, "detect_objects",
          ("video",), ("detections",), None),
         ("speech", "perceptual", "transcript", "whisper-transcribe", None, "transcribe",
          ("video",), ("transcript",), None),
         ("align", "align", "timeline", "temporal-align", None, None, (), ("timeline",), None)],
        [("frames", "align"), ("speech", "align")],
    ),
    "routellm-strong": (
        ExecutionFlag.ROUTELLM, "prove the theorem", [],
        RoutingDecision("strong", 0.9, "gemini-1.5-pro"),
        [ROUTE, invoke("llm-strong-invoke", "gemini-1.5-pro", CostKnob.CLOSED_SRC)],
        [("route", "invoke")],
    ),
    "routellm-weak": (
        ExecutionFlag.ROUTELLM, "hello", [],
        RoutingDecision("weak", 0.1, "phi-3.5-mini-instruct", Subflag.GENERAL),
        [ROUTE, invoke("slm-weak-invoke", "phi-3.5-mini-instruct", CostKnob.OPEN_SRC)],
        [("route", "invoke")],
    ),
    "routellm-couplet": (
        ExecutionFlag.ROUTELLM, "hello", [],
        RoutingDecision("weak", 0.1, "couplet-slm-general", Subflag.GENERAL),
        [ROUTE, invoke("slm-couplet-invoke", "couplet-slm-general", CostKnob.TRAD_COUPLET)],
        [("route", "invoke")],
    ),
    "moe": (
        ExecutionFlag.MOE, "gather expert perspectives", [], None,
        [("aggregate", "aggregate", "answer", "ensemble-aggregate", None, None, (),
          ("aggregation",), None)]
        + [text_node(f"expert{i}", f"expert_{i}") for i in range(3)],
        [(f"expert{i}", "aggregate") for i in range(3)],
    ),
    "complex-no-attachment": (
        ExecutionFlag.COMPLEX, "plan the trip and book hotels and compare fares", [], None,
        [DECOMPOSE, SYNTH] + [text_node(f"branch{i}", f"part_{i}") for i in range(3)],
        complex_edges(3),
    ),
    "complex-one-attachment": (
        ExecutionFlag.COMPLEX, "summarize this report and draft a reply", [("r.pdf", D)], None,
        [DECOMPOSE, SYNTH,
         ("branch0", "perceptual", "part_0", "pdf-parse", None, "parse_pdf",
          ("document",), ("parse",), None),
         text_node("branch1", "part_1")],
        complex_edges(2),
    ),
    "complex-three-attachments": (
        ExecutionFlag.COMPLEX, "compare these recordings and photos",
        [("a.mp3", A), ("b.png", I), ("c.pdf", D)], None,
        [DECOMPOSE, SYNTH,
         ("branch0", "perceptual", "part_0", "whisper-transcribe", None, "transcribe",
          ("audio",), ("transcript",), None),
         ("branch1", "perceptual", "part_1", "yolo-detect", None, "detect_objects",
          ("image",), ("detections",), None),
         ("branch2", "perceptual", "part_2", "pdf-parse", None, "parse_pdf",
          ("document",), ("parse",), None)],
        complex_edges(3),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_graph_shape(name):
    flag, query, attachments, decision, nodes, edges = CASES[name]
    registry = default_registry()
    state = make_state(query, attachments)
    graph = build_graph(flag, state, registry, routing_decision=decision)
    shape = [
        (
            n.node_id, n.role, n.segment, registry.get(n.tool).name, n.model_name,
            n.task.kind.value if n.task else None,
            tuple(sorted(m.value for m in n.requirement.input_modalities)),
            tuple(sorted(n.requirement.output_tags)),
            n.requirement.tier,
        )
        for n in graph.nodes.values()
    ]
    assert shape == nodes
    assert {n: graph.parents(n) for n in graph.nodes} == {
        n: [p for p, c in edges if c == n] for n in graph.nodes
    }
    assert all(n.requirement.state is state for n in graph.nodes.values())
    assert not graph.results and all(not n.failed_tools for n in graph.nodes.values())


def test_no_capable_tool_carries_requirement():
    registry = ToolRegistry()
    registry.register_tool(
        ToolSpec(
            name="text-only",
            category=ToolCategory.SEMANTIC_ANALYZER,
            input_modalities=frozenset({Modality.TEXT}),
            output_tags=frozenset({"answer_text"}),
            latency_prior=LatencyPrior(10, 10),
        )
    )
    state = make_state("gather expert perspectives")
    with pytest.raises(UnplannableQuery) as info:
        build_graph(ExecutionFlag.MOE, state, registry)
    assert info.value.requirement == Requirement(
        output_tags=frozenset({"aggregation"}), state=state
    )
