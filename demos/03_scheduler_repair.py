"""Execution graphs: parallel branches, the critical path, and local repair.

Runs the same video-analysis graph twice: once clean, once with the object
detector failing so the scheduler swaps in the fallback vision tool without
re-running the finished transcription branch.
"""

from supervisord.clock import VirtualClock
from supervisord.couplet import SimulatedBackend
from supervisord.engine import EngineBackends, EngineConfig
from supervisord.scheduler import Scheduler, build_graph
from supervisord.state import Attachment, CostKnob, ExecutionFlag, QueryState, SessionMeta

fixtures = {
    "launch.mp4": {
        "frames": 12,
        "detections": [
            {"label": "laptop", "box": [10, 10, 200, 160], "t_start": 3, "t_end": 9, "conf": 0.92}
        ],
        "transcript": [
            {"word": w, "t": 4.0 + 0.5 * i, "conf": 0.96}
            for i, w in enumerate("the new laptop boots in nine seconds".split())
        ],
    }
}


def run(failure_rates):
    config = EngineConfig(seed=4)
    state = QueryState(
        user_query="What products are shown in this advertisement video",
        cost_knob=CostKnob.TRAD_COUPLET,
        session=SessionMeta("demo-video", 0),
        attachments=[Attachment("path", "launch.mp4", declared_name="launch.mp4")],
    )
    state.flag = ExecutionFlag.VIDEO
    for att in state.attachments:
        from supervisord.decomposition import detect_modality

        att.detected_modality = detect_modality(att)
    graph = build_graph(ExecutionFlag.VIDEO, state, config.registry)
    backends = EngineBackends(
        graph, state, config, SimulatedBackend(fixtures),
        context_tokens=0,  # the state holds no memory context
        failure_rates=failure_rates, query_id="demo",
    )
    scheduler = Scheduler(config.registry)
    outcome = scheduler.execute(graph, VirtualClock(), backends, seed=4)
    critical = sorted(n for n, r in graph.results.items() if r.critical)
    print(f"total latency: {outcome.total_latency_ms} ms (critical path through {critical})")
    for row in outcome.trace:
        # an attempt's row is its span: it began at ts - latency_ms
        if row.latency_ms is None:
            span, lat = f"{row.ts:>6}{'':8}", ""
        else:
            span, lat = f"{row.ts - row.latency_ms:>6}..{row.ts:<6}", f" {row.latency_ms}ms"
        print(f"  t={span} {row.event:<9} {row.node_id:<7} {row.tool}{lat}")
    if graph.repair_log:
        event = graph.repair_log[0]
        replacement = event.replacement_tool.value.split(":", 1)[1]
        print(f"repair: {event.failed_node} ({event.cause}) -> "
              f"{replacement}, {event.preserved_nodes} done node(s) preserved")
    return outcome


print("=== clean run: frame analysis and transcription overlap ===")
clean = run(failure_rates=None)

print("\n=== detector fails: local repair, no restart of the speech branch ===")
repaired = run(failure_rates={"yolo-detect": 1.0})

print(f"\nlatency cost of the repair: "
      f"{repaired.total_latency_ms - clean.total_latency_ms} ms on the failed branch only")
