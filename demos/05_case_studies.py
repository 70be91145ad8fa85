"""The three bundled scenarios, end to end.

Each exercises a distinct capability: parallel document fan-out with
synthesis, dual-branch video analysis with temporal alignment, and failure
repair followed by a clarification turn on handwritten input.
"""

from supervisord.scenarios import load_scenario, run_scenario

for name in ("financial-analysis", "video-advertisement", "handwritten-notes"):
    scenario = load_scenario(name)
    outcome = run_scenario(scenario)
    print(f"\n=== {name} ===")
    print(f"query: {scenario.query[:80]}")
    print(f"flag={outcome.flag.value}  tta={outcome.tta_ms} ms  "
          f"repairs={outcome.repair_count}  clarifications={outcome.clarifications_user}")
    for row in outcome.trace_rows:
        marker = {"failed": "!", "repaired": "~", "clarify": "?"}.get(row.event, " ")
        # an attempt's row is its span: it began at ts - latency_ms
        span = (f"{row.ts:>6}{'':8}" if row.latency_ms is None
                else f"{row.ts - row.latency_ms:>6}..{row.ts:<6}")
        print(f"  {marker} t={span} {row.event:<9} {row.node_id:<9} {row.tool}")
    for segment, text in outcome.segments.items():
        print(f"  [{segment}] {text[:84]}")
