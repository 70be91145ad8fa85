"""Policy simulation: centralized engine vs fixed-tree baseline vs monolithic.

Generates the calibrated synthetic workload, runs all three policies on the
virtual clock, prints the comparison table, and checks the ablation
directions (parallelism, memory, repair).
"""

from supervisord.engine import EngineConfig
from supervisord.harness import (
    compare,
    default_workload_spec,
    generate_workload,
    run_policy,
    throughput_from_report,
)

N = 400
spec = default_workload_spec(N, seed=2026)
queries = generate_workload(spec)
print(f"workload: {N} queries across 15 categories, "
      f"{sum(q.ground_truth.ambiguous for q in queries)} underspecified")

reports = {
    policy: run_policy(queries, policy, spec, seed=9)
    for policy in ("centralized", "hierarchical", "monolithic")
}
for report in reports.values():
    print()
    print(report.render_table())

delta = compare(reports["centralized"], reports["hierarchical"])
print("\ncentralized vs hierarchical:")
print(delta.render_table())
print(f"  64-session throughput: "
      f"{throughput_from_report(reports['centralized'], 64):.1f} vs "
      f"{throughput_from_report(reports['hierarchical'], 64):.1f} q/s")

print("\nablations (centralized engine with one mechanism removed):")
base_tta = reports["centralized"].aggregates["tta_mean_ms"]
base_rework = reports["centralized"].aggregates["rework_rate"]
for label, cfg in [
    ("parallel execution off", EngineConfig(parallel_enabled=False)),
    ("memory retrieval off", EngineConfig(memory_enabled=False)),
    ("local repair off", EngineConfig(repair_enabled=False)),
]:
    ablated = run_policy(queries, "centralized", spec, cfg, seed=9)
    tta = ablated.aggregates["tta_mean_ms"]
    rework = ablated.aggregates["rework_rate"]
    print(f"  {label:24} mean TTA {tta:7.0f} ms ({100 * (tta / base_tta - 1):+5.1f}%)  "
          f"user rework {rework:.3f} (base {base_rework:.3f})")
