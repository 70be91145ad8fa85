"""Benchmark entry point for supervisord.

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 30 --trace 0

Runs one workload from the checkout's own `src` tree, checks its outputs,
prints a table of metrics with units, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they
are the per-layer ones, from rounds traced by `tracing.Tracer`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sim-mix", "sim-faults", "session-long")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- end-to-end run -------------------------------------------------------------------


def measure_setup_s(workload: str, seed: int, workdir: str) -> list[float]:
    """Wall time from starting a fresh interpreter until its first query is ready."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
        env = dict(os.environ, PERFBENCH_WORKDIR=os.path.join(workdir, f"probe-{i}"))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with code {proc.returncode}")
        times.append(elapsed)
    return times


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_end_to_end(wl, seconds: float) -> dict:
    """Repeat the round until `seconds` have passed and keep the best figures.

    Every round does the same operations in the same order, and load from
    outside the process can only slow an operation down. So throughput is
    that of the fastest round, and each operation's latency is its minimum
    over the rounds (the minimum of repeated timings, as `timeit` reports
    it); p50 and p95 are taken over those per-operation minima. Rounds are
    folded in as they finish, so memory does not grow with their number.
    """
    reference = wl.run_round()  # warm-up; every timed round must repeat its fingerprints
    per_round = {"ops_per_s": [], "central_qps": [], "hier_qps": [], "simulate_s": []}
    best_ms: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < seconds:
        r = wl.run_round()
        attempted += r.ops
        failed += r.failed
        same_ops = not best_ms or len(best_ms) == len(r.latencies_ms)
        if r.fingerprints != reference.fingerprints or not same_ops:
            failed += r.ops
        if not best_ms:
            best_ms = r.latencies_ms
        elif same_ops:
            best_ms = [min(a, b) for a, b in zip(best_ms, r.latencies_ms)]
        per_round["ops_per_s"].append(r.ops / r.work_s)
        per_round["central_qps"].append(r.central_ops / r.central_s)
        per_round["simulate_s"].append(r.work_s)
        if "hierarchical" in r.info.get("policy_s", {}):
            per_round["hier_qps"].append(r.info["queries"] / r.info["policy_s"]["hierarchical"])
    return {
        "attempted": attempted,
        "failed": failed,
        "fingerprints": reference.fingerprints,
        "per_round": per_round,
        "latency_samples": len(best_ms),
        "ops_per_s": max(per_round["ops_per_s"]),
        "central_qps": max(per_round["central_qps"]),
        "latency_p50_ms": statistics.median(best_ms),
        "latency_p95_ms": p95(best_ms),
    }


def workload_view(name: str, result: dict) -> list[tuple[str, float, str]]:
    """The workload's figures under the names the layer mapping in README.md uses."""
    per_round = result["per_round"]
    if name.startswith("sim"):
        view = [("central_qps", result["central_qps"], "1/s"),
                ("hier_qps", max(per_round["hier_qps"]), "1/s"),
                ("simulate_s", min(per_round["simulate_s"]), "s")]
    else:
        view = [("turn_p50_ms", result["latency_p50_ms"], "ms"),
                ("turn_p95_ms", result["latency_p95_ms"], "ms"),
                ("session_turns_per_s", result["ops_per_s"], "1/s")]
    view.append(("error_rate", result["failed"] / result["attempted"], "ratio"))
    return view


# --- traced run -----------------------------------------------------------------------

TIMED_LAYERS = (
    ("decomposition.classify.us", "decomposition.classify"),
    ("decomposition.detect_modality.us", "decomposition.detect_modality"),
    ("routing.route.us", "routing.route"),
    ("memory.embed.us", "memory.embed"),
    ("memory.retrieve.us", "memory.retrieve"),
    ("memory.add_turn.us", "memory.add_turn"),
    ("memory.compress.us", "memory.compress"),
    ("memory.save.us", "memory.save"),
    ("tools.match.us", "tools.match"),
    ("scheduler.build_graph.us", "scheduler.build_graph"),
    ("couplet.perceptual.us", "couplet.perceptual"),
    ("state.save.us", "state.save"),
    ("harness.generate.us", "harness.generate"),
    ("harness.hierarchical.us", "harness.hierarchical"),
    ("harness.monolithic.us", "harness.monolithic"),
    ("harness.report.us", "harness.report"),
)
SELF_LAYERS = (
    ("engine.process.self_us", "engine.process"),
    ("scheduler.execute.self_us", "scheduler.execute"),
)
CALL_COUNTS = (
    ("engine.process.calls", "engine.process"),
    ("routing.route.calls", "routing.route"),
    ("memory.embed.calls", "memory.embed"),
    ("memory.retrieve.calls", "memory.retrieve"),
    ("tools.match.calls", "tools.match"),
    ("tools.sample_latency.calls", "tools.sample_latency"),
    ("couplet.perceptual.calls", "couplet.perceptual"),
)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(wl, seconds: float) -> dict:
    from tracing import Tracer

    oracle_every = 10 if wl.name == "session-long" else 0
    reference = wl.run_round()  # warm-up
    failed, attempted, overheads, tracers, traced_walls = 0, 0, [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        plain = wl.run_round()
        tracer = Tracer(oracle_every=oracle_every)
        tracer.install()
        try:
            traced = wl.run_round(tracer)
        finally:
            tracer.restore()
        tracers.append(tracer)
        traced_walls.append(traced.wall_s)
        overheads.append(traced.wall_s / plain.wall_s - 1.0)
        attempted += plain.ops + traced.ops
        failed += plain.failed + traced.failed + tracer.oracle_failures
        # Tracing must not change what the program computes.
        for result in (plain, traced):
            if result.fingerprints != reference.fingerprints:
                failed += result.ops
    n = len(tracers)
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    self_sum_ns = 0
    for tracer in tracers:
        for name, t in tracer.layer_totals().items():
            acc = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += t[key]
            self_sum_ns += t["self_ns"]
        for key, value in tracer.counters.items():
            counters[key] = max(counters.get(key, 0), value) if key.endswith("_max") \
                else counters.get(key, 0) + value
    self_share = self_sum_ns / 1e9 / sum(traced_walls)
    if self_share > 1.0:
        failed += 1  # self times must partition at most the traced wall time

    def t(name):
        return totals.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    metrics = {}
    for metric, name in TIMED_LAYERS:
        metrics[metric] = (ratio(t(name)["ns"], t(name)["calls"]) / 1000.0, "us")
    for metric, name in SELF_LAYERS:
        metrics[metric] = (ratio(t(name)["self_ns"], t(name)["calls"]) / 1000.0, "us")
    for metric, name in CALL_COUNTS:
        metrics[metric] = (t(name)["calls"] / n, "count")
    launched = counters.get("scheduler.rows.start", 0)
    metrics.update({
        "engine.restarts": (counters.get("engine.restarts", 0) / n, "count"),
        "engine.clarifications": (counters.get("engine.clarifications", 0) / n, "count"),
        "session.typed_errors": (reference.info.get("typed_errors", 0), "count"),
        "memory.embed.gram_reuse": (
            ratio(counters.get("memory.embed.grams_reused", 0), counters.get("memory.embed.grams", 0)),
            "ratio"),
        "memory.retrieve.pool_mean": (
            ratio(counters.get("memory.retrieve.pool_total", 0), t("memory.retrieve")["calls"]),
            "count"),
        "memory.retrieve.pool_max": (counters.get("memory.retrieve.pool_max", 0), "count"),
        "memory.compressions": (counters.get("memory.compressions", 0) / n, "count"),
        "memory.save.bytes": (
            ratio(counters.get("memory.save.bytes", 0), t("memory.save")["calls"]), "bytes"),
        "state.save.bytes": (
            ratio(counters.get("state.save.bytes", 0), t("state.save")["calls"]), "bytes"),
        "tools.match.repeat_share": (
            ratio(counters.get("tools.match.repeats", 0), t("tools.match")["calls"]), "ratio"),
        "scheduler.launches": (launched / n, "count"),
        "scheduler.repairs": (counters.get("scheduler.rows.repaired", 0) / n, "count"),
        "scheduler.useful_ratio": (ratio(counters.get("scheduler.rows.done", 0), launched), "ratio"),
        "trace.overhead": (statistics.median(overheads), "ratio"),
        "trace.self_share": (self_share, "ratio"),
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "fingerprints": reference.fingerprints,
        "metrics": metrics,
        "traced_rounds": n,
        "oracle_checks": counters.get("memory.retrieve.oracle_checks", 0),
    }


# --- main -----------------------------------------------------------------------------


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "supervisord" / "__init__.py").is_file():
        print(f"error: no supervisord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    if args.setup_probe:
        workloads.make(args.workload, args.seed, os.environ["PERFBENCH_WORKDIR"]).prepare()
        print("ready", flush=True)
        shutil.rmtree(os.environ["PERFBENCH_WORKDIR"], ignore_errors=True)
        return 0

    workdir = str(ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            wl = workloads.make(args.workload, args.seed, workdir)
            wl.prepare()
            result = run_traced(wl, args.seconds)
            metrics = result["metrics"]
            extra = {"traced_rounds": result["traced_rounds"],
                     "oracle_checks": result["oracle_checks"]}
        else:
            setup_times = measure_setup_s(args.workload, args.seed, workdir)
            wl = workloads.make(args.workload, args.seed, workdir)
            wl.prepare()
            result = run_end_to_end(wl, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "ops_per_s": (result["ops_per_s"], "1/s"),
                "central_qps": (result["central_qps"], "1/s"),
                "latency_p50_ms": (result["latency_p50_ms"], "ms"),
                "latency_p95_ms": (result["latency_p95_ms"], "ms"),
            }
            extra = {"rounds": len(result["per_round"]["ops_per_s"]),
                     "per_round": {k: [round(x, 4) for x in v]
                                   for k, v in result["per_round"].items() if v},
                     "latency_samples": result["latency_samples"],
                     "setup_samples_s": [round(x, 4) for x in setup_times]}
            print(f"workload view ({args.workload}):")
            for name, value, unit in workload_view(args.workload, result):
                print(f"  {name:<28} {value:>14.4f} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"metrics ({args.workload}, seed {args.seed}, trace {args.trace}):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(), **extra,
            "fingerprints": result["fingerprints"]}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
