"""Run alternating pairs of the benchmark for two git revisions and judge them.

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 30 \
        --seed 1 --workloads sim-mix,sim-faults,session-long --out BENCH_<n>.json

Each revision is exported with `git archive` into a temporary directory, so
the checkout is left as it is. Pair i runs `perfbench/run.py --trace 0` once
on each revision, the parent first on even pairs and the change first on odd
ones. For every workload and end-to-end metric of BENCHMARK.json it prints
the medians, quartiles and wins of each side, the claim verdict (the change
wins at least nine tenths of the pairs, ties counting for neither, and its
median beats the parent's by more than the parent's interquartile range) and
the bound check, and the failed-share check (the change has no larger share of
failed operations, and no more runs that exited nonzero, than the parent). It writes everything to the
`--out` JSON file, after each workload, under the key "<workload> seed
<seed>"; entries already in that file for other keys are kept, so runs on a
second seed can be added to the same file. A run that exits nonzero is
recorded under "failures" with its side, pair, exit code and the end of its
stderr; its pair is left out of the verdicts and the other pairs go on.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL_LINES = 20  # of a failing run, kept in the report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric from paired runs: `parent[i]` and `change[i]` form pair i.

    `claim` holds when the change wins at least 9/10 of the pairs and the
    medians differ, in its favour, by more than the parent's IQR. `bound` is
    "worse" when the change's median is worse than the parent's by more than
    `bound` (a fraction of the parent's median), "unresolved" when the
    parent's IQR alone is wider than that bound and not every change run
    beats every parent run, and "ok" otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    claim = wins >= math.ceil(0.9 * len(parent)) and gain > iqr
    limit = bound * abs(p_med)
    if -gain > limit:
        bound_verdict = "worse"
    elif iqr > limit and not min(sign * c for c in change) > max(sign * p for p in parent):
        bound_verdict = "unresolved"
    else:
        bound_verdict = "ok"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "change_wins": wins, "pairs": len(parent),
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "claim": claim, "bound": bound_verdict,
    }


def failed_verdict(runs: dict[str, list[dict | None]]) -> dict:
    """Each side's share of failed operations over its finished runs, and its
    count of runs that exited nonzero (`None` entries). The verdict is "worse"
    when the change has a larger share or more such runs than the parent."""
    share = {side: sum(r["failed"] for r in rs if r) / max(1, sum(r["attempted"] for r in rs if r))
             for side, rs in runs.items()}
    crashed = {side: rs.count(None) for side, rs in runs.items()}
    worse = share["change"] > share["parent"] or crashed["change"] > crashed["parent"]
    return share | {"crashed": crashed, "verdict": "worse" if worse else "ok"}


class RunFailed(Exception):
    """One benchmark run exited nonzero."""

    def __init__(self, returncode: int, stderr_tail: list[str]):
        super().__init__(f"exit {returncode}")
        self.returncode = returncode
        self.stderr_tail = stderr_tail


def export(rev: str, dest: Path) -> Path:
    """Write the tree of `rev` to `dest` with `git archive`; no worktree is made."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RunFailed(proc.returncode, proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="sim-mix,sim-faults,session-long")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    report.update(parent=args.parent, change=args.change)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(rev, Path(tmp) / side)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        for workload in args.workloads.split(","):
            runs = {"parent": [], "change": []}
            failures = []
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    try:
                        runs[side].append(run_once(trees[side], workload, args.seed, args.seconds))
                    except RunFailed as exc:
                        runs[side].append(None)
                        failures.append({"side": side, "pair": i + 1, "returncode": exc.returncode,
                                         "stderr_tail": exc.stderr_tail})
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{runs[side][-1]['metrics'] if runs[side][-1] else failures[-1]}",
                          file=sys.stderr, flush=True)
            # A pair counts only when both of its runs finished.
            paired = {side: [r for i, r in enumerate(rs)
                             if runs["parent"][i] and runs["change"][i]]
                      for side, rs in runs.items()}
            entry = {"runs": runs, "failures": failures, "metrics": {}, "seed": args.seed,
                     "seconds": args.seconds,
                     "correct": all(r["correct"] for rs in paired.values() for r in rs),
                     "failed_share": failed_verdict(runs)}
            print(f"\n{workload} (seed {args.seed}, {len(paired['parent'])} of {args.pairs} "
                  f"pairs of {args.seconds:g} s complete)")
            share = entry["failed_share"]
            print(f"  failed share     parent {share['parent']:.6f}  change {share['change']:.6f}"
                  f"  runs exited nonzero {share['crashed']['parent']} and "
                  f"{share['crashed']['change']}  {share['verdict']}")
            for metric in spec["end_to_end"] if paired["parent"] else ():
                name = metric["name"]
                v = verdict([r["metrics"][name] for r in paired["parent"]],
                            [r["metrics"][name] for r in paired["change"]],
                            metric["better"], metric["bound"])
                entry["metrics"][name] = v
                p, c = v["parent"], v["change"]
                print(f"  {name:<16} parent {p['median']:10.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                      f"  change {c['median']:10.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
                      f"  wins {v['change_wins']}/{v['pairs']}"
                      f"  claim {'met' if v['claim'] else 'not met'}  bound {v['bound']}")
            report["workloads"][f"{workload} seed {args.seed}"] = entry
            out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
