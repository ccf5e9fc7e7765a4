#!/usr/bin/env python3
"""Alternating parent/change pairs of one repo-benchmark workload.

Usage:
    bench_pairs.py PARENT_SERVE CHANGE_SERVE --workload W --pairs N
                   [--seed S] [--trace 0|1] [--harness BIN]
                   [--parent-harness BIN] [--out DIR]

Builds nothing and touches nothing under ``benchmark/``: it runs the
already-built harness (default ``benchmark/target/release/
expfinder-benchmark``) with ``--serve-bin`` pointing at each of the two
``serve`` binaries in turn, alternating which side goes first, and reads
the JSON object the harness prints as its last stdout line. Run lengths,
op lists and host adjustment are the harness's own, identical on both
sides. Per-run files go under ``--out`` (default ``target/bench-pairs``,
already ignored); every run's metrics are appended to ``runs.jsonl``
there.

With ``--trace 1`` the direct-call layer metrics (``core.*_ms``,
``graph.*_ms`` ...) time the library code linked into the *harness*, not
``serve``: pass the parent checkout's own harness as ``--parent-harness``
or both sides report the change's library.

Per metric it prints both medians with their quartiles, the ratio
change / parent, the pairs the change won (ties count for neither), and
for the end-to-end metrics of ``BENCHMARK.json``:

* ``past bound`` — the change's median is worse than the parent's by
  more than the metric's regression bound;
* ``gate`` — change-side IQR / (0.25 x parent median), the driver's
  spread gate (it refuses a PR at 1.0). Cells over 0.6 are flagged: the
  driver's host is noisier than a quiet local run.

Exit status 1 when a run failed ops or answered wrong, a metric is past
its bound, or a gate cell reaches 1.0; 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GATE_SHARE = 0.25
GATE_FLAG = 0.6


def run_once(args, side, serve, index):
    out = args.out / f"{args.workload}-{index:02d}-{side}"
    harness = args.parent_harness if side == "parent" else args.harness
    cmd = [
        str(harness),
        "--serve-bin", str(serve),
        "--out", str(out),
        "--workload", args.workload,
        "--trace", str(args.trace),
    ]  # fmt: skip
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(
            f"{side} run {index}: no result line (exit {done.returncode})\n{done.stderr}"
        )
    doc.update(side=side, pair=index, workload=args.workload, seed=args.seed)
    with open(args.out / "runs.jsonl", "a") as log:
        log.write(json.dumps(doc) + "\n")
    return doc


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_serve", type=Path)
    ap.add_argument("change_serve", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--harness",
        type=Path,
        default=REPO / "benchmark/target/release/expfinder-benchmark",
    )
    ap.add_argument("--parent-harness", type=Path)
    ap.add_argument("--out", type=Path, default=REPO / "target/bench-pairs")
    args = ap.parse_args()
    args.parent_harness = args.parent_harness or args.harness
    for binary in (args.parent_serve, args.change_serve, args.harness, args.parent_harness):
        if not binary.is_file():
            sys.exit(f"{binary}: not built (this script builds nothing)")
    args.out.mkdir(parents=True, exist_ok=True)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lower_is_better = {
        m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]
    }

    serves = {
        "parent": args.parent_serve.resolve(),
        "change": args.change_serve.resolve(),
    }
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            doc = run_once(args, side, serves[side], i)
            runs[side].append(doc)
            print(
                f"pair {i + 1}/{args.pairs} {side}: correct={doc['correct']} "
                f"failed={doc['failed']}/{doc['attempted']}",
                file=sys.stderr,
            )

    bad_runs = [d for side in runs.values() for d in side if not d["correct"] or d["failed"]]
    names = [n for n in runs["parent"][0]["metrics"] if n in runs["change"][0]["metrics"]]
    print(
        f"\n{args.workload} · {args.pairs} pairs · "
        f"seed {'default' if args.seed is None else args.seed} · "
        f"trace {args.trace} · median [q1, q3]"
    )
    header = f"{'metric':<34} {'parent':>30} {'change':>30} {'ratio':>7} {'won':>6}  flags"
    print(header)
    print("-" * len(header))
    verdict_bad = bool(bad_runs)
    for name in names:
        p = [d["metrics"][name]["value"] for d in runs["parent"]]
        c = [d["metrics"][name]["value"] for d in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        lower = lower_is_better.get(name, True)
        won = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        lost = sum((y > x) if lower else (y < x) for x, y in zip(p, c))
        ratio = cm / pm if pm else float("nan")
        flags = []
        if name in e2e:
            worse_by = (ratio - 1) if lower else (1 - ratio)
            if worse_by > e2e[name]["bound"]:
                flags.append(f"PAST BOUND {e2e[name]['bound']:.0%}")
                verdict_bad = True
            gate = (c3 - c1) / (GATE_SHARE * pm) if pm else 0.0
            mark = "" if gate <= GATE_FLAG else " !" if gate < 1 else " REFUSED"
            flags.append(f"gate {gate:.2f}{mark}")
            verdict_bad |= gate >= 1
        parent = f"{pm:.4g} [{p1:.4g}, {p3:.4g}]"
        change = f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
        print(
            f"{name:<34} {parent:>30} {change:>30} "
            f"{ratio:>7.3f} {won:>2}/{won + lost:<3}  {' · '.join(flags)}"
        )
    for d in bad_runs:
        print(
            f"BAD RUN: {d['side']} pair {d['pair'] + 1}: "
            f"correct={d['correct']} failed={d['failed']}"
        )
    return 1 if verdict_bad else 0


if __name__ == "__main__":
    sys.exit(main())
