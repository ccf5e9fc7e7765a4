#!/usr/bin/env python3
"""Compare a fresh benchmark document against its checked-in baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
                     [--report FILE.md]

The two documents must come from the same benchmark (their ``bench``
fields must agree); workloads are aligned by ``name`` (plus ``pattern``
when present). Fields are classified by key, not by position; every
field of the counters document (``BENCH_counters.json``, written by the
``bench_match`` binary) has a class:

* **equal-required** (blocking on any difference) — deterministic
  outputs of a seeded workload: workload labels, graph sizes, update
  counts, match-pair counts, result-equality flags (among them the
  ``rank`` block's ``on_demand.identical``: the ranks a cold read
  computes from its candidates equal the full build's), and of
  ``gr_maintain``: the maintained ``G_r`` ``arcs``, the
  ``full_build_sources`` a build per batch would BFS, the
  ``full_rank_candidates`` a full re-rank per batch would compute, and
  the ``registered_build_visits`` of a ranked registered read (0: it
  builds nothing); and of the carried-index row of ``match_warm_index``:
  the ``rebuild_visits`` of sweeping every carried column again per
  batch, the ``columns`` carried at the end, the entries readers
  ``thresholded`` from them, and the swept entries the carry ``adopted``
  and the columns it let expire (``expired``); and of ``batch_reads``: the
  ``slots`` per batch. A mismatch means the benchmark is no longer
  measuring the same computation.
* **deterministic counters** (blocking beyond the threshold) —
  evaluation-work counters (``bfs_nodes_visited``, ``refreshes``,
  ``removals``, ``index_misses``, the result-graph build's
  ``build_visits``, the on-demand ranker's ``expand_visits`` (the rows
  a cold read expands), the ranking kernel's ``settled``, ``relaxed``,
  ``pushes`` (on the built graph and under ``on_demand``), the incremental maintainer's ``affected_nodes``,
  ``tentative_pairs``, ``repair_sources``, ``rerank_candidates``,
  ``search_visits`` (the nodes a batch end's search visits to find the
  candidates to re-rank) and ``walk_visits`` (the nodes its support walks
  return), and
  the carried reach-index columns' ``repair_visits``, and the
  ``class_builds`` of ``match_warm_index``'s paths — condition classes a
  path added to the graph's class memo, 0 on every warm path — and
  ``batch_reads``' ranked answers ``computed`` and the ``candidates``
  those rankings searched are worse when higher; ``index_hits``,
  ``refreshes_skipped``, each ``rank`` block's ``pruned`` — the
  candidates a top-k ranking gave up on once a lower bound showed they
  could not enter, on the built graph and under ``on_demand`` — and
  ``batch_reads``' answers ``reused`` from a version's ranked list are
  worse when lower). These are exact
  functions of the algorithm, so a >25% regression is a real algorithmic
  regression, not runner noise.
* **same-search rule** (blocking, within the fresh document alone) —
  each ``rank`` block's ``on_demand.settled`` must equal its ``settled``,
  ``on_demand.relaxed`` its ``relaxed`` and ``on_demand.pruned`` its
  ``pruned``: the cold read's rows and the built ``G_r`` hold one arc per
  ``(v, w)`` pair, so both rankers settle the same nodes, relax the same
  arcs and give up on the same candidates (only ``pushes`` may differ,
  as on-demand rows list their arcs in ball order).
* **advisory** (reported, never blocking) — wall-clock milliseconds and
  speedup ratios (honest but hostage to the runner), and the reach
  index's ``entries`` / ``bytes``.

Exit status 0 when no blocking finding, 1 otherwise. ``--report`` also
writes the full comparison as markdown (CI uploads it as an artifact).
"""

import argparse
import json
import sys
from pathlib import Path

EQUAL_KEYS = {
    "bench",
    "seed",
    "nodes",
    "edges",
    "match_pairs",
    "results_identical",
    "identical",
    "name",
    "pattern",
    "updates",
    "arcs",
    "full_build_sources",
    "full_rank_candidates",
    "registered_build_visits",
    "rebuild_visits",
    "columns",
    "thresholded",
    "adopted",
    "expired",
    "slots",
}
HIGHER_IS_WORSE = {
    "refreshes",
    "removals",
    "bfs_nodes_visited",
    "index_misses",
    "build_visits",
    "expand_visits",
    "settled",
    "relaxed",
    "pushes",
    "affected_nodes",
    "tentative_pairs",
    "repair_sources",
    "rerank_candidates",
    "search_visits",
    "walk_visits",
    "repair_visits",
    "class_builds",
    "computed",
    "candidates",
}
LOWER_IS_WORSE = {"index_hits", "refreshes_skipped", "pruned", "reused"}
# machine-shape fields: neither comparable nor interesting
IGNORED = {"note", "available_parallelism"}
ADVISORY_SUFFIXES = ("_ms",)
ADVISORY_KEYS = {
    "ms",
    "warm_speedup",
    "cancel_check_overhead",
    "entries",
    "bytes",
}


def is_advisory(key: str) -> bool:
    return key.endswith(ADVISORY_SUFFIXES) or key in ADVISORY_KEYS


def workload_label(w) -> str:
    if not isinstance(w, dict):
        return "?"
    label = str(w.get("name", "?"))
    if "pattern" in w:
        label += "/" + str(w["pattern"])
    return label


def align_lists(base, fresh, path):
    """Pair up workload arrays by label; anything unmatched is blocking."""
    pairs, findings = [], []
    if all(isinstance(w, dict) and "name" in w for w in base + fresh):
        fresh_by = {workload_label(w): w for w in fresh}
        base_by = {workload_label(w): w for w in base}
        for label, w in base_by.items():
            if label in fresh_by:
                pairs.append((w, fresh_by[label], f"{path}[{label}]"))
            else:
                findings.append(("blocking", f"{path}[{label}]", "workload missing from fresh run"))
        for label in fresh_by:
            if label not in base_by:
                findings.append(("blocking", f"{path}[{label}]", "workload absent from baseline"))
    else:
        if len(base) != len(fresh):
            findings.append(
                ("blocking", path, f"array length changed: {len(base)} -> {len(fresh)}")
            )
        pairs = [(b, f, f"{path}[{i}]") for i, (b, f) in enumerate(zip(base, fresh))]
    return pairs, findings


def compare(base, fresh, path, key, threshold, findings):
    if key in IGNORED:
        return
    if isinstance(base, dict) and isinstance(fresh, dict):
        for k in sorted(set(base) | set(fresh)):
            if k not in base or k not in fresh:
                findings.append(("blocking", f"{path}.{k}", "field added or removed"))
                continue
            compare(base[k], fresh[k], f"{path}.{k}", k, threshold, findings)
        return
    if isinstance(base, list) and isinstance(fresh, list):
        pairs, list_findings = align_lists(base, fresh, path)
        findings.extend(list_findings)
        for b, f, p in pairs:
            compare(b, f, p, key, threshold, findings)
        return
    if key in EQUAL_KEYS:
        if base != fresh:
            findings.append(("blocking", path, f"must be identical: {base!r} -> {fresh!r}"))
        return
    if key in HIGHER_IS_WORSE or key in LOWER_IS_WORSE:
        # +1 smoothing keeps zero baselines comparable
        ratio = (fresh + 1) / (base + 1)
        regressed = ratio > 1 + threshold if key in HIGHER_IS_WORSE else ratio < 1 / (1 + threshold)
        kind = "blocking" if regressed else "info"
        if base != fresh:
            findings.append((kind, path, f"counter {base} -> {fresh} ({ratio:.3f}x)"))
        return
    if is_advisory(key):
        if isinstance(base, (int, float)) and isinstance(fresh, (int, float)) and base:
            delta = (fresh - base) / abs(base)
            if abs(delta) > threshold:
                findings.append(("advisory", path, f"{base:.4g} -> {fresh:.4g} ({delta:+.1%})"))
        return
    # unclassified scalar: surface schema drift without blocking
    if base != fresh:
        findings.append(("advisory", path, f"unclassified field changed: {base!r} -> {fresh!r}"))


def same_search(doc, path, findings):
    """The same-search rule, over every ``rank`` block of one document."""
    if isinstance(doc, list):
        for w in doc:
            same_search(w, f"{path}[{workload_label(w)}]", findings)
        return
    if not isinstance(doc, dict):
        return
    rank = doc.get("rank")
    if isinstance(rank, dict) and isinstance(rank.get("on_demand"), dict):
        for key in ("settled", "relaxed", "pruned"):
            built, demand = rank.get(key), rank["on_demand"].get(key)
            if built != demand:
                findings.append(
                    (
                        "blocking",
                        f"{path}.rank.on_demand.{key}",
                        f"same-search rule: on_demand {demand!r} != built {built!r}",
                    )
                )
    for k, v in doc.items():
        same_search(v, f"{path}.{k}", findings)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", type=Path)
    ap.add_argument("fresh", type=Path)
    ap.add_argument("--threshold", type=float, default=0.25)
    ap.add_argument("--report", type=Path)
    args = ap.parse_args()

    base = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    if base.get("bench") != fresh.get("bench"):
        print(
            f"bench-compare: documents disagree on 'bench': "
            f"{base.get('bench')!r} vs {fresh.get('bench')!r}",
            file=sys.stderr,
        )
        return 1

    findings = []
    compare(base, fresh, "$", "", args.threshold, findings)
    same_search(fresh, "$", findings)
    blocking = [f for f in findings if f[0] == "blocking"]
    advisory = [f for f in findings if f[0] == "advisory"]

    name = base.get("bench", "?")
    lines = [
        f"# bench-compare: {name}",
        "",
        f"baseline `{args.baseline}` vs fresh `{args.fresh}`, "
        f"threshold {args.threshold:.0%}",
        "",
    ]
    for title, rows in (("Blocking", blocking), ("Advisory (wall-clock)", advisory)):
        lines.append(f"## {title} ({len(rows)})")
        lines.extend(f"- `{p}`: {msg}" for _, p, msg in rows)
        lines.append("")
    report = "\n".join(lines)
    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report)
    print(report)

    if blocking:
        print(
            f"bench-compare FAIL [{name}]: {len(blocking)} blocking finding(s)",
            file=sys.stderr,
        )
        return 1
    print(f"bench-compare OK [{name}]: no blocking findings ({len(advisory)} advisory)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
