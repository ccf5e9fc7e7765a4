#!/usr/bin/env python3
"""Wire parity of two `serve` binaries: the check a refactor of the service
layers owes (`just wire-parity PARENT_SERVE CHANGE_SERVE`).

Each binary is booted twice — in memory and on a fresh `--data-dir` —
with the paper's Fig. 1 fixture, and sent the same fixed script of ~35
requests: every route preference, `deadline_ms: 0`, bad DSL, unknown
graph / field / route / method, register x3 including a duplicate,
updates including a no-op, an empty batch and out-of-range ids, a batch
with a bad slot, graph adds including a duplicate and a path-like name.
Numeric `*_us` / `*_ms` values under `timings` are masked; every other
byte of every response body, and every status, must match. The sorted
difference of the two `/metrics` key sets is printed (values are not
compared — uptime and latencies differ run to run).

Exits 1 on any status or body difference, 0 otherwise. Build the parent
binary from a `git clone` of the parent commit, e.g.
`cargo build --release -p expfinder-server --bin serve` in the clone.
"""

import argparse
import http.client
import json
import shutil
import subprocess
import sys
import tempfile

SA = 'node sa* where label = "SA";'
TEAM = 'node sa* where label = "SA"; node sd where label = "SD"; edge sa -> sd within 2;'
WIDE = (
    'node sa* where label = "SA"; node sd where label = "SD"; '
    'node st where label = "ST"; edge sa -> sd within 3; edge sd -> st within 3;'
)
GRAPH = {
    "nodes": [
        {"label": "SA", "attrs": [["name", {"Str": "Ann"}]]},
        {"label": "SD", "attrs": []},
        {"label": "ST", "attrs": [["experience", {"Int": 3}]]},
    ],
    "edges": [[0, 1], [1, 2]],
}


def q(pattern, **extra):
    return {"pattern": pattern, **extra}


def ups(*ops):
    return {"updates": [{"op": op, "from": a, "to": b} for op, a, b in ops]}


SCRIPT = [
    ("GET", "/healthz", None),
    ("GET", "/graphs", None),
    ("POST", "/graphs/fig1/query", q(TEAM, top_k=2)),
    ("POST", "/graphs/fig1/query", q(TEAM, top_k=2)),
    ("POST", "/graphs/fig1/query", q(TEAM, top_k=1)),
    ("POST", "/graphs/fig1/query", q(TEAM, route="direct", include_matches=True)),
    ("POST", "/graphs/fig1/query", q(TEAM, route="compressed")),
    ("POST", "/graphs/fig1/query", q(SA, route="auto")),
    ("POST", "/graphs/fig1/query", q(WIDE, top_k=3, deadline_ms=0)),
    ("POST", "/graphs/fig1/query", q("node x where label = ;")),
    ("POST", "/graphs/fig1/query", q(SA, bogus=1)),
    ("POST", "/graphs/ghost/query", q(SA)),
    ("GET", "/graphs/fig1/query", None),
    ("POST", "/graphs/fig1/register", {"name": "team", "pattern": TEAM}),
    ("POST", "/graphs/fig1/register", {"name": "team", "pattern": TEAM}),
    ("POST", "/graphs/fig1/register", {"name": "bad", "pattern": "node ;"}),
    ("POST", "/graphs/fig1/register", {"name": "solo", "pattern": SA}),
    ("POST", "/graphs/fig1/query", q(TEAM, top_k=2)),
    ("POST", "/graphs/fig1/updates", ups(("insert", 8, 3))),
    ("POST", "/graphs/fig1/updates", ups(("insert", 8, 3))),
    ("POST", "/graphs/fig1/updates", ups()),
    ("POST", "/graphs/fig1/updates", ups(("insert", 900, 901), ("delete", 1, 2))),
    ("POST", "/graphs/fig1/updates", {"updates": [{"op": "flip", "from": 0, "to": 1}]}),
    ("POST", "/graphs/ghost/updates", ups(("insert", 0, 1))),
    ("POST", "/graphs/fig1/query", q(TEAM, top_k=2, include_matches=True)),
    (
        "POST",
        "/graphs/fig1/batch",
        {"queries": [q(TEAM, top_k=1), q("node oops"), q(WIDE, deadline_ms=0), q(SA)]},
    ),
    ("POST", "/graphs/fig1/subscribe", {"queries": ["nope"]}),
    ("POST", "/graphs/fig1/subscribe", {"queries": []}),
    ("POST", "/graphs", {"name": "g2", "graph": GRAPH}),
    ("POST", "/graphs", {"name": "g2", "graph": GRAPH}),
    ("POST", "/graphs", {"name": "../escape", "graph": GRAPH}),
    ("POST", "/graphs/g2/query", q(SA, top_k=1)),
    ("POST", "/graphs/g2/updates", ups(("insert", 2, 0))),
    ("GET", "/graphs", None),
    ("GET", "/healthz", None),
    ("GET", "/nope", None),
]


def mask(value, in_timings=False, key=""):
    """Replace numeric `*_us` / `*_ms` values under a `timings` object."""
    if isinstance(value, dict):
        return {
            k: mask(v, in_timings or k == "timings", k) for k, v in value.items()
        }
    if isinstance(value, list):
        return [mask(v, in_timings, key) for v in value]
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if in_timings and numeric and key.endswith(("_us", "_ms")):
        return "<t>"
    return value


def key_paths(value, prefix=""):
    """Every key path of a JSON document (`a.b`, arrays as `a[]`)."""
    if isinstance(value, dict):
        out = set()
        for k, v in value.items():
            path = f"{prefix}.{k}" if prefix else k
            out |= {path} | key_paths(v, path)
        return out
    if isinstance(value, list):
        return set().union(*(key_paths(v, prefix + "[]") for v in value)) if value else set()
    return set()


def request(addr, method, path, body):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    payload = None if body is None else json.dumps(body)
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    conn.close()
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = raw.decode("utf-8", "replace")
    return resp.status, doc


def run(binary, data_dir):
    """Boot `binary`, play the script, drain; the masked responses and
    the `/metrics` key set."""
    args = [binary, "--addr", "127.0.0.1:0", "--fixture", "fig1", "--workers", "2"]
    if data_dir:
        args += ["--data-dir", data_dir]
    proc = subprocess.Popen(
        args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        if not line.startswith("listening on "):
            raise RuntimeError(f"{binary}: no `listening on` line (got {line!r})")
        addr = line.removeprefix("listening on ")
        responses = [
            (method, path, *request(addr, method, path, body))
            for method, path, body in SCRIPT
        ]
        _, metrics = request(addr, "GET", "/metrics", None)
    finally:
        proc.stdin.close()  # stdin EOF drains the server
        proc.wait(timeout=30)
    masked = [(m, p, status, mask(doc)) for m, p, status, doc in responses]
    return masked, key_paths(metrics)


def compare(label, parent, change):
    (p_resp, p_keys), (c_resp, c_keys) = parent, change
    diffs = 0
    for (method, path, p_status, p_doc), (_, _, c_status, c_doc) in zip(p_resp, c_resp):
        if (p_status, p_doc) != (c_status, c_doc):
            diffs += 1
            print(f"[{label}] DIFF {method} {path}")
            print(f"  parent {p_status}: {json.dumps(p_doc, sort_keys=True)}")
            print(f"  change {c_status}: {json.dumps(c_doc, sort_keys=True)}")
    statuses = sorted({s for _, _, s, _ in c_resp})
    print(
        f"[{label}] {len(c_resp) - diffs}/{len(c_resp)} responses identical "
        f"(statuses seen: {statuses})"
    )
    for side, keys in (("parent", p_keys - c_keys), ("change", c_keys - p_keys)):
        print(f"[{label}] /metrics keys only in {side}: {sorted(keys) or 'none'}")
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_serve")
    ap.add_argument("change_serve")
    args = ap.parse_args()
    diffs = 0
    for label, durable in (("in-memory", False), ("data-dir", True)):
        sides = []
        for binary in (args.parent_serve, args.change_serve):
            data_dir = tempfile.mkdtemp(prefix="wire_parity_") if durable else None
            try:
                sides.append(run(binary, data_dir))
            finally:
                if data_dir:
                    shutil.rmtree(data_dir, ignore_errors=True)
        diffs += compare(label, *sides)
    print("wire parity:", "OK" if diffs == 0 else f"{diffs} differing responses")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
