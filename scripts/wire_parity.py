#!/usr/bin/env python3
"""Wire parity of two `serve` binaries: the check a refactor of the service
layers owes (`just wire-parity PARENT_SERVE CHANGE_SERVE`).

Each binary is booted twice — in memory and on a fresh `--data-dir` —
with the paper's Fig. 1 fixture, and sent the same fixed script of 45
requests: every route preference, `deadline_ms: 0`, bad DSL, unknown
graph / field / route / method, register x3 including a duplicate,
updates including a no-op, an empty batch and out-of-range ids, a batch
with a bad slot, graph adds including a duplicate and a path-like name.
Then come the patterns whose DSL text once went wrong: a register of an
integral float (`experience >= 2.0`), then, on an added graph, a query
for a non-ASCII label and two patterns whose old cache encodings
collided, sent in that order at one version (the second must be
evaluated and answer 1 pair). The script ends with the branches of the
reply writer: experts whose `name` holds a quote, a backslash, control
characters and non-ASCII text, a `top_k: 0` query, and a batch whose
first slot is an error and whose answered slot includes the matches.

Bodies are parsed keeping what a byte comparison would see: object keys
in the order sent (a key sent twice is kept twice), and numbers as
spelled, so `1` and `1.0` differ. Numeric `*_us` / `*_ms` values under
`timings` are masked; every other byte of every response body, and
every status, must match. So must every
response head: its header names in order, and every header value but
`Content-Length`, which follows the masked timings. A differing
response is reported as the JSON paths at which the bodies differ
(`timings.plan.candidates[0].route: "live" -> "snapshot"`; a key order
that differs shows at `<path>{keys}`) and the
header lines at which the heads differ, and the run ends with one line
listing every differing path. The sorted difference
of the two `/metrics` key sets is printed (values are not compared —
uptime and latencies differ run to run).

Exits 1 on any status, head or body difference, 0 otherwise. Build the parent
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
EXP2 = "node sa* where experience >= 2.0;"
MULLER = 'node x* where label = "Müller";'
SPLIT = 'node a* where (label = "a") and (label = "b") and (has c);'
GROUPED = 'node a* where (label = "a),L(b") and (has c);'
NAMES = {
    "nodes": [
        {"label": "Müller", "attrs": []},
        {"label": "a),L(b", "attrs": [["c", {"Int": 1}]]},
    ],
    "edges": [],
}
ESCAPES = {
    "nodes": [
        {"label": "SA", "attrs": [["name", {"Str": 'Q "x" \\ y\u0001\n Zoë 中'}]]},
        {"label": "SA", "attrs": [["name", {"Str": "tab\there\u001f"}]]},
        {"label": "SA", "attrs": [["name", {"Str": ""}]]},
        {"label": "SD", "attrs": []},
    ],
    "edges": [[0, 3], [1, 3], [2, 3]],
}
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
    ("POST", "/graphs/fig1/register", {"name": "exp2", "pattern": EXP2}),
    ("POST", "/graphs", {"name": "names", "graph": NAMES}),
    ("POST", "/graphs/names/query", q(MULLER, top_k=1)),
    ("POST", "/graphs/names/query", q(SPLIT)),
    ("POST", "/graphs/names/query", q(GROUPED)),
    ("POST", "/graphs", {"name": "escapes", "graph": ESCAPES}),
    ("POST", "/graphs/escapes/query", q(TEAM, top_k=3, include_matches=True)),
    ("POST", "/graphs/fig1/query", q(TEAM, top_k=0)),
    (
        "POST",
        "/graphs/fig1/batch",
        {"queries": [q("node oops"), q(TEAM, top_k=2, include_matches=True)]},
    ),
]


class Num:
    """A JSON number as spelled: `1` and `1.0` are different bytes."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Num) and self.text == other.text

    def __hash__(self):
        return hash(self.text)


def ordered(pairs):
    """An object in the order its keys were sent; a repeated key is kept
    as `key#2`, `key#3`, ... instead of overwriting the first."""
    out = {}
    for k, v in pairs:
        key, n = k, 1
        while key in out:
            n += 1
            key = f"{k}#{n}"
        out[key] = v
    return out


def load(raw):
    """Parse a body keeping its key order and number spellings."""
    return json.loads(raw, object_pairs_hook=ordered, parse_float=Num, parse_int=Num)


def show(value):
    """A parsed value printed back as JSON, numbers as they were spelled."""
    if isinstance(value, Num):
        return value.text
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{show(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ",".join(show(v) for v in value) + "]"
    return json.dumps(value, ensure_ascii=False)


def mask(value, in_timings=False, key=""):
    """Replace numeric `*_us` / `*_ms` values under a `timings` object."""
    if isinstance(value, dict):
        return {
            k: mask(v, in_timings or k == "timings", k) for k, v in value.items()
        }
    if isinstance(value, list):
        return [mask(v, in_timings, key) for v in value]
    if in_timings and isinstance(value, Num) and key.endswith(("_us", "_ms")):
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


ABSENT = "<absent>"


def diff_paths(parent, change, prefix=""):
    """`(path, parent value, change value)` for every leaf at which two
    documents differ (`a.b[0].c`; a key or element one side lacks is
    `<absent>` there, and objects whose keys come in a different order
    differ at `a.b{keys}`)."""
    if isinstance(parent, dict) and isinstance(change, dict):
        out = []
        if list(parent) != list(change):
            out.append((f"{prefix}{{keys}}", list(parent), list(change)))
        for k in sorted(parent.keys() | change.keys()):
            path = f"{prefix}.{k}" if prefix else k
            out += diff_paths(parent.get(k, ABSENT), change.get(k, ABSENT), path)
        return out
    if isinstance(parent, list) and isinstance(change, list):
        out = []
        for i in range(max(len(parent), len(change))):
            p = parent[i] if i < len(parent) else ABSENT
            c = change[i] if i < len(change) else ABSENT
            out += diff_paths(p, c, f"{prefix}[{i}]")
        return out
    return [] if parent == change else [(prefix or "<body>", parent, change)]


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
        doc = load(raw)
    except ValueError:
        doc = raw.decode("utf-8", "replace")
    return resp.status, head(resp.getheaders()), doc


def head(headers):
    """A response's header lines in order, `Content-Length` masked."""
    return [
        (name, "<len>" if name.lower() == "content-length" else value)
        for name, value in headers
    ]


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
        _, _, metrics = request(addr, "GET", "/metrics", None)
    finally:
        proc.stdin.close()  # stdin EOF drains the server
        proc.wait(timeout=30)
    masked = [(m, p, status, hd, mask(doc)) for m, p, status, hd, doc in responses]
    return masked, key_paths(metrics)


def compare(label, parent, change):
    """Print every differing response as its differing header lines and
    body paths; the number of differing responses and the set of
    differing body paths."""
    (p_resp, p_keys), (c_resp, c_keys) = parent, change
    diffs, all_paths = 0, set()
    for (method, path, p_status, p_head, p_doc), (_, _, c_status, c_head, c_doc) in zip(
        p_resp, c_resp
    ):
        paths = diff_paths(p_doc, c_doc)
        if p_status == c_status and p_head == c_head and not paths:
            continue
        diffs += 1
        print(f"[{label}] DIFF {method} {path}")
        if p_status != c_status:
            print(f"  status: {p_status} -> {c_status}")
        for i in range(max(len(p_head), len(c_head))):
            p = p_head[i] if i < len(p_head) else ABSENT
            c = c_head[i] if i < len(c_head) else ABSENT
            if p != c:
                print(f"  header[{i}]: {p} -> {c}")
        for at, p, c in paths:
            print(f"  {at}: {show(p)} -> {show(c)}")
            all_paths.add(at)
    statuses = sorted({s for _, _, s, _, _ in c_resp})
    print(
        f"[{label}] {len(c_resp) - diffs}/{len(c_resp)} responses identical "
        f"(statuses seen: {statuses})"
    )
    for side, keys in (("parent", p_keys - c_keys), ("change", c_keys - p_keys)):
        print(f"[{label}] /metrics keys only in {side}: {sorted(keys) or 'none'}")
    return diffs, all_paths


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_serve")
    ap.add_argument("change_serve")
    args = ap.parse_args()
    diffs, all_paths = 0, set()
    for label, durable in (("in-memory", False), ("data-dir", True)):
        sides = []
        for binary in (args.parent_serve, args.change_serve):
            data_dir = tempfile.mkdtemp(prefix="wire_parity_") if durable else None
            try:
                sides.append(run(binary, data_dir))
            finally:
                if data_dir:
                    shutil.rmtree(data_dir, ignore_errors=True)
        n, paths = compare(label, *sides)
        diffs += n
        all_paths |= paths
    print(f"differing body paths: {sorted(all_paths) or 'none'}")
    print("wire parity:", "OK" if diffs == 0 else f"{diffs} differing responses")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
