#!/usr/bin/env python3
"""Connection-handling probe of two `serve` binaries: what the repo
benchmark's one keep-alive connection cannot see
(`just conn-probe PARENT_SERVE CHANGE_SERVE`).

Both binaries are booted with `--fixture fig1 --workers W` on an
ephemeral port, stdin held open (stdin EOF drains `serve`). Then:

(a) fresh-connection round trip: N sequential connections per binary,
    alternating the binaries, each one connect, one
    `GET /healthz` with `Connection: close`, and a read to EOF. Prints
    p50 and p95 in µs per binary.
(b) the stall behind idle clients: W clients each send one keep-alive
    `/healthz`, read the reply and stay idle; then client W+1's
    `/healthz` round trip is timed, capped at `--cap-s` (35 s, past the
    server's 30 s keep-alive budget). Prints ms per binary, or that
    client W+1 got no 200 reply within the cap.

Build the parent binary from a `git clone` of the parent commit, e.g.
`cargo build --release -p expfinder-server --bin serve` in the clone.
Exits 0 after printing; it asserts nothing.
"""

import argparse
import socket
import subprocess
import sys
import time

HEALTHZ_CLOSE = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
HEALTHZ_KEEP = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def boot(binary, workers):
    proc = subprocess.Popen(
        [binary, "--addr", "127.0.0.1:0", "--fixture", "fig1", "--workers", str(workers)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        raise RuntimeError(f"{binary}: no `listening on` line (got {line!r})")
    host, port = line.removeprefix("listening on ").rsplit(":", 1)
    return proc, (host, int(port))


def fresh_healthz(addr, timeout):
    """One connection, one `/healthz`, read to EOF; seconds, or None when
    no complete reply came within `timeout`."""
    started = time.perf_counter()
    try:
        with socket.create_connection(addr, timeout=timeout) as s:
            s.settimeout(max(timeout - (time.perf_counter() - started), 0.001))
            s.sendall(HEALTHZ_CLOSE)
            reply = b""
            while chunk := s.recv(4096):
                reply += chunk
    except OSError:
        return None
    if not reply.startswith(b"HTTP/1.1 200"):
        return None
    return time.perf_counter() - started


def idle_client(addr):
    """A connection that sent one keep-alive `/healthz` and read the
    whole reply."""
    s = socket.create_connection(addr, timeout=10)
    s.sendall(HEALTHZ_KEEP)
    reply = b""
    while b"\r\n\r\n" not in reply:
        reply += s.recv(4096)
    head, body = reply.split(b"\r\n\r\n", 1)
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        body += s.recv(4096)
    return s


def percentile(values, p):
    values = sorted(values)
    return values[min(len(values) - 1, int(p * len(values)))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_serve")
    ap.add_argument("change_serve")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--connections", type=int, default=300)
    ap.add_argument("--cap-s", type=float, default=35.0)
    args = ap.parse_args()

    sides = {"parent": args.parent_serve, "change": args.change_serve}
    servers = {}
    try:
        for name, binary in sides.items():
            servers[name] = boot(binary, args.workers)

        rtts = {name: [] for name in sides}
        failed = {name: 0 for name in sides}
        for i in range(args.connections):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for name in order:
                rtt = fresh_healthz(servers[name][1], 5.0)
                if rtt is None:
                    failed[name] += 1
                else:
                    rtts[name].append(rtt * 1e6)
        print(f"(a) fresh-connection /healthz, {args.connections} connections each, alternating")
        for name in sides:
            if rtts[name]:
                p50, p95 = percentile(rtts[name], 0.50), percentile(rtts[name], 0.95)
                print(f"    {name}: p50 {p50:.0f} us, p95 {p95:.0f} us, failed {failed[name]}")
            else:
                print(f"    {name}: every connection failed")

        w = args.workers
        print(f"(b) client {w + 1}'s /healthz behind {w} idle keep-alive clients (--workers {w})")
        for name in sides:
            addr = servers[name][1]
            idle = [idle_client(addr) for _ in range(w)]
            try:
                waited = fresh_healthz(addr, args.cap_s)
            finally:
                for s in idle:
                    s.close()
            if waited is None:
                shown = f"no 200 reply within {args.cap_s * 1e3:.0f} ms"
            else:
                shown = f"{waited * 1e3:.1f} ms"
            print(f"    {name}: {shown}")
    finally:
        for proc, _ in servers.values():
            proc.stdin.close()  # stdin EOF drains the server
        for proc, _ in servers.values():
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
