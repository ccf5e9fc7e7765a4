# Offline CI entry points (the container mirror of .github/workflows/ci.yml).

# the full local CI mirror: everything the CI `check` and `doc` jobs
# run, the planner and perf-counter gates, and the repo-benchmark smoke
# (the benchmark package has its own `[workspace]`, so nothing above
# compiles it; it also kills `serve` with SIGKILL on both durable
# workloads and holds the recovered answers to the naive oracle). A
# simulated crash at every I/O boundary of a durable write is `test`'s
# differential harness, and its server suite boots the real `serve`
# binary
verify: fmt-check clippy test doc docs-check plan-check bench-compare bench-e2e-smoke

fmt-check:
    cargo fmt --all --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

test:
    cargo build --release
    cargo test --workspace

# the CI `doc` job: rustdoc with warnings promoted to errors — the only
# gate that sees a dangling intra-doc link to a deleted or renamed item
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# every route served by crates/server/src/routes.rs must have a section
# in docs/PROTOCOL.md (the inventory comes from the dispatch match arms,
# so an undocumented handler fails CI)
docs-check:
    python3 scripts/docs_check.py

# the CI MSRV leg: build/test on the pinned 1.82 toolchain (requires
# `rustup toolchain install 1.82` once; no fmt/clippy gates — their
# output and lint sets drift across compiler versions)
msrv:
    cargo +1.82 build --release
    cargo +1.82 test --workspace

# the CI perf-regression gate: rebuild the counters document and compare
# it against the checked-in BENCH_counters.json. Deterministic counters
# (bfs_nodes_visited, refreshes, index hits/misses, the rank kernel's
# settled/relaxed/pushes, the on-demand rows' expand_visits, and the
# batch_reads row's ranked answers computed, candidates searched and
# answers reused from a version's ranked list) block on
# >25% regression and exact outputs (sizes, match_pairs,
# results_identical, the on-demand ranks' identical) on any mismatch;
# the same-search rule blocks a fresh document whose rank block's
# on_demand.settled / on_demand.relaxed differ from its own settled /
# relaxed (both rankers read one arc per pair); wall-clock numbers are
# advisory only. `bench_match` with no flags
# rewrites the baseline itself (commit it when a counter moves on purpose)
bench-compare:
    cargo run --release -p expfinder-bench --bin bench_match -- --out target/ci/BENCH_counters_fresh.json
    python3 scripts/bench_compare.py BENCH_counters.json target/ci/BENCH_counters_fresh.json --report target/ci/bench_compare.md

# regenerate the checked-in planner-decision snapshot (commit the diff)
plan-snapshot:
    cargo run --release -p expfinder-bench --bin bench_match -- --plan-out PLANS.json

# the CI planner gate: the planner is deterministic in its counters, so
# a fresh snapshot must be bit-identical to the checked-in PLANS.json —
# any diff is a behavior change to review, then `just plan-snapshot`
plan-check:
    cargo run --release -p expfinder-bench --bin bench_match -- --plan-out target/ci/PLANS_fresh.json
    python3 scripts/plan_diff.py PLANS.json target/ci/PLANS_fresh.json

# the disarmed cancel-token bar (advisory in CI: it is wall-clock):
# carrying a CancelToken with no deadline through the match_frontier
# workloads must cost <= 2% over the token-free path
bench-match:
    cargo run --release -p expfinder-bench --bin bench_match -- --out target/ci/BENCH_counters_cancel.json --max-cancel-overhead 0.02

# run the HTTP server on the paper's Fig. 1 fixture (Ctrl-D or
# `POST /admin/shutdown` drains gracefully)
serve:
    cargo run --release -p expfinder-server --bin serve -- --addr 127.0.0.1:7878 --fixture fig1 --allow-shutdown

# the CI `bench-e2e-smoke` job: the repo benchmark (BENCHMARK.json,
# benchmark/) is a separate cargo workspace that path-depends on
# crates/*, so `--workspace` builds never see it — build it, run its
# self-tests, and drive every workload's code path once (< 20 s) so a
# change to a type it clones or walks cannot break it silently
bench-e2e-smoke:
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cd benchmark && cargo test --release --offline
    bash benchmark/run.sh --smoke

# a perf PR's measurement: N alternating parent/change pairs of one
# repo-benchmark workload against two already-built `serve` binaries
# (build the parent from a `git clone` of its commit under /root/scratch,
# and the harness with `just bench-e2e-smoke`); prints medians with
# quartiles, ratio, pairs won, the BENCHMARK.json bound and the driver's
# spread gate per metric. Extra flags pass through (`--seed 7`, `--trace 1`)
bench-pairs parent_serve change_serve workload pairs="10" *flags="":
    python3 scripts/bench_pairs.py {{parent_serve}} {{change_serve}} --workload {{workload}} --pairs {{pairs}} {{flags}}

# a service-layer refactor's wire check: boot both `serve` binaries in
# memory and on a fresh --data-dir, send the same 45 requests, and fail
# on any status, head or body difference (numeric `*_us`/`*_ms` under
# `timings` and `Content-Length` masked); prints the `/metrics` key-set
# difference
wire-parity parent_serve change_serve:
    python3 scripts/wire_parity.py {{parent_serve}} {{change_serve}}

# what the benchmark's one keep-alive connection cannot see: boot both
# `serve` binaries on Fig. 1 and print (a) the fresh-connection
# `/healthz` round trip, p50/p95 over 300 alternating connections each,
# and (b) how long client W+1 waits behind W idle keep-alive clients at
# `--workers W` (default 2), capped at 35 s
conn-probe parent_serve change_serve *flags="":
    python3 scripts/conn_probe.py {{parent_serve}} {{change_serve}} {{flags}}

# a simplicity PR's acceptance number: non-test source lines (each `.rs`
# file up to its first `#[cfg(test)]`, files under a `tests` directory
# skipped) per file and in total; with
# `--against <git-rev>` the delta per file instead, e.g.
# `just src-lines --against HEAD~1 crates/engine/src crates/runtime/src`
src-lines *args="crates":
    python3 scripts/src_lines.py {{args}}
