# Offline CI entry points (the container mirror of .github/workflows/ci.yml).

# the full local CI mirror: everything the CI `check` and `doc` jobs
# run, the planner and perf-counter gates, the four harnesses that drive
# the real `serve` binary (the last three are what exercise the durable
# runtime end to end), and the repo-benchmark smoke (the benchmark
# package has its own `[workspace]`, so nothing above compiles it)
verify: fmt-check clippy test doc docs-check plan-check bench-compare serve-smoke recovery-smoke chaos-smoke stress-smoke bench-e2e-smoke

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

# the CI `bench-smoke` job: quick harness run, fails on panic, refreshes
# the BENCH_*.json baselines CI uploads as artifacts
bench-smoke: experiments

# the CI perf-regression gate: rerun the quick deterministic benchmarks
# and compare against the checked-in quick baselines. Deterministic
# counters (bfs_nodes_visited, refreshes, index hits/misses) and exact
# outputs (sizes, match_pairs, results_identical) block on >25%
# regression / any mismatch; wall-clock numbers are advisory only.
bench-compare:
    cargo run --release -p expfinder-bench --bin experiments -- e13 --quick --out target/ci/BENCH_smoke_fresh.json
    cargo run --release -p expfinder-bench --bin bench_match -- --quick --out target/ci/BENCH_4_smoke_fresh.json --warm-out target/ci/BENCH_5_smoke_fresh.json
    python3 scripts/bench_compare.py BENCH_smoke.json target/ci/BENCH_smoke_fresh.json --report target/ci/bench_compare_batch.md
    python3 scripts/bench_compare.py BENCH_4_smoke.json target/ci/BENCH_4_smoke_fresh.json --report target/ci/bench_compare_match.md
    python3 scripts/bench_compare.py BENCH_5_smoke.json target/ci/BENCH_5_smoke_fresh.json --report target/ci/bench_compare_warm.md

# regenerate the checked-in planner-decision snapshot (commit the diff)
plan-snapshot:
    cargo run --release -p expfinder-bench --bin bench_match -- --plan-out PLANS.json

# the CI planner gate: the planner is deterministic in its counters, so
# a fresh snapshot must be bit-identical to the checked-in PLANS.json —
# any diff is a behavior change to review, then `just plan-snapshot`
plan-check:
    cargo run --release -p expfinder-bench --bin bench_match -- --plan-out target/ci/PLANS_fresh.json
    python3 scripts/plan_diff.py PLANS.json target/ci/PLANS_fresh.json

# quick experiment-harness smoke run
experiments:
    cargo run --release -p expfinder-bench --bin experiments -- --quick

# full sequential-vs-parallel batch benchmark (writes BENCH_2.json)
bench-batch:
    cargo run --release -p expfinder-bench --bin bench_batch

# matching-engine benchmark: queue fixpoint (pre-PR-4) vs delta-aware
# frontier fixpoint over the CSR snapshot (writes BENCH_4.json), plus the
# cold-vs-warm reach-index comparison (writes BENCH_5.json); the >= 1.5x
# single-query bar is the ISSUE 4 acceptance gate, the >= 1.3x warm bar
# is the ISSUE 5 one, and the <= 2% disarmed cancel-token bar keeps the
# PR-10 cancellation plumbing free when no deadline is armed
bench-match:
    cargo run --release -p expfinder-bench --bin bench_match -- --min-speedup 1.5 --min-warm-speedup 1.3 --max-cancel-overhead 0.02

# every bench_* bin in sequence, full profiles — refreshes all the
# checked-in BENCH_*.json baselines in one go
bench-all: bench-batch bench-match bench-serve

# hard perf gate for multi-core hosts: fail unless every workload's
# batch throughput is >= 3x the sequential baseline (ISSUE 2 criterion)
bench-gate:
    cargo run --release -p expfinder-bench --bin bench_batch -- --threads 8 --min-batch-speedup 3.0 --out BENCH_gate.json

# run the HTTP server on the paper's Fig. 1 fixture (Ctrl-D or
# `POST /admin/shutdown` drains gracefully)
serve:
    cargo run --release -p expfinder-server --bin serve -- --addr 127.0.0.1:7878 --fixture fig1 --allow-shutdown

# the CI `serve-smoke` job: build release, boot the real `serve` binary
# on an ephemeral port (durable data dir), drive every endpoint over
# TCP, drain, check the log
serve-smoke:
    cargo build --release -p expfinder-server
    cargo run --release -p expfinder-server --bin serve_smoke -- --log target/serve-smoke.log

# the CI `recovery-smoke` job: boot `serve --data-dir`, stream updates,
# kill -9, restart, and assert WAL replay answers bit-identically to an
# in-memory oracle — including a torn-final-frame restart
recovery-smoke:
    cargo build --release -p expfinder-server
    cargo run --release -p expfinder-server --bin recovery_smoke -- --log target/recovery-smoke

# the CI `chaos-smoke` job: crash-point torture harness — replay a
# fixed op script, simulate a crash at every I/O boundary it crosses
# (plus torn-write variants), restart, and assert the recovered state
# is a prefix of the acknowledged ops; also drives the ENOSPC
# self-heal and fsync-seal scenarios
chaos-smoke:
    cargo build --release -p expfinder-server
    cargo run --release -p expfinder-server --bin chaos_smoke -- --log target/chaos-smoke.log --data-dir target/chaos-data

# the CI `stress-smoke` job: boot `serve` with tight deadline caps,
# fire pathological worst-case patterns under millisecond budgets mixed
# with normal traffic, assert every deadlined request answers 408 with
# partial stats and bounded latency, then reboot with an admission
# ceiling and assert 429 + Retry-After — clean drain both times
stress-smoke:
    cargo build --release -p expfinder-server
    cargo run --release -p expfinder-server --bin stress_smoke -- --log target/stress-smoke.log

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
# memory and on a fresh --data-dir, send the same ~35 requests, and fail
# on any status or body difference (numeric `*_us`/`*_ms` under `timings`
# masked); prints the `/metrics` key-set difference
wire-parity parent_serve change_serve:
    python3 scripts/wire_parity.py {{parent_serve}} {{change_serve}}

# a simplicity PR's acceptance number: non-test source lines (each `.rs`
# file up to its first `#[cfg(test)]`) per file and in total; with
# `--against <git-rev>` the delta per file instead, e.g.
# `just src-lines --against HEAD~1 crates/engine/src crates/runtime/src`
src-lines *args="crates":
    python3 scripts/src_lines.py {{args}}

# full server throughput benchmark (writes BENCH_3.json)
bench-serve:
    cargo run --release -p expfinder-bench --bin bench_serve
