#!/usr/bin/env bash
# The one command of the repo benchmark: build `serve` from the commit
# under test (release), build the harness, run it.
#
#   bash benchmark/run.sh                       # all four workloads, end to end
#   bash benchmark/run.sh --workload read_cold --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh --workload read_cold --trace 1    # per-layer trace
#   bash benchmark/run.sh --smoke               # every code path in < 20 s
#   bash benchmark/run.sh calibrate --runs 10 --sets 2 --markdown benchmark/CALIBRATION.md
#
# Prints a table per workload and, as the last stdout line of each, one
# JSON object {correct, attempted, failed, metrics}. Exits non-zero when
# a build fails, an op fails or an answer is wrong. Everything it writes
# goes under benchmark/out/ and the cargo target dirs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
cd "$repo"

# cargo resolves a relative CARGO_TARGET_DIR against its own cwd; pin
# it to this checkout so both builds and the binary lookup agree
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$repo/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    serve_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    serve_target="$repo/target"
    bench_target="$here/target"
fi

# build chatter goes to stderr: stdout carries only the results
cargo build --release --offline --manifest-path "$repo/Cargo.toml" -p expfinder-server --bin serve >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

sub=()
if [[ "${1:-}" == "calibrate" ]]; then
    sub=(calibrate)
    shift
fi
exec "$bench_target/release/expfinder-benchmark" "${sub[@]}" \
    --serve-bin "$serve_target/release/serve" --out "$here/out" "$@"
