#!/usr/bin/env bash
# Offline CI for the poi360 workspace. Everything here must pass with an
# empty cargo registry — the repo has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

# Section banner prefixed with wall-clock seconds elapsed since the
# script started, so a slow gate is visible at a glance in the log.
banner() {
    echo "== [+${SECONDS}s] $* =="
}

banner "hermetic manifest check"
# No [dependencies]/[dev-dependencies] entry may name anything but
# poi360-* path crates (workspace-dep references included).
if grep -rn --include=Cargo.toml -E '^[a-zA-Z0-9_-]+ *= *[{"]' . \
    | grep -vE '^\./target/' \
    | sed -n '/\[.*dependencies\]/,$p' >/dev/null; then
    bad=$(awk '
        /^\[(dev-|build-)?dependencies/ { indeps = 1; next }
        /^\[/ { indeps = 0 }
        indeps && /^[a-zA-Z0-9_-]+ *=/ && !/^poi360-/ { print FILENAME ": " $0 }
    ' Cargo.toml crates/*/Cargo.toml)
    if [ -n "$bad" ]; then
        echo "non-hermetic dependency entries found:" >&2
        echo "$bad" >&2
        exit 1
    fi
fi
echo "ok: only poi360-* path dependencies"

banner "cargo fmt --check"
cargo fmt --check

banner "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

banner "build (release)"
cargo build --release

banner "examples compile"
cargo build --examples

banner "tests"
cargo test -q --workspace

banner "benchmark self-checks"
# perfbench/ is its own [workspace], so `cargo test --workspace` never
# compiles it: without this step an lte/core API change could break the
# benchmark unseen.
cargo test --release --manifest-path perfbench/Cargo.toml

banner "smoke bench (JSON output)"
cargo run --release -p poi360-bench --bin reproduce -- --smoke

banner "coexist smoke (shared-cell ensembles)"
cargo run --release -p poi360-bench --bin reproduce -- coexist --seconds 6 --repeats 1 --seed 77 >/dev/null

banner "trace smoke (probe JSONL export)"
cargo run --release -p poi360-bench --bin reproduce -- trace --smoke >/dev/null
test -s bench_results/trace_smoke.jsonl

banner "fault-injection smoke (recovery invariants, FBCC vs GCC)"
cargo run --release -p poi360-bench --bin reproduce -- faults --smoke >/dev/null
test -s bench_results/faults_smoke.jsonl

banner "fault + handover regression suite, 3-seed matrix"
# tests/faults.rs also carries the handover packet-conservation
# invariants, so this matrix covers both planes per seed.
for seed in 1 2 3; do
    POI360_FAULT_SEED=$seed cargo test -q --release --test faults
done

banner "hex-grid mobility smoke (handover invariants + thread invariance + 3-seed matrix)"
cargo run --release -p poi360-bench --bin reproduce -- mobility --smoke >/dev/null
test -s bench_results/mobility_smoke.jsonl

banner "perf gate (per-layer medians vs pinned baseline + zero-alloc steady state)"
cargo run --release -p poi360-bench --bin reproduce -- perf --smoke --compare bench_results/perf_baseline.json

banner "study smoke (cc_matrix: 2 controllers x 3 scenarios x 3 seeds + report)"
cargo run --release -p poi360-bench --bin reproduce -- study cc_matrix --smoke >/dev/null
test -s bench_results/study_cc_matrix_smoke.jsonl
test -s bench_results/study_cc_matrix_smoke_trace.json

banner "study byte-identity across worker-pool widths"
# The width must come from the environment, not --threads: the RunMeta
# stamp records argv, so differing flags would (correctly) differ in the
# artifact bytes.
mkdir -p target/ci
POI360_THREADS=1 POI360_BENCH_DIR=target/ci/study_w1 \
    cargo run --release -p poi360-bench --bin reproduce -- study cc_matrix --smoke >/dev/null
POI360_THREADS=4 POI360_BENCH_DIR=target/ci/study_w4 \
    cargo run --release -p poi360-bench --bin reproduce -- study cc_matrix --smoke >/dev/null
cmp target/ci/study_w1/study_cc_matrix_smoke.jsonl target/ci/study_w4/study_cc_matrix_smoke.jsonl
cmp target/ci/study_w1/study_cc_matrix_smoke.txt target/ci/study_w4/study_cc_matrix_smoke.txt
echo "ok: study artifact byte-identical at widths 1 and 4"

banner "arena smoke (3 controllers x 3 tilings: quality scores + fault verdicts)"
# Exits nonzero if any cell violates a fault-suite recovery invariant.
cargo run --release -p poi360-bench --bin reproduce -- arena --smoke >/dev/null
test -s bench_results/arena_smoke.jsonl
test -s bench_results/arena_smoke.txt

banner "arena byte-identity across worker-pool widths"
# Same env-not-flags rule as the study gate: the RunMeta stamp records
# argv, so the width must come from POI360_THREADS.
POI360_THREADS=1 POI360_BENCH_DIR=target/ci/arena_w1 \
    cargo run --release -p poi360-bench --bin reproduce -- arena --smoke >/dev/null
POI360_THREADS=4 POI360_BENCH_DIR=target/ci/arena_w4 \
    cargo run --release -p poi360-bench --bin reproduce -- arena --smoke >/dev/null
cmp target/ci/arena_w1/arena_smoke.jsonl target/ci/arena_w4/arena_smoke.jsonl
cmp target/ci/arena_w1/arena_smoke.txt target/ci/arena_w4/arena_smoke.txt
echo "ok: arena artifact byte-identical at widths 1 and 4"

banner "mobility byte-identity across shard widths"
# Same env-not-flags rule as the study gate. POI360_THREADS drives both
# the worker pool *and* the grid's epoch-lockstep shard width (they share
# one resolution in bench::runner), so this is the end-to-end proof that
# sharded cell stepping cannot reach the artifact bytes.
POI360_THREADS=1 POI360_BENCH_DIR=target/ci/mobility_w1 \
    cargo run --release -p poi360-bench --bin reproduce -- mobility --smoke >/dev/null
POI360_THREADS=4 POI360_BENCH_DIR=target/ci/mobility_w4 \
    cargo run --release -p poi360-bench --bin reproduce -- mobility --smoke >/dev/null
cmp target/ci/mobility_w1/mobility_smoke.jsonl target/ci/mobility_w4/mobility_smoke.jsonl
cmp target/ci/mobility_w1/mobility_smoke.txt target/ci/mobility_w4/mobility_smoke.txt
echo "ok: mobility artifact byte-identical at shard widths 1 and 4"

banner "ingest sweep: every generated JSONL artifact re-parses"
cargo test -q --release -p poi360-analyse --test roundtrip

banner "cell-scale micro-benchmark"
cargo bench -p poi360-bench --bench cell_scale

echo "CI green in ${SECONDS}s."
