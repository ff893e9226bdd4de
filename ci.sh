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

banner "study presets at smoke scale (verdicts + byte identity across worker widths)"
# Every preset exits nonzero on a violated invariant. The width must come
# from the environment, not --threads: the RunMeta stamp records argv, so
# differing flags would (correctly) differ in the artifact bytes.
# POI360_THREADS drives both the worker pool *and* the grid's
# epoch-lockstep shard width (they share one resolution in bench::runner),
# so the mobility pair is also the end-to-end proof that sharded cell
# stepping cannot reach the artifact bytes.
mkdir -p target/ci
for preset in cc_matrix faults mobility arena; do
    stem="study_${preset}_smoke"
    cargo run --release -p poi360-bench --bin reproduce -- study "$preset" --smoke >/dev/null
    test -s "bench_results/$stem.jsonl"
    test -s "bench_results/${stem}_trace.json"
    for width in 1 4; do
        POI360_THREADS=$width POI360_BENCH_DIR="target/ci/${preset}_w$width" \
            cargo run --release -p poi360-bench --bin reproduce -- study "$preset" --smoke >/dev/null
    done
    cmp "target/ci/${preset}_w1/$stem.jsonl" "target/ci/${preset}_w4/$stem.jsonl"
    cmp "target/ci/${preset}_w1/$stem.txt" "target/ci/${preset}_w4/$stem.txt"
    echo "ok: $preset artifacts byte-identical at widths 1 and 4"
done

banner "fault + handover regression suite, 3-seed matrix"
# tests/faults.rs also carries the handover packet-conservation
# invariants, so this matrix covers both planes per seed.
for seed in 1 2 3; do
    POI360_FAULT_SEED=$seed cargo test -q --release --test faults
done

banner "ingest sweep: every generated JSONL artifact re-parses"
cargo test -q --release -p poi360-analyse --test roundtrip

banner "perf gate (per-layer medians vs pinned baseline + zero-alloc steady state)"
# Timing-sensitive, so it runs after every host-independent gate.
cargo run --release -p poi360-bench --bin reproduce -- perf --smoke --compare bench_results/perf_baseline.json

banner "cell-scale micro-benchmark"
cargo bench -p poi360-bench --bench cell_scale

echo "CI green in ${SECONDS}s."
