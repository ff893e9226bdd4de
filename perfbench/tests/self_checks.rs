//! The benchmark's own checks: width invariance of the grid, the seed
//! reaching every workload's inputs, the printed metric names matching
//! `BENCHMARK.json`, and the percentile helper's tail rule. Every check
//! runs the batches the benchmark measures; run them in release:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use poi360_core::multicell::MultiGrid;
use poi360_perfbench::stats::{percentile, Hist, MIN_TAIL};
use poi360_perfbench::traced::PER_LAYER;
use poi360_perfbench::workloads::{self, Reports, Workload};
use poi360_perfbench::{result_line, round, timed, Args, END_TO_END};
use poi360_sim::json::{parse_json, JsonValue};

fn grid_digest(shards: usize) -> u64 {
    let mut cfg = workloads::grid_config(5);
    cfg.shards = shards;
    workloads::verify(&Reports::Grid(Ok(MultiGrid::new(cfg).run()))).digest
}

#[test]
fn grid_digest_is_identical_at_width_1_and_2() {
    assert_eq!(grid_digest(1), grid_digest(2));
}

#[test]
fn the_seed_changes_every_workload_digest() {
    for w in Workload::ALL {
        let a = round(w, 1, 1, &mut ()).outcome;
        let b = round(w, 2, 1, &mut ()).outcome;
        assert!(a.attempted > 0 && a.failed == 0, "{}: {:?}", w.name(), a.failures);
        assert_ne!(a.digest, b.digest, "{}: the seed must reach the inputs", w.name());
        assert_eq!(a.digest, round(w, 1, 1, &mut ()).outcome.digest, "{} repeats", w.name());
    }
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_array).unwrap_or_else(|| panic!("no `{key}` array"))
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let doc = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String, String)> {
        entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name").into(), field(m, "unit").into(), field(m, "better").into()))
            .collect()
    };
    let own = |v: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        v.iter().map(|&(n, u, b)| (n.into(), u.into(), b.into())).collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> =
        entries(&doc, "workloads").iter().map(|w| field(w, "name")).collect();
    let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, own);

    // The timed run prints exactly the end-to-end names, in order.
    let args = Args { workload: Workload::Call, seed: 3, seconds: 1, trace: false };
    let out = timed(&args);
    assert!(out.correct && out.attempted > 0 && out.failed == 0);
    let printed = parse_json(&result_line(&out)).unwrap();
    let JsonValue::Object(members) = printed.get("metrics").unwrap() else { panic!("metrics") };
    let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let own: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, own);
}

#[test]
fn percentiles_refuse_fewer_than_ten_samples_beyond() {
    let v: Vec<f64> = (0..500).map(f64::from).collect();
    assert!(percentile(&v, 0.99).is_err(), "p99 of 500 leaves 5 beyond");
    let v: Vec<f64> = (0..100 * MIN_TAIL).map(|k| k as f64).collect();
    assert!(percentile(&v, 0.99).is_ok());
    let mut h = Hist::new();
    (1..=500).for_each(|k| h.record(k as f64));
    assert!(h.percentile(0.99).is_err());
}
