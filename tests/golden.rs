//! Golden-output tests: re-run the Table 1 and Fig. 5/6 generators at
//! the default fixed-seed configuration, plus the `cc_matrix`, `arena`
//! and `mobility` study presets at smoke scale, and assert the numbers
//! match the checked-in `bench_results/{table1,fig5,fig6}.txt` and
//! `bench_results/study_<preset>_smoke.txt` within tolerance. After an
//! intentional calibration change, regenerate a figure with
//! `cargo run --release -p poi360-bench --bin reproduce -- <name>` and a
//! study with
//! `cargo run --release -p poi360-bench --bin reproduce -- study <preset> --smoke`.

use poi360_bench::experiments as exp;
use poi360_bench::runner::ExpConfig;

/// Absolute + relative tolerance for one golden number.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.05 + 0.02 * a.abs().max(b.abs())
}

/// Every parseable number per line, in order (tables plus headline
/// summary lines; prose tokens are skipped).
fn numeric_rows(text: &str) -> Vec<Vec<f64>> {
    text.lines()
        .filter_map(|l| {
            let nums: Vec<f64> =
                l.split_whitespace().filter_map(|t| t.trim_end_matches('%').parse().ok()).collect();
            (!nums.is_empty()).then_some(nums)
        })
        .collect()
}

fn golden(name: &str) -> String {
    let path = format!("{}/bench_results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

fn assert_rows_match(name: &str, fresh: &str, golden: &str) {
    let (f, g) = (numeric_rows(fresh), numeric_rows(golden));
    assert_eq!(
        f.len(),
        g.len(),
        "{name}: row count changed\n--- fresh ---\n{fresh}\n--- golden ---\n{golden}"
    );
    for (row, (fr, gr)) in f.iter().zip(&g).enumerate() {
        assert_eq!(fr.len(), gr.len(), "{name} row {row}: shape changed ({fr:?} vs {gr:?})");
        for (a, b) in fr.iter().zip(gr) {
            assert!(close(*a, *b), "{name} row {row}: {a} vs golden {b}\n--- fresh ---\n{fresh}");
        }
    }
}

/// Table 1 is pure arithmetic (the PSNR→MOS mapping); it must reproduce
/// byte for byte.
#[test]
fn table1_matches_golden_exactly() {
    assert_eq!(exp::table1(), golden("table1"), "table1 output drifted");
}

/// Fig. 5's buffer→TBS sweep at the default seed must match the
/// checked-in curve.
#[test]
fn fig5_matches_golden() {
    let fresh = exp::fig5(&ExpConfig::default());
    assert_rows_match("fig5", &fresh, &golden("fig5"));
}

/// Fig. 6's firmware-buffer CDF under GCC at the default seed must match
/// the checked-in distribution.
#[test]
fn fig6_matches_golden() {
    let fresh = exp::fig6(&ExpConfig::default());
    assert_rows_match("fig6", &fresh, &golden("fig6"));
}

/// Run a checked-in study preset at smoke scale through the experiment
/// engine, require every verdict to hold, and compare the report to
/// `bench_results/study_<preset>_smoke.txt`.
fn assert_study_matches_golden(preset: &str) {
    let cfg = poi360_analyse::study::by_name(preset).expect("preset exists");
    let protocol = poi360_bench::study::run_protocol(&cfg, true, None).expect("study runs");
    assert_eq!(protocol.failures, 0, "smoke {preset} must pass:\n{}", protocol.text);
    let name = format!("study_{preset}_smoke");
    assert_rows_match(&name, &protocol.text, &golden(&name));
}

/// The `cc_matrix` smoke report (2 controllers × 3 scenarios × 3 seeds)
/// must match the checked-in per-probe distribution tables, rollups,
/// controller deltas, and recovery verdicts.
#[test]
fn study_cc_matrix_smoke_matches_golden() {
    assert_study_matches_golden("cc_matrix");
}

/// The `arena` smoke league table at the default seed must match the
/// checked-in quality scores, and every fault verdict must hold (so a
/// verdict regression fails here before it fails in CI).
#[test]
fn arena_smoke_matches_golden() {
    assert_study_matches_golden("arena");
}

/// The `mobility` smoke report must match the checked-in per-flow
/// handover counts, conservation ledger, PSNR-across-handover numbers,
/// and delivery-gap tails, with every seed's invariants holding.
#[test]
fn mobility_smoke_matches_golden() {
    assert_study_matches_golden("mobility");
}
