//! The mobility family's case runner, judge, and renderer.
//!
//! The `mobility` and `ho_tails` studies (`bench::study`) and the
//! handover regression tests drive the same [`MobilityScenario`]
//! presets through the same invariants, defined exactly once here:
//! every convoy flow must hand over at least once, packet conservation
//! must hold exactly across every migration (accepted == delivered +
//! flushed + still queued, for flows and load UEs alike),
//! first-transmission video must never reorder or duplicate, the
//! delivery gap around each handover must stay bounded, and the probe
//! plane must never see an out-of-order sample. A run is a pure
//! function of its seed — interference is published one subframe late
//! and the sharded driver merges everything at fixed epoch barriers —
//! so its JSONL stream is byte-identical across reruns and
//! shard/worker-pool widths (`tests/determinism.rs` and the `ci.sh`
//! width `cmp`s check both).

use poi360_analyse::study::{StudyCase, StudyConfig};
use poi360_core::multicell::{MultiGrid, MultiGridConfig, MultiGridReport};
use poi360_lte::grid::MobilityKind;
use poi360_lte::scenario::MobilityScenario;
use poi360_metrics::dist::percentile;
use poi360_metrics::table::{fnum, Table};
use poi360_sim::time::SimDuration;
use poi360_sim::trace::SinkHandle;

/// Recommended run length for the named mobility scenarios: a 500 m
/// inter-site convoy at 20 m/s crosses its first cell boundary by
/// ~19 s, so 30 s guarantees one handover per flow with margin.
pub const MOBILITY_RUN_SECS: u64 = 30;

/// Population/geometry scale of one mobility run.
#[derive(Clone, Copy, Debug)]
pub struct MobilityScale {
    /// Run length, seconds.
    pub seconds: u64,
    /// Telephony sessions under test.
    pub flows: usize,
    /// Mobile cross-traffic UEs.
    pub load_ues: usize,
    /// Inter-site distance override (None = preset value).
    pub isd_m: Option<f64>,
    /// Speed override (None = preset value).
    pub speed_mps: Option<f64>,
}

impl MobilityScale {
    /// Full scale: the acceptance-grade 7-cell, 208-UE convoy.
    pub fn full() -> Self {
        MobilityScale {
            seconds: MOBILITY_RUN_SECS,
            flows: 8,
            load_ues: 200,
            isd_m: None,
            speed_mps: None,
        }
    }

    /// CI scale: a compressed lattice (160 m sites, 30 m/s) so every
    /// flow still crosses a boundary inside 8 simulated seconds.
    pub fn smoke() -> Self {
        MobilityScale {
            seconds: 8,
            flows: 4,
            load_ues: 28,
            isd_m: Some(160.0),
            speed_mps: Some(30.0),
        }
    }
}

/// Materialize the grid configuration for one `scenario x scale x seed`.
pub fn grid_config(ms: &MobilityScenario, scale: &MobilityScale, seed: u64) -> MultiGridConfig {
    MultiGridConfig {
        a3: ms.a3,
        rings: ms.rings,
        isd_m: scale.isd_m.unwrap_or(ms.isd_m),
        mobility: ms.kind,
        speed_mps: scale.speed_mps.unwrap_or(ms.speed_mps),
        flows: vec![Default::default(); scale.flows],
        load_ues: scale.load_ues,
        duration: SimDuration::from_secs(scale.seconds),
        seed,
        // Shard width rides the worker-pool resolution (`--threads` /
        // `POI360_THREADS`), so the same knob that fans independent jobs
        // out also shards a single grid — and the worker-width `cmp`s
        // in ci.sh double as shard-width-invariance checks.
        shards: crate::runner::worker_threads(),
        ..Default::default()
    }
}

/// Invariant verdicts for one finished mobility run.
#[derive(Clone, Debug)]
pub struct MobilityVerdict {
    /// Flows that experienced at least one handover or RLF.
    pub flows_with_handover: usize,
    /// Every flow handed over (required only when the trajectory
    /// guarantees a boundary crossing — convoy presets).
    pub coverage_ok: bool,
    /// Exact packet conservation held for every flow and load UE.
    pub conserved: bool,
    /// No first-transmission video packet reordered or duplicated.
    pub in_order: bool,
    /// Largest delivery gap around any handover, ms.
    pub max_gap_ms: f64,
    /// Every gap stayed under the interruption bound.
    pub gaps_bounded: bool,
    /// The probe plane never dropped an out-of-order sample.
    pub probes_in_order: bool,
}

/// Largest tolerated delivery gap around a handover, ms. A clean
/// handover interrupts for ~45 ms and an RLF re-establishment for
/// ~240 ms; the bound leaves room for the rate controller to refill an
/// RLF-flushed buffer before the next departure.
pub const GAP_BOUND_MS: f64 = 2_000.0;

impl MobilityVerdict {
    /// Names of every invariant this run violated (empty = pass).
    pub fn failures(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.coverage_ok {
            out.push("handover-coverage");
        }
        if !self.conserved {
            out.push("packet-conservation");
        }
        if !self.in_order {
            out.push("video-order");
        }
        if !self.gaps_bounded {
            out.push("gap-bound");
        }
        if !self.probes_in_order {
            out.push("probe-order");
        }
        out
    }

    /// True when every invariant held.
    pub fn pass(&self) -> bool {
        self.failures().is_empty()
    }
}

/// One completed mobility run: the report plus its verdicts.
#[derive(Clone, Debug)]
pub struct MobilityOutcome {
    /// Preset name (`convoy`, `late_ho`, ...).
    pub scenario: &'static str,
    /// The full grid report.
    pub report: MultiGridReport,
    /// The invariant verdicts.
    pub verdict: MobilityVerdict,
}

/// Does this trajectory family guarantee every flow crosses a cell
/// boundary (making handover coverage a hard invariant)?
pub fn expects_full_coverage(kind: MobilityKind) -> bool {
    matches!(kind, MobilityKind::Convoy)
}

/// Judge the handover invariants of one finished run.
pub fn judge(ms: &MobilityScenario, report: &MultiGridReport) -> MobilityVerdict {
    let flows_with_handover =
        report.flow_stats.iter().filter(|f| f.handovers + f.rlfs >= 1).count();
    let coverage_ok =
        !expects_full_coverage(ms.kind) || flows_with_handover == report.flow_stats.len();
    let conserved =
        report.flow_stats.iter().all(|f| f.conserved()) && report.load_conservation_violations == 0;
    let in_order = report.flow_stats.iter().all(|f| f.seq_violations == 0);
    let max_gap_ms =
        report.flow_stats.iter().flat_map(|f| f.gap_ms.iter().copied()).fold(0.0_f64, f64::max);
    MobilityVerdict {
        flows_with_handover,
        coverage_ok,
        conserved,
        in_order,
        max_gap_ms,
        gaps_bounded: max_gap_ms <= GAP_BOUND_MS,
        probes_in_order: report.probe_drops == 0,
    }
}

/// Run one scenario at one scale, tracing into `sink`, and judge it.
pub fn run_case(
    ms: &MobilityScenario,
    scale: &MobilityScale,
    seed: u64,
    sink: SinkHandle,
) -> MobilityOutcome {
    let report = MultiGrid::traced(grid_config(ms, scale, seed), sink).run();
    let verdict = judge(ms, &report);
    MobilityOutcome { scenario: ms.name, report, verdict }
}

fn verdict_line(v: &MobilityVerdict) -> String {
    if v.pass() {
        "pass".to_string()
    } else {
        format!("FAIL: {}", v.failures().join(","))
    }
}

/// Render the mobility family's report section. Per scenario: the base
/// seed's per-flow ledger and verdict, a line for every later seed that
/// failed, and the load-UE counters; then the delivery-gap tails pooled
/// across seeds. `runs` come in case order (scenario-major, then seed).
/// Returns the text and the number of violated invariants.
pub fn render(cfg: &StudyConfig, runs: &[(&StudyCase, &MobilityOutcome)]) -> (String, usize) {
    let mut text = String::new();
    for scenario in &cfg.scenarios {
        let mut group = runs.iter().filter(|(c, _)| c.scenario == *scenario);
        let (base, first) = group.next().expect("every listed scenario ran");
        text.push_str(&flow_table(cfg.seconds, base.seed, first));
        text.push_str(&format!("invariants: {}\n", verdict_line(&first.verdict)));
        for (case, out) in group.filter(|(_, o)| !o.verdict.pass()) {
            text.push_str(&format!("seed {}: {}\n", case.seed, verdict_line(&out.verdict)));
        }
        let r = &first.report;
        text.push_str(&format!(
            "load UEs: {} handovers, {} RLFs, {} conservation violations\n\n",
            r.load_handovers, r.load_rlfs, r.load_conservation_violations
        ));
    }

    let mut t = Table::new(
        "Delivery-gap tails across handovers (ms, pooled across seeds)",
        &["scenario", "gaps", "p50", "p95", "p99", "max"],
    );
    for scenario in &cfg.scenarios {
        let gaps: Vec<f64> = runs
            .iter()
            .filter(|(c, _)| c.scenario == *scenario)
            .flat_map(|(_, o)| o.report.flow_stats.iter().flat_map(|f| f.gap_ms.iter().copied()))
            .filter(|g| g.is_finite())
            .collect();
        let q = |p: f64| percentile(&gaps, p).map_or("n/a".into(), |v| fnum(v, 1));
        let max = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        t.row(vec![
            scenario.clone(),
            gaps.len().to_string(),
            q(0.50),
            q(0.95),
            q(0.99),
            if gaps.is_empty() { "n/a".into() } else { fnum(max, 1) },
        ]);
    }
    text.push_str(&t.render());
    text.push('\n');
    let failures = runs.iter().map(|(_, o)| o.verdict.failures().len()).sum();
    (text, failures)
}

/// One run's per-flow ledger: handovers, RLFs, the packet conservation
/// terms, the worst delivery gap, and PSNR either side of the handover.
fn flow_table(seconds: u64, seed: u64, out: &MobilityOutcome) -> String {
    let r = &out.report;
    let mut t = Table::new(
        format!(
            "Hex-grid mobility — `{}`, {seconds}s, {} cells, {} flows + {} loads, seed {seed}",
            out.scenario,
            r.cells,
            r.flows.len(),
            r.load_ues
        ),
        &[
            "Flow",
            "HO",
            "RLF",
            "Enq",
            "Delv",
            "Flush",
            "Queued",
            "Max gap ms",
            "PSNR pre",
            "PSNR post",
            "Conserved",
        ],
    );
    for fs in &r.flow_stats {
        let max_gap = fs.gap_ms.iter().copied().fold(0.0_f64, f64::max);
        t.row(vec![
            fs.label.clone(),
            fs.handovers.to_string(),
            fs.rlfs.to_string(),
            fs.enqueued.to_string(),
            fs.delivered.to_string(),
            fs.flushed.to_string(),
            fs.queued_at_end.to_string(),
            format!("{max_gap:.0}"),
            format!("{:.1}", fs.psnr_before_db),
            format!("{:.1}", fs.psnr_after_db),
            if fs.conserved() && fs.seq_violations == 0 { "yes".into() } else { "NO".into() },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::trace::NullSink;
    use std::sync::{Arc, Mutex};

    fn null() -> SinkHandle {
        Arc::new(Mutex::new(NullSink))
    }

    #[test]
    fn smoke_convoy_passes_with_full_coverage() {
        let ms = MobilityScenario::by_name("convoy").expect("preset exists");
        let a = run_case(&ms, &MobilityScale::smoke(), 3, null());
        assert!(a.verdict.pass(), "failures: {:?}", a.verdict.failures());
        assert_eq!(a.verdict.flows_with_handover, a.report.flow_stats.len());
    }

    #[test]
    fn late_ho_turns_handovers_into_rlfs() {
        let late = MobilityScenario::by_name("late_ho").expect("preset exists");
        let o = run_case(&late, &MobilityScale::smoke(), 3, null());
        let rlfs: u64 = o.report.flow_stats.iter().map(|f| f.rlfs).sum();
        let base_rlfs: u64 = {
            let ms = MobilityScenario::by_name("convoy").expect("preset exists");
            let b = run_case(&ms, &MobilityScale::smoke(), 3, null());
            b.report.flow_stats.iter().map(|f| f.rlfs).sum()
        };
        assert!(
            rlfs > base_rlfs,
            "conservative A3 must cause more RLFs (late {rlfs} vs base {base_rlfs})"
        );
        assert!(o.verdict.conserved, "RLF flushes still conserve packets exactly");
    }
}
