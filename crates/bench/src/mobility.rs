//! Shared harness for the hex-grid mobility runs.
//!
//! Both the `reproduce mobility` subcommand and the handover regression
//! tests drive the same [`MobilityScenario`] presets through the same
//! invariants, defined exactly once here: every convoy flow must hand
//! over at least once, packet conservation must hold exactly across
//! every migration (accepted == delivered + flushed + still queued, for
//! flows and load UEs alike), first-transmission video must never
//! reorder or duplicate, the delivery gap around each handover must stay
//! bounded, and the probe plane must never see an out-of-order sample.
//! A run is a pure function of its seed — interference is published one
//! subframe late and the sharded driver merges everything at fixed epoch
//! barriers — so the JSONL stream is asserted byte-identical across
//! reruns and shard/worker-pool widths.

use poi360_core::multicell::{MultiGrid, MultiGridConfig, MultiGridReport};
use poi360_lte::grid::MobilityKind;
use poi360_lte::scenario::MobilityScenario;
use poi360_sim::time::SimDuration;

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
        // out also shards a single grid — and the thread-invariance
        // checks below double as shard-width-invariance checks.
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
    /// One-line description of the preset.
    pub what: &'static str,
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

/// Run one scenario at one scale and judge it. Returns the outcome plus
/// the raw JSONL probe stream — byte-identical across calls with the
/// same arguments, which is exactly what callers assert.
pub fn run_case(
    ms: &MobilityScenario,
    scale: &MobilityScale,
    seed: u64,
) -> (MobilityOutcome, Vec<u8>) {
    let sink = crate::runner::stamped_sink(seed);
    let report = MultiGrid::traced(grid_config(ms, scale, seed), sink.clone()).run();
    let bytes = crate::runner::finish_sink(sink);
    let verdict = judge(ms, &report);
    (MobilityOutcome { scenario: ms.name, what: ms.what, report, verdict }, bytes)
}

/// Everything one `reproduce mobility` invocation produces: the
/// rendered report text (the golden artifact), the failure count, and
/// the main run's JSONL probe stream.
pub struct MobilityProtocol {
    /// Rendered per-flow table + invariant/determinism lines. This text
    /// is what `tests/golden.rs` pins — it deliberately excludes file
    /// paths and anything else that varies across checkouts.
    pub text: String,
    /// Violated invariants across the whole protocol (0 = pass).
    pub failures: usize,
    /// JSONL probe stream of the main (seed) run.
    pub bytes: Vec<u8>,
}

/// The full mobility protocol for one `scenario x scale x seed`: prove
/// the probe stream byte-identical across worker-pool widths, judge the
/// invariants on a 3-seed matrix, check the seeds actually diverge, and
/// render the per-flow table. Shared verbatim by `reproduce mobility`
/// and the golden test.
pub fn run_protocol(ms: &MobilityScenario, scale: &MobilityScale, seed: u64) -> MobilityProtocol {
    use poi360_metrics::table::Table;

    // Determinism proof: the identical case pinned to one worker and to
    // several must emit byte-identical JSONL streams.
    crate::runner::set_worker_threads(1);
    let (outcome, bytes) = run_case(ms, scale, seed);
    crate::runner::set_worker_threads(4);
    let (_, wide_bytes) = run_case(ms, scale, seed);
    crate::runner::set_worker_threads(0);
    let thread_invariant = bytes == wide_bytes;

    // Seed matrix: the invariants must hold across seeds, and distinct
    // seeds must actually diverge.
    let matrix = run_matrix(ms, scale, &[seed, seed + 1, seed + 2]);
    let seeds_diverge = matrix[0].2 != matrix[1].2 && matrix[1].2 != matrix[2].2;

    let mut failures = 0;
    let r = &outcome.report;
    let mut t = Table::new(
        format!(
            "Hex-grid mobility — `{}`, {}s, {} cells, {} flows + {} loads, seed {seed}",
            ms.name,
            scale.seconds,
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
    let mut text = t.render();
    let v = &outcome.verdict;
    text.push_str(&format!(
        "invariants: {}\n",
        if v.pass() { "pass".to_string() } else { format!("FAIL: {}", v.failures().join(",")) }
    ));
    failures += v.failures().len();
    for (mseed, mo_out, _) in &matrix {
        if !mo_out.verdict.pass() {
            text.push_str(&format!(
                "seed {mseed}: FAIL: {}\n",
                mo_out.verdict.failures().join(",")
            ));
            failures += 1;
        }
    }
    text.push_str(&format!(
        "load UEs: {} handovers, {} RLFs, {} conservation violations\n",
        r.load_handovers, r.load_rlfs, r.load_conservation_violations
    ));
    text.push_str(&format!(
        "thread invariance: {}\n",
        if thread_invariant {
            "byte-identical across worker counts"
        } else {
            "FAIL: streams differ"
        }
    ));
    if !thread_invariant {
        failures += 1;
    }
    text.push_str(&format!(
        "seed matrix: 3 seeds judged, streams {}\n",
        if seeds_diverge { "diverge as expected" } else { "FAIL: did not diverge" }
    ));
    if !seeds_diverge {
        failures += 1;
    }
    MobilityProtocol { text, failures, bytes }
}

/// Run one scenario across several seeds, fanning the independent runs
/// across the worker pool. Results come back in seed order.
pub fn run_matrix(
    ms: &MobilityScenario,
    scale: &MobilityScale,
    seeds: &[u64],
) -> Vec<(u64, MobilityOutcome, Vec<u8>)> {
    let jobs: Vec<u64> = seeds.to_vec();
    let scale = *scale;
    let ms = ms.clone();
    crate::runner::run_jobs(jobs, move |seed| {
        let (outcome, bytes) = run_case(&ms, &scale, seed);
        (seed, outcome, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_convoy_passes_and_is_byte_identical() {
        let ms = MobilityScenario::by_name("convoy").expect("preset exists");
        let (a, a_bytes) = run_case(&ms, &MobilityScale::smoke(), 3);
        assert!(a.verdict.pass(), "failures: {:?}", a.verdict.failures());
        assert_eq!(a.verdict.flows_with_handover, a.report.flow_stats.len());
        let (_, b_bytes) = run_case(&ms, &MobilityScale::smoke(), 3);
        assert_eq!(a_bytes, b_bytes, "mobility reruns must be byte-identical");
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let ms = MobilityScenario::by_name("convoy").expect("preset exists");
        let scale = MobilityScale::smoke();
        crate::runner::set_worker_threads(1);
        let serial = run_matrix(&ms, &scale, &[5, 6]);
        crate::runner::set_worker_threads(4);
        let par = run_matrix(&ms, &scale, &[5, 6]);
        crate::runner::set_worker_threads(0);
        assert_eq!(serial.len(), par.len());
        for ((s_seed, _, s_bytes), (p_seed, _, p_bytes)) in serial.iter().zip(par.iter()) {
            assert_eq!(s_seed, p_seed, "seed order preserved");
            assert_eq!(s_bytes, p_bytes, "seed {s_seed} stream moved with thread count");
        }
        assert_ne!(serial[0].2, serial[1].2, "different seeds must diverge");
    }

    #[test]
    fn late_ho_turns_handovers_into_rlfs() {
        let late = MobilityScenario::by_name("late_ho").expect("preset exists");
        let (o, _) = run_case(&late, &MobilityScale::smoke(), 3);
        let rlfs: u64 = o.report.flow_stats.iter().map(|f| f.rlfs).sum();
        let base_rlfs: u64 = {
            let ms = MobilityScenario::by_name("convoy").expect("preset exists");
            let (b, _) = run_case(&ms, &MobilityScale::smoke(), 3);
            b.report.flow_stats.iter().map(|f| f.rlfs).sum()
        };
        assert!(
            rlfs > base_rlfs,
            "conservative A3 must cause more RLFs (late {rlfs} vs base {base_rlfs})"
        );
        assert!(o.verdict.conserved, "RLF flushes still conserve packets exactly");
    }
}
