//! The controller × tiling tournament (`reproduce arena`).
//!
//! Every rate controller races every tiling policy; each pairing (a
//! *cell* of the league) runs two legs:
//!
//! * a **quality leg** — a shared-cell ensemble (two identical flows of
//!   the pairing plus emergent background load) scored on the paper's
//!   metrics: mean ROI PSNR, pooled MOS Good-or-better, freeze ratio,
//!   Jain fairness;
//! * **fault legs** — the pairing runs the fault suite's presets through
//!   `faults::judge`, and the league counts how many recovery invariants
//!   held.
//!
//! One job per (cell, leg) fans out over [`crate::runner::run_jobs`],
//! each tracing into its own stamped in-memory JSONL sink; concatenating
//! the buffers in input order makes the arena artifact byte-identical at
//! any `POI360_THREADS` width (ci.sh `cmp`-gates it, like the study).
//! Rendering lives in `poi360_analyse::league` — this module only
//! reduces runs to [`LeagueRow`]s.

use poi360_analyse::league::{league_report, LeagueRow};
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_core::multicell::{FlowSpec, MultiCell, MultiCellConfig};
use poi360_lte::scenario::{unknown_scenario_error, FaultScenario, PresetInfo, FAULT_RUN_SECS};
use poi360_metrics::mos::MosPdf;
use poi360_sim::time::SimDuration;
use poi360_sim::trace::SinkHandle;
use poi360_sim::Recorder;
use std::sync::Arc;

/// CLI vocabulary for the controllers the arena can race.
pub const CONTROLLER_NAMES: [&str; 3] = ["fbcc", "gcc", "occ"];

/// CLI vocabulary for the tiling policies (`roi` is the paper's
/// distance-based POI360 policy; `pano` and `ghosh` are the related-work
/// modulations in `video::perceptual`).
pub const POLICY_NAMES: [&str; 3] = ["roi", "pano", "ghosh"];

/// Resolve a controller name, erroring with the valid set.
pub fn controller_by_name(name: &str) -> Result<RateControlKind, String> {
    match name {
        "fbcc" => Ok(RateControlKind::Fbcc),
        "gcc" => Ok(RateControlKind::Gcc),
        "occ" => Ok(RateControlKind::Occ),
        other => Err(unknown_scenario_error("controller", other, &CONTROLLER_NAMES)),
    }
}

/// Resolve a tiling-policy name, erroring with the valid set.
pub fn policy_by_name(name: &str) -> Result<CompressionScheme, String> {
    match name {
        "roi" => Ok(CompressionScheme::Poi360),
        "pano" => Ok(CompressionScheme::Pano),
        "ghosh" => Ok(CompressionScheme::Ghosh),
        other => Err(unknown_scenario_error("tiling", other, &POLICY_NAMES)),
    }
}

/// The tiling-policy CLI name of a scheme the arena admitted.
fn policy_name(scheme: CompressionScheme) -> &'static str {
    match scheme {
        CompressionScheme::Poi360 => "roi",
        CompressionScheme::Pano => "pano",
        CompressionScheme::Ghosh => "ghosh",
        other => unreachable!("policy_by_name admitted {other:?}"),
    }
}

/// Arena names for `reproduce --list`, alongside the scenario presets.
pub fn registry() -> Vec<PresetInfo> {
    let mut out = Vec::new();
    for (name, what) in [
        ("fbcc", "arena controller: POI360's firmware-buffer-aware control"),
        ("gcc", "arena controller: stock WebRTC delay-gradient control"),
        ("occ", "arena controller: PHY-assisted grant/backlog control"),
    ] {
        out.push(PresetInfo { family: "arena", name, what });
    }
    for (name, what) in [
        ("roi", "arena tiling: POI360 distance-based compression matrix"),
        ("pano", "arena tiling: Pano-style quality-sensitivity weighting"),
        ("ghosh", "arena tiling: Ghosh-style per-tile bitrate optimization"),
    ] {
        out.push(PresetInfo { family: "arena", name, what });
    }
    out
}

/// The tournament matrix, after CLI parsing.
#[derive(Clone, Debug)]
pub struct ArenaConfig {
    /// Controllers to race, league order.
    pub controllers: Vec<RateControlKind>,
    /// Tiling policies to race, league order.
    pub policies: Vec<CompressionScheme>,
    /// Per-leg run length, seconds.
    pub seconds: u64,
    /// Master seed for every leg.
    pub seed: u64,
    /// Fault presets each cell must survive.
    pub fault_scenarios: Vec<FaultScenario>,
}

impl ArenaConfig {
    /// The full tournament: every controller × every policy × the whole
    /// 7-scenario fault suite at full timeline scale.
    pub fn full() -> Self {
        ArenaConfig {
            controllers: CONTROLLER_NAMES.iter().map(|n| controller_by_name(n).unwrap()).collect(),
            policies: POLICY_NAMES.iter().map(|n| policy_by_name(n).unwrap()).collect(),
            seconds: FAULT_RUN_SECS,
            seed: 1,
            fault_scenarios: FaultScenario::all(),
        }
    }

    /// CI scale: same 3×3 matrix, compressed timeline, three fault
    /// presets covering the radio, diag, and load seams.
    pub fn smoke() -> Self {
        ArenaConfig {
            seconds: 6,
            fault_scenarios: ["rlf", "diag_freeze", "flash_crowd"]
                .iter()
                .map(|n| FaultScenario::by_name(n).expect("preset exists"))
                .collect(),
            ..ArenaConfig::full()
        }
    }
}

/// One cell of the league matrix.
#[derive(Clone, Copy, Debug)]
struct ArenaCell {
    rc: RateControlKind,
    scheme: CompressionScheme,
}

/// One unit of parallel work: a cell's quality leg or one fault leg.
#[derive(Clone, Debug)]
enum Leg {
    Quality,
    Fault(FaultScenario),
}

/// A leg's contribution to its cell's row.
enum LegScore {
    Quality { roi_psnr_db: f64, mos_good: f64, freeze: f64, jain: f64, throughput_bps: f64 },
    Fault { held: usize, judged: usize, failures: Vec<String> },
}

/// Everything one `reproduce arena` invocation produces, minus file IO.
pub struct ArenaProtocol {
    /// Rendered league report (the golden artifact).
    pub text: String,
    /// Total violated fault invariants; 0 = pass.
    pub failures: usize,
    /// Every leg's JSONL stream concatenated in league order.
    pub jsonl: Vec<u8>,
    /// The scored rows, league order (diagnostics / tests).
    pub rows: Vec<LeagueRow>,
}

/// Run the whole tournament: expand cells controller-major, fan every
/// leg across the worker pool, reduce to league rows, render.
pub fn run_protocol(cfg: &ArenaConfig) -> ArenaProtocol {
    let mut cells = Vec::new();
    for &rc in &cfg.controllers {
        for &scheme in &cfg.policies {
            cells.push(ArenaCell { rc, scheme });
        }
    }
    let mut jobs: Vec<(usize, ArenaCell, Leg)> = Vec::new();
    for (k, &cell) in cells.iter().enumerate() {
        jobs.push((k, cell, Leg::Quality));
        for fs in &cfg.fault_scenarios {
            jobs.push((k, cell, Leg::Fault(fs.clone())));
        }
    }
    let seconds = cfg.seconds;
    let seed = cfg.seed;
    let results = crate::runner::run_jobs(jobs, move |(k, cell, leg)| {
        let sink = crate::runner::stamped_sink(seed);
        let handle: SinkHandle = sink.clone();
        let score = match leg {
            Leg::Quality => {
                let mc = MultiCellConfig {
                    background_ues: 4,
                    flows: vec![
                        FlowSpec {
                            scheme: cell.scheme,
                            rate_control: cell.rc,
                            ..Default::default()
                        };
                        2
                    ],
                    duration: SimDuration::from_secs(seconds),
                    seed,
                    ..Default::default()
                };
                let report = MultiCell::traced(mc, Arc::clone(&handle)).run();
                let n = report.flows.len() as f64;
                let mut mos = MosPdf::new();
                for f in &report.flows {
                    mos.merge(&f.mos());
                }
                LegScore::Quality {
                    roi_psnr_db: report.flows.iter().map(|f| f.mean_psnr_db()).sum::<f64>() / n,
                    mos_good: mos.good_or_better(),
                    freeze: report.flows.iter().map(|f| f.freeze_ratio()).sum::<f64>() / n,
                    jain: report.jain_throughput(),
                    throughput_bps: report
                        .flows
                        .iter()
                        .map(|f| f.mean_throughput_bps())
                        .sum::<f64>()
                        / n,
                }
            }
            Leg::Fault(fs) => {
                let src = format!("{}.{}.{}", cell.rc.label(), policy_name(cell.scheme), fs.name);
                let recorder = Recorder::to_sink(Arc::clone(&handle), &src);
                let out = crate::faults::run_case_with_scheme(
                    &fs,
                    cell.scheme,
                    cell.rc,
                    seconds,
                    seed,
                    recorder,
                );
                let names = out.verdict.failures();
                LegScore::Fault {
                    held: 4 - names.len(),
                    judged: 4,
                    failures: names.iter().map(|f| format!("{}: {f}", fs.name)).collect(),
                }
            }
        };
        drop(handle);
        (k, score, crate::runner::finish_sink(sink))
    });

    let mut rows: Vec<LeagueRow> = cells
        .iter()
        .map(|cell| LeagueRow {
            controller: cell.rc.label().to_string(),
            policy: policy_name(cell.scheme).to_string(),
            roi_psnr_db: 0.0,
            mos_good: 0.0,
            freeze: 0.0,
            jain: 0.0,
            throughput_bps: 0.0,
            fault_passes: 0,
            fault_total: 0,
            fault_failures: Vec::new(),
        })
        .collect();
    let mut jsonl = Vec::new();
    for (k, score, bytes) in results {
        jsonl.extend_from_slice(&bytes);
        let row = &mut rows[k];
        match score {
            LegScore::Quality { roi_psnr_db, mos_good, freeze, jain, throughput_bps } => {
                row.roi_psnr_db = roi_psnr_db;
                row.mos_good = mos_good;
                row.freeze = freeze;
                row.jain = jain;
                row.throughput_bps = throughput_bps;
            }
            LegScore::Fault { held, judged, failures } => {
                row.fault_passes += held;
                row.fault_total += judged;
                row.fault_failures.extend(failures);
            }
        }
    }
    let failures = rows.iter().map(|r| r.failures()).sum();
    let title = format!(
        "Controller x tiling arena ({} cells, {}s legs, {} fault presets, seed {})",
        rows.len(),
        cfg.seconds,
        cfg.fault_scenarios.len(),
        cfg.seed
    );
    let text = league_report(&title, &rows);
    ArenaProtocol { text, failures, jsonl, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ArenaConfig {
        ArenaConfig {
            controllers: vec![RateControlKind::Fbcc, RateControlKind::Occ],
            policies: vec![CompressionScheme::Poi360, CompressionScheme::Pano],
            seconds: 3,
            seed: 5,
            fault_scenarios: vec![FaultScenario::by_name("rlf").expect("preset")],
        }
    }

    #[test]
    fn names_resolve_and_unknowns_list_the_valid_set() {
        for n in CONTROLLER_NAMES {
            controller_by_name(n).expect(n);
        }
        for n in POLICY_NAMES {
            policy_by_name(n).expect(n);
        }
        let e = controller_by_name("tcp").unwrap_err();
        assert_eq!(e, "unknown controller scenario \"tcp\" (expected one of: fbcc, gcc, occ)");
        let e = policy_by_name("tiles").unwrap_err();
        assert_eq!(e, "unknown tiling scenario \"tiles\" (expected one of: roi, pano, ghosh)");
    }

    #[test]
    fn registry_rows_carry_the_cli_vocabulary() {
        let names: Vec<&str> = registry().iter().map(|p| p.name).collect();
        for n in CONTROLLER_NAMES.iter().chain(POLICY_NAMES.iter()) {
            assert!(names.contains(n), "{n} missing from registry");
        }
        assert!(registry().iter().all(|p| p.family == "arena"));
    }

    #[test]
    fn smoke_covers_the_full_matrix() {
        let cfg = ArenaConfig::smoke();
        assert_eq!(cfg.controllers.len() * cfg.policies.len(), 9);
        assert_eq!(cfg.fault_scenarios.len(), 3);
        assert!(cfg.seconds < FAULT_RUN_SECS);
    }

    #[test]
    fn tiny_arena_scores_every_cell_and_is_rerun_stable() {
        let cfg = tiny();
        let a = run_protocol(&cfg);
        assert_eq!(a.rows.len(), 4);
        for row in &a.rows {
            assert!(row.roi_psnr_db > 0.0, "quality leg missing: {row:?}");
            assert_eq!(row.fault_total, 4, "one fault preset, four invariants");
        }
        assert!(a.text.contains("Standings"));
        let b = run_protocol(&cfg);
        assert_eq!(a.jsonl, b.jsonl, "arena reruns must be byte-identical");
        assert_eq!(a.text, b.text);
    }
}
