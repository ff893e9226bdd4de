//! The experiment engine: the only case-matrix path in the repo.
//!
//! `poi360-analyse` owns the declaration ([`StudyConfig`]), the ingest,
//! and the probe-table rendering; this module owns everything that
//! drives sessions. [`run_protocol`] expands a config to its cases and
//! fans them out over [`crate::runner::run_jobs`]: each case runs in its
//! own worker, tracing into its own stamped in-memory JSONL sink, and the
//! results come back in input order, so the concatenated study artifact
//! is byte-identical at any worker-pool width — `ci.sh` proves it with
//! `cmp` across `POI360_THREADS=1` and `=4` for every smoke preset. The
//! cases are then judged and rendered with a plain `match` on the family:
//!
//! | family | one case | judge | report body |
//! |---|---|---|---|
//! | fault | a faulted session | `faults::judge` | probe tables + verdict table |
//! | mobility | a hex-grid run | `mobility::judge` | probe tables + per-flow ledgers + gap tails |
//! | arena | a quality or fault leg | league reduction | `analyse::league` table |
//!
//! Every family's violated invariants and any baseline drift count
//! toward [`StudyProtocol::failures`], i.e. the exit status.

use crate::mobility::{MobilityOutcome, MobilityScale};
use crate::runner::{finish_sink, run_jobs, stamped_sink};
use crate::{faults, mobility};
use poi360_analyse::chrome;
use poi360_analyse::ingest::RunTrace;
use poi360_analyse::league::{league_report, LeagueRow};
use poi360_analyse::report::{self, CaseTrace};
use poi360_analyse::study::{StudyCase, StudyConfig, StudyFamily, BASELINE_SCENARIO, QUALITY_LEG};
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_core::multicell::{FlowSpec, MultiCell, MultiCellConfig};
use poi360_lte::scenario::{FaultScenario, MobilityScenario, Scenario};
use poi360_metrics::mos::MosPdf;
use poi360_sim::fault::FaultPlan;
use poi360_sim::time::SimDuration;
use poi360_sim::trace::SinkHandle;
use poi360_sim::Recorder;

/// Resolve a fault-study scenario name, including the synthetic
/// `baseline` (quiet cell, empty plan — byte-identical to a clean run
/// by the fault plane's composition rule).
fn fault_scenario(name: &str) -> FaultScenario {
    if name == BASELINE_SCENARIO {
        FaultScenario {
            name: "baseline",
            what: "quiet cell, no faults injected",
            scenario: Scenario::quiet(),
            plan: FaultPlan::new(),
        }
    } else {
        FaultScenario::by_name(name)
            .unwrap_or_else(|| unreachable!("StudyConfig::validate admitted scenario {name:?}"))
    }
}

/// The rate controller behind a controller name the config admitted.
fn rate_control(name: &str) -> RateControlKind {
    match name {
        "fbcc" => RateControlKind::Fbcc,
        "gcc" => RateControlKind::Gcc,
        "occ" => RateControlKind::Occ,
        other => unreachable!("StudyConfig::validate admitted controller {other:?}"),
    }
}

/// The compression scheme behind a tiling name the config admitted.
fn tiling_scheme(name: &str) -> CompressionScheme {
    match name {
        "roi" => CompressionScheme::Poi360,
        "pano" => CompressionScheme::Pano,
        "ghosh" => CompressionScheme::Ghosh,
        other => unreachable!("StudyConfig::validate admitted tiling {other:?}"),
    }
}

/// The CI-scale variant of a study: same matrix, compressed runs — the
/// fault timeline 4x shorter, the mobility lattice swapped for the
/// compressed smoke grid (8 s, 160 m sites).
pub fn smoke_variant(cfg: &StudyConfig) -> StudyConfig {
    let mut out = cfg.clone();
    out.seconds = match cfg.family {
        StudyFamily::Fault | StudyFamily::Arena => 6,
        StudyFamily::Mobility => MobilityScale::smoke().seconds,
    };
    out
}

/// An arena quality leg's scores: the league table's quality columns.
struct Quality {
    roi_psnr_db: f64,
    mos_good: f64,
    freeze: f64,
    jain: f64,
    throughput_bps: f64,
}

/// What a case's judge reads besides its probe stream.
enum Outcome {
    /// A fault leg's recovery verdict (`None` for the synthetic
    /// baseline, which has no fault window to recover from).
    Fault(Option<faults::FaultVerdict>),
    /// A judged hex-grid run.
    Mobility(MobilityOutcome),
    /// An arena pairing's shared-cell scores.
    Quality(Quality),
}

/// Run one case, tracing into `sink`.
fn run_case(
    cfg: &StudyConfig,
    scale: &MobilityScale,
    case: &StudyCase,
    sink: SinkHandle,
) -> Outcome {
    let rc = || rate_control(case.rc.as_deref().expect("fault and arena cases carry a controller"));
    let scheme = case.tiling.as_deref().map_or(CompressionScheme::Poi360, tiling_scheme);
    match cfg.family {
        StudyFamily::Mobility => {
            let ms = MobilityScenario::by_name(&case.scenario).unwrap_or_else(|| {
                unreachable!("StudyConfig::validate admitted {:?}", case.scenario)
            });
            Outcome::Mobility(mobility::run_case(&ms, scale, case.seed, sink))
        }
        StudyFamily::Arena if case.scenario == QUALITY_LEG => {
            Outcome::Quality(quality_leg(rc(), scheme, cfg.seconds, case.seed, sink))
        }
        StudyFamily::Fault | StudyFamily::Arena => {
            let fs = fault_scenario(&case.scenario);
            let recorder = Recorder::to_sink(sink, &case.label);
            let out =
                faults::run_case_with_scheme(&fs, scheme, rc(), cfg.seconds, case.seed, recorder);
            Outcome::Fault((case.scenario != BASELINE_SCENARIO).then_some(out.verdict))
        }
    }
}

/// An arena pairing's quality leg: two identical flows of the pairing
/// sharing one cell with emergent background load.
fn quality_leg(
    rc: RateControlKind,
    scheme: CompressionScheme,
    seconds: u64,
    seed: u64,
    sink: SinkHandle,
) -> Quality {
    let mc = MultiCellConfig {
        background_ues: 4,
        flows: vec![FlowSpec { scheme, rate_control: rc, ..Default::default() }; 2],
        duration: SimDuration::from_secs(seconds),
        seed,
        ..Default::default()
    };
    let report = MultiCell::traced(mc, sink).run();
    let n = report.flows.len() as f64;
    let mut mos = MosPdf::new();
    for f in &report.flows {
        mos.merge(&f.mos());
    }
    Quality {
        roi_psnr_db: report.flows.iter().map(|f| f.mean_psnr_db()).sum::<f64>() / n,
        mos_good: mos.good_or_better(),
        freeze: report.flows.iter().map(|f| f.freeze_ratio()).sum::<f64>() / n,
        jain: report.jain_throughput(),
        throughput_bps: report.flows.iter().map(|f| f.mean_throughput_bps()).sum::<f64>() / n,
    }
}

/// The arena judge: reduce every leg to its pairing's [`LeagueRow`], in
/// case order. Quality scores are averaged across seeds; fault legs add
/// their held and judged invariants.
fn league(cfg: &StudyConfig, cases: &[CaseTrace], outcomes: &[Outcome]) -> Vec<LeagueRow> {
    let mut rows: Vec<LeagueRow> = Vec::new();
    for (CaseTrace { case, .. }, outcome) in cases.iter().zip(outcomes) {
        let controller =
            rate_control(case.rc.as_deref().expect("arena cases carry a controller")).label();
        let policy = case.tiling.as_deref().expect("arena cases carry a tiling");
        let k = match rows.iter().position(|r| r.controller == controller && r.policy == policy) {
            Some(k) => k,
            None => {
                rows.push(LeagueRow {
                    controller: controller.to_string(),
                    policy: policy.to_string(),
                    roi_psnr_db: 0.0,
                    mos_good: 0.0,
                    freeze: 0.0,
                    jain: 0.0,
                    throughput_bps: 0.0,
                    fault_passes: 0,
                    fault_total: 0,
                    fault_failures: Vec::new(),
                });
                rows.len() - 1
            }
        };
        let row = &mut rows[k];
        match outcome {
            Outcome::Quality(q) => {
                let seeds = cfg.seeds as f64;
                row.roi_psnr_db += q.roi_psnr_db / seeds;
                row.mos_good += q.mos_good / seeds;
                row.freeze += q.freeze / seeds;
                row.jain += q.jain / seeds;
                row.throughput_bps += q.throughput_bps / seeds;
            }
            Outcome::Fault(Some(v)) => {
                let names = v.failures();
                row.fault_passes += faults::FaultVerdict::INVARIANTS - names.len();
                row.fault_total += faults::FaultVerdict::INVARIANTS;
                row.fault_failures
                    .extend(names.iter().map(|f| format!("{} s{}: {f}", case.scenario, case.seed)));
            }
            Outcome::Fault(None) => {}
            Outcome::Mobility(_) => unreachable!("arena studies run no grid cases"),
        }
    }
    rows
}

/// Everything one `reproduce study` invocation produces, minus file IO.
pub struct StudyProtocol {
    /// Rendered report — the golden artifact; deliberately free of
    /// paths and commit hashes unless a baseline was compared.
    pub text: String,
    /// Violated invariants plus baseline drift; 0 = pass.
    pub failures: usize,
    /// The study JSONL artifact: every case stream concatenated in
    /// config order.
    pub jsonl: Vec<u8>,
    /// Chrome `trace_event` export of the first case's probe stream.
    pub chrome: String,
}

/// Run the full study pipeline: expand, execute on the worker pool,
/// parse back, judge, render. `baseline` is the byte content of a
/// previously written study JSONL artifact to diff against.
pub fn run_protocol(
    cfg: &StudyConfig,
    smoke: bool,
    baseline: Option<&[u8]>,
) -> Result<StudyProtocol, String> {
    let cfg = if smoke { smoke_variant(cfg) } else { cfg.clone() };
    let scale = if smoke {
        MobilityScale::smoke()
    } else {
        MobilityScale { seconds: cfg.seconds, ..MobilityScale::full() }
    };
    let executed = run_jobs(cfg.cases(), |case| -> Result<_, String> {
        let sink = stamped_sink(case.seed);
        let outcome = run_case(&cfg, &scale, &case, sink.clone());
        let bytes = finish_sink(sink);
        let trace =
            RunTrace::parse_bytes(&bytes).map_err(|e| format!("case {}: {e}", case.label))?;
        Ok((CaseTrace { case, trace }, bytes, outcome))
    });
    let mut jsonl = Vec::new();
    let mut cases = Vec::with_capacity(executed.len());
    let mut outcomes = Vec::with_capacity(executed.len());
    for result in executed {
        let (case, bytes, outcome) = result?;
        jsonl.extend_from_slice(&bytes);
        cases.push(case);
        outcomes.push(outcome);
    }

    let (body, verdict_failures) = match cfg.family {
        StudyFamily::Fault => {
            let verdicts: Vec<_> = cases
                .iter()
                .zip(&outcomes)
                .map(|(c, o)| match o {
                    Outcome::Fault(v) => (&c.case, v.as_ref()),
                    _ => unreachable!("fault studies run only fault cases"),
                })
                .collect();
            let (section, failures) = faults::render(&verdicts);
            (report::probe_tables(&cfg, &cases) + &section, failures)
        }
        StudyFamily::Mobility => {
            let runs: Vec<_> = cases
                .iter()
                .zip(&outcomes)
                .map(|(c, o)| match o {
                    Outcome::Mobility(m) => (&c.case, m),
                    _ => unreachable!("mobility studies run only grid cases"),
                })
                .collect();
            let (section, failures) = mobility::render(&cfg, &runs);
            (report::probe_tables(&cfg, &cases) + &section, failures)
        }
        StudyFamily::Arena => {
            let rows = league(&cfg, &cases, &outcomes);
            let seeds = match cfg.seeds {
                1 => format!("seed {}", cfg.base_seed),
                n => format!("seeds {}-{}", cfg.base_seed, cfg.base_seed + n - 1),
            };
            let title = format!(
                "Controller x tiling arena ({} cells, {}s legs, {} fault presets, {seeds})",
                rows.len(),
                cfg.seconds,
                cfg.scenarios.len(),
            );
            (league_report(&title, &rows), rows.iter().map(LeagueRow::failures).sum())
        }
    };

    let base_trace = match baseline {
        Some(bytes) => Some(RunTrace::parse_bytes(bytes).map_err(|e| format!("baseline: {e}"))?),
        None => None,
    };
    let rep = report::study_report(&cfg, &cases, &body, verdict_failures, base_trace.as_ref());
    let chrome = chrome::chrome_trace(&cases[0].trace);
    Ok(StudyProtocol { text: rep.text, failures: rep.failures, jsonl, chrome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_analyse::study::by_name;

    fn tiny_cc() -> StudyConfig {
        StudyConfig {
            name: "tiny".into(),
            scenarios: vec!["baseline".into()],
            controllers: vec!["fbcc".into()],
            seeds: 1,
            seconds: 3,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn protocol_renders_report_and_chrome_and_gates_on_baseline() {
        let cfg = tiny_cc();
        let p = run_protocol(&cfg, false, None).expect("protocol runs");
        assert_eq!(p.failures, 0);
        assert!(p.text.contains("Per-probe distributions"));
        assert!(p.text.contains("baseline.fbcc.s1  n/a"), "baseline verdict reads n/a");
        assert!(p.text.contains("study gate: 0 failure(s)"));
        let trace = RunTrace::parse_bytes(&p.jsonl).expect("artifact parses");
        assert_eq!(trace.metas.len(), 1, "one RunMeta stamp per case");
        assert_eq!(trace.srcs.names().collect::<Vec<_>>(), ["baseline.fbcc.s1"]);
        poi360_sim::json::parse_json(&p.chrome).expect("chrome export is valid JSON");

        // Self-baseline: identical bytes must not drift.
        let jsonl = p.jsonl.clone();
        let p2 = run_protocol(&cfg, false, Some(&jsonl)).expect("protocol with baseline");
        assert_eq!(p2.failures, 0, "identical baseline must pass:\n{}", p2.text);
        assert!(p2.text.contains("Baseline drift gate"));
    }

    #[test]
    fn arena_scores_every_pairing_in_case_order() {
        let cfg = StudyConfig {
            name: "tiny_arena".into(),
            family: StudyFamily::Arena,
            scenarios: vec!["rlf".into()],
            controllers: vec!["fbcc".into(), "occ".into()],
            tilings: vec!["roi".into(), "pano".into()],
            seeds: 1,
            seconds: 3,
            ..StudyConfig::default()
        };
        let p = run_protocol(&cfg, false, None).expect("arena runs");
        let rows: Vec<&str> =
            p.text.lines().filter(|l| l.starts_with("FBCC  ") || l.starts_with("OCC  ")).collect();
        assert_eq!(rows.len(), 4, "one league row per pairing:\n{}", p.text);
        assert!(rows[0].starts_with("FBCC        roi") && rows[3].starts_with("OCC         pano"));
        assert!(rows.iter().all(|r| r.ends_with("/4")), "one fault leg = 4 invariants");
        assert!(p.text.contains("Standings"));
    }

    #[test]
    fn every_name_table_row_maps_to_a_kind() {
        use poi360_analyse::study::{CONTROLLERS, TILINGS};
        let rcs: Vec<RateControlKind> = CONTROLLERS.iter().map(|row| rate_control(row.0)).collect();
        assert_eq!(rcs, [RateControlKind::Fbcc, RateControlKind::Gcc, RateControlKind::Occ]);
        let schemes: Vec<CompressionScheme> =
            TILINGS.iter().map(|row| tiling_scheme(row.0)).collect();
        assert_eq!(
            schemes,
            [CompressionScheme::Poi360, CompressionScheme::Pano, CompressionScheme::Ghosh]
        );
    }

    #[test]
    fn smoke_variant_compresses_every_family() {
        let cc = smoke_variant(&by_name("cc_matrix").unwrap());
        assert_eq!(cc.seconds, 6);
        assert_eq!(cc.cases().len(), 18, "matrix shape unchanged");
        let ho = smoke_variant(&by_name("ho_tails").unwrap());
        assert_eq!(ho.seconds, MobilityScale::smoke().seconds);
        let arena = smoke_variant(&by_name("arena").unwrap());
        assert_eq!((arena.seconds, arena.cases().len()), (6, 36));
    }
}
