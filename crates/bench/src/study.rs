//! Execution layer of the declarative study harness.
//!
//! `poi360-analyse` owns the declaration ([`StudyConfig`]), the ingest,
//! and the report rendering; this module owns the only part it cannot —
//! actually driving sessions. [`run_cases`] expands a config to its
//! case list and fans the cases out over [`crate::runner::run_jobs`]:
//! each case runs in its own worker with its own in-memory JSONL sink
//! (stamped with a [`RunMeta`]), and the results come back in input
//! order, so the concatenated study artifact is byte-identical at any
//! worker-pool width — `ci.sh` proves it with `cmp` across
//! `POI360_THREADS=1` and `=4`.
//!
//! [`run_protocol`] is the whole `reproduce study` pipeline minus file
//! IO (run → parse → aggregate → render → Chrome export), shared
//! verbatim by the CLI and the golden test that pins the
//! `cc_matrix --smoke` report.

use crate::runner::{finish_sink, stamped_sink};
use poi360_analyse::chrome;
use poi360_analyse::ingest::RunTrace;
use poi360_analyse::report::{self, CaseTrace};
use poi360_analyse::study::{StudyCase, StudyConfig, StudyFamily, BASELINE_SCENARIO};
use poi360_core::config::RateControlKind;
use poi360_lte::scenario::{FaultScenario, MobilityScenario, Scenario};
use poi360_sim::fault::FaultPlan;
use poi360_sim::trace::SinkHandle;
use poi360_sim::Recorder;
use std::sync::Arc;

/// Map a study controller label onto the typed rate-control kind. The
/// labels were validated at config parse, so this is total.
pub fn rate_control(label: &str) -> RateControlKind {
    match label {
        "fbcc" => RateControlKind::Fbcc,
        "gcc" => RateControlKind::Gcc,
        "occ" => RateControlKind::Occ,
        other => unreachable!("StudyConfig::validate admitted controller {other:?}"),
    }
}

/// Resolve a fault-study scenario name, including the synthetic
/// `baseline` (quiet cell, empty plan — byte-identical to a clean run
/// by the fault plane's composition rule).
pub fn fault_scenario(name: &str) -> FaultScenario {
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

/// The CI-scale variant of a study: same matrix, compressed runs — the
/// fault timeline 4x shorter (mirroring `faults --smoke`), the mobility
/// lattice swapped for the compressed smoke grid (8 s, 160 m sites).
pub fn smoke_variant(cfg: &StudyConfig) -> StudyConfig {
    let mut out = cfg.clone();
    out.seconds = match cfg.family {
        StudyFamily::Fault => 6,
        StudyFamily::Mobility => crate::mobility::MobilityScale::smoke().seconds,
    };
    out
}

/// One executed case: the descriptor, its stamped JSONL stream, and the
/// per-flow delivery gaps (mobility only — that data lives in the grid
/// report, not in probes).
pub struct ExecutedCase {
    /// The case descriptor from [`StudyConfig::cases`].
    pub case: StudyCase,
    /// The case's JSONL stream (leading [`RunMeta`] stamp included).
    pub bytes: Vec<u8>,
    /// Per-flow delivery gaps, ms (empty for fault cases).
    pub gaps_ms: Vec<f64>,
}

/// Run every case of the (already smoke-adjusted) config through the
/// worker pool, in config order.
pub fn run_cases(cfg: &StudyConfig, smoke: bool) -> Vec<ExecutedCase> {
    match cfg.family {
        StudyFamily::Fault => {
            let seconds = cfg.seconds;
            let jobs: Vec<(StudyCase, FaultScenario, RateControlKind)> = cfg
                .cases()
                .into_iter()
                .map(|case| {
                    let fs = fault_scenario(&case.scenario);
                    let rc = rate_control(case.rc.as_deref().expect("fault cases carry an rc"));
                    (case, fs, rc)
                })
                .collect();
            crate::runner::run_jobs(jobs, move |(case, fs, rc)| {
                let sink = stamped_sink(case.seed);
                let handle: SinkHandle = sink.clone();
                let recorder = Recorder::to_sink(Arc::clone(&handle), &case.label);
                crate::faults::run_case(&fs, rc, seconds, case.seed, recorder);
                drop(handle);
                ExecutedCase { case, bytes: finish_sink(sink), gaps_ms: Vec::new() }
            })
        }
        StudyFamily::Mobility => {
            let scale = if smoke {
                crate::mobility::MobilityScale::smoke()
            } else {
                crate::mobility::MobilityScale {
                    seconds: cfg.seconds,
                    ..crate::mobility::MobilityScale::full()
                }
            };
            let jobs: Vec<(StudyCase, MobilityScenario)> = cfg
                .cases()
                .into_iter()
                .map(|case| {
                    let ms = MobilityScenario::by_name(&case.scenario).unwrap_or_else(|| {
                        unreachable!("StudyConfig::validate admitted {:?}", case.scenario)
                    });
                    (case, ms)
                })
                .collect();
            crate::runner::run_jobs(jobs, move |(case, ms)| {
                let (outcome, bytes) = crate::mobility::run_case(&ms, &scale, case.seed);
                let gaps_ms = outcome
                    .report
                    .flow_stats
                    .iter()
                    .flat_map(|f| f.gap_ms.iter().copied())
                    .collect();
                ExecutedCase { case, bytes, gaps_ms }
            })
        }
    }
}

/// Everything one `reproduce study` invocation produces, minus file IO.
pub struct StudyProtocol {
    /// Rendered report (tables + warnings + gate line) — the golden
    /// artifact; deliberately free of paths and commit hashes unless a
    /// baseline was compared.
    pub text: String,
    /// Gate violations (baseline drift); 0 = pass.
    pub failures: usize,
    /// The study JSONL artifact: every case stream concatenated in
    /// config order.
    pub jsonl: Vec<u8>,
    /// Chrome `trace_event` export of the first case's probe stream.
    pub chrome: String,
}

/// Run the full study pipeline: execute, parse back, aggregate, render.
/// `baseline` is the byte content of a previously written study JSONL
/// artifact to diff against.
pub fn run_protocol(
    cfg: &StudyConfig,
    smoke: bool,
    baseline: Option<&[u8]>,
) -> Result<StudyProtocol, String> {
    let cfg = if smoke { smoke_variant(cfg) } else { cfg.clone() };
    let executed = run_cases(&cfg, smoke);
    let mut jsonl = Vec::new();
    for e in &executed {
        jsonl.extend_from_slice(&e.bytes);
    }
    let cases: Vec<CaseTrace> = executed
        .iter()
        .map(|e| {
            Ok(CaseTrace {
                scenario: e.case.scenario.clone(),
                rc: e.case.rc.clone(),
                seed: e.case.seed,
                trace: RunTrace::parse_bytes(&e.bytes)
                    .map_err(|err| format!("case {}: {err}", e.case.label))?,
                gaps_ms: e.gaps_ms.clone(),
            })
        })
        .collect::<Result<_, String>>()?;
    let base_trace = match baseline {
        Some(bytes) => Some(RunTrace::parse_bytes(bytes).map_err(|e| format!("baseline: {e}"))?),
        None => None,
    };
    let rep = report::study_report(&cfg, &cases, base_trace.as_ref());
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
    fn cases_come_back_stamped_in_config_order_and_byte_deterministic() {
        let cfg = tiny_cc();
        crate::runner::set_worker_threads(1);
        let narrow = run_cases(&cfg, false);
        crate::runner::set_worker_threads(4);
        let wide = run_cases(&cfg, false);
        crate::runner::set_worker_threads(0);
        assert_eq!(narrow.len(), 1);
        assert_eq!(narrow[0].case.label, "baseline.fbcc.s1");
        assert_eq!(
            narrow[0].bytes, wide[0].bytes,
            "study case stream invariant across worker widths"
        );
        let trace = RunTrace::parse_bytes(&narrow[0].bytes).expect("case stream parses");
        assert_eq!(trace.metas.len(), 1, "leading RunMeta stamp");
        assert_eq!(trace.metas[0].seed, 1);
        assert!(!trace.is_empty());
        assert_eq!(trace.srcs.names().collect::<Vec<_>>(), ["baseline.fbcc.s1"]);
    }

    #[test]
    fn protocol_renders_report_and_chrome_and_gates_on_baseline() {
        let cfg = tiny_cc();
        let p = run_protocol(&cfg, false, None).expect("protocol runs");
        assert_eq!(p.failures, 0);
        assert!(p.text.contains("Per-probe distributions"));
        assert!(p.text.contains("study gate: 0 failure(s)"));
        assert!(!p.jsonl.is_empty());
        poi360_sim::json::parse_json(&p.chrome).expect("chrome export is valid JSON");

        // Self-baseline: identical bytes must not drift.
        let jsonl = p.jsonl.clone();
        let p2 = run_protocol(&cfg, false, Some(&jsonl)).expect("protocol with baseline");
        assert_eq!(p2.failures, 0, "identical baseline must pass:\n{}", p2.text);
        assert!(p2.text.contains("Baseline drift gate"));
    }

    #[test]
    fn smoke_variant_compresses_both_families() {
        let cc = smoke_variant(&by_name("cc_matrix").unwrap());
        assert_eq!(cc.seconds, 6);
        assert_eq!(cc.cases().len(), 18, "matrix shape unchanged");
        let ho = smoke_variant(&by_name("ho_tails").unwrap());
        assert_eq!(ho.seconds, crate::mobility::MobilityScale::smoke().seconds);
    }
}
