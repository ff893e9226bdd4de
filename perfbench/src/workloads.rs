//! The four benchmark workloads: seeded inputs, construction (the timed
//! set-up), the simulated run, and the output checks.
//!
//! Every workload is a closed batch — a fixed amount of simulated work
//! with no arrival process — built from one `--seed`. A round is
//! [`prepare`] (set-up: inputs, `Session`/`MultiCell`/`MultiGrid`
//! construction), [`execute`] (first subframe to last report) and
//! [`verify`] (checks and the output digest, outside the timed span).

use poi360_bench::runner;
use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360_core::multicell::{
    FlowSpec, MultiCell, MultiCellConfig, MultiCellReport, MultiGrid, MultiGridConfig,
    MultiGridReport,
};
use poi360_core::report::SessionReport;
use poi360_core::session::Session;
use poi360_lte::grid::MobilityKind;
use poi360_lte::scenario::{FaultScenario, Scenario, FAULT_RUN_SECS};
use poi360_metrics::freeze::FreezeStats;
use poi360_sim::fault::FaultPlan;
use poi360_sim::json::ToJson;
use poi360_sim::rng::SimRng;
use poi360_sim::time::SimDuration;
use poi360_sim::Recorder;
use poi360_viewport::motion::UserArchetype;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's workloads (names are part of `BENCHMARK.json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long standalone cellular calls, one after another.
    Call,
    /// Crowded shared cells, one after another.
    Crowd,
    /// A 127-cell hex grid with mobility and A3 handover.
    Grid,
    /// Short faulted calls, controller × tiling × fault preset, fanned
    /// out with `run_jobs`.
    Matrix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Call, Workload::Crowd, Workload::Grid, Workload::Matrix];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Call => "call",
            Workload::Crowd => "crowd",
            Workload::Grid => "grid",
            Workload::Matrix => "matrix",
        }
    }

    /// Parse a CLI name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker width pinned for this workload: the caller plus at most
    /// one pool helper.
    pub fn threads(self) -> usize {
        match self {
            Workload::Call | Workload::Crowd => 1,
            Workload::Grid | Workload::Matrix => 2,
        }
    }
}

/// `call`: calls per batch and their length.
pub const CALLS: usize = 36;
pub const CALL_SECS: u64 = 60;
/// `crowd`: independent cells per batch, foreground calls and background
/// UEs per cell, length.
pub const CROWD_CELLS: usize = 4;
pub const CROWD_FLOWS: usize = 8;
pub const CROWD_BG: usize = 30;
pub const CROWD_SECS: u64 = 30;
/// `grid`: hex rings, calls, cross-traffic UEs, length.
pub const GRID_RINGS: usize = 6;
pub const GRID_FLOWS: usize = 12;
pub const GRID_LOADS: usize = 60;
pub const GRID_MS: u64 = 3_000;
/// `matrix`: seeds per (controller, tiling, fault) case, and the time
/// compression applied to the fault presets (`num/den`).
pub const MATRIX_SEEDS: usize = 6;
pub const MATRIX_TIME: (u64, u64) = (1, 3);

const CONTROLLERS: [RateControlKind; 3] =
    [RateControlKind::Fbcc, RateControlKind::Gcc, RateControlKind::Occ];
const TILINGS: [CompressionScheme; 3] =
    [CompressionScheme::Poi360, CompressionScheme::Pano, CompressionScheme::Ghosh];

/// A seed for item `what` of the batch, derived from the `--seed`.
pub fn derive(seed: u64, what: &str) -> u64 {
    SimRng::stream(seed, &format!("perfbench.{what}")).next_u64()
}

/// The `call` batch: controllers rotate FBCC/GCC/OCC, viewers rotate
/// through the archetypes, every call has its own derived seed.
pub fn call_configs(seed: u64) -> Vec<SessionConfig> {
    let users = UserArchetype::all();
    (0..CALLS)
        .map(|c| SessionConfig {
            scheme: CompressionScheme::Poi360,
            rate_control: CONTROLLERS[c % 3],
            network: NetworkKind::Cellular(Scenario::baseline()),
            user: users[(c / 3) % users.len()],
            duration: SimDuration::from_secs(CALL_SECS),
            seed: derive(seed, &format!("call.{c}")),
            ..Default::default()
        })
        .collect()
}

/// The `crowd` ensembles: cell `k` of the batch, its own derived seed.
pub fn crowd_configs(seed: u64) -> Vec<MultiCellConfig> {
    (0..CROWD_CELLS).map(|k| crowd_config(derive(seed, &format!("crowd.{k}")))).collect()
}

fn crowd_config(cell_seed: u64) -> MultiCellConfig {
    MultiCellConfig {
        background_ues: CROWD_BG,
        flows: (0..CROWD_FLOWS).map(|k| FlowSpec::with_rate_control(CONTROLLERS[k % 3])).collect(),
        duration: SimDuration::from_secs(CROWD_SECS),
        seed: cell_seed,
        ..Default::default()
    }
}

/// The `grid` lattice: waypoint-roaming calls and cross-traffic on a
/// small-ISD hex grid, light static load per cell, shard width from the
/// worker pool resolution.
pub fn grid_config(seed: u64) -> MultiGridConfig {
    MultiGridConfig {
        rings: GRID_RINGS,
        isd_m: 300.0,
        speed_mps: 30.0,
        mobility: MobilityKind::Waypoint,
        flows: (0..GRID_FLOWS).map(|k| FlowSpec::with_rate_control(CONTROLLERS[k % 3])).collect(),
        load_ues: GRID_LOADS,
        static_bg_per_cell: 2,
        duration: SimDuration::from_millis(GRID_MS),
        seed: derive(seed, "grid"),
        shards: runner::worker_threads(),
        ..Default::default()
    }
}

/// One `matrix` case: a short faulted call.
#[derive(Clone, Debug)]
pub struct MatrixCase {
    pub cfg: SessionConfig,
    pub plan: FaultPlan,
}

/// The `matrix` case list: {FBCC, GCC, OCC} × {POI360, Pano, Ghosh} ×
/// every fault preset × [`MATRIX_SEEDS`]. Presets are compressed in time
/// and shifted by a seed-derived offset of up to one second.
pub fn matrix_cases(seed: u64) -> Vec<MatrixCase> {
    let (num, den) = MATRIX_TIME;
    let secs = SimDuration::from_micros(FAULT_RUN_SECS * 1_000_000 * num / den);
    let mut out = Vec::new();
    for fs in FaultScenario::all() {
        for rc in CONTROLLERS {
            for tiling in TILINGS {
                for rep in 0..MATRIX_SEEDS {
                    let label = format!("{}.{}.{}.{rep}", fs.name, rc.label(), tiling.label());
                    let case_seed = derive(seed, &format!("matrix.{label}"));
                    let shift = SimDuration::from_millis(case_seed % 1_000);
                    let mut plan = FaultPlan::new();
                    for ev in fs.plan.time_scaled(num, den).events() {
                        plan.push(ev.kind, ev.start + shift, ev.duration);
                    }
                    let cfg = SessionConfig {
                        scheme: tiling,
                        rate_control: rc,
                        network: NetworkKind::Cellular(fs.scenario),
                        duration: secs,
                        seed: case_seed,
                        ..Default::default()
                    };
                    out.push(MatrixCase { cfg, plan });
                }
            }
        }
    }
    out
}

/// A constructed round, ready for its first subframe.
pub enum Prepared {
    Calls(Vec<Session>),
    Crowd(Vec<MultiCell>),
    Grid(Box<MultiGrid>),
    /// Sessions plus the recorder each one reports through.
    Matrix(Vec<(Session, Recorder)>),
}

impl Prepared {
    /// Simulated seconds this round covers (independent runs summed; a
    /// shared cell or grid counts once).
    pub fn sim_secs(&self) -> f64 {
        match self {
            Prepared::Calls(v) => v.iter().map(|s| s.config().duration.as_secs_f64()).sum(),
            Prepared::Crowd(v) => v.iter().map(|mc| mc.config().duration.as_secs_f64()).sum(),
            Prepared::Grid(g) => g.config().duration.as_secs_f64(),
            Prepared::Matrix(v) => v.iter().map(|(s, _)| s.config().duration.as_secs_f64()).sum(),
        }
    }
}

/// Instrumentation around the calls a round makes into the program.
/// The timed run uses `()`, whose hooks compile away; the traced run
/// records spans, per-step times and allocation counts.
pub trait Probe: Default + Send {
    /// One construction of a `Session`, `MultiCell` or `MultiGrid`.
    fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        f()
    }

    /// One `step()` of the simulation being run.
    fn step(&mut self, f: impl FnOnce()) {
        f()
    }

    /// One independent run: a call, a cell, the grid or a `run_jobs` job.
    fn run<T>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }

    /// Fold in the probe of a job that ran on a pool lane.
    fn merge(&mut self, _job: Self) {}
}

impl Probe for () {}

/// Set-up: derive the inputs from `seed` and construct every simulation
/// object the round runs.
pub fn prepare<P: Probe>(w: Workload, seed: u64, probe: &mut P) -> Prepared {
    match w {
        Workload::Call => Prepared::Calls(
            call_configs(seed).into_iter().map(|c| probe.build(|| Session::new(c))).collect(),
        ),
        Workload::Crowd => Prepared::Crowd(
            crowd_configs(seed).into_iter().map(|c| probe.build(|| MultiCell::new(c))).collect(),
        ),
        Workload::Grid => {
            Prepared::Grid(Box::new(probe.build(|| MultiGrid::new(grid_config(seed)))))
        }
        Workload::Matrix => Prepared::Matrix(
            matrix_cases(seed)
                .into_iter()
                .map(|case| {
                    let rec = Recorder::null();
                    let s =
                        probe.build(|| Session::faulted_traced(case.cfg, &case.plan, rec.clone()));
                    (s, rec)
                })
                .collect(),
        ),
    }
}

/// A run's result, or the panic message it died with.
pub type RunResult<T> = Result<T, String>;

/// What a round produced, before any check.
pub enum Reports {
    Calls(Vec<RunResult<SessionReport>>),
    Crowd(Vec<RunResult<MultiCellReport>>),
    Grid(RunResult<MultiGridReport>),
    /// Each job's report and its recorder's out-of-order drop count.
    Matrix(Vec<RunResult<(SessionReport, u64)>>),
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> RunResult<T> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Step a `duration`-long simulation subframe by subframe.
fn steps<P: Probe>(probe: &mut P, duration: SimDuration, mut step: impl FnMut()) {
    for _ in 0..duration.as_millis() {
        probe.step(&mut step);
    }
}

/// Run a prepared round to its last report, stepping every simulation
/// through `probe`. Panics are caught per run (per call, per ensemble,
/// per job).
pub fn execute<P: Probe>(p: Prepared, probe: &mut P) -> Reports {
    let call = |probe: &mut P, mut s: Session| {
        guarded(|| {
            let duration = s.config().duration;
            steps(probe, duration, || s.step());
            s.run()
        })
    };
    match p {
        Prepared::Calls(v) => Reports::Calls(
            v.into_iter().map(|s| probe.run("core.session.call", |p| call(p, s))).collect(),
        ),
        Prepared::Crowd(v) => Reports::Crowd(
            v.into_iter()
                .map(|mut mc| {
                    probe.run("core.multicell.cell", |p| {
                        guarded(|| {
                            let duration = mc.config().duration;
                            steps(p, duration, || mc.step());
                            mc.run()
                        })
                    })
                })
                .collect(),
        ),
        Prepared::Grid(mut g) => Reports::Grid(probe.run("core.multicell.grid", |p| {
            guarded(|| {
                let duration = g.config().duration;
                steps(p, duration, || g.step());
                g.run()
            })
        })),
        Prepared::Matrix(v) => {
            let jobs = runner::run_jobs(v, |(s, rec)| {
                let mut job = P::default();
                let r = job
                    .run("bench.runner.job", |p| call(p, s).map(|r| (r, rec.out_of_order_drops())));
                (r, job)
            });
            let mut reports = Vec::with_capacity(jobs.len());
            for (r, job) in jobs {
                probe.merge(job);
                reports.push(r);
            }
            Reports::Matrix(reports)
        }
    }
}

/// Pooled call quality over every flow of a round.
#[derive(Clone, Debug, Default)]
pub struct Qoe {
    pub freeze: FreezeStats,
    pub psnr_sum: f64,
    pub psnr_n: u64,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub packets_dropped: u64,
    /// Sum of [`overcounted`] over every call.
    pub frames_overcounted: u64,
}

impl Qoe {
    fn add(&mut self, r: &SessionReport) {
        self.freeze.merge(&r.freeze);
        self.psnr_sum += r.roi_psnr_db.iter().sum::<f64>();
        self.psnr_n += r.roi_psnr_db.len() as u64;
        self.frames_sent += r.frames_sent;
        self.frames_delivered += r.frames_delivered;
        self.packets_dropped += r.packets_dropped;
        self.frames_overcounted += overcounted(r);
    }

    /// Mean user-perceived ROI PSNR over all delivered frames.
    pub fn roi_psnr_db(&self) -> f64 {
        self.psnr_sum / self.psnr_n.max(1) as f64
    }
}

/// A verified round.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
    pub qoe: Qoe,
    /// FNV-1a over every report's `to_json()` bytes, in run order.
    pub digest: u64,
    /// Mean `mean_utilization` of the shared cells / grid (0 for calls).
    pub utilization: f64,
    /// Handovers and RLFs over all grid UEs.
    pub handovers: u64,
    pub rlfs: u64,
}

/// FNV-1a, 64-bit.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The per-call output checks.
pub fn check_session(r: &SessionReport) -> Result<(), String> {
    if let Some(v) = r.roi_psnr_db.iter().find(|v| !v.is_finite()) {
        return Err(format!("{}: non-finite ROI PSNR {v}", r.label));
    }
    if let Some(v) = r.freeze.delays_ms().iter().find(|v| !v.is_finite()) {
        return Err(format!("{}: non-finite frame delay {v}", r.label));
    }
    let qoe = [r.mean_psnr_db(), r.freeze_ratio(), r.median_delay_ms()];
    if r.frames_delivered > 0 && qoe.iter().any(|v| !v.is_finite()) {
        return Err(format!("{}: non-finite QoE summary {qoe:?}", r.label));
    }
    Ok(())
}

/// Frames counted beyond `frames_sent`: delivered plus lost minus sent,
/// floored at 0. The check `frames_sent >= frames_delivered +
/// frames_lost` fails on the current program: the RTP reassembler
/// forgets a frame once it completes or is abandoned, so a late
/// duplicate packet re-opens it and it is abandoned later, counting one
/// frame as delivered *and* lost. It is reported as a count
/// (`core.session.frames_overcounted`) rather than a run failure until
/// the reassembler keeps a ledger of finished frames.
pub fn overcounted(r: &SessionReport) -> u64 {
    (r.frames_delivered + r.frames_lost).saturating_sub(r.frames_sent)
}

/// Grid-level checks: exact packet conservation for every flow and load
/// UE, and no out-of-order probe sample.
pub fn check_grid(r: &MultiGridReport) -> Result<(), String> {
    if let Some(f) = r.flow_stats.iter().find(|f| !f.conserved()) {
        return Err(format!("{}: packet conservation broken", f.label));
    }
    if r.load_conservation_violations != 0 {
        return Err(format!("{} load UEs broke conservation", r.load_conservation_violations));
    }
    if r.probe_drops != 0 {
        return Err(format!("{} out-of-order probe samples", r.probe_drops));
    }
    Ok(())
}

/// Check every run of a round, pool its QoE and digest its reports.
pub fn verify(reports: &Reports) -> Outcome {
    let mut out = Outcome { digest: FNV_OFFSET, ..Default::default() };
    let session = |out: &mut Outcome, r: &SessionReport, extra: Result<(), String>| {
        out.digest = fnv1a(out.digest, r.to_json().as_bytes());
        out.qoe.add(r);
        check_session(r).and(extra)
    };
    let tally = |out: &mut Outcome, res: Result<(), String>| {
        out.attempted += 1;
        if let Err(e) = res {
            out.failed += 1;
            out.failures.push(e);
        }
    };
    match reports {
        Reports::Calls(v) => {
            for r in v {
                let res =
                    r.as_ref().map_err(Clone::clone).and_then(|r| session(&mut out, r, Ok(())));
                tally(&mut out, res);
            }
        }
        Reports::Crowd(v) => {
            for r in v {
                let res = r.as_ref().map_err(Clone::clone).and_then(|r| {
                    out.digest = fnv1a(out.digest, r.to_json().as_bytes());
                    out.utilization += r.mean_utilization / v.len() as f64;
                    r.flows.iter().for_each(|f| out.qoe.add(f));
                    r.flows.iter().try_for_each(check_session)
                });
                tally(&mut out, res);
            }
        }
        Reports::Grid(r) => {
            let res = r.as_ref().map_err(Clone::clone).and_then(|r| {
                out.digest = fnv1a(out.digest, r.to_json().as_bytes());
                out.utilization = r.mean_utilization;
                out.handovers =
                    r.load_handovers + r.flow_stats.iter().map(|f| f.handovers).sum::<u64>();
                out.rlfs = r.load_rlfs + r.flow_stats.iter().map(|f| f.rlfs).sum::<u64>();
                r.flows.iter().for_each(|f| out.qoe.add(f));
                r.flows.iter().try_for_each(check_session).and_then(|()| check_grid(r))
            });
            tally(&mut out, res);
        }
        Reports::Matrix(v) => {
            for r in v {
                let res = r.as_ref().map_err(Clone::clone).and_then(|(r, drops)| {
                    let extra = if *drops == 0 {
                        Ok(())
                    } else {
                        Err(format!("{}: {drops} out-of-order probe samples", r.label))
                    };
                    session(&mut out, r, extra)
                });
                tally(&mut out, res);
            }
        }
    }
    out
}
