//! The POI360 repo benchmark.
//!
//! One process per workload run:
//!
//! ```text
//! perfbench --workload <call|crowd|grid|matrix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats rounds of the workload's fixed batch for
//! `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! runs the traced pass of [`traced`] and prints the per-layer metrics.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the output digest and sample counts. `perfbench/run.py`
//! builds both binaries and dispatches to the right one.

pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;

use poi360_sim::json::{write_json_string, ToJson};
use std::time::{Duration, Instant};
use workloads::{Outcome, Probe, Workload};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value:?}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints.
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The `#` line: digest, sample counts, QoE tail.
    pub info: String,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(o: &RunOutput) -> String {
    let mut out = String::from("{\"correct\": ");
    out.push_str(if o.correct { "true" } else { "false" });
    out.push_str(&format!(
        ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    ));
    for (k, m) in o.metrics.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        write_json_string(m.name, &mut out);
        out.push_str(": {\"value\": ");
        m.value.write_json(&mut out);
        out.push_str(", \"unit\": ");
        write_json_string(m.unit, &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host-wide CPU steal so far (`/proc/stat`, in clock ticks): time the
/// hypervisor gave this machine's virtual CPUs to someone else. Printed
/// on the `#` line so a slow run can be told from a slow program.
pub fn host_steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Pin the worker width (never read from the environment) and start the
/// pool helpers the workload will use.
pub fn pin_width(w: Workload) {
    poi360_bench::runner::set_worker_threads(w.threads());
    poi360_bench::runner::pool().dispatch(w.threads(), |_| {});
}

/// One timed round.
#[derive(Clone, Debug)]
pub struct Round {
    pub setup: Duration,
    pub run: Duration,
    pub sim_secs: f64,
    pub outcome: Outcome,
}

/// Batch set-ups a timed round makes. One set-up takes under two
/// milliseconds, so a round builds the batch this many times (keeping
/// the last) and reports the fastest.
pub const SETUP_BUILDS: u32 = 32;

/// Set up, run and verify one round; only set-up and run are timed. The
/// batch is built `builds` times and the set-up time is the fastest
/// build; only the last build goes through `probe` and runs.
pub fn round<P: Probe>(w: Workload, seed: u64, builds: u32, probe: &mut P) -> Round {
    let mut setup = Duration::MAX;
    for _ in 1..builds {
        let t = Instant::now();
        let spare = workloads::prepare(w, seed, &mut ());
        setup = setup.min(t.elapsed());
        drop(spare);
    }
    let t0 = Instant::now();
    let prepared = workloads::prepare(w, seed, probe);
    let t1 = Instant::now();
    let sim_secs = prepared.sim_secs();
    let reports = workloads::execute(prepared, probe);
    let t2 = Instant::now();
    let outcome = workloads::verify(&reports);
    Round { setup: setup.min(t1 - t0), run: t2 - t1, sim_secs, outcome }
}

/// Rounds never fewer than this, whatever `--seconds` says. The first
/// round warms caches and the allocator; speed is read from the others.
pub const MIN_ROUNDS: usize = 3;

/// The end-to-end metrics (name, unit, direction), in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("realtime_x", "sim_s/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_share", "share", "higher"),
    ("roi_psnr_db", "dB", "higher"),
    ("frame_delay_ms_p50", "ms", "lower"),
    ("frame_delay_ms_p99", "ms", "lower"),
];

/// The timed (`--trace 0`) run: repeat rounds for `seconds`, check that
/// every round reproduces the first round's digest, and report the
/// end-to-end metrics.
pub fn timed(args: &Args) -> RunOutput {
    pin_width(args.workload);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let steal = host_steal_ticks();
    // The first round builds its batch once, so the peak is that of one
    // set-up, run and check; later rounds only add allocator
    // fragmentation, which grows with how many rounds the host fits in.
    let mut rounds: Vec<Round> = vec![round(args.workload, args.seed, 1, &mut ())];
    let rss = peak_rss_mb();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let mut r = round(args.workload, args.seed, SETUP_BUILDS, &mut ());
        // Only the first round's QoE is reported; later rounds keep their
        // digest and counts.
        r.outcome.qoe = Default::default();
        rounds.push(r);
    }
    let first = &rounds[0].outcome;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for (k, r) in rounds.iter().enumerate() {
        attempted += r.outcome.attempted;
        failed += r.outcome.failed;
        for f in &r.outcome.failures {
            eprintln!("round {k}: FAIL {f}");
        }
        if r.outcome.digest != first.digest {
            eprintln!(
                "round {k}: digest {:016x} != round 0 {:016x}",
                r.outcome.digest, first.digest
            );
            correct = false;
        }
    }
    let q = &first.qoe;
    let delays = q.freeze.delays_ms();
    let p99 = stats::percentile(delays, 0.99).unwrap_or_else(|e| {
        eprintln!("frame_delay_ms_p99: {e}");
        f64::NAN
    });
    let realtime: Vec<f64> = rounds.iter().map(|r| r.sim_secs / r.run.as_secs_f64()).collect();
    let slowest = realtime[1..].iter().copied().fold(f64::INFINITY, f64::min);
    let fastest_setup = rounds.iter().map(|r| r.setup.as_secs_f64()).fold(f64::INFINITY, f64::min);
    let values = [
        // The host's speed drifts between a busy state and short quiet
        // bursts. A round lasts seconds, and its slowest warm round
        // reads the busy state; a set-up lasts about a millisecond, and
        // every run catches quiet moments at that scale. These two order
        // statistics repeat across runs far better than medians do
        // (perfbench/METRICS.md has the figures).
        slowest,
        fastest_setup,
        rss,
        1.0 - failed as f64 / attempted.max(1) as f64,
        q.roi_psnr_db(),
        stats::median(delays),
        p99,
    ];
    correct &= failed == 0 && attempted > 0 && values.iter().all(|v| v.is_finite());
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, value, unit })
        .collect();
    let info = format!(
        "# workload={} seed={} rounds={} digest={:016x} delay_samples={} freeze_ratio={} \
         fail_share={} frames_overcounted={} sim_s_per_round={} host_steal_ticks={} \
         realtime_x_rounds={:.1?}",
        args.workload.name(),
        args.seed,
        rounds.len(),
        first.digest,
        delays.len(),
        q.freeze.freeze_ratio().unwrap_or(f64::NAN),
        failed as f64 / attempted.max(1) as f64,
        q.frames_overcounted,
        rounds[0].sim_secs,
        host_steal_ticks().saturating_sub(steal),
        &realtime[1..],
    );
    RunOutput { correct, attempted, failed, metrics, info }
}

/// Entry point shared by both binaries. `counting_alloc` says whether
/// this binary installed the counting allocator (only the traced one
/// does, so timed runs never pay for counting).
pub fn main_with(counting_alloc: bool) -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let out = if args.trace {
        if !counting_alloc {
            eprintln!("perfbench: --trace 1 needs the perfbench-traced binary");
            return std::process::ExitCode::from(2);
        }
        traced::run(&args)
    } else {
        timed(&args)
    };
    println!("{}", out.info);
    println!("{}", result_line(&out));
    std::process::ExitCode::SUCCESS
}
