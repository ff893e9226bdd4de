//! Shared experiment plumbing: session fan-out across users × repetitions,
//! parallelized across OS threads (sessions are independent and
//! deterministic per seed). Every fan-out in the crate — session batches,
//! shared-cell ensembles, the fault matrices — funnels through
//! [`run_jobs`], which borrows workers from the process-wide persistent
//! epoch pool ([`pool`], shared with the `MultiGrid` sharded executor) at
//! a width resolved by [`worker_threads`]: a `--threads` flag or
//! `POI360_THREADS` env override, else `available_parallelism`. Results
//! always come back in input order, so parallelism never perturbs output
//! bytes.

use poi360_core::config::SessionConfig;
use poi360_core::multicell::{MultiCell, MultiCellConfig, MultiCellReport};
use poi360_core::report::{Aggregate, SessionReport};
use poi360_core::session::Session;
use poi360_sim::json::{FromKv, KvMap};
use poi360_sim::time::SimDuration;
use poi360_sim::trace::{JsonlSink, RunMeta, TraceSink};
use poi360_viewport::motion::UserArchetype;
use std::sync::{Arc, Mutex};

/// Global experiment scaling.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Per-session duration in seconds (paper: 300 s).
    pub duration_secs: u64,
    /// Repetitions per user (paper: 10).
    pub repeats: u64,
    /// Base seed; session seeds derive from it, the user, and the repeat.
    pub base_seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        // Quick mode: enough sessions for stable aggregates in seconds of
        // wall-clock. `reproduce --full` switches to the paper's scale.
        ExpConfig { duration_secs: 90, repeats: 3, base_seed: 360 }
    }
}

impl ExpConfig {
    /// The paper's full scale: 5-minute sessions, 10 repetitions per user.
    pub fn full() -> Self {
        ExpConfig { duration_secs: 300, repeats: 10, base_seed: 360 }
    }

    /// Session duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.duration_secs)
    }
}

impl FromKv for ExpConfig {
    /// Override any subset of the defaults from `key=value` text, e.g.
    /// `reproduce fig6 --exp duration_secs=30,repeats=2`. Unknown keys are
    /// errors so a typo cannot silently run the wrong experiment.
    fn from_kv(kv: &KvMap) -> Result<Self, String> {
        const KEYS: [&str; 3] = ["duration_secs", "repeats", "base_seed"];
        if let Some(bad) = kv.keys().find(|k| !KEYS.contains(k)) {
            return Err(format!("unknown ExpConfig key {bad:?} (expected one of {KEYS:?})"));
        }
        let mut cfg = ExpConfig::default();
        if let Some(v) = kv.get_parsed("duration_secs")? {
            cfg.duration_secs = v;
        }
        if let Some(v) = kv.get_parsed("repeats")? {
            cfg.repeats = v;
        }
        if let Some(v) = kv.get_parsed("base_seed")? {
            cfg.base_seed = v;
        }
        Ok(cfg)
    }
}

/// Process-wide worker-thread override (0 = unset). Set by the
/// `reproduce --threads N` flag via [`set_worker_threads`].
static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Pin the worker-pool width for this process (0 clears the override).
pub fn set_worker_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, std::sync::atomic::Ordering::Relaxed);
}

/// Worker-pool width for [`run_jobs`] — and shard width for the
/// `MultiGrid` epoch-lockstep executor, which must reuse this resolution
/// rather than re-reading the environment: the [`set_worker_threads`]
/// override if set, else the `POI360_THREADS` environment variable, else
/// `available_parallelism` (min 1 in every case). An unparsable env
/// value warns exactly once per process, however many resolutions run.
pub fn worker_threads() -> usize {
    let pinned = THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Ok(env) = std::env::var("POI360_THREADS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!("warning: ignoring unparsable POI360_THREADS={env:?}");
        });
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// The persistent worker pool every parallel surface shares: `run_jobs`
/// fan-outs here, and the `MultiGrid` epoch-lockstep executor in
/// `poi360-core`. One set of threads serves both — they spawn on first
/// use and park between dispatches, so neither a bench fan-out nor a
/// per-subframe grid epoch ever pays a thread spawn.
pub fn pool() -> &'static poi360_sim::workers::EpochPool {
    poi360_sim::workers::global()
}

/// Run independent jobs across up to [`worker_threads`] pool workers and
/// return the outputs **in input order**.
///
/// Each worker repeatedly pops a job off a shared stack, runs `f`, and
/// files the result under the job's original index, so the caller sees
/// identical bytes no matter how many threads ran or how the scheduler
/// interleaved them. Jobs are plain data (`Send`); any non-`Send` state
/// (sessions, cells) is constructed inside `f` on the worker thread. A
/// job may itself dispatch onto the pool (e.g. build a sharded
/// `MultiGrid`) — nested dispatches run inline on that worker.
pub fn run_jobs<I: Send, O: Send>(jobs: Vec<I>, f: impl Fn(I) -> O + Sync) -> Vec<O> {
    let width = worker_threads().min(jobs.len()).max(1);
    let jobs = std::sync::Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
    let results_mutex = std::sync::Mutex::new(Vec::new());
    pool().dispatch(width, |_| loop {
        let job = jobs.lock().expect("job queue poisoned").pop();
        let Some((idx, input)) = job else { break };
        let output = f(input);
        results_mutex.lock().expect("results poisoned").push((idx, output));
    });
    let mut results = results_mutex.into_inner().expect("results poisoned");
    results.sort_by_key(|&(idx, _)| idx);
    results.into_iter().map(|(_, r)| r).collect()
}

/// An in-memory JSONL sink for one job's probe stream, stamped with the
/// run's [`RunMeta`] so every job's bytes start with the same header.
pub(crate) fn stamped_sink(seed: u64) -> Arc<Mutex<JsonlSink<Vec<u8>>>> {
    let sink = Arc::new(Mutex::new(JsonlSink::to_writer(Vec::new())));
    sink.lock().expect("fresh sink").stamp(&RunMeta::current(seed));
    sink
}

/// Flush a [`stamped_sink`] and take its bytes. Every trace handle cloned
/// from it must already be dropped.
pub(crate) fn finish_sink(sink: Arc<Mutex<JsonlSink<Vec<u8>>>>) -> Vec<u8> {
    sink.lock().expect("sink poisoned").flush();
    let Ok(sink) = Arc::try_unwrap(sink) else { panic!("all trace handles dropped") };
    sink.into_inner().expect("sink poisoned").into_inner()
}

/// Deterministic per-session seed from experiment base seed, user index,
/// and repetition number.
pub fn session_seed(base: u64, user_idx: usize, repeat: u64) -> u64 {
    base ^ ((user_idx as u64 + 1) << 24) ^ (repeat.wrapping_mul(0x9E37_79B9))
}

/// Run `users × repeats` sessions of `make_cfg` and pool them into an
/// aggregate. `make_cfg` receives (user, seed) and returns the session
/// configuration.
pub fn run_sessions(
    exp: &ExpConfig,
    label: &str,
    make_cfg: impl Fn(UserArchetype, u64) -> SessionConfig + Sync,
) -> Aggregate {
    let users = UserArchetype::all();
    let mut jobs: Vec<SessionConfig> = Vec::new();
    for (user_idx, &user) in users.iter().enumerate() {
        for repeat in 0..exp.repeats {
            let seed = session_seed(exp.base_seed, user_idx, repeat);
            jobs.push(make_cfg(user, seed));
        }
    }
    let reports = run_parallel(jobs);
    let mut agg = Aggregate::new(label);
    for r in &reports {
        agg.add(r);
    }
    agg
}

/// Run a batch of independent sessions across the worker pool.
pub fn run_parallel(jobs: Vec<SessionConfig>) -> Vec<SessionReport> {
    run_jobs(jobs, |cfg| Session::new(cfg).run())
}

/// Run a batch of independent shared-cell ensembles across the worker
/// pool. Each ensemble is constructed inside its worker thread from the
/// plain-data config. Result order matches input order.
pub fn run_multicells(configs: Vec<MultiCellConfig>) -> Vec<MultiCellReport> {
    run_jobs(configs, |cfg| MultiCell::new(cfg).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind};
    use poi360_core::multicell::FlowSpec;
    use poi360_sim::json::ToJson;

    #[test]
    fn exp_config_from_kv_overrides_and_rejects() {
        let cfg = ExpConfig::from_kv_str("duration_secs=12,repeats=2").unwrap();
        assert_eq!(cfg.duration_secs, 12);
        assert_eq!(cfg.repeats, 2);
        assert_eq!(cfg.base_seed, ExpConfig::default().base_seed);
        assert!(ExpConfig::from_kv_str("duraton=12").is_err());
        assert!(ExpConfig::from_kv_str("repeats=abc").is_err());
    }

    #[test]
    fn run_jobs_preserves_input_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_jobs(jobs, |k| k * k);
        assert_eq!(out, (0..64).map(|k| k * k).collect::<Vec<_>>());
    }

    #[test]
    fn thread_override_takes_priority() {
        set_worker_threads(3);
        assert_eq!(worker_threads(), 3);
        set_worker_threads(0);
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn run_jobs_handles_empty_and_single() {
        assert!(run_jobs(Vec::<u32>::new(), |k| k).is_empty());
        assert_eq!(run_jobs(vec![7u32], |k| k + 1), vec![8]);
    }

    #[test]
    fn seeds_are_distinct_across_users_and_repeats() {
        let mut seen = std::collections::HashSet::new();
        for user in 0..5 {
            for rep in 0..10 {
                assert!(seen.insert(session_seed(1, user, rep)));
            }
        }
    }

    #[test]
    fn run_sessions_pools_all() {
        let exp = ExpConfig { duration_secs: 5, repeats: 2, base_seed: 9 };
        let agg = run_sessions(&exp, "smoke", |user, seed| SessionConfig {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Gcc,
            network: NetworkKind::Wireline,
            user,
            duration: exp.duration(),
            seed,
            ..Default::default()
        });
        assert_eq!(agg.sessions, 10);
        assert!(agg.freeze.delivered() > 0);
    }

    #[test]
    fn parallel_order_is_stable() {
        let exp = ExpConfig { duration_secs: 3, repeats: 1, base_seed: 5 };
        let mk = |user: UserArchetype, seed: u64| SessionConfig {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Gcc,
            network: NetworkKind::Wireline,
            user,
            duration: exp.duration(),
            seed,
            ..Default::default()
        };
        let a = run_sessions(&exp, "a", mk);
        let b = run_sessions(&exp, "b", mk);
        assert_eq!(a.roi_psnr_db, b.roi_psnr_db, "fan-out must be deterministic");
    }

    #[test]
    fn multicell_fanout_is_ordered_and_deterministic() {
        let mk = || {
            (0..3u64)
                .map(|rep| MultiCellConfig {
                    flows: vec![FlowSpec::default(); 2],
                    background_ues: 3,
                    duration: SimDuration::from_secs(4),
                    seed: 100 + rep,
                    ..Default::default()
                })
                .collect::<Vec<_>>()
        };
        let a = run_multicells(mk());
        let b = run_multicells(mk());
        assert_eq!(a.len(), 3);
        for (ra, rb) in a.iter().zip(&b) {
            let (mut ja, mut jb) = (String::new(), String::new());
            ra.write_json(&mut ja);
            rb.write_json(&mut jb);
            assert_eq!(ja, jb);
        }
    }
}
