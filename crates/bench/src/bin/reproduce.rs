//! `reproduce` — regenerate every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! cargo run --release -p poi360-bench --bin reproduce -- all
//! cargo run --release -p poi360-bench --bin reproduce -- fig11 --full
//! cargo run --release -p poi360-bench --bin reproduce -- fig17 --seconds 120 --repeats 5
//! ```
//!
//! Subcommands: `fig5 fig6 table1 fig11 fig12 fig13 fig14 fig15 fig16
//! fig17 coexist ablation trace perf study all` (`--list` enumerates them). Flags:
//! `--full` (paper scale: 300 s × 10 repeats), `--seconds N`,
//! `--repeats N`, `--seed N`. Output also lands in
//! `bench_results/<name>.txt` at the workspace root, regardless of the
//! invoking directory.
//!
//! `trace` runs one scenario (`busy` by default — the loaded cell where
//! FBCC earns its keep — or `baseline`, `quiet`, `coexist`) with a JSONL
//! probe sink attached and writes every probe emission to
//! `bench_results/trace_<scenario>.jsonl`, one JSON object per line, plus
//! a probe-count summary table. `trace --smoke` is the CI entry point: a
//! 5 s busy-cell run emitting `bench_results/trace_smoke.jsonl`.
//!
//! `perf` profiles one layer of the subframe pipeline at a time (cell,
//! uplink, transport, video, session, plus the sharded-grid `grid_scale`
//! matrix at 19/61/127 cells × shard widths 1/2/4/8), prints medians
//! plus heap allocations per iteration, asserts the busy-cell steady
//! state allocates nothing, and with `--compare <baseline.json>` fails
//! on a median regression beyond the threshold — the CI perf gate.
//! Results in `bench_results/perf.json` / `perf_probes.jsonl` (the full
//! gated window) / `perf_trace.json` (Chrome trace of that window).
//!
//! `study` is the one experiment engine. It runs a declarative
//! scenario × controller × tiling × seed matrix of one family (a
//! checked-in preset, or a `.study` config file) through the worker
//! pool, judges every case, and renders one report. The presets
//! (`--list` shows them): `faults` (every fault preset × {FBCC, GCC,
//! OCC}, recovery verdicts), `cc_matrix` (FBCC vs GCC probe
//! distributions and A-vs-B deltas), `mobility` (convoy handover
//! invariants and per-flow conservation ledger), `ho_tails` (handover
//! delivery-gap tails), and `arena` (controller × tiling league: a
//! shared-cell quality leg plus fault legs per pairing). `--smoke`
//! compresses every run for CI; `--baseline <dir>` diffs the fresh
//! medians against a previously written study artifact and fails on
//! drift beyond the study's threshold. Any violated invariant or drift
//! exits nonzero. Artifacts: `bench_results/study_<name>[_smoke]
//! .{txt,jsonl}` plus `…_trace.json` (Chrome trace of the first case).
//!
//! Every subcommand accepts `--threads N` to pin the worker-pool width
//! (otherwise `POI360_THREADS`, otherwise all cores).

use poi360_bench::experiments as exp;
use poi360_bench::runner::ExpConfig;
use poi360_sim::json::{FromKv, KvMap, ToJson};
use poi360_testkit::{black_box, Bench};
use std::io::Write;

/// Count heap allocations so `reproduce perf` can enforce the
/// zero-alloc steady-state gate (DESIGN.md §10). Counting is a few
/// thread-local increments per allocation — noise for every other
/// subcommand.
#[global_allocator]
static ALLOC: poi360_testkit::CountingAlloc = poi360_testkit::CountingAlloc;

/// Every subcommand with a one-line description; `--list` prints this and
/// an unknown subcommand enumerates the names.
const SUBCOMMANDS: &[(&str, &str)] = &[
    ("fig5", "sum UL TBS/s vs firmware buffer occupancy"),
    ("fig6", "CDF of firmware buffer level under WebRTC/GCC"),
    ("table1", "PSNR to Mean Opinion Score mapping"),
    ("fig11", "compression ratio per scheme"),
    ("fig12", "encode time per scheme"),
    ("fig13", "ROI PSNR per scheme"),
    ("fig14", "mismatch recovery per scheme"),
    ("fig15", "FBCC vs GCC rate-control comparison"),
    ("fig16", "FBCC vs GCC buffer occupancy CDF"),
    ("fig17", "robustness sweeps: load, signal, speed"),
    ("coexist", "FBCC/GCC flows sharing one cell"),
    ("ablation", "prediction, mode, policy, and edge-relay ablations"),
    ("trace", "probe-stream JSONL export for one scenario (see --help text)"),
    ("perf", "per-layer hot-path profile + allocation gate (see --help text)"),
    ("study", "run a study preset or .study file: fault, mobility, or arena matrix + report"),
    ("all", "every figure and table above"),
    ("list", "print this subcommand list (also --list)"),
    ("smoke", "quick JSON bench + aggregate sanity run (also --smoke)"),
];

fn list() {
    println!("reproduce subcommands:");
    for (name, what) in SUBCOMMANDS {
        println!("  {name:<10} {what}");
    }
    println!("\nnamed presets (scenarios, controllers and tilings go in a .study file):");
    let presets = poi360_lte::scenario::preset_registry()
        .into_iter()
        .chain(poi360_analyse::study::registry());
    for p in presets {
        println!("  {:<9} {:<12} {}", p.family, p.name, p.what);
    }
}

fn unknown(what: &str) -> ! {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|&(n, _)| n).collect();
    eprintln!("unknown subcommand `{what}`; expected one of: {}", names.join(", "));
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce <fig5|fig6|table1|fig11|fig12|fig13|fig14|fig15|fig16|fig17|coexist|ablation|all> \
         [--full] [--seconds N] [--repeats N] [--seed N] [--exp k=v,...]\n\
         \x20      reproduce trace [busy|baseline|quiet|coexist] [--seconds N] [--seed N] [--smoke]\n\
         \x20      reproduce perf [--smoke] [--compare <baseline.json>]\n\
         \x20      reproduce study <preset|config-file> [--smoke] [--baseline <dir>]\n\
         \x20      reproduce --list    (enumerate subcommands)\n\
         \x20      reproduce --smoke   (quick JSON bench + aggregate sanity run)\n\
         \x20      any subcommand also accepts --threads N (worker-pool width;\n\
         \x20      POI360_THREADS env is the fallback)"
    );
    std::process::exit(2);
}

/// Quick hermetic sanity run for CI: a tiny timed suite over the figure
/// generators plus a reduced-scale aggregate, all emitted as JSON
/// (`bench_results/smoke.json` / `smoke_aggregate.json`).
fn smoke() {
    let cfg = ExpConfig { duration_secs: 5, repeats: 1, base_seed: 77 };
    let mut b = Bench::new("smoke").samples(3).warmup(1);
    b.bench("smoke/fig5_buffer_tbs_sweep", || {
        black_box(exp::fig5_series(&cfg));
    });
    b.bench("smoke/table1_modes", || {
        black_box(exp::table1());
    });
    b.finish().expect("write bench_results/smoke.json");

    let agg = exp::fig6_aggregate(&cfg);
    let dir = poi360_testkit::results_dir();
    std::fs::create_dir_all(&dir).ok();
    std::fs::write(dir.join("smoke_aggregate.json"), agg.to_json() + "\n")
        .expect("write smoke_aggregate.json");
    println!("{}", agg.to_json());
}

/// `reproduce trace <scenario>` — run one scenario with a JSONL sink
/// attached and render a probe-count summary table. Returns the number of
/// failures (a failed trace write is a failure, not a warning, so CI can
/// gate on the exit code).
fn trace(args: &[String]) -> usize {
    use poi360_core::config::{NetworkKind, RateControlKind, SessionConfig};
    use poi360_core::multicell::{FlowSpec, MultiCell, MultiCellConfig};
    use poi360_core::session::Session;
    use poi360_lte::scenario::Scenario;
    use poi360_metrics::table::Table;
    use poi360_sim::time::SimDuration;
    use poi360_sim::trace::{JsonlSink, SinkHandle, TraceSink};
    use poi360_sim::Recorder;
    use std::sync::{Arc, Mutex};

    let mut scenario = String::from("busy");
    let mut seconds: u64 = 30;
    let mut seed: u64 = 1;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                // CI entry point: short busy-cell run, fixed output name.
                smoke = true;
                seconds = 5;
            }
            "--seconds" => {
                seconds = it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => {
                seed = it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|_| usage())
            }
            name if !name.starts_with('-') => scenario = name.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let dir = poi360_testkit::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let stem = if smoke { "trace_smoke".to_string() } else { format!("trace_{scenario}") };
    let path = dir.join(format!("{stem}.jsonl"));
    let sink = Arc::new(Mutex::new(JsonlSink::create(&path).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", path.display());
        std::process::exit(1);
    })));
    sink.lock().unwrap().stamp(&poi360_sim::trace::RunMeta::current(seed));
    let handle: SinkHandle = sink.clone();

    let session_cfg = |net: Scenario| SessionConfig {
        rate_control: RateControlKind::Fbcc,
        network: NetworkKind::Cellular(net),
        duration: SimDuration::from_secs(seconds),
        seed,
        ..Default::default()
    };
    match scenario.as_str() {
        // load_sweep()[1] is the busy cell: the FBCC-relevant condition
        // where competing load drives the firmware buffer and Γ(t).
        "busy" => {
            black_box(
                Session::traced(
                    session_cfg(Scenario::load_sweep()[1]),
                    Recorder::to_sink(handle, "session"),
                )
                .run(),
            );
        }
        "baseline" => {
            black_box(
                Session::traced(
                    session_cfg(Scenario::baseline()),
                    Recorder::to_sink(handle, "session"),
                )
                .run(),
            );
        }
        "quiet" => {
            black_box(
                Session::traced(
                    session_cfg(Scenario::quiet()),
                    Recorder::to_sink(handle, "session"),
                )
                .run(),
            );
        }
        "coexist" => {
            let cfg = MultiCellConfig {
                flows: vec![
                    FlowSpec::with_rate_control(RateControlKind::Fbcc),
                    FlowSpec::with_rate_control(RateControlKind::Gcc),
                ],
                duration: SimDuration::from_secs(seconds),
                seed,
                ..Default::default()
            };
            black_box(MultiCell::traced(cfg, handle).run());
        }
        other => {
            eprintln!(
                "unknown trace scenario `{other}`; expected one of: busy, baseline, quiet, coexist"
            );
            std::process::exit(2);
        }
    }

    sink.lock().unwrap().flush();
    let sink = sink.lock().unwrap();
    let mut failures = 0;
    if sink.had_io_error() {
        eprintln!("FAIL: some trace writes to {} failed", path.display());
        failures += 1;
    }
    let mut t = Table::new(
        format!("Probe counts — scenario `{scenario}`, {seconds}s, seed {seed}"),
        &["Probe", "Records"],
    );
    for (name, count) in sink.counts() {
        t.row(vec![name.to_string(), count.to_string()]);
    }
    let mut out = t.render();
    out.push_str(&format!("{} JSONL records -> {}\n", sink.lines(), path.display()));
    println!("{out}");
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{stem}.txt"))) {
        let _ = f.write_all(out.as_bytes());
    }
    failures
}

/// `reproduce study <preset|config-file>` — run a declarative study
/// through the experiment engine and render its report. Returns the
/// number of gate failures (violated invariants plus baseline drift
/// beyond the study's threshold).
fn study(args: &[String]) -> usize {
    use poi360_analyse::study::{by_name, unknown_study_error, StudyConfig};
    use poi360_bench::study as st;
    use poi360_sim::json::FromKv;

    let mut smoke = false;
    let mut baseline_dir: Option<std::path::PathBuf> = None;
    let mut which: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--baseline" => {
                baseline_dir = Some(std::path::PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            name if !name.starts_with('-') => which = Some(name.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let Some(which) = which else {
        eprintln!("study needs a preset name or a .study config file");
        usage();
    };

    // A registered preset first; otherwise a config file on disk.
    let cfg = match by_name(&which) {
        Some(cfg) => cfg,
        None => {
            let path = std::path::Path::new(&which);
            if !path.is_file() {
                eprintln!("{}", unknown_study_error(&which));
                std::process::exit(2);
            }
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
            StudyConfig::from_kv_str(&text).unwrap_or_else(|e| {
                eprintln!("{}: {e}", path.display());
                std::process::exit(2);
            })
        }
    };

    let stem =
        if smoke { format!("study_{}_smoke", cfg.name) } else { format!("study_{}", cfg.name) };
    let baseline_bytes = baseline_dir.map(|dir| {
        let path = dir.join(format!("{stem}.jsonl"));
        std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", path.display());
            std::process::exit(2);
        })
    });

    eprintln!(
        "# study `{}`: {} cases ({} family){}",
        cfg.name,
        cfg.cases().len(),
        cfg.family.as_str(),
        if smoke { ", smoke scale" } else { "" }
    );
    let protocol = st::run_protocol(&cfg, smoke, baseline_bytes.as_deref()).unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    });

    let dir = poi360_testkit::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&jsonl_path, &protocol.jsonl).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", jsonl_path.display());
        std::process::exit(1);
    });
    let chrome_path = dir.join(format!("{stem}_trace.json"));
    std::fs::write(&chrome_path, &protocol.chrome).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", chrome_path.display());
        std::process::exit(1);
    });

    // The .txt artifact is exactly the protocol text (the golden tests
    // pin the smoke variants), so path lines go to stdout only.
    println!("{}", protocol.text);
    println!("{} JSONL bytes -> {}", protocol.jsonl.len(), jsonl_path.display());
    println!("chrome trace -> {}", chrome_path.display());
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{stem}.txt"))) {
        let _ = f.write_all(protocol.text.as_bytes());
    }
    protocol.failures
}

/// `reproduce perf [--smoke] [--compare <baseline.json>]` — the
/// profiling plane. Returns the number of gate failures.
fn perf(args: &[String]) -> usize {
    let mut opts = poi360_bench::perf::PerfOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--compare" => {
                opts.compare = Some(std::path::PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    poi360_bench::perf::run(&opts)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` applies to every subcommand: strip it here, before
    // dispatch, and pin the worker pool.
    if let Some(k) = args.iter().position(|a| a == "--threads") {
        let Some(n) = args.get(k + 1).and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
        else {
            eprintln!("--threads needs a positive integer");
            usage();
        };
        poi360_bench::runner::set_worker_threads(n);
        args.drain(k..k + 2);
    }
    if args.is_empty() {
        usage();
    }
    let what = args[0].clone();
    if what == "--smoke" || what == "smoke" {
        smoke();
        return;
    }
    if what == "--list" || what == "list" {
        list();
        return;
    }
    if what == "trace" {
        if trace(&args[1..]) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if what == "perf" {
        if perf(&args[1..]) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if what == "study" {
        if study(&args[1..]) > 0 {
            std::process::exit(1);
        }
        return;
    }
    let mut cfg = ExpConfig::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--full" => cfg = ExpConfig { base_seed: cfg.base_seed, ..ExpConfig::full() },
            "--seconds" => {
                cfg.duration_secs =
                    it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|_| usage())
            }
            "--repeats" => {
                cfg.repeats =
                    it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => {
                cfg.base_seed =
                    it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|_| usage())
            }
            "--exp" => {
                // `key=value` overrides, validated by ExpConfig's FromKv;
                // only the keys actually present are merged in, so --exp
                // composes with --full/--seconds/--repeats/--seed.
                let text = it.next().unwrap_or_else(|| usage());
                let kv = KvMap::parse(text).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                let parsed = ExpConfig::from_kv(&kv).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                if kv.get("duration_secs").is_some() {
                    cfg.duration_secs = parsed.duration_secs;
                }
                if kv.get("repeats").is_some() {
                    cfg.repeats = parsed.repeats;
                }
                if kv.get("base_seed").is_some() {
                    cfg.base_seed = parsed.base_seed;
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    eprintln!(
        "# sessions: {}s x {} repeats x 5 users per condition (seed {})",
        cfg.duration_secs, cfg.repeats, cfg.base_seed
    );

    let mut outputs: Vec<(&str, String)> = Vec::new();
    let micro_needed = ["fig11", "fig12", "fig13", "fig14", "all"].contains(&what.as_str());
    let micro = micro_needed.then(|| exp::compression_bench(&cfg));
    let rate_needed = ["fig15", "fig16", "all"].contains(&what.as_str());
    let rate = rate_needed.then(|| exp::rate_control_bench(&cfg));

    match what.as_str() {
        "fig5" => outputs.push(("fig5", exp::fig5(&cfg))),
        "fig6" => outputs.push(("fig6", exp::fig6(&cfg))),
        "table1" => outputs.push(("table1", exp::table1())),
        "fig11" => outputs.push(("fig11", exp::fig11(micro.as_ref().expect("computed")))),
        "fig12" => outputs.push(("fig12", exp::fig12(micro.as_ref().expect("computed")))),
        "fig13" => outputs.push(("fig13", exp::fig13(micro.as_ref().expect("computed")))),
        "fig14" => outputs.push(("fig14", exp::fig14(micro.as_ref().expect("computed")))),
        "fig15" => outputs.push(("fig15", exp::fig15(rate.as_ref().expect("computed")))),
        "fig16" => outputs.push(("fig16", exp::fig16(rate.as_ref().expect("computed")))),
        "fig17" => {
            outputs.push(("fig17_load", exp::fig17(&cfg, exp::Fig17Axis::Load)));
            outputs.push(("fig17_signal", exp::fig17(&cfg, exp::Fig17Axis::Signal)));
            outputs.push(("fig17_speed", exp::fig17(&cfg, exp::Fig17Axis::Speed)));
        }
        "coexist" => outputs.push(("coexist", exp::coexist(&cfg))),
        "ablation" => {
            outputs.push(("ablation_prediction", exp::roi_prediction_ablation()));
            outputs.push(("ablation_modes", exp::mode_ablation(&cfg)));
            outputs.push(("ablation_prediction_policy", exp::prediction_policy_ablation(&cfg)));
            outputs.push(("ablation_edge", exp::edge_relay_ablation(&cfg)));
        }
        "all" => {
            outputs.push(("table1", exp::table1()));
            outputs.push(("fig5", exp::fig5(&cfg)));
            outputs.push(("fig6", exp::fig6(&cfg)));
            let micro = micro.expect("computed");
            outputs.push(("fig11", exp::fig11(&micro)));
            outputs.push(("fig12", exp::fig12(&micro)));
            outputs.push(("fig13", exp::fig13(&micro)));
            outputs.push(("fig14", exp::fig14(&micro)));
            let rate = rate.expect("computed");
            outputs.push(("fig15", exp::fig15(&rate)));
            outputs.push(("fig16", exp::fig16(&rate)));
            outputs.push(("fig17_load", exp::fig17(&cfg, exp::Fig17Axis::Load)));
            outputs.push(("fig17_signal", exp::fig17(&cfg, exp::Fig17Axis::Signal)));
            outputs.push(("fig17_speed", exp::fig17(&cfg, exp::Fig17Axis::Speed)));
            outputs.push(("coexist", exp::coexist(&cfg)));
            outputs.push(("ablation_prediction", exp::roi_prediction_ablation()));
            outputs.push(("ablation_modes", exp::mode_ablation(&cfg)));
            outputs.push(("ablation_prediction_policy", exp::prediction_policy_ablation(&cfg)));
            outputs.push(("ablation_edge", exp::edge_relay_ablation(&cfg)));
        }
        other => unknown(other),
    }

    let dir = poi360_testkit::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let mut failures = 0;
    for (name, text) in &outputs {
        println!("{text}");
        if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.txt"))) {
            let _ = f.write_all(text.as_bytes());
        }
        // Generators mark violated self-checks with a FAIL line; surface
        // them in the exit code so ci.sh actually gates on the run.
        if text.contains("FAIL") {
            eprintln!("{name}: output contains a FAIL marker");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
