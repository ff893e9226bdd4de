//! The traced run (`--trace 1`): per-layer metrics, measured from
//! outside the program.
//!
//! 1. One untraced round, exactly as the timed run makes it — the
//!    reference for the span overhead.
//! 2. The same round again through the [`Tracer`] probe: a histogram
//!    around every construction (`Session::new`/`faulted_traced`,
//!    `MultiCell::new`, `MultiGrid::new`) and every `step()`, and a span
//!    around every call, cell, grid and `run_jobs` job.
//! 3. Replays of the inner layers' public functions (`Cell::subframe`,
//!    `CellUplink::subframe`, `RadioMap::observe`, `Encoder::encode`,
//!    ...) at the workload's population and seed, giving a per-call cost.
//! 4. Attribution: per-call cost × the number of calls the traced round
//!    made (from its report counts), over the measured step total.
//!
//! Layers a workload does not exercise report 0. Allocation counts come
//! from the counting allocator, which only the traced binary installs.

use crate::spans::Spans;
use crate::stats::Hist;
use crate::workloads::{self, derive, Outcome, Probe, Reports, Workload};
use crate::{pin_width, Args, Metric, RunOutput};
use poi360_bench::runner;
use poi360_core::config::{CompressionScheme, RateControlKind, SessionConfig};
use poi360_core::fbcc::{Fbcc, FbccConfig};
use poi360_core::occ::{Occ, OccConfig};
use poi360_core::report::SessionReport;
use poi360_core::session::Session;
use poi360_lte::buffer::PacketLike;
use poi360_lte::cell::{Cell, CellConfig};
use poi360_lte::channel::ChannelConfig;
use poi360_lte::diag::DiagReport;
use poi360_lte::grid::{A3Config, A3State, GroundMotion, HexGrid, HoDecision, RadioMap};
use poi360_lte::scenario::Scenario;
use poi360_lte::uplink::CellUplink;
use poi360_net::packet::{FrameTag, Packet};
use poi360_net::pipe::{DelayPipe, PipeConfig};
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::trace::{BufferSink, SinkHandle};
use poi360_sim::{Recorder, SUBFRAME};
use poi360_testkit::alloc::{counting_is_active, AllocScope, GlobalAllocScope};
use poi360_testkit::black_box;
use poi360_transport::gcc::GccReceiver;
use poi360_transport::pacer::Pacer;
use poi360_transport::rtp::{HEADER_BYTES, MAX_PAYLOAD};
use poi360_video::compression::CompressionMode;
use poi360_video::content::ContentModel;
use poi360_video::encoder::{Encoder, EncoderConfig};
use poi360_video::frame::{TileGrid, TilePos};
use poi360_video::perceptual::{ghosh_matrix, weighted_matrix, SensitivityMap};
use poi360_video::roi::Roi;
use poi360_viewport::motion::{HeadMotion, MotionConfig, UserArchetype};
use std::time::Instant;

/// Every per-layer metric: name, unit, direction. `BENCHMARK.json`
/// lists exactly these, in this order.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    ("core.session.step_ns_p50", "ns", "lower"),
    ("core.session.step_ns_p99", "ns", "lower"),
    ("core.session.allocs_per_sim_s", "allocs/sim_s", "lower"),
    ("core.session.new_us_p50", "us", "lower"),
    ("core.session.frames_sent", "count", "higher"),
    ("core.session.delivered_share", "share", "higher"),
    ("core.session.packets_dropped", "count", "lower"),
    ("core.session.frames_overcounted", "count", "lower"),
    ("core.session.attributed_share", "share", "higher"),
    ("metrics.freeze.ratio", "share", "lower"),
    ("core.multicell.cell_step_us_p50", "us", "lower"),
    ("core.multicell.cell_step_us_p99", "us", "lower"),
    ("core.multicell.grid_epoch_us_p50", "us", "lower"),
    ("core.multicell.grid_epoch_us_p99", "us", "lower"),
    ("core.multicell.grid_allocs_per_epoch", "allocs", "lower"),
    ("core.multicell.grid_attributed_share", "share", "higher"),
    ("lte.cell.subframe_us_p50", "us", "lower"),
    ("lte.cell.subframe_us_p99", "us", "lower"),
    ("lte.cell.allocs_per_subframe", "allocs", "lower"),
    ("lte.cell.prb_utilization", "share", "higher"),
    ("lte.cell.step_share", "share", "lower"),
    ("lte.uplink.subframe_ns_p50", "ns", "lower"),
    ("lte.grid.observe_ns_p50", "ns", "lower"),
    ("lte.grid.a3_decide_ns_p50", "ns", "lower"),
    ("lte.grid.motion_step_ns_p50", "ns", "lower"),
    ("lte.grid.handovers", "count", "lower"),
    ("lte.grid.rlfs", "count", "lower"),
    ("video.encoder.encode_us_p50", "us", "lower"),
    ("video.encoder.allocs_per_frame", "allocs", "lower"),
    ("video.perceptual.pano_us_p50", "us", "lower"),
    ("video.perceptual.ghosh_us_p50", "us", "lower"),
    ("transport.pacer.tick_ns_p50", "ns", "lower"),
    ("transport.gcc.on_packet_ns_p50", "ns", "lower"),
    ("net.pipe.poll_ns_p50", "ns", "lower"),
    ("core.fbcc.on_diag_ns_p50", "ns", "lower"),
    ("core.occ.on_diag_ns_p50", "ns", "lower"),
    ("viewport.motion.step_ns_p50", "ns", "lower"),
    ("sim.workers.dispatch_us_p50", "us", "lower"),
    ("bench.runner.busy_share", "share", "higher"),
    ("bench.runner.tail_idle_ms", "ms", "lower"),
    ("sim.trace.overhead_x", "x", "lower"),
    ("sim.trace.records_per_sim_s", "records/sim_s", "lower"),
    ("perfbench.spans.overhead_x", "x", "lower"),
];

/// Per-layer values, keyed by [`PER_LAYER`] name; unset ones print 0.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "unknown per-layer metric {name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric { name, value: self.get(name), unit })
            .collect()
    }
}

fn p(h: &Hist, q: f64, scale: f64) -> f64 {
    h.percentile(q).map_or(f64::NAN, |v| v / scale)
}

/// A 1240-byte wire packet for the cell replay.
struct Pkt;
impl PacketLike for Pkt {
    fn wire_bytes(&self) -> u32 {
        1_240
    }
}

fn since_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Time `batch` calls of `f` together and record the per-call mean, for
/// calls too cheap to time one by one.
fn batched(h: &mut Hist, batch: usize, mut f: impl FnMut()) {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    h.record(since_ns(t) / batch as f64);
}

/// One run a round made: a call, a cell, the grid or a `run_jobs` job.
struct RunSpan {
    name: &'static str,
    lane: usize,
    start: Instant,
    end: Instant,
}

/// The thread lane a span ran on: 0 for the benchmark's own thread, `k`
/// for pool helper `poi360-epoch-k`.
fn lane() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("poi360-epoch-"))
        .and_then(|k| k.parse().ok())
        .unwrap_or(0)
}

/// The traced run's probe: construction and step times, allocations
/// during steps, and one span per run.
#[derive(Default)]
struct Tracer {
    /// Count allocations on every thread (the grid fans its step out to
    /// pool helpers) instead of on the stepping thread only.
    global_allocs: bool,
    /// Steps of each run before allocations are counted.
    warm_steps: u64,
    build: Hist,
    step: Hist,
    allocs: u64,
    counted_steps: u64,
    steps_in_run: u64,
    runs: Vec<RunSpan>,
}

impl Probe for Tracer {
    fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.build.record(since_ns(t));
        out
    }

    fn step(&mut self, f: impl FnOnce()) {
        let counted = self.steps_in_run >= self.warm_steps;
        self.steps_in_run += 1;
        let (local, global) = match (counted, self.global_allocs) {
            (false, _) => (None, None),
            (true, false) => (Some(AllocScope::enter()), None),
            (true, true) => (None, Some(GlobalAllocScope::enter())),
        };
        let t = Instant::now();
        f();
        self.step.record(since_ns(t));
        let allocs = local.map(|s| s.exit().allocs).or(global.map(|s| s.exit().allocs));
        if let Some(n) = allocs {
            self.allocs += n;
            self.counted_steps += 1;
        }
    }

    fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.steps_in_run = 0;
        let start = Instant::now();
        let out = f(self);
        self.runs.push(RunSpan { name, lane: lane(), start, end: Instant::now() });
        out
    }

    fn merge(&mut self, job: Tracer) {
        self.step.merge(&job.step);
        self.allocs += job.allocs;
        self.counted_steps += job.counted_steps;
        self.runs.extend(job.runs);
    }
}

/// `run_jobs` lane use over the round's run span `[t0, t1]`: busy share
/// (Σ job time / (width × wall)) and tail idle (from the first lane
/// running out of jobs to the last job ending), ms.
fn runner_use(jobs: &[RunSpan], width: usize, t0: Instant, t1: Instant) -> (f64, f64) {
    let busy: f64 = jobs.iter().map(|j| (j.end - j.start).as_secs_f64()).sum();
    let mut lane_end = vec![t0; width];
    for j in jobs {
        if lane_end.len() <= j.lane {
            lane_end.resize(j.lane + 1, t0);
        }
        lane_end[j.lane] = lane_end[j.lane].max(j.end);
    }
    let first_idle = lane_end.iter().copied().min().unwrap_or(t1);
    let last_end = lane_end.iter().copied().max().unwrap_or(t1);
    (busy / (width as f64 * (t1 - t0).as_secs_f64()), (last_end - first_idle).as_secs_f64() * 1e3)
}

/// Grid epochs skipped before allocations are counted.
const GRID_WARM_EPOCHS: u64 = 500;

// ---------------------------------------------------------------------
// Replays: inner layers' public functions at the workload's inputs.
// ---------------------------------------------------------------------

/// Calls timed one by one per replay.
const REPLAY: usize = 20_000;
/// Calls per timed batch for the cheap ones.
const BATCH: usize = 64;

/// `Cell::subframe` with `fg` backlogged foreground UEs among `bg`
/// on/off background UEs. Returns per-subframe times and steady-state
/// allocations per subframe.
fn replay_cell(seed: u64, fg: usize, bg: usize) -> (Hist, f64) {
    let mut cell: Cell<Pkt> = Cell::new(CellConfig::default(), derive(seed, "replay.cell"));
    let ues: Vec<_> = (0..fg)
        .map(|k| cell.attach_foreground(&format!("fg.{k:02}"), ChannelConfig::default()))
        .collect();
    cell.attach_background_population(bg);
    let mut now = SimTime::ZERO;
    let mut h = Hist::new();
    let mut tick = |cell: &mut Cell<Pkt>, h: &mut Hist| {
        for &ue in &ues {
            while cell.buffer_level(ue) < 20_000 {
                cell.enqueue(ue, Pkt, now);
            }
        }
        now += SUBFRAME;
        let t = Instant::now();
        let out = cell.subframe(now);
        h.record(since_ns(t));
        black_box(&out);
        cell.recycle(out);
    };
    let mut warm = Hist::new();
    for _ in 0..1_000 {
        tick(&mut cell, &mut warm);
    }
    let n = 5_000;
    let scope = GlobalAllocScope::enter();
    for _ in 0..n {
        tick(&mut cell, &mut h);
    }
    let allocs = scope.exit().allocs;
    (h, allocs as f64 / n as f64)
}

/// `CellUplink::subframe` under `call`'s scenario with a loaded firmware
/// buffer; also hands back the diag batches it closed, for the rate
/// controller replays.
fn replay_uplink(seed: u64) -> (Hist, Vec<DiagReport>) {
    let mut ul: CellUplink<Pkt> =
        CellUplink::new(Scenario::baseline().uplink_config(), derive(seed, "replay.uplink"));
    let mut now = SimTime::ZERO;
    let mut h = Hist::new();
    let mut diags = Vec::new();
    for i in 0..2_000 + REPLAY {
        while ul.buffer_level() < 12_000 {
            ul.enqueue(Pkt, now);
        }
        now += SUBFRAME;
        let t = Instant::now();
        let out = ul.subframe(now);
        if i >= 2_000 {
            h.record(since_ns(t));
        }
        if let Some(d) = out.diag {
            if diags.len() < 400 {
                diags.push(d.clone());
            }
            ul.recycle_diag(d);
        }
        ul.recycle_departed(out.departed);
    }
    (h, diags)
}

/// `Encoder::encode` at the session's frame rate; per-frame times and
/// allocations per frame.
fn replay_encoder(seed: u64) -> (Hist, f64) {
    let grid = TileGrid::POI360;
    let cfg = EncoderConfig::default();
    let mut enc = Encoder::new(cfg, derive(seed, "replay.encoder"));
    let content = ContentModel::new(grid, derive(seed, "replay.content"));
    let roi = Roi::at_tile(&grid, TilePos::new(6, 4));
    let matrix = CompressionMode::protected_geometric(1.4, 1, 1).matrix(&grid, roi.center);
    let mut now = SimTime::ZERO;
    let mut h = Hist::new();
    let mut frame = |h: Option<&mut Hist>| {
        now += cfg.frame_interval();
        let t = Instant::now();
        black_box(enc.encode(now, roi, &matrix, &content, 3.0e6));
        if let Some(h) = h {
            h.record(since_ns(t));
        }
    };
    for _ in 0..200 {
        frame(None);
    }
    let n = 2_000;
    let scope = GlobalAllocScope::enter();
    for _ in 0..n {
        frame(Some(&mut h));
    }
    let allocs = scope.exit().allocs;
    (h, allocs as f64 / n as f64)
}

/// `weighted_matrix` (Pano) and `ghosh_matrix` over every gaze tile.
fn replay_perceptual() -> (Hist, Hist) {
    let grid = TileGrid::POI360;
    let mode = CompressionMode::protected_geometric(1.4, 1, 1);
    let (mut pano, mut ghosh) = (Hist::new(), Hist::new());
    let tiles: Vec<TilePos> = grid.iter().collect();
    for k in 0..5_000 {
        let center = tiles[k % tiles.len()];
        let base = mode.matrix(&grid, center);
        let sens = SensitivityMap::pano(&grid, center);
        let t = Instant::now();
        black_box(weighted_matrix(&base, &sens));
        pano.record(since_ns(t));
        let t = Instant::now();
        black_box(ghosh_matrix(&base, &sens));
        ghosh.record(since_ns(t));
    }
    (pano, ghosh)
}

fn video_packet(seq: u64, sent_at: SimTime) -> Packet {
    Packet::video(
        seq,
        MAX_PAYLOAD + HEADER_BYTES,
        sent_at,
        FrameTag { frame_no: seq / 3, index: (seq % 3) as u32, count: 3 },
    )
}

/// `Pacer::tick_into`, one packet offered per tick below the pacing rate.
fn replay_pacer() -> Hist {
    let mut pacer = Pacer::new(12.0e6);
    let (mut now, mut seq) = (SimTime::ZERO, 0u64);
    let mut staged: Vec<Packet> = Vec::new();
    let mut h = Hist::new();
    for _ in 0..REPLAY / BATCH {
        for _ in 0..BATCH {
            pacer.enqueue(video_packet(seq, now));
            seq += 1;
        }
        batched(&mut h, BATCH, || {
            now += SUBFRAME;
            staged.clear();
            pacer.tick_into(now, &mut staged);
        });
    }
    h
}

/// `GccReceiver::on_packet` over a paced three-packet-per-frame stream.
fn replay_gcc() -> Hist {
    let mut gcc = GccReceiver::new(1.0e6);
    let mut h = Hist::new();
    let mut seq = 0u64;
    for _ in 0..REPLAY / BATCH {
        let pkts: Vec<(Packet, SimTime)> = (0..BATCH as u64)
            .map(|k| {
                let s = seq + k;
                let sent = SimTime::from_micros((s / 3) * 27_778 + (s % 3) * 1_000);
                (video_packet(s, sent), sent + SimDuration::from_micros(60_000 + (s % 5) * 200))
            })
            .collect();
        seq += BATCH as u64;
        let mut it = pkts.iter();
        batched(&mut h, BATCH, || {
            let (pkt, at) = it.next().expect("one packet per call");
            gcc.on_packet(pkt, *at);
        });
    }
    h
}

/// `DelayPipe::poll_into` on the cellular downstream path, two packets
/// sent per tick.
fn replay_pipe(seed: u64) -> Hist {
    let mut pipe: DelayPipe<Packet> =
        DelayPipe::new(PipeConfig::cellular_downstream(), derive(seed, "replay.pipe"));
    let (mut now, mut seq) = (SimTime::ZERO, 0u64);
    let mut arrivals = Vec::new();
    let mut h = Hist::new();
    for _ in 0..REPLAY {
        now += SUBFRAME;
        for _ in 0..2 {
            pipe.send(video_packet(seq, now), now);
            seq += 1;
        }
        arrivals.clear();
        let t = Instant::now();
        pipe.poll_into(now, &mut arrivals);
        h.record(since_ns(t));
    }
    h
}

/// `Fbcc::on_diag` and `Occ::on_diag` over the uplink replay's batches.
fn replay_controllers(diags: &[DiagReport]) -> (Hist, Hist) {
    let (mut fh, mut oh) = (Hist::new(), Hist::new());
    let chunk = 40;
    for _ in 0..20 {
        let mut fbcc = Fbcc::new(FbccConfig::default());
        let mut occ = Occ::new(1.0e6, OccConfig::default());
        for batch in diags.chunks(chunk) {
            let mut it = batch.iter();
            batched(&mut fh, batch.len(), || {
                let d = it.next().expect("one report per call");
                black_box(fbcc.on_diag(d, SimDuration::from_millis(100), d.delivered_at));
            });
            let mut it = batch.iter();
            batched(&mut oh, batch.len(), || {
                let d = it.next().expect("one report per call");
                occ.on_diag(d, d.delivered_at);
            });
        }
    }
    (fh, oh)
}

/// `HeadMotion::step` at the subframe rate.
fn replay_viewport(seed: u64) -> Hist {
    let mut head = HeadMotion::new(
        UserArchetype::EventDriven,
        MotionConfig::default(),
        derive(seed, "replay.viewport"),
    );
    let mut h = Hist::new();
    for _ in 0..REPLAY / BATCH {
        batched(&mut h, BATCH, || head.step(SUBFRAME));
    }
    h
}

/// `GroundMotion::step`, `RadioMap::observe` and `A3State::decide` for
/// every mobile of `grid`'s lattice, population and seed.
fn replay_grid(seed: u64) -> (Hist, Hist, Hist) {
    let cfg = workloads::grid_config(seed);
    let mut radio = RadioMap::new(cfg.radio, HexGrid::new(cfg.rings, cfg.isd_m));
    let n = cfg.flows.len() + cfg.load_ues;
    let names: Vec<String> = (0..n).map(|k| format!("ue.{k:03}")).collect();
    let mut motions: Vec<GroundMotion> = names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            GroundMotion::new(cfg.mobility, radio.grid(), cfg.speed_mps, cfg.seed, name, k, n)
        })
        .collect();
    let tracks: Vec<_> = names.iter().map(|name| radio.register_ue(cfg.seed, name)).collect();
    let mut serving: Vec<_> = motions
        .iter()
        .map(|m| {
            let (x, y) = m.position();
            radio.grid().serving_cell(x, y)
        })
        .collect();
    let mut a3 = vec![A3State::default(); n];
    let a3cfg = A3Config::default();
    let activity = vec![0.05; radio.grid().len()];
    let mut pos = vec![(0.0, 0.0); n];
    let mut obs = Vec::with_capacity(n);
    let (mut motion_h, mut observe_h, mut a3_h) = (Hist::new(), Hist::new(), Hist::new());
    let mut now = SimTime::ZERO;
    for _ in 0..300 {
        now += SUBFRAME;
        let mut k = 0;
        batched(&mut motion_h, n, || {
            pos[k] = motions[k].step(SUBFRAME);
            k += 1;
        });
        obs.clear();
        for k in 0..n {
            let t = Instant::now();
            let o = radio.observe(tracks[k], SUBFRAME, pos[k].0, pos[k].1, serving[k], &activity);
            observe_h.record(since_ns(t));
            obs.push(o);
        }
        let mut k = 0;
        let mut decisions = Vec::with_capacity(n);
        batched(&mut a3_h, n, || {
            let o = &obs[k];
            decisions.push(a3[k].decide(
                &a3cfg,
                now,
                o.serving_rsrp_dbm,
                o.sinr_db,
                o.best_neighbor,
            ));
            k += 1;
        });
        for (k, d) in decisions.into_iter().enumerate() {
            if let HoDecision::Handover(t) | HoDecision::Rlf(t) = d {
                serving[k] = t;
            }
        }
    }
    (motion_h, observe_h, a3_h)
}

/// An empty `EpochPool::dispatch` at width 2: the pure barrier cost.
fn replay_dispatch() -> Hist {
    let mut h = Hist::new();
    for _ in 0..2_000 {
        let t = Instant::now();
        runner::pool().dispatch(2, |_| {});
        h.record(since_ns(t));
    }
    h
}

// ---------------------------------------------------------------------
// Attribution and the tracing-overhead row.
// ---------------------------------------------------------------------

/// Per-call costs of the replayed session layers, ns.
struct SessionCosts {
    uplink: f64,
    pacer: f64,
    pipe: f64,
    viewport: f64,
    encode: f64,
    gcc: f64,
    fbcc: f64,
    occ: f64,
    pano: f64,
    ghosh: f64,
}

/// Σ per-call cost × calls made, for one session: one uplink subframe,
/// pacer tick, head-motion step and two pipe polls (media + feedback)
/// per subframe; one encode (plus its tiling, for Pano/Ghosh) per frame;
/// one GCC arrival per received packet (estimated from the received
/// bytes at full-payload packets); one controller update per diag batch.
fn explained_ns(cfg: &SessionConfig, r: &SessionReport, c: &SessionCosts) -> f64 {
    let steps = cfg.duration.as_millis() as f64;
    let frames = r.frames_sent as f64;
    let bytes: f64 = r.throughput.iter().map(|(_, bps)| bps / 8.0).sum();
    let packets = bytes / (MAX_PAYLOAD + HEADER_BYTES) as f64;
    let diags = r.fw_buffer.len() as f64;
    let controller = match cfg.rate_control {
        RateControlKind::Fbcc => c.fbcc,
        RateControlKind::Occ => c.occ,
        RateControlKind::Gcc => 0.0,
    };
    let tiling = match cfg.scheme {
        CompressionScheme::Pano => c.pano,
        CompressionScheme::Ghosh => c.ghosh,
        _ => 0.0,
    };
    steps * (c.uplink + c.pacer + 2.0 * c.pipe + c.viewport)
        + frames * (c.encode + tiling)
        + packets * c.gcc
        + diags * controller
}

/// Host time of `cfgs` run untraced and traced into an in-memory sink,
/// alternated three times; returns (traced / untraced of the medians,
/// records per simulated second).
fn trace_overhead(cfgs: &[SessionConfig]) -> (f64, f64) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut records = 0;
    for _ in 0..3 {
        let t = Instant::now();
        for cfg in cfgs {
            black_box(Session::new(*cfg).run());
        }
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        records = 0;
        for cfg in cfgs {
            let sink = BufferSink::shared();
            let handle: SinkHandle = sink.clone();
            black_box(Session::traced(*cfg, Recorder::to_sink(handle, "session")).run());
            records += sink.lock().expect("sink lock").len();
        }
        traced.push(t.elapsed().as_secs_f64());
    }
    let sim_s: f64 = cfgs.iter().map(|c| c.duration.as_secs_f64()).sum();
    (crate::stats::median(&traced) / crate::stats::median(&plain), records as f64 / sim_s)
}

fn session_reports(reports: &Reports) -> Vec<&SessionReport> {
    match reports {
        Reports::Calls(v) => v.iter().filter_map(|r| r.as_ref().ok()).collect(),
        Reports::Matrix(v) => v.iter().filter_map(|r| r.as_ref().ok().map(|(r, _)| r)).collect(),
        _ => Vec::new(),
    }
}

/// Write the span store as probe JSONL plus its Chrome rendering under
/// `perfbench/out/`.
fn write_trace(sp: &Spans, stem: &str) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text = sp.to_jsonl();
    let trace = poi360_analyse::ingest::RunTrace::parse_str(&text)?;
    let jsonl = dir.join(format!("{stem}.trace.jsonl"));
    std::fs::write(&jsonl, &text).map_err(|e| format!("{}: {e}", jsonl.display()))?;
    let chrome = dir.join(format!("{stem}.chrome.json"));
    std::fs::write(&chrome, poi360_analyse::chrome::chrome_trace(&trace))
        .map_err(|e| format!("{}: {e}", chrome.display()))?;
    Ok(jsonl.display().to_string())
}

/// The traced run.
pub fn run(args: &Args) -> RunOutput {
    let (w, seed) = (args.workload, args.seed);
    pin_width(w);
    let mut correct = counting_is_active();
    if !correct {
        eprintln!("perfbench: the counting allocator is not installed");
    }
    let mut sp = Spans::new(format!("{}.{seed}", w.name()), seed);
    let mut m = Layers::default();

    // Untraced rounds first: one to warm caches and the allocator, then
    // the reference for the span overhead.
    let t = Instant::now();
    let warm = crate::round(w, seed, 1, &mut ());
    let reference = crate::round(w, seed, 1, &mut ());
    sp.push("reference", 0, 0, t, Instant::now());

    let mut tr = Tracer::default();
    if w == Workload::Grid {
        tr.global_allocs = true;
        tr.warm_steps = GRID_WARM_EPOCHS;
    }
    let t0 = Instant::now();
    let prepared = workloads::prepare(w, seed, &mut tr);
    let t1 = Instant::now();
    let reports = workloads::execute(prepared, &mut tr);
    let t2 = Instant::now();
    let root = sp.push("round", 0, 0, t0, t2);
    sp.push("setup", root, 0, t0, t1);
    let run = sp.push("run", root, 0, t1, t2);
    for r in &tr.runs {
        sp.push(r.name, run, r.lane, r.start, r.end);
    }
    let outcome: Outcome = workloads::verify(&reports);
    let rounds = [&warm.outcome, &reference.outcome, &outcome];
    for f in rounds.iter().flat_map(|o| &o.failures) {
        eprintln!("FAIL {f}");
    }
    let attempted = rounds.iter().map(|o| o.attempted).sum();
    let failed = rounds.iter().map(|o| o.failed).sum();
    correct &= failed == 0;
    let host_s = (t2 - t1).as_secs_f64();
    m.set("perfbench.spans.overhead_x", host_s / reference.run.as_secs_f64());
    if w == Workload::Matrix {
        let (busy, tail) = runner_use(&tr.runs, runner::worker_threads(), t1, t2);
        m.set("bench.runner.busy_share", busy);
        m.set("bench.runner.tail_idle_ms", tail);
    }

    let q = &outcome.qoe;
    m.set("core.session.frames_sent", q.frames_sent as f64);
    m.set("core.session.delivered_share", q.frames_delivered as f64 / q.frames_sent.max(1) as f64);
    m.set("core.session.packets_dropped", q.packets_dropped as f64);
    m.set("core.session.frames_overcounted", q.frames_overcounted as f64);
    m.set("metrics.freeze.ratio", q.freeze.freeze_ratio().unwrap_or(f64::NAN));

    match w {
        Workload::Call | Workload::Matrix => {
            let step = &tr.step;
            m.set("core.session.step_ns_p50", p(step, 0.5, 1.0));
            m.set("core.session.step_ns_p99", p(step, 0.99, 1.0));
            let new = &tr.build;
            m.set("core.session.new_us_p50", p(new, 0.5, 1e3));
            m.set(
                "core.session.allocs_per_sim_s",
                tr.allocs as f64 / (tr.counted_steps as f64 / 1e3),
            );
            sp.hist("core.session.step", step);
            sp.hist("core.session.new", new);

            let (uplink, diags) = sp.time("replay.lte.uplink", 0, |_, _| replay_uplink(seed));
            let (encode, enc_allocs) =
                sp.time("replay.video.encoder", 0, |_, _| replay_encoder(seed));
            let pacer = sp.time("replay.transport.pacer", 0, |_, _| replay_pacer());
            let gcc = sp.time("replay.transport.gcc", 0, |_, _| replay_gcc());
            let pipe = sp.time("replay.net.pipe", 0, |_, _| replay_pipe(seed));
            let (fbcc, occ) =
                sp.time("replay.core.controllers", 0, |_, _| replay_controllers(&diags));
            let viewport = sp.time("replay.viewport.motion", 0, |_, _| replay_viewport(seed));
            let (pano, ghosh) = if w == Workload::Matrix {
                sp.time("replay.video.perceptual", 0, |_, _| replay_perceptual())
            } else {
                (Hist::new(), Hist::new())
            };
            let costs = SessionCosts {
                uplink: p(&uplink, 0.5, 1.0),
                pacer: p(&pacer, 0.5, 1.0),
                pipe: p(&pipe, 0.5, 1.0),
                viewport: p(&viewport, 0.5, 1.0),
                encode: p(&encode, 0.5, 1.0),
                gcc: p(&gcc, 0.5, 1.0),
                fbcc: p(&fbcc, 0.5, 1.0),
                occ: p(&occ, 0.5, 1.0),
                pano: if w == Workload::Matrix { p(&pano, 0.5, 1.0) } else { 0.0 },
                ghosh: if w == Workload::Matrix { p(&ghosh, 0.5, 1.0) } else { 0.0 },
            };
            for (name, h) in [
                ("lte.uplink.subframe", &uplink),
                ("video.encoder.encode", &encode),
                ("transport.pacer.tick", &pacer),
                ("transport.gcc.on_packet", &gcc),
                ("net.pipe.poll", &pipe),
                ("core.fbcc.on_diag", &fbcc),
                ("core.occ.on_diag", &occ),
                ("viewport.motion.step", &viewport),
            ] {
                sp.hist(name, h);
            }
            m.set("lte.uplink.subframe_ns_p50", costs.uplink);
            m.set("video.encoder.encode_us_p50", costs.encode / 1e3);
            m.set("video.encoder.allocs_per_frame", enc_allocs);
            m.set("transport.pacer.tick_ns_p50", costs.pacer);
            m.set("transport.gcc.on_packet_ns_p50", costs.gcc);
            m.set("net.pipe.poll_ns_p50", costs.pipe);
            m.set("core.fbcc.on_diag_ns_p50", costs.fbcc);
            m.set("core.occ.on_diag_ns_p50", costs.occ);
            m.set("viewport.motion.step_ns_p50", costs.viewport);
            if w == Workload::Matrix {
                m.set("video.perceptual.pano_us_p50", costs.pano / 1e3);
                m.set("video.perceptual.ghosh_us_p50", costs.ghosh / 1e3);
                sp.hist("video.perceptual.pano", &pano);
                sp.hist("video.perceptual.ghosh", &ghosh);
            }
            let cfgs: Vec<SessionConfig> = if w == Workload::Call {
                workloads::call_configs(seed)
            } else {
                workloads::matrix_cases(seed).into_iter().map(|c| c.cfg).collect()
            };
            let explained: f64 = cfgs
                .iter()
                .zip(session_reports(&reports))
                .map(|(cfg, r)| explained_ns(cfg, r, &costs))
                .sum();
            m.set("core.session.attributed_share", explained / step.sum_ns());
            if w == Workload::Call {
                let (overhead, records) = sp.time("sim.trace.overhead", 0, |_, _| {
                    trace_overhead(&cfgs[..6.min(cfgs.len())])
                });
                m.set("sim.trace.overhead_x", overhead);
                m.set("sim.trace.records_per_sim_s", records);
            }
        }
        Workload::Crowd => {
            let step = &tr.step;
            m.set("core.multicell.cell_step_us_p50", p(step, 0.5, 1e3));
            m.set("core.multicell.cell_step_us_p99", p(step, 0.99, 1e3));
            sp.hist("core.multicell.cell_step", step);
            let (cell, allocs) = sp.time("replay.lte.cell", 0, |_, _| {
                replay_cell(seed, workloads::CROWD_FLOWS, workloads::CROWD_BG)
            });
            sp.hist("lte.cell.subframe", &cell);
            m.set("lte.cell.subframe_us_p50", p(&cell, 0.5, 1e3));
            m.set("lte.cell.subframe_us_p99", p(&cell, 0.99, 1e3));
            m.set("lte.cell.allocs_per_subframe", allocs);
            m.set("lte.cell.prb_utilization", outcome.utilization);
            m.set("lte.cell.step_share", p(&cell, 0.5, 1.0) * step.count() as f64 / step.sum_ns());
        }
        Workload::Grid => {
            let step = &tr.step;
            m.set("core.multicell.grid_epoch_us_p50", p(step, 0.5, 1e3));
            m.set("core.multicell.grid_epoch_us_p99", p(step, 0.99, 1e3));
            m.set(
                "core.multicell.grid_allocs_per_epoch",
                tr.allocs as f64 / tr.counted_steps.max(1) as f64,
            );
            sp.hist("core.multicell.grid_epoch", step);
            let (motion, observe, a3) = sp.time("replay.lte.grid", 0, |_, _| replay_grid(seed));
            let dispatch = sp.time("replay.sim.workers", 0, |_, _| replay_dispatch());
            for (name, h) in [
                ("lte.grid.motion_step", &motion),
                ("lte.grid.observe", &observe),
                ("lte.grid.a3_decide", &a3),
                ("sim.workers.dispatch", &dispatch),
            ] {
                sp.hist(name, h);
            }
            m.set("lte.grid.motion_step_ns_p50", p(&motion, 0.5, 1.0));
            m.set("lte.grid.observe_ns_p50", p(&observe, 0.5, 1.0));
            m.set("lte.grid.a3_decide_ns_p50", p(&a3, 0.5, 1.0));
            m.set("sim.workers.dispatch_us_p50", p(&dispatch, 0.5, 1e3));
            m.set("lte.grid.handovers", outcome.handovers as f64);
            m.set("lte.grid.rlfs", outcome.rlfs as f64);
            m.set("lte.cell.prb_utilization", outcome.utilization);
            let ues = (workloads::GRID_FLOWS + workloads::GRID_LOADS) as f64;
            let per_epoch = ues * (p(&motion, 0.5, 1.0) + p(&observe, 0.5, 1.0) + p(&a3, 0.5, 1.0))
                + p(&dispatch, 0.5, 1.0);
            m.set(
                "core.multicell.grid_attributed_share",
                per_epoch * step.count() as f64 / step.sum_ns(),
            );
        }
    }

    let stem = format!("{}-{seed}", w.name());
    let written = write_trace(&sp, &stem).unwrap_or_else(|e| format!("not written ({e})"));
    let metrics = m.metrics();
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        eprintln!("per-layer metric {} is not finite", bad.name);
        correct = false;
    }
    let info = format!(
        "# workload={} seed={seed} trace={written} digest={:016x} traced_s={} reference_s={}",
        w.name(),
        outcome.digest,
        host_s,
        reference.run.as_secs_f64()
    );
    RunOutput { correct, attempted, failed, metrics, info }
}
