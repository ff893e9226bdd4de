//! A shared eNodeB uplink cell serving many concurrent UEs.
//!
//! The standalone [`crate::uplink::CellUplink`] models *one* UE against a
//! stochastic competing-load scalar. This module is the multi-user
//! counterpart: a single [`Cell`] owns N attached UEs — each with its own
//! [`Channel`], BSR reporting pipeline, HARQ process, and uplink queue —
//! and every 1 ms subframe runs one proportional-fair PRB allocation
//! across all of them. Cell load is *emergent*: background UEs run on/off
//! traffic sources into real queues and compete for the same PRBs the
//! foreground (telephony) UEs want, so "busy cell" is produced by queues,
//! not sampled from a distribution.
//!
//! Scheduling follows textbook PF: each backlogged UE is weighted by
//! `instantaneous rate / EWMA throughput`, PRBs are split proportionally
//! to weight subject to a per-UE cap (integerized by largest remainder),
//! and the EWMA is updated from what each UE actually served. Each
//! foreground UE's firmware buffer, BSR pipeline, TBS accounting, diag
//! port and RRC re-establishment are the same `UeAccess` the standalone
//! uplink runs, so a session sees one contract either way; only the grant
//! decision (this PF split) and the per-UE HARQ stream are the cell's own.
//!
//! Determinism: every UE derives its RNG streams from the cell seed and
//! the UE's *name* (via [`SimRng::stream`]), and background UEs are kept
//! sorted by name. Attaching the same set of UEs in any order therefore
//! produces byte-identical results, and adding UE j never perturbs UE i's
//! channel or HARQ draws.

pub mod background;

use crate::access::{starve, BsrPipeline, UeAccess};
use crate::buffer::{FirmwareBuffer, PacketLike};
use crate::channel::{Channel, ChannelConfig, ChannelState};
use crate::diag::{DiagInterface, DiagReport};
use crate::scenario::BackgroundLoad;
use crate::tbs;
use crate::uplink::SubframeOutcome;
use background::{BackgroundTraffic, BackgroundTrafficConfig};
use poi360_sim::fault::{FaultPlan, FaultTimeline};
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;

/// Cell-wide scheduler parameters.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// Uplink PRBs available per subframe (50 = 10 MHz LTE).
    pub total_prbs: u32,
    /// Per-UE PRB cap per subframe (single-cluster UL allocation limit).
    pub max_prbs_per_ue: u32,
    /// Subframes between a buffer level existing and the eNodeB seeing it.
    pub bsr_delay_subframes: usize,
    /// Probability an initial HARQ transmission is lost (grant wasted).
    pub harq_fail_prob: f64,
    /// PF throughput-EWMA time constant, in subframes.
    pub pf_time_constant_subframes: f64,
    /// Foreground firmware-buffer capacity, bytes.
    pub fw_capacity_bytes: u64,
    /// Diag report period for foreground UEs.
    pub diag_period: SimDuration,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            total_prbs: 50,
            max_prbs_per_ue: 25,
            bsr_delay_subframes: 6,
            harq_fail_prob: 0.10,
            pf_time_constant_subframes: 500.0,
            fw_capacity_bytes: 512 * 1024,
            diag_period: DiagInterface::DEFAULT_PERIOD,
        }
    }
}

/// Handle to a foreground UE attached to a [`Cell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UeId(pub usize);

/// Per-UE radio + PF state shared by foreground and background UEs: all
/// of it belongs to the serving cell and is rebuilt on handover.
#[derive(Debug)]
struct UeLink {
    name: String,
    channel: Channel,
    harq: SimRng,
    /// PF throughput EWMA, bits per subframe.
    avg_bits_per_sf: f64,
    /// This subframe's channel state (refreshed in phase A).
    cqi: u8,
    eff: f64,
    in_outage: bool,
    /// This subframe's BSR-delayed reported backlog, bytes.
    reported: u64,
    /// TBS served this subframe (phase C; 0 when not served).
    tbs_bits: u32,
}

impl UeLink {
    fn new(cell_seed: u64, name: &str, ch_cfg: ChannelConfig) -> Self {
        let channel_seed = SimRng::stream(cell_seed, &format!("cell.{name}.channel")).next_u64();
        let harq = SimRng::stream(cell_seed, &format!("cell.{name}.harq"));
        UeLink {
            name: name.to_string(),
            channel: Channel::new(ch_cfg, channel_seed),
            harq,
            avg_bits_per_sf: 0.0,
            cqi: 0,
            eff: 0.0,
            in_outage: false,
            reported: 0,
            tbs_bits: 0,
        }
    }

    /// Phase A: refresh this subframe's channel verdict and return whether
    /// the UE is in outage. When `radio` is `Some`, the grid's radio map
    /// dictates the verdict and the internal [`Channel`] is *not* stepped
    /// (no RNG draws), so grid-driven runs stay deterministic regardless of
    /// how long a UE has been attached. `forced_outage` (an injected radio
    /// link failure) overrides the verdict: the serving eNodeB is gone.
    fn observe(&mut self, now: SimTime, radio: Option<ChannelState>, forced_outage: bool) -> bool {
        let ch = match radio {
            Some(state) => state,
            None => self.channel.subframe(now),
        };
        self.cqi = ch.cqi;
        self.eff = tbs::smooth_efficiency(ch.sinr_db);
        self.in_outage = ch.in_outage || forced_outage;
        self.tbs_bits = 0;
        self.in_outage
    }

    /// PF weight this subframe: achievable rate over smoothed throughput.
    fn pf_weight(&self) -> f64 {
        self.eff * tbs::DATA_RE_PER_PRB / self.avg_bits_per_sf.max(100.0)
    }

    /// Initial HARQ loss wastes the whole grant; its PRBs stay consumed.
    fn harq(&mut self, grant_bits: u32, fail_prob: f64) -> u32 {
        let lost = grant_bits > 0 && self.harq.chance(fail_prob);
        if lost {
            0
        } else {
            grant_bits
        }
    }

    fn update_avg(&mut self, alpha: f64) {
        self.avg_bits_per_sf += alpha * (self.tbs_bits as f64 - self.avg_bits_per_sf);
    }
}

/// A foreground UE: a real firmware buffer fed by a telephony session.
struct ForegroundUe<T> {
    link: UeLink,
    access: UeAccess<T>,
    /// Externally supplied channel verdict for the next subframe
    /// ([`Cell::set_foreground_radio`]); consumed in phase A.
    radio: Option<ChannelState>,
}

/// A foreground UE detached from one cell, in transit to another: its
/// `UeAccess` travels, so the firmware buffer (with every queued packet)
/// and diag interface keep their state; BSR state and any frozen diag
/// sample are reset on re-attach, and the radio link (channel, HARQ, PF
/// average) is rebuilt from the target cell's seed.
pub struct MigratedUe<T> {
    name: String,
    access: UeAccess<T>,
}

impl<T: PacketLike> MigratedUe<T> {
    /// The UE's name (keys its RNG streams on the target cell too).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rewind any partial service of the head packet: the RLC context
    /// does not survive the handover, so a packet caught mid-segmentation
    /// retransmits in full at the target cell.
    pub fn restart_head(&mut self) {
        self.access.fw.restart_head();
    }

    /// RRC re-establishment after a radio link failure: everything
    /// queued is lost. Returns the number of packets flushed.
    pub fn flush(&mut self, now: SimTime) -> u64 {
        self.access.reestablish(now)
    }
}

/// A background UE: an on/off byte backlog that competes for PRBs.
struct BackgroundUe {
    link: UeLink,
    bsr: BsrPipeline,
    traffic: BackgroundTraffic,
    backlog_bytes: u64,
}

/// Which UE a scheduling candidate refers to.
#[derive(Clone, Copy)]
enum Slot {
    Fg(usize),
    Bg(usize),
}

/// One backlogged UE's claim in this subframe's allocation.
struct Candidate {
    slot: Slot,
    eff: f64,
    reported: u64,
    cap_prbs: u32,
    weight: f64,
    prbs: u32,
}

/// Reusable working buffers for [`allocate_prbs`]: the active-index,
/// still-active, proportional-share, and largest-remainder order vectors
/// keep their capacity across subframes.
#[derive(Default)]
struct AllocScratch {
    active: Vec<usize>,
    still_active: Vec<usize>,
    shares: Vec<f64>,
    order: Vec<usize>,
}

/// Per-subframe working memory owned by the cell (DESIGN.md §10): every
/// vector here is cleared — never dropped — between ticks, so the
/// steady-state scheduler loop reuses capacity instead of allocating.
/// The `*_pool` / `spare_*` fields hold shells handed back through
/// [`Cell::recycle`] and friends; callers that never recycle simply fall
/// back to the pre-scratch allocation behaviour.
struct Scratch<T> {
    /// This subframe's PF candidate list.
    cands: Vec<Candidate>,
    /// Per-foreground departed-packet staging; slots are moved into the
    /// outcomes each tick and replenished from `departed_pool`.
    per_ue_departed: Vec<Vec<(T, SimTime)>>,
    /// Allocator working buffers.
    alloc: AllocScratch,
    /// Emptied departed vectors returned via recycling.
    departed_pool: Vec<Vec<(T, SimTime)>>,
    /// Emptied `CellSubframe` shells returned via [`Cell::recycle`].
    spare_per_ue: Vec<Vec<SubframeOutcome<T>>>,
    spare_prbs: Vec<Vec<u32>>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch {
            cands: Vec::new(),
            per_ue_departed: Vec::new(),
            alloc: AllocScratch::default(),
            departed_pool: Vec::new(),
            spare_per_ue: Vec::new(),
            spare_prbs: Vec::new(),
        }
    }
}

/// Everything the cell did in one subframe.
pub struct CellSubframe<T> {
    /// Per-foreground-UE outcomes, indexed by [`UeId`].
    pub per_ue: Vec<SubframeOutcome<T>>,
    /// PRBs granted to each foreground UE this subframe, indexed by
    /// [`UeId`].
    pub prbs_per_ue: Vec<u32>,
    /// Total PRBs granted (foreground + background) this subframe.
    pub prbs_granted: u32,
    /// Sum of background-UE queue backlogs after service, bytes.
    pub bg_backlog_bytes: u64,
}

/// The shared eNodeB uplink.
pub struct Cell<T> {
    cfg: CellConfig,
    seed: u64,
    /// Foreground slots, indexed by [`UeId`]. A slot goes `None` when its
    /// UE hands over to another cell ([`Cell::detach_foreground`]) and is
    /// reused by the next arrival, so UeIds of resident UEs stay stable.
    fg: Vec<Option<ForegroundUe<T>>>,
    bg: Vec<BackgroundUe>,
    subframes: u64,
    prbs_granted_total: u64,
    /// Access-network fault plan, applied to every foreground UE.
    faults: FaultTimeline,
    /// Reusable per-subframe working memory.
    scratch: Scratch<T>,
    recorder: Recorder,
}

impl<T: PacketLike> Cell<T> {
    /// Create an empty cell.
    pub fn new(cfg: CellConfig, seed: u64) -> Self {
        Cell {
            cfg,
            seed,
            fg: Vec::new(),
            bg: Vec::new(),
            subframes: 0,
            prbs_granted_total: 0,
            faults: FaultTimeline::default(),
            scratch: Scratch::default(),
            recorder: Recorder::null(),
        }
    }

    /// Attach the access-network slice of a fault plan. Faults apply to the
    /// cell's *foreground* UEs (the telephony sessions under test): radio
    /// link failure forces them into outage, grant starvation scales their
    /// grants, diag stalls freeze their logged samples, and a flash crowd
    /// removes a fraction of the cell's PRBs as if a sudden background
    /// population claimed them. Transition events are emitted on the cell's
    /// recorder.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultTimeline::new(plan.access_slice());
    }

    /// Attach the cell's probe recorder (scheduler-level probes; per-UE
    /// signals are traced by each UE's session recorder).
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Configuration in use.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Attach a foreground (session-driven) UE. Names must be unique
    /// within the cell; they key the UE's RNG streams.
    pub fn attach_foreground(&mut self, name: &str, ch_cfg: ChannelConfig) -> UeId {
        self.assert_unique(name);
        let access = UeAccess::new(
            self.cfg.fw_capacity_bytes,
            self.cfg.diag_period,
            self.cfg.bsr_delay_subframes,
        );
        self.place_foreground(ForegroundUe {
            link: UeLink::new(self.seed, name, ch_cfg),
            access,
            radio: None,
        })
    }

    fn assert_unique(&self, name: &str) {
        assert!(
            self.fg.iter().flatten().all(|u| u.link.name != name)
                && self.bg.iter().all(|u| u.link.name != name),
            "duplicate UE name {name:?}"
        );
    }

    /// Fill the lowest vacant slot (deterministic) or grow the vector.
    fn place_foreground(&mut self, ue: ForegroundUe<T>) -> UeId {
        match self.fg.iter().position(Option::is_none) {
            Some(k) => {
                self.fg[k] = Some(ue);
                UeId(k)
            }
            None => {
                self.fg.push(Some(ue));
                UeId(self.fg.len() - 1)
            }
        }
    }

    /// Detach a foreground UE for handover: its firmware buffer and diag
    /// interface leave with it, its slot opens for reuse, and its radio
    /// link (channel, HARQ, PF average) dies with the serving-cell
    /// context, exactly as X2 handover rebuilds MAC state.
    pub fn detach_foreground(&mut self, ue: UeId) -> MigratedUe<T> {
        let u = self.fg[ue.0].take().expect("detach of an occupied slot");
        MigratedUe { name: u.link.name, access: u.access }
    }

    /// Re-attach a migrated UE. The target cell builds a fresh radio link
    /// keyed by the *same* UE name and its own seed and resets the BSR
    /// pipeline; the firmware buffer arrives with whatever survived the
    /// handover.
    pub fn attach_migrated(&mut self, mut mu: MigratedUe<T>, ch_cfg: ChannelConfig) -> UeId {
        self.assert_unique(&mu.name);
        mu.access.rehome(self.cfg.bsr_delay_subframes);
        let link = UeLink::new(self.seed, &mu.name, ch_cfg);
        self.place_foreground(ForegroundUe { link, access: mu.access, radio: None })
    }

    /// Dictate a foreground UE's channel verdict for the next subframe.
    /// While a grid drives a UE this is called every subframe; the UE's
    /// internal stochastic channel is then never stepped.
    pub fn set_foreground_radio(&mut self, ue: UeId, state: ChannelState) {
        self.fg[ue.0].as_mut().expect("occupied slot").radio = Some(state);
    }

    /// Read access to a foreground UE's firmware buffer (conservation
    /// accounting: `total_enqueued`, `flushed`, `len`).
    pub fn firmware(&self, ue: UeId) -> &FirmwareBuffer<T> {
        &self.fg[ue.0].as_ref().expect("occupied slot").access.fw
    }

    /// Attach one background UE. Its traffic profile and channel are drawn
    /// from a stream keyed by `name`, and background UEs are kept sorted
    /// by name so attach order never affects results.
    pub fn attach_background(&mut self, name: &str) {
        self.assert_unique(name);
        let mut profile = SimRng::stream(self.seed, &format!("cell.{name}.profile"));
        let traffic_cfg = BackgroundTrafficConfig {
            on_rate_bps: profile.uniform_range(0.4e6, 2.4e6),
            mean_on: SimDuration::from_secs_f64(profile.uniform_range(0.5, 3.0)),
            mean_off: SimDuration::from_secs_f64(profile.uniform_range(1.0, 6.0)),
            ..Default::default()
        };
        let ch_cfg =
            ChannelConfig { rss_dbm: profile.uniform_range(-100.0, -70.0), ..Default::default() };
        let traffic_seed = profile.next_u64();
        let ue = BackgroundUe {
            link: UeLink::new(self.seed, name, ch_cfg),
            bsr: BsrPipeline::new(self.cfg.bsr_delay_subframes),
            traffic: BackgroundTraffic::new(traffic_cfg, traffic_seed),
            backlog_bytes: 0,
        };
        let at = self
            .bg
            .binary_search_by(|u| u.link.name.as_str().cmp(name))
            .expect_err("name is unique");
        self.bg.insert(at, ue);
    }

    /// Attach `count` background UEs named `bg.000`, `bg.001`, …
    pub fn attach_background_population(&mut self, count: usize) {
        let start = self.bg.len();
        for k in start..start + count {
            self.attach_background(&format!("bg.{k:03}"));
        }
    }

    /// Number of foreground UEs currently resident (occupied slots).
    pub fn foreground_count(&self) -> usize {
        self.fg.iter().flatten().count()
    }

    /// Offer a packet to a foreground UE's firmware buffer. Returns false
    /// on overflow drop.
    pub fn enqueue(&mut self, ue: UeId, item: T, now: SimTime) -> bool {
        self.fg[ue.0].as_mut().expect("occupied slot").access.fw.enqueue(item, now)
    }

    /// A foreground UE's firmware-buffer level, bytes.
    pub fn buffer_level(&self, ue: UeId) -> u64 {
        self.firmware(ue).level_bytes()
    }

    /// Packets dropped at a foreground UE's firmware-buffer tail.
    pub fn dropped(&self, ue: UeId) -> u64 {
        self.firmware(ue).dropped()
    }

    /// Mean fraction of PRBs granted per subframe so far.
    pub fn mean_utilization(&self) -> f64 {
        if self.subframes == 0 {
            return 0.0;
        }
        self.prbs_granted_total as f64 / (self.subframes * self.cfg.total_prbs as u64) as f64
    }

    /// Advance the whole cell one subframe: refresh every UE's channel and
    /// BSR, run one PF PRB allocation, serve the granted UEs, and return
    /// the per-foreground-UE outcomes.
    pub fn subframe(&mut self, now: SimTime) -> CellSubframe<T> {
        let af = self.faults.advance(now, &self.recorder);

        // Phase A: observe. Foreground first (UeId order), then background
        // (name order); each UE touches only its own RNG streams.
        for u in self.fg.iter_mut().flatten() {
            let in_outage = u.link.observe(now, u.radio.take(), af.radio_failure);
            u.link.reported = u.access.observe(now, af.radio_failure, in_outage);
        }
        for u in &mut self.bg {
            let arrived = u.traffic.subframe();
            let cap = u.traffic.config().backlog_cap_bytes;
            u.backlog_bytes = (u.backlog_bytes + arrived).min(cap);
            let in_outage = u.link.observe(now, None, false);
            u.link.reported = u.bsr.observe(u.backlog_bytes, in_outage);
        }

        // Phase B: gather candidates and allocate PRBs.
        let max_prbs_per_ue = self.cfg.max_prbs_per_ue;
        self.scratch.cands.clear();
        for (k, slot) in self.fg.iter().enumerate() {
            let Some(u) = slot else { continue };
            self.scratch.cands.extend(candidate(Slot::Fg(k), &u.link, max_prbs_per_ue));
        }
        for (k, u) in self.bg.iter().enumerate() {
            self.scratch.cands.extend(candidate(Slot::Bg(k), &u.link, max_prbs_per_ue));
        }
        // A flash crowd claims a fraction of the cell's PRBs before the PF
        // allocator runs, exactly as a sudden background population would.
        let effective_prbs = (self.cfg.total_prbs as f64 * (1.0 - af.flash_crowd_load)) as u32;
        allocate_prbs(effective_prbs, &mut self.scratch.cands, &mut self.scratch.alloc);

        // Phase C: serve grants, apply HARQ, update PF averages.
        let alpha = 1.0 / self.cfg.pf_time_constant_subframes.max(1.0);
        let prbs_granted: u32 = self.scratch.cands.iter().map(|c| c.prbs).sum();
        let n_fg = self.fg.len();
        let mut per_ue_prbs = self.scratch.spare_prbs.pop().unwrap_or_default();
        per_ue_prbs.clear();
        per_ue_prbs.resize(n_fg, 0);
        self.scratch.per_ue_departed.clear();
        for _ in 0..n_fg {
            self.scratch.per_ue_departed.push(self.scratch.departed_pool.pop().unwrap_or_default());
        }
        let harq_fail_prob = self.cfg.harq_fail_prob;
        for c in &self.scratch.cands {
            if c.prbs == 0 {
                continue;
            }
            let grant_bits =
                (c.prbs as f64 * c.eff * tbs::DATA_RE_PER_PRB).min(c.reported as f64 * 8.0 + 256.0);
            let grant_bits = grant_bits.floor() as u32;
            match c.slot {
                Slot::Fg(k) => {
                    per_ue_prbs[k] = c.prbs;
                    let u = self.fg[k].as_mut().expect("candidate slot occupied");
                    // Grant starvation scales only the foreground (session) UEs.
                    let used = u.link.harq(starve(grant_bits, af.grant_factor), harq_fail_prob);
                    let departed = &mut self.scratch.per_ue_departed[k];
                    u.link.tbs_bits = u.access.serve(used, departed, now);
                }
                Slot::Bg(k) => {
                    let u = &mut self.bg[k];
                    let used = u.link.harq(grant_bits, harq_fail_prob);
                    let served = (used as u64 / 8).min(u.backlog_bytes);
                    u.backlog_bytes -= served;
                    u.link.tbs_bits = (served * 8).min(used as u64) as u32;
                }
            }
        }
        // Every UE's PF average moves, toward 0 for UEs that got nothing.
        for u in self.fg.iter_mut().flatten() {
            u.link.update_avg(alpha);
        }
        for u in &mut self.bg {
            u.link.update_avg(alpha);
        }

        self.subframes += 1;
        self.prbs_granted_total += prbs_granted as u64;
        self.recorder.event("cell.prb_grant", now, prbs_granted as f64);

        // Phase D: assemble foreground outcomes. The per-UE `load` is the
        // fraction of PRBs everyone *else* consumed — the shared-cell
        // analogue of the standalone competing-load scalar.
        let total = self.cfg.total_prbs as f64;
        // PRBs the flash crowd claimed count as load everyone else sees.
        let crowd_prbs = self.cfg.total_prbs - effective_prbs;
        let mut per_ue = self.scratch.spare_per_ue.pop().unwrap_or_default();
        per_ue.clear();
        per_ue.reserve(self.fg.len());
        for (k, slot) in self.fg.iter_mut().enumerate() {
            let Some(u) = slot else {
                // Vacant slot (its UE handed over away): a zeroed outcome
                // keeps `per_ue` indexed by UeId.
                per_ue.push(SubframeOutcome {
                    departed: std::mem::take(&mut self.scratch.per_ue_departed[k]),
                    tbs_bits: 0,
                    buffer_bytes: 0,
                    cqi: 0,
                    load: (prbs_granted + crowd_prbs) as f64 / total,
                    in_outage: true,
                    diag: None,
                });
                continue;
            };
            let tbs_bits = u.link.tbs_bits;
            let diag = u.access.log(now, tbs_bits, af.diag_stall);
            per_ue.push(SubframeOutcome {
                departed: std::mem::take(&mut self.scratch.per_ue_departed[k]),
                tbs_bits,
                buffer_bytes: u.access.level_at_start(),
                cqi: u.link.cqi,
                load: (prbs_granted + crowd_prbs - per_ue_prbs[k]) as f64 / total,
                in_outage: u.link.in_outage,
                diag,
            });
        }
        let bg_backlog_bytes = self.bg.iter().map(|u| u.backlog_bytes).sum();
        CellSubframe { per_ue, prbs_per_ue: per_ue_prbs, prbs_granted, bg_backlog_bytes }
    }

    /// Return a consumed [`CellSubframe`] so the next tick reuses its
    /// buffers. Any outcomes still inside are drained: their departed
    /// vectors go back to the departed pool and their diag reports back
    /// to the owning UE's diag interface. Callers that hand outcomes to
    /// sessions first (draining `per_ue`) still recycle the shells.
    pub fn recycle(&mut self, out: CellSubframe<T>) {
        let CellSubframe { mut per_ue, mut prbs_per_ue, .. } = out;
        for (k, outcome) in per_ue.drain(..).enumerate() {
            let SubframeOutcome { departed, diag, .. } = outcome;
            self.recycle_departed(departed);
            if let Some(report) = diag {
                self.recycle_diag(UeId(k), report);
            }
        }
        self.scratch.spare_per_ue.push(per_ue);
        prbs_per_ue.clear();
        self.scratch.spare_prbs.push(prbs_per_ue);
    }

    /// Return an emptied (or consumed) departed-packet vector for reuse
    /// by the next subframe's service phase.
    pub fn recycle_departed(&mut self, mut departed: Vec<(T, SimTime)>) {
        departed.clear();
        self.scratch.departed_pool.push(departed);
    }

    /// Return a consumed diag report's sample storage to the UE that
    /// produced it, for reuse by its next 40 ms epoch.
    pub fn recycle_diag(&mut self, ue: UeId, report: DiagReport) {
        if let Some(u) = self.fg.get_mut(ue.0).and_then(Option::as_mut) {
            u.access.diag.recycle(report);
        }
    }
}

/// Background population sizes calibrated so the emergent mean PRB
/// utilization lands near the standalone [`crate::uplink::LoadConfig`]
/// presets *including* their burst duty cycle (idle ≈ 0.10,
/// typical ≈ 0.42, busy ≈ 0.50).
pub fn background_population_for(load: BackgroundLoad) -> usize {
    match load {
        BackgroundLoad::Idle => 3,
        BackgroundLoad::Typical => 11,
        BackgroundLoad::Busy => 14,
    }
}

/// Build a scheduling candidate for a backlogged, in-coverage UE.
fn candidate(slot: Slot, link: &UeLink, max_prbs_per_ue: u32) -> Option<Candidate> {
    if link.in_outage || link.reported == 0 || link.eff <= 0.0 {
        return None;
    }
    // PRBs needed to clear the reported backlog this subframe; granting
    // more would be wasted, so it caps the UE's claim.
    let want_bits = link.reported as f64 * 8.0 + 256.0;
    let cap = (want_bits / (link.eff * tbs::DATA_RE_PER_PRB)).ceil() as u32;
    Some(Candidate {
        slot,
        eff: link.eff,
        reported: link.reported,
        cap_prbs: cap.clamp(1, max_prbs_per_ue),
        weight: link.pf_weight(),
        prbs: 0,
    })
}

/// Split `total` PRBs across candidates proportionally to PF weight,
/// subject to per-candidate caps: candidates whose proportional share
/// meets their cap take exactly the cap and drop out (their surplus is
/// redistributed), then the rest are integerized by largest remainder.
///
/// All working storage lives in `scratch` so steady-state allocation
/// rounds reuse capacity; [`allocate_prbs_reference`] is the
/// convenience form that owns a throwaway scratch. The remainder sort's
/// comparator is a strict total order (index tie-break), so
/// `sort_unstable_by` is deterministic and scratch reuse cannot change
/// the grants — the property test pins reused-scratch against
/// fresh-scratch, and a hardcoded table pins the grants themselves.
fn allocate_prbs(total: u32, cands: &mut [Candidate], scratch: &mut AllocScratch) {
    let AllocScratch { active, still_active, shares, order } = scratch;
    active.clear();
    active.extend(0..cands.len());
    let mut remaining = total;
    loop {
        if remaining == 0 || active.is_empty() {
            return;
        }
        let wsum: f64 = active.iter().map(|&i| cands[i].weight).sum();
        if wsum <= 0.0 {
            return;
        }
        let mut capped_prbs = 0u32;
        still_active.clear();
        for &i in active.iter() {
            let share = remaining as f64 * cands[i].weight / wsum;
            if share >= cands[i].cap_prbs as f64 {
                cands[i].prbs = cands[i].cap_prbs;
                capped_prbs += cands[i].cap_prbs;
            } else {
                still_active.push(i);
            }
        }
        if capped_prbs > 0 {
            // Sum of caps taken is bounded by the sum of their shares,
            // which is at most `remaining`.
            remaining -= capped_prbs;
            std::mem::swap(active, still_active);
            continue;
        }
        // No one capped: integerize the proportional shares.
        shares.clear();
        shares.extend(active.iter().map(|&i| remaining as f64 * cands[i].weight / wsum));
        let mut assigned = 0u32;
        for (k, &i) in active.iter().enumerate() {
            cands[i].prbs = shares[k].floor() as u32;
            assigned += cands[i].prbs;
        }
        let mut leftover = remaining - assigned;
        order.clear();
        order.extend(0..active.len());
        order.sort_unstable_by(|&a, &b| {
            let fa = shares[a] - shares[a].floor();
            let fb = shares[b] - shares[b].floor();
            fb.total_cmp(&fa).then(active[a].cmp(&active[b]))
        });
        for &k in order.iter() {
            if leftover == 0 {
                break;
            }
            let i = active[k];
            if cands[i].prbs < cands[i].cap_prbs {
                cands[i].prbs += 1;
                leftover -= 1;
            }
        }
        return;
    }
}

/// [`allocate_prbs`] with a throwaway [`AllocScratch`]: one algorithm,
/// two entry points. The ~70-line fresh-`Vec` copy that used to live here
/// drifted from being a true oracle the moment the scratch version became
/// canonical; the differential test now pins reused-scratch against this
/// fresh-scratch wrapper, and `pf_split_grants_are_pinned` pins the
/// resulting grants against hand-computed values.
#[cfg(test)]
fn allocate_prbs_reference(total: u32, cands: &mut [Candidate]) {
    allocate_prbs(total, cands, &mut AllocScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::SUBFRAME;

    #[derive(Debug)]
    struct Pkt(u32);
    impl PacketLike for Pkt {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    fn strong_channel() -> ChannelConfig {
        ChannelConfig { shadow_std_db: 0.0, fading_std_db: 0.0, ..Default::default() }
    }

    /// Run `secs` seconds keeping each foreground UE's buffer topped up to
    /// `level` bytes; return per-UE mean throughput (bits/s).
    fn saturated_throughputs(cell: &mut Cell<Pkt>, level: u64, secs: u64) -> Vec<f64> {
        let n = cell.foreground_count();
        let mut served = vec![0u64; n];
        let mut now = SimTime::ZERO;
        for _ in 0..secs * 1000 {
            for k in 0..n {
                while cell.buffer_level(UeId(k)) < level {
                    cell.enqueue(UeId(k), Pkt(1_200), now);
                }
            }
            let out = cell.subframe(now);
            for (tally, ue) in served.iter_mut().zip(&out.per_ue) {
                *tally += ue.tbs_bits as u64;
            }
            now += SUBFRAME;
        }
        served.iter().map(|&b| b as f64 / secs as f64).collect()
    }

    #[test]
    fn lone_ue_gets_served() {
        let mut cell = Cell::new(CellConfig::default(), 1);
        cell.attach_foreground("fg.0", strong_channel());
        let tput = saturated_throughputs(&mut cell, 40_000, 10)[0];
        // 25-PRB cap at good CQI is well above the standalone 8-PRB share.
        assert!(tput > 5.0e6, "lone UE throughput {tput}");
    }

    #[test]
    fn equal_ues_split_equally() {
        let mut cell = Cell::new(CellConfig::default(), 2);
        cell.attach_foreground("fg.0", strong_channel());
        cell.attach_foreground("fg.1", strong_channel());
        let t = saturated_throughputs(&mut cell, 40_000, 20);
        let ratio = t[0] / t[1];
        assert!((0.9..1.1).contains(&ratio), "split {t:?}");
    }

    #[test]
    fn prbs_never_exceed_capacity() {
        let mut cell = Cell::new(CellConfig::default(), 3);
        for k in 0..4 {
            cell.attach_foreground(&format!("fg.{k}"), ChannelConfig::default());
        }
        cell.attach_background_population(10);
        let mut now = SimTime::ZERO;
        for _ in 0..5_000 {
            for k in 0..4 {
                while cell.buffer_level(UeId(k)) < 30_000 {
                    cell.enqueue(UeId(k), Pkt(1_200), now);
                }
            }
            let out = cell.subframe(now);
            assert!(out.prbs_granted <= cell.config().total_prbs);
            now += SUBFRAME;
        }
    }

    #[test]
    fn background_population_loads_the_cell() {
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 4);
        cell.attach_background_population(background_population_for(BackgroundLoad::Busy));
        let mut now = SimTime::ZERO;
        for _ in 0..60_000 {
            cell.subframe(now);
            now += SUBFRAME;
        }
        let util = cell.mean_utilization();
        assert!((0.30..0.60).contains(&util), "busy-cell utilization {util}");
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut cell = Cell::new(CellConfig::default(), 5);
            cell.attach_foreground("fg.0", ChannelConfig::default());
            cell.attach_background_population(6);
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..3_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                trace.push((out.per_ue[0].tbs_bits, out.prbs_granted));
                now += SUBFRAME;
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cell_faults_starve_and_fail_foreground_ues() {
        use poi360_sim::fault::{FaultKind, FaultPlan};
        let mut cell = Cell::new(CellConfig::default(), 7);
        cell.attach_foreground("fg.0", strong_channel());
        cell.set_fault_plan(
            FaultPlan::new()
                .with(
                    FaultKind::RadioLinkFailure,
                    SimTime::from_millis(1_000),
                    SimDuration::from_millis(300),
                )
                .with(
                    FaultKind::FlashCrowd { extra_load: 0.9 },
                    SimTime::from_millis(2_000),
                    SimDuration::from_millis(500),
                ),
        );
        let mut now = SimTime::ZERO;
        let mut healthy_bits = 0u64;
        let mut crowd_bits = 0u64;
        for sf in 0..3_000u64 {
            while cell.buffer_level(UeId(0)) < 30_000 {
                cell.enqueue(UeId(0), Pkt(1_200), now);
            }
            let out = cell.subframe(now);
            let ue = &out.per_ue[0];
            match sf {
                1_000..=1_299 => {
                    assert_eq!(ue.tbs_bits, 0, "RLF must zero TBS at sf {sf}");
                    assert!(ue.in_outage);
                }
                2_000..=2_499 => {
                    crowd_bits += ue.tbs_bits as u64;
                    assert!(ue.load > 0.85, "crowd load visible: {}", ue.load);
                }
                0..=999 => healthy_bits += ue.tbs_bits as u64,
                _ => {}
            }
            now += SUBFRAME;
        }
        // 90 % of the PRBs gone leaves well under half the healthy rate.
        let healthy_rate = healthy_bits as f64 / 1_000.0;
        let crowd_rate = crowd_bits as f64 / 500.0;
        assert!(crowd_rate < healthy_rate * 0.5, "crowd {crowd_rate} healthy {healthy_rate}");
    }

    #[test]
    fn cell_empty_fault_plan_is_byte_identical() {
        use poi360_sim::fault::FaultPlan;
        let run = |with_plan: bool| {
            let mut cell = Cell::new(CellConfig::default(), 8);
            cell.attach_foreground("fg.0", ChannelConfig::default());
            cell.attach_background_population(4);
            if with_plan {
                cell.set_fault_plan(FaultPlan::new());
            }
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..2_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                trace.push((out.per_ue[0].tbs_bits, out.prbs_granted));
                now += SUBFRAME;
            }
            trace
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn scratch_allocator_matches_fresh_allocation_reference() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert_eq, prop_check};
        // One scratch reused across every generated case, differentially
        // against a fresh scratch per case: stale contents from earlier
        // (differently-sized) rounds must never leak into a later
        // allocation.
        let mut scratch = AllocScratch::default();
        prop_check!(256, |g: &mut Gen| {
            let n = g.usize_in(0, 48);
            let total = g.u32_in(0, 120);
            let draw = |g: &mut Gen, k: usize| Candidate {
                slot: Slot::Fg(k),
                eff: g.f64_in(0.05, 6.0),
                reported: g.u64_in(0, 200_000),
                cap_prbs: g.u32_in(1, 32),
                weight: g.f64_in(0.0, 40.0),
                prbs: g.u32_in(0, 7), // stale garbage the allocator must overwrite
            };
            let mut with_scratch: Vec<Candidate> = (0..n).map(|k| draw(g, k)).collect();
            let mut reference: Vec<Candidate> = with_scratch
                .iter()
                .map(|c| Candidate {
                    slot: c.slot,
                    eff: c.eff,
                    reported: c.reported,
                    cap_prbs: c.cap_prbs,
                    weight: c.weight,
                    prbs: c.prbs,
                })
                .collect();
            allocate_prbs(total, &mut with_scratch, &mut scratch);
            allocate_prbs_reference(total, &mut reference);
            for (a, b) in with_scratch.iter().zip(&reference) {
                prop_assert_eq!(a.prbs, b.prbs);
            }
            Ok(())
        });
    }

    #[test]
    fn pf_split_grants_are_pinned() {
        // Hand-computed grant tables: with the fresh-`Vec` oracle gone
        // (allocate_prbs_reference now delegates), this pins the actual
        // arithmetic — proportional split, cap-and-redistribute, largest
        // remainder with index tie-break — against fixed values.
        let cand = |k: usize, weight: f64, cap_prbs: u32| Candidate {
            slot: Slot::Fg(k),
            eff: 1.0,
            reported: 10_000,
            cap_prbs,
            weight,
            prbs: 0,
        };
        let grants = |total: u32, mut cands: Vec<Candidate>| -> Vec<u32> {
            allocate_prbs(total, &mut cands, &mut AllocScratch::default());
            cands.iter().map(|c| c.prbs).collect()
        };
        // Equal weights, equal fractions: leftover goes to lower indices.
        assert_eq!(
            grants(10, vec![cand(0, 1.0, 32), cand(1, 1.0, 32), cand(2, 1.0, 32)]),
            [4, 3, 3]
        );
        // A cap binds: the heavy UE takes exactly its cap, the surplus is
        // re-split 3:1 over the others (7.5 and 2.5; the tie-free
        // fraction sends the leftover PRB to the heavier one).
        assert_eq!(
            grants(12, vec![cand(0, 6.0, 2), cand(1, 3.0, 32), cand(2, 1.0, 32)]),
            [2, 8, 2]
        );
        // Largest remainder without ties: 40/7 = 5.71 beats 16/7 = 2.29.
        assert_eq!(grants(8, vec![cand(0, 5.0, 32), cand(1, 2.0, 32)]), [6, 2]);
        // Proportional share exactly equal to the cap still counts as
        // capped (share >= cap), leaving a clean re-split for the rest.
        assert_eq!(grants(10, vec![cand(0, 1.0, 5), cand(1, 1.0, 8)]), [5, 5]);
        // Degenerate inputs: nothing to grant, or nobody schedulable.
        assert_eq!(grants(0, vec![cand(0, 1.0, 32)]), [0]);
        assert_eq!(grants(5, vec![cand(0, 0.0, 32), cand(1, 0.0, 32)]), [0, 0]);
    }

    #[test]
    fn recycled_subframes_are_byte_identical() {
        // The same run with and without recycling must produce the same
        // trace: scratch reuse may only change *where* buffers live.
        let run = |recycle: bool| {
            let mut cell = Cell::new(CellConfig::default(), 11);
            cell.attach_foreground("fg.0", ChannelConfig::default());
            cell.attach_background_population(6);
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..3_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                trace.push((
                    out.per_ue[0].tbs_bits,
                    out.per_ue[0].departed.len(),
                    out.prbs_granted,
                    out.bg_backlog_bytes,
                ));
                if recycle {
                    cell.recycle(out);
                }
                now += SUBFRAME;
            }
            trace
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn attach_order_does_not_change_foreground_results() {
        let run = |names: &[&str]| {
            let mut cell = Cell::new(CellConfig::default(), 6);
            cell.attach_foreground("fg.0", strong_channel());
            for name in names {
                cell.attach_background(name);
            }
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..3_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                trace.push(cell.subframe(now).per_ue[0].tbs_bits);
                now += SUBFRAME;
            }
            trace
        };
        let forward = run(&["bg.a", "bg.b", "bg.c"]);
        let reversed = run(&["bg.c", "bg.b", "bg.a"]);
        assert_eq!(forward, reversed);
    }
}
