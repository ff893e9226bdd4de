//! Per-UE uplink access, shared by the standalone [`crate::uplink::CellUplink`]
//! and the foreground UEs of a [`crate::cell::Cell`]: the firmware buffer,
//! the BSR delay pipeline, TBS accounting, the diag port with its stall
//! freeze, and RRC re-establishment. Only the grant *decision* (and the
//! HARQ draw) stays with each owner.
//!
//! On handover ([`crate::cell::MigratedUe`]) the firmware buffer and diag
//! interface travel; [`UeAccess::rehome`] resets the rest, which belongs to
//! the serving cell.

use crate::buffer::{FirmwareBuffer, PacketLike};
use crate::diag::{DiagInterface, DiagReport, DiagSample};
use poi360_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The BSR delay pipeline: the eNodeB schedules against the backlog the UE
/// reported `delay` subframes ago.
#[derive(Debug)]
pub(crate) struct BsrPipeline {
    history: VecDeque<u64>,
    delay: usize,
    was_in_outage: bool,
}

impl BsrPipeline {
    pub(crate) fn new(delay_subframes: usize) -> Self {
        let delay = delay_subframes.max(1);
        BsrPipeline { history: VecDeque::with_capacity(delay + 1), delay, was_in_outage: false }
    }

    /// Push this subframe's backlog and return the level the eNodeB sees:
    /// the one from `delay` subframes ago, or 0 until the first BSR has
    /// arrived. The rising edge of an outage empties the pipeline — a
    /// handover or radio link failure leaves the UE at a serving cell with
    /// no BSR state yet.
    pub(crate) fn observe(&mut self, level: u64, in_outage: bool) -> u64 {
        self.history.push_back(level);
        let edge = in_outage && !self.was_in_outage;
        self.was_in_outage = in_outage;
        if edge {
            self.history.clear();
            return 0;
        }
        if self.history.len() > self.delay {
            self.history.pop_front().expect("non-empty after push")
        } else {
            0
        }
    }
}

/// Grant starvation scales the grant the scheduler would have issued; a
/// factor of 1.0 (no fault) leaves it untouched.
pub(crate) fn starve(grant_bits: u32, grant_factor: f64) -> u32 {
    (grant_bits as f64 * grant_factor) as u32
}

/// One UE's firmware buffer, BSR pipeline and diag port.
pub(crate) struct UeAccess<T> {
    /// Read and enqueue freely; serve and flush only through `UeAccess`,
    /// which checks conservation there.
    pub(crate) fw: FirmwareBuffer<T>,
    pub(crate) diag: DiagInterface,
    bsr: BsrPipeline,
    /// Frozen `(buffer_bytes, tbs_bits)` while a diag stall is active.
    stale_diag: Option<(u64, u32)>,
    /// Firmware-buffer level at the start of this subframe: what the
    /// chipset logs and what bounds the TBS.
    level_at_start: u64,
    /// Whether an injected radio link failure was active last subframe,
    /// for the re-establishment on its trailing edge.
    was_rlf: bool,
}

impl<T: PacketLike> UeAccess<T> {
    pub(crate) fn new(fw_capacity_bytes: u64, diag_period: SimDuration, bsr_delay: usize) -> Self {
        UeAccess {
            fw: FirmwareBuffer::new(fw_capacity_bytes),
            diag: DiagInterface::new(diag_period),
            bsr: BsrPipeline::new(bsr_delay),
            stale_diag: None,
            level_at_start: 0,
            was_rlf: false,
        }
    }

    /// Firmware-buffer level latched by [`UeAccess::observe`], bytes.
    pub(crate) fn level_at_start(&self) -> u64 {
        self.level_at_start
    }

    /// RRC re-establishment: flush the firmware buffer and the BSR
    /// pipeline. Returns the number of packets flushed.
    pub(crate) fn reestablish(&mut self, now: SimTime) -> u64 {
        self.bsr.history.clear();
        let flushed = self.fw.flush();
        self.fw.debug_check_conservation(now);
        flushed
    }

    /// Subframe start: latch the buffer level and advance the BSR pipeline;
    /// returns the backlog the eNodeB schedules against this subframe.
    /// `in_outage` includes `radio_failure`. When an injected radio link
    /// failure clears, RRC re-establishment runs first: queued packets are
    /// lost, not delivered seconds late, and the subframe sees the empty
    /// buffer. (Natural handover outages keep the buffer.)
    pub(crate) fn observe(&mut self, now: SimTime, radio_failure: bool, in_outage: bool) -> u64 {
        if self.was_rlf && !radio_failure {
            self.reestablish(now);
        }
        self.was_rlf = radio_failure;
        self.level_at_start = self.fw.level_bytes();
        self.bsr.observe(self.level_at_start, in_outage)
    }

    /// Serve a grant out of the firmware buffer, appending departures to
    /// `departed`. Returns the TBS: the grant actually used, bounded by
    /// both the grant and what was in the buffer at subframe start.
    pub(crate) fn serve(
        &mut self,
        grant_bits: u32,
        departed: &mut Vec<(T, SimTime)>,
        now: SimTime,
    ) -> u32 {
        let start = departed.len();
        self.fw.serve_into(grant_bits / 8, departed);
        self.fw.debug_check_conservation(now);
        let served_bits =
            departed[start..].iter().map(|(p, _)| p.wire_bytes()).sum::<u32>().saturating_mul(8);
        grant_bits.min(served_bits.max(grant_bits.min((self.level_at_start * 8) as u32)))
    }

    /// Log this subframe to the diag port. A diag stall freezes what the
    /// chipset *logs* (the controller sees stale repeated samples) while
    /// the link itself keeps moving packets.
    pub(crate) fn log(
        &mut self,
        now: SimTime,
        tbs_bits: u32,
        diag_stall: bool,
    ) -> Option<DiagReport> {
        let (buffer_bytes, tbs_bits) = if diag_stall {
            *self.stale_diag.get_or_insert((self.level_at_start, tbs_bits))
        } else {
            self.stale_diag = None;
            (self.level_at_start, tbs_bits)
        };
        self.diag.record(DiagSample { at: now, buffer_bytes, tbs_bits })
    }

    /// Re-attach at a new serving cell: BSR state and a frozen diag sample
    /// die with the old serving cell; the buffer and diag epoch travel.
    pub(crate) fn rehome(&mut self, bsr_delay: usize) {
        self.bsr = BsrPipeline::new(bsr_delay);
        self.stale_diag = None;
    }
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

    fn access(bsr_delay: usize) -> UeAccess<Pkt> {
        UeAccess::new(512 * 1024, DiagInterface::DEFAULT_PERIOD, bsr_delay)
    }

    #[test]
    fn bsr_reports_the_level_from_exactly_delay_subframes_ago() {
        for delay in [1, 2, 6] {
            let mut bsr = BsrPipeline::new(delay);
            for k in 0..30u64 {
                let reported = bsr.observe(1_000 + k, false);
                let want = if k < delay as u64 { 0 } else { 1_000 + k - delay as u64 };
                assert_eq!(reported, want, "delay {delay}, subframe {k}");
            }
        }
        // A zero delay still costs one subframe: a BSR is never instant.
        let mut bsr = BsrPipeline::new(0);
        assert_eq!(bsr.observe(5, false), 0);
        assert_eq!(bsr.observe(6, false), 5);
    }

    #[test]
    fn bsr_reports_zero_after_an_outage_edge_until_it_refills() {
        let delay = 4;
        let mut bsr = BsrPipeline::new(delay);
        let mut reported = Vec::new();
        for k in 0..20u64 {
            // A 3-subframe outage starting at subframe 8: only its rising
            // edge empties the pipeline.
            reported.push(bsr.observe(100 + k, (8..11).contains(&k)));
        }
        assert_eq!(reported[4..8], [100, 101, 102, 103]);
        // The edge drops everything pushed so far, including subframe 8's
        // level; the pipeline refills from subframe 9 on.
        assert!(reported[8..13].iter().all(|&r| r == 0), "{reported:?}");
        assert_eq!(reported[13..16], [109, 110, 111]);
    }

    #[test]
    fn reestablishment_flushes_and_restarts_the_bsr_pipeline() {
        let delay = 3;
        let mut ue = access(delay);
        let now = SimTime::ZERO;
        for _ in 0..5 {
            ue.fw.enqueue(Pkt(1_000), now);
        }
        let reported: Vec<u64> = (0..delay + 1).map(|_| ue.observe(now, false, false)).collect();
        assert_eq!(reported, [0, 0, 0, 5_000]);
        assert_eq!(ue.reestablish(now), 5);
        assert_eq!(ue.fw.level_bytes(), 0);
        // New traffic is reported only once a fresh BSR has crossed the
        // pipeline: no pre-flush level leaks through.
        ue.fw.enqueue(Pkt(700), now);
        let reported: Vec<u64> = (0..delay + 2).map(|_| ue.observe(now, false, false)).collect();
        assert_eq!(reported, [0, 0, 0, 700, 700]);
    }

    #[test]
    fn rlf_trailing_edge_reestablishes_before_the_level_is_read() {
        let mut ue = access(2);
        let now = SimTime::ZERO;
        ue.fw.enqueue(Pkt(1_200), now);
        ue.observe(now, false, false);
        ue.observe(now, true, true);
        ue.observe(now, true, true);
        assert_eq!(ue.fw.len(), 1, "the buffer survives while the RLF lasts");
        assert_eq!(ue.observe(now, false, false), 0);
        assert_eq!((ue.fw.flushed(), ue.level_at_start()), (1, 0));
        ue.fw.enqueue(Pkt(1_200), now);
        ue.observe(now, false, false);
        assert_eq!(ue.fw.flushed(), 1, "only the trailing edge flushes");
    }

    #[test]
    fn tbs_is_bounded_by_the_grant_and_the_backlog() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert, prop_check};
        prop_check!(256, |g: &mut Gen| {
            let mut ue = access(1);
            let mut now = SimTime::ZERO;
            let mut departed = Vec::new();
            for _ in 0..g.usize_in(1, 40) {
                for _ in 0..g.usize_in(0, 4) {
                    ue.fw.enqueue(Pkt(g.u32_in(1, 1_500)), now);
                }
                ue.observe(now, false, false);
                let grant = g.u32_in(0, 60_000);
                departed.clear();
                let tbs = ue.serve(grant, &mut departed, now);
                let served_bits: u32 = departed.iter().map(|(p, _)| p.wire_bytes() * 8).sum();
                let backlog_bits = (ue.level_at_start() * 8) as u32;
                prop_assert!(tbs <= grant, "tbs {tbs} > grant {grant}");
                prop_assert!(
                    tbs <= served_bits.max(backlog_bits),
                    "tbs {tbs} > max(served {served_bits}, backlog {backlog_bits})"
                );
                now += SUBFRAME;
            }
            Ok(())
        });
    }

    #[test]
    fn empty_buffer_serves_nothing() {
        let mut ue = access(1);
        let mut departed = Vec::new();
        let now = SimTime::ZERO;
        for _ in 0..10 {
            ue.observe(now, false, false);
            assert_eq!(ue.serve(50_000, &mut departed, now), 0);
            assert!(departed.is_empty());
        }
    }

    #[test]
    fn diag_stall_freezes_logged_samples_not_the_link() {
        let mut ue = access(1);
        let mut now = SimTime::ZERO;
        let mut samples = Vec::new();
        let mut departed = Vec::new();
        let mut reports = 0;
        let mut delivered_in_stall = 0;
        for sf in 0..400u64 {
            while ue.fw.level_bytes() < 30_000 {
                ue.fw.enqueue(Pkt(1_200), now);
            }
            ue.observe(now, false, false);
            departed.clear();
            let tbs = ue.serve(4_000 + sf as u32, &mut departed, now);
            let stalled = (200..320).contains(&sf);
            if stalled {
                delivered_in_stall += departed.len();
            }
            if let Some(r) = ue.log(now, tbs, stalled) {
                reports += 1;
                samples.extend(r.samples.iter().map(|s| (s.at.as_millis(), s.tbs_bits)));
            }
            now += SUBFRAME;
        }
        assert_eq!(reports, 10, "one report per 40 ms epoch");
        let tbs_at = |ms: u64| samples.iter().find(|s| s.0 == ms).expect("logged").1;
        assert!((200..320).all(|ms| tbs_at(ms) == tbs_at(200)), "frozen during the stall");
        assert_ne!(tbs_at(320), tbs_at(200), "live again once the stall clears");
        assert!(delivered_in_stall > 0, "the link keeps serving during a stall");
    }
}
