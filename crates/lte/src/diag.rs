//! The phone's diagnostic interface (MobileInsight-style, paper §5).
//!
//! The modem chipset logs the uplink firmware-buffer level and the granted
//! TBS for *every 1 ms subframe* (paper §4.1 cites per-subframe extraction),
//! and the prototype's log decoder delivers those records to the
//! application in **40 ms batches** (§5: "obtains the LTE uplink TBS and
//! the uplink firmware buffer level for every 40ms"). FBCC consumes the
//! per-subframe samples inside each batch: the congestion test (Eq. 3)
//! scans K = 10 consecutive subframe-level buffer increases, and the RTP
//! controller (Eq. 7) acts once per 40 ms epoch.

use poi360_sim::time::{SimDuration, SimTime};

/// One per-subframe diagnostic record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagSample {
    /// Subframe start time.
    pub at: SimTime,
    /// Firmware buffer occupancy at the start of the subframe, bytes.
    pub buffer_bytes: u64,
    /// Transport block size granted/served this subframe, bits.
    pub tbs_bits: u32,
}

/// A 40 ms batch of diagnostic samples.
#[derive(Clone, Debug)]
pub struct DiagReport {
    /// Delivery time of the batch (end of the reporting epoch).
    pub delivered_at: SimTime,
    /// The subframe records of the epoch, oldest first.
    pub samples: Vec<DiagSample>,
}

impl DiagReport {
    /// Sum of TBS bits over the batch.
    pub fn total_tbs_bits(&self) -> u64 {
        self.samples.iter().map(|s| s.tbs_bits as u64).sum()
    }

    /// Mean PHY throughput over the batch, bits/s.
    pub fn mean_phy_rate_bps(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.total_tbs_bits() as f64 / (self.samples.len() as f64 * 1e-3)
    }

    /// Buffer level at the end of the epoch, bytes.
    pub fn last_buffer_bytes(&self) -> u64 {
        self.samples.last().map_or(0, |s| s.buffer_bytes)
    }
}

/// Collects per-subframe samples and emits one report per period.
#[derive(Clone, Debug)]
pub struct DiagInterface {
    period: SimDuration,
    pending: Vec<DiagSample>,
    epoch_start: SimTime,
    // Sample vector returned by a consumer via `recycle`, reused for the
    // next epoch so steady-state reporting does not allocate.
    spare: Option<Vec<DiagSample>>,
}

impl DiagInterface {
    /// The report period of the paper's test device.
    pub const DEFAULT_PERIOD: SimDuration = SimDuration::from_millis(40);

    /// Create an interface with the given report period.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero());
        DiagInterface {
            period,
            pending: Vec::with_capacity(64),
            epoch_start: SimTime::ZERO,
            spare: None,
        }
    }

    /// Record one subframe; returns a full report when the epoch closes.
    pub fn record(&mut self, sample: DiagSample) -> Option<DiagReport> {
        self.pending.push(sample);
        let elapsed = sample.at.saturating_since(self.epoch_start) + poi360_sim::SUBFRAME;
        if elapsed >= self.period {
            let delivered_at = sample.at + poi360_sim::SUBFRAME;
            let next = self.spare.take().unwrap_or_default();
            let samples = std::mem::replace(&mut self.pending, next);
            self.epoch_start = delivered_at;
            Some(DiagReport { delivered_at, samples })
        } else {
            None
        }
    }

    /// Return a consumed report's sample storage for reuse by the next
    /// epoch. Consumers that drop reports instead simply fall back to a
    /// fresh allocation per epoch.
    pub fn recycle(&mut self, report: DiagReport) {
        let mut samples = report.samples;
        samples.clear();
        self.spare = Some(samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: u64, buf: u64, tbs: u32) -> DiagSample {
        DiagSample { at: SimTime::from_millis(ms), buffer_bytes: buf, tbs_bits: tbs }
    }

    #[test]
    fn emits_every_forty_subframes() {
        let mut d = DiagInterface::new(DiagInterface::DEFAULT_PERIOD);
        let mut reports = Vec::new();
        for ms in 0..200 {
            if let Some(r) = d.record(sample(ms, ms, 100)) {
                reports.push(r);
            }
        }
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert_eq!(r.samples.len(), 40);
        }
        assert_eq!(reports[0].delivered_at, SimTime::from_millis(40));
        assert_eq!(reports[1].delivered_at, SimTime::from_millis(80));
    }

    #[test]
    fn samples_ordered_and_complete() {
        let mut d = DiagInterface::new(DiagInterface::DEFAULT_PERIOD);
        let mut got = Vec::new();
        for ms in 0..120 {
            if let Some(r) = d.record(sample(ms, 0, 0)) {
                got.extend(r.samples.iter().map(|s| s.at.as_millis()));
            }
        }
        assert_eq!(got, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn report_aggregates() {
        let mut d = DiagInterface::new(SimDuration::from_millis(4));
        let mut r = None;
        for ms in 0..4 {
            r = d.record(sample(ms, 10 + ms, 1_000)).or(r);
        }
        let r = r.expect("one report");
        assert_eq!(r.total_tbs_bits(), 4_000);
        assert_eq!(r.last_buffer_bytes(), 13);
        // 4000 bits over 4 ms = 1 Mbps.
        assert!((r.mean_phy_rate_bps() - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = DiagReport { delivered_at: SimTime::ZERO, samples: vec![] };
        assert_eq!(r.mean_phy_rate_bps(), 0.0);
        assert_eq!(r.last_buffer_bytes(), 0);
    }
}
