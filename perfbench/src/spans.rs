//! Outside-in spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public entry points: name, start, end, parent span, and the lane
//! (thread) it ran on; every span of one workload run shares the run id.
//! Spans stay in memory and are written when the run ends, in the probe
//! JSONL format `poi360_analyse::ingest::RunTrace` parses: one `*_ns`
//! event per span (`t_us` = start, `value` = duration), which
//! `poi360_analyse::chrome::chrome_trace` renders as a complete event.
//! Per-step calls (millions per run) are not kept one by one: they are
//! aggregated into [`Hist`]s and written as summary gauges.

use crate::stats::Hist;
use poi360_sim::json::JsonObject;
use poi360_sim::trace::{RunMeta, TRACE_SCHEMA_VERSION};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Index of the parent span plus one (0 = root).
    pub parent: usize,
    /// Thread lane: 0 is the benchmark's own thread, 1.. pool helpers.
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store of one workload run.
pub struct Spans {
    origin: Instant,
    run_id: String,
    seed: u64,
    spans: Vec<Span>,
    hists: Vec<(String, Hist)>,
}

impl Spans {
    /// An empty store; `run_id` is shared by every span of the run.
    pub fn new(run_id: String, seed: u64) -> Spans {
        Spans { origin: Instant::now(), run_id, seed, spans: Vec::new(), hists: Vec::new() }
    }

    /// Nanoseconds since the store was created.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span measured by the caller; returns its id (for use as a
    /// parent).
    pub fn push(
        &mut self,
        name: &str,
        parent: usize,
        lane: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { name: name.to_string(), parent, lane, start_ns, end_ns });
        self.spans.len()
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: usize,
        f: impl FnOnce(&mut Spans, usize) -> R,
    ) -> R {
        let start = Instant::now();
        self.spans.push(Span { name: name.to_string(), parent, lane: 0, start_ns: 0, end_ns: 0 });
        let id = self.spans.len();
        let out = f(self, id);
        let end = Instant::now();
        let (s, e) = (self.at(start), self.at(end));
        let span = &mut self.spans[id - 1];
        span.start_ns = s;
        span.end_ns = e;
        out
    }

    /// Attach an aggregated per-call histogram.
    pub fn hist(&mut self, name: &str, h: &Hist) {
        self.hists.push((name.to_string(), h.clone()));
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its children cover (overlapping children, such as
    /// parallel jobs, count once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id - 1];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, me.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (me.end_ns - me.start_ns).saturating_sub(covered)
    }

    /// Render the whole store as probe JSONL: a metadata stamp, one
    /// `<name>_ns` event per span (with `span`, `parent`, `run` and
    /// `self_ns` fields the ingest ignores), then per histogram a count
    /// and its p50 / p99 / sum gauges.
    pub fn to_jsonl(&self) -> String {
        let meta = RunMeta {
            schema: TRACE_SCHEMA_VERSION,
            commit: "unknown".into(),
            argv: std::env::args().collect(),
            seed: self.seed,
        };
        let mut out = meta.to_jsonl();
        out.push('\n');
        for (k, s) in self.spans.iter().enumerate() {
            let src = if s.lane == 0 {
                self.run_id.clone()
            } else {
                format!("{}.w{}", self.run_id, s.lane)
            };
            JsonObject::new()
                .field("t_us", &(s.start_ns / 1_000))
                .field("src", &src)
                .field("name", &format!("{}_ns", s.name))
                .field("kind", &"event")
                .field("value", &((s.end_ns - s.start_ns) as f64))
                .field("span", &(k as u64 + 1))
                .field("parent", &(s.parent as u64))
                .field("run", &self.run_id)
                .field("self_ns", &self.self_ns(k + 1))
                .write(&mut out);
            out.push('\n');
        }
        let end_us = self.spans.iter().map(|s| s.end_ns / 1_000).max().unwrap_or(0);
        for (name, h) in &self.hists {
            let mut rows = vec![
                (format!("{name}.count"), "counter", h.count() as f64),
                (format!("{name}.sum_ns"), "gauge", h.sum_ns()),
            ];
            rows.extend(h.percentile(0.5).ok().map(|v| (format!("{name}.p50_ns"), "gauge", v)));
            rows.extend(h.percentile(0.99).ok().map(|v| (format!("{name}.p99_ns"), "gauge", v)));
            for (probe, kind, value) in rows {
                JsonObject::new()
                    .field("t_us", &end_us)
                    .field("src", &self.run_id)
                    .field("name", &probe)
                    .field("kind", &kind)
                    .field("value", &value)
                    .write(&mut out);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut sp = Spans::new("t.1".into(), 1);
        let t0 = sp.origin;
        let ms = |n| t0 + Duration::from_millis(n);
        let root = sp.push("root", 0, 0, ms(0), ms(100));
        sp.push("a", root, 1, ms(10), ms(50));
        sp.push("b", root, 2, ms(40), ms(60));
        sp.push("c", root, 0, ms(90), ms(120));
        // Children cover 10..60 and 90..100: 60 ms of the root's 100.
        assert_eq!(sp.self_ns(root), 40_000_000);
    }

    #[test]
    fn jsonl_parses_and_renders_as_chrome_trace() {
        let mut sp = Spans::new("call.7".into(), 7);
        sp.time("round", 0, |sp, id| sp.time("core.session.run", id, |_, _| ()));
        let mut h = Hist::new();
        for i in 0..2_000 {
            h.record(1_000.0 + i as f64);
        }
        sp.hist("core.session.step", &h);
        let text = sp.to_jsonl();
        let trace = poi360_analyse::ingest::RunTrace::parse_str(&text).expect("parses");
        assert_eq!(trace.metas.len(), 1);
        assert_eq!(trace.records_of("round_ns").count(), 1);
        assert_eq!(trace.values_of("core.session.step.count"), vec![2_000.0]);
        let chrome = poi360_analyse::chrome::chrome_trace(&trace);
        assert!(chrome.contains("\"ph\":\"X\""), "spans render as complete events");
    }
}
