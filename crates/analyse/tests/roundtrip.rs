//! Ingest-layer integration tests: a generative JSONL round-trip
//! property (everything a `JsonlSink` writes comes back through
//! `RunTrace` unchanged), and an exhaustiveness check that every
//! checked-in `bench_results/*.jsonl` artifact still ingests.

use poi360_analyse::ingest::RunTrace;
use poi360_sim::time::SimTime;
use poi360_sim::trace::{JsonlSink, ProbeKind, RunMeta, TraceRecord, TraceSink};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Probe-name pool — `TraceRecord` names are `&'static str` by design,
/// so properties draw from a fixed set rather than generating strings.
const NAMES: &[&str] =
    &["cell.prb_used", "fbcc.rate_kbps", "video.psnr_db", "ho.gap_ms", "cell.tick_ns"];

/// Source-tag pool, shaped like the suites' real tags.
const SRCS: &[&str] = &["fg.00", "bg.01", "rlf.fbcc", "convoy.s1"];

/// Sink → parse preserves record count, order, timestamps, interned
/// names/sources, kinds, and finite values exactly; non-finite values
/// travel as JSON `null` and come back as NaN.
#[test]
fn jsonl_roundtrip_preserves_every_record() {
    prop_check!("jsonl_roundtrip", 96, |g| {
        let stamp = g.chance(0.8);
        // The JSON codec carries numbers as f64, so integers round-trip
        // exactly only up to 2^53 — far beyond any real seed.
        let seed = g.u64_in(0, (1 << 53) - 1);
        let recs = g.vec_of(0, 40, |g| {
            let kind = match g.u8_in(0, 2) {
                0 => ProbeKind::Counter,
                1 => ProbeKind::Gauge,
                _ => ProbeKind::Event,
            };
            let value = if g.chance(0.1) { f64::NAN } else { g.f64_in(-1e9, 1e9) };
            let rec = TraceRecord {
                at: SimTime::from_micros(g.u64_in(0, 1 << 40)),
                name: NAMES[g.index(NAMES.len())],
                kind,
                value,
            };
            (g.index(SRCS.len()), rec)
        });

        let mut sink = JsonlSink::to_writer(Vec::new());
        if stamp {
            sink.stamp(&RunMeta::current(seed));
        }
        for (src, rec) in &recs {
            sink.record(SRCS[*src], rec);
        }
        sink.flush();
        prop_assert!(!sink.had_io_error());
        prop_assert_eq!(sink.lines(), recs.len() as u64);
        let bytes = sink.into_inner();

        let trace = match RunTrace::parse_bytes(&bytes) {
            Ok(t) => t,
            Err(e) => {
                return Err(poi360_testkit::prop::CaseError::fail(format!("parse failed: {e}")))
            }
        };
        prop_assert_eq!(trace.records.len(), recs.len());
        prop_assert_eq!(trace.metas.len(), usize::from(stamp));
        if stamp {
            prop_assert_eq!(trace.metas[0].seed, seed);
        }
        for (parsed, (src, rec)) in trace.records.iter().zip(&recs) {
            prop_assert_eq!(parsed.t_us, rec.at.as_micros());
            prop_assert_eq!(trace.srcs.name(parsed.src), SRCS[*src]);
            prop_assert_eq!(trace.probes.name(parsed.name), rec.name);
            prop_assert_eq!(parsed.kind, rec.kind);
            if rec.value.is_finite() {
                prop_assert_eq!(parsed.value, rec.value);
            } else {
                prop_assert!(parsed.value.is_nan(), "null round-trips to NaN");
            }
        }
        Ok(())
    });
}

/// Every JSONL artifact in `bench_results/` must ingest without error —
/// the analyse layer may never fall behind the probe plane's output
/// format. The artifacts are generated (gitignored), so a fresh clone
/// has none and the test passes vacuously; `ci.sh` re-runs this test
/// after the trace smoke and the study presets have written theirs,
/// which is where it bites.
#[test]
fn every_jsonl_artifact_on_disk_parses() {
    let Ok(entries) = std::fs::read_dir(poi360_testkit::results_dir()) else { return };
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let trace = RunTrace::parse_file(&path)
            .unwrap_or_else(|e| panic!("{} does not ingest: {e}", path.display()));
        assert!(!trace.is_empty(), "{} parsed to an empty trace", path.display());
    }
}
