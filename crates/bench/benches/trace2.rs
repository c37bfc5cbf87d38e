//! Bench: **E13 / trace2** — text vs mmap replay of the 1M-request
//! E13 trace through the `ACMR-TRACE v2` subsystem.
//!
//! The text trace is generated by the shared [`acmr_bench::e13`]
//! generator (byte-identical to the `streaming` bench's input), then
//! converted once — streaming, never materialized — to the binary
//! `ACMR-TRACE v2` encoding. Two arms replay it:
//!
//! 1. **text** — the chunked line-oriented `TraceReader` (the PR 3
//!    streaming baseline),
//! 2. **mmap** — `BinTraceMap` + its zero-copy `BinMapReader` cursor,
//!    the one binary decoder.
//!
//! Before any timing, both arms drive a full greedy session via
//! `Session::run_stream_batched` and the two `RunReport`s are asserted
//! byte-identical (serialized JSON included) — the bench refuses to
//! time arms that could disagree. The timed section then measures
//! pure replay (decode every request, no algorithm): the arms
//! alternate, one text pass then one mmap pass, three times, so a
//! slowdown of the host during the run falls on both arms alike. Each
//! arm's best pass must show the mmap arm beating the text baseline by
//! the required >3×. Results, each arm's slowest pass next to its
//! best, land in `BENCH_trace2.json` for CI to upload next to
//! `BENCH_streaming.json`.

use acmr_bench::e13::{self, EDGES, REQUESTS, SPEC};
use acmr_core::{AlgorithmSpec, Registry, RequestSource, RunReport, Session};
use acmr_harness::default_registry;
use acmr_workloads::trace::TraceReader;
use acmr_workloads::{BinMapReader, BinTraceMap, BinTraceWriter};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::io::BufWriter;
use std::time::Instant;

/// Replay passes per timed arm; the fastest is the arm's time.
const REPS: usize = 3;

/// Convert the text trace at `text_path` to binary at `bin_path`,
/// streaming record by record (the same seam `acmr convert` uses).
/// Returns the binary file size.
fn convert_to_binary(
    text_path: &std::path::Path,
    bin_path: &std::path::Path,
) -> std::io::Result<u64> {
    let mut reader = TraceReader::open(text_path).expect("open text trace");
    let caps = RequestSource::capacities(&reader).to_vec();
    let declared = RequestSource::declared_requests(&reader);
    let file = std::fs::File::create(bin_path)?;
    let mut w = BinTraceWriter::new(BufWriter::new(file), &caps, declared).expect("binary header");
    while let Some(r) = reader.next_request().expect("valid text trace") {
        w.push(&r).expect("encode record");
    }
    w.finish().expect("finish binary trace");
    std::fs::metadata(bin_path).map(|m| m.len())
}

/// Drain `source` to exhaustion, decoding every request. Returns the
/// request count and total cost (a value the optimizer cannot drop).
fn drain<S: RequestSource>(mut source: S) -> (usize, f64) {
    let mut n = 0usize;
    let mut cost = 0.0f64;
    loop {
        match source.next_request() {
            Ok(Some(r)) => {
                n += 1;
                cost += std::hint::black_box(&r).cost;
            }
            Ok(None) => return (n, cost),
            Err(e) => panic!("valid trace failed to replay: {e}"),
        }
    }
}

/// One timed pass of an arm: `open() -> drain`, in ms, asserting it
/// decodes all of E13 and the same content as the arm's other passes.
fn timed_pass<S: RequestSource>(open: impl FnOnce() -> S, checksum: &mut Option<f64>) -> f64 {
    let t = Instant::now();
    let (n, cost) = drain(open());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(n, REQUESTS, "replay must decode the full trace");
    // Every pass must decode identical content, not just count.
    assert_eq!(*checksum.get_or_insert(cost), cost, "replay checksum");
    ms
}

/// Fastest and slowest of one arm's passes, in ms.
#[derive(Clone, Copy)]
struct Passes {
    best: f64,
    slowest: f64,
}

impl Passes {
    fn new() -> Self {
        Passes {
            best: f64::INFINITY,
            slowest: 0.0,
        }
    }

    fn add(&mut self, ms: f64) {
        self.best = self.best.min(ms);
        self.slowest = self.slowest.max(ms);
    }
}

/// Time the two arms alternately, one text pass then one mmap pass,
/// [`REPS`] times; returns the (text, mmap) passes.
fn time_replay<T: RequestSource, M: RequestSource>(
    mut open_text: impl FnMut() -> T,
    mut open_mmap: impl FnMut() -> M,
) -> (Passes, Passes) {
    let (mut text, mut mmap) = (Passes::new(), Passes::new());
    let (mut text_sum, mut mmap_sum) = (None, None);
    for _ in 0..REPS {
        text.add(timed_pass(&mut open_text, &mut text_sum));
        mmap.add(timed_pass(&mut open_mmap, &mut mmap_sum));
    }
    (text, mmap)
}

/// Machine-readable summary of the trace2 two-arm comparison.
#[derive(Serialize)]
struct Trace2Summary {
    workload: &'static str,
    algorithm: &'static str,
    edges: u32,
    requests: usize,
    text_bytes: u64,
    bin_bytes: u64,
    /// Whether the mmap arm really ran off a kernel mapping (false
    /// means the portable heap fallback was used — still correct,
    /// not zero-copy).
    mmap_backed: bool,
    /// The two session reports were byte-identical before timing.
    reports_identical: bool,
    /// The text arm's best pass.
    text_replay_ms: f64,
    text_replay_slowest_ms: f64,
    text_replay_reqs_per_sec: f64,
    /// The mmap arm's best pass.
    mmap_replay_ms: f64,
    mmap_replay_slowest_ms: f64,
    mmap_replay_reqs_per_sec: f64,
    /// Replay speedup of the mmap arm over the text baseline — the
    /// acceptance criterion is >3.
    mmap_over_text_ratio: f64,
    peak_rss_kb: u64,
}

/// One arm of the differential gate: a full greedy session off `reader`.
fn session_report(registry: &Registry, reader: impl RequestSource) -> RunReport {
    let spec = AlgorithmSpec::parse(SPEC).expect("spec parses");
    let caps = reader.capacities().to_vec();
    Session::from_registry(registry, &spec, &caps, 0)
        .expect("registry build")
        .run_stream_batched(reader, 1)
        .expect("session")
}

fn trace2_replay() {
    let registry = default_registry();
    let pid = std::process::id();
    let text_path = std::env::temp_dir().join(format!("acmr-bench-trace2-{pid}.trace"));
    let bin_path = std::env::temp_dir().join(format!("acmr-bench-trace2-{pid}.bin"));
    let text_bytes = e13::generate_trace(&text_path).expect("generate bench trace");
    let bin_bytes = convert_to_binary(&text_path, &bin_path).expect("convert to binary");

    // Differential gate, before any timing: full greedy sessions off
    // both arms must produce the byte-identical report.
    let via_text = session_report(
        &registry,
        TraceReader::open(&text_path).expect("open text trace"),
    );
    let via_map = session_report(
        &registry,
        BinMapReader::open(&bin_path).expect("map binary trace"),
    );
    assert_eq!(via_map, via_text, "mmap report diverged from text");
    assert_eq!(
        serde_json::to_string_pretty(&via_map).unwrap(),
        serde_json::to_string_pretty(&via_text).unwrap(),
        "serialized reports must be byte-identical"
    );

    let mmap_backed = BinTraceMap::open(&bin_path)
        .expect("map binary trace")
        .is_mapped();

    // Timed arms: pure replay (decode only), alternating passes.
    let (text, mmap) = time_replay(
        || TraceReader::open(&text_path).expect("open text trace"),
        || BinMapReader::open(&bin_path).expect("map binary trace"),
    );
    let (text_replay_ms, mmap_replay_ms) = (text.best, mmap.best);

    let _ = std::fs::remove_file(&text_path);
    let _ = std::fs::remove_file(&bin_path);

    let ratio = text_replay_ms / mmap_replay_ms;
    let summary = Trace2Summary {
        workload: e13::LABEL,
        algorithm: SPEC,
        edges: EDGES,
        requests: REQUESTS,
        text_bytes,
        bin_bytes,
        mmap_backed,
        reports_identical: true,
        text_replay_ms,
        text_replay_slowest_ms: text.slowest,
        text_replay_reqs_per_sec: REQUESTS as f64 / (text_replay_ms / 1e3),
        mmap_replay_ms,
        mmap_replay_slowest_ms: mmap.slowest,
        mmap_replay_reqs_per_sec: REQUESTS as f64 / (mmap_replay_ms / 1e3),
        mmap_over_text_ratio: ratio,
        peak_rss_kb: e13::peak_rss_kb().unwrap_or(0),
    };
    println!(
        "bench e13_trace2/line4096 ... text {:.0} ms ({:.2}M req/s), mmap {:.0} ms \
         ({:.2}M req/s); mmap/text {:.1}x, mapped: {}",
        summary.text_replay_ms,
        summary.text_replay_reqs_per_sec / 1e6,
        summary.mmap_replay_ms,
        summary.mmap_replay_reqs_per_sec / 1e6,
        ratio,
        mmap_backed,
    );
    acmr_bench::emit_bench_json("trace2", &summary);
    assert!(
        ratio > 3.0,
        "mmap replay must beat the text baseline by >3x (got {ratio:.2}x)"
    );
}

fn bench_all(_criterion: &mut Criterion) {
    trace2_replay();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
