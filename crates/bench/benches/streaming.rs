//! Bench: **E13** — streamed trace ingestion vs in-memory
//! materialization on a trace bigger than anything `acmr gen`
//! previously produced in one piece.
//!
//! The trace (1M requests over a 4096-edge line, ~14 MB on disk) is
//! *generated incrementally* straight to a temp file through
//! `TraceWriter` — it never exists in memory — then ingested three
//! ways with the same algorithm:
//!
//! 1. **streamed** (one `Session::push` per arrival off the chunked
//!    `TraceReader`),
//! 2. **streamed batched** (`run_report` over the file, chunks of 256
//!    through `push_batch_into`),
//! 3. **in-memory** (read the whole file, materialize the
//!    `AdmissionInstance`, `run_report` over it) — the pre-streaming
//!    baseline.
//!
//! Besides wall-clock throughput, the bench records the process's
//! **peak RSS** (`VmHWM`) after the streamed passes and again after
//! the in-memory pass: the streamed paths keep the high-water mark
//! flat while materialization visibly raises it. All three arms must
//! produce the identical report (asserted — this bench doubles as a
//! large-scale differential check). Results land in
//! `BENCH_streaming.json` for CI to upload.

use acmr_bench::e13::{self, BATCH, EDGES, REQUESTS, SPEC};
use acmr_core::{AlgorithmSpec, Session};
use acmr_harness::{default_registry, run_report, SourceRef};
use acmr_workloads::trace::{read_trace, TraceReader};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::time::Instant;

/// Machine-readable summary of the E13 comparison.
#[derive(Serialize)]
struct StreamingSummary {
    workload: &'static str,
    algorithm: &'static str,
    edges: u32,
    requests: usize,
    trace_bytes: u64,
    batch: usize,
    streamed_ms: f64,
    streamed_reqs_per_sec: f64,
    streamed_batched_ms: f64,
    streamed_batched_reqs_per_sec: f64,
    in_memory_ms: f64,
    /// Peak RSS (KiB) after both streamed passes — the streaming
    /// high-water mark.
    peak_rss_after_streamed_kb: u64,
    /// Peak RSS (KiB) after the in-memory pass: materializing the
    /// instance is what moves this.
    peak_rss_after_in_memory_kb: u64,
}

fn streaming_ingestion() {
    let registry = default_registry();
    let path =
        std::env::temp_dir().join(format!("acmr-bench-streaming-{}.trace", std::process::id()));
    let trace_bytes = e13::generate_trace(&path).expect("generate bench trace");

    // Arm 1: streamed, per-push.
    let t = Instant::now();
    let reader = TraceReader::open(&path).expect("open trace");
    let spec = AlgorithmSpec::parse(SPEC).expect("spec parses");
    let mut session =
        Session::from_registry(&registry, &spec, reader.capacities(), 0).expect("registry build");
    for request in reader {
        session
            .push(&request.expect("trace parses"))
            .expect("streamed push");
    }
    let streamed = session.report();
    let streamed_ms = t.elapsed().as_secs_f64() * 1e3;

    // Arm 2: streamed, batched.
    let t = Instant::now();
    let streamed_batched = run_report(&registry, SPEC, SourceRef::Path(&path), 0, BATCH, None)
        .expect("streamed batched run");
    let streamed_batched_ms = t.elapsed().as_secs_f64() * 1e3;
    let peak_rss_after_streamed_kb = e13::peak_rss_kb().unwrap_or(0);

    // Arm 3: the pre-streaming baseline — slurp, materialize, run.
    let t = Instant::now();
    let text = std::fs::read_to_string(&path).expect("slurp trace");
    let inst = read_trace(&text).expect("parse trace");
    let in_memory =
        run_report(&registry, SPEC, SourceRef::Mem(&inst), 0, 1, None).expect("in-memory run");
    let in_memory_ms = t.elapsed().as_secs_f64() * 1e3;
    let peak_rss_after_in_memory_kb = e13::peak_rss_kb().unwrap_or(0);
    drop((text, inst));

    // Differential guard: all arms agree to the byte.
    assert_eq!(streamed, in_memory, "streamed diverged from in-memory");
    assert_eq!(streamed_batched, in_memory, "batched diverged");

    let _ = std::fs::remove_file(&path);

    let summary = StreamingSummary {
        workload: e13::LABEL,
        algorithm: SPEC,
        edges: EDGES,
        requests: REQUESTS,
        trace_bytes,
        batch: BATCH,
        streamed_ms,
        streamed_reqs_per_sec: REQUESTS as f64 / (streamed_ms / 1e3),
        streamed_batched_ms,
        streamed_batched_reqs_per_sec: REQUESTS as f64 / (streamed_batched_ms / 1e3),
        in_memory_ms,
        peak_rss_after_streamed_kb,
        peak_rss_after_in_memory_kb,
    };
    println!(
        "bench e13_streaming/line4096 ... streamed {:.0} ms ({:.0} req/s), batched {:.0} ms \
         ({:.0} req/s), in-memory {:.0} ms; peak RSS {} KiB streamed vs {} KiB after materialize",
        summary.streamed_ms,
        summary.streamed_reqs_per_sec,
        summary.streamed_batched_ms,
        summary.streamed_batched_reqs_per_sec,
        summary.in_memory_ms,
        summary.peak_rss_after_streamed_kb,
        summary.peak_rss_after_in_memory_kb,
    );
    acmr_bench::emit_bench_json("streaming", &summary);
}

fn bench_all(_criterion: &mut Criterion) {
    streaming_ingestion();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
