//! Bench: **E14** — the live serving front end on loopback.
//!
//! Starts an in-process `acmr-serve` server on an ephemeral loopback
//! port and measures the two numbers an operator sizes a deployment
//! by (`docs/OPERATIONS.md` explains how to read them):
//!
//! 1. **Sustained throughput**: one connection replaying a 200k-request
//!    trace as `BATCH 512` frames — requests/second through handshake,
//!    wire parse, engine decision, event serialization and reply.
//! 2. **Per-decision latency**: single-request frames, one round trip
//!    per arrival (write → decide → event reply), p50/p99 over a
//!    5 000-arrival sample.
//!
//! The throughput arm doubles as a large differential check: the
//! served report must equal the in-memory `run_report` report for
//! the same trace and seed. Results land in `BENCH_serving.json` for
//! CI to upload.

use acmr_core::Request;
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::{default_registry, run_report, SourceRef};
use acmr_serve::{serve, ServeClient, ServeConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::{Duration, Instant};

const EDGES: u32 = 512;
const CAPACITY: u32 = 8;
const REQUESTS: usize = 200_000;
const BATCH: usize = 512;
const LATENCY_SAMPLES: usize = 5_000;
const SPEC: &str = "greedy";

/// The line workload of the streaming bench, materialized: short
/// contiguous footprints, small integer-ish costs.
fn generate_requests() -> (Vec<u32>, Vec<Request>) {
    let caps = vec![CAPACITY; EDGES as usize];
    let mut rng = StdRng::seed_from_u64(42);
    let requests = (0..REQUESTS)
        .map(|_| {
            let hops = 1 + rng.gen_range(0..4u32);
            let start = rng.gen_range(0..EDGES - hops);
            let edges: Vec<EdgeId> = (start..start + hops).map(EdgeId).collect();
            let cost = 1.0 + f64::from(rng.gen_range(0..4u32));
            Request::new(EdgeSet::new(edges), cost)
        })
        .collect();
    (caps, requests)
}

/// Machine-readable summary of the E14 serving numbers.
#[derive(Serialize)]
struct ServingSummary {
    workload: &'static str,
    algorithm: &'static str,
    edges: u32,
    requests: usize,
    batch: usize,
    /// Wall-clock of the batched replay, connection setup included.
    served_batched_ms: f64,
    /// Sustained loopback throughput of the batched replay.
    served_reqs_per_sec: f64,
    /// Arrivals in the single-frame latency sample.
    latency_samples: usize,
    /// Median single-frame round trip (µs): write, decide, event back.
    latency_p50_us: f64,
    /// 99th-percentile single-frame round trip (µs).
    latency_p99_us: f64,
}

fn serving_loopback() {
    let (caps, requests) = generate_requests();
    let registry = default_registry();
    let inst = to_instance(&caps, &requests);
    let reference = run_report(&registry, SPEC, SourceRef::Mem(&inst), 0, 1, None)
        .expect("in-memory reference run");

    let handle = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = handle.local_addr();

    // Arm 1: sustained throughput, BATCH frames over one connection.
    let t = Instant::now();
    let mut client = ServeClient::connect(addr, SPEC, None, &caps).expect("connect");
    let mut served_events = 0usize;
    for chunk in requests.chunks(BATCH) {
        served_events += client.push_batch(chunk).expect("batch frame").len();
    }
    let served = client.finish().expect("final report");
    let served_batched_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(served_events, REQUESTS);
    // Differential guard: the wire changes nothing.
    assert_eq!(served, reference, "served report diverged from in-memory");

    // Arm 2: per-decision latency, one round trip per arrival.
    let mut client = ServeClient::connect(addr, SPEC, None, &caps).expect("connect");
    let mut samples: Vec<Duration> = Vec::with_capacity(LATENCY_SAMPLES);
    for request in requests.iter().take(LATENCY_SAMPLES) {
        let t = Instant::now();
        client.push(request).expect("single frame");
        samples.push(t.elapsed());
    }
    let _ = client.finish().expect("latency session report");
    handle.shutdown();

    samples.sort();
    let percentile = |p: f64| -> f64 {
        let idx = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len()) - 1;
        samples[idx].as_secs_f64() * 1e6
    };
    let summary = ServingSummary {
        workload: "line-512-cap8-200k",
        algorithm: SPEC,
        edges: EDGES,
        requests: REQUESTS,
        batch: BATCH,
        served_batched_ms,
        served_reqs_per_sec: REQUESTS as f64 / (served_batched_ms / 1e3),
        latency_samples: LATENCY_SAMPLES,
        latency_p50_us: percentile(0.50),
        latency_p99_us: percentile(0.99),
    };
    println!(
        "bench e14_serving/loopback ... batched {:.0} ms ({:.0} req/s sustained); \
         single-frame p50 {:.1} µs, p99 {:.1} µs over {} samples",
        summary.served_batched_ms,
        summary.served_reqs_per_sec,
        summary.latency_p50_us,
        summary.latency_p99_us,
        summary.latency_samples,
    );
    acmr_bench::emit_bench_json("serving", &summary);
}

fn to_instance(caps: &[u32], requests: &[Request]) -> acmr_core::AdmissionInstance {
    let mut inst = acmr_core::AdmissionInstance::from_capacities(caps.to_vec());
    for r in requests {
        inst.push(r.clone());
    }
    inst
}

fn bench_all(_criterion: &mut Criterion) {
    serving_loopback();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
