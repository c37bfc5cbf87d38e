//! Bench: **E16** — protocol v2 (binary frames + persistent sessions)
//! against protocol v1 (line frames), persisted to
//! `BENCH_protocol2.json` (`docs/OPERATIONS.md` explains how to read
//! it).
//!
//! Two comparisons:
//!
//! 1. **Loopback decisions/s, one connection** — the E14 workload
//!    (200k requests, 512-edge line) replayed through a live server:
//!    v1 `BATCH` frames with per-arrival JSON events vs v2 binary
//!    record frames with batch-summary acknowledgements (the
//!    pipelined `serve_trace_v2` path the cluster driver uses). This
//!    is the per-connection wire ceiling an operator sizes against.
//! 2. **Cluster vs sharded on the E12 sweep** (3 workers, one host) —
//!    the v1 wire made `ClusterDriver` pay a ~20× wall-clock tax over
//!    `ShardedDriver` on sweep-shaped jobs (many small traces, where
//!    per-arrival round trips and JSON dominate). The v2 arm runs the
//!    same sweep over the same pool in binary-frame persistent-session
//!    mode; `cluster_v2_over_sharded` is the number the tentpole
//!    exists to push to ≤ 1.
//!
//! Both comparisons double as differentials: every v2 report must
//! equal its v1 twin and the in-memory reference, or the bench
//! panics.

use acmr_core::Request;
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::{
    cross_jobs, default_registry, run_report, BoundBudget, ClusterDriver, ShardedDriver, SourceRef,
};
use acmr_serve::{
    serve, serve_trace, serve_trace_v2, ProtoVersion, ServeConfig, ServerHandle, WorkerPool,
};
use acmr_workloads::{dyadic_admission_instance, nested_intervals, two_phase_squeeze};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::{Duration, Instant};

const EDGES: u32 = 512;
const CAPACITY: u32 = 8;
const REQUESTS: usize = 200_000;
const BATCH: usize = 512;
const SPEC: &str = "greedy";

const WORKERS: usize = 3;
const SWEEP_BATCH: usize = 64;
const ROUNDS: usize = 5;

/// The E14 line workload, materialized (same seed, same shape).
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

/// Machine-readable summary of the E16 v1-vs-v2 numbers.
#[derive(Serialize)]
struct Protocol2Summary {
    workload: &'static str,
    algorithm: &'static str,
    requests: usize,
    batch: usize,
    /// One-connection loopback throughput, v1 line protocol
    /// (BATCH frames, per-arrival JSON events).
    v1_decisions_per_sec: f64,
    /// Same connection count and workload, v2 binary frames in
    /// batch-summary mode (the pipelined cluster path).
    v2_decisions_per_sec: f64,
    /// The wire speedup the binary dialect buys per connection.
    v2_over_v1: f64,
    sweep: &'static str,
    jobs: usize,
    workers: usize,
    /// `"processes"` or `"in-process"` (see the cluster bench).
    worker_mode: &'static str,
    sweep_batch: usize,
    sharded_ms: f64,
    cluster_v1_ms: f64,
    cluster_v2_ms: f64,
    /// The v1 wire tax this PR set out to erase (≫ 1 before it).
    cluster_v1_over_sharded: f64,
    /// The headline: cluster wall-clock over sharded with v2
    /// persistent sessions — target ≤ 1.0 on one host.
    cluster_v2_over_sharded: f64,
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Same worker-spawning policy as the cluster bench: real `acmr
/// serve` processes when the release binary exists, in-process
/// loopback servers otherwise. The returned pool (the v2 one — the
/// pool default) owns any spawned children; the v1 pool adopts the
/// same fleet by address.
fn start_workers() -> (Vec<ServerHandle>, WorkerPool, &'static str) {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let release_bin = loop {
        if dir.join("Cargo.lock").exists() {
            break dir.join("target/release/acmr");
        }
        if !dir.pop() {
            break std::path::PathBuf::from("target/release/acmr");
        }
    };
    if release_bin.is_file() {
        if let Ok(pool) = WorkerPool::spawn_local(&release_bin, WORKERS) {
            return (Vec::new(), pool, "processes");
        }
    }
    let handles: Vec<ServerHandle> = (0..WORKERS)
        .map(|_| {
            serve(
                default_registry(),
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    ..ServeConfig::default()
                },
            )
            .expect("bind loopback worker")
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();
    let pool = WorkerPool::connect(&addrs).expect("adopt loopback workers");
    (handles, pool, "in-process")
}

fn protocol2() {
    // ------------------------------------------------------------------
    // Arm 1: per-connection loopback throughput, v1 vs v2.
    // ------------------------------------------------------------------
    let (caps, requests) = generate_requests();
    let registry = default_registry();
    let mut inst = acmr_core::AdmissionInstance::from_capacities(caps.clone());
    for r in &requests {
        inst.push(r.clone());
    }
    let reference = run_report(&registry, SPEC, SourceRef::Mem(&inst), 0, 1, None)
        .expect("in-memory reference");

    let handle = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = handle.local_addr();

    let t = Instant::now();
    let v1_report = serve_trace(
        addr,
        SPEC,
        None,
        &caps,
        requests.iter().cloned().map(Ok),
        Some(BATCH),
        |_| {},
    )
    .expect("v1 replay");
    let v1_secs = t.elapsed().as_secs_f64();
    assert_eq!(v1_report, reference, "v1 served report diverged");

    let t = Instant::now();
    let v2_report = serve_trace_v2(
        addr,
        SPEC,
        None,
        &caps,
        requests.iter().cloned().map(Ok),
        Some(BATCH),
        false,
        |_| {},
    )
    .expect("v2 replay");
    let v2_secs = t.elapsed().as_secs_f64();
    assert_eq!(v2_report, reference, "v2 served report diverged");
    handle.shutdown();

    let v1_rps = REQUESTS as f64 / v1_secs;
    let v2_rps = REQUESTS as f64 / v2_secs;

    // ------------------------------------------------------------------
    // Arm 2: the E12 sweep — sharded vs cluster-v1 vs cluster-v2.
    // ------------------------------------------------------------------
    let traces = vec![
        ("nested".to_string(), nested_intervals(16, 2, 2, 2)),
        ("squeeze".to_string(), two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic".to_string(), dyadic_admission_instance(4, 3, 2)),
    ];
    let trace_names: Vec<&str> = traces.iter().map(|(n, _)| n.as_str()).collect();
    let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let jobs = cross_jobs(&trace_names, &spec_refs, &[0, 1]);
    let budget = BoundBudget {
        max_exact_items: 60,
        exact_nodes: 20_000,
        max_lp_items: 0,
    };

    let (handles, pool_v2, worker_mode) = start_workers();
    let addrs: Vec<String> = pool_v2.addrs().iter().map(|a| a.to_string()).collect();
    let pool_v1 = WorkerPool::connect(&addrs)
        .expect("adopt workers (v1)")
        .proto(ProtoVersion::V1);

    let sharded_driver = ShardedDriver::new()
        .threads(WORKERS)
        .batch(SWEEP_BATCH)
        .budget(budget);
    let cluster_v1_driver = ClusterDriver::new(&pool_v1)
        .batch(SWEEP_BATCH)
        .budget(budget);
    let cluster_v2_driver = ClusterDriver::new(&pool_v2)
        .batch(SWEEP_BATCH)
        .budget(budget);

    let mut sharded = Vec::with_capacity(ROUNDS);
    let mut cluster_v1 = Vec::with_capacity(ROUNDS);
    let mut cluster_v2 = Vec::with_capacity(ROUNDS);
    let mut last_sharded = None;
    let mut last_v1 = None;
    let mut last_v2 = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        last_sharded = Some(sharded_driver.run(&registry, &traces, &jobs).unwrap());
        sharded.push(t.elapsed());

        let t = Instant::now();
        last_v1 = Some(cluster_v1_driver.run(&traces, &jobs).unwrap());
        cluster_v1.push(t.elapsed());

        let t = Instant::now();
        last_v2 = Some(cluster_v2_driver.run(&traces, &jobs).unwrap());
        cluster_v2.push(t.elapsed());
    }

    // Differential guard: both wire dialects, byte-identical sweeps.
    let sharded_sweep = serde_json::to_string_pretty(&last_sharded.unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&last_v1.unwrap()).unwrap(),
        sharded_sweep,
        "cluster v1 sweep diverged from sharded"
    );
    assert_eq!(
        serde_json::to_string_pretty(&last_v2.unwrap()).unwrap(),
        sharded_sweep,
        "cluster v2 sweep diverged from sharded"
    );

    let sharded_ms = median_ms(&mut sharded);
    let cluster_v1_ms = median_ms(&mut cluster_v1);
    let cluster_v2_ms = median_ms(&mut cluster_v2);
    let summary = Protocol2Summary {
        workload: "line-512-cap8-200k",
        algorithm: SPEC,
        requests: REQUESTS,
        batch: BATCH,
        v1_decisions_per_sec: v1_rps,
        v2_decisions_per_sec: v2_rps,
        v2_over_v1: v2_rps / v1_rps,
        sweep: "e12-hostile-families-all-algorithms",
        jobs: jobs.len(),
        workers: WORKERS,
        worker_mode,
        sweep_batch: SWEEP_BATCH,
        sharded_ms,
        cluster_v1_ms,
        cluster_v2_ms,
        cluster_v1_over_sharded: cluster_v1_ms / sharded_ms,
        cluster_v2_over_sharded: cluster_v2_ms / sharded_ms,
    };
    println!(
        "bench e16_protocol2/loopback ... v1 {:.0} dec/s, v2 {:.0} dec/s ({:.1}x); \
         sweep sharded {:.2} ms, cluster v1 {:.2} ms ({:.2}x), cluster v2 {:.2} ms ({:.2}x) \
         — {} jobs over {} workers ({})",
        summary.v1_decisions_per_sec,
        summary.v2_decisions_per_sec,
        summary.v2_over_v1,
        summary.sharded_ms,
        summary.cluster_v1_ms,
        summary.cluster_v1_over_sharded,
        summary.cluster_v2_ms,
        summary.cluster_v2_over_sharded,
        summary.jobs,
        summary.workers,
        summary.worker_mode,
    );
    acmr_bench::emit_bench_json("protocol2", &summary);

    pool_v1.shutdown();
    pool_v2.shutdown();
    for handle in handles {
        handle.shutdown();
    }
}

fn bench_all(_criterion: &mut Criterion) {
    protocol2();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
