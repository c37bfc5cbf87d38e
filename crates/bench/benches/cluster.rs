//! Bench: **E15** — the cross-process cluster driver against the
//! thread-level sharded driver and the sequential per-job baseline,
//! on the E12 sweep (every registered algorithm over the hostile
//! families), with the numbers persisted to `BENCH_cluster.json`.
//!
//! Three arms over identical jobs:
//!
//! 1. **sequential** — `run_report` per job, one after another (the
//!    pre-driver path: the per-trace OPT bound recomputed per job);
//! 2. **sharded** — `ShardedDriver`: threads + one shared bound per
//!    distinct trace (the PR-2 driver);
//! 3. **cluster** — `ClusterDriver`: the same sweep fanned over
//!    `acmr serve` workers, every decision crossing a real loopback
//!    socket. Workers are separate `acmr serve` **processes** when
//!    the release binary is built (`target/release/acmr`, the CI
//!    case), in-process loopback servers otherwise — the wire path
//!    is identical either way, and the JSON records which ran.
//!
//! The bench doubles as a differential check: all three arms must
//! produce byte-identical job reports, or it panics. The interesting
//! number is the cluster arm's *overhead* over sharded — the price
//! of crossing process boundaries, which buys fan-out beyond one
//! machine (see `docs/OPERATIONS.md`).

use acmr_harness::{
    cross_jobs, default_registry, run_report, BoundBudget, ClusterDriver, ShardedDriver, SourceRef,
};
use acmr_serve::{serve, ServeConfig, ServerHandle, WorkerPool};
use acmr_workloads::{dyadic_admission_instance, nested_intervals, two_phase_squeeze};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::time::{Duration, Instant};

const WORKERS: usize = 3;
const BATCH: usize = 64;
const ROUNDS: usize = 5;

/// Machine-readable summary of the E15 comparison.
#[derive(Serialize)]
struct ClusterSummary {
    sweep: &'static str,
    jobs: usize,
    workers: usize,
    /// `"processes"` (spawned `acmr serve` children) or
    /// `"in-process"` (loopback servers inside the bench process —
    /// same wire path, no process boundary).
    worker_mode: &'static str,
    batch: usize,
    sequential_ms: f64,
    sharded_ms: f64,
    cluster_ms: f64,
    /// Sharded speedup over sequential (shared bounds + threads).
    sharded_speedup: f64,
    /// Cluster speedup over sequential.
    cluster_speedup: f64,
    /// Wire tax: cluster time over sharded time (≥ 1.0 on one host —
    /// the socket hop costs; the payoff is fan-out across hosts).
    cluster_over_sharded: f64,
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Spawn real worker processes when the release binary exists (CI
/// builds it before benching); fall back to in-process loopback
/// servers so the bench always runs.
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

fn cluster_speedups() {
    let registry = default_registry();
    // The E12 sweep shape (quick grid): every registered algorithm ×
    // the hostile families × one seed, greedy-tier bound budget.
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

    let (handles, pool, worker_mode) = start_workers();
    let sharded_driver = ShardedDriver::new()
        .threads(WORKERS)
        .batch(BATCH)
        .budget(budget);
    let cluster_driver = ClusterDriver::new(&pool).batch(BATCH).budget(budget);

    let mut seq = Vec::with_capacity(ROUNDS);
    let mut sharded = Vec::with_capacity(ROUNDS);
    let mut cluster = Vec::with_capacity(ROUNDS);
    let mut last_seq = Vec::new();
    let mut last_sharded = None;
    let mut last_cluster = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        last_seq = jobs
            .iter()
            .map(|job| {
                let inst = &traces.iter().find(|(n, _)| *n == job.trace).unwrap().1;
                let source = SourceRef::Mem(inst);
                run_report(&registry, &job.spec, source, job.seed, 1, Some(budget)).unwrap()
            })
            .collect();
        seq.push(t.elapsed());

        let t = Instant::now();
        last_sharded = Some(sharded_driver.run(&registry, &traces, &jobs).unwrap());
        sharded.push(t.elapsed());

        let t = Instant::now();
        last_cluster = Some(cluster_driver.run(&traces, &jobs).unwrap());
        cluster.push(t.elapsed());
    }

    // Differential guard: three arms, byte-identical job reports.
    let sharded_sweep = last_sharded.expect("sharded ran");
    let cluster_sweep = last_cluster.expect("cluster ran");
    assert_eq!(
        serde_json::to_string_pretty(&cluster_sweep).unwrap(),
        serde_json::to_string_pretty(&sharded_sweep).unwrap(),
        "cluster sweep diverged from sharded"
    );
    for (seq_report, jr) in last_seq.iter().zip(&sharded_sweep.jobs) {
        assert_eq!(&jr.report, seq_report, "sharded diverged from sequential");
    }

    let sequential_ms = median_ms(&mut seq);
    let sharded_ms = median_ms(&mut sharded);
    let cluster_ms = median_ms(&mut cluster);
    let summary = ClusterSummary {
        sweep: "e12-hostile-families-all-algorithms",
        jobs: jobs.len(),
        workers: WORKERS,
        worker_mode,
        batch: BATCH,
        sequential_ms,
        sharded_ms,
        cluster_ms,
        sharded_speedup: sequential_ms / sharded_ms,
        cluster_speedup: sequential_ms / cluster_ms,
        cluster_over_sharded: cluster_ms / sharded_ms,
    };
    println!(
        "bench e15_cluster/{} ... sequential {:.2} ms, sharded {:.2} ms ({:.2}x), \
         cluster {:.2} ms ({:.2}x; {:.2}x over sharded) — {} jobs over {} workers ({})",
        summary.sweep,
        summary.sequential_ms,
        summary.sharded_ms,
        summary.sharded_speedup,
        summary.cluster_ms,
        summary.cluster_speedup,
        summary.cluster_over_sharded,
        summary.jobs,
        summary.workers,
        summary.worker_mode,
    );
    acmr_bench::emit_bench_json("cluster", &summary);

    for handle in handles {
        handle.shutdown();
    }
    pool.shutdown();
}

fn bench_all(_criterion: &mut Criterion) {
    cluster_speedups();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
