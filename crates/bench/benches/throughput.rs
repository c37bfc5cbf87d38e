//! Bench: **E10** — requests/second scaling of every online algorithm
//! on a common workload series (the systems dimension: all algorithms
//! must stay practical as instances grow), plus **E10b**: the batched
//! sharded sweep against the sequential per-push baseline on the
//! 64-node grid workload, with the speedups persisted to
//! `BENCH_throughput.json` (see [`throughput_speedups`]).

use acmr_core::setcover::{BicriteriaCover, OnlineSetCover, ReductionCover};
use acmr_core::{AlgorithmSpec, RandConfig, Session};
use acmr_harness::{
    cross_jobs, default_registry, run_report, BoundBudget, ShardedDriver, SourceRef,
};
use acmr_workloads::{
    random_arrivals, random_path_workload, random_set_system, ArrivalPattern, CostModel,
    PathWorkloadSpec, SetSystemSpec, Topology,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::{Duration, Instant};

fn bench_throughput(criterion: &mut Criterion) {
    let registry = default_registry();
    let mut group = criterion.benchmark_group("e10_throughput");
    for &m in &[128u32, 512, 2048] {
        let spec = PathWorkloadSpec {
            topology: Topology::Line { m },
            capacity: 8,
            overload: 1.5,
            costs: CostModel::Unit,
            max_hops: 8,
        };
        let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(31));
        group.throughput(Throughput::Elements(inst.requests.len() as u64));
        for name in ["aag-unweighted", "greedy"] {
            let alg_spec = AlgorithmSpec::parse(name).expect("registry name parses");
            group.bench_with_input(BenchmarkId::new(name, format!("m{m}")), &inst, |b, inst| {
                b.iter(|| {
                    let mut session =
                        Session::from_registry(&registry, &alg_spec, &inst.capacities, 3)
                            .expect("registry build");
                    for r in &inst.requests {
                        session.push(r).expect("audited run");
                    }
                    session.stats().currently_accepted
                })
            });
        }
    }
    for &(n, m) in &[(64usize, 96usize), (256, 384)] {
        let spec = SetSystemSpec {
            num_elements: n,
            num_sets: m,
            density: 0.2,
            min_degree: 3,
            max_cost: 1,
        };
        let mut rng = StdRng::seed_from_u64(37);
        let system = random_set_system(&spec, &mut rng);
        let arrivals = random_arrivals(&system, ArrivalPattern::UniformRandom, 2, &mut rng);
        group.throughput(Throughput::Elements(arrivals.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("setcover_reduction", format!("n{n}")),
            &(system.clone(), arrivals.clone()),
            |b, (system, arrivals)| {
                b.iter(|| {
                    let mut alg = ReductionCover::randomized(
                        system.clone(),
                        RandConfig::unweighted(),
                        StdRng::seed_from_u64(5),
                    );
                    for &j in arrivals {
                        alg.on_arrival(j);
                    }
                    alg.total_cost()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("setcover_bicriteria", format!("n{n}")),
            &(system, arrivals),
            |b, (system, arrivals)| {
                b.iter(|| {
                    let mut alg = BicriteriaCover::new(system.clone(), 0.25);
                    for &j in arrivals {
                        alg.on_arrival(j);
                    }
                    alg.total_cost()
                })
            },
        );
    }
    group.finish();
}

/// Machine-readable summary of the E10b comparison.
#[derive(Serialize)]
struct SpeedupSummary {
    workload: &'static str,
    edges: usize,
    requests: usize,
    jobs: usize,
    threads: usize,
    batch: usize,
    /// Per-job `run_report` (streaming push + per-job OPT bound), one
    /// job after another — the pre-driver sequential path.
    sequential_per_push_ms: f64,
    /// `ShardedDriver`: per-trace OPT computed once and shared, jobs
    /// fanned over threads, arrivals through `push_batch_into`.
    sharded_batched_ms: f64,
    sweep_speedup: f64,
    /// Engine only (no OPT): one algorithm over the trace, per-push
    /// streaming vs batched session path.
    engine_per_push_ms: f64,
    engine_batched_ms: f64,
    engine_batch_speedup: f64,
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// E10b: batched sharded sweep vs sequential per-push on the 64-node
/// grid workload (8×8 grid, the acceptance workload).
///
/// Both arms produce byte-identical reports (asserted below — this
/// bench is also a differential check); the driver wins on work shape:
/// the offline-optimum bound of the shared trace is computed **once**
/// instead of once per job, jobs shard across worker threads, and
/// arrivals flow through `push_batch_into`. The bound budget is the
/// greedy-over-H tier so one arm stays bench-sized (the default LP
/// budget takes ~15 s per pass on this trace — same shape, larger
/// margin).
fn throughput_speedups() {
    let spec = PathWorkloadSpec {
        topology: Topology::Grid { rows: 8, cols: 8 },
        capacity: 8,
        overload: 1.5,
        costs: CostModel::Uniform { lo: 1.0, hi: 6.0 },
        max_hops: 8,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(31));
    let registry = default_registry();
    let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let seeds: Vec<u64> = (0..3).collect();
    let jobs = cross_jobs(&["grid64"], &spec_refs, &seeds);
    let traces = vec![("grid64".to_string(), inst.clone())];
    let budget = BoundBudget {
        max_exact_items: 0,
        exact_nodes: 0,
        max_lp_items: 0,
    };
    let driver = ShardedDriver::new().batch(64).budget(budget);

    const ROUNDS: usize = 7;
    let mut seq = Vec::with_capacity(ROUNDS);
    let mut sharded = Vec::with_capacity(ROUNDS);
    let mut last_seq_reports = Vec::new();
    let mut last_sweep = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        last_seq_reports = jobs
            .iter()
            .map(|job| {
                let source = SourceRef::Mem(&inst);
                run_report(&registry, &job.spec, source, job.seed, 1, Some(budget)).unwrap()
            })
            .collect();
        seq.push(t.elapsed());

        let t = Instant::now();
        last_sweep = Some(driver.run(&registry, &traces, &jobs).unwrap());
        sharded.push(t.elapsed());
    }
    // Differential guard: the two arms must agree job for job.
    let sweep = last_sweep.expect("sweep ran");
    for (seq_report, job) in last_seq_reports.iter().zip(&sweep.jobs) {
        assert_eq!(&job.report, seq_report, "sweep diverged from sequential");
    }

    // Engine-only comparison (no OPT): streaming vs batched session.
    let alg = AlgorithmSpec::parse("aag-weighted?seed=3").unwrap();
    let mut engine_push = Vec::with_capacity(ROUNDS);
    let mut engine_batch = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let mut session = Session::from_registry(&registry, &alg, &inst.capacities, 0).unwrap();
        for r in &inst.requests {
            criterion::black_box(session.push(r).unwrap());
        }
        engine_push.push(t.elapsed());

        let t = Instant::now();
        let mut session = Session::from_registry(&registry, &alg, &inst.capacities, 0).unwrap();
        let mut events = Vec::new();
        for chunk in inst.requests.chunks(64) {
            session.push_batch_into(chunk, &mut events).unwrap();
            criterion::black_box(&events);
        }
        engine_batch.push(t.elapsed());
    }

    let sequential_per_push_ms = median_ms(&mut seq);
    let sharded_batched_ms = median_ms(&mut sharded);
    let engine_per_push_ms = median_ms(&mut engine_push);
    let engine_batched_ms = median_ms(&mut engine_batch);
    let summary = SpeedupSummary {
        workload: "grid-8x8-cap8-overload1.5",
        edges: inst.num_edges(),
        requests: inst.requests.len(),
        jobs: jobs.len(),
        threads: sweep.threads,
        batch: sweep.batch,
        sequential_per_push_ms,
        sharded_batched_ms,
        sweep_speedup: sequential_per_push_ms / sharded_batched_ms,
        engine_per_push_ms,
        engine_batched_ms,
        engine_batch_speedup: engine_per_push_ms / engine_batched_ms,
    };
    println!(
        "bench e10b_speedup/grid64 ... sequential {:.2} ms, sharded+batched {:.2} ms ({:.2}x); \
         engine per-push {:.3} ms vs batched {:.3} ms ({:.2}x)",
        summary.sequential_per_push_ms,
        summary.sharded_batched_ms,
        summary.sweep_speedup,
        summary.engine_per_push_ms,
        summary.engine_batched_ms,
        summary.engine_batch_speedup,
    );
    acmr_bench::emit_bench_json("throughput", &summary);
}

fn bench_all(criterion: &mut Criterion) {
    bench_throughput(criterion);
    throughput_speedups();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
