//! Bench: **scaling** — per-decision cost must stay flat as a trace
//! grows.
//!
//! Every registered algorithm replays the first 25k and the first 200k
//! arrivals of one seeded line trace (512 edges, capacity 8, 1–4-hop
//! footprints, integer costs 1–4) through `Session::push_batch_into` in
//! batches of 256. The line saturates within the first few thousand
//! arrivals, so nearly every later arrival is a contested decision.
//! Each sample times the same number of decisions at both sizes (the
//! 25k prefix is replayed 8 times, each through a fresh session), so a
//! fast algorithm's short replays are not drowned by timer and
//! scheduler noise. The two sizes interleave over the repetitions so
//! host drift hits both alike, and each size's rate is its decisions
//! per sample over the median sample time.
//!
//! The gate: for every algorithm, the 200k rate must be at least the
//! 25k rate divided by [`MAX_SLOWDOWN`]. An algorithm whose decision
//! cost grows with the number of past arrivals halves its rate with
//! every doubling and fails by a wide margin.
//!
//! A bound arm times the report path's OPT bound the same way:
//! `admission_opt` at the default budget on both prefixes (each fires
//! the greedy/H tier; the 25k prefix is bounded 8 times per sample),
//! with its own gate: the time per arrival at 200k may be at most
//! [`MAX_BOUND_SLOWDOWN`] times the time at 25k. The lazy greedy is
//! `O((items + nnz) · log items)`, so its time per arrival grows only
//! with the log and with cache misses; a rescan per pick grows with
//! the prefix itself.
//!
//! The summary, with the host's core count, lands in
//! `BENCH_scaling.json`; the gates are checked after it is written.

use acmr_core::{AdmissionInstance, AlgorithmSpec, ArrivalEvent, Registry, Request, Session};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::{admission_opt, default_registry, BoundBudget, OptBoundKind};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Edges in the line network.
const EDGES: u32 = 512;
/// Uniform edge capacity.
const CAPACITY: u32 = 8;
/// The two trace prefixes compared.
const SIZES: [usize; 2] = [25_000, 200_000];
/// `push_batch_into` batch size.
const BATCH: usize = 256;
/// Interleaved repetitions of both sizes.
const REPS: usize = 5;
/// Largest tolerated `rate(25k) / rate(200k)`.
const MAX_SLOWDOWN: f64 = 1.5;
/// Largest tolerated growth of the OPT bound's time per arrival from
/// the 25k to the 200k prefix.
const MAX_BOUND_SLOWDOWN: f64 = 2.0;
/// Trace generator seed.
const SEED: u64 = 12;

/// One algorithm's replays of one prefix.
#[derive(Serialize)]
struct Arm {
    arrivals: usize,
    /// Fresh-session replays of the prefix per sample.
    replays: usize,
    /// Median sample time over the repetitions.
    median_ms: f64,
    /// `arrivals × replays / median_ms`, in decisions per second.
    decisions_per_s: f64,
}

/// One algorithm's two arms and its slowdown between them.
#[derive(Serialize)]
struct AlgorithmScaling {
    algorithm: String,
    arms: Vec<Arm>,
    /// `rate(25k) / rate(200k)`; the gate requires at most
    /// `max_slowdown`.
    slowdown: f64,
}

/// The OPT bound's runs on one prefix.
#[derive(Serialize)]
struct BoundArm {
    arrivals: usize,
    /// Bound computations per sample.
    replays: usize,
    /// Provenance label of the bound.
    kind: &'static str,
    value: f64,
    /// Median sample time over the repetitions.
    median_ms: f64,
    /// `median_ms / (arrivals × replays)`, in nanoseconds.
    ns_per_arrival: f64,
}

/// The bound's two arms and its slowdown between them.
#[derive(Serialize)]
struct BoundScaling {
    arms: Vec<BoundArm>,
    /// `ns_per_arrival(200k) / ns_per_arrival(25k)`; the gate requires
    /// at most `max_bound_slowdown`.
    slowdown: f64,
}

/// Host facts the rates depend on.
#[derive(Serialize)]
struct Host {
    cores: usize,
}

/// Machine-readable summary of the scaling gate.
#[derive(Serialize)]
struct ScalingSummary {
    bench: &'static str,
    workload: &'static str,
    host: Host,
    batch: usize,
    reps: usize,
    max_slowdown: f64,
    algorithms: Vec<AlgorithmScaling>,
    max_bound_slowdown: f64,
    bound: BoundScaling,
}

/// The seeded line trace: 200k arrivals with short contiguous
/// footprints and heavily tied integer costs.
fn line_trace() -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..SIZES[1])
        .map(|_| {
            let hops = 1 + rng.gen_range(0..4u32);
            let start = rng.gen_range(0..EDGES - hops);
            let edges: Vec<EdgeId> = (start..start + hops).map(EdgeId).collect();
            let cost = 1.0 + f64::from(rng.gen_range(0..4u32));
            Request::new(EdgeSet::new(edges), cost)
        })
        .collect()
}

/// Replay `trace` `replays` times, each through a fresh session of
/// `spec`, returning the wall-clock milliseconds of the batched pushes.
fn replay_ms(
    registry: &Registry,
    spec: &AlgorithmSpec,
    caps: &[u32],
    trace: &[Request],
    replays: usize,
) -> f64 {
    let mut events: Vec<ArrivalEvent> = Vec::with_capacity(BATCH);
    let mut ms = 0.0;
    for _ in 0..replays {
        let mut session = Session::from_registry(registry, spec, caps, 1).expect("registry build");
        let start = Instant::now();
        for batch in trace.chunks(BATCH) {
            session
                .push_batch_into(batch, &mut events)
                .expect("audited batch");
            std::hint::black_box(&events);
        }
        ms += start.elapsed().as_secs_f64() * 1e3;
    }
    ms
}

/// `admission_opt` at the default budget on each prefix, `SIZES[1] /
/// n` times per sample, the prefixes interleaved over the repetitions.
fn bound_scaling(caps: &[u32], trace: &[Request]) -> BoundScaling {
    let instances: Vec<AdmissionInstance> = SIZES
        .iter()
        .map(|&n| {
            let mut inst = AdmissionInstance::from_capacities(caps.to_vec());
            for r in &trace[..n] {
                inst.push(r.clone());
            }
            inst
        })
        .collect();
    let mut times = [Vec::new(), Vec::new()];
    let mut bounds = [None, None];
    for _ in 0..REPS {
        for (k, inst) in instances.iter().enumerate() {
            let start = Instant::now();
            for _ in 0..SIZES[1] / SIZES[k] {
                let bound = admission_opt(inst, BoundBudget::default());
                bounds[k] = Some(std::hint::black_box(bound));
            }
            times[k].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let arms: Vec<BoundArm> = SIZES
        .iter()
        .zip(times)
        .zip(bounds)
        .map(|((&arrivals, t), bound)| {
            let bound = bound.expect("at least one repetition");
            assert_eq!(
                bound.kind,
                OptBoundKind::GreedyOverH,
                "the {arrivals}-arrival prefix must be bounded at the greedy/H tier"
            );
            let replays = SIZES[1] / arrivals;
            let median_ms = median(t);
            BoundArm {
                arrivals,
                replays,
                kind: bound.kind.label(),
                value: bound.value,
                median_ms,
                ns_per_arrival: median_ms * 1e6 / (arrivals * replays) as f64,
            }
        })
        .collect();
    let slowdown = arms[1].ns_per_arrival / arms[0].ns_per_arrival;
    println!(
        "bench scaling/opt-bound ... {:.0} ns/arrival at {}k, {:.0} ns/arrival at {}k (slowdown {slowdown:.2}x)",
        arms[0].ns_per_arrival,
        SIZES[0] / 1000,
        arms[1].ns_per_arrival,
        SIZES[1] / 1000,
    );
    BoundScaling { arms, slowdown }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn scaling_gate() {
    let trace = line_trace();
    let caps = vec![CAPACITY; EDGES as usize];
    let registry = default_registry();
    let mut algorithms = Vec::new();
    for name in registry.names() {
        let spec = AlgorithmSpec::parse(name).expect("registry name parses");
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..REPS {
            for (k, &n) in SIZES.iter().enumerate() {
                times[k].push(replay_ms(
                    &registry,
                    &spec,
                    &caps,
                    &trace[..n],
                    SIZES[1] / n,
                ));
            }
        }
        let arms: Vec<Arm> = SIZES
            .iter()
            .zip(times)
            .map(|(&arrivals, t)| {
                let replays = SIZES[1] / arrivals;
                let median_ms = median(t);
                Arm {
                    arrivals,
                    replays,
                    median_ms,
                    decisions_per_s: (arrivals * replays) as f64 / (median_ms / 1e3),
                }
            })
            .collect();
        let slowdown = arms[0].decisions_per_s / arms[1].decisions_per_s;
        println!(
            "bench scaling/{name} ... {:.0} dec/s at {}k, {:.0} dec/s at {}k (slowdown {slowdown:.2}x)",
            arms[0].decisions_per_s,
            SIZES[0] / 1000,
            arms[1].decisions_per_s,
            SIZES[1] / 1000,
        );
        algorithms.push(AlgorithmScaling {
            algorithm: name.to_string(),
            arms,
            slowdown,
        });
    }
    let bound = bound_scaling(&caps, &trace);
    let summary = ScalingSummary {
        bench: "scaling",
        workload: "line-512-cap8-200k",
        host: Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        batch: BATCH,
        reps: REPS,
        max_slowdown: MAX_SLOWDOWN,
        algorithms,
        max_bound_slowdown: MAX_BOUND_SLOWDOWN,
        bound,
    };
    acmr_bench::emit_bench_json("scaling", &summary);
    let mut slow: Vec<String> = summary
        .algorithms
        .iter()
        .filter(|a| a.slowdown > MAX_SLOWDOWN)
        .map(|a| format!("{} ({:.2}x)", a.algorithm, a.slowdown))
        .collect();
    if summary.bound.slowdown > MAX_BOUND_SLOWDOWN {
        slow.push(format!("the OPT bound ({:.2}x)", summary.bound.slowdown));
    }
    assert!(
        slow.is_empty(),
        "per-decision cost grows with trace length for: {}",
        slow.join(", ")
    );
}

fn bench_all(_criterion: &mut Criterion) {
    scaling_gate();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
