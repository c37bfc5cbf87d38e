//! Bench: workload generation — the time `random_path_workload` and
//! `stochastic_workload` take per generated arrival, on the traces the
//! serving measurements start from.
//!
//! Four arms, each one generator call on a fixed seed:
//!
//! 1. **wire-greedy line**: 512 edges, capacity 8, at most 4 hops,
//!    costs Zipf over {1..4} with exponent 0, and overload for 200k
//!    arrivals plus 5% (the serving-floor trace of `wire-greedy`);
//! 2. **sweep-opt MMPP**: 96 edges, capacity 8, the default
//!    three-phase MMPP at 4 sessions per slot over 1,167 slots, Zipf
//!    costs over {1..32} with exponent 1, at most 8 hops, sessions
//!    α = 2.5 capped at 8, widths α = 1.3 (a `sweep-opt` class trace);
//! 3. **weighted line**: the trace of `acmr gen --m 512 --cap 8
//!    --overload 250 --max-hops 4 --weighted` (Zipf costs over {1..64}
//!    with exponent 1.1, seed 0);
//! 4. **grid walks**: the trace of `acmr gen --topology grid --m 512
//!    --cap 8 --overload 50 --max-hops 4` (a 23 × 23 grid, unit costs,
//!    seed 0): self-avoiding walks over one routing scratch, with no
//!    cost draw beside them.
//!
//! Each arm's time is the median over repeated generations within a
//! fixed budget. The summary lands in `BENCH_gen.json`: the host's core
//! count and, per arm, the arrivals generated, the median time, the
//! time per generated arrival, and the 64-bit FNV-1a hash of the
//! instance's binary trace encoding, so a change that generates other
//! traffic shows in the file.

use acmr_bench::median_ms;
use acmr_core::AdmissionInstance;
use acmr_workloads::{
    random_path_workload, stochastic_workload, write_bin_trace, CostModel, PathWorkloadSpec,
    StochasticSpec, Topology, TrafficModel,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Duration;

/// Timing budget per arm.
const BUDGET: Duration = Duration::from_secs(2);

/// One generator arm.
#[derive(Serialize)]
struct Arm {
    name: &'static str,
    generator: &'static str,
    /// Arrivals in the generated instance.
    arrivals: usize,
    median_ms: f64,
    ns_per_arrival: f64,
    /// FNV-1a of the instance's `ACMR-TRACE v2` bytes, in hex.
    trace_fnv1a: String,
}

/// Host facts the times depend on.
#[derive(Serialize)]
struct Host {
    cores: usize,
}

/// Machine-readable summary of the generation bench.
#[derive(Serialize)]
struct GenSummary {
    bench: &'static str,
    host: Host,
    budget_ms: u64,
    arms: Vec<Arm>,
}

fn wire_greedy_line() -> AdmissionInstance {
    let (edges, capacity, max_hops, arrivals) = (512u32, 8u32, 4u32, 200_000.0);
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m: edges },
        capacity,
        overload: 1.05 * arrivals * f64::from(max_hops) / f64::from(edges * capacity),
        costs: CostModel::Zipf {
            n_values: 4,
            s: 0.0,
        },
        max_hops,
    };
    random_path_workload(&spec, &mut StdRng::seed_from_u64(28)).1
}

fn sweep_opt_mmpp() -> AdmissionInstance {
    let spec = StochasticSpec {
        topology: Topology::Line { m: 96 },
        capacity: 8,
        model: TrafficModel::mmpp_default(),
        arrival_rate: 4.0,
        duration: 1_167,
        costs: CostModel::Zipf {
            n_values: 32,
            s: 1.0,
        },
        max_hops: 8,
        session_alpha: 2.5,
        session_max: 8,
        width_alpha: 1.3,
    };
    stochastic_workload(&spec, &mut StdRng::seed_from_u64(28)).1
}

fn weighted_line() -> AdmissionInstance {
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m: 512 },
        capacity: 8,
        overload: 250.0,
        costs: CostModel::Zipf {
            n_values: 64,
            s: 1.1,
        },
        max_hops: 4,
    };
    random_path_workload(&spec, &mut StdRng::seed_from_u64(0)).1
}

fn grid_walks() -> AdmissionInstance {
    let spec = PathWorkloadSpec {
        topology: Topology::Grid { rows: 23, cols: 23 },
        capacity: 8,
        overload: 50.0,
        costs: CostModel::Unit,
        max_hops: 4,
    };
    random_path_workload(&spec, &mut StdRng::seed_from_u64(0)).1
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn measure(
    name: &'static str,
    generator: &'static str,
    generate: impl Fn() -> AdmissionInstance,
) -> Arm {
    let inst = generate();
    let arrivals = inst.requests.len();
    let median_ms = median_ms(BUDGET, &generate);
    let ns_per_arrival = median_ms * 1e6 / arrivals as f64;
    println!(
        "bench gen/{name} ... median {median_ms:.2} ms, {arrivals} arrivals, \
         {ns_per_arrival:.1} ns per arrival"
    );
    Arm {
        name,
        generator,
        arrivals,
        median_ms,
        ns_per_arrival,
        trace_fnv1a: format!("{:016x}", fnv1a(&write_bin_trace(&inst))),
    }
}

fn bench_gen(_criterion: &mut Criterion) {
    let arms = vec![
        measure("wire-greedy-line", "random_path_workload", wire_greedy_line),
        measure("sweep-opt-mmpp", "stochastic_workload", sweep_opt_mmpp),
        measure("weighted-line", "random_path_workload", weighted_line),
        measure("grid-walks", "random_path_workload", grid_walks),
    ];
    let summary = GenSummary {
        bench: "gen",
        host: Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        budget_ms: BUDGET.as_millis() as u64,
        arms,
    };
    acmr_bench::emit_bench_json("gen", &summary);
}

criterion_group!(benches, bench_gen);
criterion_main!(benches);
