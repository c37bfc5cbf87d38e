//! Bench: the LP/ILP substrate — simplex solve time and B&B nodes on
//! covering programs of growing size (supports every OPT bound).
//!
//! Four admission covering programs: three from the line generator
//! (16, 48 and 96 edges, capacity 4, overload 2), and one built like
//! `sweep-opt`'s LP tier — the first 300 arrivals of an MMPP
//! `stochastic_workload` trace on a 96-edge line with capacity 8 (Zipf
//! costs over {1..32}, at most 8 hops, heavy-tailed sessions and
//! widths). Each program's `lp_lower_bound` is timed, and so is
//! branch-and-bound on the programs of at most 120 items. Every time is
//! the median over repeated runs within a fixed budget.
//!
//! The summary lands in `BENCH_lp.json`, with the host's core count:
//! per program, the LP relaxation's items, rows (cover rows plus one
//! `x ≤ 1` row per item) and simplex pivots, the bound and its median
//! time, and branch-and-bound's nodes and median time where it runs.

use acmr_bench::median_ms;
use acmr_core::AdmissionInstance;
use acmr_harness::admission_covering_problem;
use acmr_lp::{branch_and_bound, BnbLimits, CoveringProblem};
use acmr_workloads::{
    random_path_workload, stochastic_workload, CostModel, PathWorkloadSpec, StochasticSpec,
    Topology, TrafficModel,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Duration;

/// Branch-and-bound runs on programs of at most this many items.
const MAX_BNB_ITEMS: usize = 120;
/// Branch-and-bound node budget.
const BNB_NODES: usize = 5_000;
/// Timing budget per measurement.
const BUDGET: Duration = Duration::from_millis(300);
/// Arrivals of the MMPP program (`sweep-opt`'s LP-tier trace length).
const MMPP_ARRIVALS: usize = 300;

/// Branch-and-bound on one program.
#[derive(Serialize)]
struct Bnb {
    nodes: usize,
    proven_optimal: bool,
    median_ms: f64,
}

/// One covering program's LP and B&B measurements.
#[derive(Serialize)]
struct Program {
    program: String,
    /// Items (LP columns before slacks).
    items: usize,
    /// Rows of the LP relaxation: cover rows plus one `x ≤ 1` row per
    /// item.
    rows: usize,
    /// Rows with positive demand.
    cover_rows: usize,
    /// Simplex pivots across both phases.
    pivots: usize,
    /// `lp_lower_bound`.
    lp_bound: f64,
    /// Median `lp_lower_bound` time.
    lp_median_ms: f64,
    /// `None` above [`MAX_BNB_ITEMS`] items.
    bnb: Option<Bnb>,
}

/// Host facts the times depend on.
#[derive(Serialize)]
struct Host {
    cores: usize,
}

/// Machine-readable summary of the LP bench.
#[derive(Serialize)]
struct LpSummary {
    bench: &'static str,
    host: Host,
    budget_ms: u64,
    bnb_max_nodes: usize,
    programs: Vec<Program>,
}

/// The three line programs of growing size.
fn line_program(m: u32) -> CoveringProblem {
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m },
        capacity: 4,
        overload: 2.0,
        costs: CostModel::Uniform { lo: 1.0, hi: 8.0 },
        max_hops: 6,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(29));
    admission_covering_problem(&inst)
}

/// The MMPP program: the first [`MMPP_ARRIVALS`] arrivals of the
/// stochastic trace `sweep-opt` bounds at the LP tier.
fn mmpp_program() -> CoveringProblem {
    let spec = StochasticSpec {
        topology: Topology::Line { m: 96 },
        capacity: 8,
        model: TrafficModel::mmpp_default(),
        arrival_rate: 4.0,
        duration: (MMPP_ARRIVALS as u32).div_ceil(3),
        costs: CostModel::Zipf {
            n_values: 32,
            s: 1.0,
        },
        max_hops: 8,
        session_alpha: 2.5,
        session_max: 8,
        width_alpha: 1.3,
    };
    let (_, full, _) = stochastic_workload(&spec, &mut StdRng::seed_from_u64(29));
    assert!(
        full.requests.len() >= MMPP_ARRIVALS,
        "MMPP generator fell short of {MMPP_ARRIVALS} arrivals"
    );
    let mut inst = AdmissionInstance::from_capacities(full.capacities.clone());
    for r in &full.requests[..MMPP_ARRIVALS] {
        inst.push(r.clone());
    }
    admission_covering_problem(&inst)
}

fn measure(name: String, p: &CoveringProblem) -> Program {
    let lp = p.lp_relaxation();
    let solution = acmr_lp::solve(&lp).expect("the bench programs are feasible");
    let lp_bound = p.lp_lower_bound().expect("the bench programs are feasible");
    let lp_median_ms = median_ms(BUDGET, || p.lp_lower_bound().unwrap());
    println!(
        "bench lp_substrate/simplex_lp/{name}_items{} ... median {lp_median_ms:.3} ms ({} pivots)",
        p.num_items(),
        solution.pivots
    );
    let bnb = (p.num_items() <= MAX_BNB_ITEMS).then(|| {
        let limits = BnbLimits {
            max_nodes: BNB_NODES,
        };
        let result = branch_and_bound(p, limits).expect("the bench programs are feasible");
        let median_ms = median_ms(BUDGET, || branch_and_bound(p, limits).map(|r| r.cost));
        println!(
            "bench lp_substrate/bnb_exact/{name} ... median {median_ms:.3} ms ({} nodes)",
            result.nodes
        );
        Bnb {
            nodes: result.nodes,
            proven_optimal: result.proven_optimal,
            median_ms,
        }
    });
    Program {
        program: name,
        items: lp.num_vars,
        rows: lp.constraints.len(),
        cover_rows: lp.constraints.len() - lp.num_vars,
        pivots: solution.pivots,
        lp_bound,
        lp_median_ms,
        bnb,
    }
}

fn bench_lp(_criterion: &mut Criterion) {
    let mut programs: Vec<Program> = [16u32, 48, 96]
        .iter()
        .map(|&m| measure(format!("line-m{m}"), &line_program(m)))
        .collect();
    programs.push(measure(format!("mmpp-{MMPP_ARRIVALS}"), &mmpp_program()));
    let summary = LpSummary {
        bench: "lp",
        host: Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        budget_ms: BUDGET.as_millis() as u64,
        bnb_max_nodes: BNB_NODES,
        programs,
    };
    acmr_bench::emit_bench_json("lp", &summary);
}

criterion_group!(benches, bench_lp);
criterion_main!(benches);
