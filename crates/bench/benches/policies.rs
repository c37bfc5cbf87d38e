//! Bench: **E18** — arrival models × policy classes.
//!
//! Runs the E18 grid (adversarial + four stochastic arrival models ×
//! every registered algorithm plus the tuned stochastic-policy
//! variants) and times the serving policies on a stochastic trace.
//! The machine-readable summary lands in `BENCH_policies.json` for CI
//! to upload; `docs/OPERATIONS.md` explains how to read it.
//!
//! The summary records, per arrival family, the mean rejection rate of
//! every algorithm, plus the headline comparison: the best stochastic
//! policy vs the best worst-case algorithm on stochastic traffic.

use acmr_harness::experiments::e18_policies::{
    algorithm_specs, instance_for, is_new_policy, run, stochastic_mean_rejection, Family,
};
use acmr_harness::{default_registry, run_report, SourceRef};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::time::Instant;

/// One E18 grid row: an arrival family with per-algorithm means.
#[derive(Serialize)]
struct FamilyRow {
    family: &'static str,
    /// Mean rejection rate per algorithm, aligned with `algorithms`.
    rejection: Vec<f64>,
    /// Mean ratio vs the OPT bound per algorithm, same order.
    ratio_vs_opt: Vec<f64>,
    /// OPT bound provenance for the family.
    opt_bound: &'static str,
}

/// Decision throughput of one policy on the timing trace.
#[derive(Serialize)]
struct PolicyTiming {
    spec: String,
    run_ms: f64,
    reqs_per_sec: f64,
}

/// Machine-readable summary of the E18 policy comparison.
#[derive(Serialize)]
struct PoliciesSummary {
    /// Column order for the per-family rejection vectors.
    algorithms: Vec<String>,
    families: Vec<FamilyRow>,
    /// Mean rejection rate across the stochastic families per
    /// algorithm, aligned with `algorithms`.
    stochastic_mean_rejection: Vec<f64>,
    /// Best stochastic policy on stochastic traffic.
    best_stochastic_policy: String,
    best_stochastic_policy_rejection: f64,
    /// Best worst-case (paper or baseline) algorithm on the same rows.
    best_worst_case_algorithm: String,
    best_worst_case_rejection: f64,
    /// Decision throughput on a stochastic-iid timing trace.
    timing: Vec<PolicyTiming>,
}

fn policies_grid() {
    let quick = !acmr_bench::full_grid_requested();
    let cells = run(quick);
    let specs = algorithm_specs();

    let families: Vec<FamilyRow> = cells
        .iter()
        .map(|c| FamilyRow {
            family: c.family.label(),
            rejection: c.rejection.iter().map(|s| s.mean).collect(),
            ratio_vs_opt: c.ratios.iter().map(|s| s.mean).collect(),
            opt_bound: c.bound,
        })
        .collect();
    let means: Vec<f64> = (0..specs.len())
        .map(|k| stochastic_mean_rejection(&cells, k))
        .collect();
    let best = |new: bool| {
        specs
            .iter()
            .zip(&means)
            .filter(|(s, _)| is_new_policy(s) == new)
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite means"))
            .map(|(s, m)| (s.clone(), *m))
            .expect("non-empty column set")
    };
    let (best_new, best_new_rej) = best(true);
    let (best_old, best_old_rej) = best(false);

    // Decision-throughput arm: every stochastic policy plus the
    // strongest worst-case preemptor on one stochastic-iid trace.
    let registry = default_registry();
    let inst = instance_for(Family::StochasticIid, 128, 8, 512, 7);
    let timing: Vec<PolicyTiming> = specs
        .iter()
        .filter(|s| is_new_policy(s) || s.as_str() == "preempt-cheapest")
        .map(|spec| {
            let start = Instant::now();
            let report = run_report(&registry, spec, SourceRef::Mem(&inst), 7, 1, None)
                .expect("registry run");
            let run_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(report.offered_cost > 0.0, "timing trace must offer load");
            PolicyTiming {
                spec: spec.clone(),
                run_ms,
                reqs_per_sec: inst.requests.len() as f64 / (run_ms / 1e3),
            }
        })
        .collect();

    let summary = PoliciesSummary {
        algorithms: specs,
        families,
        stochastic_mean_rejection: means,
        best_stochastic_policy: best_new,
        best_stochastic_policy_rejection: best_new_rej,
        best_worst_case_algorithm: best_old,
        best_worst_case_rejection: best_old_rej,
        timing,
    };
    println!(
        "bench e18_policies/grid ... best stochastic policy {} at {:.4} vs best worst-case {} \
         at {:.4} (stochastic mean rejection, {} grid)",
        summary.best_stochastic_policy,
        summary.best_stochastic_policy_rejection,
        summary.best_worst_case_algorithm,
        summary.best_worst_case_rejection,
        if quick { "quick" } else { "full" },
    );
    acmr_bench::emit_bench_json("policies", &summary);
}

fn bench_all(_criterion: &mut Criterion) {
    policies_grid();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
