//! Bench: **E19** — buyback factor grid × algorithms.
//!
//! Runs the E19 grid (cancellation factors × every registered
//! algorithm, all billed `factor × cost` per preemption on
//! buyback-hostile escalation traces) and times the buyback policy's
//! decision throughput. The machine-readable summary lands in
//! `BENCH_buyback.json` for CI to upload; `docs/OPERATIONS.md`
//! explains how to read it.
//!
//! The summary records, per factor, the mean net objective
//! (`rejected_cost + buyback_paid`) and buyback charges of every
//! algorithm, plus the headline comparison: the buyback policy vs the
//! best non-preempting baseline.

use acmr_harness::experiments::e19_buyback::{
    algorithm_specs, instance_for, run, run_billed, NON_PREEMPTING,
};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::time::Instant;

/// One E19 grid row: a cancellation factor with per-algorithm means.
#[derive(Serialize)]
struct FactorRow {
    factor: f64,
    /// The theorem guarantee `1 + 2f + 2√(f(1+f))` at this factor.
    guarantee: f64,
    /// Mean net objective per algorithm, aligned with `algorithms`.
    net_objective: Vec<f64>,
    /// Mean buyback charges per algorithm, same order.
    buyback_paid: Vec<f64>,
    /// Mean value-competitive ratio vs the exact singleton OPT
    /// (`null` when no run kept any value).
    value_ratio: Vec<Option<f64>>,
}

/// Decision throughput of one spec on the timing trace.
#[derive(Serialize)]
struct BuybackTiming {
    spec: String,
    run_ms: f64,
    reqs_per_sec: f64,
}

/// Machine-readable summary of the E19 buyback comparison.
#[derive(Serialize)]
struct BuybackSummary {
    /// Column order for the per-factor vectors (buyback's spec varies
    /// per row — its column is named plain `buyback` here).
    algorithms: Vec<String>,
    factors: Vec<FactorRow>,
    /// Headline at the median factor: the buyback policy's mean net
    /// objective vs the best non-preempting baseline's.
    headline_factor: f64,
    buyback_net_objective: f64,
    best_non_preempting: String,
    best_non_preempting_net_objective: f64,
    /// Decision throughput on one hostile trace.
    timing: Vec<BuybackTiming>,
}

fn buyback_grid() {
    let quick = !acmr_bench::full_grid_requested();
    let cells = run(quick);
    let names: Vec<String> = acmr_harness::default_registry()
        .names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();

    let rows: Vec<FactorRow> = cells
        .iter()
        .map(|c| FactorRow {
            factor: c.factor,
            guarantee: c.guarantee,
            net_objective: c.net.iter().map(|s| s.mean).collect(),
            buyback_paid: c.paid.iter().map(|s| s.mean).collect(),
            value_ratio: c
                .value_ratios
                .iter()
                .map(|s| s.as_ref().map(|s| s.mean))
                .collect(),
        })
        .collect();

    // Headline: the middle factor row, buyback vs the best
    // non-preempting baseline.
    let mid = &cells[cells.len() / 2];
    let specs = algorithm_specs(mid.factor);
    let bb = specs
        .iter()
        .position(|s| s.starts_with("buyback?"))
        .expect("buyback column");
    let (best_np, best_np_net) = NON_PREEMPTING
        .iter()
        .map(|name| {
            let k = specs.iter().position(|s| s == name).expect(name);
            (name.to_string(), mid.net[k].mean)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-preempting set");

    // Decision-throughput arm: buyback and the two preemptors it is
    // most often compared against, on one hostile trace.
    let inst = instance_for(24, 6, 3);
    let timing: Vec<BuybackTiming> = ["buyback?factor=0.5", "preempt-cheapest", "greedy"]
        .iter()
        .map(|spec| {
            let start = Instant::now();
            let report = run_billed(spec, &inst, 7, 0.5).expect("billed run");
            let run_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(report.offered_cost > 0.0, "timing trace must offer load");
            BuybackTiming {
                spec: spec.to_string(),
                run_ms,
                reqs_per_sec: inst.requests.len() as f64 / (run_ms / 1e3),
            }
        })
        .collect();

    let summary = BuybackSummary {
        algorithms: names,
        factors: rows,
        headline_factor: mid.factor,
        buyback_net_objective: mid.net[bb].mean,
        best_non_preempting: best_np,
        best_non_preempting_net_objective: best_np_net,
        timing,
    };
    println!(
        "bench e19_buyback/grid ... at factor {} buyback nets {:.1} vs best non-preempting {} \
         at {:.1} ({} grid)",
        summary.headline_factor,
        summary.buyback_net_objective,
        summary.best_non_preempting,
        summary.best_non_preempting_net_objective,
        if quick { "quick" } else { "full" },
    );
    assert!(
        summary.buyback_net_objective < summary.best_non_preempting_net_objective,
        "buyback must beat every non-preempting baseline on its hostile topology"
    );
    acmr_bench::emit_bench_json("buyback", &summary);
}

fn bench_all(_criterion: &mut Criterion) {
    buyback_grid();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
