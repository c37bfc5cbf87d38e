//! **E19 — buyback factor grid × algorithms**: net objective under
//! paid cancellation on buyback-hostile escalation traces.
//!
//! The cancellation-cost scenario axis: every run is billed
//! `factor × cost` per preemption (the session charges it uniformly
//! via `Session::with_buyback_factor`, so free-preemption algorithms
//! pay for their evictions too), and the scored quantity is the *net
//! objective* `rejected_cost + buyback_paid`. The validated shape: on
//! geometric cost-escalation traces the `buyback` policy — which prices
//! its upgrades against the `(1 + δ)` margin, `δ = f + √(f(1+f))` —
//! beats every non-preempting baseline (they keep wave-0 squatters and
//! reject all later, pricier waves), while staying inside its
//! `1 + 2f + 2√(f(1+f))` value-competitive guarantee.

use crate::experiments::seed_for;
use crate::parallel::{default_threads, parallel_map};
use crate::registry::default_registry;
use crate::stats::Summary;
use crate::table::Table;
use acmr_core::{AdmissionInstance, AlgorithmSpec, RunReport, Session};
use acmr_workloads::adversarial::buyback_hostile;

const EXP_ID: u64 = 19;

/// Wave-to-wave price multiplier of the hostile traces. Must clear the
/// buyback rule's `1 + δ` margin for every factor in [`factors`]
/// (`f = 2` needs `> 1 + 2 + √6 ≈ 5.45`) or the policy correctly sits
/// tight and the grid degenerates.
pub const GROWTH: f64 = 8.0;

/// Registered baselines that never preempt — the algorithms the
/// buyback policy must beat on escalation traces (they cannot trade
/// squatters for the pricier waves at any cancellation price).
pub const NON_PREEMPTING: [&str; 3] = ["greedy", "credit-sqrt-m", "lcb-greedy"];

/// The cancellation-factor grid (rows).
pub fn factors(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.25, 1.0]
    } else {
        vec![0.1, 0.25, 0.5, 1.0, 2.0]
    }
}

/// Column order for one grid row: every registered algorithm under its
/// default spec, with `buyback` pinned to the row's factor so its
/// margin matches the price it is billed.
pub fn algorithm_specs(factor: f64) -> Vec<String> {
    default_registry()
        .names()
        .iter()
        .map(|name| {
            if *name == "buyback" {
                format!("buyback?factor={factor}")
            } else {
                (*name).to_string()
            }
        })
        .collect()
}

/// Exact offline-optimal rejected cost for an all-singleton instance:
/// edges are independent, so OPT keeps each edge's `cap` most
/// expensive requests and rejects the rest. Panics if any footprint
/// spans more than one edge.
pub fn exact_singleton_opt(inst: &AdmissionInstance) -> f64 {
    let mut per_edge: Vec<Vec<f64>> = vec![Vec::new(); inst.capacities.len()];
    for r in &inst.requests {
        assert_eq!(r.footprint.len(), 1, "exact_singleton_opt needs singletons");
        per_edge[r.footprint.iter().next().unwrap().index()].push(r.cost);
    }
    let mut rejected = 0.0;
    for (e, costs) in per_edge.iter_mut().enumerate() {
        costs.sort_by(f64::total_cmp);
        let keep = inst.capacities[e] as usize;
        let cut = costs.len().saturating_sub(keep);
        rejected += costs[..cut].iter().sum::<f64>();
    }
    rejected
}

/// Run `spec` over `inst` with the session billing `factor × cost` per
/// preemption, regardless of what the algorithm itself advertises —
/// the uniform scenario charge of the E19 grid.
pub fn run_billed(
    spec: &str,
    inst: &AdmissionInstance,
    base_seed: u64,
    factor: f64,
) -> Result<RunReport, acmr_core::AcmrError> {
    let registry = default_registry();
    let parsed = AlgorithmSpec::parse(spec)?;
    let mut session = Session::from_registry(&registry, &parsed, &inst.capacities, base_seed)?
        .with_buyback_factor(factor)?;
    session.push_batch_into(&inst.requests, &mut Vec::new())?;
    Ok(session.report())
}

/// One grid row: every algorithm billed at one cancellation factor.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Cancellation factor `f` of this row.
    pub factor: f64,
    /// The theorem guarantee `1 + 2f + 2√(f(1+f))` for this factor.
    pub guarantee: f64,
    /// Mean net objective (`rejected_cost + buyback_paid`) per
    /// algorithm, in [`algorithm_specs`] order.
    pub net: Vec<Summary>,
    /// Mean buyback charges per algorithm, same order.
    pub paid: Vec<Summary>,
    /// Value-competitive ratio `(offered − OPT_rej) / (offered − net)`
    /// vs the exact singleton OPT, same order (only finite, positive
    /// denominators are summarized; `None` when no run kept any value).
    pub value_ratios: Vec<Option<Summary>>,
}

/// The hostile instance behind one `(factor-row, rep)` point: reps
/// vary the wave count so rows aggregate over several escalation
/// depths (the traces are deterministic; randomized algorithms draw
/// their seeds from [`seed_for`]).
pub fn instance_for(m: u32, cap: u32, rep: u64) -> AdmissionInstance {
    buyback_hostile(m, cap, 4 + rep as u32, GROWTH)
}

/// Run the grid.
pub fn run(quick: bool) -> Vec<Cell> {
    let (m, cap, reps) = if quick { (6, 3, 2) } else { (12, 4, 3) };
    let rows = factors(quick);
    parallel_map(rows, default_threads(), move |&factor| {
        let specs = algorithm_specs(factor);
        let mut net: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        let mut paid: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        for rep in 0..reps {
            let inst = instance_for(m, cap, rep);
            let opt_rejected = exact_singleton_opt(&inst);
            for (k, spec) in specs.iter().enumerate() {
                let seed = seed_for(EXP_ID, (factor * 1000.0) as u64, rep ^ ((k as u64) << 8));
                let report = run_billed(spec, &inst, seed, factor).expect("billed run");
                net[k].push(report.net_objective);
                paid[k].push(report.buyback_paid);
                let kept = report.offered_cost - report.net_objective;
                if kept > 0.0 {
                    ratios[k].push((report.offered_cost - opt_rejected) / kept);
                }
            }
        }
        Cell {
            factor,
            guarantee: acmr_baselines::Buyback::guarantee(factor),
            net: net.iter().map(|v| Summary::of(v)).collect(),
            paid: paid.iter().map(|v| Summary::of(v)).collect(),
            value_ratios: ratios.iter().map(|v| Summary::from_values(v)).collect(),
        }
    })
}

/// Render the E19 table (net objective per algorithm × factor).
pub fn table(cells: &[Cell]) -> Table {
    let mut headers: Vec<String> = vec!["factor".into()];
    headers.extend(default_registry().names().iter().map(|s| (*s).to_string()));
    headers.push("guarantee".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "E19 — net objective (rejected + buyback) on buyback-hostile escalation",
        &header_refs,
    );
    for cell in cells {
        let mut row = vec![format!("{:.2}", cell.factor)];
        for s in &cell.net {
            row.push(if s.n == 0 {
                "—".into()
            } else {
                format!("{:.1}", s.mean)
            });
        }
        row.push(format!("{:.2}", cell.guarantee));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_covers_every_factor_and_algorithm() {
        let cells = run(true);
        assert_eq!(cells.len(), factors(true).len());
        for cell in &cells {
            let specs = algorithm_specs(cell.factor);
            assert_eq!(cell.net.len(), specs.len());
            assert!(specs.iter().any(|s| s.starts_with("buyback?factor=")));
            for (k, s) in cell.net.iter().enumerate() {
                assert!(s.n > 0, "{} produced no runs", specs[k]);
                assert!(s.mean.is_finite() && s.mean >= 0.0, "{}", specs[k]);
            }
            // Non-preemptors are never charged: zero buyback paid.
            for (k, spec) in specs.iter().enumerate() {
                if NON_PREEMPTING.contains(&spec.as_str()) {
                    assert_eq!(cell.paid[k].mean, 0.0, "{spec} paid buyback");
                }
            }
        }
    }

    #[test]
    fn buyback_beats_every_non_preempting_baseline_on_hostile_traces() {
        let cells = run(true);
        for cell in &cells {
            let specs = algorithm_specs(cell.factor);
            let bb = specs
                .iter()
                .position(|s| s.starts_with("buyback?"))
                .expect("buyback column");
            for name in NON_PREEMPTING {
                let k = specs.iter().position(|s| s == name).expect(name);
                assert!(
                    cell.net[bb].mean < cell.net[k].mean,
                    "factor {}: buyback net {} must beat {name} net {}",
                    cell.factor,
                    cell.net[bb].mean,
                    cell.net[k].mean
                );
            }
        }
    }

    #[test]
    fn buyback_stays_inside_its_guarantee_on_the_grid() {
        let cells = run(true);
        for cell in &cells {
            let specs = algorithm_specs(cell.factor);
            let bb = specs
                .iter()
                .position(|s| s.starts_with("buyback?"))
                .expect("buyback column");
            let ratios = cell.value_ratios[bb]
                .as_ref()
                .unwrap_or_else(|| panic!("no finite value ratios at {}", cell.factor));
            assert!(
                ratios.max <= cell.guarantee + 1e-9,
                "factor {}: value ratio {} above guarantee {}",
                cell.factor,
                ratios.max,
                cell.guarantee
            );
        }
    }

    #[test]
    fn exact_singleton_opt_keeps_top_costs() {
        let inst = buyback_hostile(2, 1, 3, 4.0);
        // Each edge sees costs {1, 4, 16}; cap 1 keeps 16, rejects 5.
        assert_eq!(exact_singleton_opt(&inst), 2.0 * 5.0);
    }

    #[test]
    #[ignore = "debug dump"]
    fn dump_table() {
        let cells = run(true);
        println!("{}", table(&cells).to_markdown());
    }
}
