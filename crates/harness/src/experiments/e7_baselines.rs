//! **E7 — the paper's motivation**: the §3 algorithm vs the BKK-style
//! deterministic baselines and naive greedy.
//!
//! Three workload families: nested intervals (adversarial for FCFS),
//! the two-phase squeeze (§4-style preemption pressure), and random
//! line workloads. The validated shape: the paper's algorithm wins
//! asymptotically on adversarial families (ratios grow for baselines,
//! stay polylog for the paper), and is competitive on random loads.

use crate::experiments::e1_fractional::kind_label;
use crate::experiments::seed_for;
use crate::opt::{admission_opt, BoundBudget};
use crate::parallel::{default_threads, parallel_map};
use crate::registry::default_registry;
use crate::runner::run_report;
use crate::shard::SourceRef;
use crate::stats::Summary;
use crate::table::Table;
use acmr_core::{AdmissionInstance, DEFAULT_ALGORITHM};
use acmr_workloads::adversarial::{nested_intervals, two_phase_squeeze};
use acmr_workloads::{random_path_workload, CostModel, PathWorkloadSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXP_ID: u64 = 7;

/// Workload family for a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Nested-interval adversarial instance.
    Nested,
    /// Two-phase squeeze.
    Squeeze,
    /// Random line workload.
    RandomLine,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::Nested => "nested",
            Family::Squeeze => "squeeze",
            Family::RandomLine => "random-line",
        }
    }
}

/// One cell: every algorithm's ratio on one (family, size) point.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload family.
    pub family: Family,
    /// Size parameter (edges).
    pub m: u32,
    /// Ratios keyed in [`ALGS`] order.
    pub ratios: Vec<Summary>,
    /// OPT bound provenance.
    pub bound: &'static str,
}

/// Algorithm column order for [`Cell::ratios`]: registry spec strings,
/// resolved through [`default_registry`] — E7 carries no constructor
/// table of its own.
pub const ALGS: [&str; 5] = [
    DEFAULT_ALGORITHM,
    "greedy",
    "credit-sqrt-m",
    "preempt-cheapest",
    "random-preempt",
];

fn instance_for(family: Family, m: u32, seed: u64) -> AdmissionInstance {
    match family {
        Family::Nested => nested_intervals(m, 2, 1.max(m / 16), 3),
        Family::Squeeze => two_phase_squeeze(m, 4, (m / 4).max(1), 4),
        Family::RandomLine => {
            let spec = PathWorkloadSpec {
                topology: Topology::Line { m },
                capacity: 4,
                overload: 2.0,
                costs: CostModel::Uniform { lo: 1.0, hi: 16.0 },
                max_hops: 8,
            };
            random_path_workload(&spec, &mut StdRng::seed_from_u64(seed)).1
        }
    }
}

/// Run the comparison.
pub fn run(quick: bool) -> Vec<Cell> {
    let (ms, seeds): (Vec<u32>, u64) = if quick {
        (vec![16, 32], 3)
    } else {
        (vec![16, 32, 64, 128, 256], 8)
    };
    let mut cells: Vec<(Family, u32)> = Vec::new();
    for &family in &[Family::Nested, Family::Squeeze, Family::RandomLine] {
        for &m in &ms {
            cells.push((family, m));
        }
    }
    let registry = default_registry();
    let registry = &registry;
    parallel_map(cells, default_threads(), move |&(family, m)| {
        let mut per_alg: Vec<Vec<f64>> = vec![Vec::new(); ALGS.len()];
        let mut bound = "exact";
        for rep in 0..seeds {
            let seed = seed_for(EXP_ID, (family as u64) << 32 | m as u64, rep);
            let inst = instance_for(family, m, seed);
            let opt = admission_opt(&inst, BoundBudget::default());
            bound = kind_label(opt.kind);

            let source = SourceRef::Mem(&inst);
            for (k, spec) in ALGS.iter().enumerate() {
                let alg_seed = seed ^ 0xF00D ^ (k as u64) << 16;
                let report =
                    run_report(registry, spec, source, alg_seed, 1, None).expect("registry run");
                let r = opt.ratio(report.rejected_cost);
                if r.is_finite() {
                    per_alg[k].push(r);
                }
            }
        }
        Cell {
            family,
            m,
            ratios: per_alg.iter().map(|v| Summary::of(v)).collect(),
            bound,
        }
    })
}

/// Render the E7 table.
pub fn table(cells: &[Cell]) -> Table {
    let mut headers: Vec<&str> = vec!["family", "m"];
    headers.extend(ALGS);
    headers.push("opt bound");
    let mut t = Table::new("E7 — paper's algorithm vs baselines", &headers);
    for cell in cells {
        let mut row = vec![cell.family.label().to_string(), cell.m.to_string()];
        for s in &cell.ratios {
            row.push(if s.n == 0 {
                "∞".into()
            } else {
                format!("{:.2}", s.mean)
            });
        }
        row.push(cell.bound.into());
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_runs_all_algorithms() {
        let cells = run(true);
        assert!(!cells.is_empty());
        for cell in &cells {
            assert_eq!(cell.ratios.len(), ALGS.len());
            // Every algorithm produced finite ratios somewhere.
            for (k, s) in cell.ratios.iter().enumerate() {
                assert!(
                    s.n > 0,
                    "{} produced no finite ratios on {:?}",
                    ALGS[k],
                    cell.family
                );
                assert!(s.mean >= 1.0 - 1e-6, "{} ratio below 1", ALGS[k]);
            }
        }
    }

    #[test]
    fn paper_beats_fcfs_on_nested_instances() {
        // On nested intervals the FCFS greedy keeps the wide hogs and
        // pays for everything after; the paper's algorithm preempts.
        let cells = run(true);
        let nested_big: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.family == Family::Nested && c.m >= 32)
            .collect();
        assert!(!nested_big.is_empty());
        for cell in nested_big {
            let paper = cell.ratios[0].mean;
            let greedy = cell.ratios[1].mean;
            assert!(
                paper <= greedy * 1.5 + 1.0,
                "paper {paper} should not lose badly to greedy {greedy}"
            );
        }
    }
}
