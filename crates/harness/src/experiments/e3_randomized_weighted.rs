//! **E3 — Theorem 3**: the randomized integral algorithm is
//! `O(log²(mc))`-competitive for arbitrary costs.
//!
//! Sweep `(m, c)` with Zipf-distributed costs on line workloads at 2×
//! overload, 16+ seeds per cell; the validated shape is that
//! `ratio / ln²(mc)` stays bounded as both parameters grow.

use crate::experiments::e1_fractional::kind_label;
use crate::experiments::seed_for;
use crate::opt::{admission_opt, BoundBudget};
use crate::parallel::{default_threads, parallel_map};
use crate::registry::default_registry;
use crate::runner::run_report;
use crate::shard::SourceRef;
use crate::stats::Summary;
use crate::table::Table;
use acmr_core::DEFAULT_ALGORITHM;
use acmr_workloads::{random_path_workload, CostModel, PathWorkloadSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXP_ID: u64 = 3;

/// One sweep cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Edge count.
    pub m: u32,
    /// Uniform capacity.
    pub c: u32,
    /// Competitive ratio summary across seeds.
    pub ratio: Summary,
    /// `ratio.mean / ln²(mc)`.
    pub normalized: f64,
    /// OPT bound provenance.
    pub bound: &'static str,
}

/// Run the sweep.
pub fn run(quick: bool) -> Vec<Cell> {
    let (ms, cs, reps): (Vec<u32>, Vec<u32>, u64) = if quick {
        (vec![16, 64], vec![2, 8], 4)
    } else {
        (vec![16, 64, 256], vec![2, 8, 32], 16)
    };
    let mut cells = Vec::new();
    for &m in &ms {
        for &c in &cs {
            cells.push((m, c));
        }
    }
    let registry = default_registry();
    let registry = &registry;
    parallel_map(cells, default_threads(), move |&(m, c)| {
        let mut ratios = Vec::new();
        let mut bound = "exact";
        for rep in 0..reps {
            let seed = seed_for(EXP_ID, (m as u64) << 32 | c as u64, rep);
            let spec = PathWorkloadSpec {
                topology: Topology::Line { m },
                capacity: c,
                overload: 2.0,
                costs: CostModel::Zipf {
                    n_values: 64,
                    s: 1.1,
                },
                max_hops: 8,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, inst) = random_path_workload(&spec, &mut rng);
            let source = SourceRef::Mem(&inst);
            let alg_seed = seed ^ 0xDEAD_BEEF;
            let report = run_report(registry, DEFAULT_ALGORITHM, source, alg_seed, 1, None)
                .expect("registry run");
            let opt = admission_opt(&inst, BoundBudget::default());
            bound = kind_label(opt.kind);
            let ratio = opt.ratio(report.rejected_cost);
            if ratio.is_finite() {
                ratios.push(ratio);
            }
        }
        let ratio = Summary::of(&ratios);
        let log2 = (m as f64 * c as f64).ln().max(1.0).powi(2);
        Cell {
            m,
            c,
            normalized: ratio.mean / log2,
            ratio,
            bound,
        }
    })
}

/// Render the E3 table.
pub fn table(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "E3 — randomized weighted competitiveness vs O(log²(mc)) (Theorem 3)",
        &[
            "m",
            "c",
            "ratio (mean ± std)",
            "ratio / ln²(mc)",
            "ln²(mc)",
            "opt bound",
        ],
    );
    for cell in cells {
        let log2 = (cell.m as f64 * cell.c as f64).ln().max(1.0).powi(2);
        t.push_row(vec![
            cell.m.to_string(),
            cell.c.to_string(),
            cell.ratio.mean_pm_std(),
            format!("{:.4}", cell.normalized),
            format!("{log2:.1}"),
            cell.bound.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_within_theorem_envelope() {
        let cells = run(true);
        for cell in &cells {
            assert!(cell.ratio.n > 0);
            let log2 = (cell.m as f64 * cell.c as f64).ln().max(1.0).powi(2);
            // Generous constant: the theorem allows K·log²; we check the
            // measured constant is modest.
            assert!(
                cell.ratio.mean <= 20.0 * log2,
                "m={} c={}: ratio {} vs log² {}",
                cell.m,
                cell.c,
                cell.ratio.mean,
                log2
            );
        }
    }
}
