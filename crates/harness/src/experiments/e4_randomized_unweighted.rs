//! **E4 — Theorem 4**: the unweighted randomized algorithm is
//! `O(log m · log c)`-competitive.
//!
//! Two one-dimensional sweeps separate the factors: `m` grows at fixed
//! `c`, and `c` grows at fixed `m`. The validated shape:
//! `ratio / (ln m · ln c)` bounded along both axes.

use crate::experiments::e1_fractional::kind_label;
use crate::experiments::seed_for;
use crate::opt::{admission_opt, BoundBudget};
use crate::parallel::{default_threads, parallel_map};
use crate::registry::default_registry;
use crate::runner::run_report;
use crate::shard::SourceRef;
use crate::stats::Summary;
use crate::table::Table;
use acmr_workloads::{random_path_workload, CostModel, PathWorkloadSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXP_ID: u64 = 4;

/// Which parameter the row sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `m` varies, `c` fixed.
    M,
    /// `c` varies, `m` fixed.
    C,
}

/// One sweep cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Sweep axis.
    pub axis: Axis,
    /// Edge count.
    pub m: u32,
    /// Capacity.
    pub c: u32,
    /// Ratio summary.
    pub ratio: Summary,
    /// `ratio.mean / (ln m · ln c)`.
    pub normalized: f64,
    /// OPT bound provenance.
    pub bound: &'static str,
}

/// Run both axes.
pub fn run(quick: bool) -> Vec<Cell> {
    let (m_axis, c_axis, reps): (Vec<u32>, Vec<u32>, u64) = if quick {
        (vec![16, 64], vec![2, 8], 4)
    } else {
        (vec![16, 64, 256, 1024], vec![2, 8, 32, 128], 16)
    };
    let fixed_c = 4u32;
    let fixed_m = 64u32;
    let mut cells: Vec<(Axis, u32, u32)> = Vec::new();
    for &m in &m_axis {
        cells.push((Axis::M, m, fixed_c));
    }
    for &c in &c_axis {
        cells.push((Axis::C, fixed_m, c));
    }
    let registry = default_registry();
    let registry = &registry;
    parallel_map(cells, default_threads(), move |&(axis, m, c)| {
        let mut ratios = Vec::new();
        let mut bound = "exact";
        for rep in 0..reps {
            let cell_id = (axis == Axis::C) as u64 | (m as u64) << 32 | (c as u64) << 8;
            let seed = seed_for(EXP_ID, cell_id, rep);
            let spec = PathWorkloadSpec {
                topology: Topology::Line { m },
                capacity: c,
                overload: 2.0,
                costs: CostModel::Unit,
                max_hops: 8,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, inst) = random_path_workload(&spec, &mut rng);
            let source = SourceRef::Mem(&inst);
            let alg_seed = seed ^ 0xBEEF_CAFE;
            let report = run_report(registry, "aag-unweighted", source, alg_seed, 1, None)
                .expect("registry run");
            let opt = admission_opt(&inst, BoundBudget::default());
            bound = kind_label(opt.kind);
            let ratio = opt.ratio(report.rejected_cost);
            if ratio.is_finite() {
                ratios.push(ratio);
            }
        }
        let ratio = Summary::of(&ratios);
        let log_product = (m as f64).ln().max(1.0) * (c as f64).ln().max(1.0);
        Cell {
            axis,
            m,
            c,
            normalized: ratio.mean / log_product,
            ratio,
            bound,
        }
    })
}

/// Render the E4 table.
pub fn table(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "E4 — unweighted randomized competitiveness vs O(log m · log c) (Theorem 4)",
        &[
            "axis",
            "m",
            "c",
            "ratio (mean ± std)",
            "ratio/(ln m·ln c)",
            "opt bound",
        ],
    );
    for cell in cells {
        t.push_row(vec![
            match cell.axis {
                Axis::M => "m↑".into(),
                Axis::C => "c↑".into(),
            },
            cell.m.to_string(),
            cell.c.to_string(),
            cell.ratio.mean_pm_std(),
            format!("{:.4}", cell.normalized),
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
        assert!(cells.iter().any(|c| c.axis == Axis::M));
        assert!(cells.iter().any(|c| c.axis == Axis::C));
        for cell in &cells {
            let bound = 20.0 * (cell.m as f64).ln().max(1.0) * (cell.c as f64).ln().max(1.0);
            assert!(
                cell.ratio.mean <= bound,
                "{:?} m={} c={}: ratio {} > {}",
                cell.axis,
                cell.m,
                cell.c,
                cell.ratio.mean,
                bound
            );
        }
    }
}
