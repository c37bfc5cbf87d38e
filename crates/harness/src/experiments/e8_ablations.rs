//! **E8 — constant ablations**: the paper fixes constants (`12`, `4`,
//! the doubling trigger, the `4mc²` prune) inside its O(·)s. This
//! experiment sweeps multipliers on each to show the defaults sit in a
//! sane basin: much smaller thresholds over-reject, much larger ones
//! under-round (forcing step-4 rejections).

use crate::experiments::e1_fractional::kind_label;
use crate::experiments::seed_for;
use crate::opt::{admission_opt, BoundBudget};
use crate::parallel::{default_threads, parallel_map};
use crate::registry::default_registry;
use crate::runner::run_report;
use crate::shard::SourceRef;
use crate::stats::Summary;
use crate::table::Table;
use acmr_core::{RandConfig, DEFAULT_ALGORITHM};
use acmr_workloads::{random_path_workload, CostModel, PathWorkloadSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXP_ID: u64 = 8;

/// Which knob a row ablates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// Step-2/3 constants (`threshold_const`, `prob_const` together).
    RoundingConsts,
    /// The α-doubling trigger factor.
    DoublingFactor,
    /// The `4mc²` hot-edge prune on/off.
    Prune,
}

impl Knob {
    fn label(self) -> &'static str {
        match self {
            Knob::RoundingConsts => "rounding-consts",
            Knob::DoublingFactor => "doubling-factor",
            Knob::Prune => "prune-hot-edges",
        }
    }
}

/// One ablation row.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Ablated knob.
    pub knob: Knob,
    /// Multiplier applied (or 0/1 for off/on).
    pub multiplier: f64,
    /// Competitive ratio summary on the fixed workload grid.
    pub ratio: Summary,
    /// Mean preemptions per run.
    pub preemptions: f64,
    /// OPT bound provenance.
    pub bound: &'static str,
}

/// Run the ablations on a fixed medium workload.
pub fn run(quick: bool) -> Vec<Cell> {
    let seeds: u64 = if quick { 3 } else { 12 };
    let mut cells: Vec<(Knob, f64)> = Vec::new();
    for &mult in &[0.25, 1.0, 4.0, 16.0] {
        cells.push((Knob::RoundingConsts, mult));
    }
    for &mult in &[0.25, 1.0, 4.0] {
        cells.push((Knob::DoublingFactor, mult));
    }
    cells.push((Knob::Prune, 0.0));
    cells.push((Knob::Prune, 1.0));
    let registry = default_registry();
    let registry = &registry;
    parallel_map(cells, default_threads(), move |&(knob, mult)| {
        let mut ratios = Vec::new();
        let mut preempt = Vec::new();
        let mut bound = "exact";
        for rep in 0..seeds {
            let seed = seed_for(EXP_ID, (knob as u64) << 32 | (mult * 100.0) as u64, rep);
            let spec = PathWorkloadSpec {
                topology: Topology::Line { m: 64 },
                capacity: 4,
                overload: 2.0,
                costs: CostModel::Uniform { lo: 1.0, hi: 8.0 },
                max_hops: 8,
            };
            let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(seed));
            // The knobs are plain spec parameters now — the ablation IS
            // the registry's tuning surface.
            let base = RandConfig::weighted();
            let alg_spec = match knob {
                Knob::RoundingConsts => format!(
                    "{DEFAULT_ALGORITHM}?threshold={}&prob={}",
                    base.threshold_const * mult,
                    base.prob_const * mult
                ),
                Knob::DoublingFactor => format!(
                    "{DEFAULT_ALGORITHM}?doubling={}",
                    base.frac.doubling_factor * mult
                ),
                Knob::Prune if mult > 0.5 => DEFAULT_ALGORITHM.to_string(),
                Knob::Prune => format!("{DEFAULT_ALGORITHM}?no-prune"),
            };
            let source = SourceRef::Mem(&inst);
            let report = run_report(registry, &alg_spec, source, seed ^ 0xAB1E, 1, None)
                .expect("registry run");
            let opt = admission_opt(&inst, BoundBudget::default());
            bound = kind_label(opt.kind);
            let r = opt.ratio(report.rejected_cost);
            if r.is_finite() {
                ratios.push(r);
            }
            preempt.push(report.preemptions as f64);
        }
        Cell {
            knob,
            multiplier: mult,
            ratio: Summary::of(&ratios),
            preemptions: Summary::of(&preempt).mean,
            bound,
        }
    })
}

/// Render the E8 table.
pub fn table(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "E8 — ablations of the paper's constants (weighted algorithm, 64-edge line, 2× overload)",
        &[
            "knob",
            "multiplier",
            "ratio (mean ± std)",
            "preemptions/run",
            "opt bound",
        ],
    );
    for cell in cells {
        t.push_row(vec![
            cell.knob.label().into(),
            format!("{}", cell.multiplier),
            cell.ratio.mean_pm_std(),
            format!("{:.1}", cell.preemptions),
            cell.bound.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_cover_all_knobs_and_stay_finite() {
        let cells = run(true);
        assert!(cells.iter().any(|c| c.knob == Knob::RoundingConsts));
        assert!(cells.iter().any(|c| c.knob == Knob::DoublingFactor));
        assert!(cells.iter().any(|c| c.knob == Knob::Prune));
        for cell in &cells {
            assert!(cell.ratio.n > 0, "{:?} produced no ratios", cell.knob);
            assert!(cell.ratio.mean >= 1.0 - 1e-6);
            assert!(cell.ratio.mean < 500.0, "{:?} ratio blew up", cell.knob);
        }
    }
}
