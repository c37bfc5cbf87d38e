//! **E18 — arrival models × policy classes**: rejection rate vs OPT
//! across {adversarial, stochastic-iid, mmpp, diurnal, flash-crowd} ×
//! {paper algorithms, worst-case baselines, stochastic policies}.
//!
//! The scenario-diversity experiment: the paper's algorithms defend a
//! worst-case guarantee, the stochastic policies (`lp-resolve`,
//! `lcb-greedy`) exploit distributional structure. The validated shape
//! is the trade-off itself — on stochastic traffic at least one
//! stochastic policy beats every worst-case algorithm on rejection
//! rate, while on adversarial traces the paper algorithms' theorem
//! envelopes still hold.

use crate::experiments::e1_fractional::kind_label;
use crate::experiments::seed_for;
use crate::opt::{admission_opt, BoundBudget};
use crate::parallel::{default_threads, parallel_map};
use crate::registry::default_registry;
use crate::runner::run_report;
use crate::shard::SourceRef;
use crate::stats::Summary;
use crate::table::Table;
use acmr_core::AdmissionInstance;
use acmr_workloads::adversarial::nested_intervals;
use acmr_workloads::stochastic::{stochastic_workload, StochasticSpec, TrafficModel};
use acmr_workloads::{CostModel, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXP_ID: u64 = 18;

/// Arrival-model family for a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Nested-interval adversarial instance (the paper's home turf).
    Adversarial,
    /// Constant-rate i.i.d. stochastic traffic.
    StochasticIid,
    /// Markov-modulated demand.
    Mmpp,
    /// Diurnal (sinusoidal) cycle.
    Diurnal,
    /// Flash crowds.
    FlashCrowd,
}

impl Family {
    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Family::Adversarial => "adversarial",
            Family::StochasticIid => "stochastic-iid",
            Family::Mmpp => "mmpp",
            Family::Diurnal => "diurnal",
            Family::FlashCrowd => "flash-crowd",
        }
    }

    /// True for the stochastic arrival models.
    pub fn is_stochastic(self) -> bool {
        !matches!(self, Family::Adversarial)
    }

    /// All five families.
    pub const ALL: [Family; 5] = [
        Family::Adversarial,
        Family::StochasticIid,
        Family::Mmpp,
        Family::Diurnal,
        Family::FlashCrowd,
    ];
}

/// The stochastic policies under test (beyond the registry defaults,
/// one explicitly tuned variant each).
pub const NEW_POLICIES: [&str; 2] = ["lp-resolve", "lcb-greedy"];

/// Column order: every registered algorithm under its default spec,
/// plus tuned variants of the stochastic policies.
pub fn algorithm_specs() -> Vec<String> {
    let reg = default_registry();
    let mut specs: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
    specs.push("lp-resolve?period=32&buffer=0.02".into());
    specs.push("lcb-greedy?delta=0.2".into());
    specs
}

/// True iff `spec` names one of the stochastic policies.
pub fn is_new_policy(spec: &str) -> bool {
    NEW_POLICIES
        .iter()
        .any(|p| spec == *p || spec.starts_with(&format!("{p}?")))
}

/// One cell: every algorithm on one arrival model.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Arrival model.
    pub family: Family,
    /// Mean rejection rate (rejected cost / offered cost) per
    /// algorithm, in [`algorithm_specs`] order.
    pub rejection: Vec<Summary>,
    /// Ratio vs the OPT bound per algorithm, same order.
    pub ratios: Vec<Summary>,
    /// OPT bound provenance.
    pub bound: &'static str,
}

fn stochastic_model(family: Family) -> TrafficModel {
    match family {
        Family::StochasticIid => TrafficModel::Iid,
        Family::Mmpp => TrafficModel::mmpp_default(),
        Family::Diurnal => TrafficModel::Diurnal {
            period: 64,
            amplitude: 0.8,
        },
        Family::FlashCrowd => TrafficModel::Flash {
            period: 64,
            width: 8,
            boost: 6.0,
        },
        Family::Adversarial => unreachable!("adversarial has no traffic model"),
    }
}

/// The instance behind one `(family, rep)` point.
pub fn instance_for(
    family: Family,
    m: u32,
    cap: u32,
    duration: u32,
    seed: u64,
) -> AdmissionInstance {
    match family {
        Family::Adversarial => nested_intervals(m, 2, 1.max(m / 16), 3),
        _ => {
            let spec = StochasticSpec {
                topology: Topology::Line { m },
                capacity: cap,
                model: stochastic_model(family),
                // ~2× overload: sessions/slot × requests/session (~1.35)
                // × edges/request (~4 under width_alpha 1.1) × duration
                // ≈ 2 · m · cap.
                arrival_rate: 2.0 * (m as f64) * (cap as f64) / (duration as f64 * 1.35 * 4.0),
                duration,
                // Heavy-tailed costs and widths: the value-density
                // spread the stochastic policies are built to exploit.
                costs: CostModel::Zipf {
                    n_values: 64,
                    s: 1.1,
                },
                max_hops: 24,
                session_alpha: 2.2,
                session_max: 8,
                width_alpha: 1.05,
            };
            stochastic_workload(&spec, &mut StdRng::seed_from_u64(seed)).1
        }
    }
}

/// Run the grid.
pub fn run(quick: bool) -> Vec<Cell> {
    let (m, cap, duration, reps) = if quick {
        (96, 6, 256, 3)
    } else {
        (128, 8, 512, 8)
    };
    let specs = algorithm_specs();
    let registry = default_registry();
    let registry = &registry;
    let specs_ref = &specs;
    parallel_map(Family::ALL.to_vec(), default_threads(), move |&family| {
        let mut rej: Vec<Vec<f64>> = vec![Vec::new(); specs_ref.len()];
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); specs_ref.len()];
        let mut bound = "exact";
        for rep in 0..reps {
            let seed = seed_for(EXP_ID, family as u64, rep);
            let inst = instance_for(family, m, cap, duration, seed);
            let opt = admission_opt(&inst, BoundBudget::default());
            bound = kind_label(opt.kind);
            let source = SourceRef::Mem(&inst);
            for (k, spec) in specs_ref.iter().enumerate() {
                let alg_seed = seed ^ 0xE18 ^ (k as u64) << 16;
                let report =
                    run_report(registry, spec, source, alg_seed, 1, None).expect("registry run");
                if report.offered_cost > 0.0 {
                    rej[k].push(report.rejected_cost / report.offered_cost);
                }
                let r = opt.ratio(report.rejected_cost);
                if r.is_finite() {
                    ratios[k].push(r);
                }
            }
        }
        Cell {
            family,
            rejection: rej.iter().map(|v| Summary::of(v)).collect(),
            ratios: ratios.iter().map(|v| Summary::of(v)).collect(),
            bound,
        }
    })
}

/// Mean rejection rate of algorithm column `k` across the stochastic
/// families of `cells`.
pub fn stochastic_mean_rejection(cells: &[Cell], k: usize) -> f64 {
    let picked: Vec<f64> = cells
        .iter()
        .filter(|c| c.family.is_stochastic())
        .map(|c| c.rejection[k].mean)
        .collect();
    picked.iter().sum::<f64>() / picked.len().max(1) as f64
}

/// Render the E18 table.
pub fn table(cells: &[Cell]) -> Table {
    let specs = algorithm_specs();
    let mut headers: Vec<&str> = vec!["family"];
    headers.extend(specs.iter().map(|s| s.as_str()));
    headers.push("opt bound");
    let mut t = Table::new(
        "E18 — rejection rate: arrival models × policy classes",
        &headers,
    );
    for cell in cells {
        let mut row = vec![cell.family.label().to_string()];
        for s in &cell.rejection {
            row.push(if s.n == 0 {
                "—".into()
            } else {
                format!("{:.3}", s.mean)
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
    fn quick_grid_covers_every_family_and_algorithm() {
        let cells = run(true);
        let specs = algorithm_specs();
        assert_eq!(cells.len(), Family::ALL.len());
        // All 8 registered algorithms plus the tuned variants ran over
        // ≥ 4 stochastic arrival models.
        assert!(specs.len() >= 10);
        assert!(cells.iter().filter(|c| c.family.is_stochastic()).count() >= 4);
        for cell in &cells {
            assert_eq!(cell.rejection.len(), specs.len());
            for (k, s) in cell.rejection.iter().enumerate() {
                assert!(s.n > 0, "{} empty on {:?}", specs[k], cell.family);
                assert!(
                    (0.0..=1.0).contains(&s.mean),
                    "{} rejection rate {} out of range",
                    specs[k],
                    s.mean
                );
            }
        }
    }

    #[test]
    fn a_stochastic_policy_beats_every_worst_case_algorithm_on_stochastic_traffic() {
        let cells = run(true);
        let specs = algorithm_specs();
        let best_new = specs
            .iter()
            .enumerate()
            .filter(|(_, s)| is_new_policy(s))
            .map(|(k, _)| stochastic_mean_rejection(&cells, k))
            .fold(f64::INFINITY, f64::min);
        for (k, spec) in specs.iter().enumerate() {
            if is_new_policy(spec) {
                continue;
            }
            let old = stochastic_mean_rejection(&cells, k);
            assert!(
                best_new < old,
                "stochastic policy (rate {best_new:.4}) must beat {spec} (rate {old:.4}) \
                 on stochastic traffic"
            );
        }
    }

    #[test]
    #[ignore = "debug dump"]
    fn dump_table() {
        let cells = run(true);
        println!("{}", table(&cells).to_markdown());
        let specs = algorithm_specs();
        for (k, s) in specs.iter().enumerate() {
            println!(
                "{s}: stochastic mean {:.4}",
                stochastic_mean_rejection(&cells, k)
            );
        }
    }

    #[test]
    fn paper_envelopes_hold_on_adversarial_traces() {
        let cells = run(true);
        let specs = algorithm_specs();
        let adv = cells
            .iter()
            .find(|c| c.family == Family::Adversarial)
            .expect("adversarial row");
        // Theorem envelope on the quick grid: m=48, c=2.
        let envelope = 30.0 * (48.0f64 * 2.0).ln().powi(2);
        for (k, spec) in specs.iter().enumerate() {
            if spec.starts_with("aag-") {
                assert!(
                    adv.ratios[k].n > 0,
                    "{spec} produced no finite adversarial ratios"
                );
                assert!(
                    adv.ratios[k].mean <= envelope,
                    "{spec} adversarial ratio {} above envelope {envelope}",
                    adv.ratios[k].mean
                );
            }
        }
    }
}
