//! Offline-optimum bounds for competitive ratios.
//!
//! Both of the paper's problems reduce to the 0/1 multicovering program
//! of `acmr-lp`:
//!
//! * **Admission control**: reject a min-cost request set such that
//!   every edge `e` sheds `|REQ_e| − c_e` requests
//!   ([`admission_covering_problem`]).
//! * **Set multicover**: buy min-cost sets so element `j` is covered
//!   `k_j` times ([`multicover_problem`]).
//!
//! [`OptBound::compute`] then produces the tightest bound the size
//! budget allows: exact (proven B&B), otherwise the LP relaxation lower
//! bound, otherwise `greedy/H`. The kind is carried along so tables can
//! disclose what each ratio was measured against.

use acmr_core::setcover::SetSystem;
use acmr_core::AdmissionInstance;
use acmr_lp::{branch_and_bound, BnbLimits, CoveringProblem};

/// How an OPT figure was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptBoundKind {
    /// Branch-and-bound proved integral optimality: the exact OPT.
    Exact,
    /// LP relaxation: a valid lower bound on OPT (ratios conservative).
    LpLowerBound,
    /// `greedy_cost / H`: since greedy is `H`-approximate
    /// (`H = ln(Σ demands) + 1`), `OPT ≥ greedy/H` — the scalable
    /// lower bound for cells too large for the LP.
    ///
    /// Its cost is one lazy density greedy
    /// ([`acmr_lp::greedy_cover`]), `O((items + nnz) · log items)` for
    /// `nnz` request/edge memberships: 5–7 ms for a 25k-arrival line
    /// trace and 60–75 ms for 200k arrivals (the `scaling` bench,
    /// 2-core host), where a rescan per pick took seconds to minutes.
    GreedyOverH,
    /// Trivial combinatorial lower bound (max excess `Q`); last resort.
    Trivial,
}

impl OptBoundKind {
    /// Stable provenance label used in tables and [`RunReport`]s.
    ///
    /// [`RunReport`]: acmr_core::RunReport
    pub fn label(self) -> &'static str {
        match self {
            OptBoundKind::Exact => "exact",
            OptBoundKind::LpLowerBound => "lp-lower-bound",
            OptBoundKind::GreedyOverH => "greedy-over-H",
            OptBoundKind::Trivial => "trivial(Q)",
        }
    }
}

/// Size budgets controlling which bound is attempted.
#[derive(Clone, Copy, Debug)]
pub struct BoundBudget {
    /// Max items for exact branch-and-bound.
    pub max_exact_items: usize,
    /// B&B node budget.
    pub exact_nodes: usize,
    /// Max items for the LP relaxation (dense simplex).
    pub max_lp_items: usize,
}

impl Default for BoundBudget {
    fn default() -> Self {
        BoundBudget {
            max_exact_items: 60,
            exact_nodes: 20_000,
            max_lp_items: 400,
        }
    }
}

/// An OPT value with its provenance.
#[derive(Clone, Copy, Debug)]
pub struct OptBound {
    /// The bound value (a lower bound on, or exactly, OPT).
    pub value: f64,
    /// Provenance.
    pub kind: OptBoundKind,
}

impl OptBound {
    /// Compute the best affordable bound for a covering problem:
    /// exact B&B when small enough, the LP relaxation next, then the
    /// scalable `greedy/H` bound, with `trivial` as the floor.
    pub fn compute(problem: &CoveringProblem, budget: BoundBudget, trivial: f64) -> OptBound {
        if problem.rows.iter().all(|r| r.demand == 0) {
            return OptBound {
                value: 0.0,
                kind: OptBoundKind::Exact,
            };
        }
        if problem.num_items() <= budget.max_exact_items {
            if let Some(res) = branch_and_bound(
                problem,
                BnbLimits {
                    max_nodes: budget.exact_nodes,
                },
            ) {
                if res.proven_optimal {
                    return OptBound {
                        value: res.cost,
                        kind: OptBoundKind::Exact,
                    };
                }
            }
        }
        if problem.num_items() <= budget.max_lp_items {
            if let Ok(lb) = problem.lp_lower_bound() {
                return OptBound {
                    value: lb.max(trivial),
                    kind: OptBoundKind::LpLowerBound,
                };
            }
        }
        if let Some(g) = acmr_lp::greedy_cover(problem) {
            let total_demand: f64 = problem.rows.iter().map(|r| r.demand as f64).sum();
            let h = total_demand.max(1.0).ln() + 1.0;
            let lb = g.cost / h;
            if lb > trivial {
                return OptBound {
                    value: lb,
                    kind: OptBoundKind::GreedyOverH,
                };
            }
        }
        OptBound {
            value: trivial,
            kind: OptBoundKind::Trivial,
        }
    }

    /// `online / max(value, floor)` — the conservative competitive
    /// ratio, guarding the degenerate OPT = 0 case: if OPT is 0 and the
    /// online cost is 0 the ratio is 1; if OPT is 0 and online paid,
    /// the ratio is infinite.
    pub fn ratio(&self, online_cost: f64) -> f64 {
        if self.value <= 1e-12 {
            if online_cost <= 1e-12 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            online_cost / self.value
        }
    }
}

/// The rejection covering program of an admission instance: items are
/// requests, one row per over-subscribed edge with demand
/// `|REQ_e| − c_e`.
pub fn admission_covering_problem(inst: &AdmissionInstance) -> CoveringProblem {
    let m = inst.capacities.len();
    let mut on_edge: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (i, r) in inst.requests.iter().enumerate() {
        for e in r.footprint.iter() {
            on_edge[e.index()].push(i);
        }
    }
    let mut p = CoveringProblem::new(inst.requests.iter().map(|r| r.cost).collect());
    for (e, reqs) in on_edge.into_iter().enumerate() {
        let cap = inst.capacities[e] as usize;
        if reqs.len() > cap {
            let demand = (reqs.len() - cap) as u32;
            p.push_row(reqs, demand);
        }
    }
    p
}

/// The multicover program of a set-cover instance: items are sets, one
/// row per element with demand = its arrival count.
pub fn multicover_problem(system: &SetSystem, arrivals: &[u32]) -> CoveringProblem {
    let mut demand = vec![0u32; system.num_elements()];
    for &j in arrivals {
        demand[j as usize] += 1;
    }
    let mut p = CoveringProblem::new(
        (0..system.num_sets())
            .map(|i| system.cost(acmr_core::setcover::SetId(i as u32)))
            .collect(),
    );
    for (j, &d) in demand.iter().enumerate() {
        if d > 0 {
            let items: Vec<usize> = system
                .sets_containing(j as u32)
                .iter()
                .map(|s| s.index())
                .collect();
            p.push_row(items, d);
        }
    }
    p
}

/// Convenience: the best bound for an admission instance. The trivial
/// floor is the cheapest way to shed `Q = max_e(|REQ_e| − c_e)`
/// requests (unweighted: exactly `Q`; weighted: `Q` times the cheapest
/// request cost).
pub fn admission_opt(inst: &AdmissionInstance, budget: BoundBudget) -> OptBound {
    let problem = admission_covering_problem(inst);
    let q = inst.max_excess() as f64;
    let cheapest = inst
        .requests
        .iter()
        .map(|r| r.cost)
        .fold(f64::INFINITY, f64::min);
    // OPT must reject at least Q requests, each costing ≥ the cheapest.
    let trivial = if cheapest.is_finite() {
        q * cheapest
    } else {
        0.0
    };
    OptBound::compute(&problem, budget, trivial)
}

/// Convenience: the best bound for a set-cover instance; the trivial
/// fallback is the largest single-element demand (OPT must buy at
/// least that many sets, each costing ≥ the cheapest set).
pub fn setcover_opt(system: &SetSystem, arrivals: &[u32], budget: BoundBudget) -> OptBound {
    let problem = multicover_problem(system, arrivals);
    let mut demand = vec![0u32; system.num_elements()];
    for &j in arrivals {
        demand[j as usize] += 1;
    }
    let cheapest = (0..system.num_sets())
        .map(|i| system.cost(acmr_core::setcover::SetId(i as u32)))
        .fold(f64::INFINITY, f64::min);
    let trivial = demand.iter().copied().max().unwrap_or(0) as f64 * cheapest.max(0.0);
    OptBound::compute(&problem, budget, trivial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_core::Request;
    use acmr_graph::{EdgeId, EdgeSet};

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn admission_opt_exact_on_hot_edge() {
        // 5 unit requests, capacity 2 ⇒ OPT rejects 3.
        let mut inst = AdmissionInstance::from_capacities(vec![2]);
        for _ in 0..5 {
            inst.push(Request::unit(fp(&[0])));
        }
        let b = admission_opt(&inst, BoundBudget::default());
        assert_eq!(b.kind, OptBoundKind::Exact);
        assert!((b.value - 3.0).abs() < 1e-9);
        assert!((b.ratio(6.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn admission_opt_weighted_picks_cheap() {
        // Capacity 1, costs 10 and 1 ⇒ OPT rejects the 1.
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        inst.push(Request::new(fp(&[0]), 10.0));
        inst.push(Request::new(fp(&[0]), 1.0));
        let b = admission_opt(&inst, BoundBudget::default());
        assert_eq!(b.kind, OptBoundKind::Exact);
        assert!((b.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_excess_is_zero_opt() {
        let mut inst = AdmissionInstance::from_capacities(vec![3]);
        inst.push(Request::unit(fp(&[0])));
        let b = admission_opt(&inst, BoundBudget::default());
        assert_eq!(b.value, 0.0);
        assert_eq!(b.ratio(0.0), 1.0);
        assert!(b.ratio(1.0).is_infinite());
    }

    #[test]
    fn lp_bound_used_beyond_exact_budget() {
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        for _ in 0..10 {
            inst.push(Request::unit(fp(&[0])));
        }
        let b = admission_opt(
            &inst,
            BoundBudget {
                max_exact_items: 4,
                ..Default::default()
            },
        ); // too many items for exact
        assert_eq!(b.kind, OptBoundKind::LpLowerBound);
        assert!((b.value - 9.0).abs() < 1e-6); // LP is tight here
    }

    #[test]
    fn setcover_opt_on_partition_gap() {
        // Universal set: OPT = 1 for one round.
        let system = SetSystem::unit(
            4,
            vec![vec![0], vec![1], vec![2], vec![3], vec![0, 1, 2, 3]],
        );
        let b = setcover_opt(&system, &[0, 1, 2, 3], BoundBudget::default());
        assert_eq!(b.kind, OptBoundKind::Exact);
        assert!((b.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multicover_demands_accumulate() {
        let system = SetSystem::unit(2, vec![vec![0], vec![0], vec![0, 1]]);
        let p = multicover_problem(&system, &[0, 0, 1]);
        assert_eq!(p.rows.len(), 2);
        let b = setcover_opt(&system, &[0, 0, 1], BoundBudget::default());
        // Element 0 twice ⇒ two sets containing 0; element 1 once ⇒ the
        // third set also needed if not already: {0,1} + one of {0} = 2.
        assert!((b.value - 2.0).abs() < 1e-9);
    }
}
