//! Baseline set-cover algorithms: the naive online rule and the
//! classic offline greedy (the paper's `Θ(log n)` offline benchmark,
//! Chvátal \[12\]).

use acmr_core::setcover::{OnlineSetCover, SetId, SetSystem};

/// Naive online multicover: on each arrival of `j`, if coverage is
/// short, buy the cheapest unbought set containing `j`.
///
/// Simple, exact on coverage, but its cost can be `Ω(min(m, n))` times
/// optimal (it never exploits overlap between elements) — the natural
/// strawman for E5/E7.
pub struct NaiveOnlineCover {
    system: SetSystem,
    bought: Vec<bool>,
    bought_order: Vec<SetId>,
    arrivals: Vec<u32>,
}

impl NaiveOnlineCover {
    /// Baseline over `system`.
    pub fn new(system: SetSystem) -> Self {
        NaiveOnlineCover {
            bought: vec![false; system.num_sets()],
            bought_order: Vec::new(),
            arrivals: vec![0; system.num_elements()],
            system,
        }
    }

    /// Sets bought so far, in purchase order.
    pub fn bought(&self) -> &[SetId] {
        &self.bought_order
    }

    /// Total cost of bought sets.
    pub fn total_cost(&self) -> f64 {
        self.system.total_cost(&self.bought_order)
    }

    /// Current coverage of an element.
    pub fn coverage(&self, element: u32) -> usize {
        self.system
            .sets_containing(element)
            .iter()
            .filter(|s| self.bought[s.index()])
            .count()
    }
}

impl OnlineSetCover for NaiveOnlineCover {
    fn name(&self) -> &'static str {
        "naive-online"
    }

    fn on_arrival(&mut self, element: u32) -> Vec<SetId> {
        self.arrivals[element as usize] += 1;
        let k = self.arrivals[element as usize] as usize;
        assert!(
            k <= self.system.degree(element),
            "element {element} arrived more times than its degree"
        );
        let mut new = Vec::new();
        while self.coverage(element) < k {
            let cheapest = self
                .system
                .sets_containing(element)
                .iter()
                .filter(|s| !self.bought[s.index()])
                .copied()
                .min_by(|a, b| self.system.cost(*a).total_cmp(&self.system.cost(*b)))
                .expect("degree bound guarantees an unbought set");
            self.bought[cheapest.index()] = true;
            self.bought_order.push(cheapest);
            new.push(cheapest);
        }
        new
    }
}

/// Offline greedy multicover (Chvátal): repeatedly buy the set with
/// the best cost per unit of residual demand. `H_n`-approximate;
/// used as the large-instance OPT proxy.
///
/// `demands[j]` is how many distinct sets must cover element `j`.
/// Returns the bought sets, or `None` if `demands[j] > deg(j)` for
/// some element.
pub fn offline_greedy_multicover(system: &SetSystem, demands: &[u32]) -> Option<Vec<SetId>> {
    assert_eq!(demands.len(), system.num_elements());
    for (j, &d) in demands.iter().enumerate() {
        if d as usize > system.degree(j as u32) {
            return None;
        }
    }
    let mut residual: Vec<u32> = demands.to_vec();
    let mut open: u64 = residual.iter().map(|&d| d as u64).sum();
    let mut bought = vec![false; system.num_sets()];
    let mut order = Vec::new();
    while open > 0 {
        let mut best: Option<(SetId, f64)> = None;
        for (i, &already) in bought.iter().enumerate() {
            if already {
                continue;
            }
            let s = SetId(i as u32);
            let coverage = system
                .elements_of(s)
                .iter()
                .filter(|&&j| residual[j as usize] > 0)
                .count() as f64;
            if coverage == 0.0 {
                continue;
            }
            let density = system.cost(s) / coverage;
            if best.is_none() || density < best.unwrap().1 {
                best = Some((s, density));
            }
        }
        let (s, _) = best.expect("feasible demands always leave a helpful set");
        bought[s.index()] = true;
        order.push(s);
        for &j in system.elements_of(s) {
            if residual[j as usize] > 0 {
                residual[j as usize] -= 1;
                open -= 1;
            }
        }
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SetSystem {
        SetSystem::new(
            3,
            vec![vec![0], vec![1], vec![2], vec![0, 1, 2]],
            vec![1.0, 1.0, 1.0, 1.5],
        )
    }

    #[test]
    fn naive_buys_cheapest_per_element() {
        let mut alg = NaiveOnlineCover::new(sys());
        alg.on_arrival(0);
        // Cheapest set containing 0 is set 0 (cost 1 < 1.5).
        assert_eq!(alg.bought(), &[SetId(0)]);
        alg.on_arrival(1);
        alg.on_arrival(2);
        assert_eq!(alg.total_cost(), 3.0); // vs OPT 1.5 — the strawman gap
    }

    #[test]
    fn naive_handles_repetitions() {
        let mut alg = NaiveOnlineCover::new(sys());
        alg.on_arrival(0);
        alg.on_arrival(0); // needs a second distinct set: the big one
        assert_eq!(alg.coverage(0), 2);
        assert_eq!(alg.total_cost(), 2.5);
    }

    #[test]
    #[should_panic(expected = "more times than its degree")]
    fn naive_rejects_uncoverable() {
        let mut alg = NaiveOnlineCover::new(sys());
        alg.on_arrival(0);
        alg.on_arrival(0);
        alg.on_arrival(0); // deg(0) = 2
    }

    #[test]
    fn offline_greedy_prefers_dense_sets() {
        let order = offline_greedy_multicover(&sys(), &[1, 1, 1]).unwrap();
        assert_eq!(order, vec![SetId(3)]); // density 0.5 beats 1.0
    }

    #[test]
    fn offline_greedy_multicover_demands() {
        let order = offline_greedy_multicover(&sys(), &[2, 0, 0]).unwrap();
        assert_eq!(order.len(), 2); // both sets containing element 0
    }

    #[test]
    fn offline_greedy_infeasible_none() {
        assert!(offline_greedy_multicover(&sys(), &[3, 0, 0]).is_none());
    }

    #[test]
    fn offline_greedy_zero_demand_empty() {
        let order = offline_greedy_multicover(&sys(), &[0, 0, 0]).unwrap();
        assert!(order.is_empty());
    }
}
