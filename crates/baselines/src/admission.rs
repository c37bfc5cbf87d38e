//! Baseline admission-control algorithms.

use acmr_core::{OnlineAdmission, Outcome, Request, RequestId};
use acmr_graph::{LiveSet, LoadTracker};
use rand::Rng;

/// Accept a request iff it currently fits; never preempt.
///
/// The natural non-preemptive greedy: on a single capacity-`c` edge
/// with unit costs it is `(c+1)`-competitive (the flavour of the first
/// BKK algorithm). On general graphs it can be forced into `Ω(m)`.
pub struct GreedyNonPreemptive {
    load: LoadTracker,
}

impl GreedyNonPreemptive {
    /// Baseline over the given capacities.
    pub fn new(capacities: &[u32]) -> Self {
        GreedyNonPreemptive {
            load: LoadTracker::from_capacities(capacities.to_vec()),
        }
    }
}

impl OnlineAdmission for GreedyNonPreemptive {
    fn name(&self) -> &'static str {
        "greedy-nonpreemptive"
    }

    fn on_request(&mut self, _id: RequestId, request: &Request) -> Outcome {
        if self.load.fits(&request.footprint) {
            self.load.admit(&request.footprint);
            Outcome::accept()
        } else {
            Outcome::reject()
        }
    }
}

/// Cancellation-cost ("buyback") admission: preempt only when the
/// newcomer's cost beats the victims' by the theorem's margin.
///
/// Models admission with *paid* cancellation after Ashwinkumar's
/// buyback problem: revoking an admitted request of cost `c` charges
/// an extra `f × c` on top of the lost value. The deterministic rule
/// that is optimally competitive there admits with cancellation iff
///
/// ```text
///     cost(newcomer) > (1 + δ) × Σ cost(victims),
///     δ = f + √(f(1 + f)),
/// ```
///
/// which yields the competitive ratio `1 + 2f + 2√(f(1+f))`. At
/// `f = 0` it is free preemption with the strict-improvement rule
/// `Σ cost(victims) < cost(newcomer)`: the `preempt-cheapest`
/// baseline, built by [`Buyback::preempt_cheapest`]. Victims are
/// [`LiveSet::cheapest_victims`], cheapest-first per saturated edge.
/// The algorithm advertises its factor through
/// [`OnlineAdmission::buyback_factor`], so every [`acmr_core::Session`]
/// driving it bills the charges into `RunReport::buyback_paid`
/// automatically.
pub struct Buyback {
    name: &'static str,
    live: LiveSet,
    /// Scratch for the current arrival's victims.
    victims: Vec<u32>,
    factor: f64,
    delta: f64,
}

impl Buyback {
    /// Buyback admission over the given capacities with cancellation
    /// factor `f ≥ 0` (finite; the caller validates).
    pub fn new(capacities: &[u32], factor: f64) -> Self {
        Buyback {
            name: "buyback",
            live: LiveSet::from_capacities(capacities.to_vec()),
            victims: Vec::new(),
            factor,
            delta: factor + (factor * (1.0 + factor)).sqrt(),
        }
    }

    /// Buyback at `f = 0`, named `preempt-cheapest`: evict the cheapest
    /// conflicting requests whenever their total cost is below the
    /// newcomer's.
    pub fn preempt_cheapest(capacities: &[u32]) -> Self {
        Buyback {
            name: "preempt-cheapest",
            ..Buyback::new(capacities, 0.0)
        }
    }

    /// The preemption margin `δ = f + √(f(1+f))` in effect.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The theorem's competitive-ratio guarantee for factor `f`:
    /// `1 + 2f + 2√(f(1+f))`.
    pub fn guarantee(factor: f64) -> f64 {
        1.0 + 2.0 * factor + 2.0 * (factor * (1.0 + factor)).sqrt()
    }
}

impl OnlineAdmission for Buyback {
    fn name(&self) -> &'static str {
        self.name
    }

    fn buyback_factor(&self) -> f64 {
        self.factor
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        if self.live.tracker().fits(&request.footprint) {
            self.live.insert(id.0, &request.footprint, request.cost);
            return Outcome::accept();
        }
        let victim_cost = self
            .live
            .cheapest_victims(&request.footprint, &mut self.victims);
        // The buyback margin: an upgrade must beat the victims by a
        // (1 + δ) factor to amortize the cancellation charges.
        if request.cost > (1.0 + self.delta) * victim_cost {
            for &v in &self.victims {
                self.live.remove(v);
            }
            self.live.insert(id.0, &request.footprint, request.cost);
            Outcome {
                accepted: true,
                preempted: self.victims.iter().map(|&v| RequestId(v)).collect(),
            }
        } else {
            Outcome::reject()
        }
    }
}

/// Credit-based rejection in the spirit of BKK's `O(√m)` algorithm.
///
/// Non-preemptive. Every time a newcomer is rejected for lack of room,
/// each saturated edge on its footprint earns one credit. A newcomer
/// whose footprint touches an edge with at least `√m` credits is
/// rejected outright (its rejections have been "charged" to that edge),
/// which caps how often a single hot edge can force rejections to
/// spread — the charging idea underlying the `O(√m)` bound.
pub struct CreditSqrtM {
    load: LoadTracker,
    credits: Vec<u64>,
    cutoff: u64,
}

impl CreditSqrtM {
    /// Baseline over the given capacities.
    pub fn new(capacities: &[u32]) -> Self {
        let m = capacities.len();
        CreditSqrtM {
            load: LoadTracker::from_capacities(capacities.to_vec()),
            credits: vec![0; m],
            cutoff: ((m as f64).sqrt().ceil() as u64).max(1),
        }
    }

    /// The `√m` credit cut-off in effect.
    pub fn cutoff(&self) -> u64 {
        self.cutoff
    }
}

impl OnlineAdmission for CreditSqrtM {
    fn name(&self) -> &'static str {
        "credit-sqrt-m"
    }

    fn on_request(&mut self, _id: RequestId, request: &Request) -> Outcome {
        if request
            .footprint
            .iter()
            .any(|e| self.credits[e.index()] >= self.cutoff)
        {
            return Outcome::reject();
        }
        if self.load.fits(&request.footprint) {
            self.load.admit(&request.footprint);
            Outcome::accept()
        } else {
            for e in request.footprint.iter() {
                if self.load.residual(e) == 0 {
                    self.credits[e.index()] += 1;
                }
            }
            Outcome::reject()
        }
    }
}

/// Preempt uniformly random conflicting requests to make room — the
/// control baseline for E7.
pub struct RandomPreempt<R: Rng> {
    live: LiveSet,
    rng: R,
}

impl<R: Rng> RandomPreempt<R> {
    /// Baseline over the given capacities.
    pub fn new(capacities: &[u32], rng: R) -> Self {
        RandomPreempt {
            live: LiveSet::from_capacities(capacities.to_vec()),
            rng,
        }
    }
}

impl<R: Rng> OnlineAdmission for RandomPreempt<R> {
    fn name(&self) -> &'static str {
        "random-preempt"
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        let mut victims: Vec<RequestId> = Vec::new();
        for e in request.footprint.iter() {
            while self.live.tracker().residual(e) == 0 {
                // Random accepted request on e (counting victims already
                // released frees this loop eventually).
                let on_edge = self.live.occupancy(e);
                if on_edge.is_empty() {
                    // Capacity consumed by nothing we can evict (cannot
                    // happen with consistent state) — reject.
                    return Outcome {
                        accepted: false,
                        preempted: victims,
                    };
                }
                let (_, pick) = on_edge[self.rng.gen_range(0..on_edge.len())];
                self.live.remove(pick);
                victims.push(RequestId(pick));
            }
        }
        // One shared rank keeps every edge's occupants in arrival order,
        // the order the seeded draw indexes into.
        self.live.insert(id.0, &request.footprint, 0.0);
        Outcome {
            accepted: true,
            preempted: victims,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_graph::{EdgeId, EdgeSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    fn drive<A: OnlineAdmission>(
        alg: &mut A,
        caps: &[u32],
        arrivals: &[(&[u32], f64)],
    ) -> (Vec<bool>, f64) {
        let mut audit = LoadTracker::from_capacities(caps.to_vec());
        let mut accepted = vec![false; arrivals.len()];
        for (i, (edges, cost)) in arrivals.iter().enumerate() {
            let req = Request::new(fp(edges), *cost);
            let out = alg.on_request(RequestId(i as u32), &req);
            for p in &out.preempted {
                assert!(accepted[p.index()]);
                accepted[p.index()] = false;
                audit.release(&fp(arrivals[p.index()].0));
            }
            if out.accepted {
                accepted[i] = true;
                audit.admit(&req.footprint);
            }
        }
        let cost = arrivals
            .iter()
            .enumerate()
            .filter(|(i, _)| !accepted[*i])
            .map(|(_, (_, c))| *c)
            .sum();
        (accepted, cost)
    }

    #[test]
    fn greedy_accepts_first_come() {
        let caps = [1u32];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0), (&[0], 100.0)];
        let mut alg = GreedyNonPreemptive::new(&caps);
        let (accepted, cost) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[0] && !accepted[1]);
        assert_eq!(cost, 100.0); // pays the expensive rejection
    }

    #[test]
    fn preempt_cheapest_evicts_for_expensive() {
        let caps = [1u32];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0), (&[0], 100.0)];
        let mut alg = Buyback::preempt_cheapest(&caps);
        let (accepted, cost) = drive(&mut alg, &caps, &arrivals);
        assert!(!accepted[0] && accepted[1]);
        assert_eq!(cost, 1.0);
    }

    #[test]
    fn preempt_cheapest_multi_edge_conflict() {
        // Newcomer spans two saturated edges; it must evict one victim
        // per edge (here one request sits on each).
        let caps = [1u32, 1];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 2.0), (&[1], 3.0), (&[0, 1], 100.0)];
        let mut alg = Buyback::preempt_cheapest(&caps);
        let (accepted, cost) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[2]);
        assert_eq!(cost, 5.0);
    }

    #[test]
    fn preempt_cheapest_keeps_cheap_newcomer_out() {
        let caps = [1u32];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 100.0), (&[0], 1.0)];
        let mut alg = Buyback::preempt_cheapest(&caps);
        let (accepted, cost) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[0] && !accepted[1]);
        assert_eq!(cost, 1.0);
    }

    #[test]
    fn buyback_upgrades_only_past_the_margin() {
        // f = 0.5 → δ = 0.5 + √0.75 ≈ 1.366, threshold ≈ 2.366 × victim.
        let caps = [1u32];
        let mut alg = Buyback::new(&caps, 0.5);
        let delta = alg.delta();
        assert!((delta - (0.5 + 0.75_f64.sqrt())).abs() < 1e-12);
        // 2× is below the margin: keep the squatter.
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0), (&[0], 2.0)];
        let (accepted, _) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[0] && !accepted[1]);
        // 3× clears it: upgrade.
        let mut alg = Buyback::new(&caps, 0.5);
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0), (&[0], 3.0)];
        let (accepted, cost) = drive(&mut alg, &caps, &arrivals);
        assert!(!accepted[0] && accepted[1]);
        assert_eq!(cost, 1.0);
    }

    #[test]
    fn buyback_factor_zero_matches_preempt_cheapest_threshold() {
        // δ(0) = 0: any strict improvement upgrades, like
        // preempt-cheapest.
        let caps = [1u32];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0), (&[0], 1.5)];
        let mut alg = Buyback::new(&caps, 0.0);
        assert_eq!(alg.delta(), 0.0);
        let (accepted, _) = drive(&mut alg, &caps, &arrivals);
        assert!(!accepted[0] && accepted[1]);
        assert_eq!(Buyback::guarantee(0.0), 1.0);
        // The registry's preempt-cheapest is this parameterization under
        // its own reported name, billing nothing.
        let mut reg = acmr_core::Registry::new();
        crate::register_baselines(&mut reg);
        let spec = acmr_core::AlgorithmSpec::parse("preempt-cheapest").unwrap();
        let session = acmr_core::Session::from_registry(&reg, &spec, &caps, 0).unwrap();
        assert_eq!(session.algorithm_name(), "preempt-cheapest");
        assert_eq!(session.buyback_factor(), 0.0);
    }

    #[test]
    fn buyback_guarantee_formula() {
        // 1 + 2f + 2√(f(1+f)) at f = 1: 3 + 2√2.
        let g = Buyback::guarantee(1.0);
        assert!((g - (3.0 + 2.0 * 2.0_f64.sqrt())).abs() < 1e-12);
        assert!(Buyback::new(&[1], 1.0).buyback_factor() == 1.0);
    }

    #[test]
    fn buyback_multi_edge_conflict_counts_all_victims() {
        let caps = [1u32, 1];
        // Newcomer spans both saturated edges; victim cost is 5, so it
        // needs > (1+δ)·5 ≈ 11.83 at f = 0.5 — 100 clears easily.
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 2.0), (&[1], 3.0), (&[0, 1], 100.0)];
        let mut alg = Buyback::new(&caps, 0.5);
        let (accepted, cost) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[2]);
        assert_eq!(cost, 5.0);
        // At 10 < 11.83 it must hold back.
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 2.0), (&[1], 3.0), (&[0, 1], 10.0)];
        let mut alg = Buyback::new(&caps, 0.5);
        let (accepted, _) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[0] && accepted[1] && !accepted[2]);
    }

    #[test]
    fn credit_scheme_poisons_hot_edges() {
        let m = 9; // √m = 3
        let caps = vec![1u32; m];
        let mut alg = CreditSqrtM::new(&caps);
        assert_eq!(alg.cutoff(), 3);
        // Fill edge 0, then reject 3 times to charge it.
        let mut arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0); 5];
        // A request over edges {0,1}: edge 0 has ≥3 credits → auto-reject,
        // even though edge 1 is empty.
        arrivals.push((&[0, 1], 1.0));
        let (accepted, _) = drive(&mut alg, &caps, &arrivals);
        assert!(accepted[0]);
        assert!(
            !accepted[5],
            "poisoned edge must reject the spanning request"
        );
    }

    #[test]
    fn random_preempt_is_feasible_and_seeded() {
        let caps = [2u32, 2];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0, 1], 1.0); 10];
        let r1 = {
            let mut alg = RandomPreempt::new(&caps, StdRng::seed_from_u64(5));
            drive(&mut alg, &caps, &arrivals)
        };
        let r2 = {
            let mut alg = RandomPreempt::new(&caps, StdRng::seed_from_u64(5));
            drive(&mut alg, &caps, &arrivals)
        };
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.0.iter().filter(|&&a| a).count(), 2);
    }

    #[test]
    fn all_baselines_accept_when_capacity_suffices() {
        let caps = [4u32, 4];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0, 1], 3.0); 4];
        let (a1, c1) = drive(&mut GreedyNonPreemptive::new(&caps), &caps, &arrivals);
        let (a2, c2) = drive(&mut Buyback::preempt_cheapest(&caps), &caps, &arrivals);
        let (a3, c3) = drive(&mut CreditSqrtM::new(&caps), &caps, &arrivals);
        let (a4, c4) = drive(
            &mut RandomPreempt::new(&caps, StdRng::seed_from_u64(1)),
            &caps,
            &arrivals,
        );
        for a in [a1, a2, a3, a4] {
            assert!(a.iter().all(|&x| x));
        }
        assert_eq!(c1 + c2 + c3 + c4, 0.0);
    }
}
