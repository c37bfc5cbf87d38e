//! The paper's §3 **randomized** integral algorithm.
//!
//! Runs the §2 fractional engine underneath and rounds online:
//!
//! 1. perform the fractional weight augmentations for the arrival;
//! 2. reject every request whose weight reached `1/(K_t·L)`
//!    (`K_t = 12`, `L = ln(mc)` weighted; `K_t = 4`, `L = ln m`
//!    unweighted);
//! 3. for every request whose weight rose by `δ` this arrival, reject
//!    it with probability `K_p·δ·L`;
//! 4. if the arriving request still does not fit within the remaining
//!    capacity, reject it; otherwise accept.
//!
//! Theorem 3: `O(log²(mc))`-competitive for arbitrary costs.
//! Theorem 4: `O(log m · log c)`-competitive for unit costs.
//!
//! §3 also prunes pathological edges: once an edge has seen `≥ 4mc²`
//! requests, rejecting everything through it is 2-competitive on those
//! requests; [`RandConfig::prune_hot_edges`] enables that safeguard.
//!
//! Two small implementation clarifications (documented deviations —
//! both only *strengthen* feasibility, neither affects the guarantee):
//!
//! * `R_big` arrivals are "always accepted" in the paper's fractional
//!   preprocessing; integrally we can only accept one if it physically
//!   fits, so a Big arrival that does not fit is rejected (step 4
//!   applied to it).
//! * Requests whose weight saturates (`f ≥ 1`, fully rejected
//!   fractionally) are always rejected integrally; the paper's step 2
//!   subsumes this since `1 > 1/(K_t·L)`.

use crate::config::RandConfig;
use crate::fractional::{Classification, FracEngine};
use crate::instance::{Request, RequestId};
use crate::online::{OnlineAdmission, Outcome};
use acmr_graph::LoadTracker;
use rand::Rng;

/// Integral status of a request inside [`RandomizedAdmission`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Accepted,
    Rejected,
}

/// The randomized preemptive admission-control algorithm (paper §3).
pub struct RandomizedAdmission<R: Rng> {
    cfg: RandConfig,
    frac: FracEngine,
    load: LoadTracker,
    status: Vec<Status>,
    /// Rejection threshold `1/(K_t·L)` (fixed per instance scale).
    threshold: f64,
    /// Probability multiplier `K_p·L`.
    prob_mult: f64,
    /// `4mc²` hot-edge cut-off (u64 to avoid overflow at large scales).
    hot_edge_cutoff: u64,
    /// Edges past the cut-off: everything touching them is rejected.
    poisoned: Vec<bool>,
    rng: R,
    preempted_scratch: Vec<RequestId>,
}

impl<R: Rng> RandomizedAdmission<R> {
    /// Algorithm over the given capacities.
    pub fn new(capacities: &[u32], cfg: RandConfig, rng: R) -> Self {
        let m = capacities.len();
        let c = capacities.iter().copied().max().unwrap_or(1).max(1);
        let scale_log = cfg.scale_log(m, c);
        RandomizedAdmission {
            frac: FracEngine::new(capacities, cfg.frac),
            load: LoadTracker::from_capacities(capacities.to_vec()),
            status: Vec::new(),
            threshold: 1.0 / (cfg.threshold_const * scale_log),
            prob_mult: cfg.prob_const * scale_log,
            hot_edge_cutoff: 4 * (m as u64) * (c as u64) * (c as u64),
            poisoned: vec![false; m],
            rng,
            cfg,
            preempted_scratch: Vec::new(),
        }
    }

    /// Read-only view of the underlying fractional engine.
    pub fn fractional(&self) -> &FracEngine {
        &self.frac
    }

    /// The step-2 weight threshold in effect.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Reject `id` if currently accepted, releasing its load.
    fn reject(&mut self, id: RequestId) {
        if self.status[id.index()] == Status::Accepted {
            self.status[id.index()] = Status::Rejected;
            self.load.release(self.frac.footprint(id));
            self.preempted_scratch.push(id);
        }
    }
}

impl<R: Rng> OnlineAdmission for RandomizedAdmission<R> {
    fn name(&self) -> &'static str {
        match self.cfg.frac.weighting {
            crate::config::Weighting::Weighted => "aag-randomized-weighted",
            crate::config::Weighting::Unweighted => "aag-randomized-unweighted",
        }
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        debug_assert_eq!(id.index(), self.status.len(), "arrivals must be dense");
        self.preempted_scratch.clear();
        // Tentatively rejected until step 4 decides.
        self.status.push(Status::Rejected);

        // Step 1: fractional augmentation.
        let report = self.frac.on_request(&request.footprint, request.cost);

        // Hot-edge safeguard (§3: |REQ_e| < 4mc² may be assumed).
        if self.cfg.prune_hot_edges {
            for e in request.footprint.iter() {
                if !self.poisoned[e.index()]
                    && self.frac.requests_on_edge(e.index()) >= self.hot_edge_cutoff
                {
                    self.poisoned[e.index()] = true;
                    // Preempt everything currently accepted through e.
                    let victims: Vec<RequestId> = (0..self.status.len() as u32)
                        .map(RequestId)
                        .filter(|r| {
                            self.status[r.index()] == Status::Accepted
                                && self.frac.footprint(*r).contains(e)
                        })
                        .collect();
                    for v in victims {
                        self.reject(v);
                    }
                }
            }
            if request.footprint.iter().any(|e| self.poisoned[e.index()]) {
                // Newcomer rides a poisoned edge: rejected outright.
                let preempted = std::mem::take(&mut self.preempted_scratch);
                return Outcome {
                    accepted: false,
                    preempted,
                };
            }
        }

        // Steps 2–3 run for every arrival, whatever the newcomer's
        // class: the weight increases in `frac.deltas()` belong to
        // *previously accepted* requests (e.g. a Big arrival squeezes
        // the capacity and pumps incumbent weights — they must get
        // their rejection chance now, or step 4 starves).
        //
        // Step 2: reject requests whose weight crossed the threshold.
        // Only requests touched this arrival can have crossed it.
        let mut newcomer_dead = false;
        for k in 0..self.frac.deltas().len() {
            let (r, _) = self.frac.deltas()[k];
            if self.frac.weight(r) >= self.threshold {
                if r == id {
                    newcomer_dead = true;
                } else {
                    self.reject(r);
                }
            }
        }

        // Step 3: probabilistic rejection proportional to the increase.
        for k in 0..self.frac.deltas().len() {
            let (r, delta) = self.frac.deltas()[k];
            if r == id && newcomer_dead {
                continue;
            }
            if r != id && self.status[r.index()] != Status::Accepted {
                continue;
            }
            let p = (self.prob_mult * delta).min(1.0);
            if p > 0.0 && self.rng.gen_bool(p) {
                if r == id {
                    newcomer_dead = true;
                } else {
                    self.reject(r);
                }
            }
        }

        // Newcomer's fate by class:
        // * Small — fractionally fully rejected ⇒ rejected integrally
        //   (its own delta of 1.0 also lands in step 2 above);
        // * Big — the paper accepts permanently; integrally it must
        //   also physically fit (after step-2/3 preemptions freed room);
        // * Mid — step 4: accept iff it fits and steps 2–3 spared it.
        let accepted = match report.class {
            Classification::Small => false,
            Classification::Big | Classification::Mid => {
                if (report.class == Classification::Big || !newcomer_dead)
                    && self.load.fits(&request.footprint)
                {
                    self.status[id.index()] = Status::Accepted;
                    self.load.admit(&request.footprint);
                    true
                } else {
                    false
                }
            }
        };
        let preempted = std::mem::take(&mut self.preempted_scratch);
        Outcome {
            accepted,
            preempted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RandConfig;
    use acmr_graph::{EdgeId, EdgeSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    fn run(
        caps: &[u32],
        arrivals: &[(&[u32], f64)],
        cfg: RandConfig,
        seed: u64,
    ) -> (Vec<bool>, f64) {
        let mut alg = RandomizedAdmission::new(caps, cfg, StdRng::seed_from_u64(seed));
        let mut accepted = vec![false; arrivals.len()];
        let mut audit = LoadTracker::from_capacities(caps.to_vec());
        for (i, (edges, cost)) in arrivals.iter().enumerate() {
            let req = Request::new(fp(edges), *cost);
            let out = alg.on_request(RequestId(i as u32), &req);
            for p in &out.preempted {
                assert!(accepted[p.index()], "preempted a non-accepted request");
                accepted[p.index()] = false;
                audit.release(&fp(arrivals[p.index()].0));
            }
            if out.accepted {
                accepted[i] = true;
                audit.admit(&req.footprint); // panics on violation
            }
        }
        let rejected_cost = arrivals
            .iter()
            .enumerate()
            .filter(|(i, _)| !accepted[*i])
            .map(|(_, (_, c))| *c)
            .sum();
        (accepted, rejected_cost)
    }

    #[test]
    fn accepts_everything_when_capacity_suffices() {
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0, 1], 1.0); 3];
        let (accepted, cost) = run(&[3, 3], &arrivals, RandConfig::unweighted(), 1);
        assert!(accepted.iter().all(|&a| a));
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn never_violates_capacity_under_heavy_overload() {
        // 40 requests on a single capacity-2 edge, many seeds; the run
        // helper's audit panics on any violation.
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0); 40];
        for seed in 0..20 {
            let (accepted, _) = run(&[2], &arrivals, RandConfig::unweighted(), seed);
            assert!(accepted.iter().filter(|&&a| a).count() <= 2);
        }
    }

    #[test]
    fn rejection_cost_scales_with_excess_not_total() {
        // Two disjoint edges: hot edge gets 30 requests (cap 1), cold
        // edge gets 30 requests (cap 30). The cold requests must
        // survive: rejections concentrate on the hot edge.
        let mut arrivals: Vec<(&[u32], f64)> = Vec::new();
        for _ in 0..30 {
            arrivals.push((&[0], 1.0));
            arrivals.push((&[1], 1.0));
        }
        let (accepted, cost) = run(&[1, 30], &arrivals, RandConfig::unweighted(), 7);
        // Every odd index (edge 1) should be accepted.
        let cold_accepted = accepted.iter().skip(1).step_by(2).filter(|&&a| a).count();
        assert_eq!(cold_accepted, 30, "cold-edge requests were preempted");
        assert!(cost <= 31.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let arrivals: Vec<(&[u32], f64)> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    (&[0][..], 1.0)
                } else {
                    (&[0, 1][..], 2.0)
                }
            })
            .collect();
        let a = run(&[2, 3], &arrivals, RandConfig::weighted(), 123);
        let b = run(&[2, 3], &arrivals, RandConfig::weighted(), 123);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn weighted_prefers_rejecting_cheap() {
        // Capacity 1; one expensive request then many cheap ones.
        // Expected: the expensive one is Big (cost » α) and survives.
        let mut arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1000.0)];
        for _ in 0..20 {
            arrivals.push((&[0], 1.0));
        }
        // m = c = 1 makes the 4mc² hot-edge cutoff fire after 4
        // arrivals (correct per §3 but not what this test probes), so
        // disable it here.
        let mut cfg = RandConfig::weighted();
        cfg.prune_hot_edges = false;
        let mut survived = 0;
        for seed in 0..10 {
            let (accepted, _) = run(&[1], &arrivals, cfg, seed);
            if accepted[0] {
                survived += 1;
            }
        }
        assert!(
            survived >= 8,
            "expensive request survived only {survived}/10 runs"
        );
    }

    #[test]
    fn hot_edge_pruning_fires_on_tiny_instance() {
        // m = 1, c = 1 ⇒ cutoff 4·1·1 = 4 requests. The 5th arrival and
        // beyond must all be rejected outright.
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0); 8];
        let mut cfg = RandConfig::unweighted();
        cfg.prune_hot_edges = true;
        let (accepted, _) = run(&[1], &arrivals, cfg, 3);
        for (i, &a) in accepted.iter().enumerate() {
            if i >= 4 {
                assert!(!a, "arrival {i} accepted after poisoning");
            }
        }
    }

    #[test]
    fn pruning_can_be_disabled() {
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0); 8];
        let mut cfg = RandConfig::unweighted();
        cfg.prune_hot_edges = false;
        // Without pruning the algorithm still never violates capacity
        // (run() audits) and typically keeps one request accepted.
        let (_accepted, cost) = run(&[1], &arrivals, cfg, 3);
        assert!(cost >= 7.0, "cost {cost} below forced minimum");
    }

    #[test]
    fn unweighted_competitive_on_random_interval_workload() {
        // Line of 32 edges, capacity 4; random intervals, 3× overload.
        // Competitive ratio vs the trivial lower bound Q must be a
        // small multiple of ln m · ln c.
        use rand::Rng as _;
        let m = 32usize;
        let cap = 4u32;
        let mut wl_rng = StdRng::seed_from_u64(99);
        let mut arrivals_store: Vec<(Vec<u32>, f64)> = Vec::new();
        for _ in 0..cap as usize * m {
            let a = wl_rng.gen_range(0..m as u32 - 1);
            let len = wl_rng.gen_range(1..=6u32).min(m as u32 - a);
            let edges: Vec<u32> = (a..a + len).collect();
            arrivals_store.push((edges, 1.0));
        }
        let arrivals: Vec<(&[u32], f64)> = arrivals_store
            .iter()
            .map(|(e, c)| (e.as_slice(), *c))
            .collect();
        let caps = vec![cap; m];
        let (_, online) = run(&caps, &arrivals, RandConfig::unweighted(), 5);
        // Lower bound on OPT: max edge excess.
        let mut load = vec![0u32; m];
        for (e, _) in &arrivals {
            for &i in *e {
                load[i as usize] += 1;
            }
        }
        let q = load.iter().map(|&l| l.saturating_sub(cap)).max().unwrap() as f64;
        if q > 0.0 {
            let bound = ((m as f64).ln() * (cap as f64).ln().max(1.0)) * 20.0;
            assert!(
                online / q <= bound,
                "ratio {} exceeds generous bound {bound}",
                online / q
            );
        }
    }
}
