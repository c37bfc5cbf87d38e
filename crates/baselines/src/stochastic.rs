//! Production-shaped stochastic serving policies.
//!
//! The paper's algorithms defend against an adversary; real traffic is
//! stochastic. These two policies exploit that: they *learn* the
//! arrival mix and spend capacity where the observed value density is,
//! instead of hedging against the worst case.
//!
//! * [`LpResolve`] — periodically re-solves the fluid relaxation of
//!   the admission LP (via `acmr-lp`'s simplex) over the request
//!   classes observed in the last window, then *enforces* the
//!   resulting class plan by preemption: requests from classes the LP
//!   allocated capacity to may evict squatters from classes it zeroed
//!   out, even when the myopic cost comparison says otherwise.
//! * [`LcbGreedy`] — tracks per-edge empirical demand and admits a
//!   request when the lower confidence bound on future demand keeps
//!   every edge of its footprint feasible; on contested edges only
//!   above-average-density requests get the remaining slots.
//!
//! Both are *hard-feasible*: a request is only admitted into capacity
//! that is actually free (freed by plan-enforcing preemption if need
//! be), so the harness referee can never catch them over-committing an
//! edge.

use std::collections::BTreeMap;

use acmr_core::{OnlineAdmission, Outcome, Request, RequestId};
use acmr_graph::{LiveSet, LoadTracker};
use acmr_lp::{solve, Cmp, Lp};

/// Request classes are `(width, ⌊log₂ cost⌋)` buckets — coarse enough
/// that the mix observed in one window predicts the next, fine enough
/// to separate value densities.
type ClassKey = (u32, i32);

#[derive(Clone, Default)]
struct ClassStats {
    count: u32,
    cost_sum: f64,
    /// Edge touch counts accumulated over the class's arrivals — the
    /// class's empirical footprint distribution.
    edge_hits: BTreeMap<u32, u32>,
}

struct PlanEntry {
    /// Fractional admit budget for the class over the next window
    /// (`x_j · n_j` from the LP, in request counts).
    quota: f64,
    /// Admits already charged against the quota this window.
    used: u32,
}

/// Periodic fluid re-solve: observe a window of arrivals, bucket them
/// into `(width, cost-band)` classes, solve the fractional relaxation
/// `max Σ_j value_j·x_j  s.t.  Σ_j x_j·hits_{j,e} ≤ (1−buffer)·cap_e`
/// (where `hits_{j,e}` is class `j`'s empirical touch count on edge
/// `e`), then *enforce* the resulting class quotas by preemption.
///
/// Admission is optimistic: anything that fits is admitted, because
/// squatters stay evictable. When a request does not fit, two eviction
/// routes are tried in order:
///
/// 1. **Cost-gated swap** — cheapest victims over all accepted
///    requests, taken when their total cost is below the newcomer's
///    (decision-identical to the preempt-cheapest baseline).
/// 2. **Plan enforcement** — when the myopic gate refuses but the
///    request's class still has LP quota this window, lower-density
///    squatters from classes the LP *zeroed out* may be evicted even
///    though they cost more than the newcomer: the swap is taken when
///    the width it frees, valued at the plan's mean admitted density,
///    earns back the immediate cost deficit. This is the move a
///    myopic preemptor can never make, and it is what reclaims wide
///    low-density squatters for the value-dense classes.
///
/// Before the first window completes there is no plan, so the policy
/// is decision-for-decision the preempt-cheapest baseline; each
/// re-solve then layers the learned reclamation on top.
pub struct LpResolve {
    /// The currently-accepted requests; each one's class is recomputed
    /// from its width and cost.
    live: LiveSet,
    period: u32,
    buffer: f64,
    seen: u32,
    window: BTreeMap<ClassKey, ClassStats>,
    plan: BTreeMap<ClassKey, PlanEntry>,
    /// Mean admitted value density under the current plan — planned
    /// value per planned edge-slot. This approximates the price of an
    /// edge slot and is what a freed slot is expected to earn back.
    price: f64,
    /// Scratch for the current arrival's victims.
    victims: Vec<u32>,
}

fn class_key(width: usize, cost: f64) -> ClassKey {
    let band = if cost > 0.0 {
        cost.log2().floor() as i32
    } else {
        i32::MIN
    };
    (width as u32, band)
}

impl LpResolve {
    /// Policy over the given capacities; re-solve every `period`
    /// arrivals, holding back a `buffer` fraction of capacity.
    pub fn new(capacities: &[u32], period: u32, buffer: f64) -> Self {
        assert!(period >= 1, "period must be >= 1");
        assert!((0.0..1.0).contains(&buffer), "buffer must be in [0,1)");
        LpResolve {
            live: LiveSet::from_capacities(capacities.to_vec()),
            period,
            buffer,
            seen: 0,
            window: BTreeMap::new(),
            plan: BTreeMap::new(),
            price: 0.0,
            victims: Vec::new(),
        }
    }

    /// Plan enforcement's swap, with its victims in `self.victims`. Each
    /// saturated edge not freed by an earlier pick gives up its least
    /// dense occupant (ties to the earlier arrival) among those less
    /// dense than the newcomer from classes the plan zeroed out, so a
    /// wide cheap request goes first. Returns whether every such edge
    /// had one and the width freed, valued at half the plan's mean
    /// admitted density, earns back the cost deficit.
    fn plan_swap(&mut self, request: &Request) -> bool {
        let LpResolve {
            live,
            plan,
            price,
            victims,
            ..
        } = self;
        let density = request.cost / request.footprint.len().max(1) as f64;
        let width = |id: u32| live.get(id).expect("occupants are live").0.len();
        let Some(cost) = live.victims_by(&request.footprint, victims, |occupants| {
            occupants
                .iter()
                .map(|&(c, id)| (c / width(id).max(1) as f64, c, id))
                .filter(|&(d, c, id)| d < density && !plan.contains_key(&class_key(width(id), c)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)))
                .map(|(_, c, id)| (c, id))
        }) else {
            return false;
        };
        let freed = victims.iter().map(|&v| width(v)).sum::<usize>() as f64
            - request.footprint.len() as f64;
        cost < request.cost + 0.5 * *price * freed
    }

    fn resolve(&mut self) {
        let m = self.live.tracker().num_edges();
        let mut budget = vec![0.0f64; m];
        for (e, b) in budget.iter_mut().enumerate() {
            let id = acmr_graph::EdgeId(e as u32);
            // Budget against *total* capacity: the plan is enforced by
            // preemption, so currently-held slots are still plannable.
            *b = (1.0 - self.buffer) * self.live.tracker().capacity(id) as f64;
        }
        // BTreeMap iteration is key-ordered → variable order (and hence
        // the pivot path and any tie-breaks) is deterministic.
        let classes: Vec<(ClassKey, ClassStats)> =
            self.window.iter().map(|(k, s)| (*k, s.clone())).collect();
        self.plan.clear();
        if classes.is_empty() {
            self.window.clear();
            return;
        }
        // Maximize admitted value → minimize its negation (x ≥ 0 is
        // implicit; x_j ≤ 1 are explicit rows).
        let objective: Vec<f64> = classes.iter().map(|(_, s)| -s.cost_sum).collect();
        let mut lp = Lp::new(objective);
        for (j, _) in classes.iter().enumerate() {
            lp.push(vec![(j, 1.0)], Cmp::Le, 1.0);
        }
        let mut rows: BTreeMap<u32, Vec<(usize, f64)>> = BTreeMap::new();
        for (j, (_, stats)) in classes.iter().enumerate() {
            for (&e, &hits) in &stats.edge_hits {
                rows.entry(e).or_default().push((j, hits as f64));
            }
        }
        for (e, coeffs) in rows {
            lp.push(coeffs, Cmp::Le, budget[e as usize]);
        }
        let Ok(sol) = solve(&lp) else {
            // x = 0 is always feasible, so failure here means a numeric
            // corner; keep no plan and run as preempt-cheapest.
            self.window.clear();
            return;
        };
        let (mut planned_value, mut planned_slots) = (0.0f64, 0.0f64);
        for (j, (key, stats)) in classes.iter().enumerate() {
            let x = sol.x[j].clamp(0.0, 1.0);
            let quota = x * stats.count as f64;
            if quota > 1e-9 {
                planned_value += x * stats.cost_sum;
                planned_slots += quota * key.0.max(1) as f64;
                self.plan.insert(*key, PlanEntry { quota, used: 0 });
            }
        }
        self.price = if planned_slots > 0.0 {
            planned_value / planned_slots
        } else {
            0.0
        };
        self.window.clear();
    }
}

impl OnlineAdmission for LpResolve {
    fn name(&self) -> &'static str {
        "lp-resolve"
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        let key = class_key(request.footprint.len(), request.cost);
        let s = self.window.entry(key).or_default();
        s.count += 1;
        s.cost_sum += request.cost;
        for e in request.footprint.iter() {
            *s.edge_hits.entry(e.0).or_default() += 1;
        }
        self.seen += 1;
        let mut preempted: Vec<RequestId> = Vec::new();
        // Quota lookup by bucketed class — the request's own footprint
        // only matters for the capacity checks.
        let on_plan = matches!(
            self.plan.get(&key),
            Some(entry) if (entry.used as f64) + 1.0 <= entry.quota + 1e-9
        );
        let admit = if self.live.tracker().fits(&request.footprint) {
            // Optimistic: whatever fits is admitted — it stays
            // evictable, so accepting is a free option.
            true
        } else {
            // The cost-gated cheapest-first swap (decision-identical
            // to preempt-cheapest) goes first; plan enforcement only
            // rescues admits the myopic gate rejects.
            let swap = self
                .live
                .cheapest_victims(&request.footprint, &mut self.victims)
                < request.cost
                || (on_plan && self.plan_swap(request));
            if swap {
                for &v in &self.victims {
                    self.live.remove(v);
                }
                preempted = self.victims.iter().map(|&v| RequestId(v)).collect();
            }
            swap
        };
        if admit {
            if on_plan {
                self.plan.get_mut(&key).expect("on-plan entry").used += 1;
            }
            self.live.insert(id.0, &request.footprint, request.cost);
        }
        if self.seen.is_multiple_of(self.period) {
            self.resolve();
        }
        Outcome {
            accepted: admit,
            preempted,
        }
    }
}

/// LCB-guarded greedy: admit while the lower confidence bound on
/// future demand keeps every footprint edge feasible; once an edge is
/// contested, hold its remaining slots for above-average-value
/// requests.
///
/// Per edge `e` the policy tracks the empirical arrival frequency
/// `p̂_e` and mean request cost `ĉ_e`. With Hoeffding radius
/// `r = √(ln(1/δ)/2n)` the lower confidence bound is
/// `LCB_e = max(0, p̂_e − r)`; projecting it over a horizon of as many
/// arrivals as seen so far, edge `e` is *contested* when
/// `LCB_e · n > residual_e − 1`. Uncontested footprints are admitted
/// outright; contested ones only when the request's value *density*
/// (cost per edge-slot) is strictly above the contested edges' running
/// mean density — the packing-aware gate: a narrow expensive request
/// outbids a wide cheap one for the last slots.
///
/// At `δ = 0` the radius is infinite, every LCB collapses to zero and
/// the guard never fires — the policy is decision-for-decision the
/// plain FCFS greedy. Confidence ramps in smoothly as `δ` grows.
pub struct LcbGreedy {
    load: LoadTracker,
    delta: f64,
    n: u64,
    hits: Vec<u64>,
    density_sum: Vec<f64>,
}

impl LcbGreedy {
    /// Policy over the given capacities with confidence parameter
    /// `delta` in `[0, 1)`.
    pub fn new(capacities: &[u32], delta: f64) -> Self {
        assert!((0.0..1.0).contains(&delta), "delta must be in [0,1)");
        let m = capacities.len();
        LcbGreedy {
            load: LoadTracker::from_capacities(capacities.to_vec()),
            delta,
            n: 0,
            hits: vec![0; m],
            density_sum: vec![0.0; m],
        }
    }

    /// Lower confidence bound on the arrival frequency of edge `e`.
    fn lcb(&self, e: usize) -> f64 {
        if self.n == 0 || self.delta <= 0.0 {
            return 0.0;
        }
        let p = self.hits[e] as f64 / self.n as f64;
        let radius = ((1.0 / self.delta).ln() / (2.0 * self.n as f64)).sqrt();
        (p - radius).max(0.0)
    }
}

impl OnlineAdmission for LcbGreedy {
    fn name(&self) -> &'static str {
        "lcb-greedy"
    }

    fn on_request(&mut self, _id: RequestId, request: &Request) -> Outcome {
        let admit = if !self.load.fits(&request.footprint) {
            false
        } else if self.delta <= 0.0 {
            true
        } else {
            // Contested edges: projected LCB demand over a horizon of
            // `n` further arrivals exceeds what admitting leaves free.
            let mut contested_mean_density = f64::NEG_INFINITY;
            let mut contested = false;
            for e in request.footprint.iter() {
                let i = e.index();
                let projected = self.lcb(i) * self.n as f64;
                if projected > (self.load.residual(e) as f64) - 1.0 {
                    contested = true;
                    if self.hits[i] > 0 {
                        contested_mean_density =
                            contested_mean_density.max(self.density_sum[i] / self.hits[i] as f64);
                    }
                }
            }
            let density = request.cost / request.footprint.len().max(1) as f64;
            // Strictly above the running mean: ties lose, so a uniform
            // stream cannot grab the slot being held for the tail.
            !contested || density > contested_mean_density
        };
        if admit {
            self.load.admit(&request.footprint);
        }
        self.n += 1;
        let density = request.cost / request.footprint.len().max(1) as f64;
        for e in request.footprint.iter() {
            self.hits[e.index()] += 1;
            self.density_sum[e.index()] += density;
        }
        if admit {
            Outcome::accept()
        } else {
            Outcome::reject()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_graph::EdgeSet;

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| acmr_graph::EdgeId(i)).collect())
    }

    fn drive<A: OnlineAdmission>(alg: &mut A, arrivals: &[(&[u32], f64)]) -> Vec<bool> {
        let mut accepted = vec![false; arrivals.len()];
        for (i, (edges, cost)) in arrivals.iter().enumerate() {
            let req = Request::new(fp(edges), *cost);
            let out = alg.on_request(RequestId(i as u32), &req);
            for p in &out.preempted {
                assert!(accepted[p.index()], "phantom preemption");
                accepted[p.index()] = false;
            }
            accepted[i] = out.accepted;
        }
        accepted
    }

    #[test]
    fn lp_resolve_admits_everything_in_underload() {
        let caps = [4u32, 4];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0), (&[1], 1.0), (&[0, 1], 2.0)];
        let mut alg = LpResolve::new(&caps, 2, 0.05);
        assert!(drive(&mut alg, &arrivals).iter().all(|&a| a));
    }

    #[test]
    fn lp_resolve_never_over_commits() {
        let caps = [1u32];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0); 8];
        let mut alg = LpResolve::new(&caps, 3, 0.0);
        let accepted = drive(&mut alg, &arrivals);
        assert_eq!(accepted.iter().filter(|&&a| a).count(), 1);
    }

    #[test]
    fn lp_resolve_learns_to_reserve_for_value() {
        // Two classes sharing edge 0 (capacity 2): wide cheap {0,1}
        // at cost 1 vs narrow expensive {0} at cost 40. After the
        // warm-up window's re-solve the plan must spend edge 0's scarce
        // slots on the expensive class, not first-come-first-served.
        let caps = [2u32, 2];
        let mut arr: Vec<(&[u32], f64)> = Vec::new();
        for _ in 0..2 {
            for _ in 0..4 {
                arr.push((&[0, 1], 1.0));
                arr.push((&[0], 40.0));
            }
        }
        let mut alg = LpResolve::new(&caps, 8, 0.0);
        let accepted = drive(&mut alg, &arr);
        let exp_in: f64 = arr
            .iter()
            .zip(&accepted)
            .filter(|((_, c), &a)| a && *c == 40.0)
            .map(|((_, c), _)| c)
            .sum();
        let cheap_in: f64 = arr
            .iter()
            .zip(&accepted)
            .filter(|((_, c), &a)| a && *c == 1.0)
            .map(|((_, c), _)| c)
            .sum();
        assert!(
            exp_in > cheap_in,
            "plan should favour the expensive class (exp {exp_in}, cheap {cheap_in})"
        );
    }

    #[test]
    fn lcb_zero_delta_is_plain_greedy() {
        let caps = [1u32, 1];
        let arrivals: Vec<(&[u32], f64)> =
            vec![(&[0], 1.0), (&[0], 100.0), (&[1], 1.0), (&[1], 100.0)];
        let lcb = drive(&mut LcbGreedy::new(&caps, 0.0), &arrivals);
        let greedy = drive(&mut crate::GreedyNonPreemptive::new(&caps), &arrivals);
        assert_eq!(lcb, greedy);
    }

    #[test]
    fn lcb_guard_holds_contested_slots_for_value() {
        // Edge 0 capacity 2. A long stream of cheap cost-1 requests
        // establishes high demand and mean cost 1; the guard must then
        // refuse further cheap requests on the contested edge while a
        // cost-50 request still gets a slot.
        let caps = [2u32];
        let mut arrivals: Vec<(&[u32], f64)> = vec![(&[0], 1.0); 30];
        arrivals.push((&[0], 50.0));
        let mut alg = LcbGreedy::new(&caps, 0.2);
        let accepted = drive(&mut alg, &arrivals);
        assert!(accepted[0], "first request sees an empty edge");
        assert!(
            accepted[30],
            "expensive request must take the reserved slot"
        );
        assert_eq!(accepted.iter().filter(|&&a| a).count(), 2);
    }

    #[test]
    fn both_policies_are_hard_feasible() {
        let caps = [1u32, 2];
        let arrivals: Vec<(&[u32], f64)> = vec![(&[0, 1], 1.0); 6];
        for accepted in [
            drive(&mut LpResolve::new(&caps, 2, 0.1), &arrivals),
            drive(&mut LcbGreedy::new(&caps, 0.05), &arrivals),
        ] {
            assert!(accepted.iter().filter(|&&a| a).count() <= 1);
        }
    }
}
