//! The paper's §2 online **fractional** algorithm.
//!
//! A fractional algorithm may reject a fraction `f_i ∈ [0, 1]` of each
//! request; `f_i ≥ 1` means fully rejected. Writing `ALIVE_e` for the
//! not-fully-rejected requests through edge `e` and
//! `n_e = |ALIVE_e| − c_e` for the edge's excess, the output must
//! satisfy `Σ_{i ∈ ALIVE_e} f_i ≥ n_e` for every edge, and the cost is
//! `Σ_i min(f_i, 1)·p_i`.
//!
//! The algorithm (paper §2):
//!
//! * **Guess-and-double**: the OPT cost guess `α` starts at the first
//!   forced rejection as the cheapest alive cost on the overloaded
//!   edge and doubles whenever the current phase spends more than
//!   `Θ(α·log(gc))`.
//! * **Cost classes**: requests costing more than `2α` (`R_big`) are
//!   accepted permanently and the capacities of their edges reduced;
//!   requests cheaper than `α/(mc)` (`R_small`) are rejected outright.
//!   Remaining costs normalize into `[1, g]`, `g ≤ 2mc`.
//! * **Weight augmentation**: when an edge `e` violates the covering
//!   condition, repeatedly (a) give zero-weight alive requests the
//!   seed weight `1/(gc)`, (b) multiply every alive weight by
//!   `(1 + 1/(n_e·p_i))`, (c) refresh `ALIVE_e`, `n_e` — until
//!   `Σ f_i ≥ n_e`.
//!
//! Theorem 2: this is `O(log(mc))`-competitive (weighted) and
//! `O(log c)`-competitive (unweighted) **against the fractional
//! optimum**; Lemma 1 bounds total augmentations by `O(α·log(gc))`.
//!
//! ### Implementation notes
//!
//! * Consecutive augmentation rounds on one edge with no saturation
//!   multiply each weight by a constant factor, so we **batch** them:
//!   find the smallest round count `t` that either satisfies the
//!   covering condition or saturates some request, then apply
//!   `f_i ← f_i·mult_i^t` in one pass. This is bit-identical in effect
//!   to looping the paper's step 2 and keeps adversarial instances
//!   polynomial. The reported augmentation counter counts the paper's
//!   rounds (i.e. `t`, not 1) so Lemma 1 can be validated.
//! * A batch pays per **distinct multiplier**, not per alive request:
//!   requests of equal normalized cost share `mult_i`, so a probe
//!   `S(t) = Σ_i f_i·mult_i^t` takes one `powf` per distinct
//!   multiplier and sums the products in `ALIVE_e` order — the same
//!   operands in the same order as a per-request `powf`, hence the
//!   same bits. The applied weights reuse the powers of the probe that
//!   found `t`, and only the requests carrying nearly their group's
//!   largest weight are candidates for the first saturation `t_cross`.
//! * The round count is **root-guided**: each probe of `S` is a Newton
//!   step on the logarithm of the continuous relaxation
//!   `Σ_k F_k·e^{t·ln M_k} = n_e` (`F_k` the weight carried at
//!   multiplier `M_k`), rounded to a whole round count, so a batch
//!   usually settles in two probes: the answer and the count below
//!   it. Every round multiplies each weight by at least
//!   `1 + 1/(n_e·g)`, so `S` is strictly increasing in `t`: any search
//!   returning the smallest `t ≤ t_cross` with `S(t) ≥ n_e` (else
//!   `t_cross`) returns the same `t` as a binary search over
//!   `[1, t_cross]`, and weights, costs and the §3 rounding's random
//!   draws stay bit-identical.
//! * On an α-doubling we keep accumulated weights (they are sunk,
//!   monotone cost) and only reset the *phase* spend; the paper's
//!   "forget" step is an accounting device in the proof — keeping the
//!   weights preserves the covering invariant at all times and never
//!   increases the cost relative to the paper's scheme by more than
//!   the same factor-2 argument.

use crate::config::{FracConfig, Weighting};
use crate::instance::RequestId;
use acmr_graph::EdgeSet;

/// Preprocessing class assigned to an arrival (paper §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// Cost `< α/(mc)`: rejected immediately and permanently.
    Small,
    /// Cost `> 2α`: accepted permanently; its edges' capacities shrink.
    Big,
    /// Everything else: participates in weight augmentation.
    Mid,
}

/// What happened while processing one arrival. The weight increases
/// it caused are in [`FracEngine::deltas`].
#[derive(Clone, Debug)]
pub struct ArrivalReport {
    /// The id assigned to the arrival (dense arrival index).
    pub id: RequestId,
    /// Its preprocessing class.
    pub class: Classification,
    /// Paper-rounds of weight augmentation performed for this arrival.
    pub augmentations: u64,
    /// Did `α` double while processing this arrival?
    pub doubled: bool,
}

struct ReqState {
    footprint: EdgeSet,
    cost: f64,
    /// The paper's weight `f_i`; monotone non-decreasing, may slightly
    /// exceed 1 (a request saturates when `f_i ≥ 1`).
    f: f64,
    /// Current class; re-evaluated whenever `α` is set or doubles
    /// (the paper's guess-and-double implicitly re-runs preprocessing).
    class: Classification,
}

struct EdgeState {
    /// Capacity after permanent `R_big` acceptances; may go negative,
    /// in which case every alive request on the edge must saturate.
    cap_adj: i64,
    /// Mid requests through this edge with `f < 1`, pruned lazily.
    alive: Vec<u32>,
    /// Total arrivals touching this edge (the paper's `|REQ_e|`).
    req_count: u64,
}

/// The online fractional admission-control algorithm of §2.
pub struct FracEngine {
    cfg: FracConfig,
    m: usize,
    c_max: f64,
    /// Normalized cost ceiling `g` (`2mc` weighted, `1` unweighted).
    g: f64,
    /// `max(1, ln(2gc))`, the doubling trigger's `log(gc)`.
    log_gc: f64,
    /// Current OPT guess; `0` until the first forced rejection.
    alpha: f64,
    requests: Vec<ReqState>,
    edges: Vec<EdgeState>,
    /// Running `Σ min(f_i,1)·p_i` (real cost units).
    cost_now: f64,
    /// Spend since the last doubling (drives the doubling trigger).
    phase_cost: f64,
    total_augmentations: u64,
    doublings: u32,
    /// Scratch: ids touched this arrival and their pre-arrival weights.
    touched: Vec<u32>,
    f_before: Vec<f64>,
    touched_stamp: Vec<u32>,
    stamp: u32,
    /// The last arrival's positive weight increases, in touch order.
    deltas: Vec<(RequestId, f64)>,
    batch: Batch,
    /// Set by `ensure_covered` when it initializes `α`, consumed by
    /// `on_request` to trigger re-classification.
    alpha_just_set: bool,
}

/// One batch of augmentation rounds on one edge: the alive requests
/// after the batch's first round, grouped by multiplier. Kept in the
/// engine and cleared, not freed, so batches allocate nothing.
#[derive(Default)]
struct Batch {
    /// `ALIVE_e` at the start of the batch.
    ids: Vec<u32>,
    /// Weight of `ids[k]` after the first round.
    fs: Vec<f64>,
    /// `(mult bits, k)` for every request; sorted to group them.
    order: Vec<(u64, u32)>,
    /// Index into `groups` of request `k`'s multiplier.
    group: Vec<u32>,
    groups: Vec<Group>,
    /// `M^t` per group, of the last probe and of the best round count
    /// found so far.
    pows: Vec<f64>,
    pows_hi: Vec<f64>,
}

/// The requests of a batch that share a multiplier.
struct Group {
    /// The multiplier `M` and `ln M`.
    mult: f64,
    log: f64,
    /// The group's total weight `F` and its largest weight.
    mass: f64,
    top: f64,
}

/// Newton probes before the round search falls back to bisection.
const NEWTON_PROBES: usize = 8;

/// A request whose weight is below its group's largest times this
/// saturates no sooner than that one, so `t_cross` skips it: its
/// `ln(1/f)` exceeds the largest weight's by at least `2⁻²¹`, far above
/// `ln`'s rounding error, and the rest of the round-count expression is
/// monotone. Skipping leaves `t_cross` bit-exact.
const NEAR_TOP: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

impl Batch {
    /// Group the requests by multiplier and return `t_cross`, the round
    /// count at which the first request saturates.
    fn group(&mut self) -> u64 {
        self.order.sort_unstable();
        self.group.resize(self.fs.len(), 0);
        self.groups.clear();
        for &(bits, k) in &self.order {
            if self.groups.last().map(|g| g.mult.to_bits()) != Some(bits) {
                let mult = f64::from_bits(bits);
                self.groups.push(Group {
                    mult,
                    log: mult.ln(),
                    mass: 0.0,
                    top: 0.0,
                });
            }
            let f = self.fs[k as usize];
            let g = self.groups.len() - 1;
            self.group[k as usize] = g as u32;
            self.groups[g].mass += f;
            self.groups[g].top = self.groups[g].top.max(f);
        }
        let mut t_cross = u64::MAX;
        for (f, &g) in self.fs.iter().zip(&self.group) {
            let g = &self.groups[g as usize];
            if *f >= g.top * NEAR_TOP {
                let t = ((1.0 / f).ln() / g.log).ceil().max(1.0);
                t_cross = t_cross.min(t as u64);
            }
        }
        t_cross
    }

    /// `pows[g] = M_g^t`: one `powf` per distinct multiplier.
    fn power(&mut self, t: u64) {
        self.pows.clear();
        self.pows
            .extend(self.groups.iter().map(|g| g.mult.powf(t as f64)));
    }

    /// `S(t) = Σ_k f_k·M_k^t`, summed in `ids` order, and its slope
    /// `S'(t) = Σ_g F_g·M_g^t·ln M_g`.
    fn probe(&mut self, t: u64) -> (f64, f64) {
        self.power(t);
        let pows = &self.pows;
        let s = self
            .fs
            .iter()
            .zip(&self.group)
            .map(|(f, &g)| f * pows[g as usize])
            .sum();
        let ds = pows
            .iter()
            .zip(&self.groups)
            .map(|(p, g)| p * g.mass * g.log)
            .sum();
        (s, ds)
    }

    /// The batch's round count: the smallest `t ≤ t_cross` with
    /// `S(t) ≥ n_e`, else `t_cross`. Requires `S(0) < n_e`.
    ///
    /// The answer stays in `(lo, hi]`. Each probe is a Newton step on
    /// `ln S(t) − ln n_e` from the previous probe, rounded up and kept
    /// inside the bracket; that function is convex and increasing, so
    /// the steps land at or right of the root and shrink towards it,
    /// and the last probe below the answer certifies it. Bisection
    /// takes over after `NEWTON_PROBES` probes.
    fn rounds(&mut self, ne: f64) -> u64 {
        let t_cross = self.group();
        let target = ne.ln();
        let (mut lo, mut hi) = (0u64, t_cross);
        let mut t = 0;
        let mut s: f64 = self.groups.iter().map(|g| g.mass).sum();
        let mut ds: f64 = self.groups.iter().map(|g| g.mass * g.log).sum();
        let (mut probes, mut hi_probed) = (0, false);
        while hi - lo > 1 {
            t = if probes < NEWTON_PROBES {
                let step = (s.ln() - target) * s / ds;
                ((t as f64 - step).ceil() as u64).clamp(lo + 1, hi - 1)
            } else {
                lo + (hi - lo) / 2
            };
            probes += 1;
            (s, ds) = self.probe(t);
            if s >= ne {
                hi = t;
                hi_probed = true;
                std::mem::swap(&mut self.pows, &mut self.pows_hi);
            } else {
                lo = t;
            }
        }
        if !hi_probed {
            self.power(hi);
            std::mem::swap(&mut self.pows, &mut self.pows_hi);
        }
        hi
    }

    /// Request `k`'s weight after the rounds `rounds` returned.
    fn weight(&self, k: usize) -> f64 {
        self.fs[k] * self.pows_hi[self.group[k] as usize]
    }
}

impl FracEngine {
    /// Engine over the given edge capacities.
    pub fn new(capacities: &[u32], cfg: FracConfig) -> Self {
        let m = capacities.len();
        let c_max = capacities.iter().copied().max().unwrap_or(1).max(1) as f64;
        let g = match cfg.weighting {
            Weighting::Weighted => (2.0 * m as f64 * c_max).max(1.0),
            Weighting::Unweighted => 1.0,
        };
        FracEngine {
            cfg,
            m,
            c_max,
            g,
            log_gc: (2.0 * g * c_max).ln().max(1.0),
            alpha: 0.0,
            requests: Vec::new(),
            edges: capacities
                .iter()
                .map(|&c| EdgeState {
                    cap_adj: c as i64,
                    alive: Vec::new(),
                    req_count: 0,
                })
                .collect(),
            cost_now: 0.0,
            phase_cost: 0.0,
            total_augmentations: 0,
            doublings: 0,
            touched: Vec::new(),
            f_before: Vec::new(),
            touched_stamp: Vec::new(),
            stamp: 0,
            deltas: Vec::new(),
            batch: Batch::default(),
            alpha_just_set: false,
        }
    }

    /// Number of edges `m`.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Current fractional online cost `Σ min(f_i,1)·p_i`.
    pub fn online_cost(&self) -> f64 {
        self.cost_now
    }

    /// Total paper-rounds of weight augmentation so far (Lemma 1).
    pub fn augmentations(&self) -> u64 {
        self.total_augmentations
    }

    /// Current guess `α` of the optimum (0 before any forced rejection).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// How many times `α` doubled.
    pub fn doublings(&self) -> u32 {
        self.doublings
    }

    /// Current weight `f_i` of a request.
    pub fn weight(&self, id: RequestId) -> f64 {
        self.requests[id.index()].f
    }

    /// The footprint a request arrived with.
    pub fn footprint(&self, id: RequestId) -> &EdgeSet {
        &self.requests[id.index()].footprint
    }

    /// `(request, weight increase)` for every request whose weight grew
    /// during the last [`FracEngine::on_request`], **including** the
    /// arrival itself, in the order they were first touched. Feeds
    /// step 3 of the §3 randomized rounding.
    pub fn deltas(&self) -> &[(RequestId, f64)] {
        &self.deltas
    }

    /// Number of requests seen.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// The paper's `|REQ_e|` for edge index `e`.
    pub fn requests_on_edge(&self, e: usize) -> u64 {
        self.edges[e].req_count
    }

    /// The normalized-cost ceiling `g`.
    pub fn g(&self) -> f64 {
        self.g
    }

    /// Verify the fractional covering invariant
    /// `Σ_{i ∈ ALIVE_e} f_i ≥ n_e` on every edge. Used by tests and the
    /// harness audit; `O(Σ|alive|)`.
    pub fn covering_invariant_holds(&self) -> bool {
        self.edges.iter().all(|es| {
            let mut alive = 0i64;
            let mut sum = 0.0f64;
            for &i in &es.alive {
                let r = &self.requests[i as usize];
                if r.f < 1.0 && r.class == Classification::Mid {
                    alive += 1;
                    sum += r.f;
                }
            }
            let ne = alive - es.cap_adj;
            ne <= 0 || sum >= ne as f64 - 1e-6
        })
    }

    /// Normalized cost used in the multiplicative update (paper: costs
    /// scaled so the minimum handled cost is 1 and the maximum `g`).
    fn p_norm(&self, cost: f64) -> f64 {
        match self.cfg.weighting {
            Weighting::Unweighted => 1.0,
            Weighting::Weighted => {
                if self.alpha > 0.0 && self.cfg.cost_classes {
                    (cost * self.m as f64 * self.c_max / self.alpha).clamp(1.0, self.g)
                } else {
                    // Before α exists there is no scale; treat as unit.
                    1.0
                }
            }
        }
    }

    fn classify(&self, cost: f64) -> Classification {
        if !self.cfg.cost_classes || self.alpha <= 0.0 {
            return Classification::Mid;
        }
        if cost > 2.0 * self.alpha {
            Classification::Big
        } else if cost < self.alpha / (self.m as f64 * self.c_max) {
            Classification::Small
        } else {
            Classification::Mid
        }
    }

    /// Record the pre-arrival weight of `i` the first time it is touched
    /// during the current arrival.
    fn touch(&mut self, i: u32) {
        if self.touched_stamp[i as usize] != self.stamp {
            self.touched_stamp[i as usize] = self.stamp;
            self.touched.push(i);
            self.f_before[i as usize] = self.requests[i as usize].f;
        }
    }

    /// Set request `i`'s weight to `v` (monotone), updating cost books.
    fn set_weight(&mut self, i: u32, v: f64) {
        let r = &mut self.requests[i as usize];
        debug_assert!(v >= r.f - 1e-12, "weights are monotone");
        let inc = (v.min(1.0) - r.f.min(1.0)).max(0.0) * r.cost;
        r.f = v;
        self.cost_now += inc;
        self.phase_cost += inc;
    }

    /// Process one arriving request; returns what happened.
    pub fn on_request(&mut self, footprint: &EdgeSet, cost: f64) -> ArrivalReport {
        assert!(cost > 0.0, "request cost must be positive");
        let id = RequestId(self.requests.len() as u32);
        self.stamp = self.stamp.wrapping_add(1);
        self.touched.clear();
        self.f_before.push(0.0);
        self.touched_stamp.push(self.stamp.wrapping_sub(1));

        let class = self.classify(cost);
        self.requests.push(ReqState {
            footprint: footprint.clone(),
            cost,
            f: 0.0,
            class,
        });
        let idx = id.0;
        match class {
            Classification::Small => {
                // Fully rejected on arrival; never alive anywhere.
                self.touch(idx);
                self.set_weight(idx, 1.0);
                for e in footprint.iter() {
                    self.edges[e.index()].req_count += 1;
                }
            }
            Classification::Big => {
                // Permanently accepted: consume capacity — but only if
                // every edge still has an uncommitted unit. The paper
                // adjusts capacities implicitly assuming big requests
                // fit; adversarially they may not (an edge can see more
                // than c_e big requests), in which case acceptance is
                // impossible and the request is rejected outright
                // (mirrors step 4 of the §3 integral algorithm).
                let fits = footprint.iter().all(|e| self.edges[e.index()].cap_adj >= 1);
                for e in footprint.iter() {
                    let es = &mut self.edges[e.index()];
                    es.req_count += 1;
                    if fits {
                        es.cap_adj -= 1;
                    }
                }
                if !fits {
                    self.touch(idx);
                    self.set_weight(idx, 1.0);
                }
            }
            Classification::Mid => {
                for e in footprint.iter() {
                    let es = &mut self.edges[e.index()];
                    es.req_count += 1;
                    es.alive.push(idx);
                }
            }
        }

        // Restore the covering invariant edge by edge, in footprint
        // order (the paper: "in an arbitrary order" — we fix arrival
        // order for reproducibility). When an edge's first violation
        // initializes α, classes are re-evaluated under the fresh guess
        // and the *same edge* is retried before moving on.
        let mut aug_rounds = 0u64;
        if class != Classification::Small {
            for e in footprint.iter() {
                loop {
                    aug_rounds += self.ensure_covered(e.index());
                    if self.alpha_just_set {
                        self.alpha_just_set = false;
                        let affected = self.reclassify_alive();
                        for a in affected {
                            aug_rounds += self.ensure_covered(a);
                        }
                        continue; // retry this edge under the new classes
                    }
                    break;
                }
            }
        }

        // Guess-and-double: when the phase spend exceeds Θ(α·log(gc)),
        // double α and re-run the cost-class preprocessing (the paper
        // restarts the algorithm with the new guess; re-classifying in
        // place is the incremental equivalent).
        let mut doubled = false;
        for _guard in 0..200 {
            if self.alpha <= 0.0 {
                break;
            }
            let threshold = self.cfg.doubling_factor * self.alpha * self.log_gc;
            if self.phase_cost <= threshold {
                break;
            }
            self.alpha *= 2.0;
            self.doublings += 1;
            self.phase_cost = 0.0;
            doubled = true;
            let affected = self.reclassify_alive();
            for e in affected {
                aug_rounds += self.ensure_covered(e);
            }
            for e in footprint.iter() {
                aug_rounds += self.ensure_covered(e.index());
            }
        }
        self.total_augmentations += aug_rounds;

        self.deltas.clear();
        for &i in &self.touched {
            let d = self.requests[i as usize].f - self.f_before[i as usize];
            if d > 0.0 {
                self.deltas.push((RequestId(i), d));
            }
        }
        ArrivalReport {
            id,
            // Report the class after any re-classification this arrival
            // triggered (e.g. the newcomer became Big when α was set).
            class: self.requests[id.index()].class,
            augmentations: aug_rounds,
            doubled,
        }
    }

    /// Re-run the §2 cost-class preprocessing over alive Mid requests
    /// after `α` changed. `Mid → Big` (cost `> 2α`): permanently
    /// accepted, capacity consumed on its edges — those edges may now
    /// violate covering and are returned for re-augmentation.
    /// `Mid → Small` (cost `< α/(mc)`): fully rejected (saturated);
    /// this only slackens covering constraints, no re-augmentation
    /// needed.
    fn reclassify_alive(&mut self) -> Vec<usize> {
        let mut affected: Vec<usize> = Vec::new();
        if !self.cfg.cost_classes || self.alpha <= 0.0 {
            return affected;
        }
        for i in 0..self.requests.len() {
            let (cost, f, class) = {
                let r = &self.requests[i];
                (r.cost, r.f, r.class)
            };
            if class != Classification::Mid || f >= 1.0 {
                continue;
            }
            match self.classify(cost) {
                Classification::Big => {
                    // Promote only if fractional capacity remains on
                    // every edge (see the Big-arrival path); otherwise
                    // the request stays Mid and competes by weight.
                    let fp = self.requests[i].footprint.clone();
                    if fp.iter().all(|e| self.edges[e.index()].cap_adj >= 1) {
                        self.requests[i].class = Classification::Big;
                        for e in fp.iter() {
                            self.edges[e.index()].cap_adj -= 1;
                            affected.push(e.index());
                        }
                    }
                }
                Classification::Small => {
                    self.requests[i].class = Classification::Small;
                    self.touch(i as u32);
                    self.set_weight(i as u32, 1.0);
                }
                Classification::Mid => {}
            }
        }
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// Restore `Σ_{alive} f ≥ n_e` on edge `e`; returns paper-rounds
    /// performed.
    fn ensure_covered(&mut self, e: usize) -> u64 {
        let mut rounds = 0u64;
        loop {
            // (c) refresh ALIVE_e (drop saturated and re-classified).
            {
                let reqs = &self.requests;
                self.edges[e].alive.retain(|&i| {
                    let r = &reqs[i as usize];
                    r.f < 1.0 && r.class == Classification::Mid
                });
            }
            let alive_len = self.edges[e].alive.len() as i64;
            let ne = alive_len - self.edges[e].cap_adj;
            if ne <= 0 {
                return rounds;
            }
            if ne >= alive_len {
                // Adjusted capacity ≤ 0: the covering condition can only
                // be met by fully rejecting every alive request.
                if alive_len == 0 {
                    // No alive mass left to shed: the constraint is
                    // vacuously binding (cap_adj never goes negative, so
                    // this cannot occur; kept as a progress guarantee).
                    debug_assert!(self.edges[e].cap_adj >= 0);
                    return rounds;
                }
                for k in 0..self.edges[e].alive.len() {
                    let i = self.edges[e].alive[k];
                    self.touch(i);
                    self.set_weight(i, 1.0);
                }
                rounds += 1;
                continue;
            }
            let ne_f = ne as f64;
            let sum: f64 = self.edges[e]
                .alive
                .iter()
                .map(|&i| self.requests[i as usize].f)
                .sum();
            if sum >= ne_f {
                return rounds;
            }

            // First forced rejection fixes the initial α guess (paper:
            // the cheapest cost among the edge's requests).
            if self.alpha <= 0.0 {
                let min_cost = self.edges[e]
                    .alive
                    .iter()
                    .map(|&i| self.requests[i as usize].cost)
                    .fold(f64::INFINITY, f64::min);
                if min_cost.is_finite() {
                    self.alpha = min_cost;
                    self.alpha_just_set = true;
                    // Classes must be re-evaluated under the fresh α
                    // before any weight is pumped; the caller
                    // re-classifies and re-invokes us.
                    return rounds;
                }
            }
            rounds += self.augment(e, ne_f);
        }
    }

    /// One batch of rounds on edge `e` with excess `ne`: the first round
    /// seeds zero weights and multiplies once; while nothing saturates
    /// and `n_e` is unchanged, further rounds are batched up to the
    /// first that covers the edge or saturates a request. Returns the
    /// rounds performed; the caller re-derives `ALIVE_e` and `n_e`.
    fn augment(&mut self, e: usize, ne: f64) -> u64 {
        let mut b = std::mem::take(&mut self.batch);
        b.ids.clear();
        b.ids.extend_from_slice(&self.edges[e].alive);
        b.fs.clear();
        b.order.clear();
        let seed = 1.0 / (self.g * self.c_max);
        let mut saturated = false;
        for (k, &i) in b.ids.iter().enumerate() {
            self.touch(i);
            let r = &self.requests[i as usize];
            let base = if r.f == 0.0 { seed } else { r.f };
            let mult = 1.0 + 1.0 / (ne * self.p_norm(r.cost));
            let v = base * mult;
            self.set_weight(i, v);
            saturated |= v >= 1.0;
            b.fs.push(v);
            b.order.push((mult.to_bits(), k as u32));
        }
        let mut rounds = 1;
        if !saturated && b.fs.iter().sum::<f64>() < ne {
            let t = b.rounds(ne);
            for (k, &i) in b.ids.iter().enumerate() {
                self.set_weight(i, b.weight(k));
            }
            rounds += t;
        }
        self.batch = b;
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_graph::EdgeId;

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    fn unit_engine(caps: &[u32]) -> FracEngine {
        FracEngine::new(caps, FracConfig::unweighted())
    }

    #[test]
    fn no_overload_costs_nothing() {
        // Paper: the algorithm must reject 0 when OPT rejects 0.
        let mut eng = unit_engine(&[2, 2]);
        for _ in 0..2 {
            let rep = eng.on_request(&fp(&[0, 1]), 1.0);
            assert_eq!(rep.class, Classification::Mid);
            assert_eq!(rep.augmentations, 0);
        }
        assert_eq!(eng.online_cost(), 0.0);
        assert_eq!(eng.alpha(), 0.0);
        assert!(eng.covering_invariant_holds());
    }

    #[test]
    fn single_edge_overload_triggers_augmentation() {
        let mut eng = unit_engine(&[1]);
        eng.on_request(&fp(&[0]), 1.0);
        let rep = eng.on_request(&fp(&[0]), 1.0);
        assert!(rep.augmentations > 0);
        assert!(eng.online_cost() > 0.0);
        assert!(eng.covering_invariant_holds());
        // Covering: n_e = 1, so Σf ≥ 1.
        let total: f64 = (0..2).map(|i| eng.weight(RequestId(i))).sum();
        assert!(total >= 1.0 - 1e-9, "total weight {total}");
    }

    #[test]
    fn alpha_initialized_to_cheapest_on_edge() {
        let mut eng = FracEngine::new(&[1], FracConfig::weighted());
        eng.on_request(&fp(&[0]), 5.0);
        eng.on_request(&fp(&[0]), 3.0);
        assert_eq!(eng.alpha(), 3.0);
    }

    #[test]
    fn weights_are_monotone_and_invariant_maintained() {
        let mut eng = unit_engine(&[1, 1, 2]);
        let mut prev = vec![0.0f64; 0];
        for k in 0..8 {
            let footprint = fp(&[k % 3, (k + 1) % 3]);
            eng.on_request(&footprint, 1.0);
            assert!(
                eng.covering_invariant_holds(),
                "invariant after arrival {k}"
            );
            let cur: Vec<f64> = (0..eng.num_requests())
                .map(|i| eng.weight(RequestId(i as u32)))
                .collect();
            for (i, &p) in prev.iter().enumerate() {
                assert!(cur[i] >= p - 1e-12, "weight {i} decreased");
            }
            prev = cur;
        }
    }

    #[test]
    fn fractional_cost_is_logarithmically_competitive_on_hot_edge() {
        // k unit requests on one edge of capacity 1: OPT rejects k−1
        // (cost k−1). Fractional online must be within O(log c)=O(1).
        let k = 64;
        let mut eng = unit_engine(&[1]);
        for _ in 0..k {
            eng.on_request(&fp(&[0]), 1.0);
        }
        let opt = (k - 1) as f64;
        let ratio = eng.online_cost() / opt;
        assert!(ratio >= 0.9, "online below opt? ratio {ratio}"); // sanity: must reject ≈ everything
        assert!(
            ratio <= 4.0,
            "unweighted single-edge ratio too big: {ratio}"
        );
        assert!(eng.covering_invariant_holds());
    }

    #[test]
    fn augmentations_bounded_by_lemma1() {
        // Lemma 1: rounds ≤ O(α_norm · log(gc)). Unweighted: costs are
        // 1 so α_norm = OPT. Overload one capacity-c edge with 2c
        // requests: OPT = c, log(gc) = log(c) ⇒ rounds = O(c log c).
        for &c in &[1u32, 2, 4, 8, 16] {
            let mut eng = unit_engine(&[c]);
            for _ in 0..2 * c {
                eng.on_request(&fp(&[0]), 1.0);
            }
            let opt = c as f64;
            let bound = 40.0 * opt * ((2.0 * c as f64).ln() + 1.0);
            assert!(
                (eng.augmentations() as f64) <= bound,
                "c={c}: {} rounds > bound {bound}",
                eng.augmentations()
            );
        }
    }

    #[test]
    fn big_requests_accepted_and_capacity_adjusted() {
        let mut eng = FracEngine::new(&[2], FracConfig::weighted());
        // Force α to exist: two cheap conflicting requests.
        eng.on_request(&fp(&[0]), 1.0);
        eng.on_request(&fp(&[0]), 1.0);
        eng.on_request(&fp(&[0]), 1.0);
        let alpha = eng.alpha();
        assert!(alpha > 0.0);
        // A very expensive request is Big: accepted, f stays 0.
        let rep = eng.on_request(&fp(&[0]), 100.0 * alpha);
        assert_eq!(rep.class, Classification::Big);
        assert_eq!(eng.weight(rep.id), 0.0);
        assert!(eng.covering_invariant_holds());
    }

    #[test]
    fn small_requests_rejected_outright() {
        let mut eng = FracEngine::new(&[1], FracConfig::weighted());
        eng.on_request(&fp(&[0]), 8.0);
        eng.on_request(&fp(&[0]), 8.0); // α = 8
        assert!(eng.alpha() > 0.0);
        let tiny = eng.alpha() / (1.0 * 1.0 * 1e6); // « α/(mc)
        let rep = eng.on_request(&fp(&[0]), tiny);
        assert_eq!(rep.class, Classification::Small);
        assert!(eng.weight(rep.id) >= 1.0);
    }

    #[test]
    fn capacity_exhausted_by_big_saturates_alive() {
        let mut eng = FracEngine::new(&[1], FracConfig::weighted());
        eng.on_request(&fp(&[0]), 1.0);
        eng.on_request(&fp(&[0]), 1.0); // α = 1, overload
        let alpha = eng.alpha();
        // Big request eats the only capacity unit: every alive mid
        // request must saturate (cap_adj 0).
        eng.on_request(&fp(&[0]), 10.0 * alpha.max(1.0));
        assert!(eng.covering_invariant_holds());
        let w0 = eng.weight(RequestId(0));
        let w1 = eng.weight(RequestId(1));
        assert!(w0 >= 1.0 && w1 >= 1.0, "w0={w0} w1={w1}");
    }

    #[test]
    fn deltas_reported_for_touched_requests() {
        let mut eng = unit_engine(&[1]);
        eng.on_request(&fp(&[0]), 1.0);
        eng.on_request(&fp(&[0]), 1.0);
        assert!(!eng.deltas().is_empty());
        let total: f64 = eng.deltas().iter().map(|&(_, d)| d).sum();
        assert!(total > 0.0);
        // Every delta is positive and belongs to a known request.
        for &(r, d) in eng.deltas() {
            assert!(d > 0.0);
            assert!(r.index() < eng.num_requests());
        }
    }

    #[test]
    fn disjoint_edges_do_not_interact() {
        let mut eng = unit_engine(&[1, 1]);
        eng.on_request(&fp(&[0]), 1.0);
        eng.on_request(&fp(&[1]), 1.0);
        assert_eq!(eng.online_cost(), 0.0);
        // Overload edge 0 only; edge-1 request untouched.
        eng.on_request(&fp(&[0]), 1.0);
        assert_eq!(eng.weight(RequestId(1)), 0.0);
    }

    #[test]
    fn batched_rounds_match_cost_semantics() {
        // Large capacity: many rounds needed; the batcher must yield a
        // covering solution with cost ≈ n_e (each overload unit costs
        // about 1 unit of fractional mass by construction).
        let c = 32u32;
        let mut eng = unit_engine(&[c]);
        for _ in 0..c + 5 {
            eng.on_request(&fp(&[0]), 1.0);
        }
        assert!(eng.covering_invariant_holds());
        let sum: f64 = (0..eng.num_requests())
            .map(|i| eng.weight(RequestId(i as u32)).min(1.0))
            .sum();
        assert!(sum >= 5.0 - 1e-9, "covering mass {sum} < n_e");
        assert!(sum <= 5.0 * 4.0, "covering mass {sum} wildly above n_e");
    }

    /// The reference for `Batch::rounds`: a `powf` per request in every
    /// probe and a binary search over `[1, t_cross]`. Returns `t`,
    /// whether the first saturation comes before coverage, and the
    /// weights it applies.
    fn binary_search_rounds(fs: &[f64], mults: &[f64], ne_f: f64) -> (u64, bool, Vec<f64>) {
        let mut t_cross = u64::MAX;
        for (f, m) in fs.iter().zip(mults) {
            let t = ((1.0 / f).ln() / m.ln()).ceil().max(1.0);
            t_cross = t_cross.min(t as u64);
        }
        let sum_at = |t: u64| -> f64 {
            fs.iter()
                .zip(mults)
                .map(|(f, m)| f * m.powf(t as f64))
                .sum()
        };
        let saturate_first = sum_at(t_cross) < ne_f;
        let t_apply = if saturate_first {
            t_cross
        } else {
            let (mut lo, mut hi) = (1u64, t_cross);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if sum_at(mid) >= ne_f {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        let weights = fs
            .iter()
            .zip(mults)
            .map(|(f, m)| f * m.powf(t_apply as f64))
            .collect();
        (t_apply, saturate_first, weights)
    }

    /// Random batches shaped like the engine's (1–64 alive requests,
    /// normalized costs from one value, from {1..4} or all distinct, or
    /// unweighted; weights from the seed weight to just below 1) must
    /// get the binary search's round count and bit-identical weights.
    /// Fails unless t_cross = 1, saturation before coverage, t past
    /// 10⁶ and weights on both sides of `NEAR_TOP` all occurred.
    ///
    /// Cascades make the Newton probes slow: normalized costs grow
    /// geometrically and weights shrink geometrically towards the cheap
    /// end, so each multiplier dominates the sum in turn and the probes
    /// step through them one by one until bisection takes over.
    #[test]
    fn round_search_oracle_matches_binary_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut batch = Batch::default();
        let (mut mults, mut fs) = (Vec::new(), Vec::new());
        let mut alive_seen = [false; 65];
        // [one cost, costs from {1..4}, all distinct, unweighted, cascade]
        let mut cost_modes = [0u32; 5];
        let (mut t_cross_one, mut saturate_first, mut max_t) = (0u32, 0u32, 0u64);
        let mut covered_first = 0u32;
        // Requests below their group's top weight: inside `NEAR_TOP`,
        // and just outside it.
        let (mut near_top, mut skipped_near_top) = (0u32, 0u32);
        let mut cases = 0;
        while cases < 4000 {
            let mode = rng.gen_range(0..5usize);
            let cascade = mode == 4;
            let alive = rng.gen_range(if cascade { 56 } else { 1 }..=64usize);
            let ne_max = if cascade {
                1
            } else {
                alive.saturating_sub(1).max(1)
            };
            let ne = rng.gen_range(1..=ne_max) as f64;
            // `m·c` from a unit line up to a large network, where one
            // round moves a weight by ~1e-5 and t reaches ~1e6.
            let c = f64::from(rng.gen_range(if cascade { 10 } else { 1 }..=10u32));
            let m: f64 =
                [1.0, 16.0, 512.0, 10_000.0][rng.gen_range(if cascade { 3 } else { 0 }..4usize)];
            let g = if mode == 3 { 1.0 } else { 2.0 * m * c };
            let alpha: f64 = rng.gen_range(0.5..4.0);
            let one_cost = rng.gen_range(alpha / (m * c)..=2.0 * alpha);
            let seed = 1.0 / (g * c);
            // Fresh requests, log-uniform weights, weights in [low, 1),
            // weights within 2⁻¹⁸ of each other, and fresh requests next
            // to nearly saturated ones.
            let weights = rng.gen_range(0..5u32);
            let low = seed.powf(rng.gen_range(0.0..1.0));
            let (ratio, top, shrink) = (
                rng.gen_range(4.0f64..4.3),
                rng.gen_range(0.2..0.3),
                rng.gen_range(0.75f64..0.78),
            );
            mults.clear();
            fs.clear();
            batch.fs.clear();
            batch.order.clear();
            for k in 0..alive {
                let cost: f64 = match mode {
                    0 => one_cost,
                    1 => rng.gen_range(1..=4u32) as f64,
                    _ => rng.gen_range(alpha / (m * c)..=2.0 * alpha),
                };
                // The engine's `p_norm` and first round.
                let p = match mode {
                    3 => 1.0,
                    4 => (one_cost * ratio.powi(k as i32)).clamp(1.0, g),
                    _ => (cost * m * c / alpha).clamp(1.0, g),
                };
                let mult = 1.0 + 1.0 / (ne * p);
                let base = match weights {
                    _ if cascade => top * shrink.powi((alive - 1 - k) as i32),
                    0 => seed,
                    1 => seed.powf(rng.gen_range(0.0..1.0)),
                    2 => low + (1.0 - low) * rng.gen_range(0.0..1.0),
                    3 => low * (1.0 - rng.gen_range(0.0..1.0) / (1u64 << 18) as f64),
                    _ if rng.gen_bool(0.1) => rng.gen_range(0.5..1.0),
                    _ => seed,
                };
                let f = base * mult;
                mults.push(mult);
                fs.push(f);
                batch.fs.push(f);
                batch.order.push((mult.to_bits(), k as u32));
            }
            // The engine searches only batches that neither saturate
            // nor cover the edge in their first round.
            if fs.iter().any(|&f| f >= 1.0) || fs.iter().sum::<f64>() >= ne {
                continue;
            }
            let (want_t, sat_first, want_w) = binary_search_rounds(&fs, &mults, ne);
            let got_t = batch.rounds(ne);
            assert_eq!(
                got_t, want_t,
                "case {cases}: fs {fs:?} mults {mults:?} ne {ne}"
            );
            for (k, w) in want_w.iter().enumerate() {
                assert_eq!(
                    batch.weight(k).to_bits(),
                    w.to_bits(),
                    "case {cases}: weight {k} (t {want_t})"
                );
            }
            cases += 1;
            alive_seen[alive] = true;
            cost_modes[mode] += 1;
            t_cross_one += u32::from(
                fs.iter()
                    .zip(&mults)
                    .any(|(f, m)| ((1.0 / f).ln() / m.ln()).ceil() <= 1.0),
            );
            saturate_first += u32::from(sat_first);
            covered_first += u32::from(!sat_first);
            for (f, &g) in fs.iter().zip(&batch.group) {
                let top = batch.groups[g as usize].top;
                if *f < top && *f >= top * NEAR_TOP {
                    near_top += 1;
                } else if *f < top * NEAR_TOP && *f >= top * (1.0 - 4.0 * (1.0 - NEAR_TOP)) {
                    skipped_near_top += 1;
                }
            }
            max_t = max_t.max(want_t);
        }
        assert!(alive_seen[1..].iter().all(|&s| s), "alive counts 1..=64");
        assert!(
            cost_modes.iter().all(|&n| n > 0),
            "cost modes {cost_modes:?}"
        );
        assert!(t_cross_one > 0, "no batch with t_cross = 1");
        assert!(saturate_first > 0, "no batch saturating before it covers");
        assert!(covered_first > 0, "no batch covering before it saturates");
        assert!(max_t >= 1_000_000, "largest t {max_t}");
        assert!(
            near_top > 0 && skipped_near_top > 0,
            "weights near the top: {near_top} inside, {skipped_near_top} outside"
        );
    }
}
