//! Stochastic traffic models: seeded generators shaped like production
//! load rather than an adversary.
//!
//! The paper's guarantees are worst-case, but the traffic a deployed
//! admission controller actually sees is stochastic: i.i.d. request
//! mixes, Markov-modulated demand, diurnal cycles, flash crowds,
//! heavy-tailed sessions. [`TrafficModel`] captures the arrival-rate
//! process; [`stochastic_workload`] turns it into an ordinary
//! [`AdmissionInstance`] over the existing topologies, so every
//! algorithm, writer and driver consumes it unchanged.
//!
//! Time is discretized into slots `0..duration`. In slot `t` the
//! generator draws `Poisson(λ·mult(t))` *sessions*; each session picks
//! one random path and issues a heavy-tailed (truncated-Zipf) number
//! of requests along it. `mult(t)` is normalized so the configured
//! [`StochasticSpec::arrival_rate`] is the long-run mean for every
//! model. Everything is driven by one explicit RNG: same seed, same
//! trace, byte for byte.

use crate::admission::Topology;
use crate::cost::{CostModel, ZipfTable};
use acmr_core::{AdmissionInstance, Request};
use acmr_graph::routing::RouteScratch;
use acmr_graph::{generators, CapGraph, EdgeSet, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One phase of a Markov-modulated ([`TrafficModel::Mmpp`]) process.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Arrival-rate multiplier while the chain sits in this phase.
    pub rate: f64,
    /// Probability of staying in this phase for another slot.
    pub stay: f64,
}

/// Arrival-rate process: how the per-slot session rate `λ(t)` evolves.
///
/// All variants are normalized so the long-run mean multiplier is 1 —
/// `arrival_rate` means the same thing under every model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Constant rate: every slot draws `Poisson(λ)` sessions.
    Iid,
    /// Markov-modulated Poisson process on a cyclic phase chain: phase
    /// `i` repeats with probability `stay_i`, otherwise the chain moves
    /// to phase `(i+1) mod k`. The cycle keeps the stationary
    /// distribution closed-form (`π_i ∝ 1/(1−stay_i)`), which is what
    /// the statistical test layer pins.
    Mmpp {
        /// The phase chain (≥ 1 phase, each `stay < 1`).
        phases: Vec<Phase>,
    },
    /// Sinusoidal day/night cycle:
    /// `mult(t) = 1 + amplitude·sin(2πt/period)`.
    Diurnal {
        /// Slots per full cycle.
        period: u32,
        /// Swing in `[0, 1)`; peak/trough ratio is `(1+a)/(1−a)`.
        amplitude: f64,
    },
    /// Flash crowds: baseline rate 1, except slots with
    /// `t mod period < width` burn at `boost×` — deterministic windows
    /// so the peak/off-peak ratio is pinnable.
    Flash {
        /// Slots between flash onsets.
        period: u32,
        /// Flash width in slots (`< period`).
        width: u32,
        /// Rate multiplier inside a flash (`> 1`).
        boost: f64,
    },
}

impl TrafficModel {
    /// A default three-phase night/day/rush chain.
    pub fn mmpp_default() -> Self {
        TrafficModel::Mmpp {
            phases: vec![
                Phase {
                    rate: 0.4,
                    stay: 0.9,
                },
                Phase {
                    rate: 1.0,
                    stay: 0.8,
                },
                Phase {
                    rate: 3.0,
                    stay: 0.6,
                },
            ],
        }
    }

    /// Stationary phase distribution of the cyclic MMPP chain
    /// (`π_i ∝ expected sojourn = 1/(1−stay_i)`); `None` for the
    /// non-Markov models.
    pub fn stationary(&self) -> Option<Vec<f64>> {
        match self {
            TrafficModel::Mmpp { phases } => {
                let w: Vec<f64> = phases.iter().map(|p| 1.0 / (1.0 - p.stay)).collect();
                let z: f64 = w.iter().sum();
                Some(w.into_iter().map(|x| x / z).collect())
            }
            _ => None,
        }
    }

    /// Long-run mean of the raw (unnormalized) multiplier.
    pub(crate) fn mean_multiplier(&self) -> f64 {
        match self {
            TrafficModel::Iid | TrafficModel::Diurnal { .. } => 1.0,
            TrafficModel::Mmpp { phases } => {
                let pi = self.stationary().expect("mmpp has a stationary dist");
                phases.iter().zip(&pi).map(|(p, w)| p.rate * w).sum()
            }
            TrafficModel::Flash {
                period,
                width,
                boost,
            } => {
                let (p, w) = (*period as f64, *width as f64);
                ((p - w) + boost * w) / p
            }
        }
    }

    /// Raw multiplier in slot `t` given the current MMPP phase.
    pub(crate) fn multiplier(&self, t: u32, phase: usize) -> f64 {
        match self {
            TrafficModel::Iid => 1.0,
            TrafficModel::Mmpp { phases } => phases[phase].rate,
            TrafficModel::Diurnal { period, amplitude } => {
                let x = 2.0 * std::f64::consts::PI * (t % period) as f64 / *period as f64;
                1.0 + amplitude * x.sin()
            }
            TrafficModel::Flash { .. } => {
                if self.is_peak(t) {
                    match self {
                        TrafficModel::Flash { boost, .. } => *boost,
                        _ => unreachable!(),
                    }
                } else {
                    1.0
                }
            }
        }
    }

    /// True iff slot `t` is inside a flash window (always `false` for
    /// the other models).
    pub fn is_peak(&self, t: u32) -> bool {
        match self {
            TrafficModel::Flash { period, width, .. } => t % period < *width,
            _ => false,
        }
    }

    /// Advance the MMPP phase chain by one slot (identity, consuming no
    /// randomness, for the other models).
    pub(crate) fn step<R: Rng>(&self, phase: usize, rng: &mut R) -> usize {
        match self {
            TrafficModel::Mmpp { phases } => {
                if rng.gen_range(0.0..1.0) < phases[phase].stay {
                    phase
                } else {
                    (phase + 1) % phases.len()
                }
            }
            _ => phase,
        }
    }

    /// Number of phases (1 for the non-Markov models).
    pub fn num_phases(&self) -> usize {
        match self {
            TrafficModel::Mmpp { phases } => phases.len(),
            _ => 1,
        }
    }

    pub(crate) fn validate(&self) {
        match self {
            TrafficModel::Iid => {}
            TrafficModel::Mmpp { phases } => {
                assert!(!phases.is_empty(), "mmpp needs at least one phase");
                for p in phases {
                    assert!((0.0..1.0).contains(&p.stay), "stay must be in [0,1)");
                    assert!(p.rate > 0.0, "phase rate must be positive");
                }
            }
            TrafficModel::Diurnal { period, amplitude } => {
                assert!(*period >= 2, "diurnal period must be >= 2");
                assert!((0.0..1.0).contains(amplitude), "amplitude in [0,1)");
            }
            TrafficModel::Flash {
                period,
                width,
                boost,
            } => {
                assert!(*width >= 1 && width < period, "flash width in [1, period)");
                assert!(*boost > 1.0, "flash boost must exceed 1");
            }
        }
    }
}

/// Specification of a stochastic workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StochasticSpec {
    /// Topology family (graphs are reused unchanged).
    pub topology: Topology,
    /// Uniform edge capacity.
    pub capacity: u32,
    /// Arrival-rate process.
    pub model: TrafficModel,
    /// Mean sessions per slot (long-run, after normalization).
    pub arrival_rate: f64,
    /// Number of time slots.
    pub duration: u32,
    /// Request-cost distribution.
    pub costs: CostModel,
    /// Maximum hops per request path.
    pub max_hops: u32,
    /// Session-size tail exponent: `P(size=k) ∝ k^(−alpha)`.
    pub session_alpha: f64,
    /// Session-size truncation (≥ 1).
    pub session_max: u32,
    /// Path-width tail exponent on the line topology: widths are drawn
    /// truncated-Zipf on `{1, …, max_hops}` (`P(w) ∝ w^(−width_alpha)`)
    /// — most flows short, occasional wide ones, the mix that makes
    /// value *density* matter. Non-line topologies ignore it (their
    /// walks are already length-diverse).
    pub width_alpha: f64,
}

impl StochasticSpec {
    /// Compact default: line topology, unit costs, single-request
    /// sessions under the given model.
    pub fn line_default(m: u32, capacity: u32, model: TrafficModel) -> Self {
        StochasticSpec {
            topology: Topology::Line { m },
            capacity,
            model,
            arrival_rate: 4.0,
            duration: 128,
            costs: CostModel::Unit,
            max_hops: 8,
            session_alpha: 2.5,
            session_max: 8,
            width_alpha: 1.3,
        }
    }
}

/// Per-slot bookkeeping returned alongside the instance — the raw
/// material for the statistical test layer.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StochasticSummary {
    /// Sessions drawn in each slot.
    pub sessions_per_slot: Vec<u32>,
    /// MMPP phase occupied in each slot (all 0 for other models).
    pub phase_per_slot: Vec<usize>,
    /// Total requests emitted.
    pub requests: usize,
}

impl StochasticSummary {
    /// Empirical mean sessions per slot.
    pub fn mean_rate(&self) -> f64 {
        if self.sessions_per_slot.is_empty() {
            return 0.0;
        }
        let total: u64 = self.sessions_per_slot.iter().map(|&x| x as u64).sum();
        total as f64 / self.sessions_per_slot.len() as f64
    }

    /// Fraction of slots spent in each of `k` phases.
    pub fn phase_occupancy(&self, k: usize) -> Vec<f64> {
        let mut counts = vec![0u64; k];
        for &p in &self.phase_per_slot {
            counts[p] += 1;
        }
        let n = self.phase_per_slot.len().max(1) as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }

    /// Mean sessions per slot over slots selected by `pick(t)`.
    pub fn mean_rate_where<F: Fn(u32) -> bool>(&self, pick: F) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for (t, &s) in self.sessions_per_slot.iter().enumerate() {
            if pick(t as u32) {
                total += s as u64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }
}

/// One `Poisson(λ)` draw (Knuth's product-of-uniforms method — exact,
/// and fast enough for per-slot rates well into the hundreds).
pub fn poisson<R: Rng>(lambda: f64, rng: &mut R) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let floor = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= floor || k >= 100_000 {
            return k;
        }
        k += 1;
    }
}

/// Truncated-Zipf draw from `table` (`{1, …, max}`), used for both
/// session sizes and line path widths: a one-value law returns 1
/// without drawing.
fn zipf_trunc<R: Rng>(table: &ZipfTable, rng: &mut R) -> u32 {
    if table.len() == 1 {
        1
    } else {
        table.sample(rng)
    }
}

/// One session's footprint; `widths` is the line's width law (other
/// topologies walk, over `scratch`, instead).
fn sample_path<R: Rng>(
    topology: Topology,
    g: &CapGraph,
    max_hops: u32,
    widths: &ZipfTable,
    scratch: &mut RouteScratch,
    rng: &mut R,
) -> Option<EdgeSet> {
    match topology {
        Topology::Line { .. } => {
            // Heavy-tailed widths: most flows are short, the occasional
            // wide one spans a big interval.
            let n = g.num_nodes() as u32;
            let hops = zipf_trunc(widths, rng);
            let src = rng.gen_range(0..n - hops);
            let route = generators::line_path(NodeId(src), NodeId(src + hops));
            Some(EdgeSet::from_sorted_iter(route))
        }
        _ => {
            let src = NodeId(rng.gen_range(0..g.num_nodes() as u32));
            scratch
                .random_walk(g, src, max_hops as usize, rng)
                .map(EdgeSet::from_slice)
        }
    }
}

/// Generate `(graph, instance, summary)` for a stochastic spec.
///
/// Requests arrive in slot order; within a slot, session by session.
/// All randomness comes from `rng` — the same seed reproduces the
/// instance exactly, so the text and binary writers emit byte-identical
/// traces for it.
pub fn stochastic_workload<R: Rng>(
    spec: &StochasticSpec,
    rng: &mut R,
) -> (CapGraph, AdmissionInstance, StochasticSummary) {
    spec.model.validate();
    assert!(spec.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(spec.duration >= 1, "duration must be >= 1 slot");
    let g = spec.topology.build(spec.capacity, rng);
    let mut inst = AdmissionInstance::from_graph(&g);
    let mut summary = StochasticSummary::default();
    let mean_mult = spec.model.mean_multiplier();
    // Every sampler and the routing scratch serve the whole call.
    let costs = spec.costs.sampler();
    let sizes = ZipfTable::new(spec.session_max.max(1), spec.session_alpha);
    let width_max = spec.max_hops.min((g.num_nodes() as u32).saturating_sub(1));
    let widths = ZipfTable::new(width_max.max(1), spec.width_alpha);
    let mut scratch = RouteScratch::new();
    let mut phase = 0usize;
    for t in 0..spec.duration {
        let lambda = spec.arrival_rate * spec.model.multiplier(t, phase) / mean_mult;
        let sessions = poisson(lambda, rng);
        summary.sessions_per_slot.push(sessions);
        summary.phase_per_slot.push(phase);
        for _ in 0..sessions {
            let size = zipf_trunc(&sizes, rng);
            // A session rides one route; retry a few times if the walk
            // has nowhere to go.
            let mut footprint = None;
            for _ in 0..8 {
                footprint =
                    sample_path(spec.topology, &g, spec.max_hops, &widths, &mut scratch, rng);
                if footprint.is_some() {
                    break;
                }
            }
            let Some(footprint) = footprint else { continue };
            for _ in 0..size {
                let cost = costs.sample(rng);
                inst.push(Request::new(footprint.clone(), cost));
            }
        }
        phase = spec.model.step(phase, rng);
    }
    summary.requests = inst.requests.len();
    (g, inst, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(3.0, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "poisson mean {mean}");
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(poisson(0.0, &mut rng), 0);
        assert_eq!(poisson(-1.0, &mut rng), 0);
    }

    #[test]
    fn session_sizes_heavy_on_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let table = ZipfTable::new(8, 2.5);
        let sizes: Vec<u32> = (0..4000).map(|_| zipf_trunc(&table, &mut rng)).collect();
        assert!(sizes.iter().all(|&s| (1..=8).contains(&s)));
        let ones = sizes.iter().filter(|&&s| s == 1).count();
        assert!(ones > 2400, "alpha=2.5 should concentrate on 1 ({ones})");
        assert!(sizes.iter().any(|&s| s >= 4), "tail should be populated");
    }

    #[test]
    fn mmpp_stationary_is_closed_form() {
        let model = TrafficModel::Mmpp {
            phases: vec![
                Phase {
                    rate: 1.0,
                    stay: 0.95,
                },
                Phase {
                    rate: 4.0,
                    stay: 0.8,
                },
            ],
        };
        // Sojourns 20 and 5 → π = (0.8, 0.2).
        let pi = model.stationary().unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mean_multiplier_is_normalized_for_every_model() {
        for model in [
            TrafficModel::Iid,
            TrafficModel::mmpp_default(),
            TrafficModel::Diurnal {
                period: 32,
                amplitude: 0.8,
            },
            TrafficModel::Flash {
                period: 32,
                width: 4,
                boost: 6.0,
            },
        ] {
            model.validate();
            let mean = model.mean_multiplier();
            assert!(mean > 0.0);
            // After dividing by mean_multiplier the long-run average
            // multiplier is 1 by construction; spot-check flash.
            if let TrafficModel::Flash {
                period,
                width,
                boost,
            } = &model
            {
                let expected = ((*period - *width) as f64 + boost * *width as f64) / *period as f64;
                assert!((mean - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flash_peak_slots_are_deterministic() {
        let model = TrafficModel::Flash {
            period: 10,
            width: 3,
            boost: 5.0,
        };
        let peaks: Vec<u32> = (0..20).filter(|&t| model.is_peak(t)).collect();
        assert_eq!(peaks, vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn workload_is_seed_deterministic() {
        let spec = StochasticSpec::line_default(16, 2, TrafficModel::mmpp_default());
        let a = stochastic_workload(&spec, &mut StdRng::seed_from_u64(7));
        let b = stochastic_workload(&spec, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.1.requests, b.1.requests);
        assert_eq!(a.2.sessions_per_slot, b.2.sessions_per_slot);
        assert_eq!(a.2.phase_per_slot, b.2.phase_per_slot);
    }

    #[test]
    fn footprints_are_valid_on_every_topology() {
        for topo in [
            Topology::Line { m: 16 },
            Topology::Tree { levels: 4 },
            Topology::Grid { rows: 3, cols: 4 },
            Topology::Gnp { n: 20, p: 0.2 },
        ] {
            let spec = StochasticSpec {
                topology: topo,
                duration: 32,
                ..StochasticSpec::line_default(16, 2, TrafficModel::Iid)
            };
            let (g, inst, summary) = stochastic_workload(&spec, &mut StdRng::seed_from_u64(5));
            assert!(!inst.requests.is_empty());
            assert_eq!(summary.requests, inst.requests.len());
            for r in &inst.requests {
                assert!(!r.footprint.is_empty());
                assert!(r.footprint.len() <= spec.max_hops as usize);
                for e in r.footprint.iter() {
                    assert!(e.index() < g.num_edges());
                }
            }
        }
    }

    #[test]
    fn sessions_repeat_the_same_route() {
        // With session_max > 1 some sessions issue several requests on
        // one path; consecutive duplicates must therefore appear.
        let spec = StochasticSpec {
            session_alpha: 1.2,
            session_max: 6,
            duration: 64,
            ..StochasticSpec::line_default(16, 2, TrafficModel::Iid)
        };
        let (_, inst, _) = stochastic_workload(&spec, &mut StdRng::seed_from_u64(3));
        let repeats = inst
            .requests
            .windows(2)
            .filter(|w| w[0].footprint == w[1].footprint)
            .count();
        assert!(repeats > 0, "heavy-tailed sessions should repeat routes");
    }
}
