//! Reference-model equivalence for the §2 fractional engine.
//!
//! `FracEngine` batches consecutive augmentation rounds (one jump to
//! the smallest round count that covers the edge or saturates a
//! request) for speed. This test implements the paper's
//! pseudocode *literally* — one multiplicative round at a time, no
//! batching, no reclassification shortcuts — and checks the production
//! engine produces the same weights (within float slack) on unweighted
//! instances where the two specifications coincide exactly.

use acmr_core::{FracConfig, FracEngine, RequestId};
use acmr_graph::{EdgeId, EdgeSet};
use proptest::prelude::*;

/// Literal transcription of the paper's §2 algorithm (unweighted case:
/// g = 1, p_i = 1, no cost classes).
struct ReferenceFrac {
    caps: Vec<i64>,
    /// (footprint, weight)
    reqs: Vec<(Vec<usize>, f64)>,
    augmentations: u64,
}

impl ReferenceFrac {
    fn new(caps: &[u32]) -> Self {
        ReferenceFrac {
            caps: caps.iter().map(|&c| c as i64).collect(),
            reqs: Vec::new(),
            augmentations: 0,
        }
    }

    fn on_request(&mut self, edges: &[usize]) {
        let c_max = *self.caps.iter().max().unwrap() as f64;
        self.reqs.push((edges.to_vec(), 0.0));
        for &e in edges {
            loop {
                // ALIVE_e and n_e per the definitions.
                let alive: Vec<usize> = (0..self.reqs.len())
                    .filter(|&i| self.reqs[i].1 < 1.0 && self.reqs[i].0.contains(&e))
                    .collect();
                let ne = alive.len() as i64 - self.caps[e];
                if ne <= 0 {
                    break;
                }
                let sum: f64 = alive.iter().map(|&i| self.reqs[i].1).sum();
                if sum >= ne as f64 {
                    break;
                }
                // One weight augmentation (steps 2a, 2b of the paper).
                self.augmentations += 1;
                if ne >= alive.len() as i64 {
                    // Degenerate: capacity ≤ 0 after adjustments cannot
                    // happen in this unweighted reference (no R_big).
                    for &i in &alive {
                        self.reqs[i].1 = 1.0;
                    }
                    continue;
                }
                let ne_f = ne as f64;
                for &i in &alive {
                    let f = &mut self.reqs[i].1;
                    if *f == 0.0 {
                        *f = 1.0 / c_max; // 1/(gc), g = 1
                    }
                    *f *= 1.0 + 1.0 / ne_f; // p_i = 1
                }
            }
        }
    }

    fn online_cost(&self) -> f64 {
        self.reqs.iter().map(|(_, f)| f.min(1.0)).sum()
    }
}

fn fp(edges: &[usize]) -> EdgeSet {
    EdgeSet::new(edges.iter().map(|&e| EdgeId(e as u32)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Production engine ≡ literal paper pseudocode on random
    /// unweighted instances: same weights, same cost, same round count.
    #[test]
    fn engine_matches_reference(
        caps in proptest::collection::vec(1u32..4, 2..6),
        arrivals in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..4), 1..25),
    ) {
        let m = caps.len();
        let arrivals: Vec<Vec<usize>> = arrivals
            .into_iter()
            .map(|edges| {
                let mut e: Vec<usize> = edges.into_iter().map(|x| x % m).collect();
                e.sort_unstable();
                e.dedup();
                e
            })
            .collect();
        let mut reference = ReferenceFrac::new(&caps);
        // Disable the cost-class preprocessing: with unit costs it is
        // inert until α doubles past mc, at which point the paper's
        // R_small rule (correctly) fires — but the literal reference
        // above does not model classes, so equivalence is tested with
        // classes off.
        let mut cfg = FracConfig::unweighted();
        cfg.cost_classes = false;
        let mut engine = FracEngine::new(&caps, cfg);
        for edges in &arrivals {
            reference.on_request(edges);
            engine.on_request(&fp(edges), 1.0);
        }
        prop_assert_eq!(reference.reqs.len(), engine.num_requests());
        for i in 0..reference.reqs.len() {
            let want = reference.reqs[i].1;
            let got = engine.weight(RequestId(i as u32));
            prop_assert!(
                (want - got).abs() <= 1e-6 * (1.0 + want.abs()),
                "request {i}: reference {want} vs engine {got}"
            );
        }
        prop_assert!((reference.online_cost() - engine.online_cost()).abs() <= 1e-6);
        prop_assert_eq!(reference.augmentations, engine.augmentations());
    }
}
