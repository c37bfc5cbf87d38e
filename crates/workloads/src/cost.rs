//! Request-cost distributions.
//!
//! One Zipf table (`ZipfTable`) serves every truncated-Zipf draw of the
//! generators: [`CostModel::Zipf`] costs, and the stochastic
//! simulator's session sizes and line path widths. It holds the terms
//! `1/v^s` for `v = 1..=n` and their sum, computed once per generator
//! call in the order the per-draw loop used to compute them on every
//! draw. A draw scales one uniform by the sum and subtracts the stored
//! terms in order, the same arithmetic on the same values, so every
//! trace stays byte-identical while a draw costs no `powf`.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Cost model for generated requests.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CostModel {
    /// All costs 1 (the paper's unweighted case).
    Unit,
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (must be > 0).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Discrete Zipf over `{1, …, n_values}` with exponent `s`:
    /// value `v` has probability ∝ `1/v^s`. Heavy-tailed costs —
    /// the regime where the weighted algorithm's cost classes matter.
    Zipf {
        /// Number of distinct values.
        n_values: u32,
        /// Skew exponent (≈1 classic).
        s: f64,
    },
    /// Mixture: cheap cost `lo` with probability `1−p_hi`, expensive
    /// `hi` with probability `p_hi`. Stresses the `R_big` machinery.
    Bimodal {
        /// Cheap value.
        lo: f64,
        /// Expensive value.
        hi: f64,
        /// Probability of the expensive value.
        p_hi: f64,
    },
}

impl CostModel {
    /// Draw one cost. For Zipf costs this builds the model's table on
    /// every call; the generators build it once per call instead.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.sampler().sample(rng)
    }

    /// This model ready to draw from, its Zipf table built once.
    pub(crate) fn sampler(&self) -> CostSampler {
        let zipf = match *self {
            // A support of 0 or 1 values still consumes one draw.
            CostModel::Zipf { n_values, s } => ZipfTable::new(n_values.max(1), s),
            _ => ZipfTable::default(),
        };
        CostSampler { model: *self, zipf }
    }

    /// True iff this model always returns 1.
    pub fn is_unit(&self) -> bool {
        matches!(self, CostModel::Unit)
    }
}

/// A [`CostModel`] with its Zipf table precomputed.
#[derive(Clone, Debug)]
pub(crate) struct CostSampler {
    model: CostModel,
    /// The Zipf law's terms; empty for the other models.
    zipf: ZipfTable,
}

impl CostSampler {
    /// Draw one cost: the draws [`CostModel::sample`] always took.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self.model {
            CostModel::Unit => 1.0,
            CostModel::Uniform { lo, hi } => {
                debug_assert!(lo > 0.0 && hi >= lo);
                rng.gen_range(lo..=hi)
            }
            CostModel::Zipf { .. } => f64::from(self.zipf.sample(rng)),
            CostModel::Bimodal { lo, hi, p_hi } => {
                if rng.gen_bool(p_hi) {
                    hi
                } else {
                    lo
                }
            }
        }
    }
}

/// Truncated Zipf law on `{1, …, n}`: value `v` has probability
/// proportional to `1/v^s`.
#[derive(Clone, Debug, Default)]
pub(crate) struct ZipfTable {
    /// `terms[v - 1] = 1/v^s`.
    terms: Vec<f64>,
    /// The terms' sum, added in order.
    norm: f64,
}

impl ZipfTable {
    /// The law on `{1, …, n}` with exponent `s`.
    pub(crate) fn new(n: u32, s: f64) -> Self {
        let terms: Vec<f64> = (1..=n).map(|v| 1.0 / f64::from(v).powf(s)).collect();
        let norm = terms.iter().sum();
        ZipfTable { terms, norm }
    }

    /// Number of values in the support.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    /// One inverse-CDF draw; always consumes one uniform.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let mut u = rng.gen_range(0.0..1.0) * self.norm;
        for (v, term) in (1..).zip(&self.terms) {
            u -= term;
            if u <= 0.0 {
                return v;
            }
        }
        self.terms.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_is_one() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(CostModel::Unit.sample(&mut rng), 1.0);
        assert!(CostModel::Unit.is_unit());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = CostModel::Uniform { lo: 2.0, hi: 5.0 };
        for _ in 0..500 {
            let c = m.sample(&mut rng);
            assert!((2.0..=5.0).contains(&c));
        }
    }

    #[test]
    fn zipf_is_heavy_on_small_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = CostModel::Zipf {
            n_values: 100,
            s: 1.2,
        };
        let mut ones = 0;
        let mut total = 0.0;
        for _ in 0..2000 {
            let c = m.sample(&mut rng);
            assert!((1.0..=100.0).contains(&c));
            if c == 1.0 {
                ones += 1;
            }
            total += c;
        }
        assert!(ones > 300, "zipf should concentrate on 1 (got {ones})");
        assert!(total / 2000.0 < 20.0);
    }

    #[test]
    fn bimodal_frequencies() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = CostModel::Bimodal {
            lo: 1.0,
            hi: 50.0,
            p_hi: 0.2,
        };
        let hits = (0..2000).filter(|_| m.sample(&mut rng) == 50.0).count();
        assert!((200..=600).contains(&hits), "p_hi≈0.2 got {hits}/2000");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let m = CostModel::Zipf {
            n_values: 50,
            s: 1.0,
        };
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
