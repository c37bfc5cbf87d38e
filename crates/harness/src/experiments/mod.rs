//! The theorem-validation experiment suite.
//!
//! The paper has no empirical tables — its evaluation is five theorems.
//! Each experiment here measures the quantity one theorem bounds,
//! sweeps the parameter the bound depends on, and emits a table whose
//! *shape* must match the theory. Every experiment has two sizes:
//! `quick` (seconds; used by tests and CI) and full (`exp_all` in
//! `acmr-bench`).
//!
//! | Exp | Validates | Module |
//! |-----|-----------|--------|
//! | E1 | Thm 2 — fractional `O(log(mc))` / `O(log c)` | [`e1_fractional`] |
//! | E2 | Lemma 1 — augmentation count | [`e2_augmentations`] |
//! | E3 | Thm 3 — randomized weighted `O(log²(mc))` | [`e3_randomized_weighted`] |
//! | E4 | Thm 4 — randomized unweighted `O(log m log c)` | [`e4_randomized_unweighted`] |
//! | E5 | §4 — set cover via reduction | [`e5_reduction`] |
//! | E6 | Thm 7 — bicriteria cost & coverage | [`e6_bicriteria`] |
//! | E7 | vs BKK-style baselines | [`e7_baselines`] |
//! | E8 | constant ablations | [`e8_ablations`] |
//! | E9 | Lemma 6 — potential audit | [`e9_potential`] |
//! | E18 | arrival models × policy classes | [`e18_policies`] |
//! | E19 | buyback factor grid × algorithms | [`e19_buyback`] |

pub mod e11_frontier;
pub mod e18_policies;
pub mod e19_buyback;
pub mod e1_fractional;
pub mod e2_augmentations;
pub mod e3_randomized_weighted;
pub mod e4_randomized_unweighted;
pub mod e5_reduction;
pub mod e6_bicriteria;
pub mod e7_baselines;
pub mod e8_ablations;
pub mod e9_potential;

/// Derive a deterministic RNG seed for `(experiment, cell, repetition)`
/// via SplitMix64 so every table cell is reproducible in isolation.
pub fn seed_for(experiment: u64, cell: u64, rep: u64) -> u64 {
    let mut z = experiment
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(cell.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(rep.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(0x2545F4914F6CDD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = seed_for(1, 2, 3);
        assert_eq!(a, seed_for(1, 2, 3));
        assert_ne!(a, seed_for(1, 2, 4));
        assert_ne!(a, seed_for(1, 3, 3));
        assert_ne!(a, seed_for(2, 2, 3));
    }
}
