//! Greedy multicover approximation.
//!
//! The classic density greedy (Chvátal 1979, cited by the paper as the
//! `Θ(log n)` offline benchmark): repeatedly buy the item with the best
//! cost per unit of *residual* demand it satisfies. For multicover this
//! retains the `H_n` approximation factor, so `greedy / H_n` is also a
//! crude lower bound; we use greedy only as a feasible **upper bound**
//! (an OPT proxy on instances too large for branch-and-bound).
//!
//! # Lazy evaluation
//!
//! An item's *coverage* is the number of its rows that still have
//! residual demand, and its *density* is `cost / coverage`. Each pick
//! takes the lowest-index item of least density, exactly as a full scan
//! with a strict `<` would. Rescanning every item for every pick costs
//! `O(picks × nnz)`, where `nnz` is the number of item/row memberships:
//! quadratic in trace length for the admission covering program.
//! [`greedy_cover`] instead keeps coverages up to date incrementally
//! (when a pick closes a row, each item of that row loses one unit)
//! and holds every candidate in a min-heap keyed by
//! `(density, item index)` under the density it had when it was pushed.
//!
//! Coverage never grows and costs are `≥ 0`, so a stored density is a
//! lower bound on the item's current one. Popping the least entry and
//! recomputing its density therefore either
//!
//! * finds it unchanged: every other item's current density is at least
//!   its stored key, which is at least the popped one, and an item that
//!   ties must have a stored key equal to it and hence a larger index.
//!   The popped item is the lowest-index minimum the scan picks;
//! * finds it larger: the entry goes back under its new density;
//! * finds coverage zero: the item can no longer help and is dropped.
//!
//! The key orders exactly like the scan's `<`: it is the bit pattern of
//! the same `cost / coverage` expression, which orders non-negative
//! floats like their values once `-0.0` is mapped to `+0.0` (`<` ties
//! the two zeros, their bits do not). So `chosen` and `cost` are
//! bit-identical to the scan's.
//!
//! An entry goes back only after its item lost coverage, so the heap
//! sees at most `items + nnz` pushes, and the coverage updates touch
//! each membership once: `O((items + nnz) · log items)` in all.

use crate::covering::CoveringProblem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of [`greedy_cover`].
#[derive(Clone, Debug)]
pub struct GreedyResult {
    /// Chosen items.
    pub chosen: Vec<bool>,
    /// Total cost of the chosen items.
    pub cost: f64,
}

/// The heap key of an item's density `cost / coverage`: its bit
/// pattern, which orders non-negative floats like their values. `-0.0`
/// ties with `+0.0` under `<`, but its bits would sort after every
/// other density's, so `+ 0.0` first turns it into `+0.0`.
fn density_key(cost: f64, coverage: u32) -> u64 {
    (cost / coverage as f64 + 0.0).to_bits()
}

/// Run the density greedy. Returns `None` if the instance is infeasible
/// (some row demands more items than exist).
///
/// Lazily evaluated (see the module docs): `O((items + nnz) · log
/// items)` for `nnz` item/row memberships, with the picks of a full
/// rescan per pick.
pub fn greedy_cover(p: &CoveringProblem) -> Option<GreedyResult> {
    if !p.is_feasible() {
        return None;
    }
    let n = p.num_items();
    // Flat item → row index, built once: item `i`'s rows, in ascending
    // order, are `rows_of[start[i]..start[i + 1]]`.
    let mut start = vec![0usize; n + 1];
    for row in &p.rows {
        for &i in &row.items {
            start[i + 1] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut rows_of = vec![0u32; start[n]];
    for (r, row) in p.rows.iter().enumerate() {
        for &i in &row.items {
            rows_of[start[i]] = r as u32;
            start[i] += 1;
        }
    }
    // Filling advanced each `start[i]` to the end of item `i`'s rows,
    // which is where item `i + 1`'s begin.
    start.copy_within(0..n, 1);
    start[0] = 0;

    let mut residual: Vec<u32> = p.rows.iter().map(|r| r.demand).collect();
    let mut coverage: Vec<u32> = (0..n)
        .map(|i| {
            let rows = &rows_of[start[i]..start[i + 1]];
            rows.iter().filter(|&&r| residual[r as usize] > 0).count() as u32
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n)
        .filter(|&i| coverage[i] > 0)
        .map(|i| Reverse((density_key(p.costs[i], coverage[i]), i)))
        .collect();
    let mut chosen = vec![false; n];
    let mut open: u64 = residual.iter().map(|&d| d as u64).sum();
    while open > 0 {
        // Feasible instances always have a helping item while demand
        // remains open.
        let Reverse((stored, i)) = heap.pop().expect("feasible instance ran out of items");
        if coverage[i] == 0 {
            continue;
        }
        let current = density_key(p.costs[i], coverage[i]);
        if current != stored {
            heap.push(Reverse((current, i)));
            continue;
        }
        chosen[i] = true;
        for &r in &rows_of[start[i]..start[i + 1]] {
            let r = r as usize;
            if residual[r] > 0 {
                residual[r] -= 1;
                open -= 1;
                if residual[r] == 0 {
                    for &j in &p.rows[r].items {
                        coverage[j] -= 1;
                    }
                }
            }
        }
    }
    let cost = p.cost_of(&chosen);
    debug_assert!(p.satisfies(&chosen));
    Some(GreedyResult { chosen, cost })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full rescan per pick that the lazy greedy replaced, kept as
    /// the reference for [`lazy_greedy_matches_scan`].
    fn scan_greedy_cover(p: &CoveringProblem) -> Option<GreedyResult> {
        if !p.is_feasible() {
            return None;
        }
        let n = p.num_items();
        let mut chosen = vec![false; n];
        let mut residual = p.residual_demands(&chosen);
        let mut rows_of_item: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, row) in p.rows.iter().enumerate() {
            for &i in &row.items {
                rows_of_item[i].push(r);
            }
        }
        let mut open: u64 = residual.iter().map(|&d| d as u64).sum();
        while open > 0 {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if chosen[i] {
                    continue;
                }
                let coverage = rows_of_item[i].iter().filter(|&&r| residual[r] > 0).count() as f64;
                if coverage == 0.0 {
                    continue;
                }
                let density = p.costs[i] / coverage;
                match best {
                    None => best = Some((i, density)),
                    Some((_, bd)) if density < bd => best = Some((i, density)),
                    _ => {}
                }
            }
            let (i, _) = best.expect("feasible instance ran out of items");
            chosen[i] = true;
            for &r in &rows_of_item[i] {
                if residual[r] > 0 {
                    residual[r] -= 1;
                    open -= 1;
                }
            }
        }
        let cost = p.cost_of(&chosen);
        Some(GreedyResult { chosen, cost })
    }

    /// 4000 seeded random problems through the lazy greedy and the full
    /// scan: identical picks and a bit-equal cost. Costs are all equal,
    /// signed zeros mixed with small integers, signed zeros only, small
    /// integers, or uniform floats, so densities tie often; rows are
    /// random subsets (random windows in the four large problems, of
    /// 3000 items or more) with demands from 0 up to their length, and
    /// about one problem in twenty gets a row it cannot meet. The test
    /// fails unless every one of those regimes occurred.
    #[test]
    fn lazy_greedy_matches_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6eed);
        let (mut unused_items, mut zero_demand, mut full_demand) = (0, 0, 0);
        let (mut infeasible, mut signed_zeros, mut all_equal, mut large) = (0, 0, 0, 0);
        for case in 0..4000 {
            let big = case % 1000 == 999;
            let n = if big {
                rng.gen_range(3000..=3500usize)
            } else {
                rng.gen_range(1..=40usize)
            };
            let mode = rng.gen_range(0..5u32);
            let one_cost = rng.gen_range(0..4u32) as f64;
            let costs: Vec<f64> = (0..n)
                .map(|_| match mode {
                    0 => one_cost,
                    1 => [0.0, -0.0, 1.0, 2.0][rng.gen_range(0..4usize)],
                    2 => [0.0, -0.0][rng.gen_range(0..2usize)],
                    3 => rng.gen_range(1..=4u32) as f64,
                    _ => rng.gen_range(0.0..10.0),
                })
                .collect();
            let mut p = CoveringProblem::new(costs);
            let rows = if big { n / 2 } else { rng.gen_range(0..=2 * n) };
            for _ in 0..rows {
                let len = rng.gen_range(1..=n.min(if big { 8 } else { 12 }));
                let items: Vec<usize> = if big {
                    let first = rng.gen_range(0..=n - len);
                    (first..first + len).collect()
                } else {
                    let mut all: Vec<usize> = (0..n).collect();
                    for k in 0..len {
                        let j = rng.gen_range(k..n);
                        all.swap(k, j);
                    }
                    all.truncate(len);
                    all
                };
                let demand = match rng.gen_range(0..6u32) {
                    0 => 0,
                    1 => len as u32,
                    _ => rng.gen_range(1..=len as u32),
                };
                p.push_row(items, demand);
            }
            if !big && rng.gen_bool(0.05) {
                let len = rng.gen_range(1..=n);
                p.push_row((0..len).collect(), len as u32 + 1);
            }

            let (lazy, scan) = (greedy_cover(&p), scan_greedy_cover(&p));
            match (&lazy, &scan) {
                (None, None) => {
                    infeasible += 1;
                    continue;
                }
                (Some(l), Some(s)) => {
                    assert_eq!(l.chosen, s.chosen, "case {case}: picks differ");
                    assert_eq!(
                        l.cost.to_bits(),
                        s.cost.to_bits(),
                        "case {case}: cost {} vs {}",
                        l.cost,
                        s.cost
                    );
                }
                _ => panic!("case {case}: only one side found the problem infeasible"),
            }
            let picks = lazy.map_or(0, |g| g.chosen.iter().filter(|&&c| c).count());
            if picks == 0 {
                continue;
            }
            let mut in_a_row = vec![false; n];
            for row in &p.rows {
                for &i in &row.items {
                    in_a_row[i] = true;
                }
            }
            unused_items += in_a_row.contains(&false) as u32;
            zero_demand += p.rows.iter().any(|r| r.demand == 0) as u32;
            full_demand += p.rows.iter().any(|r| r.demand as usize == r.items.len()) as u32;
            let zeros = |negative: bool| {
                p.costs
                    .iter()
                    .any(|&c| c == 0.0 && c.is_sign_negative() == negative)
            };
            signed_zeros += (zeros(false) && zeros(true)) as u32;
            all_equal += (n > 1 && p.costs.iter().all(|&c| c == p.costs[0])) as u32;
            large += (n >= 3000) as u32;
        }
        let regimes = [
            ("items in no row", unused_items),
            ("rows with demand 0", zero_demand),
            ("rows whose demand is their length", full_demand),
            ("infeasible problems", infeasible),
            ("both +0.0 and -0.0 costs", signed_zeros),
            ("all-equal costs", all_equal),
            ("3000 items or more", large),
        ];
        for (regime, seen) in regimes {
            assert!(seen > 0, "no case with {regime}");
        }
    }

    #[test]
    fn covers_simple_instance() {
        let mut p = CoveringProblem::new(vec![1.0, 1.0, 10.0]);
        p.push_row(vec![0, 2], 1);
        p.push_row(vec![1, 2], 1);
        let g = greedy_cover(&p).unwrap();
        assert!(p.satisfies(&g.chosen));
        // Greedy picks the two cheap items (density 1.0 each beats 5.0).
        assert_eq!(g.cost, 2.0);
    }

    #[test]
    fn multicover_demand() {
        let mut p = CoveringProblem::new(vec![1.0; 5]);
        p.push_row(vec![0, 1, 2, 3, 4], 3);
        let g = greedy_cover(&p).unwrap();
        assert!(p.satisfies(&g.chosen));
        assert_eq!(g.cost, 3.0);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut p = CoveringProblem::new(vec![1.0]);
        p.push_row(vec![0], 2);
        assert!(greedy_cover(&p).is_none());
    }

    #[test]
    fn greedy_never_below_lp() {
        let mut p = CoveringProblem::new(vec![3.0, 2.0, 2.0, 5.0]);
        p.push_row(vec![0, 1, 3], 2);
        p.push_row(vec![1, 2], 1);
        p.push_row(vec![0, 2, 3], 1);
        let g = greedy_cover(&p).unwrap();
        let lb = p.lp_lower_bound().unwrap();
        assert!(g.cost >= lb - 1e-7, "greedy {} < lp {}", g.cost, lb);
    }

    #[test]
    fn empty_problem_costs_nothing() {
        let p = CoveringProblem::new(vec![1.0, 2.0]);
        let g = greedy_cover(&p).unwrap();
        assert_eq!(g.cost, 0.0);
    }

    #[test]
    fn prefers_high_coverage_items() {
        // Item 2 covers both rows at cost 1.5 (density 0.75), beating
        // two singles at density 1.0 each.
        let mut p = CoveringProblem::new(vec![1.0, 1.0, 1.5]);
        p.push_row(vec![0, 2], 1);
        p.push_row(vec![1, 2], 1);
        let g = greedy_cover(&p).unwrap();
        assert_eq!(g.cost, 1.5);
        assert!(g.chosen[2]);
    }
}
