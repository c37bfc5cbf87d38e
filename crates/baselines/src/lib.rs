//! # acmr-baselines
//!
//! Baseline online algorithms the paper's contributions are compared
//! against in experiment **E7**.
//!
//! The prior state of the art for admission control to minimize
//! rejections is Blum, Kalai & Kleinberg (WADS 2001) — cited as \[10\]
//! by the paper — with two deterministic algorithms: one
//! `(c+1)`-competitive and one `O(√m)`-competitive. Their internals are
//! not reproduced in the SPAA 2005 text, so this crate provides
//! *documented reconstructions* in the same spirit: deterministic,
//! natural, and provably **not** polylogarithmic — exactly what E7
//! needs to exhibit the paper's asymptotic win.
//!
//! * [`GreedyNonPreemptive`] — accept iff it fits; never preempt. On a
//!   single edge this is `(c+1)`-competitive in the unweighted case
//!   (it rejects at most all `k` excess arrivals while OPT rejects
//!   `k − c` … within a `c+1` factor), the flavour of BKK's first
//!   algorithm.
//! * `preempt-cheapest` — make room for an expensive newcomer by
//!   evicting the cheapest evictable requests when that is cheaper
//!   than rejecting the newcomer. A natural cost-greedy heuristic, and
//!   exactly [`Buyback`] at `f = 0` ([`Buyback::preempt_cheapest`]).
//! * [`CreditSqrtM`] — credit/charging scheme: each edge accrues a
//!   credit per rejection it causes; a newcomer is rejected outright
//!   once an edge on its footprint has accumulated `√m` credits
//!   (BKK's `O(√m)` flavour: spreading charges over edges).
//! * [`RandomPreempt`] — preempt uniformly random victims; the control
//!   baseline.
//! * [`Buyback`] — cancellation-cost admission after Ashwinkumar's
//!   buyback problem: preempting an admitted request of cost `c` pays
//!   an extra `f × c`, so an upgrade must beat its victims by a
//!   `(1 + δ)` margin, `δ = f + √(f(1+f))`; the deterministic rule is
//!   `1 + 2f + 2√(f(1+f))`-competitive on the single-resource value
//!   game, and the session bills its charges into
//!   `RunReport::buyback_paid`.
//!
//! Every preempting policy here keeps its accepted requests in an
//! [`acmr_graph::LiveSet`], so victim search reads only the saturated
//! edges' occupants and a decision costs the same at any trace length.
//!
//! Beyond the worst-case baselines, [`stochastic`] holds the
//! production-shaped policies benchmarked in E18: [`LpResolve`]
//! (periodic fluid re-solve against buffered allocations via
//! `acmr-lp`; the plan LP carries only the edges the window can
//! overfill) and [`LcbGreedy`] (lower-confidence-bound demand guard).
//! They trade the adversarial guarantee for a better rejection rate on
//! stochastic traffic.
//!
//! Also here:
//! * [`setcover::NaiveOnlineCover`] — buy the cheapest uncovered set
//!   per arrival (the trivial online set-cover baseline).
//! * [`setcover::offline_greedy_multicover`] — offline greedy
//!   (Chvátal), the classic `H_n`-approximation used as an OPT proxy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod registry;
pub mod setcover;
pub mod stochastic;

pub use admission::{Buyback, CreditSqrtM, GreedyNonPreemptive, RandomPreempt};
pub use registry::register_baselines;
pub use setcover::NaiveOnlineCover;
pub use stochastic::{LcbGreedy, LpResolve};
