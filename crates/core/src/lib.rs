//! # acmr-core
//!
//! Reference implementation of **Alon, Azar & Gutner, "Admission Control
//! to Minimize Rejections and Online Set Cover with Repetitions"**
//! (SPAA 2005).
//!
//! The paper's four contributions, in the order it presents them:
//!
//! 1. **§2 — Fractional algorithm** ([`fractional::FracEngine`]): an
//!    online `O(log(mc))`-competitive fractional rejection scheme based
//!    on multiplicative weight augmentation, with the paper's
//!    preprocessing (guess-and-double on `α = C_OPT`, permanent
//!    acceptance of `R_big`, immediate rejection of `R_small`, cost
//!    normalization to `[1, g]`, `g ≤ 2mc`).
//! 2. **§3 — Randomized rounding** ([`randomized::RandomizedAdmission`]):
//!    converts the fractional solution into an integral preemptive
//!    algorithm; `O(log²(mc))`-competitive weighted,
//!    `O(log m · log c)` unweighted.
//! 3. **§4 — Reduction** ([`setcover::reduction`]): online set cover
//!    with repetitions solved through any admission-control algorithm
//!    (one edge per element, capacity = element degree; *rejected*
//!    phase-1 requests are the bought sets).
//! 4. **§5 — Deterministic bicriteria set cover**
//!    ([`setcover::bicriteria`]): covers every element `(1−ε)k` times at
//!    `O(log m log n)` times the optimal k-cover cost, derandomized by
//!    the method of conditional probabilities on the potential
//!    `Φ = Σ_j n^{2(w_j − cover_j)}`.
//!
//! The crate is deliberately **instance-in, decisions-out**: algorithms
//! consume [`Request`]s one at a time through [`OnlineAdmission`] /
//! [`setcover::OnlineSetCover`] and report decisions; all cost
//! accounting and feasibility auditing is replayable by the caller,
//! so an algorithm bug cannot silently misreport its own score.
//!
//! ## The engine API
//!
//! Applications address algorithms through the **registry** and drive
//! them through a streaming **session**:
//!
//! * [`registry::AlgorithmSpec`] — parsed from strings like
//!   `aag-weighted?seed=7`; the single name→constructor table
//!   ([`registry::Registry`]) replaces per-consumer dispatch.
//! * [`session::Session`] — owns the algorithm, the
//!   [`acmr_graph::LoadTracker`] audit, and incremental statistics;
//!   `push(request)` yields one audited [`session::ArrivalEvent`] per
//!   arrival, `push_batch_into` feeds a slice of arrivals with identical
//!   per-arrival semantics but amortized bookkeeping, and
//!   `run_stream_batched` drives a whole request stream — the one
//!   whole-source driver every runner builds on.
//! * [`report::RunReport`] — the serde-backed result schema shared by
//!   the CLI (`acmr run --format json`), the experiment harness, and
//!   the benches.
//! * [`error::AcmrError`] — contract violations and bad specs as typed
//!   errors at the API boundary (the batch harness still panics; a
//!   streaming service should not).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fractional;
pub mod instance;
pub mod online;
pub mod randomized;
pub mod registry;
pub mod report;
pub mod session;
pub mod setcover;
pub mod source;

pub use config::{FracConfig, RandConfig, Weighting};
pub use error::AcmrError;
pub use fractional::{ArrivalReport, Classification, FracEngine};
pub use instance::{AdmissionInstance, Request, RequestId};
pub use online::{OnlineAdmission, Outcome};
pub use randomized::RandomizedAdmission;
pub use registry::{register_core, AlgorithmSpec, BuildCtx, Registry, DEFAULT_ALGORITHM};
pub use report::{OptSummary, RunReport};
pub use session::{ArrivalEvent, RunStats, Session};
pub use source::RequestSource;
