//! # acmr-harness
//!
//! The experiment harness: drives online algorithms over instances with
//! full feasibility auditing, computes offline-optimum bounds, runs
//! parameter sweeps in parallel (in memory or streamed from disk), and
//! renders experiment tables.
//!
//! Entry points, roughly in order of ambition (see
//! `docs/ARCHITECTURE.md` for the full data-flow picture):
//!
//! * [`run_admission`] — the panicking referee for hand-built
//!   algorithms: one instance to an [`AdmissionRun`].
//! * [`run_report`] — one `(registry spec, trace)` pair to a complete
//!   [`acmr_core::RunReport`], optionally with offline-optimum context.
//!   The trace is a [`SourceRef`]: an instance in memory, or a trace
//!   file **streamed** without ever being materialized (the two-pass
//!   OPT bound lives in [`stream`]).
//! * [`ShardedDriver`] — many `(spec, trace)` jobs fanned over scoped
//!   worker threads into one [`SweepReport`], traces in memory
//!   ([`TraceSource::InMemory`]) or on disk ([`TraceSource::Path`]).
//! * [`ClusterDriver`] — the same sweep fanned over **worker
//!   processes**: each job replays through a remote `acmr serve`
//!   session from an [`acmr_serve::WorkerPool`], with OPT bounds
//!   still computed locally once per distinct trace; reports are
//!   byte-identical to [`ShardedDriver`]'s.
//!
//! Design rules:
//!
//! * **The harness is the referee.** Every decision stream is replayed
//!   against an external [`acmr_graph::LoadTracker`]; a capacity
//!   violation or a phantom preemption panics the run.
//! * **Ratios are conservative.** Competitive ratios are reported
//!   against the best available *lower bound* on OPT (exact B&B when it
//!   proves optimality, LP relaxation otherwise, max-excess `Q` as a
//!   last resort), so reported ratios never flatter the algorithm.
//! * **Determinism.** Every cell of every sweep derives its RNG seed
//!   from `(experiment, cell, repetition)`; re-running any table
//!   reproduces it bit-for-bit, single- or multi-threaded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod opt;
pub mod parallel;
pub mod registry;
pub mod runner;
pub mod shard;
pub mod stats;
pub mod stream;
pub mod table;

pub use cluster::ClusterDriver;
pub use opt::{
    admission_covering_problem, admission_opt, multicover_problem, setcover_opt, BoundBudget,
    OptBound, OptBoundKind,
};
pub use parallel::parallel_map;
pub use registry::default_registry;
pub use runner::{
    opt_summary, run_admission, run_report, run_set_cover, AdmissionRun, SetCoverRun,
};
pub use shard::{
    cross_jobs, JobReport, ShardedDriver, SourceRef, SweepJob, SweepReport, SweepTotals,
    TraceSource,
};
pub use stats::Summary;
pub use stream::{admission_opt_from_path, scan_trace, streamed_admission_opt, StreamScan};
pub use table::Table;
