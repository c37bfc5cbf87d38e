//! The cross-process sweep driver: [`crate::ShardedDriver`]'s
//! surface, but every worker slot is a remote `acmr serve` process.
//!
//! [`ClusterDriver`] takes the same `(spec, trace)` [`SweepJob`]s and
//! produces the same serde-backed [`SweepReport`] as the thread-level
//! [`crate::ShardedDriver`] — **byte-identical**, pinned by
//! `crates/harness/tests/cluster_differential.rs` — while the jobs
//! themselves run out-of-process: each job runs an `ACMR-SERVE`
//! session against a worker from an [`acmr_serve::WorkerPool`]
//! (spawned `acmr serve` children or adopted remote addresses),
//! replays its trace over the wire in `BATCH` frames, and reads the
//! final [`RunReport`] back. The pool always speaks the v2
//! binary-frame dialect (`docs/SERVING.md`), which every `acmr serve`
//! accepts, and keeps one **persistent session** per worker slot:
//! consecutive jobs reuse the connection via `RESET` frames, the
//! whole trace is pipelined (record-byte arrivals, batch-summary
//! acknowledgements, one round trip per job), and the whole-trace
//! retry contract below is unchanged — a retry always replays from
//! the first arrival on a fresh session. A path-backed binary trace
//! is forwarded as it is: each `BATCH` payload is the trace file's
//! own record bytes, checked like the decoder checks them but never
//! decoded on the driver; text traces and in-memory instances are
//! encoded request by request.
//!
//! Division of labor, by design:
//!
//! * **Decisions are remote.** The algorithm runs inside the worker
//!   process, exactly as live traffic would drive it; the serving
//!   differential suite guarantees the wire path is decision-for-
//!   decision identical to an in-process session. One local driver
//!   thread per worker slot feeds the jobs, and the pool places each
//!   job on an idle worker ([`WorkerPool::run_job`]), so no worker
//!   queues a job while another idles.
//! * **Bounds are local.** The offline-optimum bound of each distinct
//!   trace is computed **once** on the driver — the same shared
//!   bound-computation phase `ShardedDriver` runs — because a live
//!   worker cannot see the future and the
//!   driver already has the trace. This keeps cluster reports
//!   carrying the same OPT context as sharded ones. The bounds are
//!   computed on a scoped thread *while* the jobs run and attached
//!   afterwards, so a sweep costs the longer of the two phases rather
//!   than their sum; a bound error still wins over any job error.
//! * **Failures are typed.** A worker dying mid-job is retried as a
//!   whole-trace replay on a surviving worker (bounded, see
//!   [`WorkerPool`]'s contract); exhaustion surfaces one
//!   [`acmr_core::AcmrError::Remote`] with code
//!   [`acmr_serve::CLUSTER_ERROR_CODE`] and fails the sweep with no
//!   partial report — mirroring how a sharded sweep fails on the
//!   earliest failing job.

use crate::opt::BoundBudget;
use crate::parallel::parallel_map;
use crate::runner::opt_summary;
use crate::shard::{
    aggregate_sweep, compute_shared_bounds, resolve_jobs, SourceRef, SweepJob, SweepReport,
    TraceSource,
};
use acmr_core::RequestSource as _;
use acmr_core::{AcmrError, AdmissionInstance, RunReport};
use acmr_serve::{JobArrivals, WorkerPool};
use acmr_workloads::open_trace;

/// A fresh per-attempt arrival stream for one job: borrowed from the
/// in-memory instance, or a newly opened reader for a path-backed
/// trace (whose binary records the job forwards as they are).
type Arrivals<'a> = Box<dyn JobArrivals + 'a>;

/// Open a job's trace source from the top: capacities plus a fresh
/// arrival iterator. Called once per delivery attempt — a retry after
/// a severed connection replays the whole trace, never a suffix.
fn open_arrivals<'a>(source: &SourceRef<'a>) -> Result<(Vec<u32>, Arrivals<'a>), AcmrError> {
    match source {
        SourceRef::Mem(inst) => Ok((
            inst.capacities.clone(),
            Box::new(inst.requests.iter().cloned().map(Ok)),
        )),
        SourceRef::Path(path) => {
            let reader = open_trace(path)?;
            Ok((reader.capacities().to_vec(), Box::new(reader)))
        }
    }
}

/// Fans a set of `(spec, trace)` jobs across the worker processes of
/// an [`acmr_serve::WorkerPool`], replaying each job's trace through
/// a remote `acmr serve` session and aggregating the reports into the
/// same [`SweepReport`] a [`ShardedDriver`] produces — byte-identical
/// for the same jobs, batch, and worker count.
///
/// ```no_run
/// use acmr_harness::{ClusterDriver, SweepJob};
/// use acmr_core::{AdmissionInstance, Request};
/// use acmr_graph::{EdgeId, EdgeSet};
/// use acmr_serve::WorkerPool;
///
/// let mut inst = AdmissionInstance::from_capacities(vec![1]);
/// inst.push(Request::unit(EdgeSet::singleton(EdgeId(0))));
/// // Two pre-started `acmr serve` workers…
/// let pool = WorkerPool::connect(&["10.0.0.1:4790", "10.0.0.2:4790"])?;
/// let sweep = ClusterDriver::new(&pool)
///     .batch(16)
///     .run(
///         &[("t0".to_string(), inst)],
///         &[SweepJob::new("t0", "greedy", 0)],
///     )?;
/// assert_eq!(sweep.totals.jobs, 1);
/// # Ok::<(), acmr_core::AcmrError>(())
/// ```
///
/// [`ShardedDriver`]: crate::ShardedDriver
#[derive(Clone, Copy)]
pub struct ClusterDriver<'p> {
    pool: &'p WorkerPool,
    batch: usize,
    budget: Option<BoundBudget>,
}

impl<'p> ClusterDriver<'p> {
    /// A driver over `pool` with batch size 64 (the [`crate::ShardedDriver`]
    /// default) and no offline-optimum bounds.
    pub fn new(pool: &'p WorkerPool) -> Self {
        ClusterDriver {
            pool,
            batch: 64,
            budget: None,
        }
    }

    /// Set the `BATCH` frame size every job's wire replay uses
    /// (clamped to at least 1; the wire additionally caps frames at
    /// [`acmr_serve::protocol::MAX_BATCH`], which never changes
    /// results — only framing).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Attach offline-optimum context to every job's report, computed
    /// **locally, once per distinct trace** and shared — exactly like
    /// [`crate::ShardedDriver::budget`], so cluster and sharded
    /// reports stay byte-identical — while the jobs run remotely.
    pub fn budget(mut self, budget: BoundBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Run `jobs` over the named in-memory `traces` across the worker
    /// pool — the cross-process twin of [`crate::ShardedDriver::run`].
    /// Results are returned in submission order; bad inputs fail fast
    /// before any connection is opened; a job that exhausts its
    /// retries fails the whole sweep with one typed error and no
    /// partial report.
    pub fn run(
        &self,
        traces: &[(String, AdmissionInstance)],
        jobs: &[SweepJob],
    ) -> Result<SweepReport, AcmrError> {
        let names: Vec<&str> = traces.iter().map(|(n, _)| n.as_str()).collect();
        let sources: Vec<SourceRef<'_>> = traces
            .iter()
            .map(|(_, inst)| SourceRef::Mem(inst))
            .collect();
        self.run_refs(&names, &sources, jobs)
    }

    /// [`ClusterDriver::run`] over [`TraceSource`]s: a
    /// [`TraceSource::Path`] job streams its trace file chunk by
    /// chunk straight onto the wire (the driver never materializes
    /// it; a binary trace's records go out as they are), and the
    /// trace's offline-optimum bound uses the two-pass
    /// streamed scheme — the cross-process twin of
    /// [`crate::ShardedDriver::run_sources`].
    pub fn run_sources(
        &self,
        traces: &[(String, TraceSource)],
        jobs: &[SweepJob],
    ) -> Result<SweepReport, AcmrError> {
        let names: Vec<&str> = traces.iter().map(|(n, _)| n.as_str()).collect();
        let sources: Vec<SourceRef<'_>> = traces.iter().map(|(_, s)| s.into()).collect();
        self.run_refs(&names, &sources, jobs)
    }

    fn run_refs(
        &self,
        names: &[&str],
        sources: &[SourceRef<'_>],
        jobs: &[SweepJob],
    ) -> Result<SweepReport, AcmrError> {
        // Same fail-fast phase as the sharded driver: unknown traces,
        // duplicate names, malformed specs — all before any socket.
        let resolved = resolve_jobs(names, jobs)?;

        // The shared offline-optimum bounds (local, one per distinct
        // referenced trace, fanned over local threads) are computed on
        // a scoped thread while the jobs run remotely, fanned over one
        // local driver thread per worker slot (the pool places each
        // job on an idle worker and reroutes on failure). A bound
        // error wins over any job error, as when bounds came first.
        let workers = self.pool.len();
        let (bounds, results) = std::thread::scope(|scope| {
            let bounds =
                scope.spawn(|| compute_shared_bounds(sources, &resolved, self.budget, workers));
            let results: Vec<Result<RunReport, AcmrError>> = parallel_map(
                resolved.iter().enumerate().collect(),
                workers,
                |(i, (trace_idx, _, job))| {
                    self.pool
                        .run_job(*i, &job.spec, Some(job.seed), Some(self.batch), || {
                            open_arrivals(&sources[*trace_idx])
                        })
                },
            );
            let bounds = bounds
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (bounds, results)
        });
        let bounds = bounds?;
        let results = results
            .into_iter()
            .zip(&resolved)
            .map(|(result, (trace_idx, _, _))| {
                let mut report = result?;
                if let Some(bound) = &bounds[*trace_idx] {
                    report.opt = Some(opt_summary(bound, report.rejected_cost));
                }
                Ok(report)
            })
            .collect();

        // The report's `threads` is the fan-out width — worker
        // processes here, exactly as worker threads there — so a
        // cluster sweep over W workers serializes identically to a
        // sharded sweep over W threads.
        aggregate_sweep(self.batch, workers, jobs, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_core::AcmrError;

    #[test]
    fn bad_jobs_fail_fast_before_any_connection() {
        // The pool points at a port nothing listens on; fail-fast
        // validation must reject bad jobs without ever touching it.
        let pool = WorkerPool::connect(&["127.0.0.1:1"]).unwrap();
        let driver = ClusterDriver::new(&pool);
        let traces = vec![("t".to_string(), AdmissionInstance::from_capacities(vec![1]))];
        let err = driver
            .run(&traces, &[SweepJob::new("nope", "greedy", 0)])
            .unwrap_err();
        assert!(err.to_string().contains("unknown trace"), "{err}");
        let err = driver
            .run(&traces, &[SweepJob::new("t", "???", 0)])
            .unwrap_err();
        assert!(matches!(err, AcmrError::SpecParse { .. }), "{err}");
        // All alive workers untouched: validation never connected.
        assert_eq!(pool.alive(), 1);
    }

    #[test]
    fn empty_job_list_is_an_empty_sweep_without_connections() {
        let pool = WorkerPool::connect(&["127.0.0.1:1"]).unwrap();
        let sweep = ClusterDriver::new(&pool)
            .batch(8)
            .run(
                &[("t".to_string(), AdmissionInstance::from_capacities(vec![1]))],
                &[],
            )
            .unwrap();
        assert!(sweep.jobs.is_empty());
        assert_eq!(sweep.batch, 8);
        assert_eq!(sweep.threads, 1);
    }
}
