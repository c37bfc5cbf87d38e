//! The sharded multi-trace driver: one call from a set of
//! `(algorithm spec, trace)` jobs to an aggregated, serde-backed
//! [`SweepReport`].
//!
//! This is the scaling entry point on top of the one report path,
//! [`crate::run_report`]: jobs fan out over `std::thread::scope`d
//! workers (via [`crate::parallel_map`], so results are deterministic
//! and input-ordered regardless of thread count), every job drives its
//! algorithm through the batch layer
//! ([`acmr_core::Session::push_batch_into`] with one reused event
//! buffer per worker job), and — the big amortization — the
//! offline-optimum bound of each **distinct trace is computed once**
//! and shared by every job that runs on it, instead of once per
//! `(spec, trace)` pair as a sequence of [`crate::run_report`] calls
//! with a budget would. On sweeps of many algorithms/seeds over few
//! traces the bound dominates, so this is a large honest speedup even
//! on one core; on multicore machines thread sharding stacks on top.

use crate::opt::{admission_opt, BoundBudget, OptBound};
use crate::parallel::{default_threads, parallel_map};
use crate::runner::{opt_summary, run_report};
use crate::stream::admission_opt_from_path;
use acmr_core::{AcmrError, AdmissionInstance, AlgorithmSpec, Registry, RunReport};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Where a sweep trace lives: fully materialized, or on disk to be
/// **streamed** by every job that references it (the instance is never
/// held in memory — arrivals flow straight from chunked file reads
/// into the session, and the offline-optimum bound is computed by the
/// two-pass scheme of [`crate::stream`]).
#[derive(Clone, Debug)]
pub enum TraceSource {
    /// A materialized instance (the PR-2 shape).
    InMemory(AdmissionInstance),
    /// A trace file in the format of `docs/TRACE_FORMAT.md`.
    Path(PathBuf),
}

impl From<AdmissionInstance> for TraceSource {
    fn from(inst: AdmissionInstance) -> Self {
        TraceSource::InMemory(inst)
    }
}

impl From<PathBuf> for TraceSource {
    fn from(path: PathBuf) -> Self {
        TraceSource::Path(path)
    }
}

/// Borrowed view of one trace: a materialized instance, or a trace
/// file of either format to be **streamed** (the instance is never held
/// in memory). [`crate::run_report`] takes one; the sweep drivers
/// resolve their traces to this shape too.
#[derive(Clone, Copy, Debug)]
pub enum SourceRef<'a> {
    /// A materialized instance.
    Mem(&'a AdmissionInstance),
    /// A trace file in either format of `docs/TRACE_FORMAT.md` (the
    /// leading magic is sniffed, see [`acmr_workloads::open_trace`]).
    Path(&'a Path),
}

impl<'a> From<&'a TraceSource> for SourceRef<'a> {
    fn from(source: &'a TraceSource) -> Self {
        match source {
            TraceSource::InMemory(inst) => SourceRef::Mem(inst),
            TraceSource::Path(path) => SourceRef::Path(path),
        }
    }
}

/// Resolve every job against the trace table and parse its spec, so a
/// typo fails fast before any work is fanned out. Also rejects
/// duplicate trace names (a sweep must be unambiguous about which
/// trace a job means).
pub(crate) fn resolve_jobs<'j>(
    names: &[&str],
    jobs: &'j [SweepJob],
) -> Result<Vec<(usize, AlgorithmSpec, &'j SweepJob)>, AcmrError> {
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            return Err(AcmrError::InvalidRequest {
                reason: format!("duplicate trace name {name:?} in sweep"),
            });
        }
    }
    jobs.iter()
        .map(|job| {
            let idx = names.iter().position(|n| *n == job.trace).ok_or_else(|| {
                AcmrError::InvalidRequest {
                    reason: format!("job references unknown trace {:?}", job.trace),
                }
            })?;
            Ok((idx, AlgorithmSpec::parse(&job.spec)?, job))
        })
        .collect()
}

/// One offline-optimum bound per distinct trace that some job
/// actually references, fanned over `threads` — `None` entries mean
/// "no budget requested" or "no job runs on this trace". Path-backed
/// traces use the two-pass streamed bound, which equals the in-memory
/// bound by construction.
pub(crate) fn compute_shared_bounds(
    sources: &[SourceRef<'_>],
    resolved: &[(usize, AlgorithmSpec, &SweepJob)],
    budget: Option<BoundBudget>,
    threads: usize,
) -> Result<Vec<Option<OptBound>>, AcmrError> {
    let mut bounds: Vec<Option<OptBound>> = vec![None; sources.len()];
    if let Some(budget) = budget {
        let mut used: Vec<usize> = resolved.iter().map(|(idx, _, _)| *idx).collect();
        used.sort_unstable();
        used.dedup();
        let inputs: Vec<(usize, &SourceRef<'_>)> =
            used.into_iter().map(|i| (i, &sources[i])).collect();
        for (i, bound) in parallel_map(inputs, threads, |(i, source)| {
            let bound = match source {
                SourceRef::Mem(inst) => Ok(admission_opt(inst, budget)),
                SourceRef::Path(path) => admission_opt_from_path(path, budget),
            };
            (*i, bound)
        }) {
            bounds[i] = Some(bound?);
        }
    }
    Ok(bounds)
}

/// Fold per-job results into one [`SweepReport`] (submission order,
/// earliest failing job's error wins) — the final phase every sweep
/// driver shares, so sharded and cluster reports aggregate
/// identically by construction.
pub(crate) fn aggregate_sweep(
    batch: usize,
    threads: usize,
    jobs: &[SweepJob],
    results: Vec<Result<RunReport, AcmrError>>,
) -> Result<SweepReport, AcmrError> {
    let mut sweep_jobs = Vec::with_capacity(jobs.len());
    let mut totals = SweepTotals::default();
    for (job, result) in jobs.iter().zip(results) {
        let report = result?;
        totals.jobs += 1;
        totals.requests += report.requests;
        totals.rejected_count += report.rejected_count;
        totals.preemptions += report.preemptions;
        totals.rejected_cost += report.rejected_cost;
        totals.offered_cost += report.offered_cost;
        sweep_jobs.push(JobReport {
            trace: job.trace.clone(),
            report,
        });
    }
    Ok(SweepReport {
        batch,
        threads,
        jobs: sweep_jobs,
        totals,
    })
}

/// One unit of sweep work: run `spec` (seeded with `seed`) over the
/// named trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepJob {
    /// Name of the trace to run on (must match a trace handed to
    /// [`ShardedDriver::run`]).
    pub trace: String,
    /// Registry spec string, e.g. `aag-weighted?threshold=6`.
    pub spec: String,
    /// Base seed for randomized algorithms (a `seed=` in the spec
    /// still takes precedence, exactly like the sequential runners).
    pub seed: u64,
}

impl SweepJob {
    /// Convenience constructor.
    pub fn new(trace: impl Into<String>, spec: impl Into<String>, seed: u64) -> Self {
        SweepJob {
            trace: trace.into(),
            spec: spec.into(),
            seed,
        }
    }
}

/// One job's result inside a [`SweepReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// The trace the job ran on.
    pub trace: String,
    /// The job's full run report (opt context attached when the driver
    /// was given a bound budget).
    pub report: RunReport,
}

/// Aggregate statistics over every job in a sweep.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepTotals {
    /// Number of jobs run.
    pub jobs: usize,
    /// Total arrivals processed across jobs.
    pub requests: usize,
    /// Total rejections across jobs.
    pub rejected_count: usize,
    /// Total preemptions across jobs.
    pub preemptions: usize,
    /// Total rejected cost across jobs (the paper's objective, summed).
    pub rejected_cost: f64,
    /// Total offered cost across jobs.
    pub offered_cost: f64,
}

/// Everything a sharded sweep produced: per-job reports in job order
/// plus aggregate totals. Serde-backed — `serde_json` round-trips it,
/// and the golden regression corpus pins it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Batch size every job's session used.
    pub batch: usize,
    /// Worker threads the sweep ran on (wall-clock only: results are
    /// identical for every thread count).
    pub threads: usize,
    /// Per-job results, in the order the jobs were submitted.
    pub jobs: Vec<JobReport>,
    /// Aggregates over `jobs`.
    pub totals: SweepTotals,
}

/// Fans a set of `(spec, trace)` jobs across scoped worker threads,
/// driving each through [`crate::run_report`] and aggregating the
/// [`RunReport`]s into one [`SweepReport`].
///
/// ```
/// use acmr_harness::{default_registry, ShardedDriver, SweepJob};
/// use acmr_core::{AdmissionInstance, Request};
/// use acmr_graph::{EdgeId, EdgeSet};
///
/// let mut inst = AdmissionInstance::from_capacities(vec![1]);
/// inst.push(Request::unit(EdgeSet::singleton(EdgeId(0))));
/// let registry = default_registry();
/// let sweep = ShardedDriver::new()
///     .threads(2)
///     .batch(16)
///     .run(
///         &registry,
///         &[("t0".to_string(), inst)],
///         &[SweepJob::new("t0", "greedy", 0)],
///     )
///     .unwrap();
/// assert_eq!(sweep.totals.jobs, 1);
/// assert_eq!(sweep.jobs[0].report.rejected_count, 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ShardedDriver {
    threads: usize,
    batch: usize,
    budget: Option<BoundBudget>,
}

impl Default for ShardedDriver {
    fn default() -> Self {
        ShardedDriver::new()
    }
}

impl ShardedDriver {
    /// A driver with the default worker count
    /// ([`crate::parallel::default_threads`]), batch size 64, and no
    /// offline-optimum bounds.
    pub fn new() -> Self {
        ShardedDriver {
            threads: default_threads(),
            batch: 64,
            budget: None,
        }
    }

    /// Set the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the arrival batch size every job's session uses (clamped to
    /// at least 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Attach offline-optimum context to every job's report. The bound
    /// is computed **once per distinct trace** and shared across all
    /// jobs on that trace.
    pub fn budget(mut self, budget: BoundBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Run `jobs` over the named in-memory `traces` and aggregate —
    /// the PR-2 entry point, now a thin wrapper over
    /// [`ShardedDriver::run_sources`] with every trace
    /// [`TraceSource::InMemory`].
    ///
    /// Jobs are independent; results are returned in submission order
    /// and are identical for every thread count. Bad inputs (unknown
    /// algorithm or trace name, malformed spec) fail fast before any
    /// work is fanned out; a mid-sweep job error (e.g. a contract
    /// violation) fails the whole sweep — the error of the earliest
    /// failing job is returned once in-flight jobs have finished, and
    /// no partial report is produced.
    pub fn run(
        &self,
        registry: &Registry,
        traces: &[(String, AdmissionInstance)],
        jobs: &[SweepJob],
    ) -> Result<SweepReport, AcmrError> {
        let names: Vec<&str> = traces.iter().map(|(n, _)| n.as_str()).collect();
        let sources: Vec<SourceRef<'_>> = traces
            .iter()
            .map(|(_, inst)| SourceRef::Mem(inst))
            .collect();
        self.run_refs(registry, &names, &sources, jobs)
    }

    /// [`ShardedDriver::run`] over [`TraceSource`]s: jobs referencing a
    /// [`TraceSource::Path`] trace **stream** it from disk — each job
    /// drives its session straight off the format-sniffed reader
    /// ([`acmr_workloads::open_trace`]: chunked text, or zero-copy mmap
    /// replay for binary v2 traces), and the trace's offline-optimum
    /// bound (still computed once per distinct trace) uses the two-pass
    /// streamed scheme — so a sweep
    /// can fan out over trace files that never fit in memory. Reports
    /// are identical to running the same trace in memory.
    pub fn run_sources(
        &self,
        registry: &Registry,
        traces: &[(String, TraceSource)],
        jobs: &[SweepJob],
    ) -> Result<SweepReport, AcmrError> {
        let names: Vec<&str> = traces.iter().map(|(n, _)| n.as_str()).collect();
        let sources: Vec<SourceRef<'_>> = traces.iter().map(|(_, s)| s.into()).collect();
        self.run_refs(registry, &names, &sources, jobs)
    }

    fn run_refs(
        &self,
        registry: &Registry,
        names: &[&str],
        sources: &[SourceRef<'_>],
        jobs: &[SweepJob],
    ) -> Result<SweepReport, AcmrError> {
        // Resolve and parse everything upfront so a typo fails fast,
        // before any work is fanned out.
        let resolved = resolve_jobs(names, jobs)?;

        // Phase 1: shared offline-optimum bounds.
        let bounds = compute_shared_bounds(sources, &resolved, self.budget, self.threads)?;

        // Phase 2: the jobs themselves, sharded, each through the one
        // report path — from a slice for in-memory traces, or
        // chunk-buffered off a format-sniffed reader for path traces —
        // with the trace's shared bound attached afterwards.
        let results: Vec<Result<RunReport, AcmrError>> =
            parallel_map(resolved, self.threads, |(trace_idx, _, job)| {
                let source = sources[*trace_idx];
                let mut report =
                    run_report(registry, &job.spec, source, job.seed, self.batch, None)?;
                if let Some(bound) = &bounds[*trace_idx] {
                    report.opt = Some(opt_summary(bound, report.rejected_cost));
                }
                Ok(report)
            });

        aggregate_sweep(self.batch, self.threads, jobs, results)
    }
}

/// The cross product of traces × specs × seeds as a job list — the
/// common sweep shape (`exp_all`, the throughput bench, the golden
/// corpus all use it).
pub fn cross_jobs(trace_names: &[&str], specs: &[&str], seeds: &[u64]) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(trace_names.len() * specs.len() * seeds.len());
    for &trace in trace_names {
        for &spec in specs {
            for &seed in seeds {
                jobs.push(SweepJob::new(trace, spec, seed));
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::default_registry;
    use acmr_core::Request;
    use acmr_graph::{EdgeId, EdgeSet};

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    fn hot_edge(total: u32) -> AdmissionInstance {
        let mut inst = AdmissionInstance::from_capacities(vec![2, 2]);
        for _ in 0..total {
            inst.push(Request::unit(fp(&[0])));
        }
        inst
    }

    fn traces() -> Vec<(String, AdmissionInstance)> {
        vec![
            ("hot4".to_string(), hot_edge(4)),
            ("hot8".to_string(), hot_edge(8)),
        ]
    }

    #[test]
    fn sweep_matches_sequential_run_report() {
        let registry = default_registry();
        let traces = traces();
        let jobs = cross_jobs(&["hot4", "hot8"], &["greedy", "aag-unweighted"], &[0, 7]);
        let sweep = ShardedDriver::new()
            .threads(3)
            .batch(3)
            .run(&registry, &traces, &jobs)
            .unwrap();
        assert_eq!(sweep.jobs.len(), 8);
        assert_eq!(sweep.totals.jobs, 8);
        for (job, jr) in jobs.iter().zip(&sweep.jobs) {
            let inst = &traces.iter().find(|(n, _)| *n == job.trace).unwrap().1;
            let source = SourceRef::Mem(inst);
            let seq = run_report(&registry, &job.spec, source, job.seed, 1, None).unwrap();
            assert_eq!(jr.report, seq, "job {job:?}");
            assert_eq!(jr.trace, job.trace);
        }
        let expected_rejected: usize = sweep.jobs.iter().map(|j| j.report.rejected_count).sum();
        assert_eq!(sweep.totals.rejected_count, expected_rejected);
    }

    #[test]
    fn thread_and_batch_counts_do_not_change_results() {
        let registry = default_registry();
        let traces = traces();
        let jobs = cross_jobs(&["hot4", "hot8"], &["aag-weighted", "random-preempt"], &[3]);
        let reference = ShardedDriver::new()
            .threads(1)
            .batch(1)
            .run(&registry, &traces, &jobs)
            .unwrap();
        for (threads, batch) in [(2, 2), (4, 64), (8, 5)] {
            let sweep = ShardedDriver::new()
                .threads(threads)
                .batch(batch)
                .run(&registry, &traces, &jobs)
                .unwrap();
            assert_eq!(
                sweep.jobs, reference.jobs,
                "threads {threads} batch {batch}"
            );
        }
    }

    #[test]
    fn shared_opt_bound_matches_per_job_run_report() {
        let registry = default_registry();
        let traces = traces();
        let jobs = cross_jobs(&["hot4"], &["greedy", "preempt-cheapest"], &[0]);
        let sweep = ShardedDriver::new()
            .threads(2)
            .budget(BoundBudget::default())
            .run(&registry, &traces, &jobs)
            .unwrap();
        for (job, jr) in jobs.iter().zip(&sweep.jobs) {
            let source = SourceRef::Mem(&traces[0].1);
            let budget = Some(BoundBudget::default());
            let seq = run_report(&registry, &job.spec, source, job.seed, 1, budget).unwrap();
            assert_eq!(jr.report, seq);
            assert!(jr.report.opt.is_some());
        }
    }

    #[test]
    fn bounds_are_computed_only_for_referenced_traces() {
        // A sweep whose jobs touch only one of two traces: the unused
        // trace is enormous enough that computing its bound would
        // dominate the test's runtime budget — referencing it here by
        // accident shows up as a multi-second stall and a wrong
        // totals count, but the real assertion is that the used
        // trace's bound still arrives.
        let registry = default_registry();
        let mut big = AdmissionInstance::from_capacities(vec![1; 64]);
        for _ in 0..2000 {
            for e in 0..63u32 {
                big.push(Request::unit(fp(&[e, e + 1])));
            }
        }
        let traces = vec![("small".to_string(), hot_edge(4)), ("big".to_string(), big)];
        let start = std::time::Instant::now();
        let sweep = ShardedDriver::new()
            .threads(2)
            .budget(BoundBudget::default())
            .run(
                &registry,
                &traces,
                &cross_jobs(&["small"], &["greedy"], &[0]),
            )
            .unwrap();
        assert!(sweep.jobs[0].report.opt.is_some());
        assert_eq!(sweep.jobs[0].report.opt.as_ref().unwrap().kind, "exact");
        // Generous ceiling: the small trace's exact bound is
        // microseconds; the big trace's greedy bound alone takes far
        // longer if it is (wrongly) computed.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "unused trace's bound was computed ({}ms)",
            start.elapsed().as_millis()
        );
    }

    #[test]
    fn path_backed_sweep_matches_in_memory_sweep() {
        let registry = default_registry();
        let in_memory = traces();
        // Persist the same traces and reference them by path.
        let dir = std::env::temp_dir();
        let sources: Vec<(String, TraceSource)> = in_memory
            .iter()
            .map(|(name, inst)| {
                let path = dir.join(format!(
                    "acmr-shard-test-{}-{name}.trace",
                    std::process::id()
                ));
                std::fs::write(&path, acmr_workloads::trace::write_trace(inst)).unwrap();
                (name.clone(), TraceSource::Path(path))
            })
            .collect();

        let jobs = cross_jobs(&["hot4", "hot8"], &["greedy", "aag-weighted"], &[0, 7]);
        let reference = ShardedDriver::new()
            .threads(2)
            .batch(3)
            .budget(BoundBudget::default())
            .run(&registry, &in_memory, &jobs)
            .unwrap();
        let streamed = ShardedDriver::new()
            .threads(2)
            .batch(3)
            .budget(BoundBudget::default())
            .run_sources(&registry, &sources, &jobs)
            .unwrap();
        assert_eq!(streamed, reference, "path-backed sweep must be identical");
        // And byte-identical once serialized (the golden-corpus bar).
        assert_eq!(
            serde_json::to_string_pretty(&streamed).unwrap(),
            serde_json::to_string_pretty(&reference).unwrap()
        );

        // Mixed sources work too.
        let mixed: Vec<(String, TraceSource)> = vec![
            (
                "hot4".to_string(),
                TraceSource::InMemory(in_memory[0].1.clone()),
            ),
            ("hot8".to_string(), sources[1].1.clone()),
        ];
        let mixed_sweep = ShardedDriver::new()
            .threads(2)
            .batch(3)
            .budget(BoundBudget::default())
            .run_sources(&registry, &mixed, &jobs)
            .unwrap();
        assert_eq!(mixed_sweep, reference);

        // A missing file fails the sweep with a typed I/O error.
        let missing = vec![(
            "hot4".to_string(),
            TraceSource::Path(dir.join("acmr-shard-test-definitely-missing.trace")),
        )];
        let err = ShardedDriver::new()
            .run_sources(
                &registry,
                &missing,
                &cross_jobs(&["hot4"], &["greedy"], &[0]),
            )
            .unwrap_err();
        assert!(matches!(err, AcmrError::Io { .. }), "{err}");

        for (_, source) in sources {
            if let TraceSource::Path(path) = source {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    fn sweep_report_round_trips_through_json() {
        let registry = default_registry();
        let traces = traces();
        let jobs = cross_jobs(&["hot8"], &["greedy"], &[0]);
        let sweep = ShardedDriver::new()
            .threads(2)
            .batch(4)
            .run(&registry, &traces, &jobs)
            .unwrap();
        let json = serde_json::to_string_pretty(&sweep).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
    }

    #[test]
    fn bad_jobs_fail_fast_with_typed_errors() {
        let registry = default_registry();
        let traces = traces();
        let err = ShardedDriver::new()
            .run(&registry, &traces, &[SweepJob::new("nope", "greedy", 0)])
            .unwrap_err();
        assert!(err.to_string().contains("unknown trace"), "{err}");
        let err = ShardedDriver::new()
            .run(&registry, &traces, &[SweepJob::new("hot4", "wat", 0)])
            .unwrap_err();
        assert!(matches!(err, AcmrError::UnknownAlgorithm { .. }));
        let mut dup = traces;
        let extra = ("hot4".to_string(), hot_edge(2));
        dup.push(extra);
        let err = ShardedDriver::new().run(&registry, &dup, &[]).unwrap_err();
        assert!(err.to_string().contains("duplicate trace"), "{err}");
    }

    #[test]
    fn empty_job_list_is_an_empty_sweep() {
        let registry = default_registry();
        let sweep = ShardedDriver::new().run(&registry, &traces(), &[]).unwrap();
        assert!(sweep.jobs.is_empty());
        assert_eq!(sweep.totals, SweepTotals::default());
    }

    #[test]
    fn cross_jobs_orders_trace_major() {
        let jobs = cross_jobs(&["a", "b"], &["x"], &[1, 2]);
        let flat: Vec<(String, String, u64)> = jobs
            .into_iter()
            .map(|j| (j.trace, j.spec, j.seed))
            .collect();
        assert_eq!(
            flat,
            vec![
                ("a".into(), "x".into(), 1),
                ("a".into(), "x".into(), 2),
                ("b".into(), "x".into(), 1),
                ("b".into(), "x".into(), 2),
            ]
        );
    }
}
