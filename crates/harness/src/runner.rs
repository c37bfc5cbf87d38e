//! Audited drivers for online algorithms.
//!
//! The admission-control path is built on [`acmr_core::Session`] — the
//! streaming driver owns the audit and the statistics. The helpers here
//! add what only this crate can: the panic-on-violation referee
//! behavior experiments rely on ([`run_admission`]) and the one report
//! path from `(registry spec, trace)` to a [`RunReport`] with optional
//! offline-optimum context ([`run_report`]).

use crate::opt::{admission_opt, BoundBudget, OptBound};
use crate::shard::SourceRef;
use crate::stream::{streamed_admission_opt, StreamScan};
use acmr_core::setcover::{OnlineSetCover, SetSystem};
use acmr_core::{
    AcmrError, AdmissionInstance, AlgorithmSpec, OnlineAdmission, OptSummary, Registry,
    RequestSource as _, RunReport, Session,
};
use acmr_workloads::open_trace;

/// Result of replaying an admission-control algorithm over an instance.
#[derive(Clone, Debug)]
pub struct AdmissionRun {
    /// Final acceptance state per request.
    pub accepted: Vec<bool>,
    /// Total cost of rejected requests (the paper's objective).
    pub rejected_cost: f64,
    /// Number of rejected requests.
    pub rejected_count: usize,
    /// Number of preemptions (a preempted request is also rejected).
    pub preemptions: usize,
}

/// Drive `alg` over `inst` through a [`Session`], auditing feasibility
/// after every arrival.
///
/// # Panics
/// If the algorithm violates a capacity, preempts a request that is not
/// currently accepted, or otherwise breaks the online contract — the
/// harness treats those as algorithm bugs, not data. (Services that
/// must survive a misbehaving algorithm use [`Session::push`] directly
/// and handle the typed [`AcmrError`] instead.)
pub fn run_admission<A: OnlineAdmission>(alg: &mut A, inst: &AdmissionInstance) -> AdmissionRun {
    let mut session = Session::new(alg, &inst.capacities);
    for req in &inst.requests {
        if let Err(e) = session.push(req) {
            panic!("{e}");
        }
    }
    let accepted = session.accepted_mask();
    let stats = session.stats();
    AdmissionRun {
        rejected_cost: stats.rejected_cost,
        rejected_count: stats.rejected_count,
        preemptions: stats.preemptions,
        accepted,
    }
}

/// Run a registry-addressed algorithm over one trace and summarize it
/// as a [`RunReport`] — the one report path behind `acmr run`,
/// [`crate::ShardedDriver`] and the experiment tables.
///
/// * `base_seed` feeds randomized algorithms unless the spec string
///   carries its own `seed=`; the seed actually used is echoed in the
///   report.
/// * Arrivals reach the session in chunks of `batch` (at least 1). The
///   algorithms are online, so the report is identical for every batch
///   size; batching only amortizes the session's bookkeeping.
/// * With a `budget`, the report carries offline-optimum context. A
///   [`SourceRef::Mem`] instance is bounded by [`admission_opt`]. A
///   [`SourceRef::Path`] trace is bounded by the two-pass scheme of
///   [`crate::stream`]: a [`StreamScan`] observes the run's pass over
///   the file, and [`streamed_admission_opt`] reads it a second time.
///   Both give the same bound, so the reports are byte-identical.
pub fn run_report(
    registry: &Registry,
    spec: &str,
    source: SourceRef<'_>,
    base_seed: u64,
    batch: usize,
    budget: Option<BoundBudget>,
) -> Result<RunReport, AcmrError> {
    let spec = AlgorithmSpec::parse(spec)?;
    let (mut report, bound) = match source {
        SourceRef::Mem(inst) => {
            if batch == 0 {
                return Err(AcmrError::InvalidRequest {
                    reason: "batch size must be at least 1".to_string(),
                });
            }
            let mut session = Session::from_registry(registry, &spec, &inst.capacities, base_seed)?;
            let mut events = Vec::new();
            for chunk in inst.requests.chunks(batch) {
                session.push_batch_into(chunk, &mut events)?;
            }
            (session.report(), budget.map(|b| admission_opt(inst, b)))
        }
        SourceRef::Path(path) => {
            let reader = open_trace(path)?;
            let capacities = reader.capacities().to_vec();
            let mut session = Session::from_registry(registry, &spec, &capacities, base_seed)?;
            let mut scan = budget.map(|_| StreamScan::new(capacities.len()));
            let observed = reader.inspect(|item| {
                if let (Some(scan), Ok(r)) = (scan.as_mut(), item) {
                    scan.observe(r);
                }
            });
            let report = session.run_stream_batched(observed, batch)?;
            let bound = match (budget, &scan) {
                (Some(b), Some(scan)) => Some(streamed_admission_opt(open_trace(path)?, scan, b)?),
                _ => None,
            };
            (report, bound)
        }
    };
    if let Some(bound) = &bound {
        report.opt = Some(opt_summary(bound, report.rejected_cost));
    }
    Ok(report)
}

/// Summarize an [`OptBound`] against a run's rejected cost. The ratio
/// is `None` when unbounded (OPT bound 0 but a positive online cost).
pub fn opt_summary(bound: &OptBound, rejected_cost: f64) -> OptSummary {
    let ratio = bound.ratio(rejected_cost);
    OptSummary {
        value: bound.value,
        kind: bound.kind.label().to_string(),
        ratio: ratio.is_finite().then_some(ratio),
    }
}

/// Result of replaying an online set-cover algorithm.
#[derive(Clone, Debug)]
pub struct SetCoverRun {
    /// Total cost of bought sets.
    pub cost: f64,
    /// Number of bought sets.
    pub sets_bought: usize,
    /// Minimum of `coverage_j / k_j` over elements with `k_j > 0` at
    /// the end (≥ 1 for exact algorithms, ≥ `1−ε` for bicriteria).
    pub worst_coverage_ratio: f64,
}

/// Drive an online set-cover algorithm over an arrival sequence,
/// auditing the coverage contract after every arrival.
///
/// # Panics
/// If coverage ever falls below `alg.coverage_slack() · k_j` (with
/// integer rounding: `cover_j ≥ ceil(slack·k_j) − 1 + 1` is not
/// required; we check `cover_j ≥ slack·k_j` directly), or if a set is
/// bought twice.
pub fn run_set_cover<A: OnlineSetCover>(
    alg: &mut A,
    system: &SetSystem,
    arrivals: &[u32],
) -> SetCoverRun {
    assert!(
        system.arrivals_feasible(arrivals),
        "arrival sequence is uncoverable"
    );
    let slack = alg.coverage_slack();
    let mut bought = vec![false; system.num_sets()];
    let mut coverage = vec![0u32; system.num_elements()];
    let mut k = vec![0u32; system.num_elements()];
    let mut cost = 0.0;
    let mut sets_bought = 0usize;
    for &j in arrivals {
        k[j as usize] += 1;
        let new_sets = alg.on_arrival(j);
        for s in new_sets {
            assert!(!bought[s.index()], "{}: set {s:?} bought twice", alg.name());
            bought[s.index()] = true;
            sets_bought += 1;
            cost += system.cost(s);
            for &el in system.elements_of(s) {
                coverage[el as usize] += 1;
            }
        }
        for el in 0..system.num_elements() {
            let need = slack * k[el] as f64;
            assert!(
                coverage[el] as f64 >= need - 1e-9,
                "{}: element {el} covered {} < {need}",
                alg.name(),
                coverage[el]
            );
        }
    }
    let worst_coverage_ratio = (0..system.num_elements())
        .filter(|&el| k[el] > 0)
        .map(|el| coverage[el] as f64 / k[el] as f64)
        .fold(f64::INFINITY, f64::min);
    SetCoverRun {
        cost,
        sets_bought,
        worst_coverage_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_baselines::{GreedyNonPreemptive, NaiveOnlineCover};
    use acmr_core::setcover::SetSystem;
    use acmr_core::Request;
    use acmr_graph::{EdgeId, EdgeSet};

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn admission_run_counts() {
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        inst.push(Request::new(fp(&[0]), 2.0));
        inst.push(Request::new(fp(&[0]), 3.0));
        inst.push(Request::new(fp(&[0]), 4.0));
        let mut alg = GreedyNonPreemptive::new(&inst.capacities);
        let run = run_admission(&mut alg, &inst);
        assert_eq!(run.accepted, vec![true, false, false]);
        assert_eq!(run.rejected_cost, 7.0);
        assert_eq!(run.rejected_count, 2);
        assert_eq!(run.preemptions, 0);
    }

    #[test]
    fn set_cover_run_audits_coverage() {
        let system = SetSystem::unit(2, vec![vec![0], vec![1], vec![0, 1]]);
        let mut alg = NaiveOnlineCover::new(system.clone());
        let run = run_set_cover(&mut alg, &system, &[0, 1, 0]);
        assert!(run.worst_coverage_ratio >= 1.0);
        assert!(run.cost >= 2.0);
        assert_eq!(run.sets_bought as f64, run.cost); // unit costs
    }

    #[test]
    #[should_panic(expected = "uncoverable")]
    fn set_cover_rejects_infeasible_arrivals() {
        let system = SetSystem::unit(1, vec![vec![0]]);
        let mut alg = NaiveOnlineCover::new(system.clone());
        run_set_cover(&mut alg, &system, &[0, 0]);
    }

    #[test]
    fn run_report_echoes_seed_and_matches_run_admission() {
        let reg = crate::registry::default_registry();
        let mut inst = AdmissionInstance::from_capacities(vec![1, 1]);
        inst.push(Request::new(fp(&[0]), 2.0));
        inst.push(Request::new(fp(&[0, 1]), 3.0));
        inst.push(Request::new(fp(&[1]), 4.0));

        let report = run_report(&reg, "greedy", SourceRef::Mem(&inst), 0, 1, None).unwrap();
        assert_eq!(report.algorithm, "greedy");
        assert_eq!(report.seed, Some(0));
        assert!(report.opt.is_none(), "no budget, no bound");
        let mut alg = GreedyNonPreemptive::new(&inst.capacities);
        let run = run_admission(&mut alg, &inst);
        assert_eq!(report.rejected_cost, run.rejected_cost);
        assert_eq!(report.rejected_count, run.rejected_count);
        assert_eq!(report.preemptions, run.preemptions);
    }

    #[test]
    fn run_report_is_identical_for_every_batch_size() {
        let reg = crate::registry::default_registry();
        let mut inst = AdmissionInstance::from_capacities(vec![2, 2]);
        for i in 0..10u32 {
            let fp = if i % 2 == 0 { fp(&[0]) } else { fp(&[0, 1]) };
            inst.push(Request::new(fp, 1.0 + (i % 3) as f64));
        }
        let budget = Some(BoundBudget::default());
        for spec in ["greedy", "aag-weighted?seed=5", "random-preempt"] {
            let per_arrival = run_report(&reg, spec, SourceRef::Mem(&inst), 2, 1, None).unwrap();
            for batch in [3usize, 64] {
                let batched =
                    run_report(&reg, spec, SourceRef::Mem(&inst), 2, batch, None).unwrap();
                assert_eq!(batched, per_arrival, "{spec} batch {batch}");
            }
            let with_opt = run_report(&reg, spec, SourceRef::Mem(&inst), 2, 1, budget).unwrap();
            let batched = run_report(&reg, spec, SourceRef::Mem(&inst), 2, 4, budget).unwrap();
            assert_eq!(batched, with_opt, "{spec} with opt");
        }
        let err = run_report(&reg, "greedy", SourceRef::Mem(&inst), 0, 0, None).unwrap_err();
        assert!(err.to_string().contains("batch size"), "{err}");
    }

    #[test]
    fn run_report_attaches_opt_and_ratio() {
        let reg = crate::registry::default_registry();
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        inst.push(Request::new(fp(&[0]), 2.0));
        inst.push(Request::new(fp(&[0]), 3.0));
        let budget = Some(BoundBudget::default());
        let report = run_report(&reg, "greedy", SourceRef::Mem(&inst), 0, 1, budget).unwrap();
        let opt = report.opt.as_ref().expect("opt attached");
        assert_eq!(opt.kind, "exact");
        assert!((opt.value - 2.0).abs() < 1e-9);
        assert!(opt.ratio.unwrap() >= 1.0);
        assert!(report.ratio().unwrap() >= 1.0);
    }

    #[test]
    fn run_report_rejects_unknown_algorithms_with_typed_error() {
        let reg = crate::registry::default_registry();
        let inst = AdmissionInstance::from_capacities(vec![1]);
        let source = SourceRef::Mem(&inst);
        let err = run_report(&reg, "nope", source, 0, 1, Some(BoundBudget::default())).unwrap_err();
        assert!(matches!(err, AcmrError::UnknownAlgorithm { .. }));
        let err = run_report(&reg, "bad spec!", source, 0, 1, None).unwrap_err();
        assert!(matches!(err, AcmrError::SpecParse { .. }));
    }

    #[test]
    fn opt_summary_ratio_is_none_only_when_unbounded() {
        let bound = OptBound {
            value: 0.0,
            kind: crate::opt::OptBoundKind::Exact,
        };
        assert_eq!(opt_summary(&bound, 0.0).ratio, Some(1.0));
        assert_eq!(opt_summary(&bound, 5.0).ratio, None);
        let bound = OptBound {
            value: 2.0,
            kind: crate::opt::OptBoundKind::LpLowerBound,
        };
        assert_eq!(opt_summary(&bound, 5.0).ratio, Some(2.5));
        assert_eq!(opt_summary(&bound, 5.0).kind, "lp-lower-bound");
    }
}
