//! The two-pass offline-optimum bound for traces that are never
//! materialized in memory.
//!
//! A streamed run (`acmr_core::Session::run_stream_batched`) needs no
//! help from this crate — but a *complete* report also carries the
//! offline-optimum bound, and the covering program behind that bound is
//! an instance-level object. This module closes the gap with a
//! **two-pass** scheme:
//!
//! 1. **Pass 1** drives the algorithm while a [`StreamScan`] observes
//!    each arrival in `O(m)` memory: per-edge arrival counts, the
//!    cheapest cost, and the request count.
//! 2. **Pass 2** re-streams the trace and materializes only what the
//!    covering program actually needs: every request's cost (`O(n)`
//!    floats) plus membership lists **restricted to the edges pass 1
//!    proved over-subscribed** — on typical workloads a small fraction
//!    of the full footprint set an in-memory
//!    [`acmr_core::AdmissionInstance`] would hold.
//!
//! The program pass 2 builds is *identical* (same items, same rows,
//! same order) to what [`crate::admission_covering_problem`] builds
//! from the materialized instance, so [`crate::run_report`] over a
//! [`crate::SourceRef::Path`] produces bounds — and therefore reports —
//! byte-identical to the in-memory [`crate::SourceRef::Mem`] path. The
//! differential and CLI suites pin this.
//!
//! A one-shot source (`acmr run --stream -` on stdin) is first copied
//! to a spill file by the CLI, so both passes read a file.

use crate::opt::{BoundBudget, OptBound};
use acmr_core::{AcmrError, Request, RequestSource};
use acmr_lp::CoveringProblem;
use acmr_workloads::open_trace;
use std::path::Path;

/// Pass-1 observation of an arrival stream: everything the two-pass
/// OPT bound needs to know before deciding which footprints pass 2
/// must keep. `O(m)` memory, independent of the stream length.
#[derive(Clone, Debug)]
pub struct StreamScan {
    /// Arrivals touching each edge (the paper's `|REQ_e|`).
    counts: Vec<u64>,
    /// Cheapest request cost seen (`+∞` on an empty stream).
    cheapest: f64,
    /// Requests observed.
    requests: usize,
}

impl StreamScan {
    /// An empty scan over `num_edges` edges.
    pub fn new(num_edges: usize) -> Self {
        StreamScan {
            counts: vec![0; num_edges],
            cheapest: f64::INFINITY,
            requests: 0,
        }
    }

    /// Observe one arrival.
    pub fn observe(&mut self, r: &Request) {
        for e in r.footprint.iter() {
            self.counts[e.index()] += 1;
        }
        self.cheapest = self.cheapest.min(r.cost);
        self.requests += 1;
    }

    /// Requests observed so far.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Final excess `Q = max_e (|REQ_e| − c_e)`, clamped at 0 — the
    /// streaming equivalent of
    /// [`acmr_core::AdmissionInstance::max_excess`].
    pub fn max_excess(&self, capacities: &[u32]) -> u64 {
        self.counts
            .iter()
            .zip(capacities)
            .map(|(&l, &c)| l.saturating_sub(c as u64))
            .max()
            .unwrap_or(0)
    }
}

/// Drain `source` into a fresh [`StreamScan`] without running any
/// algorithm — the bound-only pass the sharded driver uses for
/// path-backed traces. Generic over [`RequestSource`], so text and
/// binary readers scan identically.
pub fn scan_trace<S: RequestSource>(mut source: S) -> Result<StreamScan, AcmrError> {
    let mut scan = StreamScan::new(source.capacities().len());
    while let Some(r) = source.next_request()? {
        scan.observe(&r);
    }
    Ok(scan)
}

/// Pass 2 of the two-pass OPT bound: re-stream the trace and compute
/// the same [`OptBound`] that [`crate::admission_opt`] computes from a
/// materialized instance, holding only every request's cost plus
/// membership lists for the edges `scan` proved over-subscribed.
///
/// Errors with [`AcmrError::InvalidRequest`] if the stream does not
/// match the scan (different edge universe or request count — i.e. the
/// trace changed between passes).
pub fn streamed_admission_opt<S: RequestSource>(
    mut reader: S,
    scan: &StreamScan,
    budget: BoundBudget,
) -> Result<OptBound, AcmrError> {
    let capacities = reader.capacities().to_vec();
    if capacities.len() != scan.counts.len() {
        return Err(AcmrError::InvalidRequest {
            reason: format!(
                "trace changed between passes: {} edges on pass 2, {} on pass 1",
                capacities.len(),
                scan.counts.len()
            ),
        });
    }
    // Only edges the scan proved over-subscribed can produce a row;
    // everything else's memberships are dropped at the door.
    let mut row_of_edge: Vec<Option<usize>> = vec![None; capacities.len()];
    let mut rows: Vec<Vec<usize>> = Vec::new();
    for (e, (&count, &cap)) in scan.counts.iter().zip(&capacities).enumerate() {
        if count > cap as u64 {
            row_of_edge[e] = Some(rows.len());
            rows.push(Vec::new());
        }
    }
    let mut costs: Vec<f64> = Vec::new();
    while let Some(r) = reader.next_request()? {
        let idx = costs.len();
        for e in r.footprint.iter() {
            if let Some(slot) = row_of_edge[e.index()] {
                rows[slot].push(idx);
            }
        }
        costs.push(r.cost);
    }
    if costs.len() != scan.requests {
        return Err(AcmrError::InvalidRequest {
            reason: format!(
                "trace changed between passes: {} requests on pass 2, {} on pass 1",
                costs.len(),
                scan.requests
            ),
        });
    }
    // Assemble in edge order, exactly like `admission_covering_problem`.
    let mut problem = CoveringProblem::new(costs);
    for (e, slot) in row_of_edge.iter().enumerate() {
        if let Some(slot) = slot {
            let members = std::mem::take(&mut rows[*slot]);
            // Pass 1 proved this edge over-subscribed; if pass 2 no
            // longer agrees, the footprints changed under us (the
            // edge/request-count checks alone cannot catch this).
            let Some(demand @ 1..) = members.len().checked_sub(capacities[e] as usize) else {
                return Err(AcmrError::InvalidRequest {
                    reason: format!(
                        "trace changed between passes: edge {e} was over-subscribed on pass 1 \
                         but has only {} requests for capacity {} on pass 2",
                        members.len(),
                        capacities[e]
                    ),
                });
            };
            problem.push_row(members, demand as u32);
        }
    }
    let q = scan.max_excess(&capacities) as f64;
    let trivial = if scan.cheapest.is_finite() {
        q * scan.cheapest
    } else {
        0.0
    };
    Ok(OptBound::compute(&problem, budget, trivial))
}

/// The two-pass bound for a trace file of either format (the leading
/// magic is sniffed, see [`open_trace`]): scan, then
/// [`streamed_admission_opt`]. Opens the file twice; equals
/// [`crate::admission_opt`] on the materialized instance.
pub fn admission_opt_from_path(
    path: impl AsRef<Path>,
    budget: BoundBudget,
) -> Result<OptBound, AcmrError> {
    let path = path.as_ref();
    let scan = scan_trace(open_trace(path)?)?;
    streamed_admission_opt(open_trace(path)?, &scan, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::admission_opt;
    use crate::registry::default_registry;
    use crate::runner::run_report;
    use crate::shard::SourceRef;
    use acmr_core::AdmissionInstance;
    use acmr_workloads::trace::{write_trace, TraceReader};
    use acmr_workloads::{nested_intervals, repeated_hot_edge, two_phase_squeeze};
    use std::path::PathBuf;

    fn traces() -> Vec<AdmissionInstance> {
        vec![
            nested_intervals(12, 2, 2, 2),
            repeated_hot_edge(4, 3, 12),
            two_phase_squeeze(12, 3, 4, 3),
        ]
    }

    #[test]
    fn streamed_opt_equals_in_memory_opt() {
        for inst in traces() {
            let text = write_trace(&inst);
            let reference = admission_opt(&inst, BoundBudget::default());
            let scan = scan_trace(TraceReader::new(text.as_bytes()).unwrap()).unwrap();
            assert_eq!(scan.requests(), inst.requests.len());
            assert_eq!(scan.max_excess(&inst.capacities), inst.max_excess() as u64);
            let streamed = streamed_admission_opt(
                TraceReader::new(text.as_bytes()).unwrap(),
                &scan,
                BoundBudget::default(),
            )
            .unwrap();
            assert_eq!(streamed.kind, reference.kind);
            assert_eq!(streamed.value.to_bits(), reference.value.to_bits());
        }
    }

    /// A trace file under the OS temp directory, removed on drop.
    struct TempTrace(PathBuf);

    impl TempTrace {
        fn new(name: &str, contents: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "acmr-stream-test-{}-{name}.trace",
                std::process::id()
            ));
            std::fs::write(&path, contents).unwrap();
            TempTrace(path)
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn path_report_is_identical_to_in_memory_report() {
        let registry = default_registry();
        let budget = Some(BoundBudget::default());
        for (i, inst) in traces().iter().enumerate() {
            let file = TempTrace::new(&format!("report-{i}"), &write_trace(inst));
            for spec in ["greedy", "aag-weighted?seed=5"] {
                for (batch, budget) in [(1, budget), (5, budget), (3, None)] {
                    let reference =
                        run_report(&registry, spec, SourceRef::Mem(inst), 2, batch, budget)
                            .unwrap();
                    let streamed =
                        run_report(&registry, spec, SourceRef::Path(&file.0), 2, batch, budget)
                            .unwrap();
                    assert_eq!(streamed, reference, "{spec} batch {batch}");
                    // And through serde: byte-identical JSON.
                    assert_eq!(
                        serde_json::to_string_pretty(&streamed).unwrap(),
                        serde_json::to_string_pretty(&reference).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn path_bound_matches_in_memory_bound() {
        let inst = repeated_hot_edge(4, 3, 12);
        let file = TempTrace::new("bound", &write_trace(&inst));
        let bound = admission_opt_from_path(&file.0, BoundBudget::default()).unwrap();
        let mem_bound = admission_opt(&inst, BoundBudget::default());
        assert_eq!(bound.kind, mem_bound.kind);
        assert_eq!(bound.value.to_bits(), mem_bound.value.to_bits());
    }

    #[test]
    fn malformed_stream_surfaces_typed_parse_error() {
        let registry = default_registry();
        let bad = TempTrace::new(
            "malformed",
            "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 2\n1 0\nwat 0\n",
        );
        for budget in [Some(BoundBudget::default()), None] {
            let err =
                run_report(&registry, "greedy", SourceRef::Path(&bad.0), 0, 1, budget).unwrap_err();
            assert!(
                matches!(err, AcmrError::TraceParse { line: 6, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn changed_trace_between_passes_is_detected() {
        let a = write_trace(&repeated_hot_edge(4, 3, 12));
        let b = write_trace(&repeated_hot_edge(4, 3, 10));
        let scan = scan_trace(TraceReader::new(a.as_bytes()).unwrap()).unwrap();
        let err = streamed_admission_opt(
            TraceReader::new(b.as_bytes()).unwrap(),
            &scan,
            BoundBudget::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("changed between passes"), "{err}");

        // Same edge universe, same request count, different footprints:
        // the count checks can't see it, the per-row demand check must.
        let mk = |edge: u32| {
            let mut inst = AdmissionInstance::from_capacities(vec![1, 1]);
            for _ in 0..3 {
                inst.push(acmr_core::Request::unit(acmr_graph::EdgeSet::singleton(
                    acmr_graph::EdgeId(edge),
                )));
            }
            write_trace(&inst)
        };
        let scan = scan_trace(TraceReader::new(mk(0).as_bytes()).unwrap()).unwrap();
        let err = streamed_admission_opt(
            TraceReader::new(mk(1).as_bytes()).unwrap(),
            &scan,
            BoundBudget::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("changed between passes"), "{err}");
    }
}
