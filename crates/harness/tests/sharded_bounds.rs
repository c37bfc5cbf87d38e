//! Theorem envelopes re-checked through the **batch path**: the same
//! competitive-ratio bounds `acmr-core`'s `theorem_bounds.rs` asserts
//! against hand-driven algorithm loops are asserted here against
//! `ShardedDriver` output — rejections measured from audited
//! `RunReport`s produced via `Session::push_batch_into`, OPT context
//! attached by the driver's shared per-trace bounds. A batch-layer bug
//! that preserved event equality but broke cost accounting, or a
//! driver bug that attached the wrong trace's bound, fails here.

use acmr_core::AdmissionInstance;
use acmr_harness::{cross_jobs, default_registry, BoundBudget, ShardedDriver, SweepJob};
use acmr_workloads::{dyadic_admission_instance, repeated_hot_edge, two_phase_squeeze};

/// Theorem 4 (unweighted) through the driver: on the hot-edge family
/// (exact OPT = total − c) the mean ratio of `aag-unweighted` over
/// seeds stays within O(log m · log c), for every batch size tried.
#[test]
fn theorem4_envelope_via_sharded_driver_on_hot_edge() {
    let registry = default_registry();
    let m = 16u32;
    for &c in &[4u32, 16] {
        let total = 3 * c;
        let inst = repeated_hot_edge(m, c, total);
        let opt = (total - c) as f64;
        let traces = vec![("hot".to_string(), inst)];
        let seeds: Vec<u64> = (0..8).collect();
        let jobs = cross_jobs(&["hot"], &["aag-unweighted"], &seeds);
        for batch in [1usize, 8, 64] {
            let sweep = ShardedDriver::new()
                .threads(2)
                .batch(batch)
                .budget(BoundBudget::default())
                .run(&registry, &traces, &jobs)
                .unwrap();
            // The driver's shared bound must be the exact closed form.
            for job in &sweep.jobs {
                let bound = job.report.opt.as_ref().expect("opt attached");
                assert_eq!(bound.kind, "exact");
                assert!(
                    (bound.value - opt).abs() < 1e-9,
                    "c={c}: opt {}",
                    bound.value
                );
            }
            let mean_ratio = sweep.totals.rejected_cost / seeds.len() as f64 / opt;
            let envelope = 10.0 * (m as f64).ln() * (c as f64).ln().max(1.0) + 10.0;
            assert!(
                mean_ratio <= envelope,
                "c={c} batch={batch}: mean ratio {mean_ratio} > {envelope}"
            );
        }
    }
}

/// Theorem 3 (weighted, O(log²(mc))) through the driver: on
/// preemption-heavy hostile traces the per-job conservative ratio the
/// driver reports stays inside the envelope with explicit constants.
#[test]
fn weighted_envelope_via_sharded_driver_on_hostile_traces() {
    let registry = default_registry();
    let traces: Vec<(String, AdmissionInstance)> = vec![
        ("squeeze".to_string(), two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic".to_string(), dyadic_admission_instance(4, 3, 2)),
    ];
    let jobs = cross_jobs(&["squeeze", "dyadic"], &["aag-weighted"], &[0, 1, 2, 3]);
    let sweep = ShardedDriver::new()
        .threads(3)
        .batch(8)
        .budget(BoundBudget::default())
        .run(&registry, &traces, &jobs)
        .unwrap();
    assert_eq!(sweep.jobs.len(), 8);
    for job in &sweep.jobs {
        let inst = &traces.iter().find(|(n, _)| *n == job.trace).unwrap().1;
        let m = inst.num_edges() as f64;
        let c = inst.max_capacity() as f64;
        let envelope = 30.0 * (m * c).ln().powi(2).max(1.0);
        let ratio = job
            .report
            .ratio()
            .expect("hostile traces overload, so the ratio is finite");
        assert!(
            ratio <= envelope,
            "{} seed {:?}: ratio {ratio} > O(log²(mc)) envelope {envelope}",
            job.trace,
            job.report.seed
        );
    }
}

/// The motivating zero-rejection regime survives the batch path: an
/// under-loaded trace must report zero rejected cost through the
/// driver, for the paper's algorithms and every batch size.
#[test]
fn zero_rejection_regime_stays_zero_through_driver() {
    let registry = default_registry();
    // total = c: nothing ever needs to be rejected.
    let inst = repeated_hot_edge(8, 6, 6);
    assert_eq!(inst.max_excess(), 0);
    let traces = vec![("calm".to_string(), inst)];
    let jobs: Vec<SweepJob> = cross_jobs(&["calm"], &["aag-unweighted", "aag-weighted"], &[0, 9]);
    for batch in [1usize, 4, 32] {
        let sweep = ShardedDriver::new()
            .threads(2)
            .batch(batch)
            .run(&registry, &traces, &jobs)
            .unwrap();
        assert_eq!(
            sweep.totals.rejected_cost, 0.0,
            "batch {batch}: rejected despite zero OPT"
        );
        assert_eq!(sweep.totals.requests, 6 * jobs.len());
    }
}
