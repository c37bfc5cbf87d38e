//! Cluster differential suite: **cluster ≡ sharded ≡ sequential**.
//!
//! The cross-process [`ClusterDriver`] must produce the *byte
//! identical* serde-serialized [`SweepReport`] the thread-level
//! [`ShardedDriver`] produces — and both must agree job for job with
//! the sequential runners — for every algorithm in the default
//! registry (enumerated, never hard-coded), over:
//!
//! * the committed golden corpus traces (`tests/golden/*.trace`, the
//!   same eight files the golden regression suite pins),
//! * hostile adversarial families, and
//! * random proptest-chosen workloads.
//!
//! Workers are real `acmr serve` servers on loopback sockets (spawned
//! in-process so the suite stays hermetic and fast — the wire path is
//! identical to a separate process; `tests/cluster_cli.rs` covers
//! genuinely separate worker processes with the real binaries).

use acmr_core::AdmissionInstance;
use acmr_harness::{
    cross_jobs, default_registry, BoundBudget, ClusterDriver, ShardedDriver, SweepJob, TraceSource,
};
use acmr_serve::{serve, ServeConfig, ServerHandle, WorkerPool};
use acmr_workloads::trace::{read_trace, write_trace};
use acmr_workloads::{
    dyadic_admission_instance, nested_intervals, random_path_workload, repeated_hot_edge,
    two_phase_squeeze, CostModel, PathWorkloadSpec, Topology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed fan-out width: the sharded arm uses this many threads
/// and the cluster arm this many workers, so the reports' `threads`
/// field — and therefore the whole JSON — can be compared byte for
/// byte.
const WIDTH: usize = 2;
const BATCH: usize = 16;

fn start_workers(count: usize) -> (Vec<ServerHandle>, WorkerPool) {
    let handles: Vec<ServerHandle> = (0..count)
        .map(|_| {
            serve(
                default_registry(),
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    ..ServeConfig::default()
                },
            )
            .expect("bind loopback worker")
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();
    let pool = WorkerPool::connect(&addrs).expect("adopt loopback workers");
    (handles, pool)
}

/// Run the three arms over the same traces/jobs and assert
/// cluster ≡ sharded byte-for-byte and sharded ≡ sequential job by
/// job.
fn assert_three_way(
    traces: &[(String, AdmissionInstance)],
    jobs: &[SweepJob],
    budget: Option<BoundBudget>,
    context: &str,
) {
    let registry = default_registry();
    let (handles, pool) = start_workers(WIDTH);

    let mut sharded_driver = ShardedDriver::new().threads(WIDTH).batch(BATCH);
    let mut cluster_driver = ClusterDriver::new(&pool).batch(BATCH);
    if let Some(budget) = budget {
        sharded_driver = sharded_driver.budget(budget);
        cluster_driver = cluster_driver.budget(budget);
    }

    let sharded = sharded_driver
        .run(&registry, traces, jobs)
        .expect("sharded sweep");
    let cluster = cluster_driver.run(traces, jobs).expect("cluster sweep");

    // The headline assertion: the serialized sweep reports are byte
    // identical — jobs, totals, batch, fan-out width, OPT context.
    assert_eq!(cluster, sharded, "{context}: cluster diverges from sharded");
    assert_eq!(
        serde_json::to_string_pretty(&cluster).unwrap(),
        serde_json::to_string_pretty(&sharded).unwrap(),
        "{context}: serialized sweep reports differ"
    );

    // And sharded agrees with the sequential per-job runners, so the
    // chain closes: cluster ≡ sharded ≡ sequential.
    for (job, jr) in jobs.iter().zip(&sharded.jobs) {
        let inst = &traces.iter().find(|(n, _)| *n == job.trace).unwrap().1;
        let source = acmr_harness::SourceRef::Mem(inst);
        let sequential =
            acmr_harness::run_report(&registry, &job.spec, source, job.seed, 1, budget)
                .expect("sequential run");
        assert_eq!(
            jr.report, sequential,
            "{context}: sharded job {job:?} diverges from sequential"
        );
    }

    for handle in handles {
        handle.shutdown();
    }
}

fn golden_traces() -> Vec<(String, AdmissionInstance)> {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"));
    let mut traces = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("golden corpus directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    names.sort();
    for path in names {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("read golden trace");
        traces.push((name, read_trace(&text).expect("parse golden trace")));
    }
    assert!(
        traces.len() >= 8,
        "golden corpus shrank: {} traces",
        traces.len()
    );
    traces
}

#[test]
fn cluster_equals_sharded_equals_sequential_on_the_golden_corpus() {
    // Every registered algorithm over every committed golden trace —
    // the same corpus the golden suite pins the sharded driver on.
    let traces = golden_traces();
    let registry = default_registry();
    let trace_names: Vec<&str> = traces.iter().map(|(n, _)| n.as_str()).collect();
    let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let jobs = cross_jobs(&trace_names, &spec_refs, &[7]);
    assert_three_way(&traces, &jobs, None, "golden corpus");
}

#[test]
fn cluster_attaches_the_same_local_opt_bounds_as_sharded() {
    // With a bound budget, the cluster's locally computed per-trace
    // OPT context must match the sharded driver's — and the
    // sequential `run_report`'s — exactly, competitive ratios and
    // bound kinds included.
    let traces = vec![
        ("nested".to_string(), nested_intervals(16, 2, 2, 2)),
        ("hot-edge".to_string(), repeated_hot_edge(4, 3, 12)),
    ];
    let registry = default_registry();
    let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let jobs = cross_jobs(&["nested", "hot-edge"], &spec_refs, &[0, 3]);
    assert_three_way(
        &traces,
        &jobs,
        Some(BoundBudget::default()),
        "opt-bound parity",
    );
}

#[test]
fn cluster_streams_path_backed_traces_identically() {
    // Path-backed sources: the cluster replays the trace file chunk
    // by chunk onto the wire; reports must still be byte-identical to
    // the sharded path-backed sweep.
    let in_memory = [
        ("squeeze".to_string(), two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic".to_string(), dyadic_admission_instance(4, 3, 2)),
    ];
    let dir = std::env::temp_dir();
    let sources: Vec<(String, TraceSource)> = in_memory
        .iter()
        .map(|(name, inst)| {
            let path = dir.join(format!(
                "acmr-cluster-diff-{}-{name}.trace",
                std::process::id()
            ));
            std::fs::write(&path, write_trace(inst)).unwrap();
            (name.clone(), TraceSource::Path(path))
        })
        .collect();

    let registry = default_registry();
    let jobs = cross_jobs(
        &["squeeze", "dyadic"],
        &["greedy", "aag-weighted", "random-preempt"],
        &[0, 5],
    );
    let (handles, pool) = start_workers(WIDTH);
    let sharded = ShardedDriver::new()
        .threads(WIDTH)
        .batch(BATCH)
        .budget(BoundBudget::default())
        .run_sources(&registry, &sources, &jobs)
        .expect("sharded path-backed sweep");
    let cluster = ClusterDriver::new(&pool)
        .batch(BATCH)
        .budget(BoundBudget::default())
        .run_sources(&sources, &jobs)
        .expect("cluster path-backed sweep");
    assert_eq!(cluster, sharded);
    assert_eq!(
        serde_json::to_string_pretty(&cluster).unwrap(),
        serde_json::to_string_pretty(&sharded).unwrap()
    );

    // A missing trace file is the same typed I/O error the sharded
    // driver surfaces — not a retry storm, not a cluster error.
    let missing = vec![(
        "squeeze".to_string(),
        TraceSource::Path(dir.join("acmr-cluster-diff-definitely-missing.trace")),
    )];
    let err = ClusterDriver::new(&pool)
        .run_sources(&missing, &cross_jobs(&["squeeze"], &["greedy"], &[0]))
        .unwrap_err();
    assert!(
        matches!(&err, acmr_core::AcmrError::Io { message } if message.contains("missing")),
        "{err}"
    );

    for (_, source) in sources {
        if let TraceSource::Path(path) = source {
            let _ = std::fs::remove_file(path);
        }
    }
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn cluster_report_is_stable_across_worker_counts() {
    // Like the sharded driver's thread count, the worker count is a
    // wall-clock knob only: job reports and totals must not change.
    // (The `threads` field records the fan-out width, so compare the
    // payload, not the whole struct.)
    let traces = vec![("hot".to_string(), repeated_hot_edge(4, 3, 12))];
    let jobs = cross_jobs(&["hot"], &["greedy", "aag-unweighted"], &[0, 1, 2]);
    let mut reference: Option<acmr_harness::SweepReport> = None;
    for workers in [1, 3] {
        let (handles, pool) = start_workers(workers);
        let sweep = ClusterDriver::new(&pool)
            .batch(5)
            .run(&traces, &jobs)
            .expect("cluster sweep");
        assert_eq!(sweep.threads, workers);
        if let Some(reference) = &reference {
            assert_eq!(sweep.jobs, reference.jobs, "workers {workers}");
            assert_eq!(sweep.totals, reference.totals, "workers {workers}");
        } else {
            reference = Some(sweep);
        }
        for handle in handles {
            handle.shutdown();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random and hostile proptest traces: for every registered
    /// algorithm, cluster ≡ sharded ≡ sequential, byte-identical
    /// serialized reports.
    #[test]
    fn cluster_differential_holds_on_random_and_hostile_traces(
        seed in 0u64..500,
        topology in prop_oneof![Just("line"), Just("grid")],
        weighted in prop_oneof![Just(true), Just(false)],
        hostile in prop_oneof![Just("nested"), Just("hot-edge"), Just("squeeze")],
    ) {
        let spec = PathWorkloadSpec {
            topology: match topology {
                "grid" => Topology::Grid { rows: 3, cols: 3 },
                _ => Topology::Line { m: 10 },
            },
            capacity: 2,
            overload: 2.0,
            costs: if weighted {
                CostModel::Zipf { n_values: 16, s: 1.1 }
            } else {
                CostModel::Unit
            },
            max_hops: 4,
        };
        let (_, random) = random_path_workload(&spec, &mut StdRng::seed_from_u64(seed));
        let hostile_inst = match hostile {
            "nested" => nested_intervals(8, 2, 2, 2),
            "hot-edge" => repeated_hot_edge(4, 2, 9),
            _ => two_phase_squeeze(8, 2, 3, 2),
        };
        let traces = vec![
            ("random".to_string(), random),
            ("hostile".to_string(), hostile_inst),
        ];
        let registry = default_registry();
        let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
        let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let jobs = cross_jobs(&["random", "hostile"], &spec_refs, &[seed]);
        assert_three_way(&traces, &jobs, None, &format!("proptest seed {seed}"));
    }
}
