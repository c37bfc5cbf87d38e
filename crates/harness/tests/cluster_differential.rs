//! Cluster differential suite: **cluster ≡ sharded ≡ sequential**.
//!
//! The cross-process [`ClusterDriver`] must produce the *byte
//! identical* serde-serialized [`SweepReport`] the thread-level
//! [`ShardedDriver`] produces — and both must agree job for job with
//! the sequential runners — for every algorithm in the default
//! registry (enumerated, never hard-coded), over:
//!
//! * the committed golden corpus traces (`tests/golden/*.trace`, the
//!   same files the golden regression suite pins),
//! * hostile adversarial families, and
//! * random proptest-chosen workloads.
//!
//! Workers are real `acmr serve` servers on loopback sockets (spawned
//! in-process so the suite stays hermetic and fast — the wire path is
//! identical to a separate process; `tests/cluster_cli.rs` covers
//! genuinely separate worker processes with the real binaries).

use acmr_core::{AdmissionInstance, Request};
use acmr_harness::{
    cross_jobs, default_registry, BoundBudget, ClusterDriver, ShardedDriver, SweepJob, TraceSource,
};
use acmr_serve::protocol::MAX_BATCH;
use acmr_serve::{serve, ServeConfig, ServerHandle, WorkerPool};
use acmr_workloads::trace::{read_trace, write_trace};
use acmr_workloads::{
    dyadic_admission_instance, encode_record_into, nested_intervals, random_path_workload,
    repeated_hot_edge, two_phase_squeeze, write_bin_trace, BinTraceMap, CostModel,
    PathWorkloadSpec, Topology,
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
    // Path-backed sources: the cluster replays a text trace file chunk
    // by chunk onto the wire and forwards a binary one's records as
    // they are; reports must still be byte-identical to the sharded
    // path-backed sweep, with and without bounds, at every batch size.
    let wide = wide_footprints();
    let in_memory = [
        ("squeeze".to_string(), two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic".to_string(), dyadic_admission_instance(4, 3, 2)),
    ];
    let dir = std::env::temp_dir();
    let path = |name: &str| dir.join(format!("acmr-cluster-diff-{}-{name}", std::process::id()));
    let mut sources: Vec<(String, TraceSource)> = Vec::new();
    for (name, inst) in &in_memory {
        let text = path(&format!("{name}.trace"));
        std::fs::write(&text, write_trace(inst)).unwrap();
        sources.push((name.clone(), TraceSource::Path(text)));
        let binary = path(&format!("{name}.bin"));
        std::fs::write(&binary, write_bin_trace(inst)).unwrap();
        sources.push((format!("{name}-bin"), TraceSource::Path(binary)));
    }
    let binary = path("wide.bin");
    std::fs::write(&binary, write_bin_trace(&wide)).unwrap();
    sources.push(("wide-bin".to_string(), TraceSource::Path(binary)));

    let registry = default_registry();
    let names: Vec<&str> = sources.iter().map(|(n, _)| n.as_str()).collect();
    let jobs = cross_jobs(
        &names,
        &["greedy", "aag-weighted", "random-preempt"],
        &[0, 5],
    );
    let (handles, pool) = start_workers(WIDTH);
    for budget in [None, Some(BoundBudget::default())] {
        for batch in [1, BATCH, MAX_BATCH] {
            let mut sharded = ShardedDriver::new().threads(WIDTH).batch(batch);
            let mut cluster = ClusterDriver::new(&pool).batch(batch);
            if let Some(budget) = budget {
                sharded = sharded.budget(budget);
                cluster = cluster.budget(budget);
            }
            let sharded = sharded
                .run_sources(&registry, &sources, &jobs)
                .expect("sharded path-backed sweep");
            let cluster = cluster
                .run_sources(&sources, &jobs)
                .expect("cluster path-backed sweep");
            let context = format!("budget {budget:?}, batch {batch}");
            assert_eq!(cluster, sharded, "{context}");
            assert_eq!(
                serde_json::to_string_pretty(&cluster).unwrap(),
                serde_json::to_string_pretty(&sharded).unwrap(),
                "{context}"
            );
        }
    }

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

/// A trace whose footprints reach past the five edges an `EdgeSet`
/// holds inline, so its records decode into boxed sets.
fn wide_footprints() -> AdmissionInstance {
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m: 24 },
        capacity: 2,
        overload: 2.0,
        costs: CostModel::Zipf {
            n_values: 16,
            s: 1.1,
        },
        max_hops: 12,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(11));
    assert!(
        inst.requests.iter().any(|r| r.footprint.len() > 5),
        "no footprint wider than 5 edges"
    );
    inst
}

#[test]
fn forwarded_records_are_the_encoding_of_the_decoded_requests() {
    // The oracle behind record forwarding: for every golden-corpus
    // trace (plus a wide-footprint one) and several batch sizes, each
    // slice `next_records` hands a job is exactly `encode_record_into`
    // of the requests the cursor decodes at the same place.
    let mut traces = golden_traces();
    traces.push(("wide".to_string(), wide_footprints()));
    for (name, inst) in &traces {
        let reader = BinTraceMap::from_bytes(write_bin_trace(inst))
            .unwrap()
            .into_reader();
        let decoded: Vec<Request> = reader.rewound().map(|r| r.unwrap()).collect();
        assert_eq!(&decoded, &inst.requests, "{name}");
        let num_edges = inst.capacities.len() as u32;
        for max in [1, 3, BATCH, MAX_BATCH] {
            let mut cursor = reader.rewound();
            let mut at = 0;
            loop {
                let (records, count) = cursor.next_records(max).unwrap();
                assert_eq!(count, max.min(decoded.len() - at), "{name}, max {max}");
                let mut encoded = Vec::new();
                for r in &decoded[at..at + count] {
                    encode_record_into(&mut encoded, r, num_edges).unwrap();
                }
                assert_eq!(records, encoded.as_slice(), "{name}, max {max}, at {at}");
                at += count;
                if count == 0 {
                    break;
                }
            }
            assert_eq!(at, decoded.len(), "{name}, max {max}");
            assert_eq!(cursor.next_records(max).unwrap().1, 0);
        }
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
