//! Fault injection over the cluster driver: workers die, sweeps
//! survive — or fail with exactly one typed error.
//!
//! Workers here are in-process loopback servers so the failure moment
//! is controllable and deterministic (shutting a [`ServerHandle`]
//! down severs its live sockets mid-frame, exactly what a dying
//! worker process does to its peers); `tests/cluster_cli.rs` repeats
//! the scenario with real `acmr serve` child processes and a real
//! `kill`. The invariants, in both flavors:
//!
//! 1. a job whose worker dies — before the connection or mid-session
//!    — is **retried on a surviving worker as a whole-trace replay**,
//!    and the sweep report is byte-identical to an undisturbed one;
//! 2. when every worker is gone, the sweep fails with **one typed
//!    [`AcmrError::Remote`]** (code `cluster`) — never a panic, a
//!    hang, or a partial report.

use acmr_core::AcmrError;
use acmr_harness::{
    cross_jobs, default_registry, BoundBudget, ClusterDriver, ShardedDriver, SweepJob, TraceSource,
};
use acmr_serve::{serve, ServeConfig, ServerHandle, WorkerPool, CLUSTER_ERROR_CODE};
use acmr_workloads::{
    nested_intervals, random_path_workload, repeated_hot_edge, write_bin_trace, PathWorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_worker() -> ServerHandle {
    serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback worker")
}

fn sweep_fixture() -> (Vec<(String, acmr_core::AdmissionInstance)>, Vec<SweepJob>) {
    let traces = vec![
        ("nested".to_string(), nested_intervals(16, 2, 2, 2)),
        ("hot".to_string(), repeated_hot_edge(4, 3, 12)),
    ];
    let registry = default_registry();
    let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let jobs = cross_jobs(&["nested", "hot"], &spec_refs, &[0, 1]);
    (traces, jobs)
}

#[test]
fn jobs_on_a_dead_worker_are_retried_on_the_survivor_with_an_identical_report() {
    let (traces, jobs) = sweep_fixture();
    let registry = default_registry();
    // The undisturbed expectation: a sharded sweep of the same width.
    let expected = ShardedDriver::new()
        .threads(2)
        .batch(8)
        .budget(BoundBudget::default())
        .run(&registry, &traces, &jobs)
        .expect("sharded reference");

    // Two workers; one is dead before the sweep even starts (its
    // port refuses connections), so every job that round-robins onto
    // it must fail its connection attempt and retry on the survivor.
    let survivor = start_worker();
    let dead = start_worker();
    let dead_addr = dead.local_addr().to_string();
    dead.shutdown();
    let pool = WorkerPool::connect(&[dead_addr, survivor.local_addr().to_string()])
        .expect("adopt workers");

    let sweep = ClusterDriver::new(&pool)
        .batch(8)
        .budget(BoundBudget::default())
        .run(&traces, &jobs)
        .expect("sweep must survive a dead worker");
    assert_eq!(sweep, expected, "retried sweep diverges");
    assert_eq!(
        serde_json::to_string_pretty(&sweep).unwrap(),
        serde_json::to_string_pretty(&expected).unwrap()
    );
    // The dead worker was quarantined along the way; the survivor
    // carried every job.
    assert_eq!(pool.alive(), 1);
    survivor.shutdown();
}

#[test]
fn killing_a_worker_mid_sweep_still_yields_the_identical_report() {
    let (mut traces, short_jobs) = sweep_fixture();
    // Two long jobs first: job `i` claims the first idle worker from
    // slot `i % 2`, so job 0 lands on the victim (slot 0) and job 1 on
    // the survivor. The kill waits for job 0's session, so it lands
    // mid-replay. The trace spans several of a shard's read quanta, so
    // the victim's shard stops, and its port goes dark, before job 1
    // ends; the next job then tries the victim (job 0's retry is on
    // the survivor) and fails its connect.
    let spec = PathWorkloadSpec {
        overload: 20.0,
        max_hops: 4,
        ..PathWorkloadSpec::line_default(512, 8)
    };
    let (_, long) = random_path_workload(&spec, &mut StdRng::seed_from_u64(29));
    assert!(long.requests.len() > 20_000, "{}", long.requests.len());
    traces.push(("long".to_string(), long));
    let mut jobs = vec![
        SweepJob::new("long", "aag-weighted", 0),
        SweepJob::new("long", "aag-weighted", 1),
    ];
    jobs.extend(short_jobs);
    let registry = default_registry();
    let expected = ShardedDriver::new()
        .threads(2)
        .batch(4)
        .run(&registry, &traces, &jobs)
        .expect("sharded reference");

    let survivor = start_worker();
    let victim = start_worker();
    let counters = [
        Arc::clone(victim.counters()),
        Arc::clone(survivor.counters()),
    ];
    // One retry is enough: a job that loses its attempt on the victim
    // retries on the survivor, never on the slot that just failed.
    let pool = WorkerPool::connect(&[
        victim.local_addr().to_string(),
        survivor.local_addr().to_string(),
    ])
    .expect("adopt workers")
    .retries(1);

    // Kill the victim once job 0's session is open on it: that session
    // is severed mid-frame and the victim's port goes dark.
    let sweep = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while counters[0].sessions_active.load(Ordering::Relaxed) == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the long job never opened its session on the victim"
                );
                std::thread::yield_now();
            }
            victim.shutdown();
        });
        let sweep = ClusterDriver::new(&pool)
            .batch(4)
            .run(&traces, &jobs)
            .expect("sweep must survive a mid-sweep worker death");
        killer.join().expect("killer thread");
        sweep
    });
    assert_eq!(sweep, expected, "mid-sweep kill changed the report");
    // The retry path ran: the victim was quarantined, and the severed
    // session was opened again on the survivor.
    assert_eq!(pool.alive(), 1, "the victim was never quarantined");
    let opened: u64 = counters
        .iter()
        .map(|c| c.sessions_opened.load(Ordering::Relaxed))
        .sum();
    assert!(
        opened > jobs.len() as u64,
        "{opened} sessions for {} jobs: no job was retried",
        jobs.len()
    );
    survivor.shutdown();
}

#[test]
fn exhausted_retries_surface_one_typed_cluster_error_not_a_partial_report() {
    let (traces, jobs) = sweep_fixture();
    // Both workers dead: every attempt fails its connection, both
    // slots are quarantined, and the sweep must fail with exactly one
    // typed Remote error — never a panic, a hang, or an Ok with
    // missing jobs.
    let w1 = start_worker();
    let w2 = start_worker();
    let addrs = [w1.local_addr().to_string(), w2.local_addr().to_string()];
    w1.shutdown();
    w2.shutdown();
    let pool = WorkerPool::connect(&addrs)
        .expect("adopt workers")
        .retries(3);

    let err = ClusterDriver::new(&pool)
        .batch(4)
        .run(&traces, &jobs)
        .expect_err("a sweep with no live workers must fail");
    match &err {
        AcmrError::Remote { code, message } => {
            assert_eq!(code, CLUSTER_ERROR_CODE, "{message}");
            assert!(
                message.contains("attempt") || message.contains("alive"),
                "{message}"
            );
        }
        other => panic!("expected a typed cluster error, got {other:?}"),
    }
    assert_eq!(pool.alive(), 0);
}

#[test]
fn a_semantic_worker_error_is_not_retried_and_fails_the_sweep_typed() {
    // An unknown algorithm is the worker's *answer*, not a transport
    // failure: the pool must not burn retries on it, and the sweep
    // must surface the worker's typed ERR reply as-is.
    let worker = start_worker();
    let pool = WorkerPool::connect(&[worker.local_addr().to_string()]).expect("adopt worker");
    let traces = vec![("hot".to_string(), repeated_hot_edge(4, 3, 6))];
    // `definitely-not-registered` parses as a spec name, so it passes
    // the driver's local fail-fast phase and reaches the worker.
    let err = ClusterDriver::new(&pool)
        .run(
            &traces,
            &[SweepJob::new("hot", "definitely-not-registered", 0)],
        )
        .expect_err("unknown algorithm must fail the sweep");
    match &err {
        AcmrError::Remote { code, message } => {
            assert_eq!(code, "unknown-algorithm", "{message}");
        }
        other => panic!("expected the worker's typed reply, got {other:?}"),
    }
    // The worker answered; it is alive and was never quarantined.
    assert_eq!(pool.alive(), 1);
    worker.shutdown();
}

#[test]
fn a_corrupt_binary_record_fails_like_sharded_without_retry_or_quarantine() {
    // A forwarded binary trace is checked record by record as the
    // decoder checks it: one bad record fails the sweep with the very
    // error the sharded driver's decoder reports. It is the input's
    // fault, not the worker's: nothing is retried (the second worker
    // never sees a connection) and nobody is quarantined.
    let inst = nested_intervals(16, 2, 2, 2);
    let valid = write_bin_trace(&inst);
    // The header, then the records: cost f64, count u16, ids u32 each.
    let body = 16 + 4 * inst.capacities.len() + 8;
    let victim = inst.requests.len() / 2;
    let at = body
        + inst.requests[..victim]
            .iter()
            .map(|r| 10 + 4 * r.footprint.len())
            .sum::<usize>();
    assert!(inst.requests[victim].footprint.len() >= 2);
    let corrupt = |patch: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = valid.clone();
        patch(&mut bytes);
        bytes
    };
    let cases = [
        (
            "edge out of range",
            corrupt(&|b| b[at + 10..at + 14].copy_from_slice(&u32::MAX.to_le_bytes())),
        ),
        (
            "unsorted ids",
            corrupt(&|b| {
                let (first, second) = (at + 10, at + 14);
                let id = b[second..second + 4].to_vec();
                b.copy_within(first..first + 4, second);
                b[first..first + 4].copy_from_slice(&id);
            }),
        ),
        (
            "bad cost",
            corrupt(&|b| b[at..at + 8].copy_from_slice(&(-1.0f64).to_le_bytes())),
        ),
        ("truncated", corrupt(&|b| b.truncate(at + 12))),
    ];
    let workers = [start_worker(), start_worker()];
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let pool = WorkerPool::connect(&addrs).expect("adopt workers");
    let registry = default_registry();
    let path =
        std::env::temp_dir().join(format!("acmr-cluster-corrupt-{}.bin", std::process::id()));
    let traces = vec![("bad".to_string(), TraceSource::Path(path.clone()))];
    let jobs = [SweepJob::new("bad", "aag-weighted", 3)];
    for (what, bytes) in &cases {
        std::fs::write(&path, bytes).unwrap();
        for budget in [None, Some(BoundBudget::default())] {
            let mut sharded = ShardedDriver::new().threads(2).batch(4);
            let mut cluster = ClusterDriver::new(&pool).batch(4);
            if let Some(budget) = budget {
                sharded = sharded.budget(budget);
                cluster = cluster.budget(budget);
            }
            let expected = sharded
                .run_sources(&registry, &traces, &jobs)
                .expect_err(what);
            assert!(
                matches!(&expected, AcmrError::TraceParse { line, .. } if *line == victim + 1),
                "{what}: {expected}"
            );
            let err = cluster.run_sources(&traces, &jobs).expect_err(what);
            assert_eq!(err, expected, "{what}, budget {budget:?}");
        }
    }
    let _ = std::fs::remove_file(&path);
    assert_eq!(pool.alive(), 2, "a bad record quarantined a worker");
    // Every single-job sweep started on (and stayed on) the first
    // worker; the second one only ever sees this probe.
    let untouched = acmr_serve::fetch_stats(addrs[1].as_str())
        .expect("STATS")
        .server;
    assert_eq!(
        untouched.connections_opened, 1,
        "a job was retried: {untouched:?}"
    );
    assert_eq!(
        untouched.sessions_opened, 0,
        "a job was retried: {untouched:?}"
    );
    for worker in workers {
        worker.shutdown();
    }
}
