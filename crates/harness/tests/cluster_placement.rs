//! Cluster job placement: a sweep never stacks two jobs on one worker
//! while another worker idles.
//!
//! Two healthy in-process workers run a sweep whose jobs alternate long
//! (`aag-weighted` over a few thousand arrivals) and tiny. Each job
//! claims an idle worker, so each worker keeps the one persistent
//! connection its first job opened, and every job opens exactly one
//! session: the workers' `STATS` show one sweep connection each and
//! sessions that sum to the job count.

use acmr_harness::{default_registry, ClusterDriver, ShardedDriver, SweepJob};
use acmr_serve::{fetch_stats, serve, ServeConfig, WorkerPool};
use acmr_workloads::{random_path_workload, repeated_hot_edge, PathWorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_job_claims_an_idle_worker_and_reuses_its_connection() {
    let spec = PathWorkloadSpec {
        max_hops: 4,
        ..PathWorkloadSpec::line_default(512, 8)
    };
    let (_, long) = random_path_workload(&spec, &mut StdRng::seed_from_u64(23));
    assert!(long.requests.len() >= 2_000, "{}", long.requests.len());
    let traces = vec![
        ("long".to_string(), long),
        ("tiny".to_string(), repeated_hot_edge(2, 1, 4)),
    ];
    let jobs: Vec<SweepJob> = (0..12)
        .map(|i| match i % 2 {
            0 => SweepJob::new("long", "aag-weighted", i),
            _ => SweepJob::new("tiny", "greedy", i),
        })
        .collect();

    let handles: Vec<_> = (0..2)
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
    let sweep = ClusterDriver::new(&pool)
        .batch(64)
        .run(&traces, &jobs)
        .expect("cluster sweep");
    let sharded = ShardedDriver::new()
        .threads(2)
        .batch(64)
        .run(&default_registry(), &traces, &jobs)
        .expect("sharded sweep");
    assert_eq!(sweep, sharded);

    let mut sessions = 0;
    for addr in &addrs {
        // The probe's own connection is counted too.
        let stats = fetch_stats(addr.as_str()).expect("worker STATS").server;
        assert_eq!(
            stats.connections_opened - 1,
            1,
            "worker {addr} opened more than one sweep connection: {stats:?}"
        );
        sessions += stats.sessions_opened;
    }
    assert_eq!(sessions, jobs.len() as u64, "one session per job");
    drop(pool);
    for handle in handles {
        handle.shutdown();
    }
}
