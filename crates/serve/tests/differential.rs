//! Serving differential suite: the wire path is pinned to the engine.
//!
//! For **every** algorithm in the default registry (enumerated, never
//! hard-coded) over hostile and random traces, a session served over a
//! loopback socket — single request frames and `BATCH n` frames alike
//! — must produce the identical audited [`ArrivalEvent`] stream and
//! the identical final [`RunReport`] as (a) per-push
//! [`Session::push`] over the in-memory instance and (b)
//! [`Session::run_stream_batched`] over the chunked `TraceReader` — i.e.
//! **served ≡ streamed ≡ in-memory**, event for event. Any divergence
//! fails here naming the algorithm, trace, and framing.

use acmr_core::{AdmissionInstance, AlgorithmSpec, ArrivalEvent, RunReport, Session};
use acmr_harness::default_registry;
use acmr_serve::{serve, serve_trace, ServeClient, ServeConfig, ServerHandle};
use acmr_workloads::trace::{write_trace, TraceReader};
use acmr_workloads::{
    dyadic_admission_instance, nested_intervals, random_path_workload, repeated_hot_edge,
    two_phase_squeeze, CostModel, PathWorkloadSpec, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;

fn start_server() -> ServerHandle {
    serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server")
}

/// Reference decision stream and report: per-push over the in-memory
/// instance, exactly like the engine differential suite.
fn reference(inst: &AdmissionInstance, spec_str: &str) -> (Vec<ArrivalEvent>, RunReport) {
    let registry = default_registry();
    let spec = AlgorithmSpec::parse(spec_str).unwrap();
    let mut session = Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
    let events = inst
        .requests
        .iter()
        .map(|r| session.push(r).unwrap())
        .collect();
    (events, session.report())
}

/// Serve `inst` through a live socket and return the event stream and
/// final report the wire produced.
fn served(
    handle: &ServerHandle,
    inst: &AdmissionInstance,
    spec_str: &str,
    batch: Option<usize>,
) -> (Vec<ArrivalEvent>, RunReport) {
    let mut events = Vec::new();
    let report = serve_trace(
        handle.local_addr(),
        spec_str,
        None,
        &inst.capacities,
        inst.requests.iter().cloned().map(Ok),
        batch,
        |e| events.push(e.clone()),
    )
    .expect("served run");
    (events, report)
}

fn hostile_traces() -> Vec<(&'static str, AdmissionInstance)> {
    vec![
        ("nested", nested_intervals(16, 2, 2, 2)),
        ("hot-edge", repeated_hot_edge(4, 3, 12)),
        ("squeeze", two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic", dyadic_admission_instance(4, 3, 2)),
    ]
}

#[test]
fn served_equals_streamed_equals_in_memory_for_every_algorithm() {
    let handle = start_server();
    let registry = default_registry();
    for (family, inst) in &hostile_traces() {
        let text = write_trace(inst);
        for name in registry.names() {
            let spec_str = format!("{name}?seed=5");
            let (expected_events, expected_report) = reference(inst, &spec_str);

            // In-memory streamed (TraceReader → run_stream_batched): the
            // middle leg of served ≡ streamed ≡ in-memory.
            let spec = AlgorithmSpec::parse(&spec_str).unwrap();
            let streamed = Session::from_registry(&registry, &spec, &inst.capacities, 0)
                .unwrap()
                .run_stream_batched(TraceReader::new(text.as_bytes()).unwrap(), 1)
                .unwrap();
            assert_eq!(streamed, expected_report, "{family}/{spec_str}: streamed");

            // Served, one frame per arrival.
            let (events, report) = served(&handle, inst, &spec_str, None);
            assert_eq!(
                events, expected_events,
                "{family}/{spec_str}: served event stream diverges (single frames)"
            );
            assert_eq!(
                report, expected_report,
                "{family}/{spec_str}: served report diverges (single frames)"
            );

            // Served, BATCH frames (odd size so the tail is partial).
            let (events, report) = served(&handle, inst, &spec_str, Some(7));
            assert_eq!(
                events, expected_events,
                "{family}/{spec_str}: served event stream diverges (BATCH 7)"
            );
            assert_eq!(
                report, expected_report,
                "{family}/{spec_str}: served report diverges (BATCH 7)"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn served_random_workload_matches_reference_for_every_algorithm() {
    let handle = start_server();
    let spec = PathWorkloadSpec {
        topology: Topology::Grid { rows: 3, cols: 4 },
        capacity: 2,
        overload: 2.0,
        costs: CostModel::Uniform { lo: 1.0, hi: 9.0 },
        max_hops: 5,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(17));
    assert!(!inst.requests.is_empty());
    for name in default_registry().names() {
        let spec_str = format!("{name}?seed=3");
        let (expected_events, expected_report) = reference(&inst, &spec_str);
        for batch in [None, Some(1), Some(4), Some(inst.requests.len())] {
            let (events, report) = served(&handle, &inst, &spec_str, batch);
            assert_eq!(events, expected_events, "{spec_str} batch {batch:?}");
            assert_eq!(report, expected_report, "{spec_str} batch {batch:?}");
        }
    }
    handle.shutdown();
}

#[test]
fn mixed_single_and_batch_frames_share_one_session() {
    // Frame boundaries must not leak into algorithm state: alternating
    // single and BATCH frames over one connection agrees with the
    // pure per-push reference — the wire twin of the engine's
    // mixed-push differential.
    let handle = start_server();
    let inst = two_phase_squeeze(10, 2, 3, 2);
    for name in default_registry().names() {
        let spec_str = format!("{name}?seed=9");
        let (expected_events, expected_report) = reference(&inst, &spec_str);

        let mut client =
            ServeClient::connect(handle.local_addr(), &spec_str, None, &inst.capacities).unwrap();
        let mut events = Vec::new();
        let mut rest = inst.requests.as_slice();
        while !rest.is_empty() {
            events.push(client.push(&rest[0]).unwrap());
            rest = &rest[1..];
            let take = rest.len().min(3);
            events.extend(client.push_batch(&rest[..take]).unwrap());
            rest = &rest[take..];
        }
        let report = client.finish().unwrap();
        assert_eq!(events, expected_events, "{name}: mixed frames diverge");
        assert_eq!(report, expected_report, "{name}: mixed-frame report");
    }
    handle.shutdown();
}

#[test]
fn serve_trace_clamps_batches_to_the_protocol_cap() {
    // `acmr run --batch N` accepts any N ≥ 1; the wire caps a single
    // BATCH frame at MAX_BATCH, so serve_trace must split instead of
    // letting the server refuse — pinned with a stream one request
    // longer than the cap and a batch far beyond it.
    use acmr_core::Request;
    use acmr_graph::{EdgeId, EdgeSet};
    use acmr_serve::protocol::MAX_BATCH;

    let handle = start_server();
    let total = MAX_BATCH + 1;
    let arrivals = (0..total).map(|_| Ok(Request::unit(EdgeSet::singleton(EdgeId(0)))));
    let mut seen = 0usize;
    let report = serve_trace(
        handle.local_addr(),
        "greedy",
        None,
        &[2],
        arrivals,
        Some(10 * MAX_BATCH),
        |_| seen += 1,
    )
    .expect("oversized --batch must be clamped, not refused");
    assert_eq!(report.requests, total);
    assert_eq!(seen, total);
    assert_eq!(report.rejected_count, total - 2); // capacity 2, greedy
    handle.shutdown();
}

#[test]
fn counters_track_live_sessions() {
    let handle = start_server();
    let counters = handle.counters();
    let live = || counters.sessions_active.load(Ordering::Relaxed);
    let inst = repeated_hot_edge(4, 3, 12);
    assert_eq!(live(), 0);
    let mut client =
        ServeClient::connect(handle.local_addr(), "greedy", Some(1), &inst.capacities).unwrap();
    // The machine counts a session before it queues the `OK` that
    // carries its id, and a v1 session is released before its
    // `REPORT` is queued: no waiting on either side.
    assert_eq!(live(), 1);
    assert_eq!(client.session_id(), 0, "ids count from sessions_opened");
    for r in &inst.requests {
        client.push(r).unwrap();
    }
    let report = client.finish().unwrap();
    assert_eq!(report.requests, inst.requests.len());
    assert_eq!(live(), 0);
    assert_eq!(counters.sessions_opened.load(Ordering::Relaxed), 1);
    handle.shutdown();
}
