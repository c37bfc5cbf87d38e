//! Differential suite: every driver of the batch layer *and* the
//! streamed-ingestion layer is pinned to the per-push one.
//!
//! For **every** algorithm in the default registry (no hard-coded
//! list), feeding a trace through `Session::push_batch_into` — or
//! parsing it back through the chunked `TraceReader` and streaming it
//! via `Session::run_stream_batched` — must produce the identical
//! audited event stream — accept/reject decision, preemption list, and
//! cost accounting, arrival for arrival — as per-arrival
//! `Session::push` calls over the in-memory instance, and the final
//! `RunReport`s must be equal. The harness's `run_report` closes the
//! chain: over `SourceRef::Mem` and over `SourceRef::Path` it must
//! produce the same report, with offline-optimum context, to the byte.
//! This is the regression harness that makes batched/sharded/streamed
//! scaling refactors safe: any divergence between the paths fails here
//! with the offending algorithm, topology, and batch size.

use acmr_core::{AdmissionInstance, AlgorithmSpec, ArrivalEvent, Session};
use acmr_harness::{default_registry, run_report, BoundBudget, SourceRef};
use acmr_workloads::trace::{write_trace, TraceReader};
use acmr_workloads::{
    dyadic_admission_instance, nested_intervals, random_path_workload, repeated_hot_edge,
    two_phase_squeeze, CostModel, PathWorkloadSpec, Topology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Drive `spec` over `inst` streaming (per-push) and batched (chunks of
/// `batch`), asserting event-for-event and report equality.
fn assert_batch_equals_streaming(inst: &AdmissionInstance, spec_str: &str, batch: usize) {
    let registry = default_registry();
    let spec = AlgorithmSpec::parse(spec_str).expect("spec parses");

    let mut streaming = Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
    let streamed: Vec<ArrivalEvent> = inst
        .requests
        .iter()
        .map(|r| streaming.push(r).expect("streaming push"))
        .collect();

    let mut batched = Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
    let mut events: Vec<ArrivalEvent> = Vec::with_capacity(inst.requests.len());
    let mut buf = Vec::new();
    for chunk in inst.requests.chunks(batch) {
        batched
            .push_batch_into(chunk, &mut buf)
            .expect("batched push");
        events.append(&mut buf);
    }

    assert_eq!(
        events, streamed,
        "{spec_str}: event streams diverge at batch size {batch}"
    );
    assert_eq!(
        batched.report(),
        streaming.report(),
        "{spec_str}: final reports diverge at batch size {batch}"
    );

    // And the harness's in-memory report path agrees with both.
    let report = run_report(&registry, spec_str, SourceRef::Mem(inst), 0, batch, None).unwrap();
    assert_eq!(
        report,
        streaming.report(),
        "{spec_str}: run_report diverges at batch size {batch}"
    );

    assert_streamed_equals_in_memory(inst, &registry, &spec, spec_str, batch, &streamed);
}

/// A trace file under the OS temp directory, unique per call and
/// removed on drop.
struct TempTrace(PathBuf);

impl TempTrace {
    fn new(contents: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "acmr-differential-{}-{}.trace",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
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

/// Serialize `inst` to the trace format, parse it back through the
/// chunked `TraceReader`, and require the identical event stream and
/// reports the in-memory session produced — streamed ≡ in-memory,
/// event for event, plus `run_stream_batched` and the harness's
/// two-pass report over the trace file.
fn assert_streamed_equals_in_memory(
    inst: &AdmissionInstance,
    registry: &acmr_core::Registry,
    spec: &AlgorithmSpec,
    spec_str: &str,
    batch: usize,
    expected_events: &[ArrivalEvent],
) {
    let text = write_trace(inst);

    // Event for event: push each request as the chunked parser yields it.
    let mut session = Session::from_registry(registry, spec, &inst.capacities, 0).unwrap();
    let mut reader = TraceReader::new(text.as_bytes()).unwrap();
    assert_eq!(reader.capacities(), &inst.capacities[..]);
    let mut events = Vec::new();
    while let Some(r) = reader.next_request().expect("trace re-parses") {
        events.push(session.push(&r).expect("streamed push"));
    }
    assert_eq!(
        events, expected_events,
        "{spec_str}: streamed event stream diverges from in-memory"
    );
    let reference_report = session.report();

    // The whole-stream driver agrees.
    let streamed_batched = Session::from_registry(registry, spec, &inst.capacities, 0)
        .unwrap()
        .run_stream_batched(TraceReader::new(text.as_bytes()).unwrap(), batch)
        .unwrap();
    assert_eq!(
        streamed_batched, reference_report,
        "{spec_str}: run_stream_batched diverges at batch size {batch}"
    );

    // Harness level: the two-pass report over the trace file (OPT
    // bound included) serializes byte-identically to the in-memory one.
    let file = TempTrace::new(&text);
    let budget = Some(BoundBudget::default());
    let in_memory = run_report(registry, spec_str, SourceRef::Mem(inst), 0, 1, budget).unwrap();
    let two_pass = run_report(
        registry,
        spec_str,
        SourceRef::Path(&file.0),
        0,
        batch,
        budget,
    )
    .unwrap();
    assert_eq!(two_pass, in_memory, "{spec_str}: streamed report diverges");
    assert_eq!(
        serde_json::to_string_pretty(&two_pass).unwrap(),
        serde_json::to_string_pretty(&in_memory).unwrap(),
        "{spec_str}: streamed report JSON is not byte-identical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// push_batch_into ≡ push for every registered algorithm over random
    /// path workloads: topology × weighted × seed × batch size.
    #[test]
    fn push_batch_equals_streaming_on_random_workloads(
        topology in prop_oneof![
            Just(Topology::Line { m: 12 }),
            Just(Topology::Grid { rows: 3, cols: 4 }),
            Just(Topology::Tree { levels: 3 }),
        ],
        weighted in prop_oneof![Just(true), Just(false)],
        seed in 0u64..1000,
        batch in 1usize..24,
    ) {
        let spec = PathWorkloadSpec {
            topology,
            capacity: 2,
            overload: 2.0,
            costs: if weighted {
                CostModel::Uniform { lo: 1.0, hi: 9.0 }
            } else {
                CostModel::Unit
            },
            max_hops: 5,
        };
        let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(seed));
        prop_assert!(!inst.requests.is_empty());
        for name in default_registry().names() {
            // Randomized algorithms run under an explicit spec seed so
            // both paths build bit-identical RNG state.
            let spec_str = format!("{name}?seed={}", seed % 17);
            assert_batch_equals_streaming(&inst, &spec_str, batch);
        }
    }
}

/// The hostile traces `acmr gen --topology adversarial|lower-bound`
/// exposes: the same differential, deterministically, for every
/// registered algorithm — preemption-heavy regimes included.
#[test]
fn push_batch_equals_streaming_on_hostile_traces() {
    let hostile: Vec<(&str, AdmissionInstance)> = vec![
        ("nested", nested_intervals(16, 2, 2, 2)),
        ("hot-edge", repeated_hot_edge(4, 3, 12)),
        ("squeeze", two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic", dyadic_admission_instance(4, 3, 2)),
    ];
    for (family, inst) in &hostile {
        assert!(
            inst.max_excess() > 0,
            "{family}: hostile trace must actually overload"
        );
        for name in default_registry().names() {
            for batch in [1usize, 2, 7, inst.requests.len()] {
                let spec_str = format!("{name}?seed=5");
                assert_batch_equals_streaming(inst, &spec_str, batch);
            }
        }
    }
}

/// Batch boundaries must not leak into algorithm state: interleaving
/// push and push_batch_into on one session agrees with pure streaming.
#[test]
fn mixed_push_and_push_batch_agree_with_streaming() {
    let registry = default_registry();
    let inst = two_phase_squeeze(10, 2, 3, 2);
    for name in registry.names() {
        let spec = AlgorithmSpec::parse(&format!("{name}?seed=9")).unwrap();

        let mut streaming = Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
        let expected: Vec<ArrivalEvent> = inst
            .requests
            .iter()
            .map(|r| streaming.push(r).unwrap())
            .collect();

        let mut mixed = Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
        let (mut events, mut buf) = (Vec::new(), Vec::new());
        let mut rest = inst.requests.as_slice();
        // Alternate: one single push, then a batch of up to 3.
        while !rest.is_empty() {
            events.push(mixed.push(&rest[0]).unwrap());
            rest = &rest[1..];
            let take = rest.len().min(3);
            mixed.push_batch_into(&rest[..take], &mut buf).unwrap();
            events.append(&mut buf);
            rest = &rest[take..];
        }
        assert_eq!(
            events, expected,
            "{name}: mixed push/push_batch_into diverges"
        );
        assert_eq!(mixed.report(), streaming.report(), "{name}");
    }
}
