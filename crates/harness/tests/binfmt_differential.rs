//! Binary-format differential suite: **text ≡ binary ≡ mmap**.
//!
//! The binary `ACMR-TRACE v2` path must be a pure storage change — for
//! every algorithm in the default registry (enumerated, never
//! hard-coded), replaying a converted trace must produce:
//!
//! * the identical per-arrival **decision stream** (every audited
//!   `ArrivalEvent`, compared through its serde JSON) whether the
//!   arrivals come from the chunked text reader, the streaming binary
//!   reader, or the zero-copy mapped cursor, and
//! * the **byte-identical serialized `RunReport`** — offline-optimum
//!   bound included, via the two-pass streamed scheme — from
//!   `run_report` over `SourceRef::Path` on the text file and on the
//!   binary file, both equal to the in-memory reference.
//!
//! Inputs: the committed golden corpus (`tests/golden/*.trace`, the
//! same eight files the golden regression suite pins) plus random
//! proptest-chosen instances (hostile shapes included via the corpus's
//! adversarial members).

use acmr_core::{
    AcmrError, AdmissionInstance, AlgorithmSpec, Registry, Request, RequestSource, Session,
};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::{default_registry, run_report, BoundBudget, SourceRef};
use acmr_workloads::trace::{read_trace, write_trace, TraceReader};
use acmr_workloads::{write_bin_trace, BinTraceMap, BinTraceReader};
use proptest::prelude::*;

const SEED: u64 = 7;

fn golden_traces() -> Vec<(String, AdmissionInstance)> {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"));
    let mut traces = Vec::new();
    for entry in std::fs::read_dir(dir).expect("golden corpus directory") {
        let path = entry.expect("corpus entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("trace") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read golden trace");
        traces.push((name, read_trace(&text).expect("parse golden trace")));
    }
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        traces.len() >= 8,
        "golden corpus shrank: {} traces",
        traces.len()
    );
    traces
}

/// Drive one session off `source` and return every audited decision
/// event as its serde JSON line — the comparable decision stream.
fn decision_stream<S: RequestSource>(
    registry: &Registry,
    spec: &str,
    mut source: S,
) -> Vec<String> {
    let spec = AlgorithmSpec::parse(spec).expect("spec");
    let capacities = source.capacities().to_vec();
    let mut session =
        Session::from_registry(registry, &spec, &capacities, SEED).expect("build session");
    let mut events = Vec::new();
    loop {
        match source.next_request() {
            Ok(Some(r)) => {
                let event = session.push(&r).expect("audited arrival");
                events.push(serde_json::to_string(&event).expect("serialize event"));
            }
            Ok(None) => return events,
            Err(e) => panic!("valid trace failed to stream: {e}"),
        }
    }
}

/// Assert the three reader arms produce identical decision streams and
/// (via `run_report` over `SourceRef::Path` temp files) byte-identical reports
/// for every registered algorithm.
fn assert_formats_agree(name: &str, inst: &AdmissionInstance) {
    let registry = default_registry();
    let text = write_trace(inst);
    let bin = write_bin_trace(inst);

    let dir = std::env::temp_dir();
    let text_path = dir.join(format!("acmr-bindiff-{}-{name}.trace", std::process::id()));
    let bin_path = dir.join(format!("acmr-bindiff-{}-{name}.bin", std::process::id()));
    std::fs::write(&text_path, &text).unwrap();
    std::fs::write(&bin_path, &bin).unwrap();

    for spec in registry.names() {
        // Decision streams: text reader ≡ streaming binary reader ≡
        // zero-copy mapped cursor, event for event.
        let via_text = decision_stream(
            &registry,
            spec,
            TraceReader::new(text.as_bytes()).expect("text header"),
        );
        let via_bin = decision_stream(
            &registry,
            spec,
            BinTraceReader::new(bin.as_slice()).expect("binary header"),
        );
        let via_map = decision_stream(
            &registry,
            spec,
            BinTraceMap::from_bytes(bin.clone())
                .expect("binary header")
                .into_reader(),
        );
        assert_eq!(via_text, via_bin, "{name}/{spec}: text vs binary stream");
        assert_eq!(via_bin, via_map, "{name}/{spec}: binary vs mmap stream");

        // Full path-backed reports (two-pass OPT bound included):
        // byte-identical JSON across formats, equal to the in-memory
        // reference.
        let budget = Some(BoundBudget::default());
        let run = |source| run_report(&registry, spec, source, SEED, 1, budget);
        let reference = run(SourceRef::Mem(inst)).expect("reference run");
        let from_text = run(SourceRef::Path(&text_path)).expect("text path run");
        let from_bin = run(SourceRef::Path(&bin_path)).expect("binary path run");
        assert_eq!(from_text, reference, "{name}/{spec}: text vs memory");
        let text_json = serde_json::to_string_pretty(&from_text).unwrap();
        let bin_json = serde_json::to_string_pretty(&from_bin).unwrap();
        assert_eq!(bin_json, text_json, "{name}/{spec}: report JSON");
    }

    std::fs::remove_file(&text_path).unwrap();
    std::fs::remove_file(&bin_path).unwrap();
}

#[test]
fn golden_corpus_agrees_across_text_binary_and_mmap() {
    for (name, inst) in golden_traces() {
        assert_formats_agree(&name, &inst);
    }
}

#[test]
fn binary_stream_errors_match_text_semantics_mid_session() {
    // A truncated binary trace must surface a typed error from
    // `Session::run_stream_batched` with the complete prefix applied — the
    // same contract the text reader has.
    let mut inst = AdmissionInstance::from_capacities(vec![2, 2]);
    for _ in 0..3 {
        inst.push(Request::unit(EdgeSet::new(vec![EdgeId(0), EdgeId(1)])));
    }
    let mut bin = write_bin_trace(&inst);
    let len = bin.len();
    bin.truncate(len - 4); // cut into the last record
    let registry = default_registry();
    let spec = AlgorithmSpec::parse("greedy").unwrap();
    let reader = BinTraceReader::new(bin.as_slice()).expect("header intact");
    let caps = RequestSource::capacities(&reader).to_vec();
    let mut session = Session::from_registry(&registry, &spec, &caps, 0).unwrap();
    let err = session.run_stream_batched(reader, 1).unwrap_err();
    assert!(
        matches!(err, AcmrError::TraceParse { line: 3, .. }),
        "{err}"
    );
    assert_eq!(session.stats().arrivals, 2, "complete prefix stays applied");
    assert!(!session.is_poisoned(), "source failure, not algorithm's");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random instances: the three arms agree for every registered
    /// algorithm (same invariant as the golden corpus, off-corpus).
    #[test]
    fn random_traces_agree_across_text_binary_and_mmap(
        caps in proptest::collection::vec(1u32..5, 2..7),
        reqs in proptest::collection::vec(
            (proptest::collection::vec(0usize..7, 1..4), 1u32..50),
            1..25,
        ),
        tag in 0u32..1_000_000,
    ) {
        let m = caps.len();
        let mut inst = AdmissionInstance::from_capacities(caps);
        for (edges, cost) in reqs {
            let edges: Vec<EdgeId> = edges.into_iter().map(|e| EdgeId((e % m) as u32)).collect();
            inst.push(Request::new(EdgeSet::new(edges), cost as f64));
        }
        assert_formats_agree(&format!("prop-{tag}"), &inst);
    }
}
