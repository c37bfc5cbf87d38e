//! Fuzz-style property tests for the trace parser — in-memory and
//! streaming: arbitrary input never panics, corrupting or truncating
//! any byte of a valid trace yields a typed error (or a still-valid
//! parse) rather than a panic, and structured round-trips are
//! lossless.

use acmr_core::{
    AcmrError, AdmissionInstance, OnlineAdmission, Outcome, Request, RequestId, Session,
};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_workloads::trace::{read_trace, write_trace, TraceReader};
use proptest::prelude::*;

/// A canonical valid trace the malformed-input tests mutate.
const VALID: &str = "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 2\n1 0 1\n2.5 1\n";

#[test]
fn malformed_inputs_yield_typed_errors_not_panics() {
    // Baseline: the canonical trace parses.
    assert!(read_trace(VALID).is_ok());

    // (input, what the typed error must mention)
    let cases: &[(&str, &str)] = &[
        // Truncated header / truncated sections.
        ("", "empty trace"),
        ("ACMR-TRACE", "bad header"),
        ("ACMR-TRACE v1", "missing edges line"),
        ("ACMR-TRACE v1\nedges 2", "missing caps line"),
        ("ACMR-TRACE v1\nedges 2\ncaps 2 1", "missing requests line"),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 2\n1 0 1\n",
            "truncated requests",
        ),
        // Non-numeric fields.
        (
            "ACMR-TRACE v1\nedges two\ncaps 2 1\nrequests 0\n",
            "expected `edges <m>`",
        ),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 one\nrequests 0\n",
            "bad capacity",
        ),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 1\nfree 0\n",
            "missing cost",
        ),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 1\nnan 0\n",
            "bad cost",
        ),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 1\n-1 0\n",
            "bad cost",
        ),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 1\n1 x\n",
            "bad edge id",
        ),
        // Structurally invalid values.
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2 1\nrequests 1\n1 5\n",
            "out of range",
        ),
        (
            "ACMR-TRACE v1\nedges 2\ncaps 2\nrequests 0\n",
            "expected 2 capacities",
        ),
        (
            "ACMR-TRACE v1\nedges 1\ncaps 0\nrequests 0\n",
            "must be positive",
        ),
        (
            "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 1\n1\n",
            "no edges",
        ),
        (
            "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 0\nextra\n",
            "trailing content",
        ),
    ];
    for (input, needle) in cases {
        let err = read_trace(input).expect_err(&format!("accepted {input:?}"));
        let AcmrError::TraceParse { line, message } = &err else {
            panic!("input {input:?}: expected a trace parse error, got {err:?}");
        };
        assert!(
            message.contains(needle),
            "input {input:?}: error {message:?} does not mention {needle:?}"
        );
        assert!(*line <= input.lines().count() + 1, "line {line} absurd");
        // Display form carries the line number for operators.
        assert!(err.to_string().contains("trace parse error at line"));
    }
}

/// Drain a streaming reader, asserting every failure is one of the two
/// typed trace errors (in-memory byte sources cannot produce `Io`, but
/// the contract allows it). Returns the number of requests yielded.
fn drain_typed(bytes: &[u8]) -> Result<usize, ()> {
    let mut reader = match TraceReader::new(bytes) {
        Ok(r) => r,
        Err(AcmrError::TraceParse { .. }) | Err(AcmrError::Io { .. }) => return Err(()),
        Err(other) => panic!("untyped header failure: {other:?}"),
    };
    let mut n = 0;
    loop {
        match reader.next_request() {
            Ok(Some(_)) => n += 1,
            Ok(None) => return Ok(n),
            Err(AcmrError::TraceParse { .. }) | Err(AcmrError::Io { .. }) => return Err(()),
            Err(other) => panic!("untyped stream failure: {other:?}"),
        }
    }
}

/// Rejects everything — a trivially contract-safe algorithm for
/// driving sessions off trace streams in these tests.
struct RejectAll;
impl OnlineAdmission for RejectAll {
    fn name(&self) -> &'static str {
        "reject-all"
    }
    fn on_request(&mut self, _id: RequestId, _r: &Request) -> Outcome {
        Outcome::reject()
    }
}

#[test]
fn eof_mid_batch_surfaces_typed_error_with_chunk_semantics() {
    // VALID declares 2 requests; cut the stream right after the first
    // request line so the reader hits EOF with the body short.
    let cut = VALID.find("2.5").unwrap();
    let truncated = &VALID.as_bytes()[..cut];
    let probe = TraceReader::new(truncated).unwrap();
    let caps = probe.capacities().to_vec();

    // Batch larger than the stream: EOF arrives mid-batch, the typed
    // error surfaces, and the partial chunk was never shown to the
    // algorithm (all-or-nothing chunk semantics).
    let mut session = Session::new(RejectAll, &caps);
    let err = session
        .run_stream_batched(TraceReader::new(truncated).unwrap(), 8)
        .unwrap_err();
    assert!(
        matches!(err, AcmrError::TraceParse { line: 5, ref message } if message.contains("truncated")),
        "{err}"
    );
    assert_eq!(session.stats().arrivals, 0, "partial chunk must not apply");

    // Batch 1: the complete first chunk stays applied, then the typed
    // error; the session is not poisoned (the source failed, not the
    // algorithm).
    let mut session = Session::new(RejectAll, &caps);
    let err = session
        .run_stream_batched(TraceReader::new(truncated).unwrap(), 1)
        .unwrap_err();
    assert!(matches!(err, AcmrError::TraceParse { .. }), "{err}");
    assert_eq!(session.stats().arrivals, 1, "complete chunks stay applied");
    assert!(!session.is_poisoned());
}

proptest! {
    /// Arbitrary bytes: the parser returns Ok or Err, never panics.
    #[test]
    fn parser_never_panics(input in ".{0,400}") {
        let _ = read_trace(&input);
    }

    /// Corrupting any single byte of a valid trace: the streaming
    /// reader either still parses cleanly (some corruptions are benign
    /// — e.g. a different cost digit) or yields a **typed** error,
    /// never a panic; and it always agrees with the in-memory parser
    /// on validity.
    #[test]
    fn corrupting_any_byte_yields_typed_errors_from_the_streaming_reader(
        pos in 0usize..VALID.len(),
        byte in 0u8..=255u8,
    ) {
        let mut bytes = VALID.as_bytes().to_vec();
        bytes[pos] = byte;
        let streamed = drain_typed(&bytes);
        match std::str::from_utf8(&bytes) {
            Ok(text) => prop_assert_eq!(
                streamed.is_ok(),
                read_trace(text).is_ok(),
                "streamed and in-memory parsers disagree on {:?}", text
            ),
            // Invalid UTF-8 is only expressible through the byte-level
            // reader; it must be a typed error there.
            Err(_) => prop_assert!(streamed.is_err()),
        }
    }

    /// Truncating a valid trace at any byte: typed error or a clean
    /// parse of a prefix (cutting exactly at a request boundary can
    /// leave a shorter trace that only fails the declared count).
    #[test]
    fn truncation_yields_typed_errors(len in 0usize..VALID.len()) {
        let _ = drain_typed(&VALID.as_bytes()[..len]);
    }

    /// Arbitrary *line-shaped* garbage built from plausible tokens.
    #[test]
    fn structured_garbage_never_panics(
        lines in proptest::collection::vec(
            prop_oneof![
                Just("ACMR-TRACE v1".to_string()),
                Just("edges 3".to_string()),
                Just("caps 1 2 3".to_string()),
                Just("requests 2".to_string()),
                Just("1 0 1".to_string()),
                Just("-5 99".to_string()),
                Just("nan 0".to_string()),
                Just("".to_string()),
            ],
            0..12,
        )
    ) {
        let _ = read_trace(&lines.join("\n"));
    }

    /// Structured round-trip: any valid instance survives
    /// write → read → write byte-identically.
    #[test]
    fn roundtrip_lossless(
        caps in proptest::collection::vec(1u32..9, 1..6),
        reqs in proptest::collection::vec(
            (proptest::collection::vec(0usize..6, 1..4), 1u32..1000),
            0..20,
        ),
    ) {
        let m = caps.len();
        let mut inst = AdmissionInstance::from_capacities(caps);
        for (edges, cost) in reqs {
            let edges: Vec<EdgeId> = edges.into_iter().map(|e| EdgeId((e % m) as u32)).collect();
            inst.push(Request::new(EdgeSet::new(edges), cost as f64));
        }
        let text = write_trace(&inst);
        let back = read_trace(&text).unwrap();
        prop_assert_eq!(&back.capacities, &inst.capacities);
        prop_assert_eq!(&back.requests, &inst.requests);
        prop_assert_eq!(write_trace(&back), text);
    }
}
