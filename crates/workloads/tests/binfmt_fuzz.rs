//! Fuzz-style property tests for the binary `ACMR-TRACE v2` subsystem:
//! arbitrary bytes never panic the decoder, corrupting or truncating
//! any byte of a valid trace yields a typed error (or a still-valid
//! replay) and never an out-of-bounds access, the whole-instance parse
//! (`read_bin_trace`) and the replay cursor (`BinTraceMap`) always
//! agree with each other, and structured round-trips are lossless and
//! bit-exact.

use acmr_core::{AcmrError, AdmissionInstance, Request};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_workloads::trace::{read_trace, write_trace};
use acmr_workloads::{read_bin_trace, write_bin_trace, BinTraceMap};
use proptest::prelude::*;

/// A canonical valid binary trace the corruption tests mutate:
/// 2 edges (caps 2, 1), 2 requests.
fn valid_bytes() -> Vec<u8> {
    let mut inst = AdmissionInstance::from_capacities(vec![2, 1]);
    inst.push(Request::new(EdgeSet::new(vec![EdgeId(0), EdgeId(1)]), 1.0));
    inst.push(Request::new(EdgeSet::singleton(EdgeId(1)), 2.5));
    write_bin_trace(&inst)
}

/// Parse the whole instance with `read_bin_trace` (the CLI's stdin
/// path), asserting every failure is one of the typed trace errors
/// (panic on anything untyped). Returns the number of requests parsed.
fn drain_parsed(bytes: &[u8]) -> Result<usize, ()> {
    match read_bin_trace(bytes) {
        Ok(inst) => Ok(inst.requests.len()),
        Err(AcmrError::TraceParse { .. }) | Err(AcmrError::Io { .. }) => Err(()),
        Err(other) => panic!("untyped parse failure: {other:?}"),
    }
}

/// [`drain_parsed`] through the replay cursor, one request at a time.
fn drain_mapped(bytes: &[u8]) -> Result<usize, ()> {
    let map = match BinTraceMap::from_bytes(bytes.to_vec()) {
        Ok(m) => m,
        Err(AcmrError::TraceParse { .. }) | Err(AcmrError::Io { .. }) => return Err(()),
        Err(other) => panic!("untyped header failure: {other:?}"),
    };
    let mut n = 0;
    for item in map.into_reader() {
        match item {
            Ok(_) => n += 1,
            Err(AcmrError::TraceParse { .. }) | Err(AcmrError::Io { .. }) => return Err(()),
            Err(other) => panic!("untyped cursor failure: {other:?}"),
        }
    }
    Ok(n)
}

#[test]
fn baseline_valid_trace_replays_through_parse_and_cursor() {
    let bytes = valid_bytes();
    assert_eq!(drain_parsed(&bytes), Ok(2));
    assert_eq!(drain_mapped(&bytes), Ok(2));
}

proptest! {
    /// Arbitrary bytes: parse and cursor return Ok or a typed Err,
    /// never panic, never read out of bounds.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..300)) {
        prop_assert_eq!(drain_parsed(&bytes), drain_mapped(&bytes));
    }

    /// Arbitrary bytes stamped with a valid magic + version, so the
    /// fuzz pressure lands on the header fields and record decoding
    /// instead of being rejected at the magic check.
    #[test]
    fn hostile_headers_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..300)) {
        let mut stamped = b"ACMRTRCB\x02\x00\x00\x00".to_vec();
        stamped.extend_from_slice(&bytes);
        prop_assert_eq!(drain_parsed(&stamped), drain_mapped(&stamped));
    }

    /// Corrupting any single byte of a valid trace: typed error or a
    /// still-valid replay (some corruptions are benign — e.g. a
    /// different cost bit), and parse and cursor agree exactly — same
    /// validity, same yielded count.
    #[test]
    fn corrupting_any_byte_keeps_parse_and_cursor_typed_and_agreeing(
        pos in 0usize..64, // valid_bytes() is 64 bytes; pinned below
        byte in 0u8..=255u8,
    ) {
        let mut bytes = valid_bytes();
        prop_assert_eq!(bytes.len(), 64);
        bytes[pos] = byte;
        prop_assert_eq!(drain_parsed(&bytes), drain_mapped(&bytes));
    }

    /// Truncating a valid trace at any byte: typed error or a clean
    /// EOF, with parse and cursor agreeing (truncation mid-header and
    /// mid-record must both be caught; only declared-count==yielded
    /// with no trailing bytes may pass).
    #[test]
    fn truncating_anywhere_keeps_parse_and_cursor_typed_and_agreeing(len in 0usize..64) {
        let bytes = valid_bytes();
        let cut = &bytes[..len.min(bytes.len())];
        let parsed = drain_parsed(cut);
        prop_assert_eq!(parsed, drain_mapped(cut));
        // A strict prefix can never replay the full declared body.
        prop_assert!(parsed.is_err());
    }

    /// Structured round-trip: any valid instance survives
    /// write → read → write bit-identically through the binary format,
    /// and the text and binary encodings decode to the same instance.
    /// Footprints of 1–10 ids over up to 12 edges land on both sides of
    /// `EdgeSet`'s five-edge inline boundary, so the decoder builds
    /// both representations.
    #[test]
    fn roundtrip_lossless_and_equivalent_to_text(
        caps in proptest::collection::vec(1u32..9, 1..13),
        reqs in proptest::collection::vec(
            (proptest::collection::vec(0usize..12, 1..11), 1u32..1000),
            0..20,
        ),
    ) {
        let m = caps.len();
        let mut inst = AdmissionInstance::from_capacities(caps);
        for (edges, cost) in reqs {
            let edges: Vec<EdgeId> = edges.into_iter().map(|e| EdgeId((e % m) as u32)).collect();
            inst.push(Request::new(EdgeSet::new(edges), cost as f64));
        }
        let bytes = write_bin_trace(&inst);
        let back = read_bin_trace(&bytes).unwrap();
        prop_assert_eq!(&back.capacities, &inst.capacities);
        prop_assert_eq!(&back.requests, &inst.requests);
        prop_assert_eq!(write_bin_trace(&back), bytes);
        // The two dialects are views of the same instance.
        let via_text = read_trace(&write_trace(&inst)).unwrap();
        prop_assert_eq!(&via_text.requests, &back.requests);
        // The mapped reader yields the identical request sequence.
        let mapped: Vec<Request> = BinTraceMap::from_bytes(bytes)
            .unwrap()
            .into_reader()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(&mapped, &inst.requests);
    }
}
