//! Machine fuzz suite: the sans-I/O [`Connection`] under hostile and
//! arbitrarily-chunked input — no sockets, no timeouts, no flakes.
//!
//! The loopback `protocol_fuzz.rs` suite pins the *server process*
//! against hostile peers; this suite pins the protocol core those
//! scenarios ultimately exercise, directly and exhaustively:
//!
//! 1. **Chunking invariance** — the machine's output bytes depend
//!    only on the input bytes, never on how they were split across
//!    `feed` calls: one-byte-at-a-time through whole-buffer produce
//!    byte-identical replies, across the full v1/v2 negotiation
//!    matrix (v1, v2 summary acks, v2 `events=on`).
//! 2. **Corrupt any byte** — flipping any single input byte to any
//!    value never panics the machine; every reply it emits still
//!    parses as the protocol's reply grammar, and every error is the
//!    one typed `ERR` shape (known code, spec pointer).
//! 3. **Truncate anywhere** — EOF at any byte offset leaves the
//!    machine cleanly finished: either the session completed, the
//!    hangup was at a legal boundary, or one typed `ERR` closed it.

use acmr_core::{AdmissionInstance, OnlineAdmission, Outcome, Request, RequestId};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::default_registry;
use acmr_serve::protocol::{
    decode_error_reply, decode_summary, encode_reset, write_frame, FrameBuffer, FRAME_BATCH,
    FRAME_END, FRAME_ERR, FRAME_EVENT, FRAME_OK, FRAME_REPORT, FRAME_REQ, FRAME_RESET,
    FRAME_STATS_REPLY, FRAME_SUMMARY, GREETING, SPEC_POINTER,
};
use acmr_serve::{Connection, MachineConfig};
use acmr_workloads::binfmt::encode_record_into;
use acmr_workloads::repeated_hot_edge;
use acmr_workloads::trace::write_request_line;
use proptest::prelude::*;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The wire dialect + acknowledgement mode matrix one generated
/// session picks from.
#[derive(Clone, Copy, Debug)]
enum Mode {
    V1,
    V2Summary,
    V2Events,
}

const MODES: [Mode; 3] = [Mode::V1, Mode::V2Summary, Mode::V2Events];

fn machine() -> Connection {
    Connection::new(Arc::new(default_registry()), MachineConfig::default())
}

fn instance() -> AdmissionInstance {
    repeated_hot_edge(4, 3, 12)
}

/// Build the full wire bytes of one session for the given matrix cell:
/// handshake (with the mode's negotiation tokens), the arrivals in the
/// chosen framing, and — unless `hangup` — the terminal `END`.
fn session_script(mode: Mode, spec: &str, batch: Option<usize>, hangup: bool) -> Vec<u8> {
    let inst = instance();
    let mut s = Vec::new();
    write!(s, "OPEN {spec}").unwrap();
    match mode {
        Mode::V1 => {}
        Mode::V2Summary => write!(s, " proto=v2").unwrap(),
        Mode::V2Events => write!(s, " proto=v2 events=on").unwrap(),
    }
    writeln!(s).unwrap();
    writeln!(s, "edges {}", inst.capacities.len()).unwrap();
    write!(s, "caps").unwrap();
    for c in &inst.capacities {
        write!(s, " {c}").unwrap();
    }
    writeln!(s).unwrap();
    match mode {
        Mode::V1 => {
            match batch {
                None => {
                    for r in &inst.requests {
                        write_request_line(&mut s, r).unwrap();
                    }
                }
                Some(n) => {
                    for chunk in inst.requests.chunks(n) {
                        writeln!(s, "BATCH {}", chunk.len()).unwrap();
                        for r in chunk {
                            write_request_line(&mut s, r).unwrap();
                        }
                    }
                }
            }
            if !hangup {
                writeln!(s, "END").unwrap();
            }
        }
        Mode::V2Summary | Mode::V2Events => {
            let m = inst.capacities.len() as u32;
            let mut payload = Vec::new();
            match batch {
                None => {
                    for r in &inst.requests {
                        payload.clear();
                        encode_record_into(&mut payload, r, m).unwrap();
                        write_frame(&mut s, FRAME_REQ, &payload).unwrap();
                    }
                }
                Some(n) => {
                    for chunk in inst.requests.chunks(n) {
                        payload.clear();
                        payload.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                        for r in chunk {
                            encode_record_into(&mut payload, r, m).unwrap();
                        }
                        write_frame(&mut s, FRAME_BATCH, &payload).unwrap();
                    }
                }
            }
            if !hangup {
                write_frame(&mut s, FRAME_END, &[]).unwrap();
            }
        }
    }
    s
}

const KNOWN_CODES: [&str; 10] = [
    "spec",
    "unknown-algorithm",
    "bad-param",
    "violation",
    "poisoned",
    "invalid",
    "parse",
    "io",
    "busy",
    "proto",
];

/// Assert one `ERR` body (line rest or frame payload) is the typed
/// shape: a known code, then a message carrying the spec pointer.
fn assert_typed_err(rest: &str, ctx: &str) {
    let err = decode_error_reply(rest);
    let acmr_core::AcmrError::Remote { code, message } = err else {
        panic!("{ctx}: ERR did not decode to Remote");
    };
    assert!(
        KNOWN_CODES.contains(&code.as_str()),
        "{ctx}: unknown ERR code {code:?} (rest {rest:?})"
    );
    assert!(
        message.contains(SPEC_POINTER),
        "{ctx}: ERR without the spec pointer: {rest:?}"
    );
}

/// Walk a machine's complete output and assert every reply parses as
/// the protocol grammar — lines until (and including) a v2-upgrading
/// `OK`, frames after it — with every `ERR` typed. Returns the replies
/// in order: lines verbatim, then one entry per frame (`ERR <body>`
/// for an error frame, the type byte otherwise). Panics on anything
/// unparseable: the machine must never emit garbage, whatever was fed
/// in.
fn assert_valid_output(out: &[u8], ctx: &str) -> Vec<String> {
    let mut replies = Vec::new();
    let mut rest = out;
    // Line dialect until the stream ends or an upgrade switches it.
    let mut upgraded = false;
    while !rest.is_empty() && !upgraded {
        let nl = rest
            .iter()
            .position(|b| *b == b'\n')
            .unwrap_or_else(|| panic!("{ctx}: output ends mid-line"));
        let line = std::str::from_utf8(&rest[..nl])
            .unwrap_or_else(|e| panic!("{ctx}: non-UTF-8 reply line: {e}"));
        rest = &rest[nl + 1..];
        replies.push(line.to_string());
        if line == GREETING {
        } else if let Some(ok) = line.strip_prefix("OK ") {
            upgraded = ok.ends_with(" proto=v2");
        } else if let Some(err) = line.strip_prefix("ERR ") {
            assert_typed_err(err, ctx);
        } else if let Some(json) = line.strip_prefix("EVENT ") {
            serde_json::from_str::<acmr_core::ArrivalEvent>(json)
                .unwrap_or_else(|e| panic!("{ctx}: malformed {line:?}: {e}"));
        } else if let Some(json) = line.strip_prefix("REPORT ") {
            serde_json::from_str::<acmr_core::RunReport>(json)
                .unwrap_or_else(|e| panic!("{ctx}: malformed {line:?}: {e}"));
        } else if let Some(json) = line.strip_prefix("STATS ") {
            serde_json::from_str::<acmr_serve::StatsReport>(json)
                .unwrap_or_else(|e| panic!("{ctx}: malformed STATS reply: {e}"));
        } else {
            panic!("{ctx}: unexpected reply line {line:?}");
        }
    }
    // Binary dialect for everything after the upgrade.
    if upgraded {
        let mut frames = FrameBuffer::new();
        frames.feed(rest);
        frames.set_eof();
        let mut payload = Vec::new();
        loop {
            let ty = match frames.next_frame(&mut payload) {
                Ok(Some(ty)) => ty,
                Ok(None) => break,
                Err(e) => panic!("{ctx}: machine emitted an unparseable frame: {e}"),
            };
            match ty {
                FRAME_OK | FRAME_STATS_REPLY => {}
                FRAME_EVENT => {
                    let json = std::str::from_utf8(&payload)
                        .unwrap_or_else(|e| panic!("{ctx}: non-UTF-8 frame: {e}"));
                    serde_json::from_str::<acmr_core::ArrivalEvent>(json)
                        .unwrap_or_else(|e| panic!("{ctx}: malformed EVENT frame: {e}"));
                }
                FRAME_REPORT => {
                    let json = std::str::from_utf8(&payload)
                        .unwrap_or_else(|e| panic!("{ctx}: non-UTF-8 frame: {e}"));
                    serde_json::from_str::<acmr_core::RunReport>(json)
                        .unwrap_or_else(|e| panic!("{ctx}: malformed REPORT frame: {e}"));
                }
                FRAME_SUMMARY => {
                    decode_summary(&payload)
                        .unwrap_or_else(|e| panic!("{ctx}: malformed SUMMARY: {e}"));
                }
                FRAME_ERR => {
                    let body = std::str::from_utf8(&payload)
                        .unwrap_or_else(|e| panic!("{ctx}: non-UTF-8 ERR frame: {e}"));
                    assert_typed_err(body, ctx);
                    replies.push(format!("ERR {body}"));
                    continue;
                }
                other => panic!("{ctx}: unexpected reply frame type 0x{other:02x}"),
            }
            replies.push(format!("frame 0x{ty:02x}"));
        }
    }
    replies
}

/// Feed a whole script in one call, then EOF; return the output.
fn drive_whole(script: &[u8]) -> Vec<u8> {
    let mut c = machine();
    c.feed(script);
    c.feed_eof();
    c.drain_output()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunking invariance across the negotiation matrix: the same
    /// session bytes split into arbitrary chunks — one byte at a time
    /// included — produce byte-identical output, with the output
    /// drained (interleaved) after every chunk exactly as a reactor
    /// would.
    #[test]
    fn output_is_invariant_under_any_chunking(
        mode_ix in 0usize..MODES.len(),
        seed in prop_oneof![Just(None), Just(Some(7u64))],
        batch in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(5usize))],
        hangup in prop_oneof![Just(false), Just(true)],
        chunks in proptest::collection::vec(1usize..17, 1..40),
    ) {
        let mode = MODES[mode_ix];
        let spec = match seed {
            None => "greedy".to_string(),
            Some(s) => format!("aag-weighted?seed={s}"),
        };
        let script = session_script(mode, &spec, batch, hangup);
        let whole = drive_whole(&script);
        assert_valid_output(&whole, &format!("{mode:?} whole"));

        // Chunked feed, draining after every chunk (the generated
        // chunk sizes repeat cyclically to cover the whole script).
        let mut c = machine();
        let mut out = Vec::new();
        let mut offset = 0usize;
        let mut i = 0usize;
        while offset < script.len() {
            let n = chunks[i % chunks.len()].min(script.len() - offset);
            c.feed(&script[offset..offset + n]);
            out.extend_from_slice(&c.drain_output());
            offset += n;
            i += 1;
        }
        c.feed_eof();
        out.extend_from_slice(&c.drain_output());
        prop_assert_eq!(
            out, whole,
            "chunked output diverges ({:?}, batch {:?}, hangup {})",
            mode, batch, hangup
        );
    }

    /// Corrupting any byte of a valid session: the machine never
    /// panics, everything it emits still parses as the reply grammar,
    /// and every error is one typed `ERR`.
    #[test]
    fn corrupting_any_byte_yields_parseable_replies(
        mode_ix in 0usize..MODES.len(),
        pos_seed in 0usize..100_000,
        byte in 0u8..=255u8,
    ) {
        let mode = MODES[mode_ix];
        let mut script = session_script(mode, "greedy?seed=5", Some(5), false);
        let pos = pos_seed % script.len();
        script[pos] = byte;
        let out = drive_whole(&script);
        assert_valid_output(&out, &format!("{mode:?} corrupt [{pos}]={byte:#04x}"));
    }

    /// Truncating a valid session at any byte: the machine finishes
    /// cleanly — done, with either a completed run, a legal-boundary
    /// hangup, or one typed `ERR`; never a wedge, never garbage.
    #[test]
    fn truncation_anywhere_finishes_with_a_typed_reply(
        mode_ix in 0usize..MODES.len(),
        len_seed in 0usize..100_000,
    ) {
        let mode = MODES[mode_ix];
        let script = session_script(mode, "greedy?seed=5", Some(5), false);
        let len = len_seed % (script.len() + 1);
        let mut c = machine();
        c.feed(&script[..len]);
        c.feed_eof();
        prop_assert!(c.is_done(), "machine not done after EOF at byte {}", len);
        let out = c.drain_output();
        assert_valid_output(&out, &format!("{mode:?} truncate at {len}"));
    }
}

#[test]
fn zero_capacities_are_refused_alike_by_open_and_reset() {
    // A zero capacity is the same typed parse error whichever message
    // carries it: the v1 handshake's `caps` line or a v2 RESET frame.
    let open = b"OPEN greedy\nedges 2\ncaps 0 2\n".to_vec();
    let mut reset = b"OPEN greedy proto=v2\nedges 2\ncaps 1 1\n".to_vec();
    let mut payload = Vec::new();
    encode_reset(&mut payload, "greedy", None, &[0, 2]);
    write_frame(&mut reset, FRAME_RESET, &payload).unwrap();
    for (name, script) in [("OPEN", open), ("RESET", reset)] {
        let replies = assert_valid_output(&drive_whole(&script), name);
        let errs = replies.iter().filter(|r| r.starts_with("ERR ")).count();
        assert_eq!(errs, 1, "{name}: {replies:?}");
        let last = replies.last().unwrap();
        assert!(
            last.starts_with("ERR parse ") && last.contains("capacities must be positive"),
            "{name}: {last:?}"
        );
    }
}

#[test]
fn an_empty_summary_batch_acknowledges_the_running_objective() {
    // Three unit arrivals on one capacity-1 edge reject two, then an
    // empty `BATCH` changes nothing: its `SUMMARY` must carry the
    // running total (2.0) and add exactly +0.0 to it, like a batch
    // whose arrivals were all accepted.
    let mut script = b"OPEN greedy proto=v2\nedges 1\ncaps 1\n".to_vec();
    let mut batch = 3u32.to_le_bytes().to_vec();
    for _ in 0..3 {
        encode_record_into(&mut batch, &Request::unit(EdgeSet::singleton(EdgeId(0))), 1).unwrap();
    }
    write_frame(&mut script, FRAME_BATCH, &batch).unwrap();
    write_frame(&mut script, FRAME_BATCH, &0u32.to_le_bytes()).unwrap();
    write_frame(&mut script, FRAME_END, &[]).unwrap();
    let out = drive_whole(&script);
    assert_valid_output(&out, "empty batch");
    let ok_end = out
        .windows(9)
        .position(|w| w == b"proto=v2\n")
        .expect("v2 OK line")
        + 9;
    let mut frames = FrameBuffer::new();
    frames.feed(&out[ok_end..]);
    frames.set_eof();
    let mut payload = Vec::new();
    let mut summaries = Vec::new();
    while let Some(ty) = frames.next_frame(&mut payload).unwrap() {
        if ty == FRAME_SUMMARY {
            summaries.push(decode_summary(&payload).unwrap());
        }
    }
    assert_eq!(summaries.len(), 2, "{summaries:?}");
    assert_eq!(summaries[0].total_rejected_cost, 2.0);
    let empty = summaries[1];
    assert_eq!((empty.n, empty.accepted, empty.preemptions), (0, 0, 0));
    assert_eq!(empty.total_rejected_cost, 2.0, "{empty:?}");
    assert_eq!(
        empty.rejected_cost_delta.to_bits(),
        0.0f64.to_bits(),
        "{empty:?}"
    );
}

#[test]
fn stats_probe_is_deterministic_for_a_fixed_feed() {
    // STATS replies include `bytes_in`, which counts *received* bytes
    // — deliberately not chunking-invariant (a probe observes real
    // transport progress), which is why the proptest matrix above
    // never sends STATS. For one fixed feed pattern the reply is
    // still fully deterministic, pinned here.
    let run = || {
        let mut c = machine();
        c.feed(b"STATS\n");
        let first = c.drain_output();
        c.feed(b"STATS\n");
        (first, c.drain_output())
    };
    let (a1, a2) = run();
    let (b1, b2) = run();
    assert_eq!(a1, b1);
    assert_eq!(a2, b2);
    assert_valid_output(&a1, "stats probe");
}

/// Rejects its first two arrivals, then panics: a bug inside an
/// algorithm of a live session.
struct PanicsOnThird;
impl OnlineAdmission for PanicsOnThird {
    fn name(&self) -> &'static str {
        "panics-on-third"
    }
    fn on_request(&mut self, id: RequestId, _r: &Request) -> Outcome {
        assert!(id.0 < 2, "injected fault at arrival {}", id.0);
        Outcome::reject()
    }
}

#[test]
fn algorithm_panic_ends_the_session_with_one_typed_err() {
    let mut registry = default_registry();
    registry.register(
        "panics-on-third",
        "rejects two arrivals, then panics",
        Box::new(|_, _| Ok(Box::new(PanicsOnThird))),
    );
    let registry = Arc::new(registry);
    for mode in MODES {
        for batch in [None, Some(5)] {
            let ctx = format!("{mode:?}, batch {batch:?}");
            let config = MachineConfig::default();
            let counters = Arc::clone(&config.server);
            let mut c = Connection::new(Arc::clone(&registry), config);
            c.feed(&session_script(mode, "panics-on-third", batch, false));
            assert!(c.is_done(), "{ctx}: the machine outlived the panic");
            let replies = assert_valid_output(&c.drain_output(), &ctx);
            let errs = replies.iter().filter(|r| r.starts_with("ERR ")).count();
            assert_eq!(errs, 1, "{ctx}: {replies:?}");
            let last = replies.last().unwrap();
            assert!(
                last.starts_with(
                    "ERR violation panics-on-third: panicked: injected fault at arrival 2"
                ),
                "{ctx}: {last:?}"
            );
            assert_eq!(counters.sessions_opened.load(Ordering::Relaxed), 1, "{ctx}");
            assert_eq!(counters.sessions_active.load(Ordering::Relaxed), 0, "{ctx}");
            // A finished machine answers nothing more.
            c.feed_eof();
            assert!(c.drain_output().is_empty(), "{ctx}");
        }
    }
}
