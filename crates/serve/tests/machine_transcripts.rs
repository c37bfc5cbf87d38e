//! Reply-byte transcripts of the sans-I/O [`Connection`]: scripted
//! conversations in both dialects, each pinned to the exact bytes the
//! machine answers with.
//!
//! The other suites pin *what* the machine decides (events, reports,
//! error codes); these transcripts pin *how it says it*: every
//! greeting, `OK`, `EVENT`, `SUMMARY`, `REPORT`, `STATS` and `ERR`
//! byte, in the line dialect and in v2 frames, plus the connection's
//! final state and counters. Each script covers one happy path or one
//! `ERR` site, and runs twice: fed whole, which must reproduce
//! `tests/transcripts/<name>.txt`, and fed one byte at a time, which
//! must reproduce the whole-feed run. The one exception is a script
//! that sends `STATS`: its reply carries `bytes_in`, the bytes
//! received so far, which depends on how the input was chunked, so
//! only its whole-feed run is compared.
//!
//! A transcript renders each reply on its own line, losslessly:
//! `< <line>` for a line reply (without its newline) and
//! `[0xTT NAME] <payload>` for a v2 frame. Bytes outside printable
//! ASCII, and `\`, are written as `\xNN` and `\\`. The last line,
//! `-- <state> …`, records whether the machine finished and its
//! connection and server counters.
//!
//! To regenerate after an *intentional* change to the wire bytes:
//!
//! ```text
//! UPDATE_TRANSCRIPTS=1 cargo test -p acmr-serve --test machine_transcripts
//! ```
//!
//! and commit the rewritten files.

use acmr_core::{AcmrError, OnlineAdmission, Outcome, Request, RequestId};
use acmr_graph::EdgeId;
use acmr_harness::default_registry;
use acmr_serve::protocol::{
    encode_reset, write_frame, FRAME_BATCH, FRAME_END, FRAME_ERR, FRAME_EVENT, FRAME_OK,
    FRAME_REPORT, FRAME_REQ, FRAME_RESET, FRAME_STATS, FRAME_STATS_REPLY, FRAME_SUMMARY, MAX_BATCH,
};
use acmr_serve::{Connection, MachineConfig};
use acmr_workloads::binfmt::encode_record_into;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn transcripts_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/transcripts"))
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

/// What happens after the script's bytes are fed.
enum Then {
    /// The peer hangs up.
    Eof,
    /// The peer stays connected and silent.
    Wait,
    /// The driver injects a failure (overload, idle timeout).
    Fail(AcmrError),
}

struct Script {
    name: &'static str,
    input: Vec<u8>,
    then: Then,
    /// Sends `STATS`: compared only when fed whole.
    stats: bool,
}

fn script(name: &'static str, input: Vec<u8>) -> Script {
    Script {
        name,
        input,
        then: Then::Eof,
        stats: false,
    }
}

impl Script {
    fn then(mut self, then: Then) -> Self {
        self.then = then;
        self
    }

    fn with_stats(mut self) -> Self {
        self.stats = true;
        self
    }
}

fn request(cost: f64, edges: &[u32]) -> Request {
    Request::new(edges.iter().map(|&e| EdgeId(e)).collect(), cost)
}

/// The ACMR-TRACE v2 record bytes of one arrival, without the edge
/// range check (so a script can send an out-of-range edge).
fn record(cost: f64, edges: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_record_into(&mut buf, &request(cost, edges), u32::MAX).unwrap();
    buf
}

/// Builds one script's input: text lines and v2 frames in order.
#[derive(Default)]
struct Wire(Vec<u8>);

impl Wire {
    fn lines(mut self, text: &str) -> Self {
        self.0.extend_from_slice(text.as_bytes());
        self
    }

    fn frame(mut self, ty: u8, payload: &[u8]) -> Self {
        write_frame(&mut self.0, ty, payload).unwrap();
        self
    }

    fn req(self, cost: f64, edges: &[u32]) -> Self {
        self.frame(FRAME_REQ, &record(cost, edges))
    }

    fn batch(self, arrivals: &[(f64, &[u32])]) -> Self {
        let mut payload = (arrivals.len() as u32).to_le_bytes().to_vec();
        for (cost, edges) in arrivals {
            payload.extend(record(*cost, edges));
        }
        self.frame(FRAME_BATCH, &payload)
    }

    fn end(self) -> Self {
        self.frame(FRAME_END, &[])
    }

    fn stats(self) -> Self {
        self.frame(FRAME_STATS, &[])
    }

    fn reset(self, spec: &str, seed: Option<u64>, capacities: &[u32]) -> Self {
        let mut payload = Vec::new();
        encode_reset(&mut payload, spec, seed, capacities);
        self.frame(FRAME_RESET, &payload)
    }

    fn bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Handshake lines for a three-edge session with capacities 2 1 2.
fn open(args: &str) -> Wire {
    Wire::default().lines(&format!("OPEN {args}\nedges 3\ncaps 2 1 2\n"))
}

const FIVE: [(f64, &[u32]); 5] = [
    (1.5, &[0, 1]),
    (2.0, &[1]),
    (3.0, &[0, 2]),
    (0.5, &[1, 2]),
    (4.0, &[0]),
];

fn scripts() -> Vec<Script> {
    let v1_five = "1.5 0 1\n2 1\n3 0 2\n0.5 1 2\n4 0\n";
    vec![
        // ---- happy paths ------------------------------------------------
        script("hangup_before_open", Vec::new()),
        script(
            "v1_single_arrivals",
            open("greedy seed=7")
                .lines("\n")
                .lines(v1_five)
                .lines("END\n")
                .bytes(),
        ),
        script(
            "v1_batch",
            open("aag-weighted?seed=3")
                .lines("BATCH 0\nBATCH 3\n1.5 0 1\n2 1\n3 0 2\n")
                .lines("0.5 1 2\nBATCH 2\n4 0\n1 1\nEND\n")
                .bytes(),
        ),
        script(
            "v1_hangup_between_arrivals",
            open("greedy").lines("2 1\n1 1\n").bytes(),
        ),
        script(
            "v1_bytes_after_end",
            open("greedy")
                .lines("2 1\nEND\n1 0\nSTATS\nEND\nnot a request\n")
                .bytes(),
        ),
        script(
            "v2_single_arrivals",
            FIVE.iter()
                .fold(open("greedy seed=7 proto=v2"), |w, (c, e)| w.req(*c, e))
                .end()
                .bytes(),
        ),
        script(
            "v2_batch_events",
            open("aag-weighted?seed=3 proto=v2 events=on")
                .batch(&FIVE[..3])
                .req(0.5, &[1, 2])
                .batch(&FIVE[3..])
                .end()
                .bytes(),
        ),
        script(
            "v2_batch_summary",
            open("greedy proto=v2")
                .batch(&FIVE[..3])
                .batch(&[])
                .req(0.5, &[1, 2])
                .batch(&FIVE[3..])
                .end()
                .bytes(),
        ),
        script(
            "v2_hangup_at_frame_boundary",
            open("greedy proto=v2").req(2.0, &[1]).bytes(),
        ),
        script(
            "stats_before_open",
            Wire::default()
                .lines("STATS\n\nSTATS\nOPEN greedy\nedges 1\ncaps 1\n1 0\nEND\n")
                .bytes(),
        )
        .with_stats(),
        script(
            "v1_stats_mid_session",
            open("greedy")
                .lines("2 1\nSTATS\nBATCH 2\n1 0\n1 2\nSTATS\nEND\n")
                .bytes(),
        )
        .with_stats(),
        script(
            "v2_stats_mid_session_and_after_end",
            open("greedy proto=v2")
                .req(2.0, &[1])
                .stats()
                .batch(&FIVE[..2])
                .end()
                .stats()
                .bytes(),
        )
        .with_stats(),
        script(
            "v2_end_then_reset_keeping_capacities",
            open("greedy proto=v2")
                .batch(&FIVE[..3])
                .end()
                .reset("aag-weighted", Some(11), &[])
                .batch(&FIVE)
                .end()
                .reset("greedy", None, &[])
                .req(1.0, &[2])
                .reset("buyback?factor=0.5", None, &[])
                .req(1.0, &[2])
                .end()
                .bytes(),
        ),
        script(
            "v2_end_then_reset_with_capacities",
            open("greedy proto=v2 events=on")
                .req(2.0, &[1])
                .end()
                .reset("greedy", Some(9), &[1, 1, 1, 1])
                .batch(&[(1.0, &[3]), (2.0, &[3]), (1.0, &[2, 3])])
                .end()
                .bytes(),
        ),
        // ---- one script per ERR site -------------------------------------
        script(
            "err_open_not_open",
            Wire::default().lines("HELLO greedy\n").bytes(),
        ),
        script(
            "err_open_missing_spec",
            Wire::default().lines("OPEN\n").bytes(),
        ),
        script("err_open_bad_token", open("greedy bogus=1").bytes()),
        script("err_open_bad_spec", open("greedy?=").bytes()),
        script("err_open_unknown_algorithm", open("nope").bytes()),
        script(
            "err_open_events_without_v2",
            open("greedy events=on").bytes(),
        ),
        script(
            "err_bad_edges",
            Wire::default().lines("OPEN greedy\nedges x\n").bytes(),
        ),
        script(
            "err_bad_caps",
            Wire::default()
                .lines("OPEN greedy\nedges 2\ncaps 1\n")
                .bytes(),
        ),
        script(
            "err_zero_caps",
            Wire::default()
                .lines("OPEN greedy\nedges 2\ncaps 0 2\n")
                .bytes(),
        ),
        script(
            "err_hangup_before_edges",
            Wire::default().lines("OPEN greedy\n").bytes(),
        ),
        script(
            "err_hangup_before_caps",
            Wire::default().lines("OPEN greedy\nedges 2\n\n").bytes(),
        ),
        script(
            "err_v1_hangup_mid_batch",
            open("greedy").lines("BATCH 3\n1 0\n2 1\n").bytes(),
        ),
        script(
            "err_v1_blank_line_in_batch",
            open("greedy").lines("BATCH 3\n1 0\n\n").bytes(),
        ),
        script(
            "err_v1_batch_over_max",
            open("greedy")
                .lines(&format!("BATCH {}\n", MAX_BATCH + 1))
                .bytes(),
        ),
        script(
            "err_v1_batch_malformed",
            open("greedy").lines("BATCH two\n").bytes(),
        ),
        script(
            "err_v1_bad_request_line",
            open("greedy").lines("2 1\n1 7\n2 1\n").bytes(),
        ),
        script(
            "err_v1_bad_request_in_batch",
            open("greedy").lines("BATCH 2\n1 0\nnan 1\n").bytes(),
        ),
        script("err_v2_hangup_mid_batch_frame", {
            let mut bytes = open("greedy proto=v2").batch(&FIVE).bytes();
            bytes.truncate(bytes.len() - 7);
            bytes
        }),
        script(
            "err_v2_batch_over_max",
            open("greedy proto=v2")
                .frame(FRAME_BATCH, &(MAX_BATCH as u32 + 1).to_le_bytes())
                .bytes(),
        ),
        script(
            "err_v2_batch_bad_record",
            open("greedy proto=v2 events=on")
                .batch(&[(1.0, &[0]), (1.0, &[5])])
                .bytes(),
        ),
        script(
            "err_v2_req_trailing_bytes",
            open("greedy proto=v2")
                .frame(FRAME_REQ, &[record(1.0, &[0]), vec![0]].concat())
                .bytes(),
        ),
        script(
            "err_v2_end_with_payload",
            open("greedy proto=v2").frame(FRAME_END, &[0]).bytes(),
        ),
        script(
            "err_v2_stats_with_payload",
            open("greedy proto=v2").frame(FRAME_STATS, &[0]).bytes(),
        ),
        script(
            "err_v2_arrival_after_end",
            open("greedy proto=v2")
                .req(1.0, &[0])
                .end()
                .req(1.0, &[0])
                .bytes(),
        ),
        script(
            "err_v2_unknown_frame_type",
            open("greedy proto=v2").frame(0x7f, b"?").bytes(),
        ),
        script(
            "err_v2_reset_zero_capacity",
            open("greedy proto=v2")
                .end()
                .reset("greedy", None, &[0, 2])
                .bytes(),
        ),
        script(
            "err_v2_reset_unknown_algorithm",
            open("greedy proto=v2").reset("nope", None, &[]).bytes(),
        ),
        script(
            "err_v2_reset_malformed",
            open("greedy proto=v2").frame(FRAME_RESET, &[1, 0]).bytes(),
        ),
        // Greedy keeps the first arrival on the one unit edge and
        // rejects the next two; the third pushes the rejected total
        // past f64::MAX to +inf, which no EVENT body can carry.
        script(
            "err_v1_event_total_overflows",
            Wire::default()
                .lines("OPEN greedy\nedges 1\ncaps 1\n")
                .lines("1.5e308 0\n1.5e308 0\n1.5e308 0\n")
                .bytes(),
        ),
        script(
            "err_v2_event_total_overflows",
            Wire::default()
                .lines("OPEN greedy proto=v2\nedges 1\ncaps 1\n")
                .req(1.5e308, &[0])
                .req(1.5e308, &[0])
                .req(1.5e308, &[0])
                .bytes(),
        ),
        script(
            "err_v1_algorithm_panic",
            open("panics-on-third").lines("1 0\n1 0\n1 0\n").bytes(),
        ),
        script(
            "err_v2_algorithm_panic_in_batch",
            open("panics-on-third proto=v2").batch(&FIVE[..3]).bytes(),
        ),
        script(
            "err_v2_algorithm_panic_in_events_batch",
            open("panics-on-third proto=v2 events=on")
                .batch(&FIVE[..3])
                .bytes(),
        ),
        script("err_busy_before_open", Vec::new()).then(Then::Fail(AcmrError::Busy {
            message: "server at its 1-connection capacity".into(),
        })),
        script("err_idle_timeout_in_v2", open("greedy proto=v2").bytes()).then(Then::Fail(
            AcmrError::Io {
                message: "idle timeout: no bytes received for 50 ms".into(),
            },
        )),
        script(
            "v1_session_left_open",
            open("greedy").lines("2 1\n").bytes(),
        )
        .then(Then::Wait),
    ]
}

fn registry() -> Arc<acmr_core::Registry> {
    let mut registry = default_registry();
    registry.register(
        "panics-on-third",
        "rejects two arrivals, then panics",
        Box::new(|_, _| Ok(Box::new(PanicsOnThird))),
    );
    Arc::new(registry)
}

/// Run one script, feeding its input in `chunk`-byte pieces (draining
/// after each, as a reactor would), and render the transcript.
fn run(registry: &Arc<acmr_core::Registry>, s: &Script, chunk: usize) -> String {
    let config = MachineConfig::default();
    let server = Arc::clone(&config.server);
    let mut conn = Connection::new(Arc::clone(registry), config);
    let mut out = conn.drain_output();
    for piece in s.input.chunks(chunk) {
        conn.feed(piece);
        out.extend(conn.drain_output());
    }
    match &s.then {
        Then::Eof => conn.feed_eof(),
        Then::Wait => {}
        Then::Fail(e) => conn.fail(e),
    }
    out.extend(conn.drain_output());
    let mut text = render(&out);
    let stats = conn.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    writeln!(
        text,
        "-- {} session={:?} sessions={} arrivals={} batches={} errors={} bytes_in={} bytes_out={} \
         | server sessions_opened={} sessions_active={} arrivals={} batches={} errors={} bytes_out={}",
        if conn.is_done() { "done" } else { "open" },
        conn.session(),
        stats.sessions,
        stats.arrivals,
        stats.batches,
        stats.errors,
        stats.bytes_in,
        stats.bytes_out,
        load(&server.sessions_opened),
        load(&server.sessions_active),
        load(&server.arrivals),
        load(&server.batches),
        load(&server.errors),
        load(&server.bytes_out),
    )
    .unwrap();
    text
}

/// Render a reply stream, one reply per line. A reply starting with a
/// byte below 0x80 is a line (every line reply starts with an ASCII
/// keyword); anything else is a v2 frame (every reply frame type is
/// 0x80 or above).
fn render(mut out: &[u8]) -> String {
    let mut text = String::new();
    while let Some(&first) = out.first() {
        if first < 0x80 {
            let (line, rest) = match out.iter().position(|&b| b == b'\n') {
                Some(nl) => (&out[..nl], &out[nl + 1..]),
                None => {
                    writeln!(text, "<! unterminated {}", escape(out)).unwrap();
                    break;
                }
            };
            writeln!(text, "< {}", escape(line)).unwrap();
            out = rest;
            continue;
        }
        let len = out
            .get(1..5)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize);
        let Some(payload) = len.and_then(|len| out.get(5..5 + len)) else {
            writeln!(text, "[! truncated frame] {}", escape(out)).unwrap();
            break;
        };
        let name = match first {
            FRAME_OK => "OK",
            FRAME_EVENT => "EVENT",
            FRAME_SUMMARY => "SUMMARY",
            FRAME_REPORT => "REPORT",
            FRAME_ERR => "ERR",
            FRAME_STATS_REPLY => "STATS",
            _ => "?",
        };
        writeln!(text, "[0x{first:02x} {name}] {}", escape(payload)).unwrap();
        out = &out[5 + payload.len()..];
    }
    text
}

fn escape(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len());
    for &b in bytes {
        match b {
            b'\\' => s.push_str("\\\\"),
            0x20..=0x7e => s.push(b as char),
            _ => write!(s, "\\x{b:02x}").unwrap(),
        }
    }
    s
}

/// The first line where two transcripts differ, for a readable failure.
fn first_difference(expected: &str, actual: &str) -> String {
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for n in 1.. {
        match (e.next(), a.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => {
                return format!("line {n}:\n  expected {x:?}\n  actual   {y:?}");
            }
        }
    }
    "identical lines, different bytes".to_string()
}

fn check(name: &str, actual: &str, failures: &mut Vec<String>) {
    let path = transcripts_dir().join(format!("{name}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(expected) if expected == actual => {}
        Ok(expected) => failures.push(format!("{name}: {}", first_difference(&expected, actual))),
        Err(e) => failures.push(format!(
            "{name}: cannot read {} ({e}); run `UPDATE_TRANSCRIPTS=1 cargo test -p acmr-serve \
             --test machine_transcripts`",
            path.display()
        )),
    }
}

#[test]
fn every_script_replies_its_transcript_bytes() {
    let registry = registry();
    let scripts = scripts();
    let update = std::env::var("UPDATE_TRANSCRIPTS").is_ok_and(|v| v == "1");
    let dir = transcripts_dir();
    if update {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut failures = Vec::new();
    for s in &scripts {
        let whole = run(&registry, s, s.input.len().max(1));
        if update {
            std::fs::write(dir.join(format!("{}.txt", s.name)), &whole).unwrap();
        } else {
            check(s.name, &whole, &mut failures);
        }
    }
    // No transcript outlives its script.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let name = file.strip_suffix(".txt").unwrap_or(&file);
        if !scripts.iter().any(|s| s.name == name) {
            failures.push(format!("{file}: no script of that name"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn byte_at_a_time_feeding_replies_the_same_bytes() {
    let registry = registry();
    let mut failures = Vec::new();
    for s in scripts().iter().filter(|s| !s.stats) {
        let whole = run(&registry, s, s.input.len().max(1));
        let bytewise = run(&registry, s, 1);
        if bytewise != whole {
            failures.push(format!(
                "{}: {}",
                s.name,
                first_difference(&whole, &bytewise)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn scripts_cover_every_reply_kind_in_both_dialects() {
    let registry = registry();
    let all: String = scripts()
        .iter()
        .map(|s| run(&registry, s, 1 << 20))
        .collect();
    for needle in [
        "< ACMR-SERVE v1",
        "< OK ",
        "< EVENT ",
        "< REPORT ",
        "< STATS ",
        "< ERR ",
        "[0x80 OK]",
        "[0x81 EVENT]",
        "[0x82 SUMMARY]",
        "[0x83 REPORT]",
        "[0x84 ERR]",
        "[0x85 STATS]",
    ] {
        assert!(all.contains(needle), "no script replies {needle:?}");
    }
}
