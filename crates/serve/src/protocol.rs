//! The `ACMR-SERVE` wire protocol: constants, the capped line reader
//! both ends use, the error-reply encoding, the `EVENT` body codec,
//! and the `v2` binary frame codec.
//!
//! An `EVENT` body, the one reply written per decision, is JSON in
//! one exact form, written by [`encode_event`] and read by
//! [`decode_event`] without a value tree; `serde_json` serves only
//! the `REPORT` and `STATS` bodies.
//!
//! Each dialect has one tokenizer, shared by both ends: lines are
//! carved by [`acmr_workloads::trace::LineBuffer`] and v2 frames by
//! [`FrameBuffer`]. The server's reactor feeds them from nonblocking
//! reads; the client's blocking [`FrameReader`] and
//! [`BinFrameReader`] are pull loops over the same carvers.
//!
//! The **v1** protocol is line-based on purpose — it is the trace
//! grammar of `docs/TRACE_FORMAT.md` lifted onto a socket (request
//! frames *are* trace request lines, parsed by the same
//! [`acmr_workloads::trace::parse_request_line`] the file reader
//! uses), so `nc` is a usable client and every framing rule is
//! specified in one place: `docs/SERVING.md`.
//!
//! ## v1 frame summary
//!
//! ```text
//! server → client   ACMR-SERVE v1              greeting, on accept
//! client → server   OPEN <spec> [seed=<S>]     handshake line 1
//!                   edges <m>                  handshake line 2
//!                   caps <c1> … <cm>           handshake line 3
//! server → client   OK <session-id> <canonical-spec>
//! client → server   <cost> <edge>…             one arrival (trace grammar)
//!                   BATCH <n>                  then exactly n request lines
//!                   END                        finish the session
//! server → client   EVENT <json>               one per arrival, in order
//!                   REPORT <json>              reply to END, then close
//! server → client   ERR <code> <message>       terminal: connection closes
//! ```
//!
//! ## v2: binary frames, negotiated at `OPEN`
//!
//! The **v2** mode keeps the line-based bootstrap (greeting and the
//! three handshake lines are unchanged) and is negotiated with an
//! extra `OPEN` argument: `OPEN <spec> [seed=<S>] proto=v2
//! [events=on]`. A v2-capable server replies `OK <id> <spec>
//! proto=v2` and **both directions switch to length-prefixed binary
//! frames** after their respective handshake line:
//!
//! ```text
//! frame := type:u8  len:u32le  payload[len]
//! ```
//!
//! Arrival payloads are *exactly* the `ACMR-TRACE v2` record bytes of
//! `docs/TRACE_FORMAT.md` ([`acmr_workloads::encode_record_into`] /
//! [`acmr_workloads::decode_record`] are the codec, shared with the
//! trace file writer/reader — file ≡ socket by construction). A
//! `BATCH` frame is acknowledged with **one** [`BatchSummary`] frame
//! unless the client opted into per-event replies with `events=on`;
//! a `RESET` frame tears the session down and opens a fresh one on
//! the same connection — the persistent-session mode cluster sweeps
//! use. Error replies carry the same typed codes as v1, as the
//! payload of an [`FRAME_ERR`] frame. Full spec: `docs/SERVING.md`.

use acmr_core::{AcmrError, ArrivalEvent, RequestId};
use acmr_workloads::trace::{LineScanner, CHUNK_SIZE};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// The greeting the server writes on accept — the version of the
/// line-based *bootstrap* grammar (`v2` sessions are negotiated per
/// connection at `OPEN`, so the greeting never changes with them; a
/// greeting bump would mean the bootstrap lines themselves changed).
pub const GREETING: &str = "ACMR-SERVE v1";

/// The `OPEN` (and `OK`) argument that negotiates binary-frame mode.
pub const PROTO_V2_TOKEN: &str = "proto=v2";

/// The `OPEN` argument that opts a v2 session into per-event `BATCH`
/// replies (v1 behavior); without it a `BATCH` frame is acknowledged
/// by one [`BatchSummary`] frame.
pub const EVENTS_TOKEN: &str = "events=on";

/// Which protocol a session speaks after `OPEN`: the client's choice,
/// since every server accepts both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoVersion {
    /// The line protocol: JSON `EVENT` per arrival, text frames.
    V1,
    /// Binary frames: trace-record arrivals, batch-summary acks,
    /// `RESET` persistent sessions.
    V2,
}

impl ProtoVersion {
    /// Parse an `acmr client --proto` flag value (`"v1"` / `"v2"`).
    pub fn parse(s: &str) -> Option<ProtoVersion> {
        match s {
            "v1" => Some(ProtoVersion::V1),
            "v2" => Some(ProtoVersion::V2),
            _ => None,
        }
    }
}

/// Longest wire line either end accepts — **equal to the trace
/// reader's [`acmr_workloads::trace::MAX_LINE_BYTES`]**, so the socket
/// accepts exactly the lines the file reader accepts (a trace that
/// streams through `acmr run --stream` always replays through `acmr
/// client`) while an adversarial newline-free stream still cannot
/// balloon a connection thread's memory past this cap.
pub const MAX_FRAME_BYTES: usize = acmr_workloads::trace::MAX_LINE_BYTES;

/// Largest `BATCH <n>` a server accepts: bounds the per-connection
/// request buffer the same way [`MAX_FRAME_BYTES`] bounds lines.
pub const MAX_BATCH: usize = 1 << 16;

/// Where the protocol is specified — echoed in every `ERR` reply so an
/// operator staring at a raw socket log knows where to look.
pub const SPEC_POINTER: &str = "protocol spec: docs/SERVING.md";

/// The stable wire code an [`AcmrError`] maps onto in `ERR` replies.
///
/// Codes are part of the protocol surface (scripts may dispatch on
/// them), so they are spelled out in `docs/SERVING.md` and must not
/// change meaning within `v1`.
pub fn error_code(e: &AcmrError) -> &'static str {
    match e {
        AcmrError::SpecParse { .. } => "spec",
        AcmrError::UnknownAlgorithm { .. } => "unknown-algorithm",
        AcmrError::BadParam { .. } => "bad-param",
        AcmrError::ContractViolation { .. } => "violation",
        AcmrError::SessionPoisoned => "poisoned",
        AcmrError::InvalidRequest { .. } => "invalid",
        AcmrError::TraceParse { .. } => "parse",
        AcmrError::Io { .. } => "io",
        AcmrError::Busy { .. } => "busy",
        AcmrError::Remote { .. } => "proto",
    }
}

/// The body of the `ERR` reply the server sends before closing the
/// connection: `<code> <message> (<spec pointer>)` — what follows the
/// `ERR ` keyword in a v1 line and the **entire payload** of a v2
/// [`FRAME_ERR`] frame, so both protocols share one error grammar and
/// one decoder ([`decode_error_reply`]).
pub fn error_reply_body(e: &AcmrError) -> String {
    // Error displays are single-line by construction; the replace is
    // belt-and-braces so a future message can never break the framing.
    let message = e.to_string().replace('\n', " ");
    format!("{} {message} ({SPEC_POINTER})", error_code(e))
}

/// Decode an `ERR <code> <message>` line (without the `ERR ` prefix
/// already stripped) into the typed [`AcmrError::Remote`] the client
/// surfaces.
pub fn decode_error_reply(rest: &str) -> AcmrError {
    let mut parts = rest.splitn(2, ' ');
    let code = parts.next().unwrap_or("proto").to_string();
    let message = parts.next().unwrap_or("").to_string();
    AcmrError::Remote { code, message }
}

/// Chunked, capped line reader both the server and the client run
/// their half of the socket through: yields trimmed lines with their
/// 1-based wire line number, and rejects any line longer than
/// [`MAX_FRAME_BYTES`] with a typed [`AcmrError::TraceParse`] —
/// bounded memory against hostile peers, never a panic.
///
/// A thin wrapper over [`acmr_workloads::trace::LineScanner`] — the
/// *same* byte-level tokenizer the trace file reader uses, so the
/// socket and the file carve lines identically by construction. Lines
/// come out borrowed from the scanner's buffer
/// ([`FrameReader::next_line_str`]) or as owned `String`s
/// ([`FrameReader::next_line`]).
///
/// ```
/// use acmr_serve::protocol::FrameReader;
///
/// let mut frames = FrameReader::new("OPEN greedy\nedges 2\n".as_bytes());
/// assert_eq!(frames.next_line().unwrap(), Some((1, "OPEN greedy".to_string())));
/// assert_eq!(frames.next_line_str().unwrap(), Some((2, "edges 2")));
/// assert_eq!(frames.next_line().unwrap(), None); // clean EOF
/// ```
pub struct FrameReader<R: Read> {
    scan: LineScanner<R>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap one half of a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            scan: LineScanner::with_max_line(inner, MAX_FRAME_BYTES),
        }
    }

    /// Lines yielded so far (the next line is number `line_number()+1`).
    pub fn line_number(&self) -> usize {
        self.scan.line_number()
    }

    /// The wire line number of the line that *would come next* —
    /// where a frame the peer never sent was expected. This is the
    /// number a "connection closed before …" `ERR` must report:
    /// reporting `line_number()` instead points one line off (at the
    /// last line actually read — typically a blank line the server
    /// skipped, since blanks between frames are ignored but still
    /// numbered), which is exactly the drift the protocol unit tests
    /// pin below.
    pub fn next_line_number(&self) -> usize {
        self.scan.line_number() + 1
    }

    /// The next line as `(1-based number, trimmed content)`, `None` at
    /// end of stream. A peer that stops mid-line yields the partial
    /// line once EOF is observed, exactly like the trace reader.
    pub fn next_line(&mut self) -> Result<Option<(usize, String)>, AcmrError> {
        Ok(self.next_line_str()?.map(|(n, line)| (n, line.to_string())))
    }

    /// [`FrameReader::next_line`] without the copy: the line borrows
    /// the reader's buffer until the next read.
    pub fn next_line_str(&mut self) -> Result<Option<(usize, &str)>, AcmrError> {
        self.scan.next_line()
    }

    /// Dismantle the reader for the v2 protocol upgrade: any bytes
    /// scanned ahead of the last yielded line (a pipelining peer's
    /// first binary frames) plus the raw stream. Feed both to a
    /// [`BinFrameReader`] via [`BinFrameReader::with_rest`] so no
    /// byte is lost at the line→binary boundary.
    pub fn into_binary(self) -> (Vec<u8>, R) {
        self.scan.into_parts()
    }
}

// ---------------------------------------------------------------------------
// v2 binary frames
// ---------------------------------------------------------------------------

/// v2 frame type: one arrival; payload is exactly one `ACMR-TRACE v2`
/// record (client → server).
pub const FRAME_REQ: u8 = 0x01;
/// v2 frame type: a batch of arrivals; payload is a `u32le` count
/// followed by that many records back-to-back (client → server).
pub const FRAME_BATCH: u8 = 0x02;
/// v2 frame type: finish the session; empty payload (client → server).
pub const FRAME_END: u8 = 0x03;
/// v2 frame type: abandon the current session and open a fresh one on
/// the same connection; payload per [`encode_reset`] (client → server).
pub const FRAME_RESET: u8 = 0x04;
/// v2 frame type: request the server's counters; empty payload
/// (client → server). Answered with one [`FRAME_STATS_REPLY`] frame.
/// Valid at any frame boundary — mid-session, or after `END` while
/// the connection waits for a `RESET`. The v1 twin is the bare
/// `STATS` request line, answered by a `STATS <json>` line with the
/// same payload (also accepted *instead of* `OPEN`, so a monitoring
/// probe needs no session).
pub const FRAME_STATS: u8 = 0x05;
/// v2 frame type: session opened (reply to `RESET`); payload is the
/// `u64le` session id followed by the canonical spec in UTF-8.
pub const FRAME_OK: u8 = 0x80;
/// v2 frame type: one audited decision; payload is the same JSON
/// document a v1 `EVENT` line carries ([`encode_event`]).
pub const FRAME_EVENT: u8 = 0x81;
/// v2 frame type: one [`BatchSummary`] acknowledging a whole `BATCH`
/// frame (unless the session opted into per-event replies).
pub const FRAME_SUMMARY: u8 = 0x82;
/// v2 frame type: the final report (reply to `END`); payload is the
/// same JSON document a v1 `REPORT` line carries.
pub const FRAME_REPORT: u8 = 0x83;
/// v2 frame type: terminal error; payload is the UTF-8
/// [`error_reply_body`] text — same codes, same grammar as v1.
pub const FRAME_ERR: u8 = 0x84;
/// v2 frame type: reply to [`FRAME_STATS`]; payload is the UTF-8 JSON
/// serialization of one [`StatsReport`] — byte-identical to what
/// follows `STATS ` in the v1 reply line.
pub const FRAME_STATS_REPLY: u8 = 0x85;

/// The server's reply kinds. Each travels as a v1 line
/// `<keyword> <body>` or as one v2 frame of its type, with the same
/// body in both dialects — except `OK`, whose v1 line spells the id
/// and spec as text, and `SUMMARY`, which only v2 sends. The machine
/// frames every reply it writes through this table, and the client
/// reads every reply through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReplyKind {
    Ok,
    Event,
    Summary,
    Report,
    Err,
    Stats,
}

impl ReplyKind {
    const ALL: [ReplyKind; 6] = [
        ReplyKind::Ok,
        ReplyKind::Event,
        ReplyKind::Summary,
        ReplyKind::Report,
        ReplyKind::Err,
        ReplyKind::Stats,
    ];

    /// The v1 line keyword.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            ReplyKind::Ok => "OK",
            ReplyKind::Event => "EVENT",
            ReplyKind::Summary => "SUMMARY",
            ReplyKind::Report => "REPORT",
            ReplyKind::Err => "ERR",
            ReplyKind::Stats => "STATS",
        }
    }

    /// The v2 frame type.
    pub(crate) fn frame_type(self) -> u8 {
        match self {
            ReplyKind::Ok => FRAME_OK,
            ReplyKind::Event => FRAME_EVENT,
            ReplyKind::Summary => FRAME_SUMMARY,
            ReplyKind::Report => FRAME_REPORT,
            ReplyKind::Err => FRAME_ERR,
            ReplyKind::Stats => FRAME_STATS_REPLY,
        }
    }

    pub(crate) fn from_keyword(keyword: &str) -> Option<ReplyKind> {
        ReplyKind::ALL.into_iter().find(|k| k.keyword() == keyword)
    }

    pub(crate) fn from_frame_type(ty: u8) -> Option<ReplyKind> {
        ReplyKind::ALL.into_iter().find(|k| k.frame_type() == ty)
    }
}

/// Blocking reader for the v2 binary frame stream: the pull loop
/// over a [`FrameBuffer`], the way [`LineScanner`] drives the line
/// carver. Frames come only out of [`FrameBuffer::next_frame`], so
/// the client and the server's reactor carve the same grammar with
/// the same code: `type:u8 len:u32le payload[len]`, payloads capped
/// at [`MAX_FRAME_BYTES`] (bounded memory against hostile peers,
/// exactly like the line reader).
///
/// Reads are chunked, so the reader may buffer bytes past the current
/// frame: keep one reader per stream. Framing violations (oversized
/// length, truncation mid-frame) are typed [`AcmrError::TraceParse`]
/// errors whose `line` is the 1-based index of the offending *frame* —
/// the binary stream has no lines; I/O failures surface as
/// [`AcmrError::Io`].
pub struct BinFrameReader<R: Read> {
    inner: R,
    frames: FrameBuffer,
    /// Reusable read buffer of [`CHUNK_SIZE`] bytes.
    chunk: Vec<u8>,
}

impl<R: Read> BinFrameReader<R> {
    /// Read frames from `inner`.
    pub fn new(inner: R) -> Self {
        BinFrameReader {
            inner,
            frames: FrameBuffer::new(),
            chunk: vec![0; CHUNK_SIZE],
        }
    }

    /// Frames yielded so far.
    pub fn frame_number(&self) -> usize {
        self.frames.frame_number()
    }

    /// Read the next frame's payload into `payload`, returning its
    /// type byte — or `None` on a clean EOF *at a frame boundary*
    /// (the peer hung up between frames). EOF inside a frame is a
    /// typed truncation error.
    pub fn read_frame(&mut self, payload: &mut Vec<u8>) -> Result<Option<u8>, AcmrError> {
        loop {
            if let Some(ty) = self.frames.next_frame(payload)? {
                return Ok(Some(ty));
            }
            if self.frames.is_eof() {
                return Ok(None);
            }
            match self.inner.read(&mut self.chunk) {
                Ok(0) => self.frames.set_eof(),
                Ok(n) => self.frames.feed(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(AcmrError::Io {
                        message: format!("frame read failed: {e}"),
                    })
                }
            }
        }
    }
}

impl<R: Read> BinFrameReader<std::io::Chain<std::io::Cursor<Vec<u8>>, R>> {
    /// A frame reader over `rest` (bytes a [`FrameReader`] had
    /// scanned past the handshake's last line) followed by the raw
    /// stream — the receiving half of the line→binary upgrade.
    pub fn with_rest(rest: Vec<u8>, inner: R) -> Self {
        BinFrameReader::new(std::io::Read::chain(std::io::Cursor::new(rest), inner))
    }
}

/// The pure, push-fed core of the v2 binary framing: bytes go in via
/// [`FrameBuffer::feed`], whole frames come out of
/// [`FrameBuffer::next_frame`] — no reader, no I/O, no blocking. This
/// is the one v2 frame carver: the sans-I/O
/// [`crate::machine::Connection`] feeds it from nonblocking socket
/// reads, and [`BinFrameReader`] drives it over blocking streams (the
/// client). Grammar: `type:u8 len:u32le payload[len]`, payloads
/// capped at [`MAX_FRAME_BYTES`], truncation and oversize typed by
/// 1-based frame number.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    frames: usize,
    eof: bool,
}

impl FrameBuffer {
    /// An empty frame buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append input bytes (compacting the consumed prefix first).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Signal end of input: a partial frame still buffered becomes a
    /// typed truncation error on the next [`FrameBuffer::next_frame`];
    /// an empty buffer is a clean end at a frame boundary.
    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    /// Whether end of input was signalled.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Frames yielded so far.
    pub fn frame_number(&self) -> usize {
        self.frames
    }

    /// Carve the next complete frame into `payload` (cleared first),
    /// returning its type byte. `Ok(None)` means *no complete frame
    /// buffered*: feed more input — unless [`FrameBuffer::is_eof`], in
    /// which case the stream ended cleanly at a frame boundary (EOF
    /// mid-frame is the typed truncation error instead). An oversized
    /// declared length is refused from the 5 header bytes alone,
    /// before any payload arrives.
    pub fn next_frame(&mut self, payload: &mut Vec<u8>) -> Result<Option<u8>, AcmrError> {
        let pending = self.buf.len() - self.start;
        if pending == 0 {
            return Ok(None);
        }
        let frame = self.frames + 1;
        if pending < 5 {
            return if self.eof {
                Err(truncated(frame))
            } else {
                Ok(None)
            };
        }
        let head = &self.buf[self.start..];
        let ty = head[0];
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(AcmrError::TraceParse {
                line: frame,
                message: format!("frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}"),
            });
        }
        if pending < 5 + len {
            return if self.eof {
                Err(truncated(frame))
            } else {
                Ok(None)
            };
        }
        payload.clear();
        payload.extend_from_slice(&self.buf[self.start + 5..self.start + 5 + len]);
        self.start += 5 + len;
        self.frames = frame;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(ty))
    }
}

/// Server-wide counters in a `STATS` reply: the lifetime totals of
/// the whole process, across every connection and shard. All counts
/// are monotonic except the two `*_active` gauges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Milliseconds since the server started listening (0 when the
    /// machine is driven without a clock, e.g. in-process tests).
    pub uptime_ms: u64,
    /// Connections accepted since start (including busy-rejected ones).
    pub connections_opened: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Sessions opened since start (`OPEN` handshakes plus `RESET`s).
    pub sessions_opened: u64,
    /// Sessions currently live (opened, not yet ended or torn down).
    pub sessions_active: u64,
    /// Arrival requests admitted to a session (single or in batches).
    pub arrivals: u64,
    /// `BATCH` frames processed.
    pub batches: u64,
    /// Payload bytes read from clients.
    pub bytes_in: u64,
    /// Reply bytes written to clients (greetings included).
    pub bytes_out: u64,
    /// Typed `ERR` replies emitted.
    pub errors: u64,
    /// Connections refused with `ERR busy` by the overload policy.
    pub busy_rejections: u64,
}

/// Per-connection counters in a `STATS` reply: what *this* connection
/// has done since it was accepted.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnStats {
    /// Sessions opened on this connection (`OPEN` plus `RESET`s).
    pub sessions: u64,
    /// Arrival requests processed on this connection.
    pub arrivals: u64,
    /// `BATCH` frames processed on this connection.
    pub batches: u64,
    /// Bytes received on this connection.
    pub bytes_in: u64,
    /// Bytes sent on this connection.
    pub bytes_out: u64,
    /// Typed `ERR` replies emitted on this connection.
    pub errors: u64,
}

/// The payload of a `STATS` reply — one JSON object on the wire,
/// byte-identical between the v1 `STATS <json>` line and the v2
/// [`FRAME_STATS_REPLY`] frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Server-wide totals.
    pub server: ServerStats,
    /// The asking connection's own counters.
    pub connection: ConnStats,
}

fn truncated(frame: usize) -> AcmrError {
    AcmrError::TraceParse {
        line: frame,
        message: "connection closed mid-frame".into(),
    }
}

/// Write one frame: `type`, `u32le` length, payload. The caller
/// flushes; payloads above [`MAX_FRAME_BYTES`] are refused (the
/// receiver would reject them anyway).
pub fn write_frame<W: std::io::Write>(w: &mut W, ty: u8, payload: &[u8]) -> Result<(), AcmrError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(AcmrError::InvalidRequest {
            reason: format!(
                "frame payload of {} bytes exceeds {MAX_FRAME_BYTES}",
                payload.len()
            ),
        });
    }
    w.write_all(&[ty])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// One [`FRAME_SUMMARY`] payload: what a whole `BATCH` collapsed to.
/// Everything a driver that discards per-arrival events still needs —
/// progress accounting and the running objective — in 28 fixed bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchSummary {
    /// Arrivals the batch carried (echoed so the client can verify
    /// the server consumed exactly the frame it sent).
    pub n: u32,
    /// How many of them ended the batch still accepted.
    pub accepted: u32,
    /// Preemptions the batch performed.
    pub preemptions: u32,
    /// Rejected cost the batch added to the objective.
    pub rejected_cost_delta: f64,
    /// Running total rejected cost after the batch — the paper's
    /// objective so far.
    pub total_rejected_cost: f64,
}

/// Collapse a batch's audited events into its [`BatchSummary`].
pub fn summarize_events(events: &[ArrivalEvent]) -> BatchSummary {
    BatchSummary {
        n: events.len() as u32,
        accepted: events.iter().filter(|e| e.accepted).count() as u32,
        preemptions: events.iter().map(|e| e.preempted.len() as u32).sum(),
        rejected_cost_delta: events.iter().map(|e| e.rejected_cost_delta).sum(),
        total_rejected_cost: events.last().map_or(0.0, |e| e.total_rejected_cost),
    }
}

/// Encode a [`BatchSummary`] as a [`FRAME_SUMMARY`] payload (little
/// endian, fields in declaration order).
pub fn encode_summary(buf: &mut Vec<u8>, s: &BatchSummary) {
    buf.extend_from_slice(&s.n.to_le_bytes());
    buf.extend_from_slice(&s.accepted.to_le_bytes());
    buf.extend_from_slice(&s.preemptions.to_le_bytes());
    buf.extend_from_slice(&s.rejected_cost_delta.to_le_bytes());
    buf.extend_from_slice(&s.total_rejected_cost.to_le_bytes());
}

/// Decode a [`FRAME_SUMMARY`] payload.
pub fn decode_summary(payload: &[u8]) -> Result<BatchSummary, AcmrError> {
    let bytes: &[u8; 28] = payload.try_into().map_err(|_| AcmrError::Remote {
        code: "proto".into(),
        message: format!("summary frame must be 28 bytes, got {}", payload.len()),
    })?;
    let u32at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    let f64at = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    Ok(BatchSummary {
        n: u32at(0),
        accepted: u32at(4),
        preemptions: u32at(8),
        rejected_cost_delta: f64at(12),
        total_rejected_cost: f64at(20),
    })
}

/// The fixed text of an `EVENT` body, in key order: the id's key, the
/// `accepted` key, the `preempted` list's opening, and the keys of the
/// three floats (the first one closing the list).
const EVENT_ID: &[u8] = b"{\"id\":";
const EVENT_ACCEPTED: &[u8] = b",\"accepted\":";
const EVENT_PREEMPTED: &[u8] = b",\"preempted\":[";
const EVENT_FLOATS: [&[u8]; 3] = [
    b"],\"cost\":",
    b",\"rejected_cost_delta\":",
    b",\"total_rejected_cost\":",
];

/// Append the body of an `EVENT` reply (the v1 line's JSON and the v2
/// [`FRAME_EVENT`] payload alike): exactly the bytes
/// `serde_json::to_string(event)` writes, without building a value
/// tree. Keys in declaration order, no whitespace, ids as decimal
/// integers, and each float as its `Display` text (the shortest
/// decimal that round-trips, never an exponent) with `.0` appended
/// when it has no `.`:
///
/// ```text
/// {"id":7,"accepted":false,"preempted":[2,5],"cost":1.5,"rejected_cost_delta":4.0,"total_rejected_cost":9.0}
/// ```
///
/// A non-finite float has no JSON form: the error is the one the
/// `serde_json` path reports, and `out` is left as it was.
pub fn encode_event(out: &mut Vec<u8>, event: &ArrivalEvent) -> Result<(), AcmrError> {
    let start = out.len();
    out.extend_from_slice(EVENT_ID);
    write!(out, "{}", event.id.0)?;
    out.extend_from_slice(EVENT_ACCEPTED);
    out.extend_from_slice(if event.accepted { b"true" } else { b"false" });
    out.extend_from_slice(EVENT_PREEMPTED);
    for (i, id) in event.preempted.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write!(out, "{}", id.0)?;
    }
    let floats = [
        event.cost,
        event.rejected_cost_delta,
        event.total_rejected_cost,
    ];
    for (key, x) in EVENT_FLOATS.into_iter().zip(floats) {
        if !x.is_finite() {
            out.truncate(start);
            return Err(AcmrError::Io {
                message: format!(
                    "cannot serialize event: json error: cannot serialize non-finite float {x}"
                ),
            });
        }
        out.extend_from_slice(key);
        let at = out.len();
        write!(out, "{x}")?;
        if !out[at..].contains(&b'.') {
            out.extend_from_slice(b".0");
        }
    }
    out.push(b'}');
    Ok(())
}

/// Parse an `EVENT` body of exactly the form [`encode_event`] writes,
/// without a value tree and without a UTF-8 pass over the body.
/// Anything else (another key order, whitespace, an id beyond `u32`,
/// a leading zero, a float without `.` or with an exponent, trailing
/// bytes) is the typed `proto` error `malformed EVENT: …`.
pub fn decode_event(body: &[u8]) -> Result<ArrivalEvent, AcmrError> {
    let mut p = EventParser { body, at: 0 };
    p.expect(EVENT_ID)?;
    let id = p.id()?;
    p.expect(EVENT_ACCEPTED)?;
    let accepted = if p.eat(b"true") {
        true
    } else if p.eat(b"false") {
        false
    } else {
        return Err(p.malformed("expected `true` or `false`"));
    };
    p.expect(EVENT_PREEMPTED)?;
    let mut preempted = Vec::new();
    if body.get(p.at) != Some(&b']') {
        loop {
            preempted.push(p.id()?);
            if !p.eat(b",") {
                break;
            }
        }
    }
    let mut floats = [0.0; 3];
    for (key, x) in EVENT_FLOATS.into_iter().zip(&mut floats) {
        p.expect(key)?;
        *x = p.float()?;
    }
    p.expect(b"}")?;
    if p.at != body.len() {
        return Err(p.malformed("trailing bytes"));
    }
    let [cost, rejected_cost_delta, total_rejected_cost] = floats;
    Ok(ArrivalEvent {
        id,
        accepted,
        preempted,
        cost,
        rejected_cost_delta,
        total_rejected_cost,
    })
}

/// A cursor over an `EVENT` body for [`decode_event`].
struct EventParser<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> EventParser<'a> {
    fn malformed(&self, what: &str) -> AcmrError {
        AcmrError::Remote {
            code: "proto".into(),
            message: format!("malformed EVENT: {what} at byte {}", self.at),
        }
    }

    /// Step over `lit` if the body continues with it.
    fn eat(&mut self, lit: &[u8]) -> bool {
        let hit = self.body[self.at..].starts_with(lit);
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &[u8]) -> Result<(), AcmrError> {
        if self.eat(lit) {
            return Ok(());
        }
        let lit = String::from_utf8_lossy(lit);
        Err(self.malformed(&format!("expected `{lit}`")))
    }

    /// Step over a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let n = self.body[self.at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.at += n;
        n
    }

    /// A decimal integer as `Display` writes one: `0`, or digits
    /// without a leading zero. Returns its text.
    fn integer(&mut self) -> Result<&'a [u8], AcmrError> {
        let start = self.at;
        let n = self.digits();
        if n == 0 || (n > 1 && self.body[start] == b'0') {
            self.at = start;
            return Err(self.malformed("expected an integer without leading zeros"));
        }
        Ok(&self.body[start..self.at])
    }

    fn id(&mut self) -> Result<RequestId, AcmrError> {
        let start = self.at;
        let id = self.integer()?.iter().try_fold(0u32, |n, &d| {
            n.checked_mul(10)?.checked_add(u32::from(d - b'0'))
        });
        id.map(RequestId).ok_or_else(|| {
            self.at = start;
            self.malformed("id beyond u32")
        })
    }

    /// A finite float as [`encode_event`] writes one:
    /// `-?<integer>.<digits>`.
    fn float(&mut self) -> Result<f64, AcmrError> {
        let start = self.at;
        self.eat(b"-");
        self.integer()?;
        self.expect(b".")?;
        if self.digits() == 0 {
            return Err(self.malformed("expected digits after `.`"));
        }
        let text = std::str::from_utf8(&self.body[start..self.at]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => {
                self.at = start;
                Err(self.malformed("float beyond f64"))
            }
        }
    }
}

/// Decoded [`FRAME_RESET`] payload: everything the v1 handshake
/// carries, in one binary frame — so a persistent connection can hop
/// to a new `(spec, seed, capacities)` session without reconnecting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResetFrame {
    /// Algorithm spec for the fresh session (the `OPEN <spec>` slot).
    pub spec: String,
    /// Base seed, when given (the `seed=<S>` slot).
    pub base_seed: Option<u64>,
    /// Edge capacities of the fresh session (the `edges`/`caps`
    /// lines).
    pub capacities: Vec<u32>,
}

/// Encode a [`FRAME_RESET`] payload: `u32le` spec length, spec UTF-8,
/// `u8` seed flag, `u64le` seed (zero when absent), `u32le` edge
/// count, then one `u32le` capacity per edge.
pub fn encode_reset(buf: &mut Vec<u8>, spec: &str, base_seed: Option<u64>, capacities: &[u32]) {
    buf.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    buf.extend_from_slice(spec.as_bytes());
    buf.push(base_seed.is_some() as u8);
    buf.extend_from_slice(&base_seed.unwrap_or(0).to_le_bytes());
    buf.extend_from_slice(&(capacities.len() as u32).to_le_bytes());
    for &c in capacities {
        buf.extend_from_slice(&c.to_le_bytes());
    }
}

/// Decode a [`FRAME_RESET`] payload. Every violation — truncation,
/// non-UTF-8 spec, trailing bytes — is a typed error naming the
/// malformed field; a zero capacity is refused with the v1 handshake's
/// own typed error ("capacities must be positive").
pub fn decode_reset(payload: &[u8]) -> Result<ResetFrame, AcmrError> {
    let bad = |what: &str| AcmrError::TraceParse {
        line: 0,
        message: format!("malformed RESET frame: {what}"),
    };
    let take = |at: &mut usize, n: usize| -> Result<&[u8], AcmrError> {
        let slice = payload.get(*at..*at + n).ok_or_else(|| bad("truncated"))?;
        *at += n;
        Ok(slice)
    };
    let mut at = 0;
    let spec_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
    if spec_len > MAX_FRAME_BYTES {
        return Err(bad("spec length overflows the frame"));
    }
    let spec = std::str::from_utf8(take(&mut at, spec_len)?)
        .map_err(|_| bad("spec is not valid UTF-8"))?
        .to_string();
    let seed_flag = take(&mut at, 1)?[0];
    let seed = u64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8 bytes"));
    let base_seed = match seed_flag {
        0 => None,
        1 => Some(seed),
        other => return Err(bad(&format!("seed flag must be 0 or 1, got {other}"))),
    };
    let m = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
    let mut capacities = Vec::with_capacity(m.min(1 << 20));
    for _ in 0..m {
        capacities.push(u32::from_le_bytes(
            take(&mut at, 4)?.try_into().expect("4 bytes"),
        ));
    }
    if at != payload.len() {
        return Err(bad("trailing bytes"));
    }
    if capacities.contains(&0) {
        return Err(AcmrError::TraceParse {
            line: 0,
            message: "capacities must be positive".into(),
        });
    }
    Ok(ResetFrame {
        spec,
        base_seed,
        capacities,
    })
}

/// Encode a [`FRAME_OK`] payload: `u64le` session id + canonical spec.
pub fn encode_ok(buf: &mut Vec<u8>, id: u64, spec: &str) {
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(spec.as_bytes());
}

/// Decode a [`FRAME_OK`] payload into `(session id, canonical spec)`.
pub fn decode_ok(payload: &[u8]) -> Result<(u64, String), AcmrError> {
    let bad = |what: &str| AcmrError::Remote {
        code: "proto".into(),
        message: format!("malformed OK frame: {what}"),
    };
    let id_bytes = payload.get(..8).ok_or_else(|| bad("truncated"))?;
    let id = u64::from_le_bytes(id_bytes.try_into().expect("8 bytes"));
    let spec = std::str::from_utf8(&payload[8..])
        .map_err(|_| bad("spec is not valid UTF-8"))?
        .to_string();
    Ok((id, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_reader_yields_numbered_trimmed_lines() {
        let input = "  OPEN greedy  \n\nEND";
        let mut frames = FrameReader::new(input.as_bytes());
        assert_eq!(frames.next_line().unwrap(), Some((1, "OPEN greedy".into())));
        assert_eq!(frames.next_line().unwrap(), Some((2, String::new())));
        // Final line without trailing newline still arrives.
        assert_eq!(frames.next_line().unwrap(), Some((3, "END".into())));
        assert_eq!(frames.next_line().unwrap(), None);
        assert_eq!(frames.line_number(), 3);
    }

    #[test]
    fn frame_reader_caps_line_length() {
        let long = vec![b'a'; MAX_FRAME_BYTES + acmr_workloads::trace::CHUNK_SIZE + 1];
        let err = FrameReader::new(&long[..]).next_line().unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("exceeds")),
            "{err}"
        );
    }

    #[test]
    fn frame_reader_rejects_invalid_utf8() {
        let err = FrameReader::new(&[0xff, 0xfe, b'\n'][..])
            .next_line()
            .unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn error_replies_round_trip_through_the_wire_form() {
        let e = AcmrError::TraceParse {
            line: 7,
            message: "bad cost nan".into(),
        };
        let body = error_reply_body(&e);
        assert!(body.starts_with("parse "), "{body}");
        assert!(body.contains(SPEC_POINTER), "{body}");
        let decoded = decode_error_reply(&body);
        match decoded {
            AcmrError::Remote { code, message } => {
                assert_eq!(code, "parse");
                assert!(message.contains("bad cost nan"));
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn line_numbers_stay_exact_across_blank_and_whitespace_lines() {
        // The satellite-3 regression: blank and whitespace-only lines
        // are skipped *between* frames but still numbered on the wire,
        // so the number of a missing frame is next_line_number() — not
        // line_number(), which points one line off (at the last blank
        // actually consumed).
        let input = "OPEN greedy\n\n   \t \nedges 2\n\n";
        let mut frames = FrameReader::new(input.as_bytes());
        assert_eq!(frames.next_line_number(), 1);
        assert_eq!(frames.next_line().unwrap(), Some((1, "OPEN greedy".into())));
        assert_eq!(frames.next_line().unwrap(), Some((2, String::new())));
        // Whitespace-only trims to blank but still owns its number.
        assert_eq!(frames.next_line().unwrap(), Some((3, String::new())));
        assert_eq!(frames.next_line().unwrap(), Some((4, "edges 2".into())));
        assert_eq!(frames.next_line().unwrap(), Some((5, String::new())));
        assert_eq!(frames.next_line().unwrap(), None);
        // The peer stopped before its `caps` line: that line would
        // have been wire line 6, and that is what an ERR must report.
        assert_eq!(frames.line_number(), 5);
        assert_eq!(frames.next_line_number(), 6);
    }

    #[test]
    fn bin_frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQ, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        let mut reader = BinFrameReader::new(&wire[..]);
        let mut payload = Vec::new();
        assert_eq!(reader.read_frame(&mut payload).unwrap(), Some(FRAME_REQ));
        assert_eq!(payload, [1, 2, 3]);
        assert_eq!(reader.read_frame(&mut payload).unwrap(), Some(FRAME_END));
        assert!(payload.is_empty());
        assert_eq!(reader.read_frame(&mut payload).unwrap(), None); // clean EOF
        assert_eq!(reader.frame_number(), 2);
    }

    #[test]
    fn bin_frame_reader_rejects_truncation_and_oversize() {
        // Truncated mid-payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQ, &[9; 10]).unwrap();
        wire.truncate(wire.len() - 3);
        let mut payload = Vec::new();
        let err = BinFrameReader::new(&wire[..])
            .read_frame(&mut payload)
            .unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("mid-frame")),
            "{err}"
        );
        // Truncated inside the length prefix.
        let err = BinFrameReader::new(&[FRAME_REQ, 0xff][..])
            .read_frame(&mut payload)
            .unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 1, .. }),
            "{err}"
        );
        // A length beyond the cap is refused before any allocation.
        let mut wire = vec![FRAME_REQ];
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = BinFrameReader::new(&wire[..])
            .read_frame(&mut payload)
            .unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("exceeds")),
            "{err}"
        );
        // And the writer refuses to emit one.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut Vec::new(), FRAME_REQ, &huge).unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }), "{err}");
    }

    #[test]
    fn reset_frames_round_trip() {
        for (spec, seed, caps) in [
            ("greedy", None, vec![1u32, 2, 3]),
            ("aag-weighted?seed=7", Some(42), vec![5; 100]),
            ("x", Some(0), vec![]),
        ] {
            let mut buf = Vec::new();
            encode_reset(&mut buf, spec, seed, &caps);
            let decoded = decode_reset(&buf).unwrap();
            assert_eq!(decoded.spec, spec);
            assert_eq!(decoded.base_seed, seed);
            assert_eq!(decoded.capacities, caps);
            // Any truncation is a typed error, never a panic.
            for cut in 0..buf.len() {
                let err = decode_reset(&buf[..cut]).unwrap_err();
                assert!(matches!(err, AcmrError::TraceParse { .. }), "{err}");
            }
            // Trailing bytes are refused too.
            let mut long = buf.clone();
            long.push(0);
            assert!(decode_reset(&long).is_err());
        }
    }

    #[test]
    fn reset_frame_bytes_match_the_documented_layout() {
        // docs/SERVING.md: u32le spec length, spec, u8 seed flag,
        // u64le seed, u32le edge count, then one u32le per capacity.
        let mut buf = Vec::new();
        encode_reset(&mut buf, "g", Some(7), &[3]);
        #[rustfmt::skip]
        let want = [
            1, 0, 0, 0,             // spec length
            b'g',                   // spec
            1,                      // seed flag
            7, 0, 0, 0, 0, 0, 0, 0, // seed
            1, 0, 0, 0,             // edge count
            3, 0, 0, 0,             // capacity of edge 0
        ];
        assert_eq!(buf, want);
    }

    #[test]
    fn summaries_round_trip_and_summarize_events() {
        let events = vec![
            ArrivalEvent {
                id: acmr_core::RequestId(0),
                accepted: true,
                preempted: vec![],
                cost: 2.0,
                rejected_cost_delta: 0.0,
                total_rejected_cost: 0.0,
            },
            ArrivalEvent {
                id: acmr_core::RequestId(1),
                accepted: true,
                preempted: vec![acmr_core::RequestId(0)],
                cost: 4.0,
                rejected_cost_delta: 2.0,
                total_rejected_cost: 2.0,
            },
        ];
        let s = summarize_events(&events);
        assert_eq!(s.n, 2);
        assert_eq!(s.accepted, 2);
        assert_eq!(s.preemptions, 1);
        assert_eq!(s.rejected_cost_delta, 2.0);
        assert_eq!(s.total_rejected_cost, 2.0);
        let mut buf = Vec::new();
        encode_summary(&mut buf, &s);
        assert_eq!(buf.len(), 28);
        assert_eq!(decode_summary(&buf).unwrap(), s);
        assert!(decode_summary(&buf[..27]).is_err());
        assert_eq!(summarize_events(&[]), BatchSummary::default());
    }

    #[test]
    fn ok_frames_round_trip() {
        let mut buf = Vec::new();
        encode_ok(&mut buf, 17, "aag-weighted?seed=7");
        assert_eq!(decode_ok(&buf).unwrap(), (17, "aag-weighted?seed=7".into()));
        assert!(decode_ok(&buf[..5]).is_err());
    }

    #[test]
    fn proto_version_parses_flag_values() {
        assert_eq!(ProtoVersion::parse("v1"), Some(ProtoVersion::V1));
        assert_eq!(ProtoVersion::parse("v2"), Some(ProtoVersion::V2));
        assert_eq!(ProtoVersion::parse("v3"), None);
    }

    #[test]
    fn every_error_variant_has_a_stable_code() {
        assert_eq!(error_code(&AcmrError::SessionPoisoned), "poisoned");
        assert_eq!(
            error_code(&AcmrError::ContractViolation {
                algorithm: "x".into(),
                detail: "y".into()
            }),
            "violation"
        );
        assert_eq!(
            error_code(&AcmrError::Remote {
                code: "spec".into(),
                message: String::new()
            }),
            "proto"
        );
    }

    #[test]
    fn frame_buffer_matches_bin_frame_reader_under_any_chunking() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQ, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, FRAME_BATCH, &[0; 17]).unwrap();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        write_frame(&mut wire, FRAME_STATS, &[]).unwrap();
        for chunk in [1, 2, 3, 5, 7, wire.len()] {
            let mut fb = FrameBuffer::new();
            let mut payload = Vec::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.feed(piece);
                while let Some(ty) = fb.next_frame(&mut payload).unwrap() {
                    got.push((ty, payload.clone()));
                }
            }
            fb.set_eof();
            assert_eq!(fb.next_frame(&mut payload).unwrap(), None); // clean end
            assert_eq!(fb.frame_number(), 4);
            assert_eq!(
                got,
                vec![
                    (FRAME_REQ, vec![1, 2, 3]),
                    (FRAME_BATCH, vec![0; 17]),
                    (FRAME_END, vec![]),
                    (FRAME_STATS, vec![]),
                ]
            );
        }
    }

    #[test]
    fn frame_buffer_types_truncation_and_oversize() {
        // EOF mid-payload: same typed error as BinFrameReader.
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQ, &[9; 10]).unwrap();
        let mut fb = FrameBuffer::new();
        let mut payload = Vec::new();
        fb.feed(&wire[..wire.len() - 3]);
        assert_eq!(fb.next_frame(&mut payload).unwrap(), None); // just needs more
        fb.set_eof();
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("mid-frame")),
            "{err}"
        );
        // EOF inside the 5-byte header.
        let mut fb = FrameBuffer::new();
        fb.feed(&[FRAME_REQ, 0xff]);
        fb.set_eof();
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 1, .. }),
            "{err}"
        );
        // An oversized declared length is refused from the header
        // alone, before any payload bytes arrive or EOF is known.
        let mut fb = FrameBuffer::new();
        let mut head = vec![FRAME_REQ];
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        fb.feed(&head);
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("exceeds")),
            "{err}"
        );
        // Frame numbers keep counting across carves: frame 2 truncated.
        let mut fb = FrameBuffer::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        wire.extend_from_slice(&[FRAME_REQ, 4, 0]);
        fb.feed(&wire);
        fb.set_eof();
        assert_eq!(fb.next_frame(&mut payload).unwrap(), Some(FRAME_END));
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 2, .. }),
            "{err}"
        );
    }

    /// A stream that hands out at most a few bytes per `read` (the
    /// sizes cycle through `sizes`) and fails every call whose slot in
    /// `interrupts` is set with `Interrupted` once before serving it.
    struct ShortReads<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        interrupts: &'a [bool],
        call: usize,
        interrupted: bool,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupts[self.call % self.interrupts.len()] && !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.interrupted = false;
            let n = self.sizes[self.call % self.sizes.len()]
                .min(buf.len())
                .min(self.data.len());
            self.call += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Each frame a source yields as `(type, payload, frame number)`,
    /// then how it stopped: clean end (`Ok`) or its first error.
    type Carved = (Vec<(u8, Vec<u8>, usize)>, Result<(), AcmrError>);

    fn carve_whole(wire: &[u8]) -> Carved {
        let mut fb = FrameBuffer::new();
        fb.feed(wire);
        fb.set_eof();
        let mut payload = Vec::new();
        let mut frames = Vec::new();
        loop {
            match fb.next_frame(&mut payload) {
                Ok(Some(ty)) => frames.push((ty, payload.clone(), fb.frame_number())),
                Ok(None) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e)),
            }
        }
    }

    fn carve_blocking(stream: ShortReads) -> Carved {
        let mut reader = BinFrameReader::new(stream);
        let mut payload = Vec::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_frame(&mut payload) {
                Ok(Some(ty)) => frames.push((ty, payload.clone(), reader.frame_number())),
                Ok(None) => {
                    // A clean end stays clean.
                    assert_eq!(reader.read_frame(&mut payload).unwrap(), None);
                    return (frames, Ok(()));
                }
                Err(e) => return (frames, Err(e)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The blocking reader over a stream of short and interrupted
        /// reads carves exactly what the frame buffer carves from the
        /// whole stream — frames, frame numbers, the clean-EOF `None`
        /// and the typed truncation/oversize errors — for every cut
        /// point of a random frame sequence, optionally followed by a
        /// `u32::MAX` length header.
        #[test]
        fn bin_frame_reader_under_short_reads_matches_the_frame_buffer(
            frames in proptest::collection::vec((0u8..=255, 0usize..40), 0..6),
            oversize in 0u8..2,
            sizes in proptest::collection::vec(1usize..9, 1..6),
            interrupts in proptest::collection::vec(0u8..2, 1..6),
        ) {
            let mut wire = Vec::new();
            for (i, (ty, len)) in frames.iter().enumerate() {
                let payload: Vec<u8> = (0..*len).map(|b| (b + i) as u8).collect();
                write_frame(&mut wire, *ty, &payload).unwrap();
            }
            if oversize == 1 {
                wire.push(FRAME_REQ);
                wire.extend_from_slice(&u32::MAX.to_le_bytes());
            }
            let interrupts: Vec<bool> = interrupts.iter().map(|&b| b == 1).collect();
            for cut in 0..=wire.len() {
                let stream = ShortReads {
                    data: &wire[..cut],
                    sizes: &sizes,
                    interrupts: &interrupts,
                    call: 0,
                    interrupted: false,
                };
                let got = carve_blocking(stream);
                let want = carve_whole(&wire[..cut]);
                prop_assert_eq!(&got, &want, "cut {} of {}: {:?} vs {:?}", cut, wire.len(), got, want);
            }
        }
    }

    #[test]
    fn stats_reports_round_trip_as_json() {
        let report = StatsReport {
            server: ServerStats {
                uptime_ms: 1234,
                connections_opened: 9,
                connections_active: 3,
                sessions_opened: 7,
                sessions_active: 2,
                arrivals: 100,
                batches: 4,
                bytes_in: 2048,
                bytes_out: 4096,
                errors: 1,
                busy_rejections: 5,
            },
            connection: ConnStats {
                sessions: 2,
                arrivals: 40,
                batches: 1,
                bytes_in: 512,
                bytes_out: 768,
                errors: 0,
            },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
