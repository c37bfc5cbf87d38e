//! The sans-I/O protocol core: one [`Connection`] is the complete
//! per-connection `ACMR-SERVE` state machine — greeting, handshake,
//! both wire dialects (v1 lines, v2 binary frames), `STATS`, typed
//! `ERR` replies — expressed purely as *bytes in → bytes out*.
//!
//! There are no sockets, no threads, no clocks and no blocking in
//! here (the module imports neither `std::net` nor `std::io`): the
//! caller feeds whatever bytes arrived via [`Connection::feed`],
//! signals hangup via [`Connection::feed_eof`], and ships whatever
//! [`Connection::pending_output`] holds. That inversion is what the
//! reactor in [`crate::server`] is built on — a nonblocking event
//! loop just moves bytes between sockets and machines — and what
//! makes the wire logic exhaustively testable: the fuzz suite drives
//! a `Connection` byte-at-a-time with zero processes, the differential
//! suite replays the golden corpus through it with zero sockets,
//! pinning machine ≡ served ≡ in-memory, and the transcript suite pins
//! every reply byte.
//!
//! Inside, a connection runs *decode → execute → encode*. The two
//! dialects are only two encodings of the same few steps: one
//! arrival, one batch, `END`, `STATS`, and opening a session (the
//! handshake, or a v2 `RESET`). The line decoder (the handshake and
//! v1) and the frame decoder (v2) carve and decode their input into
//! those steps; one executor applies each step to the live session,
//! which sits beside the phase rather than inside it, and counts
//! arrivals and batches; and one writer encodes every reply (`OK`,
//! `EVENT`, `SUMMARY`, `REPORT`, `STATS`, `ERR`) and frames it for
//! the dialect, as a v1 line or a v2 frame. An `EVENT` body, written
//! once per decision, goes through the direct codec
//! [`crate::protocol::encode_event`]; `serde_json` serves only the
//! `REPORT` and `STATS` bodies.
//!
//! Determinism contract: a `Connection`'s output depends only on the
//! *consumed input bytes* — never on how they were chunked across
//! `feed` calls. (The one deliberate exception is the `bytes_in`
//! counter inside a `STATS` reply, which counts bytes *received*, so
//! a probe observes real transport progress.)

use crate::protocol::{
    decode_reset, encode_event, encode_ok, encode_summary, error_reply_body, summarize_events,
    write_frame, BatchSummary, ConnStats, FrameBuffer, ProtoVersion, ReplyKind, ServerStats,
    StatsReport, EVENTS_TOKEN, FRAME_BATCH, FRAME_END, FRAME_REQ, FRAME_RESET, FRAME_STATS,
    GREETING, MAX_BATCH, MAX_FRAME_BYTES, PROTO_V2_TOKEN,
};
use acmr_core::{AcmrError, AlgorithmSpec, ArrivalEvent, Registry, Request, RunReport, Session};
use acmr_workloads::binfmt::decode_record;
use acmr_workloads::trace::{parse_caps_line, parse_edges_line, parse_request_line, LineBuffer};
use serde::Serialize;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Server-wide atomic counters, shared by every [`Connection`] of one
/// server (and by the reactor driving them). The machine maintains
/// the protocol-level counts (sessions, arrivals, batches, bytes,
/// errors); the driver maintains the transport-level ones
/// (connections, busy rejections, uptime).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Milliseconds since the server started listening — refreshed by
    /// the driver (the machine has no clock; it stays `0` when a
    /// `Connection` is driven in-process, keeping test output
    /// deterministic).
    pub uptime_ms: AtomicU64,
    /// Connections accepted since start (busy-rejected ones included).
    pub connections_opened: AtomicU64,
    /// Connections currently open.
    pub connections_active: AtomicU64,
    /// Sessions opened since start (`OPEN` handshakes plus `RESET`s).
    /// Also the session-id allocator: each session's id is this
    /// counter's value before it counted the session, so ids are
    /// unique per server.
    pub sessions_opened: AtomicU64,
    /// Sessions currently live.
    pub sessions_active: AtomicU64,
    /// Arrival requests received (single `REQ`s plus batch contents).
    pub arrivals: AtomicU64,
    /// `BATCH` frames processed.
    pub batches: AtomicU64,
    /// Bytes received from clients.
    pub bytes_in: AtomicU64,
    /// Bytes produced for clients (greetings included).
    pub bytes_out: AtomicU64,
    /// Typed `ERR` replies emitted.
    pub errors: AtomicU64,
    /// Connections refused with `ERR busy` by the overload policy.
    pub busy_rejections: AtomicU64,
}

impl ServerCounters {
    /// A consistent-enough snapshot for a `STATS` reply (each counter
    /// is read atomically; the set is not a transaction — these are
    /// monitoring numbers, not ledger entries).
    pub fn snapshot(&self) -> ServerStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStats {
            uptime_ms: load(&self.uptime_ms),
            connections_opened: load(&self.connections_opened),
            connections_active: load(&self.connections_active),
            sessions_opened: load(&self.sessions_opened),
            sessions_active: load(&self.sessions_active),
            arrivals: load(&self.arrivals),
            batches: load(&self.batches),
            bytes_in: load(&self.bytes_in),
            bytes_out: load(&self.bytes_out),
            errors: load(&self.errors),
            busy_rejections: load(&self.busy_rejections),
        }
    }
}

/// What a [`Connection`] shares with its server: the server-wide
/// counters, which also allocate session ids. Every connection accepts
/// both dialects; the client picks one at `OPEN`. The [`Default`]
/// value (fresh counters, so ids from 0) is what in-process tests use;
/// the reactor hands every machine the same counters.
#[derive(Clone, Default)]
pub struct MachineConfig {
    /// Server-wide counters this connection contributes to.
    pub server: Arc<ServerCounters>,
}

/// The framing the connection speaks: lines for the handshake and v1
/// sessions, frames once a `proto=v2` handshake completes. It frames
/// input and output alike, and outlives the phase collapsing to
/// `Done` on an error, so the terminal `ERR` is framed like the
/// replies before it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dialect {
    Line,
    Frame,
}

/// Where the conversation stands. The live session sits beside the
/// phase, in [`Connection`]'s `session` field, not inside it.
#[derive(Clone, Copy)]
enum Phase {
    /// Waiting for `OPEN` (or a sessionless `STATS` probe).
    AwaitOpen,
    /// `OPEN` parsed; waiting for the `edges` line.
    AwaitEdges,
    /// Waiting for the `caps` line of an `m`-edge universe.
    AwaitCaps { m: usize },
    /// A session is open, in either dialect. A v2 connection stays
    /// here after `END`, without a session, until `RESET` or hangup.
    Live,
    /// v1 only: collecting the `n` request lines of a `BATCH`.
    Batch { n: usize },
    /// Terminal: the reply stream is complete; the driver flushes
    /// [`Connection::pending_output`] and closes the transport.
    Done,
}

/// A session request, decoded from the handshake or from a `RESET`.
struct OpenArgs {
    spec: AlgorithmSpec,
    base_seed: u64,
    proto: ProtoVersion,
    /// v2: acknowledge each `BATCH` per arrival (`events=on`) instead
    /// of with one `SUMMARY`.
    events: bool,
    /// Empty keeps the current edge universe (a `RESET` without
    /// capacities).
    capacities: Vec<u32>,
}

/// One step of the conversation, decoded from a line or a frame.
/// Arrivals travel in the connection's reused request buffer.
enum Step {
    /// Open a session: the completed handshake, or a `RESET`.
    Open(OpenArgs),
    /// One arrival.
    Arrival,
    /// A whole `BATCH`.
    Batch,
    End,
    Stats,
}

/// One reply and what it carries.
enum Reply<'a> {
    /// Session opened; a v1 `OK` line also acknowledges `proto=v2`.
    Ok {
        id: u64,
        spec: &'a str,
        proto: ProtoVersion,
    },
    Event(&'a ArrivalEvent),
    Summary(&'a BatchSummary),
    Report(&'a RunReport),
    Stats(&'a StatsReport),
    Err(&'a AcmrError),
}

/// Every reply goes out through [`Writer::write`], framed for the
/// connection's dialect.
struct Writer {
    out: Vec<u8>,
    dialect: Dialect,
    /// Reply-body scratch, reused so a `SUMMARY` allocates nothing.
    body: Vec<u8>,
}

impl Writer {
    /// Encode `reply`'s body, then frame it: a v1 line
    /// `<keyword> <body>`, or a v2 frame of the reply's type.
    fn write(&mut self, reply: Reply<'_>) -> Result<(), AcmrError> {
        let body = &mut self.body;
        body.clear();
        let kind = match reply {
            Reply::Ok { id, spec, proto } => {
                match (self.dialect, proto) {
                    (Dialect::Line, ProtoVersion::V1) => {
                        body.extend_from_slice(format!("{id} {spec}").as_bytes())
                    }
                    (Dialect::Line, ProtoVersion::V2) => {
                        body.extend_from_slice(format!("{id} {spec} {PROTO_V2_TOKEN}").as_bytes())
                    }
                    (Dialect::Frame, _) => encode_ok(body, id, spec),
                }
                ReplyKind::Ok
            }
            Reply::Event(event) => {
                encode_event(body, event)?;
                ReplyKind::Event
            }
            Reply::Summary(summary) => {
                encode_summary(body, summary);
                ReplyKind::Summary
            }
            Reply::Report(report) => json(body, report, ReplyKind::Report)?,
            Reply::Stats(stats) => json(body, stats, ReplyKind::Stats)?,
            Reply::Err(e) => {
                body.extend_from_slice(error_reply_body(e).as_bytes());
                ReplyKind::Err
            }
        };
        match self.dialect {
            Dialect::Line => {
                self.out.extend_from_slice(kind.keyword().as_bytes());
                self.out.push(b' ');
                self.out.extend_from_slice(&self.body);
                self.out.push(b'\n');
                Ok(())
            }
            Dialect::Frame => write_frame(&mut self.out, kind.frame_type(), &self.body),
        }
    }
}

/// The JSON body of a `REPORT` or `STATS` reply. An `EVENT` body,
/// the one written per decision, has its own codec
/// ([`encode_event`]).
fn json(
    body: &mut Vec<u8>,
    value: &impl Serialize,
    kind: ReplyKind,
) -> Result<ReplyKind, AcmrError> {
    let text = serde_json::to_string(value).map_err(|e| AcmrError::Io {
        message: format!(
            "cannot serialize {}: {e}",
            kind.keyword().to_ascii_lowercase()
        ),
    })?;
    body.extend_from_slice(text.as_bytes());
    Ok(kind)
}

/// The pure per-connection protocol state machine. See the module
/// docs for the contract; see [`crate::server`] for the reactor that
/// drives one of these per socket.
///
/// ```
/// use acmr_core::{register_core, Registry};
/// use acmr_serve::machine::{Connection, MachineConfig};
/// use std::sync::Arc;
///
/// let mut registry = Registry::new();
/// register_core(&mut registry);
/// let mut conn = Connection::new(Arc::new(registry), MachineConfig::default());
/// conn.feed(b"OPEN aag-unweighted\nedges 2\ncaps 1 1\n");
/// let reply = String::from_utf8(conn.drain_output()).unwrap();
/// assert_eq!(reply, "ACMR-SERVE v1\nOK 0 aag-unweighted\n");
/// assert!(!conn.is_done());
/// ```
pub struct Connection {
    registry: Arc<Registry>,
    server: Arc<ServerCounters>,
    lines: LineBuffer,
    frames: FrameBuffer,
    phase: Phase,
    /// The parsed `OPEN` line while the handshake awaits `edges` and
    /// `caps`.
    handshake: Option<OpenArgs>,
    /// The live session: from its `OK` until `END`, an error or
    /// hangup.
    session: Option<Session>,
    /// The live session's edge capacities.
    capacities: Vec<u32>,
    /// Whether a `BATCH` is acknowledged per arrival (v1, and v2 with
    /// `events=on`) rather than with one `SUMMARY`.
    batch_events: bool,
    writer: Writer,
    stats: ConnStats,
    /// `(id, canonical spec)` of the live session. A v2 session keeps
    /// it, and its place in `sessions_active`, after `END`, until
    /// `RESET` or hangup.
    session_meta: Option<(u64, String)>,
    // Scratch buffers, reused across lines and frames so the
    // steady-state batch path allocates nothing. `batch` holds the
    // arrivals of the next step: one request line or `REQ` frame, the
    // collected lines of a v1 `BATCH`, or a decoded v2 `BATCH`.
    payload: Vec<u8>,
    batch: Vec<Request>,
    events: Vec<ArrivalEvent>,
}

impl Connection {
    /// A freshly accepted connection: the greeting is already queued
    /// in [`Connection::pending_output`].
    pub fn new(registry: Arc<Registry>, config: MachineConfig) -> Self {
        let mut conn = Connection {
            registry,
            server: config.server,
            lines: LineBuffer::new(MAX_FRAME_BYTES),
            frames: FrameBuffer::new(),
            phase: Phase::AwaitOpen,
            handshake: None,
            session: None,
            capacities: Vec::new(),
            batch_events: true,
            writer: Writer {
                out: format!("{GREETING}\n").into_bytes(),
                dialect: Dialect::Line,
                body: Vec::new(),
            },
            stats: ConnStats::default(),
            session_meta: None,
            payload: Vec::new(),
            batch: Vec::new(),
            events: Vec::new(),
        };
        conn.count_out(0);
        conn
    }

    /// Feed bytes read from the transport and run the machine as far
    /// as they allow. Replies accumulate in
    /// [`Connection::pending_output`].
    pub fn feed(&mut self, bytes: &[u8]) {
        self.stats.bytes_in += bytes.len() as u64;
        self.server
            .bytes_in
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        match self.writer.dialect {
            Dialect::Line => self.lines.feed(bytes),
            Dialect::Frame => self.frames.feed(bytes),
        }
        self.pump();
    }

    /// Signal that the peer hung up (EOF). A hangup at a frame
    /// boundary is a clean close; mid-frame it is the typed
    /// truncation `ERR`.
    pub fn feed_eof(&mut self) {
        match self.writer.dialect {
            Dialect::Line => self.lines.set_eof(),
            Dialect::Frame => self.frames.set_eof(),
        }
        self.pump();
    }

    /// Driver-injected failure (overload at accept, idle timeout):
    /// emits the terminal typed `ERR` in the connection's current
    /// dialect and finishes the machine. The driver should flush the
    /// output and close the transport, as after any other error.
    pub fn fail(&mut self, e: &AcmrError) {
        if self.is_done() {
            return;
        }
        let before = self.writer.out.len();
        self.emit_error(e);
        self.count_out(before);
    }

    /// Bytes queued for the peer; ship some and acknowledge with
    /// [`Connection::consume_output`].
    pub fn pending_output(&self) -> &[u8] {
        &self.writer.out
    }

    /// Drop the first `n` queued output bytes (they were written to
    /// the transport).
    pub fn consume_output(&mut self, n: usize) {
        self.writer.out.drain(..n);
    }

    /// Take all queued output at once — the in-process driving mode
    /// tests use.
    pub fn drain_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.writer.out)
    }

    /// Terminal: every reply is queued; once
    /// [`Connection::pending_output`] is shipped the transport should
    /// be closed (with the usual drain-before-close courtesy).
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// This connection's own counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// `(id, canonical spec)` of the live session, if a handshake (or
    /// `RESET`) has completed: the id its `OK` reply carried, unique
    /// per server. A v2 session keeps it after `END`, until `RESET` or
    /// hangup.
    pub fn session(&self) -> Option<(u64, &str)> {
        self.session_meta
            .as_ref()
            .map(|(id, spec)| (*id, spec.as_str()))
    }

    /// The `STATS` reply this connection would send right now.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            server: self.server.snapshot(),
            connection: self.stats.clone(),
        }
    }

    // -- internals ---------------------------------------------------------

    /// Add everything appended to the output since `before` to the
    /// byte counters. Called at the public entry points, so internal
    /// steps can append freely.
    fn count_out(&mut self, before: usize) {
        let delta = (self.writer.out.len() - before) as u64;
        self.stats.bytes_out += delta;
        self.server.bytes_out.fetch_add(delta, Ordering::Relaxed);
    }

    fn alloc_session(&mut self, canonical: String) {
        self.release_session();
        let id = self.server.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.stats.sessions += 1;
        self.server.sessions_active.fetch_add(1, Ordering::Relaxed);
        self.session_meta = Some((id, canonical));
    }

    /// Idempotent: drop the live-session gauge contribution (on
    /// `RESET` replacement, on finish, and on drop).
    fn release_session(&mut self) {
        if self.session_meta.take().is_some() {
            self.server.sessions_active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Emit the terminal typed `ERR` in the current dialect and
    /// finish.
    fn emit_error(&mut self, e: &AcmrError) {
        self.stats.errors += 1;
        self.server.errors.fetch_add(1, Ordering::Relaxed);
        // Appending to a Vec cannot fail and the body is tiny, so the
        // only write error (an oversize frame) is unreachable; swallow
        // rather than recurse.
        let _ = self.writer.write(Reply::Err(e));
        self.finish();
    }

    /// Terminal: drop the session (also one a panic left half
    /// updated) and its gauge contribution.
    fn finish(&mut self) {
        self.release_session();
        self.session = None;
        self.phase = Phase::Done;
    }

    /// Run steps until the machine needs more input (or finished).
    ///
    /// A panic inside a step, such as an algorithm's `on_request`,
    /// ends only this connection: it becomes the terminal typed `ERR`
    /// like any other error, and the reactor shard driving the machine
    /// keeps serving its other connections.
    fn pump(&mut self) {
        let before = self.writer.out.len();
        let steps = panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), AcmrError> {
            while let Some(step) = self.next_step()? {
                self.execute(step)?;
            }
            Ok(())
        }));
        let error = match steps {
            Ok(result) => result.err(),
            Err(payload) => Some(self.panic_error(payload.as_ref())),
        };
        if let Some(e) = error {
            self.emit_error(&e);
        }
        self.count_out(before);
    }

    /// The error a panicking step ends the connection with: a contract
    /// violation of the live session's spec, carrying the panic
    /// message. [`Connection::emit_error`] then drops the session.
    fn panic_error(&self, payload: &(dyn Any + Send)) -> AcmrError {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        let algorithm = match &self.session_meta {
            Some((_, spec)) => spec.clone(),
            None => "session setup".to_string(),
        };
        AcmrError::ContractViolation {
            algorithm,
            detail: format!("panicked: {message}"),
        }
    }

    /// Decode the next step in the connection's dialect; `None` once
    /// the buffered input is used up (or the machine finished).
    fn next_step(&mut self) -> Result<Option<Step>, AcmrError> {
        match (self.phase, self.writer.dialect) {
            (Phase::Done, _) => Ok(None),
            (_, Dialect::Line) => self.next_line_step(),
            (_, Dialect::Frame) => self.next_frame_step(),
        }
    }

    /// The peer hung up at a line or frame boundary: a clean close
    /// between steps, a typed error mid-handshake or mid-batch.
    fn hangup(&mut self) -> Result<(), AcmrError> {
        let closed = |what: String| AcmrError::TraceParse {
            line: self.lines.line_number() + 1,
            message: format!("connection closed {what}"),
        };
        match self.phase {
            Phase::AwaitEdges => Err(closed("before `edges`".into())),
            Phase::AwaitCaps { .. } => Err(closed("before `caps`".into())),
            Phase::Batch { n } => Err(closed(format!(
                "mid-batch ({} of {n} requests)",
                self.batch.len()
            ))),
            Phase::AwaitOpen | Phase::Live | Phase::Done => {
                self.finish();
                Ok(())
            }
        }
    }

    // ---- line dialect (handshake + v1 sessions) --------------------------

    /// Carve lines until one decodes to a step. Blank lines and the
    /// handshake's `edges` line only advance the phase.
    fn next_line_step(&mut self) -> Result<Option<Step>, AcmrError> {
        loop {
            let Some((ln, line)) = self.lines.next_line()? else {
                if self.lines.is_eof() {
                    self.hangup()?;
                }
                return Ok(None);
            };
            let num_edges = self.capacities.len();
            match self.phase {
                // Inside a batch every line is a request line — blanks
                // are data here, not separators.
                Phase::Batch { n } => {
                    self.batch.push(parse_request_line(ln, line, num_edges)?);
                    if self.batch.len() == n {
                        self.phase = Phase::Live;
                        return Ok(Some(Step::Batch));
                    }
                }
                _ if line.is_empty() => {}
                Phase::AwaitOpen | Phase::Live if line == "STATS" => return Ok(Some(Step::Stats)),
                Phase::AwaitOpen => {
                    self.handshake = Some(parse_open(ln, line)?);
                    self.phase = Phase::AwaitEdges;
                }
                Phase::AwaitEdges => {
                    self.phase = Phase::AwaitCaps {
                        m: parse_edges_line(ln, line)?,
                    }
                }
                Phase::AwaitCaps { m } => {
                    let mut open = self.handshake.take().expect("OPEN precedes caps");
                    open.capacities = parse_caps_line(ln, line, m)?;
                    return Ok(Some(Step::Open(open)));
                }
                Phase::Live if line == "END" => return Ok(Some(Step::End)),
                Phase::Live => {
                    self.batch.clear();
                    let Some(count) = line.strip_prefix("BATCH") else {
                        // Anything else must be a request line of the
                        // trace grammar.
                        self.batch.push(parse_request_line(ln, line, num_edges)?);
                        return Ok(Some(Step::Arrival));
                    };
                    let proto_err = |message| AcmrError::TraceParse { line: ln, message };
                    let n: usize = count
                        .trim()
                        .parse()
                        .map_err(|_| proto_err(format!("expected `BATCH <n>`, got {line:?}")))?;
                    if n > MAX_BATCH {
                        return Err(proto_err(format!(
                            "BATCH {n} exceeds the {MAX_BATCH}-request frame cap"
                        )));
                    }
                    // An empty batch applies nothing and replies
                    // nothing.
                    if n > 0 {
                        self.phase = Phase::Batch { n };
                    }
                }
                Phase::Done => unreachable!("no steps after Done"),
            }
        }
    }

    // ---- frame dialect (v2 sessions) -------------------------------------

    fn next_frame_step(&mut self) -> Result<Option<Step>, AcmrError> {
        let Some(ty) = self.frames.next_frame(&mut self.payload)? else {
            if self.frames.is_eof() {
                self.hangup()?;
            }
            return Ok(None);
        };
        let fno = self.frames.frame_number();
        let frame_err = |message: String| AcmrError::TraceParse { line: fno, message };
        let payload = &self.payload;
        let num_edges = self.capacities.len() as u32;
        let live = self.session.is_some();
        let step = match ty {
            FRAME_REQ if live => {
                let (request, end) = decode_record(payload, 0, fno, num_edges)?;
                if end != payload.len() {
                    return Err(frame_err(format!(
                        "{} trailing bytes after the REQ record",
                        payload.len() - end
                    )));
                }
                self.batch.clear();
                self.batch.push(request);
                Step::Arrival
            }
            FRAME_BATCH if live => {
                decode_batch_into(payload, fno, num_edges, &mut self.batch)?;
                Step::Batch
            }
            FRAME_END if live && !payload.is_empty() => {
                return Err(frame_err("END frame carries a payload".into()))
            }
            FRAME_END if live => Step::End,
            FRAME_RESET => {
                let reset = decode_reset(payload).map_err(|e| match e {
                    AcmrError::TraceParse { message, .. } => frame_err(message),
                    other => other,
                })?;
                Step::Open(OpenArgs {
                    spec: AlgorithmSpec::parse(&reset.spec)?,
                    base_seed: reset.base_seed.unwrap_or(0),
                    proto: ProtoVersion::V2,
                    events: self.batch_events,
                    capacities: reset.capacities,
                })
            }
            FRAME_STATS if !payload.is_empty() => {
                return Err(frame_err("STATS frame carries a payload".into()))
            }
            FRAME_STATS => Step::Stats,
            FRAME_REQ | FRAME_BATCH | FRAME_END => {
                return Err(frame_err(
                    "session already ended: only RESET (or hangup) may follow END".into(),
                ))
            }
            other => return Err(frame_err(format!("unexpected frame type 0x{other:02x}"))),
        };
        Ok(Some(step))
    }

    // ---- the executor: one implementation of each step -------------------

    fn execute(&mut self, step: Step) -> Result<(), AcmrError> {
        match step {
            Step::Open(open) => self.open_session(open),
            Step::Arrival => self.apply(false),
            Step::Batch => self.apply(true),
            Step::End => {
                let session = self.session.take().expect("END decodes only when live");
                self.writer.write(Reply::Report(&session.report()))?;
                // A v1 connection closes after its report; a v2 one
                // waits for `RESET`.
                if self.writer.dialect == Dialect::Line {
                    self.finish();
                }
                Ok(())
            }
            Step::Stats => {
                let report = self.stats_report();
                self.writer.write(Reply::Stats(&report))
            }
        }
    }

    /// Build the session, reply `OK`, and — after a `proto=v2`
    /// handshake — switch both directions to frames, carrying over any
    /// bytes a pipelining client already sent past its handshake. A
    /// `RESET` replaces the live session the same way, as a fresh
    /// session: new id, new spec, same connection.
    fn open_session(&mut self, open: OpenArgs) -> Result<(), AcmrError> {
        if !open.capacities.is_empty() {
            self.capacities = open.capacities;
        }
        let session =
            Session::from_registry(&self.registry, &open.spec, &self.capacities, open.base_seed)?;
        self.alloc_session(open.spec.canonical());
        self.session = Some(session);
        self.batch_events = open.proto == ProtoVersion::V1 || open.events;
        self.phase = Phase::Live;
        let (id, spec) = self.session_meta.as_ref().expect("session just opened");
        self.writer.write(Reply::Ok {
            id: *id,
            spec,
            proto: open.proto,
        })?;
        if open.proto == ProtoVersion::V2 && self.writer.dialect == Dialect::Line {
            let rest = self.lines.take_rest();
            self.frames.feed(&rest);
            if self.lines.is_eof() {
                self.frames.set_eof();
            }
            self.writer.dialect = Dialect::Frame;
        }
        Ok(())
    }

    /// Apply the request buffer — one arrival or a whole batch — to
    /// the live session and acknowledge it: an `EVENT` per arrival, or
    /// one `SUMMARY` for a v2 batch without `events=on`. On a mid-batch
    /// contract violation the arrivals before it are still
    /// acknowledged (their events, or a summary whose `n` counts only
    /// them), then the violation is raised.
    fn apply(&mut self, batch: bool) -> Result<(), AcmrError> {
        let arrivals = self.batch.len() as u64;
        self.stats.arrivals += arrivals;
        self.server.arrivals.fetch_add(arrivals, Ordering::Relaxed);
        if batch {
            self.stats.batches += 1;
            self.server.batches.fetch_add(1, Ordering::Relaxed);
        }
        let session = self
            .session
            .as_mut()
            .expect("arrivals decode only when live");
        let total_before = session.stats().rejected_cost;
        let applied = session.push_batch_into(&self.batch, &mut self.events);
        let acked = if batch && !self.batch_events {
            let mut summary = summarize_events(&self.events);
            if self.events.is_empty() {
                // No event carries the running objective: it is
                // unchanged, and nothing was added to it.
                summary.total_rejected_cost = total_before;
                summary.rejected_cost_delta = 0.0;
            }
            self.writer.write(Reply::Summary(&summary))
        } else {
            self.events
                .iter()
                .try_for_each(|event| self.writer.write(Reply::Event(event)))
        };
        acked.and(applied)
    }
}

/// Parse `OPEN <spec> [seed=<S>] [proto=v2 [events=on]]` — the exact
/// grammar (and error wording) of the serving spec.
fn parse_open(ln: usize, open: &str) -> Result<OpenArgs, AcmrError> {
    let proto_err = |message: String| AcmrError::TraceParse { line: ln, message };
    let mut toks = open.split_whitespace();
    if toks.next() != Some("OPEN") {
        return Err(proto_err(format!(
            "expected `OPEN <spec> [seed=<S>]`, got {open:?}"
        )));
    }
    let spec_str = toks
        .next()
        .ok_or_else(|| proto_err("OPEN is missing an algorithm spec".into()))?;
    let spec = AlgorithmSpec::parse(spec_str)?;
    let mut base_seed = 0u64;
    let mut proto = ProtoVersion::V1;
    let mut events = false;
    for tok in toks {
        if let Some(seed) = tok.strip_prefix("seed=").and_then(|s| s.parse().ok()) {
            base_seed = seed;
        } else if tok == PROTO_V2_TOKEN {
            proto = ProtoVersion::V2;
        } else if tok == EVENTS_TOKEN {
            events = true;
        } else {
            return Err(proto_err(format!(
                "unexpected OPEN argument {tok:?} (seed=<S>, proto=v2 and events=on are allowed)"
            )));
        }
    }
    if events && proto != ProtoVersion::V2 {
        return Err(proto_err(
            "events=on requires proto=v2 (v1 always streams events)".into(),
        ));
    }
    Ok(OpenArgs {
        spec,
        base_seed,
        proto,
        events,
        capacities: Vec::new(),
    })
}

impl Drop for Connection {
    fn drop(&mut self) {
        // A connection torn down mid-session (reactor shutdown) must
        // not leave the server-wide live-session gauge elevated.
        self.release_session();
    }
}

/// Decode a `BATCH` frame payload (`u32le` count, then that many
/// ACMR-TRACE v2 records back to back) into `batch`; returns the
/// declared count. Shares the byte-level record decoder with the
/// binary trace file reader.
pub(crate) fn decode_batch_into(
    payload: &[u8],
    frame: usize,
    num_edges: u32,
    batch: &mut Vec<Request>,
) -> Result<usize, AcmrError> {
    let frame_err = |message: String| AcmrError::TraceParse {
        line: frame,
        message,
    };
    let count = payload
        .get(..4)
        .ok_or_else(|| frame_err("BATCH frame shorter than its 4-byte count".into()))?;
    let n = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
    if n > MAX_BATCH {
        return Err(frame_err(format!(
            "BATCH {n} exceeds the {MAX_BATCH}-request frame cap"
        )));
    }
    batch.clear();
    let mut at = 4;
    for i in 0..n {
        let (request, next) = decode_record(payload, at, i, num_edges).map_err(|e| match e {
            AcmrError::TraceParse { message, .. } => {
                frame_err(format!("batch record {i}: {message}"))
            }
            other => other,
        })?;
        batch.push(request);
        at = next;
    }
    if at != payload.len() {
        return Err(frame_err(format!(
            "{} trailing bytes after {n} batch records",
            payload.len() - at
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_harness::default_registry;

    fn conn() -> Connection {
        Connection::new(Arc::new(default_registry()), MachineConfig::default())
    }

    fn text(conn: &mut Connection) -> String {
        String::from_utf8(conn.drain_output()).unwrap()
    }

    #[test]
    fn v1_session_runs_to_report() {
        let mut c = conn();
        c.feed(b"OPEN greedy\nedges 2\ncaps 1 1\n");
        let reply = text(&mut c);
        assert_eq!(reply, "ACMR-SERVE v1\nOK 0 greedy\n");
        c.feed(b"2 0\nEND\n");
        let reply = text(&mut c);
        assert!(reply.starts_with("EVENT {"), "{reply}");
        assert!(reply.contains("REPORT {"), "{reply}");
        assert!(c.is_done());
        assert_eq!(c.stats().arrivals, 1);
        assert_eq!(c.stats().sessions, 1);
    }

    #[test]
    fn hangup_before_open_is_clean_but_mid_handshake_is_typed() {
        let mut c = conn();
        c.feed_eof();
        assert!(c.is_done());
        assert_eq!(text(&mut c), "ACMR-SERVE v1\n"); // no ERR

        let mut c = conn();
        c.feed(b"OPEN greedy\n");
        c.feed_eof();
        let reply = text(&mut c);
        assert!(reply.contains("ERR parse"), "{reply}");
        assert!(
            reply.contains("connection closed before `edges`"),
            "{reply}"
        );
    }

    #[test]
    fn driver_injected_busy_is_a_typed_line_error() {
        let mut c = conn();
        c.fail(&AcmrError::Busy {
            message: "accept queue full (1024 connections)".into(),
        });
        assert!(c.is_done());
        let reply = text(&mut c);
        assert!(reply.contains("ERR busy"), "{reply}");
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn stats_probe_needs_no_session() {
        let mut c = conn();
        c.feed(b"STATS\n");
        let reply = text(&mut c);
        let json = reply
            .lines()
            .find_map(|l| l.strip_prefix("STATS "))
            .expect("stats line");
        let report: StatsReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.server.uptime_ms, 0);
        assert_eq!(report.connection.sessions, 0);
        assert!(report.connection.bytes_in >= "STATS\n".len() as u64);
        assert!(!c.is_done()); // probe may still OPEN afterwards
    }

    #[test]
    fn output_is_chunking_invariant() {
        let script =
            b"OPEN greedy seed=7\nedges 3\ncaps 2 1 2\n1.5 0 1\nBATCH 2\n2 1\n3 0 2\nEND\n";
        let mut whole = conn();
        whole.feed(script);
        whole.feed_eof();
        let expected = whole.drain_output();
        for chunk in [1usize, 2, 3, 5] {
            let mut c = conn();
            for piece in script.chunks(chunk) {
                c.feed(piece);
            }
            c.feed_eof();
            assert_eq!(c.drain_output(), expected, "chunk size {chunk}");
        }
        assert!(whole.is_done());
    }

    #[test]
    fn v2_upgrade_switches_to_frames_and_resets_reopen() {
        use crate::protocol::{encode_reset, FRAME_OK, FRAME_REPORT};
        let mut c = conn();
        c.feed(b"OPEN greedy proto=v2\nedges 2\ncaps 1 1\n");
        let reply = text(&mut c);
        assert!(reply.ends_with("OK 0 greedy proto=v2\n"), "{reply}");
        assert_eq!(c.session().map(|(id, _)| id), Some(0));
        // END → REPORT frame; RESET → OK frame with a fresh id.
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        let mut reset = Vec::new();
        encode_reset(&mut reset, "greedy", None, &[]);
        write_frame(&mut wire, FRAME_RESET, &reset).unwrap();
        c.feed(&wire);
        let reply = c.drain_output();
        assert_eq!(reply[0], FRAME_REPORT);
        let report_len = u32::from_le_bytes(reply[1..5].try_into().unwrap()) as usize;
        assert_eq!(reply[5 + report_len], FRAME_OK);
        assert_eq!(c.session().map(|(id, _)| id), Some(1));
        assert_eq!(c.stats().sessions, 2);
        c.feed_eof();
        assert!(c.is_done());
    }
}
