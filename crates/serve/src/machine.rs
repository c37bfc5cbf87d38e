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
//! a `Connection` byte-at-a-time with zero processes, and the
//! differential suite replays the golden corpus through it with zero
//! sockets, pinning machine ≡ served ≡ in-memory.
//!
//! Determinism contract: a `Connection`'s output depends only on the
//! *consumed input bytes* — never on how they were chunked across
//! `feed` calls. (The one deliberate exception is the `bytes_in`
//! counter inside a `STATS` reply, which counts bytes *received*, so
//! a probe observes real transport progress.)

use crate::protocol::{
    decode_reset, encode_ok, encode_summary, error_reply, error_reply_body, summarize_events,
    write_frame, ConnStats, FrameBuffer, ProtoVersion, ServerStats, StatsReport, EVENTS_TOKEN,
    FRAME_BATCH, FRAME_END, FRAME_ERR, FRAME_EVENT, FRAME_OK, FRAME_REPORT, FRAME_REQ, FRAME_RESET,
    FRAME_STATS, FRAME_STATS_REPLY, FRAME_SUMMARY, GREETING, MAX_BATCH, MAX_FRAME_BYTES,
    PROTO_V2_TOKEN,
};
use acmr_core::{AcmrError, AlgorithmSpec, ArrivalEvent, Registry, Request, Session};
use acmr_workloads::binfmt::decode_record;
use acmr_workloads::trace::{parse_caps_line, parse_edges_line, parse_request_line, LineBuffer};
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

/// What a [`Connection`] shares with its server: protocol ceiling,
/// the server-wide counters, and the session id allocator. The
/// [`Default`] value (fresh counters, ids from 0, v2 allowed) is what
/// in-process tests use; the reactor hands every machine the same
/// two `Arc`s.
#[derive(Clone)]
pub struct MachineConfig {
    /// Highest protocol version to negotiate (same meaning as
    /// [`crate::ServeConfig::max_proto`]).
    pub max_proto: ProtoVersion,
    /// Server-wide counters this connection contributes to.
    pub server: Arc<ServerCounters>,
    /// Session id allocator shared across the server, so ids stay
    /// unique no matter which shard's machine opens the session.
    pub ids: Arc<AtomicU64>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            max_proto: ProtoVersion::V2,
            server: Arc::new(ServerCounters::default()),
            ids: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Which framing the connection's *output* (and error replies) uses
/// right now. Input framing is implied by the phase; output framing
/// must survive the phase collapsing to `Done` on an error, so it is
/// tracked separately.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dialect {
    Line,
    Binary,
}

/// Parsed `OPEN` arguments, carried through the handshake phases.
struct OpenArgs {
    spec: AlgorithmSpec,
    base_seed: u64,
    proto: ProtoVersion,
    events_optin: bool,
}

/// A `BATCH <n>` frame mid-collection (v1 only: the n request lines
/// arrive as further wire lines; v2 batches are one frame).
struct PendingBatch {
    n: usize,
    requests: Vec<Request>,
}

enum Phase {
    /// Waiting for `OPEN` (or a sessionless `STATS` probe).
    AwaitOpen,
    /// `OPEN` parsed; waiting for the `edges` line.
    AwaitEdges { open: OpenArgs },
    /// Waiting for the `caps` line.
    AwaitCaps { open: OpenArgs, m: usize },
    /// A live v1 (line-dialect) session.
    V1 {
        session: Session,
        capacities: Vec<u32>,
        pending: Option<PendingBatch>,
    },
    /// A live v2 (binary-frame) session. `active` is false between
    /// `END` and the next `RESET`.
    V2 {
        session: Session,
        capacities: Vec<u32>,
        events_optin: bool,
        active: bool,
    },
    /// Terminal: the reply stream is complete; the driver flushes
    /// [`Connection::pending_output`] and closes the transport.
    Done,
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
    max_proto: ProtoVersion,
    server: Arc<ServerCounters>,
    ids: Arc<AtomicU64>,
    lines: LineBuffer,
    frames: FrameBuffer,
    dialect: Dialect,
    phase: Phase,
    out: Vec<u8>,
    stats: ConnStats,
    /// `(id, canonical spec)` of the live session, for the driver to
    /// mirror into the [`crate::SessionManager`].
    session_meta: Option<(u64, String)>,
    // Scratch buffers, reused across frames so the steady-state v2
    // batch path allocates nothing.
    payload: Vec<u8>,
    batch: Vec<Request>,
    events: Vec<ArrivalEvent>,
    reply: Vec<u8>,
}

impl Connection {
    /// A freshly accepted connection: the greeting is already queued
    /// in [`Connection::pending_output`].
    pub fn new(registry: Arc<Registry>, config: MachineConfig) -> Self {
        let mut conn = Connection {
            registry,
            max_proto: config.max_proto,
            server: config.server,
            ids: config.ids,
            lines: LineBuffer::new(MAX_FRAME_BYTES),
            frames: FrameBuffer::new(),
            dialect: Dialect::Line,
            phase: Phase::AwaitOpen,
            out: Vec::new(),
            stats: ConnStats::default(),
            session_meta: None,
            payload: Vec::new(),
            batch: Vec::new(),
            events: Vec::new(),
            reply: Vec::new(),
        };
        let before = conn.out.len();
        conn.push_line(GREETING);
        conn.count_out(before);
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
        match self.dialect {
            Dialect::Line => self.lines.feed(bytes),
            Dialect::Binary => self.frames.feed(bytes),
        }
        self.pump();
    }

    /// Signal that the peer hung up (EOF). A hangup at a frame
    /// boundary is a clean close; mid-frame it is the typed
    /// truncation `ERR`.
    pub fn feed_eof(&mut self) {
        match self.dialect {
            Dialect::Line => self.lines.set_eof(),
            Dialect::Binary => self.frames.set_eof(),
        }
        self.pump();
    }

    /// Driver-injected failure (overload at accept, idle timeout):
    /// emits the terminal typed `ERR` in the connection's current
    /// dialect and finishes the machine. The driver should flush the
    /// output and close the transport, as after any other error.
    pub fn fail(&mut self, e: &AcmrError) {
        if matches!(self.phase, Phase::Done) {
            return;
        }
        let before = self.out.len();
        self.emit_error(e);
        self.count_out(before);
    }

    /// Bytes queued for the peer; ship some and acknowledge with
    /// [`Connection::consume_output`].
    pub fn pending_output(&self) -> &[u8] {
        &self.out
    }

    /// Drop the first `n` queued output bytes (they were written to
    /// the transport).
    pub fn consume_output(&mut self, n: usize) {
        self.out.drain(..n);
    }

    /// Take all queued output at once — the in-process driving mode
    /// tests use.
    pub fn drain_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
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
    /// `RESET`) has completed — what the driver mirrors into the
    /// session table.
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

    fn push_line(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Add everything appended to `out` since `before` to the byte
    /// counters. Called at the public entry points, so internal steps
    /// can append freely.
    fn count_out(&mut self, before: usize) {
        let delta = (self.out.len() - before) as u64;
        self.stats.bytes_out += delta;
        self.server.bytes_out.fetch_add(delta, Ordering::Relaxed);
    }

    fn alloc_session(&mut self, canonical: String) -> u64 {
        self.release_session();
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        self.stats.sessions += 1;
        self.server.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.server.sessions_active.fetch_add(1, Ordering::Relaxed);
        self.session_meta = Some((id, canonical));
        id
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
        match self.dialect {
            Dialect::Line => {
                let reply = error_reply(e);
                self.push_line(&reply);
            }
            Dialect::Binary => {
                // Appending to a Vec cannot fail and the body is tiny,
                // so the only write_frame error (oversize payload) is
                // unreachable; swallow rather than recurse.
                let _ = write_frame(&mut self.out, FRAME_ERR, error_reply_body(e).as_bytes());
            }
        }
        self.finish();
    }

    fn finish(&mut self) {
        self.release_session();
        self.phase = Phase::Done;
    }

    /// Run steps until the machine needs more input (or finished).
    ///
    /// A panic inside a step, such as an algorithm's `on_request`,
    /// ends only this connection: it becomes the terminal typed `ERR`
    /// like any other error, and the reactor shard driving the machine
    /// keeps serving its other connections.
    fn pump(&mut self) {
        let before = self.out.len();
        let steps = panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), AcmrError> {
            while self.step()? {}
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
    /// message. The panicking step already dropped the session.
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

    /// One step of progress: `Ok(true)` consumed a line or frame (or
    /// finished), `Ok(false)` needs more input.
    fn step(&mut self) -> Result<bool, AcmrError> {
        match self.phase {
            Phase::Done => Ok(false),
            Phase::V2 { .. } => self.step_frame(),
            _ => self.step_line(),
        }
    }

    // ---- line dialect (handshake + v1 sessions) --------------------------

    fn step_line(&mut self) -> Result<bool, AcmrError> {
        if !self.lines.poll()? {
            return Ok(false);
        }
        // Borrow dance: carve the line (borrowing the buffer), own it,
        // then hand it to the phase logic which needs `&mut self`.
        let next = self.lines.next_line()?.map(|(n, s)| (n, s.to_string()));
        self.handle_line(next)?;
        Ok(true)
    }

    fn handle_line(&mut self, next: Option<(usize, String)>) -> Result<(), AcmrError> {
        let proto_err = |line: usize, message: String| AcmrError::TraceParse { line, message };
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::AwaitOpen => match next {
                // Connected and left (or a finished STATS probe): not
                // an error.
                None => self.finish(),
                Some((_, line)) if line.is_empty() => self.phase = Phase::AwaitOpen,
                Some((_, line)) if line == "STATS" => {
                    self.write_stats_line()?;
                    self.phase = Phase::AwaitOpen;
                }
                Some((ln, line)) => {
                    let open = self.parse_open(ln, &line)?;
                    self.phase = Phase::AwaitEdges { open };
                }
            },
            Phase::AwaitEdges { open } => match next {
                None => {
                    return Err(proto_err(
                        self.lines.line_number() + 1,
                        "connection closed before `edges`".into(),
                    ));
                }
                Some((_, line)) if line.is_empty() => self.phase = Phase::AwaitEdges { open },
                Some((ln, line)) => {
                    let m = parse_edges_line(ln, &line)?;
                    self.phase = Phase::AwaitCaps { open, m };
                }
            },
            Phase::AwaitCaps { open, m } => match next {
                None => {
                    return Err(proto_err(
                        self.lines.line_number() + 1,
                        "connection closed before `caps`".into(),
                    ));
                }
                Some((_, line)) if line.is_empty() => self.phase = Phase::AwaitCaps { open, m },
                Some((ln, line)) => {
                    let capacities = parse_caps_line(ln, &line, m)?;
                    self.open_session(open, capacities)?;
                }
            },
            Phase::V1 {
                mut session,
                capacities,
                pending: Some(mut pb),
            } => match next {
                None => {
                    return Err(proto_err(
                        self.lines.line_number() + 1,
                        format!(
                            "connection closed mid-batch ({} of {} requests)",
                            pb.requests.len(),
                            pb.n
                        ),
                    ));
                }
                // Inside a batch every line is a request line — blanks
                // are data here, not separators.
                Some((ln, line)) => {
                    pb.requests
                        .push(parse_request_line(ln, &line, capacities.len())?);
                    if pb.requests.len() == pb.n {
                        let done = self.apply_v1_batch(&mut session, &pb.requests);
                        self.phase = Phase::V1 {
                            session,
                            capacities,
                            pending: None,
                        };
                        done?;
                    } else {
                        self.phase = Phase::V1 {
                            session,
                            capacities,
                            pending: Some(pb),
                        };
                    }
                }
            },
            Phase::V1 {
                mut session,
                capacities,
                pending: None,
            } => match next {
                // Client hung up between frames: clean close.
                None => self.finish(),
                Some((_, line)) if line.is_empty() => {
                    self.phase = Phase::V1 {
                        session,
                        capacities,
                        pending: None,
                    };
                }
                Some((_, line)) if line == "STATS" => {
                    self.write_stats_line()?;
                    self.phase = Phase::V1 {
                        session,
                        capacities,
                        pending: None,
                    };
                }
                Some((_, line)) if line == "END" => {
                    let report = session.report();
                    let json = serde_json::to_string(&report).map_err(|e| AcmrError::Io {
                        message: format!("cannot serialize report: {e}"),
                    })?;
                    self.push_line(&format!("REPORT {json}"));
                    self.finish();
                }
                Some((ln, line)) => {
                    if let Some(count) = line.strip_prefix("BATCH") {
                        let n: usize = count.trim().parse().map_err(|_| {
                            proto_err(ln, format!("expected `BATCH <n>`, got {line:?}"))
                        })?;
                        if n > MAX_BATCH {
                            return Err(proto_err(
                                ln,
                                format!("BATCH {n} exceeds the {MAX_BATCH}-request frame cap"),
                            ));
                        }
                        if n == 0 {
                            // An empty batch applies nothing and (like
                            // the loop below with zero events) replies
                            // nothing.
                            self.phase = Phase::V1 {
                                session,
                                capacities,
                                pending: None,
                            };
                        } else {
                            self.phase = Phase::V1 {
                                session,
                                capacities,
                                pending: Some(PendingBatch {
                                    n,
                                    requests: Vec::new(),
                                }),
                            };
                        }
                        return Ok(());
                    }
                    // Anything else must be a request line of the
                    // trace grammar.
                    let request = parse_request_line(ln, &line, capacities.len())?;
                    self.stats.arrivals += 1;
                    self.server.arrivals.fetch_add(1, Ordering::Relaxed);
                    let done = session.push(&request);
                    self.phase = Phase::V1 {
                        session,
                        capacities,
                        pending: None,
                    };
                    let event = done?;
                    self.write_event_line(&event)?;
                }
            },
            Phase::V2 { .. } | Phase::Done => unreachable!("step_line outside a line phase"),
        }
        Ok(())
    }

    /// Parse `OPEN <spec> [seed=<S>] [proto=v2 [events=on]]` — the
    /// exact grammar (and error wording) of the serving spec.
    fn parse_open(&self, ln: usize, open: &str) -> Result<OpenArgs, AcmrError> {
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
        let mut events_optin = false;
        for tok in toks {
            if let Some(seed) = tok.strip_prefix("seed=").and_then(|s| s.parse().ok()) {
                base_seed = seed;
                continue;
            }
            // A v1-capped server answers `proto=v2` with this same
            // typed parse error — the deterministic downgrade signal
            // the v2 client turns into "use --proto v1 against this
            // fleet".
            if self.max_proto == ProtoVersion::V2 && tok == PROTO_V2_TOKEN {
                proto = ProtoVersion::V2;
                continue;
            }
            if self.max_proto == ProtoVersion::V2 && tok == EVENTS_TOKEN {
                events_optin = true;
                continue;
            }
            let allowed = match self.max_proto {
                ProtoVersion::V1 => "only seed=<S> is allowed",
                ProtoVersion::V2 => "seed=<S>, proto=v2 and events=on are allowed",
            };
            return Err(proto_err(format!(
                "unexpected OPEN argument {tok:?} ({allowed})"
            )));
        }
        if events_optin && proto != ProtoVersion::V2 {
            return Err(proto_err(
                "events=on requires proto=v2 (v1 always streams events)".into(),
            ));
        }
        Ok(OpenArgs {
            spec,
            base_seed,
            proto,
            events_optin,
        })
    }

    /// Handshake complete: build the session, reply `OK`, and enter
    /// the negotiated dialect (switching the input framing to binary
    /// for v2, carrying over any bytes a pipelining client already
    /// sent past its handshake).
    fn open_session(&mut self, open: OpenArgs, capacities: Vec<u32>) -> Result<(), AcmrError> {
        let session =
            Session::from_registry(&self.registry, &open.spec, &capacities, open.base_seed)?;
        let canonical = open.spec.canonical();
        let id = self.alloc_session(canonical.clone());
        match open.proto {
            ProtoVersion::V1 => self.push_line(&format!("OK {id} {canonical}")),
            ProtoVersion::V2 => self.push_line(&format!("OK {id} {canonical} {PROTO_V2_TOKEN}")),
        }
        if open.proto == ProtoVersion::V2 {
            let rest = self.lines.take_rest();
            self.frames.feed(&rest);
            if self.lines.is_eof() {
                self.frames.set_eof();
            }
            self.dialect = Dialect::Binary;
            self.phase = Phase::V2 {
                session,
                capacities,
                events_optin: open.events_optin,
                active: true,
            };
        } else {
            self.phase = Phase::V1 {
                session,
                capacities,
                pending: None,
            };
        }
        Ok(())
    }

    /// Apply a complete v1 batch. On a mid-batch contract violation
    /// the events preceding the violation are still delivered, then
    /// the `ERR` (raised from the returned error).
    fn apply_v1_batch(
        &mut self,
        session: &mut Session,
        requests: &[Request],
    ) -> Result<(), AcmrError> {
        self.stats.batches += 1;
        self.server.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.arrivals += requests.len() as u64;
        self.server
            .arrivals
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let mut events = std::mem::take(&mut self.events);
        let result = session.push_batch_into(requests, &mut events);
        let mut write = Ok(());
        for event in &events {
            write = self.write_event_line(event);
            if write.is_err() {
                break;
            }
        }
        self.events = events;
        write?;
        result
    }

    fn write_event_line(&mut self, event: &ArrivalEvent) -> Result<(), AcmrError> {
        let json = serde_json::to_string(event).map_err(|e| AcmrError::Io {
            message: format!("cannot serialize event: {e}"),
        })?;
        self.push_line(&format!("EVENT {json}"));
        Ok(())
    }

    fn write_stats_line(&mut self) -> Result<(), AcmrError> {
        let json = self.stats_json()?;
        self.push_line(&format!("STATS {json}"));
        Ok(())
    }

    fn stats_json(&self) -> Result<String, AcmrError> {
        serde_json::to_string(&self.stats_report()).map_err(|e| AcmrError::Io {
            message: format!("cannot serialize stats: {e}"),
        })
    }

    // ---- binary dialect (v2 sessions) ------------------------------------

    fn step_frame(&mut self) -> Result<bool, AcmrError> {
        // The scratch buffers leave `self` for the duration of the
        // step (plain moves — their capacity survives), so the frame
        // logic can borrow `self` freely.
        let mut payload = std::mem::take(&mut self.payload);
        let result = self.step_frame_with(&mut payload);
        self.payload = payload;
        result
    }

    fn step_frame_with(&mut self, payload: &mut Vec<u8>) -> Result<bool, AcmrError> {
        let Some(ty) = self.frames.next_frame(payload)? else {
            if self.frames.is_eof() {
                // Hangup at a frame boundary: clean close.
                self.finish();
                return Ok(true);
            }
            return Ok(false);
        };
        let fno = self.frames.frame_number();
        let frame_err = |message: String| AcmrError::TraceParse { line: fno, message };
        let Phase::V2 {
            mut session,
            mut capacities,
            events_optin,
            mut active,
        } = std::mem::replace(&mut self.phase, Phase::Done)
        else {
            unreachable!("step_frame outside the v2 phase");
        };
        // Restore-then-raise: the phase goes back intact before any
        // `?` below, so an error leaves `Done` only via `emit_error`.
        macro_rules! restore {
            () => {
                self.phase = Phase::V2 {
                    session,
                    capacities,
                    events_optin,
                    active,
                }
            };
        }
        let num_edges = capacities.len() as u32;
        match ty {
            FRAME_REQ if active => {
                let decoded = decode_record(payload, 0, fno, num_edges);
                let pushed = decoded.and_then(|(request, end)| {
                    if end != payload.len() {
                        return Err(frame_err(format!(
                            "{} trailing bytes after the REQ record",
                            payload.len() - end
                        )));
                    }
                    self.stats.arrivals += 1;
                    self.server.arrivals.fetch_add(1, Ordering::Relaxed);
                    session.push(&request)
                });
                restore!();
                let event = pushed?;
                self.write_event_frame(&event)?;
            }
            FRAME_BATCH if active => {
                let mut batch = std::mem::take(&mut self.batch);
                let decoded = decode_batch_into(payload, fno, num_edges, &mut batch);
                let applied = decoded.and_then(|n| {
                    self.stats.batches += 1;
                    self.server.batches.fetch_add(1, Ordering::Relaxed);
                    self.stats.arrivals += batch.len() as u64;
                    self.server
                        .arrivals
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    let mut events = std::mem::take(&mut self.events);
                    // A mid-batch contract violation still delivers
                    // the acknowledgement for the arrivals that
                    // preceded it (events, or a summary over the
                    // applied prefix), then the ERR frame — same
                    // contract as v1.
                    let result = session.push_batch_into(&batch, &mut events);
                    let mut write = Ok(());
                    if events_optin {
                        for event in &events {
                            write = self.write_event_frame(event);
                            if write.is_err() {
                                break;
                            }
                        }
                    } else {
                        let mut summary = summarize_events(&events);
                        // `n` is the count *requested*; on a violation
                        // the summary covers only the applied prefix,
                        // and its `n` says how many actually landed.
                        debug_assert!(events.len() <= n);
                        summary.n = events.len() as u32;
                        self.reply.clear();
                        encode_summary(&mut self.reply, &summary);
                        let reply = std::mem::take(&mut self.reply);
                        write = write_frame(&mut self.out, FRAME_SUMMARY, &reply);
                        self.reply = reply;
                    }
                    self.events = events;
                    write.and(result)
                });
                self.batch = batch;
                restore!();
                applied?;
            }
            FRAME_END if active => {
                if !payload.is_empty() {
                    restore!();
                    return Err(frame_err("END frame carries a payload".into()));
                }
                let report = session.report();
                active = false;
                restore!();
                let json = serde_json::to_string(&report).map_err(|e| AcmrError::Io {
                    message: format!("cannot serialize report: {e}"),
                })?;
                write_frame(&mut self.out, FRAME_REPORT, json.as_bytes())?;
            }
            FRAME_RESET => {
                // Every fallible step restores the phase before
                // raising, so `emit_error` still sees a live v2 frame
                // dialect; once the fresh session is in, the old one
                // is gone for good — exactly the thread-server
                // behavior, where a failed RESET killed the
                // connection anyway.
                let decoded = decode_reset(payload).map_err(|e| match e {
                    AcmrError::TraceParse { message, .. } => frame_err(message),
                    other => other,
                });
                let reset = match decoded {
                    Ok(reset) => reset,
                    Err(e) => {
                        restore!();
                        return Err(e);
                    }
                };
                let spec = match AlgorithmSpec::parse(&reset.spec) {
                    Ok(spec) => spec,
                    Err(e) => {
                        restore!();
                        return Err(e);
                    }
                };
                if !reset.capacities.is_empty() {
                    capacities = reset.capacities;
                }
                let seed = reset.base_seed.unwrap_or(0);
                match Session::from_registry(&self.registry, &spec, &capacities, seed) {
                    Ok(fresh) => session = fresh,
                    Err(e) => {
                        restore!();
                        return Err(e);
                    }
                }
                let canonical = spec.canonical();
                // A RESET is a fresh session in the table: new id,
                // new spec, same connection.
                let id = self.alloc_session(canonical.clone());
                active = true;
                restore!();
                self.reply.clear();
                encode_ok(&mut self.reply, id, &canonical);
                let reply = std::mem::take(&mut self.reply);
                let wrote = write_frame(&mut self.out, FRAME_OK, &reply);
                self.reply = reply;
                wrote?;
            }
            FRAME_STATS => {
                if !payload.is_empty() {
                    restore!();
                    return Err(frame_err("STATS frame carries a payload".into()));
                }
                restore!();
                let json = self.stats_json()?;
                write_frame(&mut self.out, FRAME_STATS_REPLY, json.as_bytes())?;
            }
            FRAME_REQ | FRAME_BATCH | FRAME_END => {
                restore!();
                return Err(frame_err(
                    "session already ended: only RESET (or hangup) may follow END".into(),
                ));
            }
            other => {
                restore!();
                return Err(frame_err(format!("unexpected frame type 0x{other:02x}")));
            }
        }
        Ok(true)
    }

    /// Serialize one arrival event as a v2 `EVENT` frame — the payload
    /// is the same JSON the v1 `EVENT` line carries.
    fn write_event_frame(&mut self, event: &ArrivalEvent) -> Result<(), AcmrError> {
        let json = serde_json::to_string(event).map_err(|e| AcmrError::Io {
            message: format!("cannot serialize event: {e}"),
        })?;
        write_frame(&mut self.out, FRAME_EVENT, json.as_bytes())
    }
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
