//! The matching client: a typed handle over one `ACMR-SERVE` session
//! (v1 lines or v2 binary frames), plus the trace-replay conveniences
//! `acmr client` uses.
//!
//! The client mirrors the [`acmr_core::Session`] surface on purpose —
//! [`ServeClient::push`] and [`ServeClient::push_batch`] return the
//! same audited [`ArrivalEvent`]s the in-process session would, so
//! swapping a local session for a remote one is a one-line change and
//! the differential suite can pin *served ≡ streamed ≡ in-memory*
//! event for event.
//!
//! Protocol v2 ([`ServeClient::connect_v2`]) keeps that surface but
//! changes the wire: arrivals travel as ACMR-TRACE v2 record bytes in
//! length-prefixed frames, batches acknowledge with one
//! [`BatchSummary`] unless the session opted into per-arrival events,
//! and [`ServeClient::reset`] reuses the connection for a fresh
//! session — the persistent-session mechanism
//! [`crate::pool::WorkerPool`] builds on.

use crate::protocol::{
    decode_error_reply, decode_ok, decode_summary, encode_reset, write_frame, BatchSummary,
    BinFrameReader, FrameReader, ProtoVersion, StatsReport, EVENTS_TOKEN, FRAME_BATCH, FRAME_END,
    FRAME_ERR, FRAME_EVENT, FRAME_OK, FRAME_REPORT, FRAME_REQ, FRAME_RESET, FRAME_STATS,
    FRAME_STATS_REPLY, FRAME_SUMMARY, GREETING, MAX_BATCH, PROTO_V2_TOKEN,
};
use acmr_core::{AcmrError, ArrivalEvent, Request, RunReport};
use acmr_workloads::binfmt::encode_record_into;
use acmr_workloads::trace::write_request_line;
use std::io::{BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// The read half of a session: v1 line frames, or — after a
/// `proto=v2` handshake — binary frames (chained after any bytes the
/// line scanner had already buffered past the `OK` reply).
enum ReadHalf {
    V1(FrameReader<TcpStream>),
    V2(BinFrameReader<std::io::Chain<std::io::Cursor<Vec<u8>>, TcpStream>>),
}

/// One live session against an `acmr serve` endpoint.
///
/// ```no_run
/// use acmr_core::Request;
/// use acmr_graph::{EdgeId, EdgeSet};
/// use acmr_serve::ServeClient;
///
/// // A server is listening (e.g. `acmr serve --addr 127.0.0.1:4790`).
/// let mut client = ServeClient::connect(
///     "127.0.0.1:4790",
///     "aag-weighted?seed=7",
///     None,       // base seed (spec seed wins anyway)
///     &[1, 1],    // edge capacities, exactly as for a local Session
/// )?;
/// let event = client.push(&Request::unit(EdgeSet::singleton(EdgeId(0))))?;
/// assert!(event.accepted);
/// let report = client.finish()?; // END → final RunReport
/// assert_eq!(report.requests, 1);
/// # Ok::<(), acmr_core::AcmrError>(())
/// ```
pub struct ServeClient {
    read: ReadHalf,
    writer: BufWriter<TcpStream>,
    session_id: u64,
    spec: String,
    /// v2 only: the session streams per-arrival `EVENT` frames for
    /// batches (`events=on`) instead of one `SUMMARY` per batch.
    events: bool,
    /// v2 only: edge-universe size, needed to encode arrival records.
    num_edges: u32,
    /// v2 only: reusable reply-payload buffer.
    scratch: Vec<u8>,
    /// v2 only: reusable outgoing-payload buffer.
    out: Vec<u8>,
}

impl ServeClient {
    /// Connect to `addr` and open a v1 (line-protocol) session running
    /// `spec` over the given edge capacities. `base_seed` feeds
    /// randomized algorithms unless the spec carries its own `seed=`
    /// (exactly like [`acmr_core::Session::from_registry`]).
    pub fn connect(
        addr: impl ToSocketAddrs,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<Self, AcmrError> {
        let stream = connect_stream(addr)?;
        ServeClient::from_stream(stream, spec, base_seed, capacities)
    }

    /// [`ServeClient::connect`] negotiating protocol v2: binary
    /// frames, record-byte arrivals, batch-summary acknowledgements
    /// (per-arrival events with `events: true`), and
    /// [`ServeClient::reset`] for session reuse. A v1-only server
    /// answers the negotiation with its typed `ERR parse` reply —
    /// surfaced here as that error, never a hang.
    pub fn connect_v2(
        addr: impl ToSocketAddrs,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
        events: bool,
    ) -> Result<Self, AcmrError> {
        let stream = connect_stream(addr)?;
        ServeClient::from_stream_with(
            stream,
            spec,
            base_seed,
            capacities,
            ProtoVersion::V2,
            events,
        )
    }

    /// [`ServeClient::connect`] over an already-established TCP
    /// stream. Split out so [`crate::pool::WorkerPool`] can
    /// distinguish *connection* failures (the worker process is gone
    /// — quarantine the slot) from handshake/session failures (maybe
    /// transient — retry elsewhere) structurally, by owning the
    /// `TcpStream::connect` step itself.
    pub(crate) fn from_stream(
        stream: TcpStream,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<Self, AcmrError> {
        ServeClient::from_stream_with(stream, spec, base_seed, capacities, ProtoVersion::V1, false)
    }

    /// The one handshake implementation: greeting, `OPEN` (with the
    /// v2 negotiation tokens when asked), `edges`/`caps`, `OK` — then,
    /// for v2, the switch to binary frames.
    pub(crate) fn from_stream_with(
        stream: TcpStream,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
        proto: ProtoVersion,
        events: bool,
    ) -> Result<Self, AcmrError> {
        // Frames are small and latency-bound; Nagle would trade the
        // per-decision round trip for nothing.
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone().map_err(|e| AcmrError::Io {
            message: format!("cannot clone socket: {e}"),
        })?;
        let mut frames = FrameReader::new(stream);
        let mut writer = BufWriter::new(write_half);

        let (_, greeting) = reply_line(&mut frames)?;
        if greeting != GREETING {
            return Err(AcmrError::Remote {
                code: "proto".into(),
                message: format!("unexpected greeting {greeting:?} (expected {GREETING:?})"),
            });
        }
        write!(writer, "OPEN {spec}")?;
        if let Some(seed) = base_seed {
            write!(writer, " seed={seed}")?;
        }
        if proto == ProtoVersion::V2 {
            write!(writer, " {PROTO_V2_TOKEN}")?;
            if events {
                write!(writer, " {EVENTS_TOKEN}")?;
            }
        }
        writeln!(writer)?;
        writeln!(writer, "edges {}", capacities.len())?;
        write!(writer, "caps")?;
        for c in capacities {
            write!(writer, " {c}")?;
        }
        writeln!(writer)?;
        writer.flush()?;

        let (_, ok) = reply_line(&mut frames)?;
        let rest = decode_reply(&ok, "OK")?;
        let mut toks = rest.split_whitespace();
        let session_id = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| proto_error(format!("malformed OK reply {ok:?}")))?;
        let spec = toks.next().unwrap_or(spec).to_string();
        let upgraded = toks.any(|t| t == PROTO_V2_TOKEN);
        let read = match proto {
            ProtoVersion::V1 => ReadHalf::V1(frames),
            ProtoVersion::V2 => {
                if !upgraded {
                    return Err(proto_error(format!(
                        "server accepted the session but did not acknowledge {PROTO_V2_TOKEN} \
                         (reply {ok:?})"
                    )));
                }
                let (rest, stream) = frames.into_binary();
                ReadHalf::V2(BinFrameReader::with_rest(rest, stream))
            }
        };
        Ok(ServeClient {
            read,
            writer,
            session_id,
            spec,
            events,
            num_edges: capacities.len() as u32,
            scratch: Vec::new(),
            out: Vec::new(),
        })
    }

    /// The server-assigned session id (updated by
    /// [`ServeClient::reset`]).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The canonical spec the server echoed in its `OK` reply.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Which protocol this session negotiated.
    pub fn proto(&self) -> ProtoVersion {
        match self.read {
            ReadHalf::V1(_) => ProtoVersion::V1,
            ReadHalf::V2(_) => ProtoVersion::V2,
        }
    }

    /// Send one arrival and wait for its audited decision — the remote
    /// twin of [`acmr_core::Session::push`]. Single arrivals stream an
    /// `EVENT` in both protocols and both v2 acknowledgement modes.
    pub fn push(&mut self, request: &Request) -> Result<ArrivalEvent, AcmrError> {
        match self.read {
            ReadHalf::V1(_) => {
                write_request_line(&mut self.writer, request)?;
                self.writer.flush()?;
                self.read_event_line()
            }
            ReadHalf::V2(_) => {
                self.out.clear();
                encode_record_into(&mut self.out, request, self.num_edges)
                    .map_err(invalid_request)?;
                write_frame(&mut self.writer, FRAME_REQ, &self.out)?;
                self.writer.flush()?;
                self.read_event_frame()
            }
        }
    }

    /// Send a `BATCH n` frame and wait for its `n` decisions — the
    /// remote twin of [`acmr_core::Session::push_batch_into`], returning
    /// an owned buffer. On a mid-batch error the events the server
    /// delivered before the `ERR` are dropped with the buffer; use
    /// [`ServeClient::push_batch_into`] to keep them. `batch` must not
    /// exceed [`crate::protocol::MAX_BATCH`] — callers that chunk an
    /// unbounded stream should clamp to it, as [`serve_trace`] does.
    pub fn push_batch(&mut self, batch: &[Request]) -> Result<Vec<ArrivalEvent>, AcmrError> {
        let mut events = Vec::with_capacity(batch.len());
        self.push_batch_into(batch, &mut events)?;
        Ok(events)
    }

    /// [`ServeClient::push_batch`] writing into a caller-owned buffer.
    /// `events` is cleared first; on success it holds one event per
    /// request, and on a mid-batch failure it holds the events the
    /// server delivered before its terminal `ERR` — the wire keeps the
    /// protocol's promise (`docs/SERVING.md`) that arrivals applied
    /// before a violation are still reported, and this method keeps it
    /// for the caller.
    ///
    /// Requires per-arrival events: v1 always streams them; a v2
    /// session must have negotiated `events=on` ([`ServeClient::
    /// connect_v2`] with `events: true`) — a summary-mode session gets
    /// a typed error pointing at [`ServeClient::push_batch_summary`].
    pub fn push_batch_into(
        &mut self,
        batch: &[Request],
        events: &mut Vec<ArrivalEvent>,
    ) -> Result<(), AcmrError> {
        events.clear();
        match self.read {
            ReadHalf::V1(_) => {
                writeln!(self.writer, "BATCH {}", batch.len())?;
                for request in batch {
                    write_request_line(&mut self.writer, request)?;
                }
                self.writer.flush()?;
                events.reserve(batch.len());
                for _ in 0..batch.len() {
                    events.push(self.read_event_line()?);
                }
                Ok(())
            }
            ReadHalf::V2(_) => {
                if !self.events {
                    return Err(proto_error(
                        "this v2 session negotiated summary acknowledgements; \
                         use push_batch_summary (or connect with events=on)"
                            .into(),
                    ));
                }
                self.write_batch_frame(batch)?;
                self.writer.flush()?;
                events.reserve(batch.len());
                for _ in 0..batch.len() {
                    events.push(self.read_event_frame()?);
                }
                Ok(())
            }
        }
    }

    /// v2, summary mode: send one `BATCH` frame and wait for its
    /// single [`BatchSummary`] acknowledgement — the cheap ack that
    /// makes batched replay one reply frame per batch instead of one
    /// per arrival. On a mid-batch violation the summary covers the
    /// applied prefix and the terminal `ERR` follows as the returned
    /// error on the *next* call (the server answers prefix-summary
    /// then `ERR`; this method surfaces whichever frame arrives
    /// first). Typed error on v1 sessions and on `events=on` sessions.
    pub fn push_batch_summary(&mut self, batch: &[Request]) -> Result<BatchSummary, AcmrError> {
        match self.read {
            ReadHalf::V1(_) => Err(proto_error(
                "push_batch_summary needs a proto=v2 session (v1 streams events)".into(),
            )),
            ReadHalf::V2(_) => {
                if self.events {
                    return Err(proto_error(
                        "this v2 session negotiated events=on; use push_batch_into".into(),
                    ));
                }
                self.write_batch_frame(batch)?;
                self.writer.flush()?;
                self.expect_frame(FRAME_SUMMARY, "SUMMARY")?;
                decode_summary(&self.scratch)
                    .map_err(|e| proto_error(format!("malformed SUMMARY frame: {e}")))
            }
        }
    }

    /// v2 only: start a fresh session on the same connection — new
    /// algorithm `spec`, new seed, new capacities (empty `capacities`
    /// keeps the current edge universe). The previous session must
    /// have ended (a `RESET` is also accepted mid-session, aborting
    /// it). Returns the new server-assigned session id; the canonical
    /// spec is re-read from the server's `OK` frame. This is what lets
    /// a [`crate::pool::WorkerPool`] slot serve many jobs over one
    /// connection instead of paying a TCP + handshake round trip per
    /// job.
    pub fn reset(
        &mut self,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<u64, AcmrError> {
        self.write_reset(spec, base_seed, capacities)?;
        self.writer.flush()?;
        self.read_reset_ok()
    }

    /// Ask the server for its counters: one [`StatsReport`] pairing
    /// the server-wide totals with this connection's own tallies.
    /// Works mid-session in both protocols (v1 sends the `STATS`
    /// line, v2 the `STATS` frame) and never perturbs the session —
    /// for a sessionless probe of a remote server, see [`fetch_stats`].
    pub fn stats(&mut self) -> Result<StatsReport, AcmrError> {
        match self.read {
            ReadHalf::V1(_) => {
                writeln!(self.writer, "STATS")?;
                self.writer.flush()?;
                let (_, line) = self.reply_line_v1()?;
                let json = decode_reply(&line, "STATS")?;
                serde_json::from_str(json)
                    .map_err(|e| proto_error(format!("malformed STATS reply: {e}")))
            }
            ReadHalf::V2(_) => {
                write_frame(&mut self.writer, FRAME_STATS, &[])?;
                self.writer.flush()?;
                self.expect_frame(FRAME_STATS_REPLY, "STATS")?;
                let json = std::str::from_utf8(&self.scratch)
                    .map_err(|e| proto_error(format!("malformed STATS reply: {e}")))?;
                serde_json::from_str(json)
                    .map_err(|e| proto_error(format!("malformed STATS reply: {e}")))
            }
        }
    }

    /// End the session: the server replies with the final
    /// [`RunReport`] (no offline-optimum context — a live session
    /// cannot see the future; replay the saved trace through `acmr
    /// run` for bounds) and the connection closes with the client.
    pub fn finish(mut self) -> Result<RunReport, AcmrError> {
        self.end_session()
    }

    /// [`ServeClient::finish`] without closing the connection — the
    /// session ends and its report comes back, but the client stays
    /// usable: a v2 session can start the next job on the same
    /// connection via [`ServeClient::reset`] (a v1 server closes its
    /// side after the report regardless, so v1 callers should prefer
    /// [`ServeClient::finish`]).
    pub fn end_session(&mut self) -> Result<RunReport, AcmrError> {
        match self.read {
            ReadHalf::V1(_) => {
                writeln!(self.writer, "END")?;
                self.writer.flush()?;
                let (_, line) = self.reply_line_v1()?;
                let json = decode_reply(&line, "REPORT")?;
                serde_json::from_str(json)
                    .map_err(|e| proto_error(format!("malformed REPORT: {e}")))
            }
            ReadHalf::V2(_) => {
                self.write_end_frame()?;
                self.writer.flush()?;
                self.read_report_frame()
            }
        }
    }

    // ---- v2 write half (buffered; pipelined callers flush once) ----

    /// Queue one `BATCH` frame: `u32le` count + that many ACMR-TRACE
    /// v2 records. Buffered — does not flush.
    pub(crate) fn write_batch_frame(&mut self, batch: &[Request]) -> Result<(), AcmrError> {
        if batch.len() > MAX_BATCH {
            return Err(AcmrError::InvalidRequest {
                reason: format!(
                    "BATCH {} exceeds the {MAX_BATCH}-request frame cap",
                    batch.len()
                ),
            });
        }
        self.out.clear();
        self.out
            .extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for request in batch {
            encode_record_into(&mut self.out, request, self.num_edges).map_err(invalid_request)?;
        }
        write_frame(&mut self.writer, FRAME_BATCH, &self.out)
    }

    /// Queue the empty `END` frame. Buffered — does not flush.
    pub(crate) fn write_end_frame(&mut self) -> Result<(), AcmrError> {
        write_frame(&mut self.writer, FRAME_END, &[])
    }

    /// Queue a `RESET` frame (see [`ServeClient::reset`]). Buffered —
    /// does not flush; the matching `OK` is read by
    /// [`ServeClient::read_reset_ok`], so a pipelined caller can queue
    /// the whole next job behind the reset.
    pub(crate) fn write_reset(
        &mut self,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<(), AcmrError> {
        self.out.clear();
        encode_reset(&mut self.out, spec, base_seed, capacities);
        write_frame(&mut self.writer, FRAME_RESET, &self.out)?;
        if !capacities.is_empty() {
            self.num_edges = capacities.len() as u32;
        }
        Ok(())
    }

    /// Flush everything queued so far to the socket.
    pub(crate) fn flush_writes(&mut self) -> Result<(), AcmrError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Read the `OK` frame answering a `RESET`; updates (and returns)
    /// the session id and re-reads the canonical spec.
    pub(crate) fn read_reset_ok(&mut self) -> Result<u64, AcmrError> {
        self.expect_frame(FRAME_OK, "OK")?;
        let (id, spec) = decode_ok(&self.scratch)
            .map_err(|e| proto_error(format!("malformed OK frame: {e}")))?;
        self.session_id = id;
        self.spec = spec;
        Ok(id)
    }

    /// Read one `SUMMARY` frame (summary-mode batch acknowledgement).
    pub(crate) fn read_batch_summary(&mut self) -> Result<BatchSummary, AcmrError> {
        self.expect_frame(FRAME_SUMMARY, "SUMMARY")?;
        decode_summary(&self.scratch).map_err(|e| proto_error(format!("malformed SUMMARY: {e}")))
    }

    /// Read the `REPORT` frame answering `END`.
    pub(crate) fn read_report_frame(&mut self) -> Result<RunReport, AcmrError> {
        self.expect_frame(FRAME_REPORT, "REPORT")?;
        let json = std::str::from_utf8(&self.scratch)
            .map_err(|e| proto_error(format!("malformed REPORT: {e}")))?;
        serde_json::from_str(json).map_err(|e| proto_error(format!("malformed REPORT: {e}")))
    }

    /// After a failed *write*: try to read one frame, hoping for the
    /// server's terminal `ERR` (a server that rejects a frame stops
    /// reading, which is what made our write fail). `Some` only for a
    /// typed remote answer; `None` means the connection is just gone
    /// and the caller's transport error stands.
    pub(crate) fn pending_error(&mut self) -> Option<AcmrError> {
        match self.read_v2_frame() {
            Err(e @ AcmrError::Remote { .. }) => Some(e),
            _ => None,
        }
    }

    // ---- v2 read half ----

    /// Read one reply frame into `self.scratch`, returning its type.
    /// EOF and framing violations are client-side *transport* errors
    /// (`Remote{code:"proto"}` — the server vanished or spoke
    /// garbage), so the pool's retry classification stays exact; an
    /// `ERR` frame decodes to the server's typed error.
    fn read_v2_frame(&mut self) -> Result<u8, AcmrError> {
        let ReadHalf::V2(frames) = &mut self.read else {
            return Err(proto_error("internal: frame read on a v1 session".into()));
        };
        let ty = match frames.read_frame(&mut self.scratch) {
            Ok(Some(ty)) => ty,
            Ok(None) => {
                return Err(proto_error(
                    "server closed the connection without a reply".into(),
                ))
            }
            Err(AcmrError::TraceParse { message, .. }) => {
                return Err(proto_error(format!("malformed reply frame: {message}")))
            }
            Err(e) => return Err(e),
        };
        if ty == FRAME_ERR {
            let body = String::from_utf8_lossy(&self.scratch).into_owned();
            return Err(decode_error_reply(&body));
        }
        Ok(ty)
    }

    fn expect_frame(&mut self, want: u8, what: &str) -> Result<(), AcmrError> {
        let ty = self.read_v2_frame()?;
        if ty != want {
            return Err(proto_error(format!(
                "expected a {what} frame, got type 0x{ty:02x}"
            )));
        }
        Ok(())
    }

    fn read_event_frame(&mut self) -> Result<ArrivalEvent, AcmrError> {
        self.expect_frame(FRAME_EVENT, "EVENT")?;
        let json = std::str::from_utf8(&self.scratch)
            .map_err(|e| proto_error(format!("malformed EVENT: {e}")))?;
        serde_json::from_str(json).map_err(|e| proto_error(format!("malformed EVENT: {e}")))
    }

    fn reply_line_v1(&mut self) -> Result<(usize, String), AcmrError> {
        let ReadHalf::V1(frames) = &mut self.read else {
            return Err(proto_error("internal: line read on a v2 session".into()));
        };
        reply_line(frames)
    }

    fn read_event_line(&mut self) -> Result<ArrivalEvent, AcmrError> {
        let (_, line) = self.reply_line_v1()?;
        let json = decode_reply(&line, "EVENT")?;
        serde_json::from_str(json).map_err(|e| proto_error(format!("malformed EVENT: {e}")))
    }
}

/// Probe a serving endpoint for its counters without opening a
/// session: connect, read the greeting, send one `STATS` line, decode
/// the [`StatsReport`] reply — what `acmr stats --addr` (and `acmr
/// client --stats`) runs. The connection carries nothing else, so the
/// `connection` half of the report reflects only the probe itself;
/// the `server` half is the interesting part.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> Result<StatsReport, AcmrError> {
    let stream = connect_stream(addr)?;
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone().map_err(|e| AcmrError::Io {
        message: format!("cannot clone socket: {e}"),
    })?;
    let mut frames = FrameReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let (_, greeting) = reply_line(&mut frames)?;
    if greeting != GREETING {
        return Err(proto_error(format!(
            "unexpected greeting {greeting:?} (expected {GREETING:?})"
        )));
    }
    writeln!(writer, "STATS")?;
    writer.flush()?;
    let (_, line) = reply_line(&mut frames)?;
    let json = decode_reply(&line, "STATS")?;
    serde_json::from_str(json).map_err(|e| proto_error(format!("malformed STATS reply: {e}")))
}

fn connect_stream(addr: impl ToSocketAddrs) -> Result<TcpStream, AcmrError> {
    TcpStream::connect(addr).map_err(|e| AcmrError::Io {
        message: format!("cannot connect to acmr serve: {e}"),
    })
}

fn proto_error(message: String) -> AcmrError {
    AcmrError::Remote {
        code: "proto".into(),
        message,
    }
}

fn invalid_request(e: std::io::Error) -> AcmrError {
    AcmrError::InvalidRequest {
        reason: e.to_string(),
    }
}

/// Read one reply line; a closed connection is a typed error (the
/// protocol always ends with `REPORT` or `ERR`, never a silent EOF).
fn reply_line(frames: &mut FrameReader<TcpStream>) -> Result<(usize, String), AcmrError> {
    frames
        .next_line()?
        .ok_or_else(|| proto_error("server closed the connection without a reply".into()))
}

/// Strip the expected reply keyword; an `ERR` reply decodes to the
/// typed [`AcmrError::Remote`] instead.
fn decode_reply<'a>(line: &'a str, expected: &str) -> Result<&'a str, AcmrError> {
    if let Some(rest) = line.strip_prefix("ERR ") {
        return Err(decode_error_reply(rest));
    }
    line.strip_prefix(expected)
        .map(str::trim_start)
        .ok_or_else(|| proto_error(format!("expected a {expected} reply, got {line:?}")))
}

/// Replay a whole arrival stream through a serving endpoint — the
/// remote twin of [`acmr_core::Session::run_stream_batched`], and what
/// `acmr client --stream` dispatches to. Arrivals are taken from any
/// fallible request iterator (e.g. a chunked
/// `acmr_workloads::trace::TraceReader`); with `batch: Some(n)` they
/// travel as `BATCH` frames of at most `min(n,
/// [`crate::protocol::MAX_BATCH`])` requests — so any `--batch` value
/// that `acmr run` accepts works here too. `on_event` sees every
/// audited decision in arrival order (the events preceding a
/// mid-batch failure included); the final report is returned.
pub fn serve_trace<I>(
    addr: impl ToSocketAddrs,
    spec: &str,
    base_seed: Option<u64>,
    capacities: &[u32],
    arrivals: I,
    batch: Option<usize>,
    mut on_event: impl FnMut(&ArrivalEvent),
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    if batch == Some(0) {
        return Err(AcmrError::InvalidRequest {
            reason: "batch size must be at least 1".to_string(),
        });
    }
    let client = ServeClient::connect(addr, spec, base_seed, capacities)?;
    replay_session(client, arrivals, batch, &mut on_event)
}

/// [`serve_trace`] over protocol v2. With `events: true` the replay
/// is synchronous and `on_event` sees every audited decision, exactly
/// like v1 (just on a cheaper wire). With `events: false` the replay
/// is **pipelined**: the whole trace streams out in `BATCH` frames
/// before any acknowledgement is read, each batch answers with one
/// [`BatchSummary`], and `on_event` is never called — the mode built
/// for throughput, where only the final report matters.
#[allow(clippy::too_many_arguments)]
pub fn serve_trace_v2<I>(
    addr: impl ToSocketAddrs,
    spec: &str,
    base_seed: Option<u64>,
    capacities: &[u32],
    arrivals: I,
    batch: Option<usize>,
    events: bool,
    mut on_event: impl FnMut(&ArrivalEvent),
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    if batch == Some(0) {
        return Err(AcmrError::InvalidRequest {
            reason: "batch size must be at least 1".to_string(),
        });
    }
    let mut client = ServeClient::connect_v2(addr, spec, base_seed, capacities, events)?;
    if events {
        return replay_session(client, arrivals, batch, &mut on_event);
    }
    run_job_v2(&mut client, arrivals, batch, false)
}

/// Drive an already-open session through a full arrival stream — the
/// replay half of [`serve_trace`], shared with the
/// [`crate::pool::WorkerPool`] v1 retry path (which must reconnect
/// and replay from the top, so connecting and replaying are separate
/// steps there). Works on any session that streams per-arrival
/// events: v1, or v2 with `events=on`.
pub(crate) fn replay_session<I>(
    mut client: ServeClient,
    arrivals: I,
    batch: Option<usize>,
    on_event: &mut dyn FnMut(&ArrivalEvent),
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    match batch {
        None => {
            for request in arrivals {
                on_event(&client.push(&request?)?);
            }
        }
        Some(n) => {
            let n = n.clamp(1, crate::protocol::MAX_BATCH);
            let mut chunk = Vec::with_capacity(n);
            let mut events = Vec::new();
            let mut flush =
                |client: &mut ServeClient, chunk: &mut Vec<Request>| -> Result<(), AcmrError> {
                    let result = client.push_batch_into(chunk, &mut events);
                    for event in &events {
                        on_event(event);
                    }
                    chunk.clear();
                    result
                };
            for request in arrivals {
                chunk.push(request?);
                if chunk.len() == n {
                    flush(&mut client, &mut chunk)?;
                }
            }
            if !chunk.is_empty() {
                flush(&mut client, &mut chunk)?;
            }
        }
    }
    client.finish()
}

/// Default batch size for the pipelined v2 replay when the caller did
/// not pick one: big enough to amortize frame headers, small enough
/// to keep summary frames (and the server's working set) reasonable.
const PIPELINE_BATCH: usize = 512;

/// Where a pipelined replay failed: at the arrival *source* (the
/// caller's error, surfaced raw) or on the *wire* (worth checking for
/// a pending server `ERR` before reporting).
enum StreamFail {
    Source(AcmrError),
    Wire(AcmrError),
}

/// Replay a whole job over an open v2 summary-mode session in **one
/// round trip**: stream every arrival as `BATCH` frames plus the
/// terminal `END` (all buffered, one flush), then read the
/// acknowledgements — the `RESET`'s `OK` first when `expect_reset_ok`
/// (the pool's persistent-session path queues the job behind a
/// [`ServeClient::write_reset`]), then one [`BatchSummary`] per
/// batch, then the final `REPORT`.
///
/// On any error the session is desynchronized and must be dropped,
/// not reused — the pool's whole-trace-retry contract already
/// guarantees a fresh session per attempt. A write failure usually
/// means the server already sent its terminal `ERR` and stopped
/// reading; that typed answer is preferred over the raw broken pipe.
pub(crate) fn run_job_v2<I>(
    client: &mut ServeClient,
    arrivals: I,
    batch: Option<usize>,
    expect_reset_ok: bool,
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    let n = batch.unwrap_or(PIPELINE_BATCH).clamp(1, MAX_BATCH);
    let mut batches = 0usize;
    let stream_all = |client: &mut ServeClient| -> Result<(), StreamFail> {
        let mut chunk = Vec::with_capacity(n);
        for request in arrivals {
            chunk.push(request.map_err(StreamFail::Source)?);
            if chunk.len() == n {
                client.write_batch_frame(&chunk).map_err(StreamFail::Wire)?;
                batches += 1;
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            client.write_batch_frame(&chunk).map_err(StreamFail::Wire)?;
            batches += 1;
        }
        client.write_end_frame().map_err(StreamFail::Wire)?;
        client.flush_writes().map_err(StreamFail::Wire)
    };
    match stream_all(client) {
        Ok(()) => {}
        Err(StreamFail::Source(e)) => return Err(e),
        Err(StreamFail::Wire(e)) => {
            if crate::pool::is_transport_error(&e) {
                if let Some(answer) = client.pending_error() {
                    return Err(answer);
                }
            }
            return Err(e);
        }
    }
    if expect_reset_ok {
        client.read_reset_ok()?;
    }
    for _ in 0..batches {
        client.read_batch_summary()?;
    }
    client.read_report_frame()
}
