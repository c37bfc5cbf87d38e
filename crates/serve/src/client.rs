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
//!
//! The two dialects differ only in framing, and the client keeps that
//! difference in two places: the write half turns each step (one
//! arrival, a batch, `END`, `STATS`) into the dialect's line or frame,
//! and the one reply reader turns a line or a frame back into a reply
//! of the expected kind — decoding `ERR` into the server's typed error
//! in both dialects alike. [`ServeClient::push`], `push_batch_into`,
//! `stats`, `end_session` and [`fetch_stats`] are each one write and
//! one read. An `EVENT` body is parsed by the direct codec
//! [`crate::protocol::decode_event`], which accepts exactly the form
//! the server writes; `serde_json` reads only `REPORT` and `STATS`.

use crate::protocol::{
    decode_error_reply, decode_event, decode_ok, decode_summary, encode_reset, write_frame,
    BatchSummary, BinFrameReader, FrameReader, ProtoVersion, ReplyKind, StatsReport, EVENTS_TOKEN,
    FRAME_BATCH, FRAME_END, FRAME_REQ, FRAME_RESET, FRAME_STATS, GREETING, MAX_BATCH,
    PROTO_V2_TOKEN,
};
use acmr_core::{AcmrError, ArrivalEvent, Request, RunReport};
use acmr_workloads::binfmt::{encode_record_into, AnyTraceReader, BinMapReader};
use acmr_workloads::trace::{write_request_line, TraceReader};
use serde::de::DeserializeOwned;
use std::io::{BufWriter, Chain, Cursor, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// The read half of a connection: v1 lines, or — after a `proto=v2`
/// handshake — binary frames (chained after any bytes the line
/// scanner had already buffered past the `OK` reply).
enum ReadHalf {
    Lines(FrameReader<TcpStream>),
    Frames(BinFrameReader<Chain<Cursor<Vec<u8>>, TcpStream>>),
}

/// Every reply the server sends is read here, in either dialect.
struct Replies {
    read: ReadHalf,
    /// The last reply's body: the text after a v1 keyword, or a v2
    /// frame's payload. Reused across replies.
    body: Vec<u8>,
}

impl Replies {
    /// Read the next reply into `self.body` and return its kind. An
    /// `ERR` reply decodes to the server's typed error; a closed
    /// connection or a reply outside the grammar is a client-side
    /// `proto` error (the server vanished or spoke garbage), so the
    /// pool's retry classification stays exact.
    fn next(&mut self) -> Result<ReplyKind, AcmrError> {
        let kind = match &mut self.read {
            ReadHalf::Lines(lines) => {
                let (_, line) = lines.next_line_str()?.ok_or_else(closed)?;
                let (keyword, body) = line.split_once(' ').unwrap_or((line, ""));
                self.body.clear();
                self.body.extend_from_slice(body.trim_start().as_bytes());
                ReplyKind::from_keyword(keyword)
                    .ok_or_else(|| proto_error(format!("unexpected reply {line:?}")))?
            }
            ReadHalf::Frames(frames) => {
                let ty = match frames.read_frame(&mut self.body) {
                    Ok(Some(ty)) => ty,
                    Ok(None) => return Err(closed()),
                    Err(AcmrError::TraceParse { message, .. }) => {
                        return Err(proto_error(format!("malformed reply frame: {message}")))
                    }
                    Err(e) => return Err(e),
                };
                ReplyKind::from_frame_type(ty)
                    .ok_or_else(|| proto_error(format!("unexpected reply frame type 0x{ty:02x}")))?
            }
        };
        if kind == ReplyKind::Err {
            return Err(decode_error_reply(&String::from_utf8_lossy(&self.body)));
        }
        Ok(kind)
    }

    /// Read the next reply, which must be a `want`; returns its body.
    fn expect(&mut self, want: ReplyKind) -> Result<&[u8], AcmrError> {
        let got = self.next()?;
        if got != want {
            return Err(proto_error(format!(
                "expected a {} reply, got {}",
                want.keyword(),
                got.keyword()
            )));
        }
        Ok(&self.body)
    }

    /// An `EVENT` reply, through the direct codec.
    fn event(&mut self) -> Result<ArrivalEvent, AcmrError> {
        decode_event(self.expect(ReplyKind::Event)?)
    }

    /// A `REPORT` or `STATS` reply: a JSON body.
    fn json<T: DeserializeOwned>(&mut self, want: ReplyKind) -> Result<T, AcmrError> {
        let malformed =
            |e: &dyn std::fmt::Display| proto_error(format!("malformed {}: {e}", want.keyword()));
        let body = std::str::from_utf8(self.expect(want)?).map_err(|e| malformed(&e))?;
        serde_json::from_str(body).map_err(|e| malformed(&e))
    }

    fn summary(&mut self) -> Result<BatchSummary, AcmrError> {
        decode_summary(self.expect(ReplyKind::Summary)?)
    }

    /// An `OK` reply: the session id, the canonical spec (empty if a
    /// v1 line omits it), and whether a v1 line acknowledged
    /// `proto=v2`.
    fn ok(&mut self) -> Result<(u64, String, bool), AcmrError> {
        let frames = matches!(self.read, ReadHalf::Frames(_));
        let body = self.expect(ReplyKind::Ok)?;
        if frames {
            let (id, spec) = decode_ok(body)?;
            return Ok((id, spec, false));
        }
        let text = String::from_utf8_lossy(body);
        let mut toks = text.split_whitespace();
        let id = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| proto_error(format!("malformed OK reply {text:?}")))?;
        let spec = toks.next().unwrap_or_default().to_string();
        Ok((id, spec, toks.any(|t| t == PROTO_V2_TOKEN)))
    }
}

/// One client step, written in the session's dialect by
/// [`ServeClient::write`].
enum Step<'a> {
    Arrival(&'a Request),
    Batch(&'a [Request]),
    /// `count` arrivals already in the wire's record encoding: a
    /// binary trace's own bytes, checked by
    /// [`BinMapReader::next_records`]. v2 only.
    Records {
        count: usize,
        bytes: &'a [u8],
    },
    End,
    Stats,
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
    replies: Replies,
    writer: BufWriter<TcpStream>,
    session_id: u64,
    spec: String,
    /// v2 only: the session streams per-arrival `EVENT` frames for
    /// batches (`events=on`) instead of one `SUMMARY` per batch.
    events: bool,
    /// v2 only: edge-universe size, needed to encode arrival records.
    num_edges: u32,
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
        ServeClient::open(stream, spec, base_seed, capacities, ProtoVersion::V1, false)
    }

    /// [`ServeClient::connect`] negotiating protocol v2: binary
    /// frames, record-byte arrivals, batch-summary acknowledgements
    /// (per-arrival events with `events: true`), and
    /// [`ServeClient::reset`] for session reuse. A server without v2
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
        ServeClient::open(
            stream,
            spec,
            base_seed,
            capacities,
            ProtoVersion::V2,
            events,
        )
    }

    /// The one handshake implementation, over an already-established
    /// TCP stream: greeting, `OPEN` (with the v2 negotiation tokens
    /// when asked), `edges`/`caps`, `OK` — then, for v2, the switch to
    /// binary frames. [`crate::pool::WorkerPool`] owns the
    /// `TcpStream::connect` step itself, so a *connection* failure
    /// (the worker process is gone — quarantine the slot) stays
    /// structurally distinct from a handshake or session failure
    /// (maybe transient — retry elsewhere).
    pub(crate) fn open(
        stream: TcpStream,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
        proto: ProtoVersion,
        events: bool,
    ) -> Result<Self, AcmrError> {
        let (mut replies, mut writer) = greet(stream)?;
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

        let (session_id, echoed, upgraded) = replies.ok()?;
        if proto == ProtoVersion::V2 {
            if !upgraded {
                return Err(proto_error(format!(
                    "server accepted the session but did not acknowledge {PROTO_V2_TOKEN} \
                     (reply \"OK {session_id} {echoed}\")"
                )));
            }
            let ReadHalf::Lines(lines) = replies.read else {
                unreachable!("the handshake reads lines");
            };
            let (rest, stream) = lines.into_binary();
            replies.read = ReadHalf::Frames(BinFrameReader::with_rest(rest, stream));
        }
        Ok(ServeClient {
            replies,
            writer,
            session_id,
            spec: if echoed.is_empty() {
                spec.to_string()
            } else {
                echoed
            },
            events,
            num_edges: capacities.len() as u32,
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
        match self.replies.read {
            ReadHalf::Lines(_) => ProtoVersion::V1,
            ReadHalf::Frames(_) => ProtoVersion::V2,
        }
    }

    /// Send one arrival and wait for its audited decision — the remote
    /// twin of [`acmr_core::Session::push`]. Single arrivals stream an
    /// `EVENT` in both protocols and both v2 acknowledgement modes.
    pub fn push(&mut self, request: &Request) -> Result<ArrivalEvent, AcmrError> {
        self.send(Step::Arrival(request))?;
        self.replies.event()
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
        if self.proto() == ProtoVersion::V2 && !self.events {
            return Err(proto_error(
                "this v2 session negotiated summary acknowledgements; \
                 use push_batch_summary (or connect with events=on)"
                    .into(),
            ));
        }
        self.send(Step::Batch(batch))?;
        events.reserve(batch.len());
        for _ in 0..batch.len() {
            events.push(self.replies.event()?);
        }
        Ok(())
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
        match (self.proto(), self.events) {
            (ProtoVersion::V1, _) => Err(proto_error(
                "push_batch_summary needs a proto=v2 session (v1 streams events)".into(),
            )),
            (ProtoVersion::V2, true) => Err(proto_error(
                "this v2 session negotiated events=on; use push_batch_into".into(),
            )),
            (ProtoVersion::V2, false) => {
                self.send(Step::Batch(batch))?;
                self.replies.summary()
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
        self.send(Step::Stats)?;
        self.replies.json(ReplyKind::Stats)
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
        self.send(Step::End)?;
        self.replies.json(ReplyKind::Report)
    }

    // ---- write half (buffered; pipelined callers flush once) ----

    /// Queue one step as the session's dialect spells it: a request
    /// line, `BATCH <n>` and its lines, `END` or `STATS` in v1; a
    /// `REQ`, `BATCH` (of requests or of forwarded records), `END` or
    /// `STATS` frame in v2. Buffered — does not flush.
    fn write(&mut self, step: Step<'_>) -> Result<(), AcmrError> {
        let proto = self.proto();
        let w = &mut self.writer;
        match (proto, step) {
            (ProtoVersion::V1, Step::Arrival(request)) => write_request_line(w, request)?,
            (ProtoVersion::V1, Step::Batch(batch)) => {
                writeln!(w, "BATCH {}", batch.len())?;
                for request in batch {
                    write_request_line(w, request)?;
                }
            }
            (ProtoVersion::V1, Step::Records { .. }) => {
                return Err(AcmrError::InvalidRequest {
                    reason: "binary trace records travel only in v2 BATCH frames".into(),
                })
            }
            (ProtoVersion::V1, Step::End) => writeln!(w, "END")?,
            (ProtoVersion::V1, Step::Stats) => writeln!(w, "STATS")?,
            (ProtoVersion::V2, Step::Arrival(request)) => {
                self.out.clear();
                encode_record_into(&mut self.out, request, self.num_edges)
                    .map_err(invalid_request)?;
                write_frame(w, FRAME_REQ, &self.out)?;
            }
            (ProtoVersion::V2, Step::Batch(batch)) => {
                batch_header(&mut self.out, batch.len())?;
                for request in batch {
                    encode_record_into(&mut self.out, request, self.num_edges)
                        .map_err(invalid_request)?;
                }
                write_frame(w, FRAME_BATCH, &self.out)?;
            }
            (ProtoVersion::V2, Step::Records { count, bytes }) => {
                batch_header(&mut self.out, count)?;
                self.out.extend_from_slice(bytes);
                write_frame(w, FRAME_BATCH, &self.out)?;
            }
            (ProtoVersion::V2, Step::End) => write_frame(w, FRAME_END, &[])?,
            (ProtoVersion::V2, Step::Stats) => write_frame(w, FRAME_STATS, &[])?,
        }
        Ok(())
    }

    /// [`ServeClient::write`], then flush.
    fn send(&mut self, step: Step<'_>) -> Result<(), AcmrError> {
        self.write(step)?;
        self.flush_writes()
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
        if self.proto() != ProtoVersion::V2 {
            return Err(proto_error("RESET needs a proto=v2 session".into()));
        }
        self.out.clear();
        encode_reset(&mut self.out, spec, base_seed, capacities);
        write_frame(&mut self.writer, FRAME_RESET, &self.out)?;
        if !capacities.is_empty() {
            self.num_edges = capacities.len() as u32;
        }
        Ok(())
    }

    /// Flush everything queued so far to the socket.
    fn flush_writes(&mut self) -> Result<(), AcmrError> {
        self.writer.flush()?;
        Ok(())
    }

    // ---- read half: every reply through `Replies` ----

    /// Read the `OK` answering a `RESET`; updates (and returns) the
    /// session id and re-reads the canonical spec.
    fn read_reset_ok(&mut self) -> Result<u64, AcmrError> {
        let (id, spec, _) = self.replies.ok()?;
        self.session_id = id;
        self.spec = spec;
        Ok(id)
    }

    /// After a failed *write*: try to read one reply, hoping for the
    /// server's terminal `ERR` (a server that rejects a frame stops
    /// reading, which is what made our write fail). `Some` for a
    /// remote-coded answer: the server's `ERR`, or the `proto` error
    /// of a connection closed without one; `None` for an I/O failure
    /// or an ordinary reply, and the caller's transport error stands.
    fn pending_error(&mut self) -> Option<AcmrError> {
        match self.replies.next() {
            Err(e @ AcmrError::Remote { .. }) => Some(e),
            _ => None,
        }
    }
}

/// Probe a serving endpoint for its counters without opening a
/// session: connect, read the greeting, send one `STATS` line, decode
/// the [`StatsReport`] reply — what `acmr stats --addr` (and `acmr
/// client --stats`) runs. The connection carries nothing else, so the
/// `connection` half of the report reflects only the probe itself;
/// the `server` half is the interesting part.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> Result<StatsReport, AcmrError> {
    let (mut replies, mut writer) = greet(connect_stream(addr)?)?;
    writeln!(writer, "STATS")?;
    writer.flush()?;
    replies.json(ReplyKind::Stats)
}

/// Split a fresh connection into its reply reader and buffered writer,
/// and check the server's greeting.
fn greet(stream: TcpStream) -> Result<(Replies, BufWriter<TcpStream>), AcmrError> {
    // Frames are small and latency-bound; Nagle would trade the
    // per-decision round trip for nothing.
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone().map_err(|e| AcmrError::Io {
        message: format!("cannot clone socket: {e}"),
    })?;
    let mut lines = FrameReader::new(stream);
    let (_, greeting) = lines.next_line_str()?.ok_or_else(closed)?;
    if greeting != GREETING {
        return Err(proto_error(format!(
            "unexpected greeting {greeting:?} (expected {GREETING:?})"
        )));
    }
    let replies = Replies {
        read: ReadHalf::Lines(lines),
        body: Vec::new(),
    };
    Ok((replies, BufWriter::new(write_half)))
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

/// The protocol always ends with `REPORT` or `ERR`, never a silent
/// EOF.
fn closed() -> AcmrError {
    proto_error("server closed the connection without a reply".into())
}

fn invalid_request(e: std::io::Error) -> AcmrError {
    AcmrError::InvalidRequest {
        reason: e.to_string(),
    }
}

/// Start a v2 `BATCH` payload of `count` arrivals in `out`: its count
/// header, once the count is checked against the frame cap.
fn batch_header(out: &mut Vec<u8>, count: usize) -> Result<(), AcmrError> {
    if count > MAX_BATCH {
        return Err(AcmrError::InvalidRequest {
            reason: format!("BATCH {count} exceeds the {MAX_BATCH}-request frame cap"),
        });
    }
    out.clear();
    out.extend_from_slice(&(count as u32).to_le_bytes());
    Ok(())
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
/// for throughput, where only the final report matters. There, a
/// binary trace's records go out as they are
/// ([`JobArrivals::records`]), as in a cluster job.
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
    I::IntoIter: JobArrivals,
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
    run_job_v2(&mut client, arrivals.into_iter(), batch, false)
}

/// Drive an already-open session through a full arrival stream, one
/// event per arrival — the replay half of [`serve_trace`] and of
/// [`serve_trace_v2`] with `events: true`. Works on any session that
/// streams per-arrival events: v1, or v2 with `events=on`.
fn replay_session<I>(
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

/// A job's arrival stream, as [`crate::WorkerPool::run_job`] replays
/// it: a fallible request iterator that may also hand over the binary
/// trace cursor behind it. A v2 job forwards such a trace's records
/// onto the wire as they are, since a `BATCH` payload is the trace's
/// own record bytes; every other stream is encoded request by request.
/// Implemented for [`AnyTraceReader`], text [`TraceReader`]s, mapped
/// iterators and boxed streams.
pub trait JobArrivals: Iterator<Item = Result<Request, AcmrError>> {
    /// The binary trace cursor this stream reads, if any.
    fn records(&mut self) -> Option<&mut BinMapReader> {
        None
    }
}

impl JobArrivals for AnyTraceReader {
    fn records(&mut self) -> Option<&mut BinMapReader> {
        match self {
            AnyTraceReader::Binary(reader) => Some(reader),
            AnyTraceReader::Text(_) => None,
        }
    }
}

impl<R: Read> JobArrivals for TraceReader<R> {}

impl<I: Iterator, F: FnMut(I::Item) -> Result<Request, AcmrError>> JobArrivals
    for std::iter::Map<I, F>
{
}

impl<J: JobArrivals + ?Sized> JobArrivals for Box<J> {
    fn records(&mut self) -> Option<&mut BinMapReader> {
        (**self).records()
    }
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
/// batch, then the final `REPORT`. A binary trace's records go out
/// as they are ([`JobArrivals::records`]): the same frames the
/// per-request encoder would build, and the same source errors.
///
/// On any error the session is desynchronized and must be dropped,
/// not reused — the pool's whole-trace-retry contract already
/// guarantees a fresh session per attempt. A write failure usually
/// means the server already sent its terminal `ERR` and stopped
/// reading; that typed answer is preferred over the raw broken pipe.
pub(crate) fn run_job_v2(
    client: &mut ServeClient,
    mut arrivals: impl JobArrivals,
    batch: Option<usize>,
    expect_reset_ok: bool,
) -> Result<RunReport, AcmrError> {
    let n = batch.unwrap_or(PIPELINE_BATCH).clamp(1, MAX_BATCH);
    let mut batches = 0usize;
    let stream_all = |client: &mut ServeClient| -> Result<(), StreamFail> {
        if let Some(reader) = arrivals.records() {
            loop {
                let (records, count) = reader.next_records(n).map_err(StreamFail::Source)?;
                if count == 0 {
                    break;
                }
                client
                    .write(Step::Records {
                        count,
                        bytes: records,
                    })
                    .map_err(StreamFail::Wire)?;
                batches += 1;
            }
        } else {
            let mut chunk = Vec::with_capacity(n);
            for request in arrivals {
                chunk.push(request.map_err(StreamFail::Source)?);
                if chunk.len() == n {
                    client
                        .write(Step::Batch(&chunk))
                        .map_err(StreamFail::Wire)?;
                    batches += 1;
                    chunk.clear();
                }
            }
            if !chunk.is_empty() {
                client
                    .write(Step::Batch(&chunk))
                    .map_err(StreamFail::Wire)?;
                batches += 1;
            }
        }
        client.write(Step::End).map_err(StreamFail::Wire)?;
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
        client.replies.summary()?;
    }
    client.replies.json(ReplyKind::Report)
}
