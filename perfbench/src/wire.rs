//! The load generator's two wire arms over protocol v2.
//!
//! * [`PipeClient`] — pipelined summary-mode replay over one persistent
//!   connection: a synchronous `RESET` opens each session, then every
//!   `BATCH` frame and the `END` frame go out before any reply is read
//!   (the `serve_trace_v2` summary-mode shape), then one `SUMMARY` per
//!   batch and the `REPORT`. The timed window runs from the first
//!   `BATCH` byte written to the last `SUMMARY` read.
//! * [`rtt_session`] — one round trip per arrival through
//!   `ServeClient::push`.
//!
//! Pipelining caution: the client reads nothing until it has written
//! the whole session, so the server's unread replies must fit in the
//! socket buffers, or the server stalls at its write-backpressure mark
//! while the client stalls writing. [`max_pipelined_arrivals`] bounds a
//! session so its summaries stay under [`UNREAD_REPLY_BUDGET`].

use crate::gen::TraceFile;
use crate::spans::Tracer;
use acmr_core::{AcmrError, Request, RequestSource, RunReport};
use acmr_serve::protocol::{
    decode_error_reply, decode_ok, decode_summary, encode_reset, write_frame, BinFrameReader,
    FrameReader, FRAME_BATCH, FRAME_END, FRAME_ERR, FRAME_OK, FRAME_REPORT, FRAME_RESET,
    FRAME_SUMMARY, GREETING, PROTO_V2_TOKEN,
};
use acmr_serve::ServeClient;
use acmr_workloads::{encode_record_into, open_trace};
use std::io::{BufWriter, Chain, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Arrivals per `BATCH` frame on the pipelined arms.
pub const BATCH: usize = 512;

/// Bytes of one `SUMMARY` reply frame: type, `u32` length, 28-byte
/// payload.
const SUMMARY_FRAME_BYTES: usize = 1 + 4 + 28;

/// Unread reply bytes a pipelined session may leave queued: well under
/// the smallest default loopback receive buffer (128 KiB) and the
/// server's 1 MiB write-backpressure mark.
pub const UNREAD_REPLY_BUDGET: usize = 64 << 10;

/// Longest pipelined session whose unread summaries fit the budget.
pub fn max_pipelined_arrivals() -> usize {
    UNREAD_REPLY_BUDGET / SUMMARY_FRAME_BYTES * BATCH
}

fn proto_error(message: String) -> AcmrError {
    AcmrError::Remote {
        code: "proto".into(),
        message,
    }
}

/// One pipelined session's outcome.
pub struct Replay {
    pub arrivals: u64,
    /// First `BATCH` byte written to last `SUMMARY` read.
    pub secs: f64,
    pub report: RunReport,
}

/// A persistent protocol-v2 connection in summary mode.
pub struct PipeClient {
    frames: BinFrameReader<Chain<Cursor<Vec<u8>>, TcpStream>>,
    writer: BufWriter<TcpStream>,
    payload: Vec<u8>,
    out: Vec<u8>,
}

impl PipeClient {
    /// Connect and complete the v2 handshake with a placeholder
    /// `greedy` session over `capacities`; every replay then starts a
    /// fresh session with `RESET`.
    pub fn connect(addr: SocketAddr, capacities: &[u32]) -> Result<PipeClient, AcmrError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = BufWriter::with_capacity(1 << 16, stream.try_clone()?);
        let mut lines = FrameReader::new(stream);
        let greeting = lines.next_line()?.map(|(_, l)| l).unwrap_or_default();
        if greeting != GREETING {
            return Err(proto_error(format!("unexpected greeting {greeting:?}")));
        }
        write!(
            writer,
            "OPEN greedy {PROTO_V2_TOKEN}\nedges {}\ncaps",
            capacities.len()
        )?;
        for c in capacities {
            write!(writer, " {c}")?;
        }
        writeln!(writer)?;
        writer.flush()?;
        let ok = lines.next_line()?.map(|(_, l)| l).unwrap_or_default();
        if !ok.starts_with("OK ") || !ok.split_whitespace().any(|t| t == PROTO_V2_TOKEN) {
            return Err(proto_error(format!("v2 handshake refused: {ok:?}")));
        }
        let (rest, stream) = lines.into_binary();
        Ok(PipeClient {
            frames: BinFrameReader::with_rest(rest, stream),
            writer,
            payload: Vec::new(),
            out: Vec::new(),
        })
    }

    fn expect(&mut self, want: u8) -> Result<(), AcmrError> {
        match self.frames.read_frame(&mut self.payload)? {
            Some(ty) if ty == want => Ok(()),
            Some(FRAME_ERR) => Err(decode_error_reply(&String::from_utf8_lossy(&self.payload))),
            Some(ty) => Err(proto_error(format!(
                "expected frame 0x{want:02x}, got 0x{ty:02x}"
            ))),
            None => Err(proto_error("server closed the connection".into())),
        }
    }

    /// Open a fresh session (synchronously, outside any timed window).
    pub fn reset(&mut self, spec: &str, seed: u64, capacities: &[u32]) -> Result<(), AcmrError> {
        self.out.clear();
        encode_reset(&mut self.out, spec, Some(seed), capacities);
        write_frame(&mut self.writer, FRAME_RESET, &self.out)?;
        self.writer.flush()?;
        self.expect(FRAME_OK)?;
        decode_ok(&self.payload)?;
        Ok(())
    }

    /// Replay `trace` under `spec` as one pipelined session. With a
    /// tracer, the client's decode, encode, write and read steps are
    /// recorded as spans of unit `unit` (the batch loop then decodes a
    /// whole batch before encoding it, so the two steps are separable).
    pub fn replay(
        &mut self,
        spec: &str,
        seed: u64,
        trace: &TraceFile,
        mut tracer: Option<&mut Tracer>,
        unit: u64,
    ) -> Result<Replay, AcmrError> {
        assert!(
            trace.requests <= max_pipelined_arrivals(),
            "a pipelined session of {} arrivals could stall on unread summaries",
            trace.requests
        );
        self.reset(spec, seed, &trace.capacities)?;
        let mut reader = open_trace(&trace.path)?;
        let num_edges = reader.capacities().len() as u32;
        let mut batch: Vec<Request> = Vec::with_capacity(BATCH);
        let mut batches = 0usize;
        let mut sent = 0u64;

        let t0 = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("client.replay", None, unit));
        loop {
            self.out.clear();
            self.out.extend_from_slice(&[0; 4]);
            let mut n = 0u32;
            if let Some(t) = tracer.as_deref_mut() {
                batch.clear();
                t.time("client.decode", root, unit, || {
                    while batch.len() < BATCH {
                        match reader.next_request() {
                            Ok(Some(r)) => batch.push(r),
                            Ok(None) => break,
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(())
                })?;
                let out = &mut self.out;
                t.time("client.encode", root, unit, || {
                    batch
                        .iter()
                        .try_for_each(|r| encode_record_into(out, r, num_edges))
                })?;
                n = batch.len() as u32;
            } else {
                while (n as usize) < BATCH {
                    let Some(r) = reader.next_request()? else {
                        break;
                    };
                    encode_record_into(&mut self.out, &r, num_edges)?;
                    n += 1;
                }
            }
            if n == 0 {
                break;
            }
            self.out[..4].copy_from_slice(&n.to_le_bytes());
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("client.write", root, unit));
            write_frame(&mut self.writer, FRAME_BATCH, &self.out)?;
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.close(s);
            }
            batches += 1;
            sent += u64::from(n);
            if (n as usize) < BATCH {
                break;
            }
        }
        write_frame(&mut self.writer, FRAME_END, &[])?;
        self.writer.flush()?;

        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("client.await_summaries", root, unit));
        let mut acked = 0u64;
        let mut total_rejected = 0.0;
        for _ in 0..batches {
            self.expect(FRAME_SUMMARY)?;
            let s = decode_summary(&self.payload)?;
            acked += u64::from(s.n);
            total_rejected = s.total_rejected_cost;
        }
        let secs = t0.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.close(span.expect("opened with the tracer"));
            t.close(root.expect("opened with the tracer"));
        }

        self.expect(FRAME_REPORT)?;
        let report: RunReport = std::str::from_utf8(&self.payload)
            .ok()
            .and_then(|json| serde_json::from_str(json).ok())
            .ok_or_else(|| proto_error("malformed REPORT frame".into()))?;
        if acked != sent || total_rejected.to_bits() != report.rejected_cost.to_bits() {
            return Err(proto_error(format!(
                "summaries acknowledged {acked} of {sent} arrivals (objective {total_rejected} \
                 vs report {})",
                report.rejected_cost
            )));
        }
        Ok(Replay {
            arrivals: sent,
            secs,
            report,
        })
    }
}

/// One single-frame session: push every arrival of `trace` (at most
/// `limit`) and wait for each decision, appending each round trip's
/// nanoseconds to `samples`. The session must already be open on
/// `client`; it is ended here and its report returned.
pub fn rtt_session(
    client: &mut ServeClient,
    trace: &TraceFile,
    limit: usize,
    samples: &mut Vec<u64>,
    mut tracer: Option<&mut Tracer>,
    unit: u64,
) -> Result<RunReport, AcmrError> {
    let reader = open_trace(&trace.path)?;
    for (i, request) in reader.take(limit).enumerate() {
        let request = request?;
        let t = Instant::now();
        client.push(&request)?;
        let end = Instant::now();
        samples.push((end - t).as_nanos() as u64);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("client.push", t, end, None, unit << 32 | i as u64);
        }
    }
    client.end_session()
}
