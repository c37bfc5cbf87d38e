//! Plain-text trace format for admission instances — in-memory and
//! **streaming** (chunked, bounded-memory) readers and writers.
//!
//! Experiments persist generated instances so runs can be replayed and
//! diffed. The format is a deliberately simple line protocol (the
//! allowed dependency set has no serde *format* crate); the full
//! grammar, including the streaming chunk semantics, is specified in
//! `docs/TRACE_FORMAT.md`:
//!
//! ```text
//! ACMR-TRACE v1
//! edges 3
//! caps 2 2 1
//! requests 2
//! 1 0 1
//! 2.5 1 2
//! ```
//!
//! Request lines are `<cost> <edge>…`. Floats round-trip via Rust's
//! shortest-repr formatting, so write→read→write is idempotent.
//!
//! ## One parser, two shapes
//!
//! [`TraceReader`] is the real parser: it pulls bytes from any
//! [`std::io::Read`] in fixed-size chunks ([`CHUNK_SIZE`]), holds at
//! most one line in memory at a time (capped at [`MAX_LINE_BYTES`]),
//! and yields [`Request`]s one by one — so a trace far larger than RAM
//! streams through in bounded memory. The whole-string convenience
//! [`read_trace`] is a thin wrapper that drains a `TraceReader` over
//! the in-memory bytes, which is what guarantees the streamed and
//! in-memory paths accept byte-for-byte the same language.
//!
//! Malformed input yields a typed [`AcmrError::TraceParse`], from the
//! streaming reader and `read_trace` alike, carrying the 1-based line
//! number — never a panic (the `trace_fuzz` suite pins this under
//! byte-level corruption).
//!
//! Symmetrically, [`TraceWriter`] emits the format incrementally to
//! any [`std::io::Write`] — the generator side of streaming: traces
//! larger than memory can be produced request by request.
//! [`write_trace`] wraps it for in-memory use.

use acmr_core::{AcmrError, AdmissionInstance, Request};
use acmr_graph::{EdgeId, EdgeSet};
use std::io::{self, Read, Write};
use std::path::Path;

/// Bytes pulled from the underlying reader per refill.
pub const CHUNK_SIZE: usize = 64 * 1024;

/// Longest line the streaming reader accepts. The cap is what makes
/// memory *bounded* on adversarial input (a newline-free stream would
/// otherwise buffer without limit); at 16 MiB it is far above any line
/// the writer can produce for realistic footprints.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

fn err(line: usize, message: impl Into<String>) -> AcmrError {
    AcmrError::TraceParse {
        line,
        message: message.into(),
    }
}

/// Parse an `edges <m>` header line (1-based `line_no` for errors).
///
/// This and its siblings [`parse_caps_line`] / [`parse_request_line`]
/// are **the** grammar: [`TraceReader`] parses trace files through
/// them, and the `acmr-serve` wire protocol parses its handshake and
/// arrival frames through the same functions — so the socket and the
/// file speak byte-for-byte the same language.
pub fn parse_edges_line(line_no: usize, line: &str) -> Result<usize, AcmrError> {
    line.strip_prefix("edges ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| err(line_no, "expected `edges <m>`"))
}

/// Parse a `caps <c1> … <cm>` header line against the declared edge
/// count `m`: exactly `m` capacities, all ≥ 1.
pub fn parse_caps_line(line_no: usize, line: &str, m: usize) -> Result<Vec<u32>, AcmrError> {
    let caps_body = line
        .strip_prefix("caps")
        .ok_or_else(|| err(line_no, "expected `caps …`"))?;
    let capacities: Vec<u32> = caps_body
        .split_whitespace()
        .map(|t| t.parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|e| err(line_no, format!("bad capacity: {e}")))?;
    if capacities.len() != m {
        return Err(err(
            line_no,
            format!("expected {m} capacities, got {}", capacities.len()),
        ));
    }
    if capacities.contains(&0) {
        return Err(err(line_no, "capacities must be positive"));
    }
    Ok(capacities)
}

/// Parse one `<cost> <edge>…` request line against an edge universe of
/// `num_edges` edges: finite positive cost, at least one edge, every
/// edge id in range. The 1-based `line_no` is echoed in the error so a
/// multi-gigabyte trace (or a long-lived socket session) stays
/// debuggable.
pub fn parse_request_line(
    line_no: usize,
    line: &str,
    num_edges: usize,
) -> Result<Request, AcmrError> {
    let mut toks = line.split_whitespace();
    let cost: f64 = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(line_no, "missing cost"))?;
    if !(cost > 0.0 && cost.is_finite()) {
        return Err(err(line_no, format!("bad cost {cost}")));
    }
    let edges: Vec<EdgeId> = toks
        .map(|t| t.parse::<u32>().map(EdgeId))
        .collect::<Result<_, _>>()
        .map_err(|e| err(line_no, format!("bad edge id: {e}")))?;
    if edges.is_empty() {
        return Err(err(line_no, "request has no edges"));
    }
    if edges.iter().any(|e| e.index() >= num_edges) {
        return Err(err(line_no, "edge id out of range"));
    }
    Ok(Request::new(EdgeSet::new(edges), cost))
}

/// Write one `<cost> <edge>…` request line (newline included) — the
/// exact inverse of [`parse_request_line`], shared by [`TraceWriter`]
/// and the `acmr-serve` client so every producer emits the identical
/// bytes (costs in Rust's shortest round-trip `f64` repr).
pub fn write_request_line<W: Write>(sink: &mut W, r: &Request) -> io::Result<()> {
    write!(sink, "{}", r.cost)?;
    for e in r.footprint.iter() {
        write!(sink, " {}", e.0)?;
    }
    writeln!(sink)
}

/// Chunked line scanner: pulls [`CHUNK_SIZE`] bytes at a time from the
/// underlying reader and carves out `\n`-terminated lines, holding only
/// the unconsumed tail in memory (capped at a configurable line
/// length, so memory stays bounded on adversarial newline-free input).
///
/// Public because it is the one byte-level tokenizer for everything
/// that speaks the trace grammar: [`TraceReader`] runs trace files
/// through it, and `acmr-serve`'s `FrameReader` runs sockets through
/// it — one scanner, so a carving fix can never land on one side only.
pub struct LineScanner<R: Read> {
    inner: R,
    core: LineBuffer,
}

/// The pure, push-fed core of [`LineScanner`]: bytes go in via
/// [`LineBuffer::feed`] (or the zero-copy [`LineBuffer::fill_buf`] /
/// [`LineBuffer::truncate_fill`] pair), trimmed numbered lines come
/// out of [`LineBuffer::next_line`] — no reader, no I/O, no blocking.
///
/// This is the sans-I/O seam: [`LineScanner`] drives it from a
/// [`Read`] (files, blocking sockets), while `acmr-serve`'s reactor
/// drives it from nonblocking socket reads — one byte-level line
/// carver for every consumer of the trace grammar, so a carving fix
/// can never land on one side only. Semantics are exactly the
/// historical scanner's: `\n`-terminated lines, trimmed, 1-based
/// numbering, UTF-8 validation per line, the [`MAX_LINE_BYTES`]-style
/// cap enforced on any newline-free run, and a final unterminated
/// line yielded once EOF is signalled via [`LineBuffer::set_eof`].
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — compacted only right before more
    /// input lands, so carving lines out of a chunk is O(line), not
    /// O(chunk).
    start: usize,
    /// How far `buf` has already been searched for a newline, so a line
    /// spanning many refills is scanned once, not once per refill.
    scanned: usize,
    eof: bool,
    /// Lines yielded so far (so the next line is `line + 1`).
    line: usize,
    /// Longest accepted line; see [`MAX_LINE_BYTES`].
    max_line_bytes: usize,
}

impl LineBuffer {
    /// An empty buffer rejecting lines longer than `max_line_bytes`.
    pub fn new(max_line_bytes: usize) -> Self {
        LineBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            eof: false,
            line: 0,
            max_line_bytes,
        }
    }

    /// Lines yielded so far (the next line is `line_number() + 1`).
    pub fn line_number(&self) -> usize {
        self.line
    }

    /// Append input bytes (compacting the consumed prefix first).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Signal end of input: the next [`LineBuffer::next_line`] calls
    /// yield any final unterminated line, then `None` — which, with
    /// `is_eof()` true, means *exhausted* rather than *feed me more*.
    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    /// Whether end of input was signalled.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Zero-copy refill, step 1: compact, grow the buffer by `chunk`
    /// bytes, and return the writable tail for the caller to read
    /// into. Pair with [`LineBuffer::truncate_fill`].
    pub fn fill_buf(&mut self, chunk: usize) -> &mut [u8] {
        self.compact();
        let old_len = self.buf.len();
        self.buf.resize(old_len + chunk, 0);
        &mut self.buf[old_len..]
    }

    /// Zero-copy refill, step 2: drop the `unwritten` tail bytes the
    /// reader did not fill.
    pub fn truncate_fill(&mut self, unwritten: usize) {
        let new_len = self.buf.len() - unwritten;
        self.buf.truncate(new_len);
        self.scanned = self.scanned.min(new_len);
    }

    /// Whether [`LineBuffer::next_line`] can make progress without
    /// more input: a complete line is buffered, or EOF was signalled
    /// (final partial line / exhaustion). `Err` on an over-long
    /// newline-free run — the same typed cap error `next_line` raises.
    pub fn poll(&mut self) -> Result<bool, AcmrError> {
        debug_assert!(self.scanned >= self.start);
        if self.buf[self.scanned..].contains(&b'\n') {
            return Ok(true);
        }
        self.scanned = self.buf.len();
        if self.eof {
            return Ok(true);
        }
        if self.buf.len() - self.start > self.max_line_bytes {
            return Err(err(
                self.line + 1,
                format!("line exceeds {} bytes", self.max_line_bytes),
            ));
        }
        Ok(false)
    }

    /// The next line as `(1-based number, trimmed content)`, or `None`
    /// when no complete line is buffered (feed more input — unless
    /// [`LineBuffer::is_eof`], in which case the input is exhausted).
    /// The returned string borrows from the internal buffer — no
    /// allocation per line. Input that ends mid-line yields the
    /// partial line once EOF is signalled.
    pub fn next_line(&mut self) -> Result<Option<(usize, &str)>, AcmrError> {
        debug_assert!(self.scanned >= self.start);
        if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let (line_start, line_end) = (self.start, self.scanned + off);
            self.start = line_end + 1;
            self.scanned = self.start;
            return self.take_line(line_start, line_end);
        }
        self.scanned = self.buf.len();
        if self.eof {
            if self.start >= self.buf.len() {
                return Ok(None);
            }
            // Final line without a trailing newline.
            let (line_start, line_end) = (self.start, self.buf.len());
            self.start = line_end;
            return self.take_line(line_start, line_end);
        }
        if self.buf.len() - self.start > self.max_line_bytes {
            return Err(err(
                self.line + 1,
                format!("line exceeds {} bytes", self.max_line_bytes),
            ));
        }
        Ok(None)
    }

    /// Take the buffered-but-unconsumed tail bytes, leaving the buffer
    /// empty — the line→binary protocol-upgrade hook (see
    /// [`LineScanner::into_parts`]).
    pub fn take_rest(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.start);
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        rest
    }

    /// Drop everything already consumed so the buffer holds only the
    /// pending tail.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
    }

    fn take_line(&mut self, start: usize, end: usize) -> Result<Option<(usize, &str)>, AcmrError> {
        self.line += 1;
        let raw = std::str::from_utf8(&self.buf[start..end])
            .map_err(|_| err(self.line, "line is not valid UTF-8".to_string()))?;
        Ok(Some((self.line, raw.trim())))
    }
}

impl<R: Read> LineScanner<R> {
    /// Scan `inner` with the default [`MAX_LINE_BYTES`] cap.
    pub fn new(inner: R) -> Self {
        Self::with_max_line(inner, MAX_LINE_BYTES)
    }

    /// Scan `inner`, rejecting lines longer than `max_line_bytes`.
    pub fn with_max_line(inner: R, max_line_bytes: usize) -> Self {
        LineScanner {
            inner,
            core: LineBuffer::new(max_line_bytes),
        }
    }

    /// Lines yielded so far (the next line is `line_number() + 1`).
    pub fn line_number(&self) -> usize {
        self.core.line_number()
    }

    /// Dismantle the scanner into the bytes it has buffered but not
    /// yet yielded plus the inner reader — the protocol-upgrade hook:
    /// when a peer negotiates a binary framing mid-stream (the
    /// `ACMR-SERVE v2` `OPEN … proto=v2` handshake), any bytes the
    /// scanner read ahead of the last line belong to the *binary*
    /// stream and must be replayed in front of the raw reader, or a
    /// pipelining peer would lose its first frames.
    pub fn into_parts(mut self) -> (Vec<u8>, R) {
        (self.core.take_rest(), self.inner)
    }

    /// The next line as `(1-based number, trimmed content)`, or `None`
    /// at end of input. The returned string borrows from the scanner's
    /// buffer — no allocation per line. A source that ends mid-line
    /// yields the partial line once EOF is observed.
    pub fn next_line(&mut self) -> Result<Option<(usize, &str)>, AcmrError> {
        // The pull loop over the pure core: refill until the core can
        // carve a line (or report exhaustion) without more input.
        fn read_retrying<R: Read>(inner: &mut R, space: &mut [u8]) -> io::Result<usize> {
            loop {
                match inner.read(space) {
                    Ok(n) => return Ok(n),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        while !self.core.poll()? {
            match read_retrying(&mut self.inner, self.core.fill_buf(CHUNK_SIZE)) {
                Ok(n) => {
                    self.core.truncate_fill(CHUNK_SIZE - n);
                    if n == 0 {
                        self.core.set_eof();
                    }
                }
                Err(e) => {
                    self.core.truncate_fill(CHUNK_SIZE);
                    return Err(e.into());
                }
            }
        }
        self.core.next_line()
    }
}

/// Incremental, bounded-memory reader for the `ACMR-TRACE v1` format.
///
/// Construction parses the header (capacities and the declared request
/// count) from the first chunk(s); [`TraceReader::next_request`] then
/// yields one [`Request`] per call without ever materializing the
/// instance. As an [`Iterator`] of `Result<Request, AcmrError>` it
/// plugs directly into `acmr_core::Session::run_stream_batched`.
///
/// The reader validates everything the in-memory parser validates —
/// header shape, capacity count and positivity, cost positivity, edge
/// ranges, the declared request count, and the absence of trailing
/// content — and reports violations as [`AcmrError::TraceParse`] with
/// the offending 1-based line. A reader that returned an error is
/// poisoned: further calls repeat the error.
///
/// ```
/// use acmr_workloads::trace::TraceReader;
///
/// let text = "ACMR-TRACE v1\nedges 2\ncaps 1 1\nrequests 1\n2.5 0 1\n";
/// let mut reader = TraceReader::new(text.as_bytes()).unwrap();
/// assert_eq!(reader.capacities(), &[1, 1]);
/// assert_eq!(reader.declared_requests(), 1);
/// let request = reader.next_request().unwrap().unwrap();
/// assert_eq!(request.cost, 2.5);
/// assert!(reader.next_request().unwrap().is_none()); // clean EOF
/// ```
pub struct TraceReader<R: Read> {
    scan: LineScanner<R>,
    capacities: Vec<u32>,
    declared: usize,
    yielded: usize,
    /// Line number of the last line consumed (for truncation errors).
    last_line: usize,
    finished: bool,
    poison: Option<AcmrError>,
}

impl TraceReader<std::fs::File> {
    /// Open a trace file for streaming. I/O is chunked ([`CHUNK_SIZE`])
    /// by the reader itself; no buffering wrapper is needed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AcmrError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| AcmrError::Io {
            message: format!("cannot open trace {}: {e}", path.display()),
        })?;
        TraceReader::new(file)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap any byte source and parse the trace header.
    pub fn new(reader: R) -> Result<Self, AcmrError> {
        let mut scan = LineScanner::new(reader);
        let (ln, header) = scan.next_line()?.ok_or_else(|| err(0, "empty trace"))?;
        if header != "ACMR-TRACE v1" {
            return Err(err(ln, format!("bad header {header:?}")));
        }
        let (ln, edges_line) = scan
            .next_line()?
            .ok_or_else(|| err(ln, "missing edges line"))?;
        let m = parse_edges_line(ln, edges_line)?;
        let (ln, caps_line) = scan
            .next_line()?
            .ok_or_else(|| err(ln, "missing caps line"))?;
        let capacities = parse_caps_line(ln, caps_line, m)?;
        let (ln, reqs_line) = scan
            .next_line()?
            .ok_or_else(|| err(ln, "missing requests line"))?;
        let declared: usize = reqs_line
            .strip_prefix("requests ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(ln, "expected `requests <k>`"))?;
        Ok(TraceReader {
            scan,
            capacities,
            declared,
            yielded: 0,
            last_line: ln,
            finished: false,
            poison: None,
        })
    }

    /// Edge capacities from the header — what a `Session` over this
    /// stream must be built with.
    pub fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    /// Request count declared by the header. The body is still verified
    /// against it (a short stream is a truncation error, extra content
    /// a trailing-content error).
    pub fn declared_requests(&self) -> usize {
        self.declared
    }

    /// Requests yielded so far.
    pub fn requests_read(&self) -> usize {
        self.yielded
    }

    /// Pull the next request, `Ok(None)` at a *clean* end of trace
    /// (count verified, no trailing content). After any error the
    /// reader is poisoned and repeats that error.
    pub fn next_request(&mut self) -> Result<Option<Request>, AcmrError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        match self.next_request_inner() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poison = Some(e.clone());
                Err(e)
            }
        }
    }

    fn next_request_inner(&mut self) -> Result<Option<Request>, AcmrError> {
        if self.finished {
            return Ok(None);
        }
        if self.yielded == self.declared {
            // Body complete: only blank lines may remain.
            while let Some((ln, line)) = self.scan.next_line()? {
                if !line.is_empty() {
                    return Err(err(ln, format!("trailing content {line:?}")));
                }
            }
            self.finished = true;
            return Ok(None);
        }
        let num_edges = self.capacities.len();
        let (ln, line) = self
            .scan
            .next_line()?
            .ok_or_else(|| err(self.last_line, "truncated requests"))?;
        self.last_line = ln;
        let request = parse_request_line(ln, line, num_edges)?;
        self.yielded += 1;
        Ok(Some(request))
    }
}

impl<R: Read> std::fmt::Debug for TraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("edges", &self.capacities.len())
            .field("declared_requests", &self.declared)
            .field("requests_read", &self.yielded)
            .field("poisoned", &self.poison.is_some())
            .finish_non_exhaustive()
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Request, AcmrError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_request().transpose()
    }
}

impl<R: Read> acmr_core::RequestSource for TraceReader<R> {
    fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    fn declared_requests(&self) -> u64 {
        self.declared as u64
    }
}

/// Incremental writer for the `ACMR-TRACE v1` format: the generator
/// side of streaming. The header is written up front, then each
/// [`TraceWriter::push`] appends one request line — so a trace of any
/// size can be produced in bounded memory. Output is byte-identical to
/// [`write_trace`] (which is implemented on top of this).
///
/// [`TraceWriter::finish`] flushes and verifies that exactly the
/// declared number of requests was written, so a crashed generator
/// cannot silently leave a short (unreadable) trace behind.
pub struct TraceWriter<W: Write> {
    sink: W,
    declared: usize,
    written: usize,
}

impl<W: Write> TraceWriter<W> {
    /// Write the header for `requests` upcoming requests over the given
    /// capacities.
    pub fn new(mut sink: W, capacities: &[u32], requests: usize) -> io::Result<Self> {
        write!(sink, "ACMR-TRACE v1\nedges {}\ncaps", capacities.len())?;
        for &c in capacities {
            write!(sink, " {c}")?;
        }
        writeln!(sink, "\nrequests {requests}")?;
        Ok(TraceWriter {
            sink,
            declared: requests,
            written: 0,
        })
    }

    /// Append one request line.
    pub fn push(&mut self, r: &Request) -> io::Result<()> {
        if self.written == self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "trace declared {} requests; push overflows it",
                    self.declared
                ),
            ));
        }
        write_request_line(&mut self.sink, r)?;
        self.written += 1;
        Ok(())
    }

    /// Flush and return the sink, verifying the declared count.
    pub fn finish(mut self) -> io::Result<W> {
        if self.written != self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace declared {} requests but only {} were written",
                    self.declared, self.written
                ),
            ));
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Serialize an instance to the trace format (in-memory convenience
/// over [`TraceWriter`]).
pub fn write_trace(inst: &AdmissionInstance) -> String {
    let mut w = TraceWriter::new(Vec::new(), &inst.capacities, inst.requests.len())
        .expect("writing to a Vec cannot fail");
    for r in &inst.requests {
        w.push(r).expect("writing to a Vec cannot fail");
    }
    String::from_utf8(w.finish().expect("declared count matches"))
        .expect("trace output is always UTF-8")
}

/// Parse an instance from the trace format (in-memory convenience over
/// [`TraceReader`], so both paths accept exactly the same language).
pub fn read_trace(text: &str) -> Result<AdmissionInstance, AcmrError> {
    let mut reader = TraceReader::new(text.as_bytes())?;
    let mut inst = AdmissionInstance::from_capacities(reader.capacities().to_vec());
    while let Some(r) = reader.next_request()? {
        inst.push(r);
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial;

    #[test]
    fn roundtrip_identity() {
        let inst = adversarial::nested_intervals(8, 2, 2, 2);
        let text = write_trace(&inst);
        let back = read_trace(&text).unwrap();
        assert_eq!(back.capacities, inst.capacities);
        assert_eq!(back.requests, inst.requests);
        // Idempotent re-serialization.
        assert_eq!(write_trace(&back), text);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_trace("WRONG v9\n").is_err());
        assert!(read_trace("").is_err());
    }

    #[test]
    fn rejects_capacity_mismatch() {
        let e = read_trace("ACMR-TRACE v1\nedges 2\ncaps 1\nrequests 0\n").unwrap_err();
        assert!(matches!(e, AcmrError::TraceParse { line: 3, .. }), "{e}");
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(read_trace("ACMR-TRACE v1\nedges 1\ncaps 0\nrequests 0\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let text = "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 1\n1 5\n";
        let e = read_trace(text).unwrap_err();
        assert!(
            matches!(&e, AcmrError::TraceParse { message, .. } if message.contains("out of range")),
            "{e}"
        );
    }

    #[test]
    fn rejects_truncated_requests() {
        let text = "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 2\n1 0\n";
        assert!(read_trace(text).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let text = "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 0\nunexpected\n";
        assert!(read_trace(text).is_err());
    }

    #[test]
    fn float_costs_roundtrip() {
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        inst.push(Request::new(
            EdgeSet::singleton(acmr_graph::EdgeId(0)),
            0.1 + 0.2,
        ));
        let back = read_trace(&write_trace(&inst)).unwrap();
        assert_eq!(back.requests[0].cost, inst.requests[0].cost);
    }

    /// One-byte-at-a-time reader: the worst possible chunking, so any
    /// assumption about line boundaries falling inside one chunk fails.
    struct DribbleReader<'a>(&'a [u8]);
    impl Read for DribbleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn streaming_reader_matches_in_memory_parse() {
        let inst = adversarial::nested_intervals(8, 2, 2, 2);
        let text = write_trace(&inst);
        for chunked in [false, true] {
            let collect = |text: &str| -> AdmissionInstance {
                let mut reader: Box<dyn Iterator<Item = Result<Request, AcmrError>>> = if chunked {
                    Box::new(TraceReader::new(DribbleReader(text.as_bytes())).unwrap())
                } else {
                    Box::new(TraceReader::new(text.as_bytes()).unwrap())
                };
                let mut got = AdmissionInstance::from_capacities(inst.capacities.clone());
                for r in &mut reader {
                    got.push(r.unwrap());
                }
                got
            };
            let streamed = collect(&text);
            assert_eq!(streamed.capacities, inst.capacities);
            assert_eq!(streamed.requests, inst.requests);
        }
    }

    #[test]
    fn streaming_reader_reports_header_metadata() {
        let text = "ACMR-TRACE v1\nedges 3\ncaps 4 5 6\nrequests 2\n1 0\n2 1 2\n";
        let mut reader = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(reader.capacities(), &[4, 5, 6]);
        assert_eq!(reader.declared_requests(), 2);
        assert_eq!(reader.requests_read(), 0);
        reader.next_request().unwrap().unwrap();
        assert_eq!(reader.requests_read(), 1);
    }

    #[test]
    fn streaming_reader_poisons_after_error() {
        let text = "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 2\n1 0\nbad 0\n";
        let mut reader = TraceReader::new(text.as_bytes()).unwrap();
        assert!(reader.next_request().unwrap().is_some());
        let e1 = reader.next_request().unwrap_err();
        let e2 = reader.next_request().unwrap_err();
        assert_eq!(e1, e2, "poisoned reader must repeat its error");
        assert!(matches!(e1, AcmrError::TraceParse { line: 6, .. }));
    }

    #[test]
    fn streaming_reader_surfaces_io_errors() {
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "boom"))
            }
        }
        let e = TraceReader::new(FailingReader).unwrap_err();
        assert!(matches!(&e, AcmrError::Io { message } if message.contains("boom")));
        let e = TraceReader::open("/nonexistent/definitely-missing.trace").unwrap_err();
        assert!(matches!(&e, AcmrError::Io { message } if message.contains("missing.trace")));
    }

    #[test]
    fn final_line_without_newline_parses() {
        let text = "ACMR-TRACE v1\nedges 1\ncaps 2\nrequests 1\n1 0";
        let inst = read_trace(text).unwrap();
        assert_eq!(inst.requests.len(), 1);
    }

    #[test]
    fn trace_writer_enforces_declared_count() {
        let mut w = TraceWriter::new(Vec::new(), &[1], 2).unwrap();
        let r = Request::unit(EdgeSet::singleton(EdgeId(0)));
        w.push(&r).unwrap();
        // Short: finish refuses.
        assert!(w.finish().is_err());
        // Overflow: the extra push refuses.
        let mut w = TraceWriter::new(Vec::new(), &[1], 1).unwrap();
        w.push(&r).unwrap();
        assert!(w.push(&r).is_err());
        let bytes = w.finish().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "ACMR-TRACE v1\nedges 1\ncaps 1\nrequests 1\n1 0\n"
        );
    }

    #[test]
    fn shared_grammar_helpers_agree_with_reader() {
        // The standalone line parsers (shared with the serve wire
        // protocol) accept exactly what the reader accepts.
        assert_eq!(parse_edges_line(2, "edges 3").unwrap(), 3);
        assert!(parse_edges_line(2, "edges three").is_err());
        assert_eq!(parse_caps_line(3, "caps 1 2 3", 3).unwrap(), vec![1, 2, 3]);
        assert!(parse_caps_line(3, "caps 1 2", 3).is_err());
        assert!(parse_caps_line(3, "caps 0 2 3", 3).is_err());
        let r = parse_request_line(5, "2.5 0 1", 2).unwrap();
        assert_eq!(r.cost, 2.5);
        assert!(parse_request_line(5, "2.5 0 7", 2).is_err());
        assert!(parse_request_line(5, "nan 0", 2).is_err());
        // write_request_line is the exact inverse (newline included).
        let mut line = Vec::new();
        write_request_line(&mut line, &r).unwrap();
        assert_eq!(String::from_utf8(line).unwrap(), "2.5 0 1\n");
        // Line numbers thread through to the typed error.
        let e = parse_request_line(41, "bad", 2).unwrap_err();
        assert!(matches!(e, AcmrError::TraceParse { line: 41, .. }), "{e}");
    }

    #[test]
    fn error_display_points_at_format_spec() {
        let e = read_trace("nope").unwrap_err();
        assert!(matches!(e, AcmrError::TraceParse { line: 1, .. }), "{e}");
        assert!(e.to_string().contains("docs/TRACE_FORMAT.md"), "{e}");
    }
}
