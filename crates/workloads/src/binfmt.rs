//! `ACMR-TRACE v2` — the binary, mmap-able trace format: writer,
//! streaming reader, zero-copy mapped reader, and format sniffing.
//!
//! The plain-text v1 format ([`crate::trace`]) is greppable and
//! diffable, but parsing it is the measured ingestion ceiling
//! (`BENCH_streaming.json`). v2 stores the same instances as
//! fixed-layout little-endian records that replay with no float
//! parsing, no UTF-8 validation, and — through [`BinTraceMap`] — no
//! copying: requests are decoded straight out of an `mmap(2)`ed file.
//! Full layout spec: `docs/TRACE_FORMAT.md` (§ `ACMR-TRACE v2`).
//!
//! ```text
//! header  := magic "ACMRTRCB" (8 bytes)
//!            version u32 = 2
//!            edges   u32 = m
//!            caps    u32 × m        (each ≥ 1)
//!            requests u64 = n
//! record  := cost f64 (raw IEEE-754 bits)
//!            k    u16 ≥ 1
//!            edge u32 × k           (strictly increasing, < m)
//! ```
//!
//! All integers and the cost are little-endian. Costs round-trip
//! **bit-exactly** (the text format's shortest-repr decimal also
//! round-trips, so text ↔ binary conversion is lossless in both
//! directions). Footprints are stored in [`EdgeSet`] canonical order —
//! sorted, deduplicated — so encoding is bijective: re-encoding a
//! decoded trace reproduces the input byte for byte.
//!
//! Errors are [`AcmrError::TraceParse`] like the text reader's, with
//! one convention shift: `line` carries the **1-based record index**
//! (0 for header errors) instead of a line number — binary traces have
//! no lines. Malformed input never panics and never reads out of
//! bounds; the `binfmt_fuzz` suite pins this under byte-level
//! corruption and truncation.
//!
//! Readers implement [`RequestSource`], so they plug into
//! `Session::run_stream_batched` and the harness's two-pass report
//! path exactly like the text [`TraceReader`] — [`open_trace`] sniffs the leading
//! magic and returns whichever reader the file calls for.

use crate::trace::{TraceReader, CHUNK_SIZE};
use acmr_core::{AcmrError, AdmissionInstance, Request, RequestSource};
use acmr_graph::{EdgeId, EdgeSet};
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Leading magic of a binary `ACMR-TRACE v2` file.
pub const BIN_MAGIC: [u8; 8] = *b"ACMRTRCB";

/// Format version the binary reader/writer speak.
pub const BIN_VERSION: u32 = 2;

/// Leading bytes of a plain-text trace (`ACMR-TRACE v1`), used by the
/// sniffers to tell the two formats apart.
const TEXT_MAGIC: &[u8] = b"ACMR-TRACE";

/// Fixed prefix before the caps table: magic (8) + version (4) +
/// edge count (4).
const FIXED_PREFIX: usize = 16;

/// Bytes of one record before its edge ids: cost (8) + edge count (2).
/// Public because the `ACMR-SERVE v2` wire reuses record bytes as
/// arrival frames and sizes its reads with this.
pub const RECORD_PREFIX: usize = 10;

/// Typed binary-trace error: `line` is the 1-based record index (0 for
/// header errors) — binary traces have no lines.
fn berr(record: usize, message: impl Into<String>) -> AcmrError {
    AcmrError::TraceParse {
        line: record,
        message: message.into(),
    }
}

/// Which trace dialect a byte stream speaks, decided from its leading
/// magic. See [`sniff_bytes`] / [`sniff_path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Plain-text `ACMR-TRACE v1` (`docs/TRACE_FORMAT.md`, § v1).
    TextV1,
    /// Binary `ACMR-TRACE v2` (this module).
    BinaryV2,
}

impl TraceFormat {
    /// Short label (`"text"` / `"binary"`) for CLI flags and messages.
    pub fn label(self) -> &'static str {
        match self {
            TraceFormat::TextV1 => "text",
            TraceFormat::BinaryV2 => "binary",
        }
    }

    /// Full human-readable description, version included.
    pub fn describe(self) -> &'static str {
        match self {
            TraceFormat::TextV1 => "ACMR-TRACE v1 (text)",
            TraceFormat::BinaryV2 => "ACMR-TRACE v2 (binary)",
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Decide the trace format from the first bytes of a stream (8 are
/// enough; fewer work when the stream itself is shorter). Unknown
/// leading magic is a typed [`AcmrError::TraceParse`] refusal — never
/// a mis-parse of binary bytes as text — pointing, via its `Display`,
/// at `docs/TRACE_FORMAT.md`.
pub fn sniff_bytes(prefix: &[u8]) -> Result<TraceFormat, AcmrError> {
    let is_prefix_of = |magic: &[u8]| {
        let n = prefix.len().min(magic.len());
        prefix[..n] == magic[..n]
    };
    // An empty/short stream is a prefix of both magics; classify it as
    // text so the v1 reader reports its precise "empty trace" /
    // "bad header" error.
    if is_prefix_of(TEXT_MAGIC) {
        Ok(TraceFormat::TextV1)
    } else if is_prefix_of(&BIN_MAGIC) {
        Ok(TraceFormat::BinaryV2)
    } else {
        Err(berr(
            0,
            "unrecognized trace magic: expected text \"ACMR-TRACE v1\" or binary \"ACMRTRCB\"",
        ))
    }
}

/// [`sniff_bytes`] for a file: opens it and reads the leading magic.
pub fn sniff_path(path: impl AsRef<Path>) -> Result<TraceFormat, AcmrError> {
    let path = path.as_ref();
    let mut file = File::open(path).map_err(|e| AcmrError::Io {
        message: format!("cannot open trace {}: {e}", path.display()),
    })?;
    let mut prefix = [0u8; BIN_MAGIC.len()];
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(AcmrError::Io {
                    message: format!("cannot read trace {}: {e}", path.display()),
                })
            }
        }
    }
    sniff_bytes(&prefix[..filled])
}

/// Check magic + version and return the declared edge count `m` from
/// the 16-byte fixed prefix — the header sub-parse shared by the
/// streaming and mapped readers.
fn parse_fixed_prefix(bytes: &[u8; FIXED_PREFIX]) -> Result<u32, AcmrError> {
    if bytes[..8] != BIN_MAGIC {
        return Err(berr(
            0,
            "bad magic: not a binary ACMR-TRACE v2 file (expected leading \"ACMRTRCB\")",
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != BIN_VERSION {
        return Err(berr(
            0,
            format!("unsupported binary trace version {version} (this build reads v{BIN_VERSION})"),
        ));
    }
    Ok(u32::from_le_bytes(
        bytes[12..16].try_into().expect("4 bytes"),
    ))
}

/// Parse the caps table and declared request count from the header
/// bytes after the fixed prefix (must hold exactly `4m + 8` bytes).
fn parse_caps_and_count(bytes: &[u8], m: u32) -> Result<(Vec<u32>, u64), AcmrError> {
    debug_assert_eq!(bytes.len(), m as usize * 4 + 8);
    let (caps_bytes, count_bytes) = bytes.split_at(m as usize * 4);
    let mut capacities = Vec::with_capacity(m as usize);
    for (i, chunk) in caps_bytes.chunks_exact(4).enumerate() {
        let cap = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        if cap == 0 {
            return Err(berr(0, format!("capacity of edge {i} must be positive")));
        }
        capacities.push(cap);
    }
    let declared = u64::from_le_bytes(count_bytes.try_into().expect("8 bytes"));
    Ok((capacities, declared))
}

/// Validate one decoded record body and build the [`Request`]: finite
/// positive cost, edge ids strictly increasing (the canonical
/// [`EdgeSet`] order, so no re-sort is needed) and `< num_edges`.
#[inline]
fn request_from_parts(
    cost: f64,
    id_bytes: &[u8],
    record: usize,
    num_edges: u32,
) -> Result<Request, AcmrError> {
    if !(cost > 0.0 && cost.is_finite()) {
        return Err(berr(record, format!("bad cost {cost}")));
    }
    debug_assert_eq!(id_bytes.len() % 4, 0);
    let mut edges: Vec<EdgeId> = Vec::with_capacity(id_bytes.len() / 4);
    let mut prev = None;
    for chunk in id_bytes.chunks_exact(4) {
        let id = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        if id >= num_edges {
            return Err(berr(record, format!("edge id {id} out of range")));
        }
        if prev.is_some_and(|p| id <= p) {
            return Err(berr(
                record,
                "edge ids must be strictly increasing (sorted, deduplicated)",
            ));
        }
        prev = Some(id);
        edges.push(EdgeId(id));
    }
    Ok(Request::new(EdgeSet::from_sorted(edges), cost))
}

/// Encode one request as an `ACMR-TRACE v2` record, appending the
/// bytes to `buf`: cost (`f64` LE), edge count (`u16` LE), then the
/// footprint's edge ids (`u32` LE each, strictly increasing — the
/// canonical [`EdgeSet`] order, which the footprint already is).
///
/// This is the byte image [`BinTraceWriter::push`] writes to a trace
/// file **and** the arrival-frame payload of the `ACMR-SERVE v2`
/// socket protocol — one codec, so file ≡ socket holds by
/// construction (`docs/SERVING.md` specifies the wire use).
pub fn encode_record_into(buf: &mut Vec<u8>, r: &Request, num_edges: u32) -> io::Result<()> {
    let ids = r.footprint.as_slice();
    let k = u16::try_from(ids.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "binary trace format caps a footprint at {} edges (got {})",
                u16::MAX,
                ids.len()
            ),
        )
    })?;
    if let Some(out) = ids.iter().find(|e| e.0 >= num_edges) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("edge id {} out of range for {num_edges} edges", out.0),
        ));
    }
    buf.reserve(RECORD_PREFIX + 4 * ids.len());
    buf.extend_from_slice(&r.cost.to_le_bytes());
    buf.extend_from_slice(&k.to_le_bytes());
    for e in ids {
        buf.extend_from_slice(&e.0.to_le_bytes());
    }
    Ok(())
}

/// Decode the record at byte offset `at` of `bytes`, returning the
/// request and the offset just past it — the one record decoder shared
/// by [`BinTraceMap`] iteration, the in-memory paths, **and** the
/// `ACMR-SERVE v2` wire (arrival frames are exactly these record
/// bytes — the inverse of [`encode_record_into`]). Bounds are
/// checked on every access; truncation is a typed error naming
/// `record` (0-based; wire callers pass the arrival index).
#[inline]
pub fn decode_record(
    bytes: &[u8],
    at: usize,
    record: usize,
    num_edges: u32,
) -> Result<(Request, usize), AcmrError> {
    let prefix = bytes
        .get(at..at + RECORD_PREFIX)
        .ok_or_else(|| berr(record, "truncated record"))?;
    let cost = f64::from_le_bytes(prefix[..8].try_into().expect("8 bytes"));
    let k = u16::from_le_bytes(prefix[8..10].try_into().expect("2 bytes")) as usize;
    if k == 0 {
        return Err(berr(record, "request has no edges"));
    }
    let end = at + RECORD_PREFIX + 4 * k;
    let id_bytes = bytes
        .get(at + RECORD_PREFIX..end)
        .ok_or_else(|| berr(record, "truncated record"))?;
    Ok((request_from_parts(cost, id_bytes, record, num_edges)?, end))
}

/// Incremental writer for the binary `ACMR-TRACE v2` format — the
/// binary twin of [`crate::trace::TraceWriter`], with the same
/// declared-count discipline: the header goes out up front,
/// [`BinTraceWriter::push`] appends one record, and
/// [`BinTraceWriter::finish`] refuses to leave a short trace behind.
pub struct BinTraceWriter<W: Write> {
    sink: W,
    num_edges: u32,
    declared: u64,
    written: u64,
    /// Reusable record buffer so each push is one `write_all`.
    buf: Vec<u8>,
}

impl<W: Write> BinTraceWriter<W> {
    /// Write the v2 header for `requests` upcoming requests over the
    /// given capacities.
    pub fn new(mut sink: W, capacities: &[u32], requests: u64) -> io::Result<Self> {
        let num_edges = u32::try_from(capacities.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "binary trace format caps the edge count at u32::MAX",
            )
        })?;
        let mut header = Vec::with_capacity(FIXED_PREFIX + capacities.len() * 4 + 8);
        header.extend_from_slice(&BIN_MAGIC);
        header.extend_from_slice(&BIN_VERSION.to_le_bytes());
        header.extend_from_slice(&num_edges.to_le_bytes());
        for &c in capacities {
            header.extend_from_slice(&c.to_le_bytes());
        }
        header.extend_from_slice(&requests.to_le_bytes());
        sink.write_all(&header)?;
        Ok(BinTraceWriter {
            sink,
            num_edges,
            declared: requests,
            written: 0,
            buf: Vec::new(),
        })
    }

    /// Append one request record.
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
        self.buf.clear();
        encode_record_into(&mut self.buf, r, self.num_edges)?;
        self.sink.write_all(&self.buf)?;
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

/// Streaming reader for binary traces over any [`io::Read`] — the
/// binary twin of the text [`TraceReader`]: header parsed eagerly at
/// construction, one validated [`Request`] per [`next_request`] call
/// in bounded memory, poisoning after the first error.
///
/// [`next_request`]: RequestSource::next_request
pub struct BinTraceReader<R: Read> {
    inner: BufReader<R>,
    capacities: Vec<u32>,
    declared: u64,
    yielded: u64,
    finished: bool,
    poison: Option<AcmrError>,
    /// Reusable scratch for each record's edge-id bytes.
    buf: Vec<u8>,
}

impl BinTraceReader<File> {
    /// Open a binary trace file for streaming.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AcmrError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| AcmrError::Io {
            message: format!("cannot open trace {}: {e}", path.display()),
        })?;
        BinTraceReader::new(file)
    }
}

impl<R: Read> BinTraceReader<R> {
    /// Wrap any byte source and parse the v2 header.
    pub fn new(reader: R) -> Result<Self, AcmrError> {
        let mut inner = BufReader::with_capacity(CHUNK_SIZE, reader);
        let mut prefix = [0u8; FIXED_PREFIX];
        read_exact_header(&mut inner, &mut prefix)?;
        let m = parse_fixed_prefix(&prefix)?;
        // Read the caps table + request count with `take`, so a bogus
        // huge `m` in a small file hits EOF instead of a huge upfront
        // allocation.
        let want = m as u64 * 4 + 8;
        let mut rest = Vec::new();
        (&mut inner)
            .take(want)
            .read_to_end(&mut rest)
            .map_err(AcmrError::from)?;
        if (rest.len() as u64) < want {
            return Err(berr(0, "truncated header"));
        }
        let (capacities, declared) = parse_caps_and_count(&rest, m)?;
        Ok(BinTraceReader {
            inner,
            capacities,
            declared,
            yielded: 0,
            finished: false,
            poison: None,
            buf: Vec::new(),
        })
    }

    /// Edge capacities from the header.
    pub fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    /// Request count declared by the header.
    pub fn declared_requests(&self) -> u64 {
        self.declared
    }

    /// Requests yielded so far.
    pub fn requests_read(&self) -> u64 {
        self.yielded
    }

    fn pull(&mut self) -> Result<Option<Request>, AcmrError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        match self.pull_inner() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poison = Some(e.clone());
                Err(e)
            }
        }
    }

    fn pull_inner(&mut self) -> Result<Option<Request>, AcmrError> {
        if self.finished {
            return Ok(None);
        }
        let record = usize::try_from(self.yielded + 1).unwrap_or(usize::MAX);
        if self.yielded == self.declared {
            // Body complete: exactly EOF may remain.
            let mut probe = [0u8; 1];
            loop {
                match self.inner.read(&mut probe) {
                    Ok(0) => break,
                    Ok(_) => return Err(berr(record, "trailing content after the last record")),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            self.finished = true;
            return Ok(None);
        }
        let mut prefix = [0u8; RECORD_PREFIX];
        read_exact_record(&mut self.inner, &mut prefix, record)?;
        let cost = f64::from_le_bytes(prefix[..8].try_into().expect("8 bytes"));
        let k = u16::from_le_bytes(prefix[8..10].try_into().expect("2 bytes")) as usize;
        if k == 0 {
            return Err(berr(record, "request has no edges"));
        }
        self.buf.resize(4 * k, 0);
        let mut ids = std::mem::take(&mut self.buf);
        let read = read_exact_record(&mut self.inner, &mut ids, record);
        self.buf = ids;
        read?;
        let request = request_from_parts(cost, &self.buf, record, self.capacities.len() as u32)?;
        self.yielded += 1;
        Ok(Some(request))
    }
}

/// `read_exact` during header parsing: EOF is a truncated header.
fn read_exact_header<R: Read>(inner: &mut BufReader<R>, buf: &mut [u8]) -> Result<(), AcmrError> {
    inner.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => berr(0, "truncated header"),
        _ => e.into(),
    })
}

/// `read_exact` during record reads: EOF is a truncated record.
fn read_exact_record<R: Read>(
    inner: &mut BufReader<R>,
    buf: &mut [u8],
    record: usize,
) -> Result<(), AcmrError> {
    inner.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => berr(record, "truncated record"),
        _ => e.into(),
    })
}

impl<R: Read> std::fmt::Debug for BinTraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinTraceReader")
            .field("edges", &self.capacities.len())
            .field("declared_requests", &self.declared)
            .field("requests_read", &self.yielded)
            .field("poisoned", &self.poison.is_some())
            .finish_non_exhaustive()
    }
}

impl<R: Read> Iterator for BinTraceReader<R> {
    type Item = Result<Request, AcmrError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.pull().transpose()
    }
}

impl<R: Read> RequestSource for BinTraceReader<R> {
    fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    fn declared_requests(&self) -> u64 {
        self.declared
    }
}

/// A whole binary trace held as one byte region — an `mmap(2)` of the
/// file when the platform allows it, a heap read otherwise — with the
/// header validated once at open. [`BinTraceMap::into_reader`] turns
/// it into the zero-copy replay cursor ([`BinMapReader`]); records are
/// decoded lazily straight out of the region, so replay touches each
/// byte exactly once and copies nothing but the requests it yields.
pub struct BinTraceMap {
    backing: Backing,
    capacities: Vec<u32>,
    declared: u64,
    /// Byte offset where the first record starts.
    body: usize,
}

enum Backing {
    Mapped(memmap2::Mmap),
    Heap(Vec<u8>),
}

impl BinTraceMap {
    /// Open and validate a binary trace file, mapping it when possible
    /// and falling back to a heap read when `mmap` is unavailable or
    /// refuses (non-Unix platforms, special files).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AcmrError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| AcmrError::Io {
            message: format!("cannot open trace {}: {e}", path.display()),
        })?;
        // SAFETY: the mapping is read-only and private; mutating the
        // trace mid-replay is outside the supported contract exactly
        // as it is for the chunked readers (both detect it only as a
        // parse/count mismatch, never as memory unsafety for Heap —
        // callers shipping corpora are expected to treat them as
        // immutable, see docs/OPERATIONS.md).
        #[allow(unsafe_code)]
        let backing = match unsafe { memmap2::Mmap::map(&file) } {
            Ok(map) => Backing::Mapped(map),
            Err(_) => {
                let mut bytes = Vec::new();
                let mut file = file;
                file.read_to_end(&mut bytes).map_err(|e| AcmrError::Io {
                    message: format!("cannot read trace {}: {e}", path.display()),
                })?;
                Backing::Heap(bytes)
            }
        };
        Self::from_backing(backing)
    }

    /// Validate an in-memory byte image of a binary trace (the fuzz
    /// suites and tests go through this; no file needed).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, AcmrError> {
        Self::from_backing(Backing::Heap(bytes))
    }

    fn from_backing(backing: Backing) -> Result<Self, AcmrError> {
        let bytes: &[u8] = match &backing {
            Backing::Mapped(m) => m,
            Backing::Heap(v) => v,
        };
        let prefix: &[u8; FIXED_PREFIX] = bytes
            .get(..FIXED_PREFIX)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| berr(0, "truncated header"))?;
        let m = parse_fixed_prefix(prefix)?;
        let body = (m as usize)
            .checked_mul(4)
            .and_then(|caps| caps.checked_add(FIXED_PREFIX + 8))
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| berr(0, "truncated header"))?;
        let (capacities, declared) = parse_caps_and_count(&bytes[FIXED_PREFIX..body], m)?;
        Ok(BinTraceMap {
            backing,
            capacities,
            declared,
            body,
        })
    }

    /// The raw bytes of the whole trace (header included).
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Mapped(m) => m,
            Backing::Heap(v) => v,
        }
    }

    /// True when the backing is a real memory mapping (false on the
    /// read-to-heap fallback).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// Edge capacities from the header.
    pub fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    /// Request count declared by the header.
    pub fn declared_requests(&self) -> u64 {
        self.declared
    }

    /// Turn the map into an owning zero-copy replay cursor.
    pub fn into_reader(self) -> BinMapReader {
        let body = self.body;
        BinMapReader {
            map: Arc::new(self),
            at: body,
            yielded: 0,
            finished: false,
            poison: None,
        }
    }
}

impl std::fmt::Debug for BinTraceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinTraceMap")
            .field("edges", &self.capacities.len())
            .field("declared_requests", &self.declared)
            .field("bytes", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Owning replay cursor over a [`BinTraceMap`]: yields each request
/// decoded straight from the mapped (or heap-fallback) bytes, with the
/// same validation, poisoning, and clean-EOF contract as the streaming
/// readers. Cheap to clone a fresh one from the shared map (`Arc`).
pub struct BinMapReader {
    map: Arc<BinTraceMap>,
    at: usize,
    yielded: u64,
    finished: bool,
    poison: Option<AcmrError>,
}

impl BinMapReader {
    /// Open a binary trace file and return a replay cursor over it.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AcmrError> {
        Ok(BinTraceMap::open(path)?.into_reader())
    }

    /// The shared map this cursor replays.
    pub fn map(&self) -> &Arc<BinTraceMap> {
        &self.map
    }

    /// A fresh cursor over the same map, rewound to the first record.
    pub fn rewound(&self) -> BinMapReader {
        BinMapReader {
            map: Arc::clone(&self.map),
            at: self.map.body,
            yielded: 0,
            finished: false,
            poison: None,
        }
    }

    /// Requests yielded so far.
    pub fn requests_read(&self) -> u64 {
        self.yielded
    }

    fn pull(&mut self) -> Result<Option<Request>, AcmrError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        match self.pull_inner() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poison = Some(e.clone());
                Err(e)
            }
        }
    }

    fn pull_inner(&mut self) -> Result<Option<Request>, AcmrError> {
        if self.finished {
            return Ok(None);
        }
        let bytes = self.map.bytes();
        let record = usize::try_from(self.yielded + 1).unwrap_or(usize::MAX);
        if self.yielded == self.map.declared {
            if self.at != bytes.len() {
                return Err(berr(record, "trailing content after the last record"));
            }
            self.finished = true;
            return Ok(None);
        }
        let (request, next) =
            decode_record(bytes, self.at, record, self.map.capacities.len() as u32)?;
        self.at = next;
        self.yielded += 1;
        Ok(Some(request))
    }
}

impl std::fmt::Debug for BinMapReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinMapReader")
            .field("map", &self.map)
            .field("requests_read", &self.yielded)
            .field("poisoned", &self.poison.is_some())
            .finish()
    }
}

impl Iterator for BinMapReader {
    type Item = Result<Request, AcmrError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.pull().transpose()
    }
}

impl RequestSource for BinMapReader {
    fn capacities(&self) -> &[u32] {
        &self.map.capacities
    }

    fn declared_requests(&self) -> u64 {
        self.map.declared
    }
}

/// A trace reader of whichever format a file turned out to be — what
/// [`open_trace`] returns, and the one seam every path-backed tool
/// (`run --stream FILE`, sharded/cluster sweeps, `acmr convert`)
/// opens traces through, so each gets both formats for free.
pub enum AnyTraceReader {
    /// Plain-text v1, streamed in chunks.
    Text(TraceReader<File>),
    /// Binary v2, replayed zero-copy off an mmap (heap fallback).
    Binary(BinMapReader),
}

impl AnyTraceReader {
    /// Which format the underlying trace speaks.
    pub fn format(&self) -> TraceFormat {
        match self {
            AnyTraceReader::Text(_) => TraceFormat::TextV1,
            AnyTraceReader::Binary(_) => TraceFormat::BinaryV2,
        }
    }
}

impl Iterator for AnyTraceReader {
    type Item = Result<Request, AcmrError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            AnyTraceReader::Text(r) => r.next(),
            AnyTraceReader::Binary(r) => r.next(),
        }
    }
}

impl RequestSource for AnyTraceReader {
    fn capacities(&self) -> &[u32] {
        match self {
            AnyTraceReader::Text(r) => r.capacities(),
            AnyTraceReader::Binary(r) => RequestSource::capacities(r),
        }
    }

    fn declared_requests(&self) -> u64 {
        match self {
            AnyTraceReader::Text(r) => r.declared_requests() as u64,
            AnyTraceReader::Binary(r) => RequestSource::declared_requests(r),
        }
    }
}

/// Open a trace file of either format: sniff the leading magic and
/// return the matching reader — chunked text streaming for v1, a
/// zero-copy mapped cursor (heap fallback) for binary v2. Unknown
/// magic is a typed refusal, never a mis-parse.
pub fn open_trace(path: impl AsRef<Path>) -> Result<AnyTraceReader, AcmrError> {
    let path = path.as_ref();
    match sniff_path(path)? {
        TraceFormat::TextV1 => Ok(AnyTraceReader::Text(TraceReader::open(path)?)),
        TraceFormat::BinaryV2 => Ok(AnyTraceReader::Binary(BinMapReader::open(path)?)),
    }
}

/// Serialize an instance to binary v2 bytes (in-memory convenience
/// over [`BinTraceWriter`]).
pub fn write_bin_trace(inst: &AdmissionInstance) -> Vec<u8> {
    let mut w = BinTraceWriter::new(Vec::new(), &inst.capacities, inst.requests.len() as u64)
        .expect("writing to a Vec cannot fail");
    for r in &inst.requests {
        w.push(r).expect("writing to a Vec cannot fail");
    }
    w.finish().expect("declared count matches")
}

/// Parse an instance from binary v2 bytes (in-memory convenience over
/// [`BinTraceReader`], so both paths accept exactly the same input).
pub fn read_bin_trace(bytes: &[u8]) -> Result<AdmissionInstance, AcmrError> {
    let mut reader = BinTraceReader::new(bytes)?;
    let mut inst = AdmissionInstance::from_capacities(reader.capacities().to_vec());
    while let Some(r) = reader.pull()? {
        inst.push(r);
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial;
    use crate::trace::write_trace;

    fn sample() -> AdmissionInstance {
        adversarial::nested_intervals(8, 2, 2, 2)
    }

    #[test]
    fn roundtrip_identity_and_bijective_encoding() {
        let inst = sample();
        let bytes = write_bin_trace(&inst);
        let back = read_bin_trace(&bytes).unwrap();
        assert_eq!(back.capacities, inst.capacities);
        assert_eq!(back.requests, inst.requests);
        // Re-encoding reproduces the bytes: the encoding is bijective.
        assert_eq!(write_bin_trace(&back), bytes);
    }

    #[test]
    fn costs_roundtrip_bit_exactly() {
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        inst.push(Request::new(EdgeSet::singleton(EdgeId(0)), 0.1 + 0.2));
        inst.push(Request::new(
            EdgeSet::singleton(EdgeId(0)),
            f64::MIN_POSITIVE,
        ));
        let back = read_bin_trace(&write_bin_trace(&inst)).unwrap();
        for (a, b) in back.requests.iter().zip(&inst.requests) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }

    #[test]
    fn streaming_and_mapped_readers_agree() {
        let inst = sample();
        let bytes = write_bin_trace(&inst);
        let streamed: Vec<Request> = BinTraceReader::new(bytes.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let mapped: Vec<Request> = BinTraceMap::from_bytes(bytes.clone())
            .unwrap()
            .into_reader()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(streamed, inst.requests);
        assert_eq!(mapped, inst.requests);
    }

    #[test]
    fn mapped_file_roundtrip_uses_a_real_mapping() {
        let inst = sample();
        let path = std::env::temp_dir().join(format!("acmr-binfmt-map-{}.bin", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        let mut w = BinTraceWriter::new(
            std::io::BufWriter::new(file),
            &inst.capacities,
            inst.requests.len() as u64,
        )
        .unwrap();
        for r in &inst.requests {
            w.push(r).unwrap();
        }
        w.finish().unwrap();

        let map = BinTraceMap::open(&path).unwrap();
        assert!(map.is_mapped(), "expected a real mmap on this platform");
        assert_eq!(map.capacities(), inst.capacities.as_slice());
        assert_eq!(map.declared_requests(), inst.requests.len() as u64);
        let replayed: Vec<Request> = map.into_reader().map(|r| r.unwrap()).collect();
        assert_eq!(replayed, inst.requests);

        // The streaming file reader and the sniffing opener agree.
        let streamed: Vec<Request> = BinTraceReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(streamed, inst.requests);
        let any = open_trace(&path).unwrap();
        assert_eq!(any.format(), TraceFormat::BinaryV2);
        let via_any: Vec<Request> = any.map(|r| r.unwrap()).collect();
        assert_eq!(via_any, inst.requests);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sniffing_distinguishes_formats_and_refuses_unknown_magic() {
        assert_eq!(
            sniff_bytes(write_trace(&sample()).as_bytes()).unwrap(),
            TraceFormat::TextV1
        );
        assert_eq!(
            sniff_bytes(&write_bin_trace(&sample())).unwrap(),
            TraceFormat::BinaryV2
        );
        // Short prefixes classify by whichever magic they prefix.
        assert_eq!(sniff_bytes(b"ACMR-").unwrap(), TraceFormat::TextV1);
        assert_eq!(sniff_bytes(b"ACMRT").unwrap(), TraceFormat::BinaryV2);
        assert_eq!(sniff_bytes(b"").unwrap(), TraceFormat::TextV1);
        // Unknown magic: typed refusal pointing at the format spec.
        let e = sniff_bytes(b"PNG\x89garbage").unwrap_err();
        assert!(matches!(e, AcmrError::TraceParse { line: 0, .. }));
        assert!(e.to_string().contains("docs/TRACE_FORMAT.md"), "{e}");
        assert_eq!(TraceFormat::TextV1.describe(), "ACMR-TRACE v1 (text)");
        assert_eq!(TraceFormat::BinaryV2.label(), "binary");
    }

    #[test]
    fn header_and_record_violations_are_typed() {
        let valid = write_bin_trace(&sample());
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (b"ACMRTRCB".to_vec(), "truncated header"),
            (
                b"WRONGMAG\x02\x00\x00\x00\x00\x00\x00\x00".to_vec(),
                "bad magic",
            ),
            (
                {
                    let mut b = valid.clone();
                    b[8] = 9; // version
                    b
                },
                "unsupported binary trace version",
            ),
            (
                {
                    let mut b = valid.clone();
                    b[FIXED_PREFIX] = 0; // first capacity → 0
                    b[FIXED_PREFIX + 1] = 0;
                    b[FIXED_PREFIX + 2] = 0;
                    b[FIXED_PREFIX + 3] = 0;
                    b
                },
                "must be positive",
            ),
            (
                {
                    let mut b = valid.clone();
                    b.truncate(b.len() - 3);
                    b
                },
                "truncated record",
            ),
            (
                {
                    let mut b = valid.clone();
                    b.extend_from_slice(b"x");
                    b
                },
                "trailing content",
            ),
        ];
        for (bytes, needle) in cases {
            for via_map in [false, true] {
                let result: Result<usize, AcmrError> = if via_map {
                    BinTraceMap::from_bytes(bytes.clone())
                        .map(BinTraceMap::into_reader)
                        .and_then(|r| {
                            let mut n = 0;
                            for item in r {
                                item?;
                                n += 1;
                            }
                            Ok(n)
                        })
                } else {
                    read_bin_trace(&bytes).map(|i| i.requests.len())
                };
                let e = result.expect_err(needle);
                assert!(
                    e.to_string().contains(needle),
                    "via_map={via_map}: {e} does not mention {needle:?}"
                );
            }
        }
    }

    #[test]
    fn record_value_violations_are_typed() {
        // One edge, cap 1, one request `cost=1, edges=[0]` — then
        // corrupt specific record fields.
        let mut inst = AdmissionInstance::from_capacities(vec![1, 1]);
        inst.push(Request::new(EdgeSet::new(vec![EdgeId(0), EdgeId(1)]), 1.0));
        let valid = write_bin_trace(&inst);
        let body = FIXED_PREFIX + 2 * 4 + 8;

        // Bad cost (zero).
        let mut bad_cost = valid.clone();
        bad_cost[body..body + 8].copy_from_slice(&0f64.to_le_bytes());
        let e = read_bin_trace(&bad_cost).unwrap_err();
        assert!(e.to_string().contains("bad cost"), "{e}");
        // NaN cost.
        bad_cost[body..body + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(read_bin_trace(&bad_cost).is_err());

        // k = 0.
        let mut no_edges = valid.clone();
        no_edges[body + 8] = 0;
        no_edges[body + 9] = 0;
        no_edges.truncate(body + RECORD_PREFIX);
        let e = read_bin_trace(&no_edges).unwrap_err();
        assert!(e.to_string().contains("no edges"), "{e}");

        // Edge id out of range.
        let mut oob = valid.clone();
        oob[body + RECORD_PREFIX..body + RECORD_PREFIX + 4].copy_from_slice(&7u32.to_le_bytes());
        let e = read_bin_trace(&oob).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");

        // Unsorted / duplicate ids.
        let mut dup = valid.clone();
        dup[body + RECORD_PREFIX + 4..body + RECORD_PREFIX + 8]
            .copy_from_slice(&0u32.to_le_bytes());
        let e = read_bin_trace(&dup).unwrap_err();
        assert!(e.to_string().contains("strictly increasing"), "{e}");

        // Errors carry the 1-based record index in `line`.
        assert!(matches!(
            read_bin_trace(&oob).unwrap_err(),
            AcmrError::TraceParse { line: 1, .. }
        ));
    }

    #[test]
    fn readers_poison_after_error() {
        let mut bytes = write_bin_trace(&sample());
        let len = bytes.len();
        bytes.truncate(len - 2);
        let mut reader = BinTraceReader::new(bytes.as_slice()).unwrap();
        let mut first_err = None;
        for item in &mut reader {
            if let Err(e) = item {
                first_err = Some(e);
                break;
            }
        }
        let e1 = first_err.expect("truncated trace must error");
        let e2 = reader.pull().unwrap_err();
        assert_eq!(e1, e2, "poisoned reader must repeat its error");

        let mut cursor = BinTraceMap::from_bytes(bytes).unwrap().into_reader();
        let mut first_err = None;
        for item in &mut cursor {
            if let Err(e) = item {
                first_err = Some(e);
                break;
            }
        }
        let e1 = first_err.expect("truncated trace must error");
        let e2 = cursor.pull().unwrap_err();
        assert_eq!(e1, e2);
    }

    #[test]
    fn writer_enforces_declared_count_and_limits() {
        let r = Request::unit(EdgeSet::singleton(EdgeId(0)));
        // Short: finish refuses.
        let mut w = BinTraceWriter::new(Vec::new(), &[1], 2).unwrap();
        w.push(&r).unwrap();
        assert!(w.finish().is_err());
        // Overflow: the extra push refuses.
        let mut w = BinTraceWriter::new(Vec::new(), &[1], 1).unwrap();
        w.push(&r).unwrap();
        assert!(w.push(&r).is_err());
        assert!(w.finish().is_ok());
        // Out-of-range edge id refuses at push time.
        let mut w = BinTraceWriter::new(Vec::new(), &[1], 1).unwrap();
        let far = Request::unit(EdgeSet::singleton(EdgeId(9)));
        assert!(w.push(&far).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let inst = AdmissionInstance::from_capacities(vec![3, 4]);
        let bytes = write_bin_trace(&inst);
        assert_eq!(bytes.len(), FIXED_PREFIX + 2 * 4 + 8);
        let back = read_bin_trace(&bytes).unwrap();
        assert_eq!(back.capacities, vec![3, 4]);
        assert!(back.requests.is_empty());
        let map = BinTraceMap::from_bytes(bytes).unwrap();
        assert_eq!(map.into_reader().count(), 0);
    }

    #[test]
    fn rewound_cursor_replays_from_the_start() {
        let inst = sample();
        let mut cursor = BinTraceMap::from_bytes(write_bin_trace(&inst))
            .unwrap()
            .into_reader();
        let first: Vec<Request> = (&mut cursor).map(|r| r.unwrap()).collect();
        assert_eq!(cursor.requests_read(), inst.requests.len() as u64);
        let again: Vec<Request> = cursor.rewound().map(|r| r.unwrap()).collect();
        assert_eq!(first, again);
    }
}
