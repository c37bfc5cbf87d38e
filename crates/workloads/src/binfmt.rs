//! `ACMR-TRACE v2` — the binary, mmap-able trace format: writer,
//! zero-copy mapped reader, and format sniffing.
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
//! Every binary trace byte is decoded by [`decode_record`] inside one
//! cursor, [`BinMapReader`], over a [`BinTraceMap`]: an `mmap(2)` of a
//! file, a whole-file heap read where mapping fails, or an in-memory
//! image ([`BinTraceMap::from_bytes`], which [`read_bin_trace`] uses).
//! The cursor implements [`RequestSource`], so it plugs into
//! `Session::run_stream_batched` and the harness's two-pass report
//! path exactly like the text [`TraceReader`] — [`open_trace`] sniffs
//! the leading magic and returns whichever reader the file calls for.

use crate::trace::TraceReader;
use acmr_core::{AcmrError, AdmissionInstance, Request, RequestSource};
use acmr_graph::{EdgeId, EdgeSet};
use std::fs::File;
use std::io::{self, Read, Write};
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
/// the 16-byte fixed prefix.
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
/// by the [`BinMapReader`] cursor **and** the `ACMR-SERVE v2` wire
/// (arrival frames are exactly these record bytes — the inverse of
/// [`encode_record_into`]). Bounds are checked on every access;
/// truncation is a typed error naming `record` (the cursor passes the
/// 1-based record index, wire callers the arrival index).
///
/// The record must carry a finite positive cost and edge ids strictly
/// increasing (the canonical [`EdgeSet`] order, so no re-sort is
/// needed) and `< num_edges`. The footprint is built straight from
/// the record bytes, with no allocation for up to five edges.
///
/// Kept out of line: inlined into the replay cursor's `next`, the
/// 1M-record mapped replay measured about 15% slower (2-core x86-64
/// host).
#[inline(never)]
pub fn decode_record(
    bytes: &[u8],
    at: usize,
    record: usize,
    num_edges: u32,
) -> Result<(Request, usize), AcmrError> {
    let (cost, id_bytes, end) = check_record(bytes, at, record, num_edges)?;
    let ids = id_bytes
        .chunks_exact(4)
        .map(|chunk| EdgeId(u32::from_le_bytes(chunk.try_into().expect("4 bytes"))));
    Ok((Request::new(EdgeSet::from_sorted_iter(ids), cost), end))
}

/// Every check [`decode_record`] makes, with its errors, on the record
/// at `at`: returns the cost, the edge-id bytes and the offset just
/// past the record. Shared with [`BinMapReader::next_records`], which
/// validates records it forwards without decoding them.
#[inline(always)]
fn check_record(
    bytes: &[u8],
    at: usize,
    record: usize,
    num_edges: u32,
) -> Result<(f64, &[u8], usize), AcmrError> {
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
    if !(cost > 0.0 && cost.is_finite()) {
        return Err(berr(record, format!("bad cost {cost}")));
    }
    let ids = id_bytes
        .chunks_exact(4)
        .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
    let mut prev = None;
    for id in ids {
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
    }
    Ok((cost, id_bytes, end))
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

    /// Validate an in-memory byte image of a binary trace (what
    /// [`read_bin_trace`] and the fuzz suites go through; no file
    /// needed).
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

    /// Decode every record into an in-memory instance.
    pub fn into_instance(self) -> Result<AdmissionInstance, AcmrError> {
        let mut inst = AdmissionInstance::from_capacities(self.capacities.clone());
        for request in self.into_reader() {
            inst.push(request?);
        }
        Ok(inst)
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
/// same validation, poisoning, and clean-EOF contract as the text
/// [`TraceReader`]. Cheap to clone a fresh one from the shared map
/// (`Arc`).
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

    /// Step over up to `max` records without decoding them, checking
    /// each exactly as [`decode_record`] does (same errors, same
    /// end-of-trace check, same poisoning as the iterator), and return
    /// them as one slice of the trace's own bytes with their count —
    /// what a v2 `BATCH` payload carries after its count, so a replay
    /// can forward a binary trace without building [`Request`]s or
    /// re-encoding them. `(&[], 0)` at the end of the trace.
    pub fn next_records(&mut self, max: usize) -> Result<(&[u8], usize), AcmrError> {
        let start = self.at;
        let mut count = 0;
        while count < max {
            let Some(record) = self.next_index()? else {
                break;
            };
            let num_edges = self.map.capacities.len() as u32;
            self.at = check_record(self.map.bytes(), self.at, record, num_edges)
                .map(|(_, _, end)| end)
                .map_err(|e| self.poisoned(e))?;
            self.yielded += 1;
            count += 1;
        }
        Ok((&self.map.bytes()[start..self.at], count))
    }

    fn pull(&mut self) -> Result<Option<Request>, AcmrError> {
        let Some(record) = self.next_index()? else {
            return Ok(None);
        };
        let num_edges = self.map.capacities.len() as u32;
        let (request, next) = decode_record(self.map.bytes(), self.at, record, num_edges)
            .map_err(|e| self.poisoned(e))?;
        self.at = next;
        self.yielded += 1;
        Ok(Some(request))
    }

    /// The 1-based index of the next record, or `None` at a clean end
    /// of the trace; a poisoned cursor repeats its error. Inlined so
    /// the replay's `next` keeps one call per record, to
    /// [`decode_record`].
    #[inline(always)]
    fn next_index(&mut self) -> Result<Option<usize>, AcmrError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        if self.finished {
            return Ok(None);
        }
        let record = usize::try_from(self.yielded + 1).unwrap_or(usize::MAX);
        if self.yielded == self.map.declared {
            if self.at != self.map.bytes().len() {
                let e = berr(record, "trailing content after the last record");
                return Err(self.poisoned(e));
            }
            self.finished = true;
            return Ok(None);
        }
        Ok(Some(record))
    }

    /// Poison the cursor with `e`, so every later call repeats it.
    #[cold]
    fn poisoned(&mut self, e: AcmrError) -> AcmrError {
        self.poison = Some(e.clone());
        e
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
/// a [`BinTraceMap::from_bytes`] copy, so every path accepts exactly
/// the same input). A caller that owns its buffer should hand it to
/// [`BinTraceMap::from_bytes`] and [`BinTraceMap::into_instance`]
/// instead, and skip the copy.
pub fn read_bin_trace(bytes: &[u8]) -> Result<AdmissionInstance, AcmrError> {
    BinTraceMap::from_bytes(bytes.to_vec())?.into_instance()
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

        // The sniffing opener replays the same requests.
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
            let e = read_bin_trace(&bytes).expect_err(needle);
            assert!(
                e.to_string().contains(needle),
                "{e} does not mention {needle:?}"
            );
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
    fn cursor_poisons_after_error() {
        let mut bytes = write_bin_trace(&sample());
        let len = bytes.len();
        bytes.truncate(len - 2);
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
        assert_eq!(e1, e2, "poisoned cursor must repeat its error");
    }

    #[test]
    fn next_records_checks_like_the_decoder() {
        // Valid: the slices are the record bytes, in order, and the
        // cursor then ends cleanly, whatever the step size.
        let inst = sample();
        let bytes = write_bin_trace(&inst);
        let body = FIXED_PREFIX + 4 * inst.capacities.len() + 8;
        for max in [1, 2, 5, usize::MAX] {
            let mut cursor = BinTraceMap::from_bytes(bytes.clone())
                .unwrap()
                .into_reader();
            let mut forwarded = Vec::new();
            let mut total = 0;
            loop {
                let (records, count) = cursor.next_records(max).unwrap();
                if count == 0 {
                    assert!(records.is_empty());
                    break;
                }
                assert!(count <= max);
                forwarded.extend_from_slice(records);
                total += count;
            }
            assert_eq!(total, inst.requests.len());
            assert_eq!(forwarded, &bytes[body..]);
            assert_eq!(cursor.requests_read(), total as u64);
        }
        // Corrupt: the same error as the decoding iterator, at the same
        // record, repeated on every later call (the cursor is poisoned).
        let mut cases = Vec::new();
        let mut bad_cost = bytes.clone();
        bad_cost[body..body + 8].copy_from_slice(&(-2.0f64).to_le_bytes());
        cases.push(bad_cost);
        let mut out_of_range = bytes.clone();
        out_of_range[body + RECORD_PREFIX..body + RECORD_PREFIX + 4]
            .copy_from_slice(&99u32.to_le_bytes());
        cases.push(out_of_range);
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 2);
        cases.push(truncated);
        let mut trailing = bytes.clone();
        trailing.push(0);
        cases.push(trailing);
        for bad in cases {
            let expected = BinTraceMap::from_bytes(bad.clone())
                .unwrap()
                .into_reader()
                .find_map(Result::err)
                .expect("corrupt trace must fail");
            for max in [1, 3, usize::MAX] {
                let mut cursor = BinTraceMap::from_bytes(bad.clone()).unwrap().into_reader();
                let err = loop {
                    match cursor.next_records(max) {
                        Ok((_, 0)) => panic!("corrupt trace ended cleanly"),
                        Ok(_) => {}
                        Err(e) => break e,
                    }
                };
                assert_eq!(err, expected, "max {max}");
                assert_eq!(cursor.next_records(max).unwrap_err(), expected);
                assert_eq!(cursor.next().unwrap().unwrap_err(), expected);
            }
        }
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
