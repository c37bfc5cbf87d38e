//! # acmr-serve
//!
//! The live serving front end for the admission-control engine: a
//! TCP protocol (`ACMR-SERVE`, specified in `docs/SERVING.md`) that
//! drives one streaming [`acmr_core::Session`] per connection — the
//! production shape of the paper's online model, where requests
//! genuinely arrive one at a time over a wire and every accept/reject
//! decision is pushed back as it is made. Every server speaks two wire
//! dialects on one port, and the connecting client picks one: the v1
//! line protocol, or the v2 binary-frame protocol (negotiated at
//! `OPEN` via `proto=v2`) whose arrival frames are exactly ACMR-TRACE
//! v2 record bytes, with batch-summary acknowledgements and
//! `RESET`-based session reuse.
//!
//! The crate is split along a sans-I/O seam, std-only (the workspace
//! builds offline, so polling comes from the vendored `polling` shim
//! — epoll on Linux — rather than an async runtime):
//!
//! * [`protocol`] — the wire grammar: one tokenizer per dialect, each
//!   a sans-I/O carver with a blocking pull loop for the client — lines
//!   through `acmr_workloads::trace::LineBuffer` (driven by
//!   [`protocol::FrameReader`]), v2 frames through
//!   [`protocol::FrameBuffer`] (driven by [`protocol::BinFrameReader`])
//!   — plus the stable `ERR` code table, the constants (`GREETING`,
//!   frame/batch caps), and the v2 payload codecs
//!   ([`protocol::BatchSummary`], the `RESET`/`OK` payloads). v1
//!   arrival frames reuse the trace grammar of `docs/TRACE_FORMAT.md`
//!   via `acmr_workloads::trace::parse_request_line`; v2 arrival frames
//!   reuse `acmr_workloads::binfmt`'s record codec — so the socket
//!   and the file formats can never drift apart, in either dialect.
//! * [`machine`] / [`Connection`] — the sans-I/O protocol state
//!   machine: feed it bytes, drain reply bytes; both dialects, every
//!   typed `ERR`, the `STATS` counters — with no socket type in
//!   sight, so the fuzz and differential suites drive the full wire
//!   semantics in-process.
//! * [`serve`] / [`ServerHandle`] — the reactor: sharded event-loop
//!   threads ([`ServeConfig::reactor_threads`]) pumping nonblocking
//!   sockets through one machine per connection over the shared
//!   [`acmr_core::Registry`], with one set of [`ServerCounters`] (live
//!   and total connections and sessions among them, read through
//!   [`ServerHandle::counters`] or a `STATS` probe), an explicit
//!   overload policy (`ERR busy` past
//!   [`ServeConfig::max_connections`]), idle timeouts, backpressure,
//!   and graceful shutdown in which every shard closes the sockets it
//!   owns before it is joined.
//! * [`ServeClient`] / [`serve_trace`] — the client: mirrors the
//!   local `Session` API (`push` / `push_batch_into` / `finish`), so
//!   the differential suite pins *served ≡ streamed ≡ in-memory* decision
//!   streams for every registered algorithm.
//! * [`pool`] / [`WorkerPool`] — the cross-process substrate for
//!   cluster sweeps: spawn (`acmr run --cluster N`) or adopt
//!   (`--workers addr,...`) `acmr serve` worker processes and replay
//!   whole jobs onto them with bounded, typed retry
//!   (`acmr_harness::ClusterDriver` is the driver on top).
//!
//! `acmr serve` and `acmr client --stream` are thin CLI shims over
//! this crate; `docs/OPERATIONS.md` is the operator guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod machine;
pub mod pool;
pub mod protocol;
pub mod server;

pub use client::{fetch_stats, serve_trace, serve_trace_v2, JobArrivals, ServeClient};
pub use machine::{Connection, MachineConfig, ServerCounters};
pub use pool::{is_transport_error, WorkerPool, CLUSTER_ERROR_CODE, LISTENING_PREFIX};
pub use protocol::{BatchSummary, ProtoVersion, StatsReport};
pub use server::{serve, ServeConfig, ServerHandle, DEFAULT_ADDR};
