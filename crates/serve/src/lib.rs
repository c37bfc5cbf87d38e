//! # acmr-serve
//!
//! The live serving front end for the admission-control engine: a
//! TCP protocol (`ACMR-SERVE`, specified in `docs/SERVING.md`) that
//! drives one streaming [`acmr_core::Session`] per connection — the
//! production shape of the paper's online model, where requests
//! genuinely arrive one at a time over a wire and every accept/reject
//! decision is pushed back as it is made. Two wire dialects share the
//! grammar: the v1 line protocol, and the v2 binary-frame protocol
//! (negotiated at `OPEN` via `proto=v2`) whose arrival frames are
//! exactly ACMR-TRACE v2 record bytes, with batch-summary
//! acknowledgements and `RESET`-based session reuse.
//!
//! The crate is split along a sans-I/O seam, std-only (the workspace
//! builds offline, so polling comes from the vendored `polling` shim
//! — epoll on Linux — rather than an async runtime):
//!
//! * [`protocol`] — the wire grammar: the capped [`protocol::
//!   FrameReader`] both ends use, the stable `ERR` code table, the
//!   constants (`GREETING`, frame/batch caps), and the v2 binary
//!   codec ([`protocol::BinFrameReader`], [`protocol::BatchSummary`],
//!   the `RESET`/`OK` payloads). v1 arrival frames reuse the trace
//!   grammar of `docs/TRACE_FORMAT.md` via
//!   `acmr_workloads::trace::parse_request_line`; v2 arrival frames
//!   reuse `acmr_workloads::binfmt`'s record codec — so the socket
//!   and the file formats can never drift apart, in either dialect.
//! * [`machine`] / [`Connection`] — the sans-I/O protocol state
//!   machine: feed it bytes, drain reply bytes; both dialects, every
//!   typed `ERR`, the `STATS` counters — with no socket type in
//!   sight, so the fuzz and differential suites drive the full wire
//!   semantics in-process.
//! * [`serve`] / [`ServerHandle`] / [`SessionManager`] — the reactor:
//!   sharded event-loop threads ([`ServeConfig::reactor_threads`])
//!   pumping nonblocking sockets through one machine per connection
//!   over the shared [`acmr_core::Registry`], with a concurrent
//!   session table, an explicit overload policy (`ERR busy` past
//!   [`ServeConfig::max_connections`]), idle timeouts, backpressure,
//!   and graceful shutdown that closes live sockets and joins every
//!   shard.
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

pub use client::{fetch_stats, serve_trace, serve_trace_v2, ServeClient};
pub use machine::{Connection, MachineConfig, ServerCounters};
pub use pool::{is_transport_error, WorkerPool, CLUSTER_ERROR_CODE, LISTENING_PREFIX};
pub use protocol::{BatchSummary, ProtoVersion, StatsReport};
pub use server::{serve, ServeConfig, ServerHandle, SessionManager, SessionMeta, DEFAULT_ADDR};
