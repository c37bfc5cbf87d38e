//! The reader seam between trace storage and the streaming engine.
//!
//! [`Session::run_stream_batched`](crate::Session::run_stream_batched)
//! accepts any fallible iterator of requests, but the harness's
//! two-pass runner needs a little more than arrivals: the capacity
//! table (to build the session) and the declared request count (to
//! size buffers and detect truncation). [`RequestSource`] names
//! exactly that contract, so the
//! harness can be generic over *how a trace is stored* — plain-text
//! lines or binary records in a zero-copy memory mapping — while every
//! storage format keeps one behavior: header metadata up front, then
//! one `Result<Request, _>` per arrival, with typed errors and never a
//! panic on malformed input.
//!
//! Implementations live in `acmr-workloads` (`TraceReader`,
//! `BinMapReader`, and the format-sniffing `AnyTraceReader`); this
//! crate only defines the seam so the engine does not depend on any
//! particular format.

use crate::error::AcmrError;
use crate::instance::Request;

/// A streaming source of admission requests with header metadata.
///
/// The iterator contract matches what
/// [`Session::run_stream_batched`](crate::Session::run_stream_batched)
/// expects: one `Ok(request)` per arrival, a typed `Err` on malformed
/// input or I/O failure (after which the source is poisoned and
/// repeats the error), and `None` only at a *clean* end of trace.
pub trait RequestSource: Iterator<Item = Result<Request, AcmrError>> {
    /// Edge capacities from the trace header — what a session over
    /// this source must be built with.
    fn capacities(&self) -> &[u32];

    /// Request count declared by the trace header. The body is still
    /// verified against it while iterating (a short stream is a
    /// truncation error, extra content a trailing-content error).
    fn declared_requests(&self) -> u64;

    /// Pull the next request, `Ok(None)` at a clean end of trace — the
    /// `Result`-first shape of [`Iterator::next`].
    fn next_request(&mut self) -> Result<Option<Request>, AcmrError> {
        self.next().transpose()
    }
}

impl<S: RequestSource + ?Sized> RequestSource for &mut S {
    fn capacities(&self) -> &[u32] {
        (**self).capacities()
    }

    fn declared_requests(&self) -> u64 {
        (**self).declared_requests()
    }
}
