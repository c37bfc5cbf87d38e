//! The cross-process worker pool: spawn or adopt `acmr serve`
//! processes and replay whole jobs onto them with bounded retry.
//!
//! This is the process-level half of cluster sweeps
//! (`acmr_harness::ClusterDriver` is the driver half): a
//! [`WorkerPool`] holds one slot per worker process — either spawned
//! by [`WorkerPool::spawn_local`] (the `acmr run --cluster N` path,
//! which launches `acmr serve --addr 127.0.0.1:0` children and parses
//! the machine-readable `LISTENING <addr>` line they announce on
//! stderr) or adopted by [`WorkerPool::connect`] from pre-started
//! addresses (`--workers addr,addr,...`).
//!
//! Every job speaks protocol v2 — binary frames, batch-summary
//! acknowledgements, one persistent session per slot revived by
//! `RESET` — which every `acmr serve` accepts on the same port as v1.
//!
//! The retry contract, pinned by the protocol fuzz and
//! fault-injection suites:
//!
//! * A job is **one whole session**: connect, replay every arrival,
//!   `END`, read the final report. If the connection dies at *any*
//!   frame boundary — mid-handshake, mid-batch, before the report —
//!   the pool replays the **entire trace** on the next attempt as a
//!   fresh session. There is no such thing as resuming a
//!   half-replayed session: the engine's decisions depend on every
//!   prior arrival, so only a full replay preserves the decision
//!   stream.
//! * Only **transport** failures retry ([`is_transport_error`]):
//!   connection refused, a mid-stream I/O error, or a protocol-level
//!   drop (the server vanished without a terminal reply). A typed
//!   `ERR` reply from a live worker (unknown algorithm, parse error,
//!   contract violation) is the job's real answer and is returned
//!   immediately.
//! * A worker whose **connection attempt** fails is quarantined — a
//!   dead process stays dead, so later jobs skip it instead of paying
//!   a connect timeout each. A worker that drops an *established*
//!   session is not (the failure may be transient); the retry just
//!   moves on, to the next idle worker after the failed slot, or,
//!   when every other worker is busy, to the first alive one after
//!   it, never straight back to the slot that just failed (unless it
//!   is the only one alive).
//! * Retries are **bounded** ([`WorkerPool::retries`], default: one
//!   extra attempt per worker). Exhaustion surfaces one typed
//!   [`AcmrError::Remote`] with code [`CLUSTER_ERROR_CODE`] naming
//!   the last failure — never a panic, a hang, or a partial report.
//! * An `ERR busy` reply (the reactor's overload policy: the worker
//!   is past its `--max-conns` accept-queue cap) arrives as a typed
//!   remote error *before* any arrival is replayed. It is a reply
//!   from a live worker, not a transport drop, so it does **not**
//!   retry — size worker `--max-conns` above the driver's
//!   concurrency, and watch `busy_rejections` in the workers'
//!   `STATS` counters (`acmr stats --addr`) if sweeps start failing
//!   with it.
//!
//! Placement: a job runs on an **idle** worker whenever one is alive
//! (the first from its start slot onward), holding it until the
//! attempt ends; only when every alive worker is busy does it share
//! one. So callers that run at most one job per worker at a time never
//! queue a job on a busy worker, and each worker serves them all over
//! the one connection its first job opened.

use crate::client::{run_job_v2, JobArrivals, ServeClient};
use crate::protocol::ProtoVersion;
use acmr_core::{AcmrError, Request, RunReport};
use std::io::BufRead;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// First stderr line `acmr serve` prints: `LISTENING <host:port>`,
/// machine-parseable, naming the resolved bind address (so `--addr
/// HOST:0` workers are discoverable). [`WorkerPool::spawn_local`]
/// parses it; `tests/serve_cli.rs` pins it.
pub const LISTENING_PREFIX: &str = "LISTENING ";

/// The [`AcmrError::Remote`] code used when a pool exhausts its
/// retries (or runs out of alive workers) — distinct from every wire
/// code a worker itself can send, so "the cluster gave up" is
/// machine-distinguishable from "a worker said no".
pub const CLUSTER_ERROR_CODE: &str = "cluster";

/// True for failures of the *transport* between pool and worker —
/// the connection, not the job: I/O errors (refused connection,
/// reset, broken pipe, a read that timed out) and protocol-level
/// drops (`proto`: the server closed without a terminal reply, or
/// sent an unparseable frame). These are the errors a
/// [`WorkerPool`] retries on another worker; anything else — a typed
/// `ERR` reply from a live worker, a malformed trace — is the job's
/// real answer.
///
/// Caveat: a mid-replay I/O error from the *trace source* (e.g. a
/// file that turns unreadable) is indistinguishable by type and will
/// also be retried; the retry is bounded and the last error is
/// surfaced, so this costs attempts, never correctness.
pub fn is_transport_error(e: &AcmrError) -> bool {
    match e {
        AcmrError::Io { .. } => true,
        AcmrError::Remote { code, .. } => code == "proto",
        _ => false,
    }
}

/// One worker slot: a serving endpoint, its liveness flag, and — for
/// spawned-local workers — the child process handle.
struct Worker {
    addr: SocketAddr,
    /// Cleared when a **connection attempt** to this worker fails
    /// (the process is gone); quarantined workers are skipped.
    alive: AtomicBool,
    /// Jobs running on this worker right now (see [`Claim`]). A
    /// claim's release (`AcqRel` on drop, after a successful job has
    /// parked its connection) pairs with the acquire of the next
    /// claim's compare-exchange, so a job that finds the worker idle
    /// also finds its parked connection.
    jobs: AtomicUsize,
    /// The slot's cached v2 session: after a successful job the
    /// connection parks here post-`END`, and the next job revives it
    /// with a pipelined `RESET` instead of paying TCP connect +
    /// handshake again. Dropped on any failure — the whole-trace retry
    /// contract always replays on a fresh session.
    conn: Mutex<Option<ServeClient>>,
    /// The spawned `acmr serve` child; `None` for adopted workers.
    child: Mutex<Option<Child>>,
    /// The spawned child's stderr pipe, held open so the worker's
    /// later log lines land in the pipe buffer instead of killing it
    /// with a broken pipe. Never read after the `LISTENING` line.
    _stderr: Mutex<Option<std::io::BufReader<ChildStderr>>>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("addr", &self.addr)
            .field("alive", &self.alive)
            .finish_non_exhaustive()
    }
}

impl Worker {
    fn adopted(addr: SocketAddr) -> Self {
        Worker {
            addr,
            alive: AtomicBool::new(true),
            jobs: AtomicUsize::new(0),
            conn: Mutex::new(None),
            child: Mutex::new(None),
            _stderr: Mutex::new(None),
        }
    }

    /// Take the slot's cached session, if any.
    fn take_conn(&self) -> Option<ServeClient> {
        self.conn.lock().expect("worker conn lock poisoned").take()
    }

    /// Park a session for the next job on this slot.
    fn park_conn(&self, client: ServeClient) {
        *self.conn.lock().expect("worker conn lock poisoned") = Some(client);
    }

    /// Kill the spawned child, if any (idempotent; no-op for adopted
    /// workers).
    fn kill(&self) -> bool {
        let mut guard = self.child.lock().expect("worker child lock poisoned");
        match guard.take() {
            Some(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
                true
            }
            None => false,
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One job's hold on a worker slot, from the attempt that picks the
/// slot until the attempt ends, whichever way it ends, or, after a
/// transport failure, until the retry has claimed its own slot
/// (dropping the claim releases it).
struct Claim<'p> {
    slot: usize,
    worker: &'p Worker,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.worker.jobs.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Default bound on every socket operation a pool performs against a
/// worker — see [`WorkerPool::io_timeout`].
pub const DEFAULT_IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// A pool of `acmr serve` worker processes jobs can be replayed onto,
/// with bounded retry on transport failure — the process-level fan-out
/// substrate `acmr_harness::ClusterDriver` drives (see the module docs
/// for the retry contract).
///
/// ```no_run
/// use acmr_serve::WorkerPool;
///
/// // Adopt two pre-started `acmr serve` processes…
/// let pool = WorkerPool::connect(&["10.0.0.1:4790", "10.0.0.2:4790"])?;
/// // …or spawn local ones from the `acmr` binary:
/// let local = WorkerPool::spawn_local("/usr/local/bin/acmr", 4)?;
/// assert_eq!(local.len(), 4);
/// local.shutdown(); // kills the spawned children
/// # Ok::<(), acmr_core::AcmrError>(())
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
    retries: usize,
    io_timeout: std::time::Duration,
}

impl WorkerPool {
    /// Adopt pre-started workers by address (`host:port`). Addresses
    /// are resolved now but **probed lazily**: an unreachable worker
    /// surfaces as a typed error (after bounded retries) on the first
    /// job that lands on it, not here — adopting must not require the
    /// whole fleet to be up yet.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> Result<WorkerPool, AcmrError> {
        if addrs.is_empty() {
            return Err(AcmrError::InvalidRequest {
                reason: "a worker pool needs at least one worker address".into(),
            });
        }
        let mut workers = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let addr = addr.as_ref();
            let resolved = addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .ok_or_else(|| AcmrError::InvalidRequest {
                    reason: format!("cannot resolve worker address {addr:?}"),
                })?;
            workers.push(Worker::adopted(resolved));
        }
        let retries = workers.len();
        Ok(WorkerPool {
            workers,
            retries,
            io_timeout: DEFAULT_IO_TIMEOUT,
        })
    }

    /// Spawn `count` local worker processes: `<binary> serve --addr
    /// 127.0.0.1:0`, each announcing its kernel-assigned port via the
    /// machine-readable `LISTENING <addr>` first stderr line. The
    /// children are killed when the pool drops (or on
    /// [`WorkerPool::shutdown`]); a worker that fails to spawn or to
    /// announce tears the already-spawned ones down and returns a
    /// typed error.
    pub fn spawn_local(binary: impl AsRef<Path>, count: usize) -> Result<WorkerPool, AcmrError> {
        let binary = binary.as_ref();
        if count == 0 {
            return Err(AcmrError::InvalidRequest {
                reason: "a worker pool needs at least one worker".into(),
            });
        }
        let mut workers = Vec::with_capacity(count);
        for _ in 0..count {
            // On error the partial `workers` vec drops, killing the
            // children already spawned.
            workers.push(spawn_worker(binary)?);
        }
        Ok(WorkerPool {
            workers,
            retries: count,
            io_timeout: DEFAULT_IO_TIMEOUT,
        })
    }

    /// Bound the extra attempts a job gets after its first transport
    /// failure (default: the pool size, i.e. one fresh chance per
    /// worker). `0` disables retrying entirely.
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Bound every socket operation against a worker — connect, and
    /// each read/write of the session (default:
    /// [`DEFAULT_IO_TIMEOUT`], 30 s — generous for any single reply,
    /// since worker decisions are microseconds). This is what keeps
    /// the retry contract honest against a *partitioned* worker (a
    /// host that blackholes packets without ever sending FIN/RST):
    /// the stalled operation surfaces as a typed transport error and
    /// enters the normal retry path instead of hanging the job
    /// forever. Per-operation, not per-job: a long trace replay is
    /// fine as long as every individual reply keeps arriving.
    pub fn io_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Number of worker slots (alive or not).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the pool has no worker slots (never, after a
    /// successful constructor — both reject zero workers).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Workers not yet quarantined by a failed connection attempt.
    pub fn alive(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Every worker's serving address, in slot order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(|w| w.addr).collect()
    }

    /// Kill the spawned child process in slot `index` — the
    /// fault-injection hook (and an operator escape hatch). Returns
    /// `false` for adopted workers, out-of-range slots, and already-
    /// killed children. The slot is **not** quarantined: the pool
    /// discovers the death the honest way, through a failed
    /// connection.
    pub fn kill_worker(&self, index: usize) -> bool {
        self.workers.get(index).is_some_and(|w| w.kill())
    }

    /// Tear the pool down, killing every spawned child (adopted
    /// workers are left running — the pool does not own them).
    /// Dropping the pool does the same; this is the explicit spelling.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Claim a worker for one attempt: the first idle alive worker
    /// at or after slot `cursor`, or — only when every alive worker is
    /// busy — the first alive one, which then runs two jobs at once.
    /// `None` when every worker is quarantined.
    fn claim(&self, cursor: usize) -> Option<Claim<'_>> {
        let n = self.workers.len();
        let mut alive = (0..n)
            .map(|k| (cursor + k) % n)
            .filter(|&w| self.workers[w].alive.load(Ordering::Relaxed));
        let first = alive.next()?;
        let idle = std::iter::once(first).chain(alive).find(|&w| {
            self.workers[w]
                .jobs
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        });
        let slot = idle.unwrap_or_else(|| {
            self.workers[first].jobs.fetch_add(1, Ordering::AcqRel);
            first
        });
        Some(Claim {
            slot,
            worker: &self.workers[slot],
        })
    }

    /// Run one whole job — open a session for `spec` (seeded like
    /// [`ServeClient::connect`]), replay every arrival `source`
    /// yields in `BATCH` frames of `batch` (or one frame per arrival
    /// when `None`), `END`, return the final report — retrying the
    /// **whole trace** on the next worker after a transport failure,
    /// up to the pool's retry bound.
    ///
    /// Placement: each attempt claims the first *idle* alive worker
    /// at or after slot `start % len` (after a failure, after the
    /// failed slot, which stays claimed until the retry has picked
    /// its worker) and holds it until the attempt ends, success,
    /// error or retry alike. Only when every alive worker is busy
    /// does the attempt share the first alive one, so concurrent
    /// callers never stack two jobs on one worker while another
    /// idles, and a job always finds the slot's parked connection
    /// when the slot was idle.
    ///
    /// Every job speaks protocol v2. Its replay is pipelined — the
    /// whole trace streams out before any acknowledgement is read —
    /// and the slot's connection is kept across jobs: the next job on
    /// the slot revives it with a `RESET` frame instead of a fresh TCP
    /// connect + handshake. A stale cached connection (worker
    /// restarted, idle timeout fired) falls back to a fresh connect
    /// *within the same attempt* — reviving the cache never costs the
    /// job one of its bounded attempts. When the arrivals come from a
    /// binary trace ([`JobArrivals::records`]), each `BATCH` payload
    /// is the trace's own record bytes, checked but not decoded.
    ///
    /// `source` is called per replay and must produce the edge
    /// capacities plus a fresh arrival iterator from the top — that is
    /// what makes a retry a full replay rather than a half-replayed
    /// session (a stale-cache fallback can call it twice in one
    /// attempt). An error from `source` itself (e.g. the trace file
    /// is missing), or a parse error from the arrivals it yields (a
    /// malformed record), is returned as-is, without consuming an
    /// attempt; an I/O error from the arrivals is retried (see the
    /// caveat on [`is_transport_error`]).
    pub fn run_job<I, F>(
        &self,
        start: usize,
        spec: &str,
        base_seed: Option<u64>,
        batch: Option<usize>,
        source: F,
    ) -> Result<RunReport, AcmrError>
    where
        F: Fn() -> Result<(Vec<u32>, I), AcmrError>,
        I: IntoIterator<Item = Result<Request, AcmrError>>,
        I::IntoIter: JobArrivals,
    {
        if batch == Some(0) {
            return Err(AcmrError::InvalidRequest {
                reason: "batch size must be at least 1".to_string(),
            });
        }
        let n = self.workers.len();
        let max_attempts = self.retries.saturating_add(1);
        let mut cursor = start % n;
        let mut last_failure: Option<(SocketAddr, AcmrError)> = None;
        // The current attempt's claim. A failed attempt keeps its slot
        // claimed until the next claim is taken, so the retry's scan
        // sees the failed worker as busy and moves on, or shares the
        // first alive worker after it when all others are busy.
        let mut held: Option<Claim<'_>> = None;
        for attempt in 0..max_attempts {
            let Some(claim) = self.claim(cursor) else {
                return Err(self.exhausted("no alive workers left", attempt, last_failure));
            };
            let claim = held.insert(claim);
            let (slot, worker) = (claim.slot, claim.worker);
            // Persistent-session fast path: revive the slot's parked
            // connection with a pipelined RESET. A stale cached
            // connection (the worker restarted, an idle timeout fired)
            // surfaces as a transport error and falls through to the
            // fresh-connect path below — same slot, same attempt.
            if let Some(mut client) = worker.take_conn() {
                let (capacities, arrivals) = source()?;
                let outcome = client
                    .write_reset(spec, base_seed, &capacities)
                    .and_then(|()| run_job_v2(&mut client, arrivals.into_iter(), batch, true));
                match outcome {
                    Ok(report) => {
                        worker.park_conn(client);
                        return Ok(report);
                    }
                    // Stale cache: drop the client, fall through.
                    Err(e) if is_transport_error(&e) => drop(client),
                    // A typed answer from a live worker is the job's
                    // real answer, cache or no cache.
                    Err(e) => return Err(e),
                }
            }
            let (capacities, arrivals) = source()?;
            // The pool owns the TCP connect so a *connection* failure
            // (the worker process is gone — quarantine the slot) is
            // structurally distinct from a later handshake or
            // mid-session failure (maybe transient — retry elsewhere,
            // no quarantine).
            let stream = match std::net::TcpStream::connect_timeout(&worker.addr, self.io_timeout) {
                Ok(stream) => stream,
                Err(e) => {
                    worker.alive.store(false, Ordering::Relaxed);
                    last_failure = Some((
                        worker.addr,
                        AcmrError::Io {
                            message: format!("cannot connect to worker {}: {e}", worker.addr),
                        },
                    ));
                    cursor = (slot + 1) % n;
                    continue;
                }
            };
            // Deadline every read/write too: a partitioned worker
            // (blackholed packets, no FIN/RST) must surface as a
            // typed transport error on the retry path, never hang
            // the job. Decisions are microseconds; any reply that
            // takes longer than the timeout means the worker is gone.
            let _ = stream.set_read_timeout(Some(self.io_timeout));
            let _ = stream.set_write_timeout(Some(self.io_timeout));
            let outcome = ServeClient::open(
                stream,
                spec,
                base_seed,
                &capacities,
                ProtoVersion::V2,
                false,
            )
            .and_then(|mut client| {
                let report = run_job_v2(&mut client, arrivals.into_iter(), batch, false)?;
                // Success parks the post-END session for the next
                // job on this slot.
                worker.park_conn(client);
                Ok(report)
            });
            match outcome {
                Ok(report) => return Ok(report),
                Err(e) if is_transport_error(&e) => {
                    last_failure = Some((worker.addr, e));
                    cursor = (slot + 1) % n;
                }
                Err(e) => return Err(e),
            }
        }
        Err(self.exhausted("retries exhausted", max_attempts, last_failure))
    }

    fn exhausted(
        &self,
        why: &str,
        attempts: usize,
        last_failure: Option<(SocketAddr, AcmrError)>,
    ) -> AcmrError {
        let detail = match last_failure {
            Some((addr, e)) => format!("; last failure on {addr}: {e}"),
            None => String::new(),
        };
        AcmrError::Remote {
            code: CLUSTER_ERROR_CODE.into(),
            message: format!(
                "{why} after {attempts} attempt(s) across {} worker(s){detail}",
                self.workers.len()
            ),
        }
    }
}

/// How long a spawned worker gets to announce its address before the
/// pool gives up on it — generous (a cold binary on a loaded box) but
/// finite, so a binary that serves without ever announcing can never
/// hang `spawn_local`.
const ANNOUNCE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Spawn one `acmr serve --addr 127.0.0.1:0` child and parse the
/// `LISTENING <addr>` line it announces on stderr — under a deadline:
/// the blocking stderr read runs on a helper thread, and a child that
/// neither announces nor exits within [`ANNOUNCE_TIMEOUT`] is killed
/// and reported as a typed error (the kill closes the pipe, which
/// unblocks and ends the helper).
fn spawn_worker(binary: &Path) -> Result<Worker, AcmrError> {
    let mut child = Command::new(binary)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| AcmrError::Io {
            message: format!("cannot spawn worker {}: {e}", binary.display()),
        })?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(stderr);
        let mut line = String::new();
        let outcome = reader.read_line(&mut line);
        // The receiver may have timed out and gone; ignore send errors.
        let _ = tx.send((outcome.unwrap_or(0), line, reader));
    });
    let announced = rx.recv_timeout(ANNOUNCE_TIMEOUT);
    let (addr, got) = match &announced {
        Ok((n, line, _)) if *n > 0 => (
            line.trim()
                .strip_prefix(LISTENING_PREFIX)
                .and_then(|rest| rest.trim().parse::<SocketAddr>().ok()),
            format!("got {:?}", line.trim()),
        ),
        Ok(_) => (None, "the worker exited without announcing".to_string()),
        Err(_) => (
            None,
            format!("no announcement within {}s", ANNOUNCE_TIMEOUT.as_secs()),
        ),
    };
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(AcmrError::Io {
            message: format!(
                "worker {} did not announce `{LISTENING_PREFIX}<addr>` on stderr ({got})",
                binary.display()
            ),
        });
    };
    let reader = match announced {
        Ok((_, _, reader)) => Some(reader),
        Err(_) => unreachable!("addr parsed implies a received announcement"),
    };
    Ok(Worker {
        addr,
        alive: AtomicBool::new(true),
        jobs: AtomicUsize::new(0),
        conn: Mutex::new(None),
        child: Mutex::new(Some(child)),
        _stderr: Mutex::new(reader),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_classification_is_exact() {
        assert!(is_transport_error(&AcmrError::Io {
            message: "cannot connect to acmr serve: refused".into()
        }));
        assert!(is_transport_error(&AcmrError::Remote {
            code: "proto".into(),
            message: "server closed the connection without a reply".into()
        }));
        // A worker's typed ERR reply is an answer, not a transport
        // failure — it must never be retried.
        assert!(!is_transport_error(&AcmrError::Remote {
            code: "unknown-algorithm".into(),
            message: "unknown algorithm \"nope\"".into()
        }));
        assert!(!is_transport_error(&AcmrError::TraceParse {
            line: 3,
            message: "bad cost".into()
        }));
        assert!(!is_transport_error(&AcmrError::SessionPoisoned));
    }

    #[test]
    fn constructors_reject_empty_pools() {
        let err = WorkerPool::connect::<&str>(&[]).unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }), "{err}");
        let err = WorkerPool::spawn_local("/bin/true", 0).unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }), "{err}");
        let err = WorkerPool::connect(&["not an address"]).unwrap_err();
        assert!(err.to_string().contains("cannot resolve"), "{err}");
    }

    #[test]
    fn spawn_local_rejects_a_binary_that_never_announces() {
        // `/bin/true` exits immediately without a LISTENING line.
        let err = WorkerPool::spawn_local("/bin/true", 1).unwrap_err();
        assert!(err.to_string().contains("LISTENING"), "{err}");
        // A binary that cannot be spawned at all is a typed error too.
        let err = WorkerPool::spawn_local("/no/such/binary", 1).unwrap_err();
        assert!(err.to_string().contains("cannot spawn"), "{err}");
    }

    #[test]
    fn unreachable_workers_exhaust_into_one_typed_cluster_error() {
        // Reserve a port nothing listens on (bind, read, drop).
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = probe.local_addr().unwrap().to_string();
        drop(probe);
        let pool = WorkerPool::connect(&[dead.as_str()]).unwrap().retries(2);
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
        let err = pool
            .run_job(0, "greedy", None, None, || {
                Ok((vec![1u32], Vec::<Request>::new().into_iter().map(Ok)))
            })
            .unwrap_err();
        match &err {
            AcmrError::Remote { code, message } => {
                assert_eq!(code, CLUSTER_ERROR_CODE);
                assert!(message.contains("attempt"), "{message}");
            }
            other => panic!("expected a cluster error, got {other:?}"),
        }
        // The failed connection quarantined the only worker.
        assert_eq!(pool.alive(), 0);
        // …so the next job fails fast on the no-alive-workers path,
        // still as one typed cluster error.
        let err = pool
            .run_job(0, "greedy", None, None, || {
                Ok((vec![1u32], Vec::<Request>::new().into_iter().map(Ok)))
            })
            .unwrap_err();
        assert!(
            matches!(&err, AcmrError::Remote { code, .. } if code == CLUSTER_ERROR_CODE),
            "{err}"
        );
    }

    #[test]
    fn source_errors_are_returned_raw_without_burning_attempts() {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = probe.local_addr().unwrap().to_string();
        drop(probe);
        let pool = WorkerPool::connect(&[dead.as_str()]).unwrap();
        // The trace source failing (missing file, bad header) is the
        // caller's error, surfaced as-is — not wrapped in a cluster
        // error, exactly like ShardedDriver surfaces it.
        let err = pool
            .run_job(0, "greedy", None, None, || {
                Err::<(Vec<u32>, Box<dyn JobArrivals>), _>(AcmrError::Io {
                    message: "cannot open trace /no/such.trace".into(),
                })
            })
            .unwrap_err();
        assert!(
            matches!(&err, AcmrError::Io { message } if message.contains("/no/such.trace")),
            "{err}"
        );
    }

    #[test]
    fn a_silent_worker_times_out_into_a_typed_error_instead_of_hanging() {
        // A listener that never accepts: the kernel completes the TCP
        // handshake from the backlog, so connecting succeeds — then
        // the greeting never comes. The io_timeout must cut the read
        // loose as a typed transport error on the retry path; without
        // it this test would hang forever, which is exactly the bug.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = silent.local_addr().unwrap().to_string();
        let pool = WorkerPool::connect(&[addr.as_str()])
            .unwrap()
            .retries(1)
            .io_timeout(std::time::Duration::from_millis(200));
        let start = std::time::Instant::now();
        let err = pool
            .run_job(0, "greedy", None, None, || {
                Ok((vec![1u32], Vec::<Request>::new().into_iter().map(Ok)))
            })
            .unwrap_err();
        assert!(
            matches!(&err, AcmrError::Remote { code, .. } if code == CLUSTER_ERROR_CODE),
            "{err}"
        );
        // Two bounded attempts at 200 ms each, not an unbounded hang.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "timed out too slowly: {:?}",
            start.elapsed()
        );
        drop(silent);
    }

    #[test]
    fn quarantined_start_slot_is_skipped_without_burning_an_attempt() {
        // Regression: a job whose round-robin *start* slot is already
        // quarantined must begin on the next alive worker in its very
        // first attempt — the quarantine exists precisely so later
        // jobs stop paying for a worker known to be dead.
        let mut registry = acmr_core::Registry::new();
        acmr_core::register_core(&mut registry);
        let dead = crate::server::serve(
            registry,
            crate::server::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..crate::server::ServeConfig::default()
            },
        )
        .expect("bind doomed worker");
        let mut registry = acmr_core::Registry::new();
        acmr_core::register_core(&mut registry);
        let alive = crate::server::serve(
            registry,
            crate::server::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..crate::server::ServeConfig::default()
            },
        )
        .expect("bind surviving worker");
        let dead_addr = dead.local_addr().to_string();
        dead.shutdown(); // worker 0's port now refuses connections
        let pool =
            WorkerPool::connect(&[dead_addr, alive.local_addr().to_string()]).expect("adopt");
        let source = || {
            Ok((
                vec![1u32],
                vec![Request::unit(acmr_graph::EdgeSet::singleton(
                    acmr_graph::EdgeId(0),
                ))]
                .into_iter()
                .map(Ok),
            ))
        };
        // Job 1 starts on the dead slot: its connect fails, the slot
        // is quarantined, and the bounded retry carries it to the
        // survivor.
        let report = pool
            .run_job(0, "aag-unweighted", None, None, source)
            .expect("job 1");
        assert_eq!(report.requests, 1);
        assert_eq!(pool.alive(), 1);
        // Job 2 also *starts* at slot 0 — but with zero retries left
        // it only succeeds if the quarantined slot is skipped when
        // picking the first worker, not discovered again the hard way.
        let pool = pool.retries(0);
        let report = pool
            .run_job(0, "aag-unweighted", None, None, source)
            .expect(
                "a job starting on a quarantined slot must begin on the next alive worker \
             in its first attempt",
            );
        assert_eq!(report.requests, 1);
        alive.shutdown();
    }

    #[test]
    fn a_retry_moves_off_a_stalled_worker_even_when_the_others_are_busy() {
        // Slot 0 never greets: connecting succeeds (the kernel's
        // backlog), then the handshake times out, a transport failure
        // that does not quarantine it. Slot 1 is live but busy with
        // another job. With one retry, a job starting at slot 0 must
        // retry on slot 1, sharing it, and not go back to the slot
        // that just failed, although that attempt is over by the time
        // the retry picks a worker.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut registry = acmr_core::Registry::new();
        acmr_core::register_core(&mut registry);
        let live = crate::server::serve(
            registry,
            crate::server::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..crate::server::ServeConfig::default()
            },
        )
        .expect("bind live worker");
        let pool = WorkerPool::connect(&[
            silent.local_addr().unwrap().to_string(),
            live.local_addr().to_string(),
        ])
        .unwrap()
        .retries(1)
        .io_timeout(std::time::Duration::from_millis(200));
        let request = || Request::unit(acmr_graph::EdgeSet::singleton(acmr_graph::EdgeId(0)));
        let (started, busy) = std::sync::mpsc::channel();
        let (done, release) = std::sync::mpsc::channel::<()>();
        let (held, tested) = std::thread::scope(|scope| {
            // The busy job holds slot 1 from its claim until the job
            // under test has finished: its one arrival waits for it.
            let pool = &pool;
            let holder = scope.spawn(move || {
                let release = &release;
                pool.run_job(1, "aag-unweighted", None, None, move || {
                    let _ = started.send(());
                    let wait = std::iter::once(()).map(move |()| {
                        let _ = release.recv_timeout(std::time::Duration::from_secs(10));
                        Ok(request())
                    });
                    Ok((vec![1u32], wait))
                })
            });
            busy.recv_timeout(std::time::Duration::from_secs(10))
                .expect("the busy job claimed its worker");
            let tested = pool.run_job(0, "aag-unweighted", None, None, || {
                Ok((vec![1u32], vec![request()].into_iter().map(Ok)))
            });
            let _ = done.send(());
            (holder.join().unwrap(), tested)
        });
        let tested = tested.expect("the retry must leave the worker that just failed");
        assert_eq!(tested.requests, 1);
        assert_eq!(held.expect("busy job").requests, 1);
        assert_eq!(pool.alive(), 2, "a stalled worker is not quarantined");
        live.shutdown();
        drop(silent);
    }

    #[test]
    fn batch_zero_is_rejected_upfront() {
        let pool = WorkerPool::connect(&["127.0.0.1:1"]).unwrap();
        let err = pool
            .run_job(0, "greedy", None, Some(0), || {
                Ok((vec![1u32], Vec::<Request>::new().into_iter().map(Ok)))
            })
            .unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }), "{err}");
    }
}
