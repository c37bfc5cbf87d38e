//! The serving front end: a sharded nonblocking reactor driving one
//! sans-I/O [`Connection`] machine per socket.
//!
//! All protocol logic — handshake, both wire dialects, `STATS`, the
//! typed `ERR` surface — lives in [`crate::machine`], which decodes
//! either dialect into the same session steps and runs them through
//! one executor; this module is the *driver*: it owns the listener,
//! the accept thread, and N event-loop shards (`--reactor-threads`),
//! and its whole job is to move bytes between nonblocking
//! `TcpStream`s and machines. Each shard blocks in a level-triggered
//! [`polling::Poller`] (epoll on Linux, with portable fallbacks — see
//! the vendored shim), feeds whatever arrives into the owning
//! machine, and ships whatever the machine queued. Each socket has
//! one owner, the shard holding it, which also closes it: when the
//! connection ends, or in the shard's teardown on graceful shutdown.
//! Live sessions and connections are counted once, in the
//! [`ServerCounters`] every machine shares — the numbers `STATS`
//! reports. One shard multiplexes thousands of connections on one
//! thread — the front-door shape the thread-per-connection server
//! could not take past a few hundred peers (`BENCH_connections.json`
//! is the receipt).
//!
//! Overload is an explicit accept-queue policy now: past
//! [`ServeConfig::max_connections`] open connections, an accepted
//! socket gets the greeting, one typed `ERR busy` reply, the polite
//! drain-before-close — and never a thread. The same drain courtesy
//! ends every connection: closing with unread peer bytes pending
//! makes the OS send RST, which can discard the final
//! `ERR`/`REPORT` the peer has not read yet, so the reactor
//! half-closes, keeps reading (bounded in time and bytes), then
//! closes. Error handling is unchanged from the thread server — the
//! machine turns every failure, an algorithm's panic included, into
//! one typed `ERR` reply, and the *process* never dies on a bad
//! stream; the protocol fuzz suite still pins that, byte for byte.

use crate::machine::{Connection, MachineConfig, ServerCounters};
use acmr_core::{AcmrError, Registry};
use polling::{Event, Poller};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The address `acmr serve` and `acmr client` default to.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4790";

/// How long (and how many bytes) the drain-before-close phase reads
/// a peer's leftover bytes before closing for real.
const DRAIN_DEADLINE: Duration = Duration::from_millis(500);
const DRAIN_BUDGET: usize = 8 * 1024 * 1024;

/// Stop feeding a machine more input while this much reply output is
/// still queued — backpressure against a peer that writes fast and
/// reads slowly, bounding per-connection memory.
const HIGH_WATERMARK: usize = 1024 * 1024;

/// Most bytes one connection may read per readiness wake-up, so a
/// firehose peer cannot starve its shard siblings (the poller is
/// level-triggered: leftover bytes re-arm immediately).
const READ_QUANTUM: usize = 256 * 1024;

/// A shard re-checks its stop flag and timers at least this often.
const TICK: Duration = Duration::from_millis(500);

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port `0` picks an ephemeral one —
    /// read it back from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Maximum concurrent connections — the accept-queue cap. Further
    /// connections get the greeting and a typed `ERR busy` reply,
    /// then are closed (with the usual drain courtesy); never a
    /// silent drop, and never a thread.
    pub max_connections: usize,
    /// Optional idle cutoff. `None` (the default) lets a session
    /// idle forever — right for genuinely sparse live traffic, but it
    /// means a silent peer holds its connection slot until it hangs
    /// up or the server shuts down. Set it to bound how long a
    /// stalled peer can pin a `max_connections` slot; the cutoff
    /// surfaces as a terminal `ERR io` reply.
    pub idle_timeout: Option<Duration>,
    /// Event-loop shards. `0` (the default) sizes to the host's
    /// available parallelism, capped at 8 — each shard is one thread
    /// multiplexing its share of the connections, so more shards only
    /// help while there are cores to run them (`docs/OPERATIONS.md`
    /// has the tuning guidance).
    pub reactor_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            max_connections: 1024,
            idle_timeout: None,
            reactor_threads: 0,
        }
    }
}

fn effective_reactor_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Handle to a running server: its bound address, its
/// [`ServerCounters`], and the shutdown switch. Dropping the handle
/// shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    counters: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-wide counters a `STATS` request reports: live and
    /// total connections and sessions among them.
    pub fn counters(&self) -> &Arc<ServerCounters> {
        &self.counters
    }

    /// Block until the server exits (i.e. until another thread calls
    /// [`ServerHandle::shutdown`] or the process dies) — what `acmr
    /// serve` does after printing the listening line.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Graceful shutdown: stop accepting, and join every reactor
    /// shard, each of which closes its live connections (pre-handshake
    /// ones included) on the way out, before returning. In-flight
    /// frames that already reached the engine stay applied; clients
    /// see their connection close.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection; it checks
        // the stop flag before serving anything. A wildcard bind
        // (0.0.0.0 / ::) is not self-connectable on every platform,
        // so fall back to loopback on the same port.
        let wake = Duration::from_secs(2);
        if TcpStream::connect_timeout(&self.addr, wake).is_err() {
            let loopback = SocketAddr::new(std::net::Ipv4Addr::LOCALHOST.into(), self.addr.port());
            let _ = TcpStream::connect_timeout(&loopback, wake);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_in_place();
        }
    }
}

/// Bind `config.addr` and serve the registry's algorithms until
/// [`ServerHandle::shutdown`]. Connections are multiplexed across
/// [`ServeConfig::reactor_threads`] event-loop shards; the returned
/// handle owns the accept thread (which in turn owns the shards).
///
/// ```
/// use acmr_core::{register_core, Registry};
/// use acmr_serve::{serve, ServeConfig};
///
/// let mut registry = Registry::new();
/// register_core(&mut registry);
/// let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
/// let handle = serve(registry, config)?;
/// assert_ne!(handle.local_addr().port(), 0); // ephemeral port resolved
/// handle.shutdown(); // graceful: joins every reactor shard
/// # Ok::<(), acmr_core::AcmrError>(())
/// ```
pub fn serve(registry: Registry, config: ServeConfig) -> Result<ServerHandle, AcmrError> {
    let listener = TcpListener::bind(&config.addr).map_err(|e| AcmrError::Io {
        message: format!("cannot bind {}: {e}", config.addr),
    })?;
    let addr = listener.local_addr().map_err(|e| AcmrError::Io {
        message: format!("cannot read bound address: {e}"),
    })?;
    let counters = Arc::new(ServerCounters::default());
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(registry);
    let started = Instant::now();

    let mut shards = Vec::new();
    for _ in 0..effective_reactor_threads(config.reactor_threads) {
        let poller = Arc::new(Poller::new().map_err(|e| AcmrError::Io {
            message: format!("cannot create poller: {e}"),
        })?);
        let (tx, rx) = std::sync::mpsc::channel();
        let shard = ShardCtx {
            poller: Arc::clone(&poller),
            rx,
            registry: Arc::clone(&registry),
            counters: Arc::clone(&counters),
            stop: Arc::clone(&stop),
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            started,
            draining_conns: Cell::new(0),
        };
        let thread = std::thread::spawn(move || shard.run());
        shards.push(ShardHandle { poller, tx, thread });
    }

    let accept = {
        let counters = Arc::clone(&counters);
        let stop = Arc::clone(&stop);
        let max_connections = config.max_connections;
        std::thread::spawn(move || accept_loop(listener, counters, stop, max_connections, shards))
    };

    Ok(ServerHandle {
        addr,
        counters,
        stop,
        accept: Some(accept),
    })
}

/// A freshly accepted connection on its way to a shard.
struct NewConn {
    stream: TcpStream,
    /// Over the accept-queue cap: the shard delivers the typed busy
    /// reply and closes — the machine never sees peer input.
    busy: bool,
}

struct ShardHandle {
    poller: Arc<Poller>,
    tx: Sender<NewConn>,
    thread: JoinHandle<()>,
}

fn accept_loop(
    listener: TcpListener,
    counters: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
    max_connections: usize,
    shards: Vec<ShardHandle>,
) {
    let mut next_shard = 0usize;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Replies are small frames on a request/response rhythm:
        // Nagle + delayed ACK would add ~40 ms stalls per batched
        // reply, so turn it off (the serving bench pins throughput).
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue; // cannot be reactor-driven; drop it
        }
        counters.connections_opened.fetch_add(1, Ordering::Relaxed);
        // The overload policy: past the cap, the connection exists
        // only to carry its `ERR busy` reply. Busy connections do not
        // count toward the active gauge (they never occupy a slot).
        let busy = counters.connections_active.load(Ordering::Relaxed) >= max_connections as u64;
        if busy {
            counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.connections_active.fetch_add(1, Ordering::Relaxed);
        }
        let shard = &shards[next_shard % shards.len()];
        next_shard += 1;
        match shard.tx.send(NewConn { stream, busy }) {
            Ok(()) => {
                let _ = shard.poller.notify();
            }
            // The shard is gone (shutdown raced this accept, or it
            // died): release what this accept took, or the gauge leaks
            // toward `ERR busy` and the peer waits on an open socket.
            Err(SendError(lost)) => {
                if !lost.busy {
                    counters.connections_active.fetch_sub(1, Ordering::Relaxed);
                }
                let _ = lost.stream.shutdown(Shutdown::Both);
            }
        }
    }
    // Stop: wake every shard (each also re-checks its flag at least
    // once per tick) and join them. Each shard's teardown closes its
    // connections; a hand-off still queued closes when the shard's
    // receiver drops.
    for shard in &shards {
        let _ = shard.poller.notify();
    }
    for shard in shards {
        drop(shard.tx);
        let _ = shard.thread.join();
    }
}

/// Everything one event-loop shard owns.
struct ShardCtx {
    poller: Arc<Poller>,
    rx: Receiver<NewConn>,
    registry: Arc<Registry>,
    counters: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    started: Instant,
    /// How many of this shard's connections are in the drain phase.
    /// Kept so `next_wakeup`/`sweep` can skip their whole-table scans
    /// when no timer can possibly be pending — the difference between
    /// O(ready) and O(connections) per wakeup once thousands of idle
    /// connections are parked on the shard (see the E17 bench).
    draining_conns: Cell<usize>,
}

/// One connection as the shard sees it: the socket, its machine, and
/// the driver-side bookkeeping the machine must not know about.
struct Conn {
    stream: TcpStream,
    /// Poller key; allocated per shard, never reused.
    key: usize,
    machine: Connection,
    last_activity: Instant,
    /// Set once the peer's read half returned EOF.
    peer_eof: bool,
    /// Set when the transport errored; the connection closes without
    /// further courtesy.
    dead: bool,
    /// Non-`None` once the machine finished and its output flushed:
    /// the half-closed drain-before-close phase.
    draining: Option<Drain>,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
    /// Whether this connection holds a `connections_active` slot.
    counted: bool,
}

struct Drain {
    deadline: Instant,
    budget: usize,
}

impl ShardCtx {
    fn run(self) {
        let mut conns: HashMap<usize, Conn> = HashMap::new();
        let mut next_key = 0usize;
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        // Every read of this shard lands here: allocated and zeroed
        // once, not per readable event.
        let mut read_buf = vec![0u8; 64 * 1024];
        loop {
            self.counters
                .uptime_ms
                .store(self.started.elapsed().as_millis() as u64, Ordering::Relaxed);
            // Adopt newly accepted connections.
            while let Ok(new_conn) = self.rx.try_recv() {
                self.install(new_conn, &mut conns, &mut next_key);
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.next_wakeup(&conns);
            let _ = self.poller.wait(&mut events, Some(timeout));
            let now = Instant::now();
            touched.clear();
            for event in &events {
                let Some(conn) = conns.get_mut(&event.key) else {
                    continue; // closed earlier in this very batch
                };
                if event.readable {
                    read_some(conn, now, &mut read_buf);
                }
                touched.push(event.key);
            }
            for &key in &touched {
                if let Some(conn) = conns.get_mut(&key) {
                    self.settle(conn, now);
                    if conn_finished(conn, now) {
                        self.close(conns.remove(&key).expect("settled conn"), key);
                    }
                }
            }
            self.sweep(&mut conns, now);
        }
        // Shard teardown (graceful shutdown): the shard owns its
        // sockets, so it closes every one, pre-handshake included.
        for (key, conn) in conns.drain() {
            self.close(conn, key);
        }
    }

    /// The earliest reason to wake without I/O: idle cutoffs, drain
    /// deadlines, or the regular stop-flag tick.
    fn next_wakeup(&self, conns: &HashMap<usize, Conn>) -> Duration {
        let mut timeout = TICK;
        if self.idle_timeout.is_none() && self.draining_conns.get() == 0 {
            return timeout; // no per-connection timer can be pending
        }
        for conn in conns.values() {
            let deadline = match (&conn.draining, self.idle_timeout) {
                (Some(drain), _) => Some(drain.deadline),
                (None, Some(idle)) => Some(conn.last_activity + idle),
                (None, None) => None,
            };
            if let Some(deadline) = deadline {
                timeout = timeout.min(deadline.saturating_duration_since(Instant::now()));
            }
        }
        timeout
    }

    fn install(&self, new_conn: NewConn, conns: &mut HashMap<usize, Conn>, next_key: &mut usize) {
        let NewConn { stream, busy } = new_conn;
        let mut machine = Connection::new(
            Arc::clone(&self.registry),
            MachineConfig {
                server: Arc::clone(&self.counters),
            },
        );
        if busy {
            machine.fail(&AcmrError::Busy {
                message: format!("server at its {}-connection capacity", self.max_connections),
            });
        }
        let key = *next_key;
        *next_key += 1;
        // Greeting (and possibly the busy reply) is already queued, so
        // the initial interest is read+write; the first settle rights
        // it.
        let interest = (true, true);
        if self.poller.add(&stream, Event::all(key)).is_err() {
            // Cannot poll it — close immediately (best effort: the
            // greeting was never written).
            if !busy {
                self.counters
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            }
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        conns.insert(
            key,
            Conn {
                stream,
                key,
                machine,
                last_activity: Instant::now(),
                peer_eof: false,
                dead: false,
                draining: None,
                interest,
                counted: !busy,
            },
        );
    }

    /// Post-I/O bookkeeping for one connection: flush queued output,
    /// enter the drain phase when the machine finishes, and
    /// re-register interest.
    fn settle(&self, conn: &mut Conn, now: Instant) {
        flush(conn);
        if conn.machine.is_done()
            && conn.machine.pending_output().is_empty()
            && conn.draining.is_none()
            && !conn.dead
        {
            // Reply delivered: half-close and politely drain whatever
            // the peer was still sending, so the kernel never RSTs
            // away a reply the peer has not read yet.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.draining = Some(Drain {
                deadline: now + DRAIN_DEADLINE,
                budget: DRAIN_BUDGET,
            });
            self.draining_conns.set(self.draining_conns.get() + 1);
        }
        let desired = (
            !conn.peer_eof && !conn.dead,
            !conn.machine.pending_output().is_empty() && !conn.dead,
        );
        if desired != conn.interest {
            let event = Event {
                key: conn.key,
                readable: desired.0,
                writable: desired.1,
            };
            if self.poller.modify(&conn.stream, event).is_ok() {
                conn.interest = desired;
            }
        }
    }

    /// Idle cutoffs and expired drains, checked once per loop.
    fn sweep(&self, conns: &mut HashMap<usize, Conn>, now: Instant) {
        if self.idle_timeout.is_none() && self.draining_conns.get() == 0 {
            return; // nothing time-driven to find: skip the scan
        }
        let mut expired: Vec<usize> = Vec::new();
        for (&key, conn) in conns.iter_mut() {
            if let Some(drain) = &conn.draining {
                if now >= drain.deadline || conn.peer_eof || conn.dead {
                    expired.push(key);
                }
                continue;
            }
            if let Some(idle) = self.idle_timeout {
                if !conn.machine.is_done() && now.duration_since(conn.last_activity) >= idle {
                    conn.machine.fail(&AcmrError::Io {
                        message: format!(
                            "idle timeout: no bytes received for {} ms",
                            idle.as_millis()
                        ),
                    });
                    self.settle(conn, now);
                    if conn_finished(conn, now) {
                        expired.push(key);
                    }
                }
            }
        }
        for key in expired {
            if let Some(conn) = conns.remove(&key) {
                self.close(conn, key);
            }
        }
    }

    fn close(&self, conn: Conn, key: usize) {
        if conn.draining.is_some() {
            self.draining_conns
                .set(self.draining_conns.get().saturating_sub(1));
        }
        let _ = self.poller.delete(&conn.stream, key);
        let _ = conn.stream.shutdown(Shutdown::Both);
        if conn.counted {
            self.counters
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Whether a settled connection has nothing left to do.
fn conn_finished(conn: &Conn, now: Instant) -> bool {
    if conn.dead {
        return true;
    }
    match &conn.draining {
        Some(drain) => conn.peer_eof || now >= drain.deadline || drain.budget == 0,
        None => false,
    }
}

/// Read as much as fairness allows into the machine (or the drain
/// sink), through the shard's read buffer `buf`. Level-triggered
/// polling re-arms leftover bytes.
fn read_some(conn: &mut Conn, now: Instant, buf: &mut [u8]) {
    let mut taken = 0usize;
    loop {
        if conn.draining.is_none() && conn.machine.pending_output().len() > HIGH_WATERMARK {
            return; // backpressure: flush before reading more
        }
        if taken >= READ_QUANTUM {
            return; // fairness: let shard siblings run
        }
        match (&conn.stream).read(buf) {
            Ok(0) => {
                conn.peer_eof = true;
                if conn.draining.is_none() {
                    conn.machine.feed_eof();
                }
                return;
            }
            Ok(n) => {
                taken += n;
                conn.last_activity = now;
                match &mut conn.draining {
                    Some(drain) => drain.budget = drain.budget.saturating_sub(n),
                    None => conn.machine.feed(&buf[..n]),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Ship queued machine output until the socket pushes back.
fn flush(conn: &mut Conn) {
    while !conn.machine.pending_output().is_empty() && !conn.dead {
        match (&conn.stream).write(conn.machine.pending_output()) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.machine.consume_output(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}
