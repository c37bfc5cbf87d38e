//! E17 — connection scale: how many peers one host can hold, and
//! what holding them costs.
//!
//! PR 8 replaced the thread-per-connection server with sharded event
//! loops driving the sans-I/O [`acmr_serve::Connection`] machine.
//! This bench pins the claims that rearchitecture was sold on:
//!
//! 1. **Idle sweep** — open waves of idle connections (each greeted,
//!    so the reactor has fully adopted it) from 1 000 up toward
//!    10 000, recording the cumulative wall-clock per step. The top
//!    of the sweep is clamped to the process fd budget (two fds per
//!    loopback connection: the client end and the server end, which
//!    only its reactor shard holds) and the clamp is recorded in the
//!    summary rather than silently shrinking the claim. The fds the
//!    first wave opens are counted in `/proc/self/fd` and recorded
//!    per connection; the bench fails if that count, rounded, exceeds
//!    the budget (the check is skipped where `/proc` is unreadable).
//! 2. **Active sessions** — ≥ 5 000 *concurrent open sessions* (v1
//!    handshake completed, one audited decision pushed and read back
//!    per session), held simultaneously while a fresh probe session
//!    still gets served. The held count is read back from the
//!    server's own `sessions_active` counter, not inferred
//!    client-side.
//! 3. **Throughput under load** — the E16 workload (200 000 greedy
//!    requests, batch 512, v2 binary frames in summary mode) replayed
//!    over one connection while 5 000 idle connections stay parked on
//!    the shards. The summary records the ratio against the
//!    unloaded `BENCH_protocol2.json` baseline when that file exists;
//!    the target is within 10% — idle connections must cost O(ready),
//!    not O(connections), per wakeup.
//!
//! Emits `BENCH_connections.json` at the workspace root (the CI
//! artifact) via [`acmr_bench::emit_bench_json`].

use acmr_core::Request;
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::{default_registry, run_report, SourceRef};
use acmr_serve::{serve, serve_trace_v2, ServeConfig, ServerHandle};
use acmr_workloads::trace::write_request_line;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

// The E16 per-connection workload, byte for byte (`protocol2.rs`),
// so the loaded/unloaded throughput ratio compares like with like.
const EDGES: u32 = 512;
const CAPACITY: u32 = 8;
const REQUESTS: usize = 200_000;
const BATCH: usize = 512;
const SPEC: &str = "greedy";

/// The idle sweep's nominal rungs; the fd clamp may cut the top off.
const IDLE_STEPS: [usize; 5] = [1_000, 2_500, 5_000, 7_500, 10_000];
/// The acceptance floor: this many concurrent open sessions.
const ACTIVE_SESSIONS: usize = 5_000;
/// Idle connections parked during the throughput leg.
const LOADED_IDLE: usize = 5_000;
/// Loopback fds consumed per held connection: the client end and the
/// server end (the reactor shard that owns it holds no other copy).
const FDS_PER_CONN: usize = 2;
/// Fds reserved for everything that is not a held connection
/// (listener, pollers, stdio, the throughput client, slack).
const FD_SLACK: usize = 2_048;

fn generate_requests() -> (Vec<u32>, Vec<Request>) {
    let caps = vec![CAPACITY; EDGES as usize];
    let mut rng = StdRng::seed_from_u64(42);
    let requests = (0..REQUESTS)
        .map(|_| {
            let hops = 1 + rng.gen_range(0..4u32);
            let start = rng.gen_range(0..EDGES - hops);
            let edges: Vec<EdgeId> = (start..start + hops).map(EdgeId).collect();
            let cost = 1.0 + f64::from(rng.gen_range(0..4u32));
            Request::new(EdgeSet::new(edges), cost)
        })
        .collect();
    (caps, requests)
}

/// `RLIMIT_NOFILE` (soft), read from `/proc/self/limits` — the
/// workspace is std-only, so no `getrlimit` binding. Conservative
/// fallback when the file is unreadable (non-Linux).
fn fd_limit() -> usize {
    if let Ok(text) = std::fs::read_to_string("/proc/self/limits") {
        for line in text.lines() {
            if line.starts_with("Max open files") {
                if let Some(n) = line.split_whitespace().nth(3).and_then(|w| w.parse().ok()) {
                    return n;
                }
            }
        }
    }
    4_096
}

/// Open fds of this process (client ends and server ends alike, since
/// the server runs in-process), or `None` where `/proc` is unreadable.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd")
        .ok()
        .map(|dir| dir.count())
}

/// A line-protocol peer on one fd: no `BufReader` clone, no helper
/// crate — each held connection must cost exactly [`FDS_PER_CONN`]
/// fds or the sweep arithmetic above is wrong.
struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl LineConn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(LineConn {
            stream,
            buf: Vec::new(),
            pos: 0,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + nl]).into_owned();
                self.pos += nl + 1;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                return Ok(line);
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[derive(Serialize)]
struct IdleStep {
    /// Connections held (cumulative) once this step completed.
    connections: usize,
    /// Cumulative wall-clock to reach this many held, greeted
    /// connections, from an empty server.
    open_ms: f64,
}

/// Machine-readable summary of the E17 connection-scale numbers.
#[derive(Serialize)]
struct ConnectionsSummary {
    workload: &'static str,
    algorithm: &'static str,
    reactor_threads: usize,
    fd_limit: usize,
    /// The fd budget per held connection the sweep is clamped by.
    fds_per_connection: usize,
    /// Fds the first idle wave opened, per connection, counted in
    /// `/proc/self/fd` (`None` where it is unreadable).
    measured_fds_per_connection: Option<f64>,
    /// Where the idle sweep was cut off by the fd budget
    /// (`min(10_000, (fd_limit - slack) / fds_per_connection)`).
    idle_clamp: usize,
    idle_sweep: Vec<IdleStep>,
    /// `connections_active` read from the server's own counters at
    /// the top of the idle sweep.
    idle_held_server_view: u64,
    /// Concurrent open sessions held (the server's `sessions_active`).
    active_sessions_held: u64,
    /// Wall-clock to open all held sessions (handshake acknowledged).
    active_open_ms: f64,
    /// One audited decision pushed and read back per held session:
    /// round-trip decisions per second across the whole fleet.
    active_roundtrip_decisions_per_sec: f64,
    /// Idle connections parked during the throughput leg.
    loaded_idle_connections: usize,
    /// E16 workload over one v2 summary-mode connection while the
    /// idle fleet is parked (median of three runs).
    v2_decisions_per_sec_loaded: f64,
    /// `v2_decisions_per_sec` from `BENCH_protocol2.json`, when that
    /// bench has run on this checkout.
    v2_decisions_per_sec_unloaded_baseline: Option<f64>,
    /// loaded / unloaded — the headline; target ≥ 0.9.
    loaded_over_unloaded: Option<f64>,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("throughput is finite"));
    samples[samples.len() / 2]
}

/// Pull `"v2_decisions_per_sec": <n>` out of `BENCH_protocol2.json`
/// at the workspace root, if a protocol2 run left one there.
fn protocol2_baseline() -> Option<f64> {
    let mut dir = std::env::current_dir().ok()?;
    let path = loop {
        if dir.join("Cargo.lock").exists() {
            break dir.join("BENCH_protocol2.json");
        }
        if !dir.pop() {
            return None;
        }
    };
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"v2_decisions_per_sec\"";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn bind_server() -> ServerHandle {
    serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            // The bench *is* the overload: lift the accept-queue cap
            // well above the sweep so `ERR busy` never fires here.
            max_connections: 20_000,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server")
}

fn open_idle(addr: SocketAddr, n: usize) -> Vec<LineConn> {
    (0..n)
        .map(|i| {
            let mut conn =
                LineConn::connect(addr).unwrap_or_else(|e| panic!("idle connect #{i}: {e}"));
            let greeting = conn
                .read_line()
                .unwrap_or_else(|e| panic!("greeting #{i}: {e}"));
            assert!(
                greeting.starts_with("ACMR-SERVE"),
                "unexpected greeting for idle conn #{i}: {greeting:?}"
            );
            conn
        })
        .collect()
}

/// Serve one complete tiny session end to end — the "others are
/// still served" probe run while thousands of peers are held.
fn probe_session(addr: SocketAddr) {
    let mut conn = LineConn::connect(addr).expect("probe connect");
    assert!(conn
        .read_line()
        .expect("probe greeting")
        .starts_with("ACMR-SERVE"));
    conn.send(b"OPEN greedy\nedges 2\ncaps 1 1\n1.0 0\nEND\n")
        .expect("probe script");
    assert!(conn.read_line().expect("probe OK").starts_with("OK "));
    assert!(conn.read_line().expect("probe EVENT").starts_with("EVENT "));
    assert!(conn
        .read_line()
        .expect("probe REPORT")
        .starts_with("REPORT "));
}

fn connections() {
    let fd_limit = fd_limit();
    let idle_clamp = (fd_limit.saturating_sub(FD_SLACK) / FDS_PER_CONN)
        .min(*IDLE_STEPS.last().expect("steps nonempty"));
    let reactor_threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1);

    // --------------------------------------------------------------
    // Leg 1: idle sweep, 1k → 10k (fd-clamped), each wave greeted.
    // --------------------------------------------------------------
    let handle = bind_server();
    let addr = handle.local_addr();
    let mut held: Vec<LineConn> = Vec::with_capacity(idle_clamp);
    let mut idle_sweep = Vec::new();
    let mut measured_fds_per_connection = None;
    let fds_before = open_fds();
    let sweep_start = Instant::now();
    for step in IDLE_STEPS {
        let step = step.min(idle_clamp);
        if step > held.len() {
            held.extend(open_idle(addr, step - held.len()));
            if idle_sweep.is_empty() {
                measured_fds_per_connection = fds_before
                    .zip(open_fds())
                    .map(|(before, after)| (after - before) as f64 / held.len() as f64);
            }
            idle_sweep.push(IdleStep {
                connections: held.len(),
                open_ms: sweep_start.elapsed().as_secs_f64() * 1e3,
            });
        }
        if step == idle_clamp {
            break;
        }
    }
    let idle_held_server_view = handle
        .counters()
        .connections_active
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        idle_held_server_view as usize >= held.len(),
        "server sees {idle_held_server_view} active connections, client holds {}",
        held.len()
    );
    if let Some(measured) = measured_fds_per_connection {
        assert!(
            measured.round() as usize <= FDS_PER_CONN,
            "each held connection costs {measured:.3} fds, over the budget of {FDS_PER_CONN}"
        );
    }
    probe_session(addr);
    drop(held);
    handle.shutdown();

    // --------------------------------------------------------------
    // Leg 2: ≥ 5 000 concurrent open sessions, one decision each.
    // --------------------------------------------------------------
    let handle = bind_server();
    let addr = handle.local_addr();
    let active_n = ACTIVE_SESSIONS.min(idle_clamp);
    let mut request_line = Vec::new();
    write_request_line(
        &mut request_line,
        &Request::new(EdgeSet::new(vec![EdgeId(0)]), 1.0),
    )
    .expect("format request line");

    let t = Instant::now();
    let mut sessions: Vec<LineConn> = (0..active_n)
        .map(|i| {
            let mut conn =
                LineConn::connect(addr).unwrap_or_else(|e| panic!("session connect #{i}: {e}"));
            conn.send(b"OPEN greedy\nedges 4\ncaps 1000000 1000000 1000000 1000000\n")
                .unwrap_or_else(|e| panic!("session handshake #{i}: {e}"));
            let greeting = conn
                .read_line()
                .unwrap_or_else(|e| panic!("greeting #{i}: {e}"));
            assert!(
                greeting.starts_with("ACMR-SERVE"),
                "session #{i}: {greeting:?}"
            );
            let ok = conn.read_line().unwrap_or_else(|e| panic!("OK #{i}: {e}"));
            assert!(ok.starts_with("OK "), "session #{i}: {ok:?}");
            conn
        })
        .collect();
    let active_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let active_sessions_held = handle
        .counters()
        .sessions_active
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        active_sessions_held >= active_n as u64,
        "server counts {active_sessions_held} live sessions, expected ≥ {active_n}"
    );
    probe_session(addr);

    let t = Instant::now();
    for (i, conn) in sessions.iter_mut().enumerate() {
        conn.send(&request_line)
            .unwrap_or_else(|e| panic!("push #{i}: {e}"));
        let event = conn
            .read_line()
            .unwrap_or_else(|e| panic!("EVENT #{i}: {e}"));
        assert!(event.starts_with("EVENT "), "session #{i}: {event:?}");
    }
    let active_roundtrip_decisions_per_sec = active_n as f64 / t.elapsed().as_secs_f64();
    for (i, conn) in sessions.iter_mut().enumerate() {
        conn.send(b"END\n")
            .unwrap_or_else(|e| panic!("END #{i}: {e}"));
        let report = conn
            .read_line()
            .unwrap_or_else(|e| panic!("REPORT #{i}: {e}"));
        assert!(report.starts_with("REPORT "), "session #{i}: {report:?}");
    }
    drop(sessions);
    handle.shutdown();

    // --------------------------------------------------------------
    // Leg 3: E16 throughput over one connection, 5k idle parked.
    // --------------------------------------------------------------
    let (caps, requests) = generate_requests();
    let registry = default_registry();
    let mut inst = acmr_core::AdmissionInstance::from_capacities(caps.clone());
    for r in &requests {
        inst.push(r.clone());
    }
    let reference = run_report(&registry, SPEC, SourceRef::Mem(&inst), 0, 1, None)
        .expect("in-memory reference");

    let handle = bind_server();
    let addr = handle.local_addr();
    let loaded_idle = LOADED_IDLE.min(idle_clamp);
    let parked = open_idle(addr, loaded_idle);
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let report = serve_trace_v2(
            addr,
            SPEC,
            None,
            &caps,
            requests.iter().cloned().map(Ok),
            Some(BATCH),
            false,
            |_| {},
        )
        .expect("v2 replay under load");
        samples.push(REQUESTS as f64 / t.elapsed().as_secs_f64());
        assert_eq!(report, reference, "loaded v2 served report diverged");
    }
    let v2_loaded = median(&mut samples);
    drop(parked);
    handle.shutdown();

    let baseline = protocol2_baseline();
    let summary = ConnectionsSummary {
        workload: "uniform-512-edges-1..4-hops",
        algorithm: SPEC,
        reactor_threads,
        fd_limit,
        fds_per_connection: FDS_PER_CONN,
        measured_fds_per_connection,
        idle_clamp,
        idle_sweep,
        idle_held_server_view,
        active_sessions_held,
        active_open_ms,
        active_roundtrip_decisions_per_sec,
        loaded_idle_connections: loaded_idle,
        v2_decisions_per_sec_loaded: v2_loaded,
        v2_decisions_per_sec_unloaded_baseline: baseline,
        loaded_over_unloaded: baseline.map(|b| v2_loaded / b),
    };

    println!(
        "E17 connections: idle sweep to {} (fd limit {}, clamp {}, {} fds per connection), \
         {} concurrent sessions in {:.0} ms, fleet round-trip {:.0} dec/s, \
         v2 loaded {:.0} dec/s{}",
        summary.idle_held_server_view,
        summary.fd_limit,
        summary.idle_clamp,
        match summary.measured_fds_per_connection {
            Some(fds) => format!("{fds:.3}"),
            None => "unmeasured".to_string(),
        },
        summary.active_sessions_held,
        summary.active_open_ms,
        summary.active_roundtrip_decisions_per_sec,
        summary.v2_decisions_per_sec_loaded,
        match summary.loaded_over_unloaded {
            Some(r) => format!(" ({:.2}x unloaded baseline)", r),
            None => " (no BENCH_protocol2.json baseline found)".to_string(),
        }
    );
    if let Some(ratio) = summary.loaded_over_unloaded {
        assert!(
            ratio >= 0.5,
            "v2 throughput collapsed under 5k idle connections: {ratio:.2}x the unloaded baseline"
        );
    }
    acmr_bench::emit_bench_json("connections", &summary);
}

fn bench_all(_criterion: &mut Criterion) {
    connections();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
