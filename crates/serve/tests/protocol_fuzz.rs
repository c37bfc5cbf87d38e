//! Protocol fuzz suite: a hostile or broken peer can never panic the
//! server, wedge a session, or take the process down.
//!
//! Every scenario drives a **live** loopback server with raw bytes
//! (no `ServeClient` niceties): corrupted frames, mid-batch
//! disconnects, oversized lines, half-open handshakes, and
//! contract-violating batches. The invariants, checked after every
//! hostile exchange:
//!
//! 1. the server replies with a typed `ERR <code> …` line (or the
//!    peer vanished first) and closes the connection — it never hangs
//!    a compliant reader (all reads run under a timeout);
//! 2. the session table drains back to zero;
//! 3. a fresh, well-formed session on the same server still works —
//!    the process survived.

use acmr_core::Request;
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::default_registry;
use acmr_serve::protocol::{
    write_frame, FRAME_BATCH, FRAME_END, FRAME_REQ, GREETING, MAX_FRAME_BYTES,
};
use acmr_serve::{
    is_transport_error, serve, ProtoVersion, ServeClient, ServeConfig, ServerHandle, WorkerPool,
    CLUSTER_ERROR_CODE,
};
use acmr_workloads::binfmt::encode_record_into;
use acmr_workloads::repeated_hot_edge;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn start_server() -> ServerHandle {
    serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server")
}

/// Write raw bytes to a fresh connection (ignoring write errors — the
/// server may close mid-write, which is part of the contract under
/// test), then drain every reply line until the server closes. Panics
/// on timeout: a wedged session is exactly the bug this suite exists
/// to catch.
fn raw_exchange(handle: &ServerHandle, payload: &[u8]) -> Vec<String> {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut write_half = stream.try_clone().expect("clone");
    let payload = payload.to_vec();
    // Write on a helper thread: an oversized payload can outlive the
    // server's reading interest, making write() block or fail.
    let writer = std::thread::spawn(move || {
        for chunk in payload.chunks(64 * 1024) {
            if write_half.write_all(chunk).is_err() {
                break;
            }
        }
        let _ = write_half.flush();
        // Half-close: tells the server this peer is done sending, so
        // its drain-before-close sees EOF immediately.
        let _ = write_half.shutdown(std::net::Shutdown::Write);
    });
    let mut replies = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // server closed: done
            Ok(_) => replies.push(line.trim().to_string()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("server wedged: no reply or close within {READ_TIMEOUT:?}")
            }
            Err(_) => break, // reset by peer: also a close
        }
    }
    let _ = writer.join();
    replies
}

/// The liveness probe: a complete well-formed session must still work.
fn assert_server_alive(handle: &ServerHandle) {
    let inst = repeated_hot_edge(4, 3, 12);
    let mut client =
        ServeClient::connect(handle.local_addr(), "greedy", None, &inst.capacities).unwrap();
    for r in &inst.requests {
        client.push(r).unwrap();
    }
    let report = client.finish().unwrap();
    assert_eq!(report.requests, inst.requests.len());
}

/// Wait (up to 5 s) until every closed connection is fully released:
/// its session deregistered *and* its connection slot freed. The
/// server does the two in that order on close, so waiting only for the
/// session table lets a following probe race the slot and read
/// `ERR busy`.
fn wait_for_drained(handle: &ServerHandle) {
    let slots = || handle.counters().connections_active.load(Ordering::Relaxed);
    for _ in 0..500 {
        if handle.manager().active() == 0 && slots() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "server did not drain: {} connection slots held, sessions {:?}",
        slots(),
        handle.manager().snapshot()
    );
}

/// A canonical valid session script the mutation tests corrupt.
const VALID_SCRIPT: &str = "OPEN greedy\nedges 2\ncaps 2 1\n1 0 1\nBATCH 2\n2.5 1\n1 0\nEND\n";

#[test]
fn valid_script_round_trips() {
    let handle = start_server();
    let replies = raw_exchange(&handle, VALID_SCRIPT.as_bytes());
    assert_eq!(replies[0], GREETING);
    assert!(replies[1].starts_with("OK "), "{replies:?}");
    assert_eq!(
        replies.iter().filter(|l| l.starts_with("EVENT ")).count(),
        3,
        "{replies:?}"
    );
    assert!(
        replies.last().unwrap().starts_with("REPORT "),
        "{replies:?}"
    );
    wait_for_drained(&handle);
    handle.shutdown();
}

#[test]
fn hostile_scenarios_yield_typed_errors_and_the_server_survives() {
    let handle = start_server();
    // (payload, the ERR code the reply must carry; None = any close
    // without REPORT is acceptable, e.g. a silent hangup).
    let scenarios: &[(&[u8], Option<&str>)] = &[
        // Garbage instead of OPEN.
        (b"HELLO there\n", Some("ERR parse")),
        // Unknown algorithm.
        (
            b"OPEN nope\nedges 1\ncaps 1\nEND\n",
            Some("ERR unknown-algorithm"),
        ),
        // Bad spec parameter.
        (
            b"OPEN greedy?bogus=1\nedges 1\ncaps 1\nEND\n",
            Some("ERR bad-param"),
        ),
        // Malformed OPEN extras.
        (b"OPEN greedy extra\nedges 1\ncaps 1\n", Some("ERR parse")),
        // Header drift: caps count mismatch, zero capacity.
        (b"OPEN greedy\nedges 2\ncaps 1\nEND\n", Some("ERR parse")),
        (b"OPEN greedy\nedges 1\ncaps 0\nEND\n", Some("ERR parse")),
        // Corrupt request frames after a good handshake.
        (
            b"OPEN greedy\nedges 2\ncaps 2 1\nwat 0\n",
            Some("ERR parse"),
        ),
        (b"OPEN greedy\nedges 2\ncaps 2 1\n-3 0\n", Some("ERR parse")),
        (b"OPEN greedy\nedges 2\ncaps 2 1\n1 7\n", Some("ERR parse")),
        // Malformed and oversized BATCH headers.
        (
            b"OPEN greedy\nedges 2\ncaps 2 1\nBATCH many\n",
            Some("ERR parse"),
        ),
        (
            b"OPEN greedy\nedges 2\ncaps 2 1\nBATCH 999999999\n",
            Some("ERR parse"),
        ),
        // Corrupt line inside a batch.
        (
            b"OPEN greedy\nedges 2\ncaps 2 1\nBATCH 2\n1 0\nnan 1\nEND\n",
            Some("ERR parse"),
        ),
        // Mid-batch disconnect: 2 of 5 promised requests, then EOF.
        (
            b"OPEN greedy\nedges 2\ncaps 2 1\nBATCH 5\n1 0\n1 1\n",
            Some("ERR parse"),
        ),
        // Handshake abandoned halfway.
        (b"OPEN greedy\nedges 2\n", Some("ERR parse")),
        // Nothing at all.
        (b"", None),
        // Invalid UTF-8 in a frame.
        (
            b"OPEN greedy\nedges 2\ncaps 2 1\n\xff\xfe\n",
            Some("ERR parse"),
        ),
    ];
    for (payload, expected) in scenarios {
        let replies = raw_exchange(&handle, payload);
        assert_eq!(replies.first().map(String::as_str), Some(GREETING));
        assert!(
            !replies.iter().any(|l| l.starts_with("REPORT ")),
            "hostile payload {payload:?} got a REPORT: {replies:?}"
        );
        if let Some(prefix) = expected {
            let last = replies.last().expect("an ERR reply");
            assert!(
                last.starts_with(prefix),
                "payload {:?}: expected {prefix:?}, got {replies:?}",
                String::from_utf8_lossy(payload)
            );
            // Every ERR points the operator at the protocol spec.
            assert!(last.contains("docs/SERVING.md"), "{last}");
        }
        wait_for_drained(&handle);
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn oversized_line_is_a_typed_error_not_a_memory_blowup() {
    let handle = start_server();
    // A newline-free frame just past the cap: the server must cut it
    // off with ERR parse instead of buffering without limit.
    let mut payload = Vec::with_capacity(MAX_FRAME_BYTES + 128 * 1024 + 64);
    payload.extend_from_slice(b"OPEN greedy\nedges 2\ncaps 2 1\n");
    payload.resize(payload.len() + MAX_FRAME_BYTES + 128 * 1024, b'7');
    let replies = raw_exchange(&handle, &payload);
    let err = replies
        .iter()
        .find(|l| l.starts_with("ERR "))
        .expect("typed reply to an oversized line");
    assert!(err.starts_with("ERR parse"), "{err}");
    assert!(err.contains("exceeds"), "{err}");
    wait_for_drained(&handle);
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn out_of_range_batch_is_refused_with_typed_error() {
    // Registry algorithms never violate their contract, so the
    // `violation` wire code is pinned at the unit level (protocol
    // error-table tests); here we pin the session-refusal path: an
    // out-of-range edge inside a batch is range-checked against the
    // handshake universe by the frame parser and refused before the
    // algorithm sees anything.
    let handle = start_server();
    let replies = raw_exchange(
        &handle,
        b"OPEN greedy\nedges 1\ncaps 1\nBATCH 2\n1 0\n1 3\n",
    );
    assert!(
        replies.iter().any(|l| l.starts_with("ERR parse")),
        "{replies:?}"
    );
    wait_for_drained(&handle);
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn shutdown_unblocks_pre_handshake_connections() {
    // A peer that connects and never sends a byte: its worker thread
    // is parked waiting for OPEN and owns no session-table entry.
    // Graceful shutdown must still close its socket and join the
    // thread instead of hanging forever.
    let handle = start_server();
    let idle = TcpStream::connect(handle.local_addr()).expect("connect");
    idle.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    // The shutdown itself is the assertion: run it on a watchdogged
    // thread so a regression fails the test instead of wedging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged on a pre-handshake connection");
    // The idle peer observes its connection closing.
    let mut reader = BufReader::new(idle);
    let mut line = String::new();
    let _ = reader.read_line(&mut line); // greeting
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line:?}");
}

#[test]
fn idle_timeout_disconnects_a_silent_peer_with_a_typed_error() {
    // With an idle timeout configured, a peer that connects and goes
    // silent is cut loose with `ERR io` instead of pinning its
    // connection slot forever.
    let handle = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout: Some(Duration::from_millis(200)),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("greeting");
    assert_eq!(line.trim(), GREETING);
    // Stay silent: the server must end the connection on its own.
    line.clear();
    let n = reader.read_line(&mut line).unwrap_or(0);
    if n > 0 {
        assert!(line.starts_with("ERR io"), "{line:?}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line:?}");
    }
    wait_for_drained(&handle);
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn slow_loris_peers_neither_starve_others_nor_dodge_the_idle_timeout() {
    // The slow-loris shape: many connections each dripping valid
    // bytes one per write, then going silent mid-handshake. Two
    // reactor properties under test at once: (1) while the drips are
    // in flight, *other* connections run complete sessions promptly —
    // a dripping peer occupies a poller slot, not a thread; (2) once
    // a dripper goes silent, the idle timeout still fires and cuts it
    // loose with the typed `ERR io`, even with the whole crowd
    // connected.
    const LORIS: usize = 6;
    let handle = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout: Some(Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = handle.local_addr();
    let drippers: Vec<_> = (0..LORIS)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                let mut write_half = stream.try_clone().expect("clone");
                // One byte at a time, well inside the idle timeout, so
                // the server sees a live-but-glacial peer; stop
                // mid-handshake and go silent.
                for b in &VALID_SCRIPT.as_bytes()[..10] {
                    if write_half.write_all(std::slice::from_ref(b)).is_err() {
                        break;
                    }
                    let _ = write_half.flush();
                    std::thread::sleep(Duration::from_millis(50));
                }
                // Drain replies until the server ends the connection.
                let mut reader = BufReader::new(stream);
                let mut replies = Vec::new();
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) => replies.push(line.trim().to_string()),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            panic!("slow-loris connection wedged: no close within {READ_TIMEOUT:?}")
                        }
                        Err(_) => break,
                    }
                }
                replies
            })
        })
        .collect();
    // While every dripper is still mid-drip: full sessions on the
    // same server must complete promptly (each run is a handshake, 12
    // arrivals, and a report — far quicker than one drip interval if
    // the reactor is actually multiplexing).
    for _ in 0..3 {
        assert_server_alive(&handle);
    }
    // Every dripper is eventually cut loose with the typed idle reply
    // (or, at the very least, a close — the timeout may race the
    // reply onto a socket the peer already abandoned).
    for dripper in drippers {
        let replies = dripper.join().expect("dripper panicked");
        assert_eq!(replies.first().map(String::as_str), Some(GREETING));
        if let Some(last) = replies.last() {
            if last != GREETING {
                assert!(last.starts_with("ERR io"), "{replies:?}");
            }
        }
    }
    wait_for_drained(&handle);
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn over_capacity_connections_get_a_readable_busy_reply() {
    let handle = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    // Occupy the only slot with a live session.
    let inst = repeated_hot_edge(4, 3, 12);
    let mut occupant =
        ServeClient::connect(handle.local_addr(), "greedy", None, &inst.capacities).unwrap();
    occupant.push(&inst.requests[0]).unwrap();
    // The second connection must receive the typed busy reply — not a
    // TCP reset that swallows it. The reactor's accept-queue policy
    // types it `busy` (transient, retry later), distinct from `io`.
    let replies = raw_exchange(&handle, b"OPEN greedy\nedges 1\ncaps 1\n");
    assert_eq!(replies.first().map(String::as_str), Some(GREETING));
    let last = replies.last().expect("busy reply");
    assert!(last.starts_with("ERR busy"), "{replies:?}");
    assert!(last.contains("capacity"), "{replies:?}");
    // Finishing the occupant frees the slot.
    occupant.finish().unwrap();
    wait_for_drained(&handle);
    assert_server_alive(&handle);
    handle.shutdown();
}

/// A hostile middlebox in front of a real server: it forwards the
/// session byte for byte, but severs its first `drop_conns`
/// connections — both directions, abruptly — after relaying
/// `cut_after_lines` server reply lines (0 = before even the
/// greeting, i.e. an arbitrary frame boundary including "none").
/// Connections after the first `drop_conns` are piped untouched, so a
/// retry against the same address can succeed. Runs until the test
/// process exits.
fn dropping_proxy(backend: SocketAddr, cut_after_lines: usize, drop_conns: usize) -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let mut dropped = 0usize;
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(backend) else {
                break;
            };
            let cut = dropped < drop_conns;
            if cut {
                dropped += 1;
            }
            // Upstream pump (client → server) on its own thread; it
            // exits when either side closes.
            let mut up_read = client.try_clone().expect("clone client");
            let mut up_write = server.try_clone().expect("clone server");
            let upstream = std::thread::spawn(move || {
                let _ = std::io::copy(&mut up_read, &mut up_write);
                let _ = up_write.shutdown(std::net::Shutdown::Write);
            });
            // Downstream (server → client): relay reply lines, then —
            // on a marked connection — sever both sockets mid-protocol.
            let mut reader = BufReader::new(server.try_clone().expect("clone server"));
            let mut client_write = client.try_clone().expect("clone client");
            if cut {
                let mut line = String::new();
                for _ in 0..cut_after_lines {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    if client_write.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                }
                let _ = client.shutdown(std::net::Shutdown::Both);
                let _ = server.shutdown(std::net::Shutdown::Both);
            } else {
                let _ = std::io::copy(&mut reader, &mut client_write);
                let _ = client.shutdown(std::net::Shutdown::Both);
            }
            let _ = upstream.join();
        }
    });
    addr
}

/// The whole-trace replay a retry must perform, as a pool job: the
/// hot-edge instance replayed through one worker address.
fn pool_job(
    pool: &WorkerPool,
    inst: &acmr_core::AdmissionInstance,
    batch: Option<usize>,
) -> Result<acmr_core::RunReport, acmr_core::AcmrError> {
    pool.run_job(0, "greedy", Some(0), batch, || {
        Ok((
            inst.capacities.clone(),
            inst.requests.iter().cloned().map(Ok),
        ))
    })
}

#[test]
fn client_reports_a_typed_error_when_the_server_drops_mid_session() {
    // A ServeClient facing a connection that dies at a frame boundary
    // must surface a typed transport error — never a panic, a hang,
    // or a fabricated event.
    let handle = start_server();
    let inst = repeated_hot_edge(4, 3, 12);
    // Drop after 2 reply lines (greeting + OK): the handshake
    // succeeds, the first push dies.
    let proxy = dropping_proxy(handle.local_addr(), 2, usize::MAX);
    let mut client =
        ServeClient::connect(proxy, "greedy", None, &inst.capacities).expect("handshake");
    let err = inst
        .requests
        .iter()
        .find_map(|r| client.push(r).err())
        .expect("a severed session must error");
    assert!(is_transport_error(&err), "{err}");
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn exhausted_retries_against_a_dropping_server_surface_one_cluster_error() {
    // Every connection through this proxy dies after the OK reply:
    // the pool's bounded retry must give up with the typed cluster
    // error, never hang or return a half-replayed report.
    let handle = start_server();
    let inst = repeated_hot_edge(4, 3, 12);
    let proxy = dropping_proxy(handle.local_addr(), 2, usize::MAX);
    // The line-counting proxy pins the v1 wire; the v2 twin of this
    // scenario lives in `severing_proxy`-based tests below.
    let pool = WorkerPool::connect(&[proxy.to_string()])
        .expect("adopt proxy")
        .proto(ProtoVersion::V1)
        .retries(2);
    let err = pool_job(&pool, &inst, None).expect_err("retries must exhaust");
    match &err {
        acmr_core::AcmrError::Remote { code, message } => {
            assert_eq!(code, CLUSTER_ERROR_CODE, "{message}");
            assert!(message.contains("3 attempt"), "{message}");
        }
        other => panic!("expected a cluster error, got {other:?}"),
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reconnect/retry path: the server (here, a hostile
    /// middlebox in front of a real one) drops the connection at an
    /// **arbitrary reply-frame boundary** — before the greeting,
    /// mid-handshake, between events, before the final report. The
    /// `ServeClient` surfaces a typed transport error, and the
    /// `WorkerPool` retry replays the **whole trace** on a fresh
    /// session: the final report must be identical to an undisturbed
    /// run — `requests` included, so a half-replayed session can
    /// never masquerade as a result.
    #[test]
    fn worker_pool_replays_the_whole_trace_when_dropped_at_any_frame_boundary(
        cut_after in 0usize..16,
        batch in prop_oneof![Just(None), Just(Some(5))],
    ) {
        let handle = start_server();
        let inst = repeated_hot_edge(4, 3, 12);
        // The line-counting proxy pins the v1 wire on both pools; the
        // v2 twin (byte-boundary cuts) is its own proptest below.
        let direct_pool = WorkerPool::connect(&[handle.local_addr().to_string()])
            .unwrap()
            .proto(ProtoVersion::V1);
        let expected = pool_job(&direct_pool, &inst, batch).expect("direct replay");
        prop_assert_eq!(expected.requests, inst.requests.len());

        // First connection dies after `cut_after` reply lines; the
        // retry's fresh connection is piped cleanly.
        let proxy = dropping_proxy(handle.local_addr(), cut_after, 1);
        let pool = WorkerPool::connect(&[proxy.to_string()])
            .unwrap()
            .proto(ProtoVersion::V1)
            .retries(2);
        let report = pool_job(&pool, &inst, batch).expect("retried replay");
        prop_assert_eq!(&report, &expected, "retried report diverges");
        prop_assert_eq!(report.requests, inst.requests.len());

        assert_server_alive(&handle);
        handle.shutdown();
    }

    /// Corrupting any single byte of a valid session script: the
    /// server replies (ERR or a still-valid protocol run), never
    /// panics, never wedges, and stays alive for the next session.
    #[test]
    fn corrupting_any_byte_never_wedges_the_server(
        pos in 0usize..VALID_SCRIPT.len(),
        byte in 0u8..=255u8,
    ) {
        let handle = start_server();
        let mut payload = VALID_SCRIPT.as_bytes().to_vec();
        payload[pos] = byte;
        let replies = raw_exchange(&handle, &payload);
        prop_assert_eq!(replies.first().map(String::as_str), Some(GREETING));
        // Either the corruption was benign (a full protocol run) or
        // the server ended with a typed ERR; in both cases the
        // connection closed (raw_exchange returned) and the table
        // drains.
        let last = replies.last().map(String::as_str).unwrap_or("");
        prop_assert!(
            last.starts_with("REPORT ") || last.starts_with("ERR ") || last.starts_with("EVENT "),
            "unexpected final reply {:?}", replies
        );
        wait_for_drained(&handle);
        assert_server_alive(&handle);
        handle.shutdown();
    }

    /// Truncating the script at any byte (client vanishes mid-frame,
    /// mid-batch, mid-handshake): never wedges, never kills.
    #[test]
    fn truncation_anywhere_never_wedges_the_server(len in 0usize..VALID_SCRIPT.len()) {
        let handle = start_server();
        let replies = raw_exchange(&handle, &VALID_SCRIPT.as_bytes()[..len]);
        prop_assert_eq!(replies.first().map(String::as_str), Some(GREETING));
        wait_for_drained(&handle);
        assert_server_alive(&handle);
        handle.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Protocol v2: the same hostile-peer invariants over the binary frame
// dialect. Replies past the line handshake are binary, so these
// helpers drain raw bytes instead of lines.
// ---------------------------------------------------------------------------

/// Raw-byte twin of [`raw_exchange`]: write `payload`, half-close, and
/// drain every reply **byte** until the server closes. Panics on
/// timeout — a wedged v2 session is exactly the bug under test.
fn raw_exchange_bytes(handle: &ServerHandle, payload: &[u8]) -> Vec<u8> {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut write_half = stream.try_clone().expect("clone");
    let payload = payload.to_vec();
    let writer = std::thread::spawn(move || {
        for chunk in payload.chunks(64 * 1024) {
            if write_half.write_all(chunk).is_err() {
                break;
            }
        }
        let _ = write_half.flush();
        let _ = write_half.shutdown(std::net::Shutdown::Write);
    });
    let mut replies = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => replies.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("v2 server wedged: no reply or close within {READ_TIMEOUT:?}")
            }
            Err(_) => break,
        }
    }
    let _ = writer.join();
    replies
}

/// A canonical valid **v2** session byte script (line handshake with
/// `proto=v2`, then binary frames: one REQ, one 2-record BATCH, END),
/// plus the offset of every client-side frame boundary — including
/// "handshake only" — for the truncation sweep.
fn v2_script() -> (Vec<u8>, Vec<usize>) {
    let req = |ids: &[u32], cost: f64| {
        Request::new(EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect()), cost)
    };
    let mut script = Vec::new();
    script.extend_from_slice(b"OPEN greedy proto=v2\nedges 2\ncaps 2 1\n");
    let mut boundaries = vec![script.len()];
    // REQ frame: one record.
    let mut payload = Vec::new();
    encode_record_into(&mut payload, &req(&[0, 1], 1.0), 2).unwrap();
    write_frame(&mut script, FRAME_REQ, &payload).unwrap();
    boundaries.push(script.len());
    // BATCH frame: u32le count, then records back to back.
    payload.clear();
    payload.extend_from_slice(&2u32.to_le_bytes());
    encode_record_into(&mut payload, &req(&[1], 2.5), 2).unwrap();
    encode_record_into(&mut payload, &req(&[0], 1.0), 2).unwrap();
    write_frame(&mut script, FRAME_BATCH, &payload).unwrap();
    boundaries.push(script.len());
    write_frame(&mut script, FRAME_END, &[]).unwrap();
    boundaries.push(script.len());
    (script, boundaries)
}

#[test]
fn valid_v2_script_round_trips() {
    let handle = start_server();
    let (script, _) = v2_script();
    let reply = raw_exchange_bytes(&handle, &script);
    // Line bootstrap: greeting, then an OK acknowledging the upgrade.
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with(GREETING), "{text:?}");
    assert!(text.contains(" proto=v2\n"), "{text:?}");
    // The binary tail carries a REPORT frame (0x83) — spot-check the
    // JSON payload it wraps rather than re-implementing frame parsing.
    assert!(text.contains("\"requests\":3"), "{text:?}");
    wait_for_drained(&handle);
    handle.shutdown();
}

#[test]
fn v2_truncation_at_every_frame_boundary_never_wedges_the_server() {
    // The client vanishes exactly between frames: after the handshake,
    // after the REQ, after the BATCH, after END. The server must
    // answer every prefix (typed ERR for a mid-session hangup, a full
    // run for the complete script), drain, and survive.
    let handle = start_server();
    let (script, boundaries) = v2_script();
    for &cut in &boundaries {
        let reply = raw_exchange_bytes(&handle, &script[..cut]);
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with(GREETING), "cut at {cut}: {text:?}");
        wait_for_drained(&handle);
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corrupting any single byte of a valid v2 session — handshake
    /// text, frame headers, length prefixes, record payloads — never
    /// wedges or kills the server. (A corrupted length prefix that
    /// promises more bytes than the peer sends must be cut off by the
    /// peer's EOF, not waited on forever.)
    #[test]
    fn v2_corrupting_any_byte_never_wedges_the_server(
        pos in 0usize..103, // v2_script length; pinned below
        byte in 0u8..=255u8,
    ) {
        let handle = start_server();
        let (mut script, _) = v2_script();
        prop_assert_eq!(script.len(), 103, "v2_script changed: update the pos range");
        script[pos] ^= byte | 1; // guarantee the byte actually changes
        let reply = raw_exchange_bytes(&handle, &script);
        let text = String::from_utf8_lossy(&reply);
        prop_assert!(text.starts_with(GREETING), "{:?}", text);
        wait_for_drained(&handle);
        assert_server_alive(&handle);
        handle.shutdown();
    }

    /// Truncating the v2 script at **any byte** (not just frame
    /// boundaries): mid-handshake, mid-header, mid-record. Never
    /// wedges, never kills.
    #[test]
    fn v2_truncation_anywhere_never_wedges_the_server(len in 0usize..103) {
        let handle = start_server();
        let (script, _) = v2_script();
        prop_assert_eq!(script.len(), 103, "v2_script changed: update the len range");
        let reply = raw_exchange_bytes(&handle, &script[..len]);
        let text = String::from_utf8_lossy(&reply);
        prop_assert!(text.starts_with(GREETING), "{:?}", text);
        wait_for_drained(&handle);
        assert_server_alive(&handle);
        handle.shutdown();
    }
}

/// Byte-counting twin of [`dropping_proxy`] for the v2 wire: severs
/// its first `drop_conns` connections after relaying `cut_after_bytes`
/// server reply **bytes** — which lands before the greeting, inside
/// the OK line, or anywhere inside a binary frame.
fn severing_proxy(backend: SocketAddr, cut_after_bytes: usize, drop_conns: usize) -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let mut dropped = 0usize;
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(backend) else {
                break;
            };
            let cut = dropped < drop_conns;
            if cut {
                dropped += 1;
            }
            let mut up_read = client.try_clone().expect("clone client");
            let mut up_write = server.try_clone().expect("clone server");
            let upstream = std::thread::spawn(move || {
                let _ = std::io::copy(&mut up_read, &mut up_write);
                let _ = up_write.shutdown(std::net::Shutdown::Write);
            });
            let mut reader = server.try_clone().expect("clone server");
            let mut client_write = client.try_clone().expect("clone client");
            if cut {
                let mut left = cut_after_bytes;
                let mut chunk = [0u8; 256];
                while left > 0 {
                    let want = left.min(chunk.len());
                    let n = reader.read(&mut chunk[..want]).unwrap_or(0);
                    if n == 0 || client_write.write_all(&chunk[..n]).is_err() {
                        break;
                    }
                    left -= n;
                }
                let _ = client.shutdown(std::net::Shutdown::Both);
                let _ = server.shutdown(std::net::Shutdown::Both);
            } else {
                let _ = std::io::copy(&mut reader, &mut client_write);
                let _ = client.shutdown(std::net::Shutdown::Both);
            }
            let _ = upstream.join();
        }
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The v2 whole-trace-retry twin of the v1 proptest above: the
    /// first connection dies after an **arbitrary number of reply
    /// bytes** — before the greeting, mid-OK, inside a SUMMARY or
    /// REPORT frame. The pool's retry replays the whole trace over a
    /// fresh v2 session and the report is byte-identical to an
    /// undisturbed v2 run.
    #[test]
    fn v2_pool_replays_the_whole_trace_when_severed_at_any_reply_byte(
        cut_after in 0usize..200,
        batch in prop_oneof![Just(None), Just(Some(5))],
    ) {
        let handle = start_server();
        let inst = repeated_hot_edge(4, 3, 12);
        let direct_pool = WorkerPool::connect(&[handle.local_addr().to_string()]).unwrap();
        let expected = pool_job(&direct_pool, &inst, batch).expect("direct v2 replay");
        prop_assert_eq!(expected.requests, inst.requests.len());

        let proxy = severing_proxy(handle.local_addr(), cut_after, 1);
        let pool = WorkerPool::connect(&[proxy.to_string()]).unwrap().retries(2);
        let report = pool_job(&pool, &inst, batch).expect("retried v2 replay");
        prop_assert_eq!(&report, &expected, "retried v2 report diverges");

        assert_server_alive(&handle);
        handle.shutdown();
    }
}

#[test]
fn negotiation_matrix_always_gets_a_typed_answer() {
    // All four client×server pairings resolve with a typed answer —
    // a working session or a typed ERR — never a hang or a silent
    // downgrade.
    let caps = [2u32, 1];
    let v2_server = start_server();
    let v1_server = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_proto: ProtoVersion::V1,
            ..ServeConfig::default()
        },
    )
    .expect("bind v1-capped server");

    // v1 client × v1 server and v1 client × v2 server: plain sessions.
    for srv in [&v1_server, &v2_server] {
        let client = ServeClient::connect(srv.local_addr(), "greedy", None, &caps).unwrap();
        assert_eq!(client.proto(), ProtoVersion::V1);
        let report = client.finish().unwrap();
        assert_eq!(report.requests, 0);
    }

    // v2 client × v2 server: the upgrade is acknowledged.
    let client = ServeClient::connect_v2(v2_server.local_addr(), "greedy", None, &caps, false)
        .expect("v2 negotiation");
    assert_eq!(client.proto(), ProtoVersion::V2);
    let report = client.finish().unwrap();
    assert_eq!(report.requests, 0);

    // v2 client × v1-capped server: the negotiation token is answered
    // with the server's typed parse error — no hang, and no silent
    // fallback to v1 (the operator must choose `--proto v1`).
    let err = match ServeClient::connect_v2(v1_server.local_addr(), "greedy", None, &caps, false) {
        Err(e) => e,
        Ok(_) => panic!("a v1-capped server must refuse proto=v2"),
    };
    match &err {
        acmr_core::AcmrError::Remote { code, message } => {
            assert_eq!(code, "parse", "{message}");
            assert!(message.contains("proto=v2"), "{message}");
        }
        other => panic!("expected a typed remote error, got {other:?}"),
    }

    wait_for_drained(&v1_server);
    wait_for_drained(&v2_server);
    v1_server.shutdown();
    v2_server.shutdown();
}
