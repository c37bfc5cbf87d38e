//! End-to-end smoke test of the **real binaries**: `acmr serve` as a
//! child process on an ephemeral loopback port, `acmr client`
//! replaying a committed golden trace through the socket — the same
//! pipeline the CI smoke step and an operator's first session run.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server child even if an assertion fails first.
struct ChildGuard(Child);
impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn acmr_serve_and_client_binaries_round_trip_a_golden_trace() {
    let acmr = env!("CARGO_BIN_EXE_acmr");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/adv-squeeze.trace"
    );

    // `--addr 127.0.0.1:0`: the kernel picks the port, the server
    // echoes it on stderr — parse it from the listening line.
    let mut server = ChildGuard(
        Command::new(acmr)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn acmr serve"),
    );
    let stderr = server.0.stderr.take().expect("server stderr");
    let mut lines = BufReader::new(stderr);
    // The FIRST stderr line is the machine-parseable announcement —
    // `LISTENING <addr>` — that cluster tooling
    // (`WorkerPool::spawn_local`, `acmr run --cluster`) parses to
    // discover an ephemeral port. Pinned here: prose may follow it,
    // never precede it.
    let mut listening = String::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while listening.is_empty() {
        assert!(
            Instant::now() < deadline,
            "server never printed its address"
        );
        lines.read_line(&mut listening).expect("read server stderr");
    }
    assert!(
        listening.starts_with("LISTENING 127.0.0.1:"),
        "first stderr line must be the machine-parseable announcement, got {listening:?}"
    );
    let addr = listening
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap()
        .to_string();
    addr.parse::<std::net::SocketAddr>()
        .expect("LISTENING names a valid socket address");
    // The human-readable line follows.
    let mut human = String::new();
    lines.read_line(&mut human).expect("read server stderr");
    assert!(human.contains("acmr-serve listening on"), "{human:?}");

    // Replay the golden trace through the socket with the client
    // binary (v2 summary mode, the default), twice: at the default
    // batch and at BATCH 7.
    let replay = |trace: &str, batch: &[&str]| {
        let mut args = vec![
            "client", "--stream", trace, "--addr", &addr, "--alg", "greedy", "--format", "json",
        ];
        args.extend_from_slice(batch);
        let out = Command::new(acmr)
            .args(&args)
            .output()
            .expect("run acmr client");
        assert!(
            out.status.success(),
            "client failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let batches = [&[][..], &["--batch", "7"][..]];
    let outputs: Vec<String> = batches.iter().map(|b| replay(golden, b)).collect();
    assert_eq!(outputs[0], outputs[1], "framing must not change the report");

    // A binary copy of the same trace, whose records the client
    // forwards as they are, must be served to the same report.
    let binary = std::env::temp_dir().join(format!("acmr-serve-cli-{}.bin", std::process::id()));
    let binary = binary.to_str().expect("utf-8 temp path");
    let converted = Command::new(acmr)
        .args(["convert", golden, binary])
        .output()
        .expect("run acmr convert");
    assert!(converted.status.success(), "{converted:?}");
    for batch in batches {
        assert_eq!(
            replay(binary, batch),
            outputs[0],
            "binary replay diverges (batch {batch:?})"
        );
    }
    let _ = std::fs::remove_file(binary);

    // The served report equals `acmr run` on the same trace minus the
    // offline-optimum context a live session cannot compute.
    let mut run = Command::new(acmr)
        .args(["run", "--alg", "greedy", "--format", "json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn acmr run");
    std::io::copy(
        &mut std::fs::File::open(golden).unwrap(),
        run.stdin.as_mut().unwrap(),
    )
    .unwrap();
    drop(run.stdin.take());
    let mut run_out = String::new();
    run.stdout
        .take()
        .unwrap()
        .read_to_string(&mut run_out)
        .unwrap();
    assert!(run.wait().unwrap().success());

    let mut expected: acmr::core::RunReport = serde_json::from_str(&run_out).unwrap();
    expected.opt = None;
    let served: acmr::core::RunReport = serde_json::from_str(&outputs[0]).unwrap();
    assert_eq!(served, expected, "served report diverges from acmr run");
}
