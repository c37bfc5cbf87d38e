//! # acmr-bench
//!
//! Criterion benchmarks and the `exp_all` experiment binary that
//! regenerates the paper-validation tables (CSV via `ACMR_RESULTS_DIR`,
//! machine-readable summaries via [`emit_bench_json`]).
//!
//! `exp_all` prints every table (E1–E9, E11, E12) under its own name;
//! `--quick` shrinks the grids:
//!
//! ```text
//! cargo run -p acmr-bench --release --bin exp_all -- --quick
//! ```
//!
//! Benches (`cargo bench -p acmr-bench`): `fractional`, `randomized`,
//! `setcover`, `bicriteria`, `baselines`, `lp`, `gen` (workload
//! generation), and `throughput` (experiment E10 — requests/second
//! scaling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Shared CLI plumbing for `exp_all` and the grid benches: returns
/// `true` when the full grid was requested (no `--quick` flag).
pub fn full_grid_requested() -> bool {
    !std::env::args().any(|a| a == "--quick")
}

/// The **E13** workload shared by the `streaming` and `trace2`
/// benches: 1M requests over a 4096-edge line (capacity 8), generated
/// incrementally straight to disk through [`TraceWriter`] so the
/// instance never exists in memory. Both benches must replay the
/// byte-identical trace — the generator lives here so they cannot
/// drift apart.
///
/// [`TraceWriter`]: acmr_workloads::trace::TraceWriter
pub mod e13 {
    use acmr_core::Request;
    use acmr_graph::{EdgeId, EdgeSet};
    use acmr_workloads::trace::TraceWriter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::BufWriter;

    /// Edges in the line network.
    pub const EDGES: u32 = 4096;
    /// Requests in the trace.
    pub const REQUESTS: usize = 1_000_000;
    /// Uniform edge capacity.
    pub const CAPACITY: u32 = 8;
    /// Batch size for the batched streaming arm.
    pub const BATCH: usize = 256;
    /// Algorithm every arm replays with.
    pub const SPEC: &str = "greedy";
    /// Workload label recorded in the bench summaries.
    pub const LABEL: &str = "line-4096-cap8-1M";

    /// Stream-generate the E13 trace to `path` (text `ACMR-TRACE v1`):
    /// unit-ish costs, short contiguous footprints on a line — the
    /// scale-up of the CLI's line workload. Returns the file size.
    pub fn generate_trace(path: &std::path::Path) -> std::io::Result<u64> {
        let file = std::fs::File::create(path)?;
        let caps = vec![CAPACITY; EDGES as usize];
        let mut w = TraceWriter::new(BufWriter::new(file), &caps, REQUESTS)?;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..REQUESTS {
            let hops = 1 + rng.gen_range(0..4u32);
            let start = rng.gen_range(0..EDGES - hops);
            let edges: Vec<EdgeId> = (start..start + hops).map(EdgeId).collect();
            let cost = 1.0 + f64::from(rng.gen_range(0..4u32));
            w.push(&Request::new(EdgeSet::new(edges), cost))?;
        }
        w.finish()?;
        std::fs::metadata(path).map(|m| m.len())
    }

    /// Peak resident set size in KiB (`VmHWM`), Linux only.
    pub fn peak_rss_kb() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }
}

/// Median wall-clock milliseconds of `routine` over as many runs as
/// fit in `budget` (at most 1000), after one warm-up run.
pub fn median_ms<R>(budget: std::time::Duration, mut routine: impl FnMut() -> R) -> f64 {
    use std::hint::black_box;
    use std::time::Instant;
    black_box(routine());
    let started = Instant::now();
    let mut samples = Vec::new();
    while started.elapsed() < budget && samples.len() < 1000 {
        let t0 = Instant::now();
        black_box(routine());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Print a table and optionally persist its CSV next to the repo
/// results (path taken from `ACMR_RESULTS_DIR` if set).
pub fn emit(table: &acmr_harness::Table, name: &str) {
    println!("{}", table.to_markdown());
    if let Ok(dir) = std::env::var("ACMR_RESULTS_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, table.to_csv()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Serialize `value` to `BENCH_<name>.json` — in `ACMR_RESULTS_DIR`
/// when set, the workspace root otherwise — and echo the path. The
/// throughput bench and `exp_all` persist their machine-readable
/// summaries through this.
///
/// The workspace root is found by walking up from the current
/// directory to the nearest `Cargo.lock`: `cargo bench` starts bench
/// binaries in the *package* directory while `cargo run` keeps the
/// caller's, and the artifact must land in one predictable place for
/// CI to upload.
pub fn emit_bench_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::env::var("ACMR_RESULTS_DIR").unwrap_or_else(|_| {
        let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
        loop {
            if dir.join("Cargo.lock").exists() {
                break dir.display().to_string();
            }
            if !dir.pop() {
                break ".".to_string();
            }
        }
    });
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    let json = match serde_json::to_string_pretty(value) {
        Ok(j) => j + "\n",
        Err(e) => {
            eprintln!("warning: could not serialize BENCH_{name}: {e}");
            return;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
