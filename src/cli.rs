//! The `acmr` command-line tool: generate, inspect, bound and run
//! admission-control traces from the shell.
//!
//! ```text
//! acmr gen  --m 64 --cap 4 --overload 2 --seed 1 [--weighted] > t.trace
//! acmr gen  --m 64 --format binary --out t.bin   # binary v2 (mmap-able)
//! acmr convert t.trace t.bin                     # text <-> binary, lossless
//! acmr stats < t.trace
//! acmr opt   < t.trace
//! acmr algs                            # list registered algorithms
//! acmr run --alg 'aag-unweighted?seed=7' --format json < t.trace
//! acmr gen --m 64 | acmr run --stream -          # chunked, unbounded
//! acmr serve --addr 127.0.0.1:4790               # live front end
//! acmr client --stream t.trace --alg greedy      # replay over the wire
//! ```
//!
//! `run` dispatches through [`crate::harness::default_registry`] — any
//! algorithm registered anywhere in the workspace is runnable by spec
//! string, and the report (text or JSON) is the workspace-wide
//! [`crate::core::RunReport`] schema, RNG seed included. `run --stream
//! <file|->` streams the trace in chunks (never materializing it) and
//! produces byte-identical reports to the in-memory path; the trace
//! grammar is specified in `docs/TRACE_FORMAT.md`.
//!
//! All subcommand logic lives here (unit-tested); `src/bin/acmr.rs` is
//! a thin stdin/stdout shim around [`dispatch_io`].

use crate::core::{AdmissionInstance, RequestSource, DEFAULT_ALGORITHM};
use crate::harness::{
    default_registry, run_report, BoundBudget, ClusterDriver, SourceRef, SweepJob, TraceSource,
};
use crate::serve::{
    serve_trace, serve_trace_v2, ProtoVersion, ServeConfig, WorkerPool, DEFAULT_ADDR,
    LISTENING_PREFIX,
};
use crate::workloads::trace::{read_trace, write_trace, TraceReader, TraceWriter};
use crate::workloads::{
    buyback_hostile, dyadic_admission_instance, nested_intervals, open_trace, random_path_workload,
    read_bin_trace, repeated_hot_edge, sniff_bytes, stochastic_workload, two_phase_squeeze,
    write_bin_trace, BinTraceWriter, CostModel, PathWorkloadSpec, StochasticSpec, Topology,
    TraceFormat, TrafficModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// CLI failure: message for stderr, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parse `--key value` pairs (flags without values get `"true"`).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| err(format!("expected --flag, got {:?}", args[i])))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            map.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            map.insert(key.to_string(), "true".to_string());
            i += 1;
        }
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("--{key}: cannot parse {v:?}"))),
    }
}

/// [`get`] for f64 flags with a uniform validity check: every float
/// flag funnels through here so bad values (NaN included — a bare
/// comparison would silently wave NaN through) surface as the same
/// typed error shape, pointing at `acmr help`.
fn get_f64_valid(
    flags: &HashMap<String, String>,
    key: &str,
    default: f64,
    requirement: &str,
    ok: impl Fn(f64) -> bool,
) -> Result<f64, CliError> {
    let value: f64 = get(flags, key, default)?;
    if !ok(value) {
        return Err(err(format!(
            "--{key} must be {requirement} (got {value}); see `acmr help`"
        )));
    }
    Ok(value)
}

/// The deterministic adversarial families of
/// `acmr_workloads::adversarial`, addressed by `--family`.
fn gen_adversarial(
    flags: &HashMap<String, String>,
    m: u32,
    cap: u32,
) -> Result<AdmissionInstance, CliError> {
    if m < 2 {
        return Err(err("adversarial topologies need --m at least 2"));
    }
    let rounds: u32 = get(flags, "rounds", 2)?;
    if rounds == 0 {
        return Err(err("--rounds must be at least 1"));
    }
    let inst = match flags.get("family").map(String::as_str) {
        None | Some("nested") => {
            let shrink: u32 = get(flags, "shrink", 2)?;
            if shrink == 0 {
                return Err(err("--shrink must be at least 1"));
            }
            nested_intervals(m, cap, shrink, rounds)
        }
        Some("hot-edge") => {
            let total: u32 = get(flags, "total", cap.saturating_mul(3))?;
            repeated_hot_edge(m, cap, total)
        }
        Some("squeeze") => {
            let width: u32 = get(flags, "width", (m / 4).max(1))?;
            if !(1..=m).contains(&width) {
                return Err(err(format!("--width must be in 1..={m}")));
            }
            let hits: u32 = get(flags, "hits", cap)?;
            if hits > cap {
                return Err(err(format!(
                    "--hits {hits} exceeds --cap {cap}: phase 2 cannot exceed edge-0 capacity"
                )));
            }
            two_phase_squeeze(m, cap, width, hits)
        }
        Some(other) => {
            return Err(err(format!(
                "unknown adversarial family {other:?} (nested, hot-edge, squeeze)"
            )))
        }
    };
    Ok(inst)
}

/// The dyadic lower-bound trace of `acmr_workloads::lower_bound`.
fn gen_lower_bound(
    flags: &HashMap<String, String>,
    m: u32,
    cap: u32,
) -> Result<AdmissionInstance, CliError> {
    // Default levels: the largest dyadic line that fits in --m edges,
    // clamped to the generator's ceiling (an explicit --levels beyond
    // it still errors below).
    let default_levels = (32 - m.leading_zeros()).saturating_sub(1).clamp(1, 16);
    let levels: u32 = get(flags, "levels", default_levels)?;
    if !(1..=16).contains(&levels) {
        return Err(err(format!("--levels must be in 1..=16 (got {levels})")));
    }
    let rounds: u32 = get(flags, "rounds", 2)?;
    if rounds == 0 {
        return Err(err("--rounds must be at least 1"));
    }
    Ok(dyadic_admission_instance(levels, cap, rounds))
}

/// Seeded stochastic traffic over a line network, addressed by
/// `--model` (`acmr_workloads::stochastic`). All model parameters are
/// validated here so bad flags surface as typed errors, not panics.
fn gen_stochastic(
    flags: &HashMap<String, String>,
    m: u32,
    cap: u32,
    max_hops: u32,
    weighted: bool,
    seed: u64,
) -> Result<AdmissionInstance, CliError> {
    if m < 2 {
        return Err(err("--topology stochastic needs --m at least 2"));
    }
    let model = match flags.get("model").map(String::as_str) {
        None | Some("iid") => TrafficModel::Iid,
        Some("mmpp") => TrafficModel::mmpp_default(),
        Some("diurnal") => {
            let period: u32 = get(flags, "period", 64)?;
            if period < 2 {
                return Err(err("--period must be at least 2"));
            }
            let amplitude = get_f64_valid(flags, "amplitude", 0.8, "in [0,1)", |a| {
                (0.0..1.0).contains(&a)
            })?;
            TrafficModel::Diurnal { period, amplitude }
        }
        Some("flash") => {
            let period: u32 = get(flags, "period", 64)?;
            let width: u32 = get(flags, "width", 8.min(period.saturating_sub(1).max(1)))?;
            if width == 0 || width >= period {
                return Err(err(format!(
                    "--width must be in 1..{period} (inside the flash --period)"
                )));
            }
            let boost =
                get_f64_valid(flags, "boost", 6.0, "a finite number greater than 1", |b| {
                    b.is_finite() && b > 1.0
                })?;
            TrafficModel::Flash {
                period,
                width,
                boost,
            }
        }
        Some(other) => {
            return Err(err(format!(
                "unknown stochastic model {other:?} (iid, mmpp, diurnal, flash); see `acmr help`"
            )))
        }
    };
    let arrival_rate = get_f64_valid(flags, "arrival-rate", 4.0, "a positive number", |r| {
        r.is_finite() && r > 0.0
    })?;
    let duration: u32 = get(flags, "duration", 128)?;
    if duration == 0 {
        return Err(err("--duration must be at least 1"));
    }
    let spec = StochasticSpec {
        topology: Topology::Line { m },
        capacity: cap,
        model,
        arrival_rate,
        duration,
        costs: if weighted {
            CostModel::Zipf {
                n_values: 64,
                s: 1.1,
            }
        } else {
            CostModel::Unit
        },
        max_hops,
        session_alpha: 2.5,
        session_max: 8,
        width_alpha: 1.3,
    };
    Ok(stochastic_workload(&spec, &mut StdRng::seed_from_u64(seed)).1)
}

/// The buyback (cancellation-cost) stress instance
/// `acmr_workloads::buyback_hostile`: geometric cost-escalation waves
/// that punish non-preempting algorithms — each wave re-saturates the
/// network at `--growth ×` the previous wave's prices.
fn gen_buyback_hostile(
    flags: &HashMap<String, String>,
    m: u32,
    cap: u32,
) -> Result<AdmissionInstance, CliError> {
    if m == 0 {
        return Err(err("--topology buyback-hostile needs --m at least 1"));
    }
    let waves: u32 = get(flags, "waves", 6)?;
    if waves < 2 {
        return Err(err("--waves must be at least 2"));
    }
    let growth = get_f64_valid(
        flags,
        "growth",
        4.0,
        "a finite number greater than 1",
        |g| g.is_finite() && g > 1.0,
    )?;
    Ok(buyback_hostile(m, cap, waves, growth))
}

/// Serialize a generated instance per `--format text|binary` and
/// `--out FILE`. Text defaults to stdout (the returned string); binary
/// is raw bytes, so it requires `--out` — stdout stays text.
fn emit_gen(flags: &HashMap<String, String>, inst: &AdmissionInstance) -> Result<String, CliError> {
    let format = match flags.get("format").map(String::as_str) {
        None | Some("text") => TraceFormat::TextV1,
        Some("binary") => TraceFormat::BinaryV2,
        Some(other) => return Err(err(format!("unknown --format {other:?} (text or binary)"))),
    };
    let out = match flags.get("out").map(String::as_str) {
        Some("true") => return Err(err("--out needs a file path")),
        other => other,
    };
    match (format, out) {
        (TraceFormat::TextV1, None) => Ok(write_trace(inst)),
        (TraceFormat::TextV1, Some(path)) => {
            std::fs::write(path, write_trace(inst))
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            Ok(String::new())
        }
        (TraceFormat::BinaryV2, None) => Err(err(
            "--format binary emits raw bytes; write them with --out FILE (stdout is text-only)",
        )),
        (TraceFormat::BinaryV2, Some(path)) => {
            std::fs::write(path, write_bin_trace(inst))
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            Ok(String::new())
        }
    }
}

/// `acmr gen` — emit a trace to the returned string (text), or to
/// `--out FILE` in `--format text|binary`.
pub fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let m: u32 = get(&flags, "m", 64)?;
    let cap: u32 = get(&flags, "cap", 4)?;
    if cap == 0 {
        return Err(err("--cap must be at least 1"));
    }
    let overload = get_f64_valid(&flags, "overload", 2.0, "a positive number", |o| {
        o.is_finite() && o > 0.0
    })?;
    let seed: u64 = get(&flags, "seed", 0)?;
    let max_hops: u32 = get(&flags, "max-hops", 8)?;
    let weighted = flags.contains_key("weighted");
    let topology_name = flags.get("topology").map(String::as_str);
    if flags.contains_key("family") && topology_name != Some("adversarial") {
        return Err(err(
            "--family only applies to --topology adversarial (nested, hot-edge, squeeze); \
             see `acmr help`",
        ));
    }
    if flags.contains_key("model") && topology_name != Some("stochastic") {
        return Err(err(
            "--model only applies to --topology stochastic (iid, mmpp, diurnal, flash); \
             see `acmr help`",
        ));
    }
    for key in ["waves", "growth"] {
        if flags.contains_key(key) && topology_name != Some("buyback-hostile") {
            return Err(err(format!(
                "--{key} only applies to --topology buyback-hostile; see `acmr help`"
            )));
        }
    }
    // The hostile families and the stochastic simulator are their own
    // constructions, not random path workloads; they branch off before
    // the spec is built.
    let inst = match topology_name {
        Some("adversarial") => gen_adversarial(&flags, m, cap)?,
        Some("lower-bound") => gen_lower_bound(&flags, m, cap)?,
        Some("stochastic") => gen_stochastic(&flags, m, cap, max_hops, weighted, seed)?,
        Some("buyback-hostile") => gen_buyback_hostile(&flags, m, cap)?,
        _ => {
            let topology = match topology_name {
                None | Some("line") => Topology::Line { m },
                Some("grid") => {
                    let side = ((m as f64).sqrt().ceil() as u32).max(2);
                    Topology::Grid {
                        rows: side,
                        cols: side,
                    }
                }
                Some("tree") => Topology::Tree {
                    levels: (32 - m.leading_zeros()).max(2),
                },
                Some(other) => return Err(err(format!("unknown topology {other:?}"))),
            };
            let spec = PathWorkloadSpec {
                topology,
                capacity: cap,
                overload,
                costs: if weighted {
                    CostModel::Zipf {
                        n_values: 64,
                        s: 1.1,
                    }
                } else {
                    CostModel::Unit
                },
                max_hops,
            };
            random_path_workload(&spec, &mut StdRng::seed_from_u64(seed)).1
        }
    };
    emit_gen(&flags, &inst)
}

/// Parse a whole trace of either format from bytes. The leading magic
/// picks the parser (text v1 / binary v2); unknown magics are refused
/// with a typed error pointing at `docs/TRACE_FORMAT.md`, never
/// mis-parsed as text.
fn parse_trace_bytes(trace: &[u8]) -> Result<(TraceFormat, AdmissionInstance), CliError> {
    let format = sniff_bytes(trace).map_err(|e| err(e.to_string()))?;
    let inst = match format {
        TraceFormat::TextV1 => {
            let text = std::str::from_utf8(trace)
                .map_err(|e| err(format!("text trace is not valid UTF-8: {e}")))?;
            read_trace(text).map_err(|e| err(e.to_string()))?
        }
        TraceFormat::BinaryV2 => read_bin_trace(trace).map_err(|e| err(e.to_string()))?,
    };
    Ok((format, inst))
}

/// `acmr stats` — summarize a trace of either format; the sniffed
/// format is reported in the output.
pub fn cmd_stats(trace: &[u8]) -> Result<String, CliError> {
    let (format, inst) = parse_trace_bytes(trace)?;
    let mut out = String::new();
    out.push_str(&format!(
        "format          : {}\nedges           : {}\nmax capacity    : {}\nrequests        : {}\ntotal cost      : {:.2}\nunweighted      : {}\nmax edge excess : {}\n",
        format.describe(),
        inst.num_edges(),
        inst.max_capacity(),
        inst.requests.len(),
        inst.total_cost(),
        inst.is_unweighted(),
        inst.max_excess(),
    ));
    Ok(out)
}

/// `acmr stats --addr HOST:PORT` — probe a live serving endpoint for
/// its counters (the sessionless `STATS` exchange: connect, greeting,
/// one `STATS` line, one reply). The same numbers are reachable
/// mid-session via `acmr client --stats`; the wire exchange is
/// specified in docs/SERVING.md.
pub fn cmd_stats_remote(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    for key in flags.keys() {
        if !matches!(key.as_str(), "addr" | "format") {
            return Err(err(format!(
                "unknown stats flag --{key} (--addr, --format)"
            )));
        }
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let report = crate::serve::fetch_stats(addr.as_str()).map_err(|e| err(e.to_string()))?;
    render_stats_report(&report, &flags)
}

/// Render a serving [`crate::serve::StatsReport`] in the trace-stats
/// column style (or as JSON with `--format json`).
fn render_stats_report(
    report: &crate::serve::StatsReport,
    flags: &HashMap<String, String>,
) -> Result<String, CliError> {
    match flags.get("format").map(String::as_str) {
        None | Some("text") => {
            let s = &report.server;
            let c = &report.connection;
            Ok(format!(
                "uptime ms       : {}\nconns opened    : {}\nconns active    : {}\nbusy rejections : {}\nsessions opened : {}\nsessions active : {}\narrivals        : {}\nbatches         : {}\nbytes in        : {}\nbytes out       : {}\nerrors          : {}\nthis connection : sessions={} arrivals={} batches={} bytes_in={} bytes_out={} errors={}\n",
                s.uptime_ms,
                s.connections_opened,
                s.connections_active,
                s.busy_rejections,
                s.sessions_opened,
                s.sessions_active,
                s.arrivals,
                s.batches,
                s.bytes_in,
                s.bytes_out,
                s.errors,
                c.sessions,
                c.arrivals,
                c.batches,
                c.bytes_in,
                c.bytes_out,
                c.errors,
            ))
        }
        Some("json") => serde_json::to_string_pretty(report)
            .map(|j| j + "\n")
            .map_err(|e| err(e.to_string())),
        Some(other) => Err(err(format!("unknown --format {other:?} (text or json)"))),
    }
}

/// `acmr convert <in> <out> [--to text|binary]` — rewrite a trace in
/// the other format (or the one `--to` names; converting to the same
/// format canonicalizes it). Streaming both ways, so traces larger
/// than memory convert fine; lossless in both directions — costs keep
/// their exact `f64` bits (the text format's shortest-repr decimals
/// round-trip), footprints their canonical sorted order — so
/// `text → binary → text` and `binary → text → binary` reproduce
/// their inputs byte for byte (`tests/convert_roundtrip.rs` pins
/// this over the golden corpus).
pub fn cmd_convert(args: &[String]) -> Result<String, CliError> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (positional, flag_args) = args.split_at(split);
    let flags = parse_flags(flag_args)?;
    let [input, output] = positional else {
        return Err(err(
            "convert needs an input and an output path: acmr convert <in> <out> [--to text|binary]",
        ));
    };
    // In-place conversion would truncate the input (File::create)
    // before a single record is read — refuse it up front. Canonical
    // paths, so `t.bin` vs `./t.bin` vs a symlink all count as "same
    // file"; a not-yet-existing output cannot collide with an existing
    // input, so its canonicalize failure is fine to ignore.
    if let (Ok(a), Ok(b)) = (std::fs::canonicalize(input), std::fs::canonicalize(output)) {
        if a == b {
            return Err(err(format!(
                "convert cannot write its output over its input ({input}): the output is \
                 truncated before the input is read. Convert to a new path, then rename"
            )));
        }
    }
    let reader = open_trace(input).map_err(|e| err(e.to_string()))?;
    let from = reader.format();
    let to = match flags.get("to").map(String::as_str) {
        None => match from {
            TraceFormat::TextV1 => TraceFormat::BinaryV2,
            TraceFormat::BinaryV2 => TraceFormat::TextV1,
        },
        Some("text") => TraceFormat::TextV1,
        Some("binary") => TraceFormat::BinaryV2,
        Some(other) => return Err(err(format!("unknown --to {other:?} (text or binary)"))),
    };
    let capacities = reader.capacities().to_vec();
    let declared = reader.declared_requests();
    let sink =
        std::fs::File::create(output).map_err(|e| err(format!("cannot create {output}: {e}")))?;
    let sink = std::io::BufWriter::new(sink);
    let wio = |e: std::io::Error| err(format!("cannot write {output}: {e}"));
    match to {
        TraceFormat::TextV1 => {
            let mut w = TraceWriter::new(sink, &capacities, declared as usize).map_err(wio)?;
            for r in reader {
                w.push(&r.map_err(|e| err(e.to_string()))?).map_err(wio)?;
            }
            w.finish().map_err(wio)?;
        }
        TraceFormat::BinaryV2 => {
            let mut w = BinTraceWriter::new(sink, &capacities, declared).map_err(wio)?;
            for r in reader {
                w.push(&r.map_err(|e| err(e.to_string()))?).map_err(wio)?;
            }
            w.finish().map_err(wio)?;
        }
    }
    Ok(format!(
        "converted {input} [{}] -> {output} [{}]: {} edges, {declared} requests\n",
        from.describe(),
        to.describe(),
        capacities.len(),
    ))
}

/// `acmr opt` — best offline bound for a trace of either format.
pub fn cmd_opt(trace: &[u8]) -> Result<String, CliError> {
    let (_, inst) = parse_trace_bytes(trace)?;
    let bound = crate::harness::admission_opt(&inst, BoundBudget::default());
    let kind: &str = bound.kind.label();
    Ok(format!("opt {kind} {:.4}\n", bound.value))
}

/// `acmr algs` — list every algorithm in the default registry.
pub fn cmd_algs() -> Result<String, CliError> {
    let reg = default_registry();
    let mut out = String::new();
    for name in reg.names() {
        out.push_str(&format!(
            "{name:<18} {}\n",
            reg.summary(name).unwrap_or_default()
        ));
    }
    out.push_str(
        "\nSpecs take options after `?`: every algorithm accepts seed=S;\n\
         the aag-* pair additionally accepts threshold=T, prob=P,\n\
         doubling=D, no-prune, and no-classes.\n",
    );
    Ok(out)
}

/// Render a [`crate::core::RunReport`] in the requested `--format`
/// (`text` or `json`) — shared by the in-memory and streamed run
/// paths, which is what makes their outputs byte-identical.
fn render_report(
    report: &crate::core::RunReport,
    flags: &HashMap<String, String>,
) -> Result<String, CliError> {
    match flags.get("format").map(String::as_str) {
        None | Some("text") => Ok(report.to_text()),
        Some("json") => serde_json::to_string_pretty(report)
            .map(|j| j + "\n")
            .map_err(|e| err(e.to_string())),
        Some(other) => Err(err(format!("unknown --format {other:?} (text or json)"))),
    }
}

/// The optional `--batch N` chunk size (`None` when the flag is
/// absent: in-process runs then feed one arrival at a time, cluster
/// runs use the driver's frame size).
fn batch_flag(flags: &HashMap<String, String>) -> Result<Option<usize>, CliError> {
    match flags.get("batch") {
        None => Ok(None),
        Some(_) => Ok(Some(get(flags, "batch", 1)?)),
    }
}

/// The `--proto v1|v2` wire dialect (`acmr serve`, `acmr client`,
/// `acmr run --cluster/--workers`). Defaults to v2 — the binary-frame
/// fast path; force `v1` against fleets that predate it (a v2 request
/// to a v1-only server is answered with its typed `ERR parse` reply,
/// never silently downgraded — see `docs/OPERATIONS.md`).
fn proto_flag(flags: &HashMap<String, String>) -> Result<ProtoVersion, CliError> {
    match flags.get("proto").map(String::as_str) {
        None => Ok(ProtoVersion::V2),
        Some(s) => {
            ProtoVersion::parse(s).ok_or_else(|| err(format!("unknown --proto {s:?} (v1 or v2)")))
        }
    }
}

/// Build the optional worker pool the `--cluster N` / `--workers
/// addr,addr,...` flags ask for: `--cluster` spawns N local `acmr
/// serve` worker processes from this very binary (each announcing its
/// ephemeral port via the `LISTENING <addr>` stderr line the pool
/// parses); `--workers` adopts pre-started serving endpoints instead.
/// `None` when neither flag is present — the in-process paths.
fn cluster_pool(flags: &HashMap<String, String>) -> Result<Option<WorkerPool>, CliError> {
    let proto = proto_flag(flags)?;
    match (flags.get("cluster"), flags.get("workers")) {
        (Some(_), Some(_)) => Err(err(
            "--cluster and --workers are mutually exclusive (spawn local workers OR adopt remote ones)",
        )),
        (Some(_), None) => {
            let count: usize = get(flags, "cluster", 2)?;
            if count == 0 {
                return Err(err("--cluster needs at least 1 worker"));
            }
            let binary = std::env::current_exe()
                .map_err(|e| err(format!("cannot locate the acmr binary to spawn workers: {e}")))?;
            WorkerPool::spawn_local(&binary, count)
                .map(|p| Some(p.proto(proto)))
                .map_err(|e| err(e.to_string()))
        }
        (None, Some(list)) => {
            let addrs: Vec<&str> = list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            if list == "true" || addrs.is_empty() {
                return Err(err(
                    "--workers needs a comma-separated address list, e.g. --workers 10.0.0.1:4790,10.0.0.2:4790",
                ));
            }
            WorkerPool::connect(&addrs)
                .map(|p| Some(p.proto(proto)))
                .map_err(|e| err(e.to_string()))
        }
        (None, None) => Ok(None),
    }
}

/// Run one `(spec, trace)` job through a [`ClusterDriver`] over the
/// given pool and render its report — the cross-process body of `acmr
/// run --cluster/--workers`. The report (offline-optimum context
/// included — bounds are computed locally, the workers only decide)
/// is byte-identical to the in-process `acmr run` output; the CLI
/// cluster test pins that against the real binaries.
fn run_cluster(
    pool: &WorkerPool,
    flags: &HashMap<String, String>,
    source: TraceSource,
    alg_spec: &str,
    seed: u64,
) -> Result<String, CliError> {
    let mut driver = ClusterDriver::new(pool).budget(BoundBudget::default());
    if let Some(batch) = batch_flag(flags)? {
        driver = driver.batch(batch);
    }
    let traces = vec![("trace".to_string(), source)];
    let jobs = vec![SweepJob::new("trace", alg_spec, seed)];
    let sweep = driver
        .run_sources(&traces, &jobs)
        .map_err(|e| err(e.to_string()))?;
    let report = sweep.jobs.into_iter().next().expect("one job ran").report;
    render_report(&report, flags)
}

/// `acmr run` — run a registry algorithm over an in-memory trace of
/// either format; returns the report in the requested `--format`
/// (`text` or `json`).
pub fn cmd_run(args: &[String], trace: &[u8]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    if flags.contains_key("stream") {
        return Err(err("--stream takes a trace file path (or `-` for stdin); \
             use `dispatch_io` / the acmr binary for streamed runs"));
    }
    let (_, inst) = parse_trace_bytes(trace)?;
    run_source(&flags, TraceSource::InMemory(inst))
}

/// The in-process body of `acmr run`, in memory or streamed: one
/// [`run_report`] call with the OPT bound attached, or one cluster job
/// when `--cluster/--workers` asks for worker processes. `--batch N`
/// feeds arrivals in chunks of N; the report is identical for every
/// batch size (the differential suite pins that), only the processing
/// is amortized.
fn run_source(flags: &HashMap<String, String>, trace: TraceSource) -> Result<String, CliError> {
    let seed: u64 = get(flags, "seed", 0)?;
    let alg_spec = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or(DEFAULT_ALGORITHM);
    if let Some(pool) = cluster_pool(flags)? {
        return run_cluster(&pool, flags, trace, alg_spec, seed);
    }
    let batch = batch_flag(flags)?.unwrap_or(1);
    let budget = Some(BoundBudget::default());
    let source = SourceRef::from(&trace);
    let report = run_report(&default_registry(), alg_spec, source, seed, batch, budget)
        .map_err(|e| err(e.to_string()))?;
    render_report(&report, flags)
}

/// A copy of stdin on disk, removed when dropped — on every exit path
/// of the run that reads it.
struct Spill(PathBuf);

impl Spill {
    /// Copy `input` to a fresh file under the OS temp directory, in
    /// chunks: memory stays bounded, disk holds one copy of the trace.
    fn copy_from(input: &mut dyn Read) -> Result<Spill, CliError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "acmr-spool-{}-{}.trace",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = std::fs::File::create(&path)
            .map_err(|e| err(format!("cannot create spill file {}: {e}", path.display())))?;
        let spill = Spill(path);
        std::io::copy(input, &mut file)
            .map_err(|e| err(format!("could not read trace from stdin: {e}")))?;
        Ok(spill)
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `acmr run --stream <file|->` — run a registry algorithm over a
/// trace **streamed in chunks** from a file of either format, never
/// materializing the instance. `-` first copies `stdin` to a spill file
/// and streams that. The report — offline-optimum bound included, via
/// the harness's two-pass scheme — is byte-identical to what
/// [`cmd_run`] produces for the same trace.
pub fn cmd_run_stream(
    args: &[String],
    stdin: &mut dyn Read,
    target: &str,
) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    if target != "-" {
        return run_source(&flags, TraceSource::Path(target.into()));
    }
    // Refuse the unsupported combination *before* cluster_pool spawns
    // (or adopts) a whole worker fleet just to print a usage error.
    if flags.contains_key("cluster") || flags.contains_key("workers") {
        return Err(err(
            "--cluster/--workers cannot replay `--stream -`: the OPT bound and any \
             retry need to re-read the trace. Use --stream FILE, or pipe the trace \
             on stdin without --stream",
        ));
    }
    let spill = Spill::copy_from(stdin)?;
    run_source(&flags, TraceSource::Path(spill.0.clone()))
}

/// Parse the `acmr serve` flags into a [`ServeConfig`] — split out of
/// [`cmd_serve`] so flag errors are unit-testable without binding a
/// socket.
pub fn serve_options(args: &[String]) -> Result<ServeConfig, CliError> {
    let flags = parse_flags(args)?;
    for key in flags.keys() {
        if !matches!(
            key.as_str(),
            "addr" | "max-conns" | "idle-timeout" | "proto" | "reactor-threads"
        ) {
            return Err(err(format!(
                "unknown serve flag --{key} (--addr, --max-conns, --idle-timeout, --proto, --reactor-threads)"
            )));
        }
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let max_connections: usize = get(&flags, "max-conns", 1024)?;
    if max_connections == 0 {
        return Err(err("--max-conns must be at least 1"));
    }
    // --idle-timeout SECS bounds how long a silent peer may pin a
    // connection slot; absent means sessions may idle forever.
    let idle_timeout = match flags.get("idle-timeout") {
        None => None,
        Some(_) => {
            let secs: u64 = get(&flags, "idle-timeout", 30)?;
            if secs == 0 {
                return Err(err("--idle-timeout must be at least 1 second"));
            }
            Some(std::time::Duration::from_secs(secs))
        }
    };
    // --proto v1 caps the server at the line protocol: v2 negotiation
    // attempts get the typed `ERR parse` reply instead of an upgrade.
    let max_proto = proto_flag(&flags)?;
    // --reactor-threads N sets the event-loop shard count; 0 (the
    // default) sizes to the host's available parallelism.
    let reactor_threads: usize = get(&flags, "reactor-threads", 0)?;
    Ok(ServeConfig {
        addr,
        max_connections,
        idle_timeout,
        max_proto,
        reactor_threads,
    })
}

/// `acmr serve` — bind the live serving front end and block until the
/// process is killed. Startup lines go to **stderr** (stdout stays
/// clean for scripting): first the machine-parseable `LISTENING
/// <addr>` line naming the resolved address — so `--addr HOST:0` is
/// usable, the chosen port is discoverable, and
/// `WorkerPool::spawn_local` (the `acmr run --cluster` path) can
/// adopt the worker without scraping prose — then the human-readable
/// line. `tests/serve_cli.rs` pins the order and shape. Wire
/// protocol: `docs/SERVING.md`; operator guide: `docs/OPERATIONS.md`.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let config = serve_options(args)?;
    let handle = crate::serve::serve(default_registry(), config).map_err(|e| err(e.to_string()))?;
    eprintln!("{LISTENING_PREFIX}{}", handle.local_addr());
    eprintln!(
        "acmr-serve listening on {} (protocol: docs/SERVING.md; Ctrl-C to stop)",
        handle.local_addr()
    );
    handle.wait();
    Ok(String::new())
}

/// `acmr client --stream <file|->` — replay a trace through a serving
/// endpoint: the loopback (or remote) twin of `acmr run --stream`.
/// Returns the session's final report in `--format text|json`;
/// `--events` additionally **streams** every audited decision event to
/// `events_out` as one JSON line, in arrival order, as it happens — a
/// multi-million-request replay never buffers its event log (the
/// binary passes stdout; tests pass a `Vec<u8>`). Served reports carry
/// **no** offline-optimum context (a live session cannot see the
/// future); replay the saved trace through `acmr run` for bounds.
pub fn cmd_client(
    args: &[String],
    stdin: &mut dyn Read,
    events_out: &mut dyn std::io::Write,
) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string());
    // `--stats` probes the server's counters instead of replaying a
    // trace — no stdin, no session (`acmr stats --addr` is the
    // standalone spelling of the same exchange).
    if flags.contains_key("stats") {
        let report = crate::serve::fetch_stats(addr.as_str()).map_err(|e| err(e.to_string()))?;
        return render_stats_report(&report, &flags);
    }
    let target = match flags.get("stream").map(String::as_str) {
        Some("true") | None => {
            return Err(err(
                "client needs --stream <file|-> (the trace to replay through the server)",
            ))
        }
        Some(target) => target.to_string(),
    };
    let alg_spec = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or(DEFAULT_ALGORITHM);
    let base_seed: Option<u64> = match flags.get("seed") {
        None => None,
        Some(_) => Some(get(&flags, "seed", 0)?),
    };
    let batch = batch_flag(&flags)?;
    let proto = proto_flag(&flags)?;
    let print_events = flags.contains_key("events");

    let mut write_error: Option<std::io::Error> = None;
    let report = {
        let mut on_event = |event: &crate::core::ArrivalEvent| {
            if !print_events || write_error.is_some() {
                return;
            }
            let written = serde_json::to_string(event)
                .map_err(std::io::Error::other)
                .and_then(|json| writeln!(events_out, "{json}"));
            if let Err(e) = written {
                write_error = Some(e);
            }
        };
        // One replay body for either source; --proto picks the wire.
        // v2 without --events runs in batch-summary mode (the server
        // never serializes per-arrival events at all); with --events
        // it negotiates events=on and streams them exactly like v1.
        let mut replay = |arrivals: &mut dyn Iterator<
            Item = Result<crate::core::Request, crate::core::AcmrError>,
        >,
                          capacities: &[u32]| match proto {
            ProtoVersion::V1 => serve_trace(
                addr.as_str(),
                alg_spec,
                base_seed,
                capacities,
                arrivals,
                batch,
                &mut on_event,
            ),
            ProtoVersion::V2 => serve_trace_v2(
                addr.as_str(),
                alg_spec,
                base_seed,
                capacities,
                arrivals,
                batch,
                print_events,
                &mut on_event,
            ),
        };
        if target == "-" {
            let reader = TraceReader::new(stdin).map_err(|e| err(e.to_string()))?;
            let capacities = reader.capacities().to_vec();
            replay(&mut reader.into_iter(), &capacities)
        } else {
            // Either trace format: sniffed, binary replays off an mmap.
            let reader = open_trace(&target).map_err(|e| err(e.to_string()))?;
            let capacities = reader.capacities().to_vec();
            replay(&mut reader.into_iter(), &capacities)
        }
        .map_err(|e| err(e.to_string()))?
    };
    if let Some(e) = write_error {
        return Err(err(format!("cannot write event stream: {e}")));
    }
    render_report(&report, &flags)
}

/// Top-level dispatch over a raw stdin byte stream; only the commands
/// that need stdin touch it, and `run --stream -` reads it **chunked**
/// instead of slurping. Returns the stdout payload.
pub fn dispatch_io(argv: &[String], stdin: &mut dyn Read) -> Result<String, CliError> {
    // Traces of either format arrive on stdin, so it is read as raw
    // bytes; the trace's magic picks the parser.
    let slurp = |stdin: &mut dyn Read| -> Result<Vec<u8>, CliError> {
        let mut bytes = Vec::new();
        stdin
            .read_to_end(&mut bytes)
            .map_err(|e| err(format!("could not read trace from stdin: {e}")))?;
        Ok(bytes)
    };
    match argv.first().map(String::as_str) {
        Some("gen") => cmd_gen(&argv[1..]),
        // `stats --addr` probes a live server and must not block on
        // stdin; plain `stats` summarizes a trace piped in.
        Some("stats") => {
            if parse_flags(&argv[1..])?.contains_key("addr") {
                cmd_stats_remote(&argv[1..])
            } else {
                cmd_stats(&slurp(stdin)?)
            }
        }
        Some("convert") => cmd_convert(&argv[1..]),
        Some("opt") => cmd_opt(&slurp(stdin)?),
        Some("algs") => cmd_algs(),
        Some("run") => {
            let args = &argv[1..];
            match parse_flags(args)?.get("stream").map(String::as_str) {
                None => cmd_run(args, &slurp(stdin)?),
                Some("true") => Err(err(
                    "--stream needs a trace file path, or `-` to stream stdin",
                )),
                Some(target) => {
                    let target = target.to_string();
                    cmd_run_stream(args, stdin, &target)
                }
            }
        }
        Some("serve") => cmd_serve(&argv[1..]),
        Some("client") => {
            // Events stream to stdout as they happen (the report — the
            // returned string — is printed after them by the shim).
            cmd_client(&argv[1..], stdin, &mut std::io::stdout())
        }
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(err(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// [`dispatch_io`] over an in-memory stdin string — the test-friendly
/// shape (kept from before streaming existed).
pub fn dispatch(argv: &[String], stdin: &str) -> Result<String, CliError> {
    dispatch_io(argv, &mut stdin.as_bytes())
}

/// CLI usage text — the single source the README's usage block is
/// generated from (`tests/readme_sync.rs` pins them together, so help
/// and README cannot drift).
pub const USAGE: &str =
    "acmr — admission control to minimize rejections (Alon–Azar–Gutner, SPAA 2005)

USAGE:
  acmr gen  [--topology line|grid|tree|adversarial|lower-bound|stochastic
            |buyback-hostile]
            [--m N] [--cap C] [--overload F] [--seed S] [--weighted]
            [--max-hops H]                             # trace to stdout
            [--format text|binary] [--out FILE]
            adversarial: [--family nested|hot-edge|squeeze] [--rounds R]
            [--shrink K] [--total T] [--width W] [--hits H]
            lower-bound: [--levels L] [--rounds R]     (dyadic intervals)
            stochastic: [--model iid|mmpp|diurnal|flash]
            [--arrival-rate F] [--duration T] [--period P]
            [--amplitude A] [--width W] [--boost B]
            seeded traffic simulator over a line network: Poisson
            sessions with heavy-tailed sizes and path widths under
            the chosen arrival process (constant, Markov-modulated,
            sinusoidal, flash crowds)
            buyback-hostile: [--waves W] [--growth G]
            geometric cost-escalation waves that punish non-preempting
            algorithms (pair with the `buyback?factor=F` policy, which
            pays factor*cost per cancellation — see `acmr algs`)
            --format binary emits the mmap-able ACMR-TRACE v2 records
            (raw bytes, so it requires --out FILE; text defaults to
            stdout, or to --out when given)
  acmr stats                                           # trace from stdin
            accepts both formats (the leading magic picks the parser),
            reports which one it saw, and refuses unknown magics with
            a typed error instead of mis-parsing
  acmr stats --addr HOST:PORT [--format text|json]     # probe a server
            asks a live `acmr serve` endpoint for its counters
            (connections, sessions, arrivals, bytes, errors, busy
            rejections, uptime) over the sessionless STATS exchange
  acmr convert IN OUT [--to text|binary]               # rewrite a trace
            losslessly converts between the text and binary formats,
            streaming (traces larger than memory convert fine); --to
            defaults to the opposite of the input's format; IN and OUT
            must be different files (in-place would truncate the input)
  acmr opt                                             # trace from stdin
  acmr algs                                            # list algorithms
  acmr run  [--alg SPEC] [--seed S] [--batch N] [--format text|json]
            [--stream FILE|-] [--cluster N | --workers ADDR,ADDR]
            [--proto v1|v2]
            SPEC: a registry name with optional options, e.g.
            'aag-unweighted?seed=7&no-prune' — see `acmr algs`
            --batch N feeds arrivals through the batched session path
            (identical report, amortized processing)  # trace from stdin
            --stream FILE|- ingests the trace in chunks without ever
            holding it in memory (`-` streams stdin); reports are
            byte-identical to the in-memory path
            --cluster N spawns N local `acmr serve` worker processes
            and replays the run through them (OPT bounds still local;
            reports byte-identical to the in-process path); --workers
            adopts pre-started serving endpoints instead. Worker
            failures retry on survivors, bounded, with typed errors
  acmr serve  [--addr HOST:PORT] [--max-conns N]       # live front end
            [--idle-timeout SECS] [--proto v1|v2] [--reactor-threads N]
            serves the ACMR-SERVE socket protocol: one admission
            session per connection, one audited decision event per
            arrival (default addr 127.0.0.1:4790; --addr HOST:0 picks
            an ephemeral port; stderr's first line is the machine-
            parseable `LISTENING HOST:PORT`; --idle-timeout bounds
            how long a silent peer may hold a connection slot;
            --proto v1 caps sessions at the line protocol — by default
            clients may negotiate the v2 binary-frame dialect).
            Connections are multiplexed across --reactor-threads
            event-loop shards (0, the default, sizes to the host);
            past --max-conns a connection gets one typed `ERR busy`
            reply and a polite close — see docs/OPERATIONS.md
  acmr client --stream FILE|- [--addr HOST:PORT] [--alg SPEC]
            [--seed S] [--batch N] [--format text|json] [--events]
            [--proto v1|v2]
            replays a trace through a serving endpoint and prints the
            session's final report (--events also prints every decision
            event as a JSON line); served reports carry no offline
            OPT bound — replay the trace through `acmr run` for one.
            --proto defaults to v2 (binary frames, batch-summary acks;
            arrival frames are exactly ACMR-TRACE v2 record bytes);
            force v1 against servers that predate the v2 dialect
  acmr client --stats [--addr HOST:PORT] [--format text|json]
            probes the endpoint's STATS counters without replaying
            anything — shorthand for `acmr stats --addr HOST:PORT`

Traces come in two interconvertible dialects, both specified in
docs/TRACE_FORMAT.md: the plain-text `ACMR-TRACE v1` grammar `acmr gen`
emits by default, and the binary mmap-able `ACMR-TRACE v2` record
format (`acmr gen --format binary`, `acmr convert`) that file-backed
commands (`run --stream FILE`, `client --stream FILE`, sweeps) replay
zero-copy off a memory map. Every file-taking command sniffs the
leading magic, so both formats work everywhere a trace file does. The
serving wire protocol (handshake, frames, error replies, shutdown
semantics) is specified in docs/SERVING.md; docs/OPERATIONS.md is the
operator guide to running `acmr serve`.
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{AlgorithmSpec, RunReport};
    use proptest::prelude::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn gen_stats_opt_run_pipeline() {
        let trace = cmd_gen(&argv(&["--m", "16", "--cap", "2", "--seed", "5"])).unwrap();
        assert!(trace.starts_with("ACMR-TRACE v1"));
        let stats = cmd_stats(trace.as_bytes()).unwrap();
        assert!(stats.contains("edges           : 16"));
        let opt = cmd_opt(trace.as_bytes()).unwrap();
        assert!(opt.starts_with("opt "));
        let run = cmd_run(
            &argv(&["--alg", "aag-unweighted", "--seed", "1"]),
            trace.as_bytes(),
        )
        .unwrap();
        assert!(run.contains("ratio"));
        // The seed actually used is echoed, making the report
        // reproducible from its own text.
        assert!(run.contains("seed           : 1"), "{run}");
    }

    #[test]
    fn weighted_gen_has_varied_costs() {
        let trace = cmd_gen(&argv(&["--m", "16", "--weighted", "--seed", "3"])).unwrap();
        let stats = cmd_stats(trace.as_bytes()).unwrap();
        assert!(stats.contains("unweighted      : false"));
    }

    #[test]
    fn json_report_round_trips() {
        let trace = cmd_gen(&argv(&["--m", "12", "--cap", "2", "--seed", "9"])).unwrap();
        let json = cmd_run(
            &argv(&["--alg", "greedy", "--seed", "3", "--format", "json"]),
            trace.as_bytes(),
        )
        .unwrap();
        let report: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.algorithm, "greedy");
        assert_eq!(report.seed, Some(3));
        assert!(report.opt.is_some());
        // And back again, identically.
        let again = serde_json::to_string_pretty(&report).unwrap() + "\n";
        assert_eq!(again, json);
    }

    #[test]
    fn spec_seed_overrides_flag_seed() {
        let trace = cmd_gen(&argv(&["--m", "10", "--cap", "2", "--seed", "2"])).unwrap();
        let out = cmd_run(
            &argv(&["--alg", "aag-unweighted?seed=9", "--seed", "1"]),
            trace.as_bytes(),
        )
        .unwrap();
        assert!(out.contains("seed           : 9"), "{out}");
    }

    #[test]
    fn algs_lists_every_registered_name() {
        let listing = cmd_algs().unwrap();
        for name in default_registry().names() {
            assert!(listing.contains(name), "{name} missing from listing");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every registered algorithm (no hard-coded list: the registry
        /// itself is enumerated) round-trips through `AlgorithmSpec`
        /// parsing and runs feasibly on a smoke trace from every
        /// topology × weighting combination.
        #[test]
        fn registry_round_trips_and_runs_on_smoke_traces(
            topology in prop_oneof![Just("line"), Just("grid"), Just("tree")],
            weighted in prop_oneof![Just(true), Just(false)],
            seed in 0u64..1000,
        ) {
            let mut gen_args = vec![
                "--m".to_string(), "12".to_string(),
                "--cap".to_string(), "2".to_string(),
                "--seed".to_string(), seed.to_string(),
                "--topology".to_string(), topology.to_string(),
            ];
            if weighted {
                gen_args.push("--weighted".to_string());
            }
            let trace = cmd_gen(&gen_args).unwrap();
            for name in default_registry().names() {
                // Spec round-trip: name parses, canonicalizes, reparses.
                let spec = AlgorithmSpec::parse(name).unwrap();
                prop_assert_eq!(&AlgorithmSpec::parse(&spec.canonical()).unwrap(), &spec);
                let with_seed = AlgorithmSpec::parse(&format!("{name}?seed={seed}")).unwrap();
                prop_assert_eq!(with_seed.seed().unwrap(), Some(seed));
                // And the algorithm actually runs (feasibility audited
                // inside the Session; any violation would error here).
                let out = cmd_run(
                    &argv(&["--alg", name, "--seed", &seed.to_string()]),
                    trace.as_bytes(),
                ).unwrap();
                prop_assert!(out.contains(name), "missing name in {}", out);
            }
        }
    }

    #[test]
    fn adversarial_topologies_generate_and_run() {
        // Every hostile family produces a parseable trace that every
        // registered algorithm survives (audited inside the Session).
        for gen_args in [
            argv(&["--topology", "adversarial", "--m", "12", "--cap", "2"]),
            argv(&[
                "--topology",
                "adversarial",
                "--family",
                "hot-edge",
                "--m",
                "6",
                "--cap",
                "2",
                "--total",
                "9",
            ]),
            argv(&[
                "--topology",
                "adversarial",
                "--family",
                "squeeze",
                "--m",
                "12",
                "--cap",
                "3",
                "--width",
                "4",
                "--hits",
                "2",
            ]),
            argv(&["--topology", "lower-bound", "--m", "16", "--cap", "3"]),
            argv(&[
                "--topology",
                "lower-bound",
                "--levels",
                "3",
                "--rounds",
                "3",
            ]),
            argv(&[
                "--topology",
                "buyback-hostile",
                "--m",
                "4",
                "--cap",
                "2",
                "--waves",
                "3",
                "--growth",
                "4",
            ]),
        ] {
            let trace = cmd_gen(&gen_args).unwrap();
            let stats = cmd_stats(trace.as_bytes()).unwrap();
            assert!(stats.contains("max edge excess"), "{stats}");
            for name in default_registry().names() {
                cmd_run(&argv(&["--alg", name, "--seed", "2"]), trace.as_bytes()).unwrap();
            }
        }
        // --m 16 defaults lower-bound to levels 4 (16 dyadic edges).
        let trace = cmd_gen(&argv(&["--topology", "lower-bound", "--m", "16"])).unwrap();
        assert!(cmd_stats(trace.as_bytes())
            .unwrap()
            .contains("edges           : 16"));
        // A huge --m clamps the default levels to the generator's
        // ceiling instead of erroring about a flag the user never set.
        let trace = cmd_gen(&argv(&[
            "--topology",
            "lower-bound",
            "--m",
            "200000",
            "--rounds",
            "1",
        ]))
        .unwrap();
        assert!(cmd_stats(trace.as_bytes())
            .unwrap()
            .contains("edges           : 65536"));
    }

    #[test]
    fn adversarial_flag_errors_are_reported() {
        let adv = |rest: &[&str]| {
            let mut a = vec!["--topology".to_string(), "adversarial".to_string()];
            a.extend(rest.iter().map(|s| s.to_string()));
            cmd_gen(&a)
        };
        let e = adv(&["--family", "torus"]).unwrap_err();
        assert!(e.to_string().contains("unknown adversarial family"), "{e}");
        let e = adv(&["--family", "squeeze", "--cap", "2", "--hits", "5"]).unwrap_err();
        assert!(e.to_string().contains("exceeds --cap"), "{e}");
        let e = adv(&["--family", "squeeze", "--m", "8", "--width", "9"]).unwrap_err();
        assert!(e.to_string().contains("--width"), "{e}");
        assert!(adv(&["--m", "1"]).is_err());
        assert!(adv(&["--rounds", "0"]).is_err());
        assert!(adv(&["--shrink", "0"]).is_err());
        // --family without the adversarial topology is a usage error —
        // including with lower-bound, which would otherwise silently
        // drop it.
        let e = cmd_gen(&argv(&["--family", "nested"])).unwrap_err();
        assert!(e.to_string().contains("--family only applies"), "{e}");
        let e = cmd_gen(&argv(&["--topology", "lower-bound", "--family", "nested"])).unwrap_err();
        assert!(e.to_string().contains("--family only applies"), "{e}");
        // hot-edge's default --total saturates instead of overflowing.
        assert!(adv(&[
            "--family",
            "hot-edge",
            "--cap",
            "4000000000",
            "--total",
            "2"
        ])
        .is_ok());
        // lower-bound level bounds.
        let e = cmd_gen(&argv(&["--topology", "lower-bound", "--levels", "17"])).unwrap_err();
        assert!(e.to_string().contains("--levels"), "{e}");
        assert!(cmd_gen(&argv(&["--topology", "lower-bound", "--levels", "0"])).is_err());
        assert!(cmd_gen(&argv(&["--topology", "lower-bound", "--rounds", "0"])).is_err());
        // --cap 0 is rejected up front for every topology (the trace
        // format forbids zero capacities, and the deterministic
        // generators would otherwise assert).
        for topo in [
            "line",
            "grid",
            "tree",
            "adversarial",
            "lower-bound",
            "stochastic",
            "buyback-hostile",
        ] {
            let e = cmd_gen(&argv(&["--topology", topo, "--cap", "0"])).unwrap_err();
            assert!(e.to_string().contains("--cap"), "{topo}: {e}");
        }
    }

    #[test]
    fn buyback_hostile_gen_generates_and_validates_flags() {
        let bb = |rest: &[&str]| {
            let mut a = vec!["--topology".to_string(), "buyback-hostile".to_string()];
            a.extend(rest.iter().map(|s| s.to_string()));
            cmd_gen(&a)
        };
        // waves × m × cap singleton requests, deterministically.
        let args = ["--m", "4", "--cap", "2", "--waves", "3"];
        let trace = bb(&args).unwrap();
        let stats = cmd_stats(trace.as_bytes()).unwrap();
        assert!(stats.contains("edges           : 4"), "{stats}");
        assert!(stats.contains("requests        : 24"), "{stats}");
        assert_eq!(trace, bb(&args).unwrap(), "gen must be deterministic");
        // Flag validation: typed errors pointing at the help text, NaN
        // included.
        for bad in [
            &["--waves", "1"][..],
            &["--growth", "1.0"][..],
            &["--growth", "nan"][..],
            &["--growth", "inf"][..],
            &["--m", "0"][..],
        ] {
            assert!(bb(bad).is_err(), "{bad:?}");
        }
        let e = bb(&["--growth", "0.5"]).unwrap_err();
        assert!(e.to_string().contains("--growth"), "{e}");
        assert!(e.to_string().contains("acmr help"), "{e}");
        // --waves/--growth without the topology are usage errors, like
        // --family and --model.
        for misplaced in [&["--waves", "3"][..], &["--growth", "3"][..]] {
            let e = cmd_gen(&argv(misplaced)).unwrap_err();
            assert!(e.to_string().contains("only applies"), "{e}");
            assert!(e.to_string().contains("acmr help"), "{e}");
        }
    }

    #[test]
    fn stochastic_gen_generates_and_validates_flags() {
        // Every model produces a parseable trace, deterministically.
        for model in ["iid", "mmpp", "diurnal", "flash"] {
            let args = argv(&[
                "--topology",
                "stochastic",
                "--model",
                model,
                "--m",
                "24",
                "--cap",
                "3",
                "--duration",
                "48",
                "--seed",
                "9",
            ]);
            let trace = cmd_gen(&args).unwrap();
            assert!(
                cmd_stats(trace.as_bytes())
                    .unwrap()
                    .contains("edges           : 24"),
                "{model}: stats reject the generated trace"
            );
            assert_eq!(trace, cmd_gen(&args).unwrap(), "{model}: not deterministic");
        }
        // Unknown model and misplaced --model are typed errors pointing
        // at the help text.
        let e = cmd_gen(&argv(&["--topology", "stochastic", "--model", "fractal"])).unwrap_err();
        assert!(e.to_string().contains("unknown stochastic model"), "{e}");
        assert!(e.to_string().contains("acmr help"), "{e}");
        for topo in &[
            &["--model", "iid"][..],
            &["--topology", "line", "--model", "iid"][..],
        ] {
            let e = cmd_gen(&argv(topo)).unwrap_err();
            assert!(e.to_string().contains("--model only applies"), "{e}");
            assert!(e.to_string().contains("acmr help"), "{e}");
        }
        // --family errors point at the help text too.
        let e = cmd_gen(&argv(&["--family", "nested"])).unwrap_err();
        assert!(e.to_string().contains("acmr help"), "{e}");
        // Model-parameter validation surfaces as typed errors, not
        // generator panics.
        let stoch = |rest: &[&str]| {
            let mut a = vec!["--topology".to_string(), "stochastic".to_string()];
            a.extend(rest.iter().map(|s| s.to_string()));
            cmd_gen(&a)
        };
        assert!(stoch(&["--arrival-rate", "0"]).is_err());
        assert!(stoch(&["--arrival-rate", "nan"]).is_err());
        assert!(stoch(&["--duration", "0"]).is_err());
        assert!(stoch(&["--model", "diurnal", "--amplitude", "1.5"]).is_err());
        assert!(stoch(&["--model", "diurnal", "--period", "1"]).is_err());
        assert!(stoch(&["--model", "flash", "--width", "64"]).is_err());
        assert!(stoch(&["--model", "flash", "--boost", "1.0"]).is_err());
        assert!(stoch(&["--m", "1"]).is_err());
        // NaN is rejected by every float flag, not just --arrival-rate
        // (regression: --boost and --overload accepted it silently).
        assert!(stoch(&["--model", "diurnal", "--amplitude", "nan"]).is_err());
        assert!(stoch(&["--model", "flash", "--boost", "nan"]).is_err());
        for bad in ["nan", "inf", "0", "-2"] {
            let e = cmd_gen(&argv(&["--overload", bad])).unwrap_err();
            assert!(e.to_string().contains("--overload"), "{bad}: {e}");
            assert!(e.to_string().contains("acmr help"), "{bad}: {e}");
        }
    }

    #[test]
    fn batched_run_output_is_identical_to_streaming() {
        let trace = cmd_gen(&argv(&[
            "--m",
            "16",
            "--cap",
            "2",
            "--seed",
            "8",
            "--weighted",
        ]))
        .unwrap();
        for alg in ["greedy", "aag-weighted"] {
            let streaming = cmd_run(
                &argv(&["--alg", alg, "--seed", "4", "--format", "json"]),
                trace.as_bytes(),
            )
            .unwrap();
            for batch in ["1", "7", "1000"] {
                let batched = cmd_run(
                    &argv(&[
                        "--alg", alg, "--seed", "4", "--format", "json", "--batch", batch,
                    ]),
                    trace.as_bytes(),
                )
                .unwrap();
                assert_eq!(batched, streaming, "{alg} batch {batch}");
            }
        }
        // Batch 0 and non-numeric batch are usage errors.
        let e = cmd_run(&argv(&["--batch", "0"]), trace.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("batch size"), "{e}");
        assert!(cmd_run(&argv(&["--batch", "lots"]), trace.as_bytes()).is_err());
    }

    #[test]
    fn streamed_run_is_byte_identical_to_in_memory_run() {
        // The committed golden trace is the reference input: stream it
        // from its file and from simulated stdin, and require the
        // byte-identical report the in-memory path prints.
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/adv-squeeze.trace"
        );
        let trace = std::fs::read_to_string(golden).unwrap();
        for format in ["text", "json"] {
            for alg in ["greedy", "aag-weighted"] {
                let in_memory = cmd_run(
                    &argv(&["--alg", alg, "--seed", "4", "--format", format]),
                    trace.as_bytes(),
                )
                .unwrap();
                // --stream <file>: two passes over the file.
                let from_file = dispatch(
                    &argv(&[
                        "run", "--alg", alg, "--seed", "4", "--format", format, "--stream", golden,
                    ]),
                    "", // stdin unused
                )
                .unwrap();
                assert_eq!(from_file, in_memory, "{alg} --format {format} file");
                // --stream -: chunked stdin, spilled for pass 2.
                let from_stdin = dispatch(
                    &argv(&[
                        "run", "--alg", alg, "--seed", "4", "--format", format, "--stream", "-",
                    ]),
                    &trace,
                )
                .unwrap();
                assert_eq!(from_stdin, in_memory, "{alg} --format {format} stdin");
                // And batched streaming stays identical too.
                let batched = dispatch(
                    &argv(&[
                        "run", "--alg", alg, "--seed", "4", "--format", format, "--stream", "-",
                        "--batch", "7",
                    ]),
                    &trace,
                )
                .unwrap();
                assert_eq!(batched, in_memory, "{alg} --format {format} batched");
            }
        }
    }

    #[test]
    fn stdin_spill_holds_stdin_and_is_removed_on_drop() {
        let trace = cmd_gen(&argv(&["--m", "8", "--cap", "2"])).unwrap();
        let spill = Spill::copy_from(&mut trace.as_bytes()).unwrap();
        let path = spill.0.clone();
        assert_eq!(std::fs::read(&path).unwrap(), trace.as_bytes());
        drop(spill);
        assert!(!path.exists(), "spill file must be removed");
    }

    #[test]
    fn streamed_run_flag_errors_are_reported() {
        // Bare --stream has no target.
        let e = dispatch(&argv(&["run", "--stream"]), "").unwrap_err();
        assert!(e.to_string().contains("--stream needs"), "{e}");
        // Missing file: typed I/O error, mentioning the path.
        let e = dispatch(&argv(&["run", "--stream", "/no/such.trace"]), "").unwrap_err();
        assert!(e.to_string().contains("/no/such.trace"), "{e}");
        // Malformed stdin stream: the parse error carries the line and
        // points at the format spec.
        let e = dispatch(&argv(&["run", "--stream", "-"]), "ACMR-TRACE v9\n").unwrap_err();
        assert!(e.to_string().contains("docs/TRACE_FORMAT.md"), "{e}");
        // cmd_run proper refuses --stream (it has no byte stream).
        assert!(cmd_run(&argv(&["--stream", "-"]), b"x").is_err());
    }

    #[test]
    fn binary_gen_convert_stats_run_pipeline() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let p = |name: &str| {
            dir.join(format!("acmr-cli-bin-{pid}-{name}"))
                .to_str()
                .unwrap()
                .to_string()
        };
        let (text_path, bin_path, bin2_path, text2_path) =
            (p("a.trace"), p("a.bin"), p("b.bin"), p("b.trace"));

        // gen --out writes the file and prints nothing.
        let gen_args = &["--m", "16", "--cap", "2", "--seed", "5", "--weighted"];
        let mut args = argv(gen_args);
        args.extend(argv(&["--out", &text_path]));
        assert_eq!(cmd_gen(&args).unwrap(), "");
        // …and matches stdout generation exactly.
        assert_eq!(
            std::fs::read_to_string(&text_path).unwrap(),
            cmd_gen(&argv(gen_args)).unwrap()
        );
        // gen --format binary requires --out (stdout is text-only).
        let mut args = argv(gen_args);
        args.extend(argv(&["--format", "binary"]));
        let e = cmd_gen(&args).unwrap_err();
        assert!(e.to_string().contains("--out"), "{e}");
        args.extend(argv(&["--out", &bin_path]));
        assert_eq!(cmd_gen(&args).unwrap(), "");

        // stats reads both formats, reports which it saw, and agrees
        // on every other line.
        let text = std::fs::read(&text_path).unwrap();
        let bin = std::fs::read(&bin_path).unwrap();
        let st = cmd_stats(&text).unwrap();
        let sb = cmd_stats(&bin).unwrap();
        assert!(
            st.contains("format          : ACMR-TRACE v1 (text)"),
            "{st}"
        );
        assert!(
            sb.contains("format          : ACMR-TRACE v2 (binary)"),
            "{sb}"
        );
        assert_eq!(
            st.lines().skip(1).collect::<Vec<_>>(),
            sb.lines().skip(1).collect::<Vec<_>>()
        );
        // Unknown magic: typed refusal pointing at the spec, not a
        // text mis-parse.
        let e = cmd_stats(b"\x7fELF junk").unwrap_err();
        assert!(e.to_string().contains("docs/TRACE_FORMAT.md"), "{e}");
        assert!(e.to_string().contains("unrecognized trace magic"), "{e}");

        // convert text→binary (default --to flips the format) equals
        // direct binary generation; binary→text reproduces the
        // original text byte for byte.
        let summary = cmd_convert(&argv(&[&text_path, &bin2_path])).unwrap();
        assert!(summary.contains("ACMR-TRACE v2 (binary)"), "{summary}");
        assert_eq!(std::fs::read(&bin2_path).unwrap(), bin);
        cmd_convert(&argv(&[&bin_path, &text2_path, "--to", "text"])).unwrap();
        assert_eq!(std::fs::read(&text2_path).unwrap(), text);

        // run --stream replays the binary trace (zero-copy) with a
        // byte-identical report to the text path.
        let stream = |path: &str| {
            dispatch(
                &argv(&[
                    "run",
                    "--alg",
                    "aag-weighted",
                    "--seed",
                    "4",
                    "--format",
                    "json",
                    "--stream",
                    path,
                ]),
                "",
            )
            .unwrap()
        };
        assert_eq!(stream(&bin_path), stream(&text_path));

        // convert usage errors.
        assert!(cmd_convert(&argv(&[&text_path])).is_err());
        let e = cmd_convert(&argv(&[&text_path, &bin2_path, "--to", "yaml"])).unwrap_err();
        assert!(e.to_string().contains("--to"), "{e}");
        let e = cmd_convert(&argv(&["/no/such.trace", &bin2_path])).unwrap_err();
        assert!(e.to_string().contains("/no/such.trace"), "{e}");

        for path in [text_path, bin_path, bin2_path, text2_path] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn serve_flag_errors_are_reported_without_binding() {
        // Defaults resolve.
        let config = serve_options(&[]).unwrap();
        assert_eq!(config.addr, crate::serve::DEFAULT_ADDR);
        assert_eq!(config.max_connections, 1024);
        assert_eq!(config.idle_timeout, None);
        let config = serve_options(&argv(&[
            "--addr",
            "0.0.0.0:9",
            "--max-conns",
            "4",
            "--idle-timeout",
            "30",
        ]))
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:9");
        assert_eq!(config.max_connections, 4);
        assert_eq!(
            config.idle_timeout,
            Some(std::time::Duration::from_secs(30))
        );
        // Typed flag errors.
        let e = serve_options(&argv(&["--max-conns", "0"])).unwrap_err();
        assert!(e.to_string().contains("--max-conns"), "{e}");
        assert!(serve_options(&argv(&["--max-conns", "lots"])).is_err());
        let e = serve_options(&argv(&["--idle-timeout", "0"])).unwrap_err();
        assert!(e.to_string().contains("--idle-timeout"), "{e}");
        assert!(serve_options(&argv(&["--idle-timeout", "soon"])).is_err());
        let e = serve_options(&argv(&["--port", "7"])).unwrap_err();
        assert!(e.to_string().contains("unknown serve flag"), "{e}");
        // An unbindable address is a typed error, not a panic.
        let e = cmd_serve(&argv(&["--addr", "256.256.256.256:1"])).unwrap_err();
        assert!(e.to_string().contains("cannot bind"), "{e}");
    }

    #[test]
    fn client_replays_traces_through_a_live_server() {
        // In-process server; the CLI client speaks to it over loopback.
        let handle = crate::serve::serve(
            default_registry(),
            crate::serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr().to_string();
        let trace = cmd_gen(&argv(&["--m", "12", "--cap", "2", "--seed", "6"])).unwrap();

        // The served report equals the in-memory run minus the OPT
        // context a live session cannot compute.
        let mut expected: RunReport = serde_json::from_str(
            &cmd_run(
                &argv(&["--alg", "greedy", "--seed", "2", "--format", "json"]),
                trace.as_bytes(),
            )
            .unwrap(),
        )
        .unwrap();
        expected.opt = None;
        let expected_json = serde_json::to_string_pretty(&expected).unwrap() + "\n";

        // --stream - (stdin) and --batch N must both match.
        for extra in [&[][..], &["--batch", "5"][..]] {
            let mut args = argv(&[
                "client", "--stream", "-", "--addr", &addr, "--alg", "greedy", "--seed", "2",
                "--format", "json",
            ]);
            args.extend(extra.iter().map(|s| s.to_string()));
            let out = dispatch(&args, &trace).unwrap();
            assert_eq!(out, expected_json, "extra flags {extra:?}");
        }

        // --events streams one JSON decision line per arrival into the
        // events sink (stdout in the binary), ahead of the report.
        let mut events_sink = Vec::new();
        let out = cmd_client(
            &argv(&[
                "--stream", "-", "--addr", &addr, "--alg", "greedy", "--seed", "2", "--events",
            ]),
            &mut trace.as_bytes(),
            &mut events_sink,
        )
        .unwrap();
        let events_text = String::from_utf8(events_sink).unwrap();
        let event_lines = events_text.lines().filter(|l| l.starts_with('{')).count();
        assert_eq!(event_lines, expected.requests, "{events_text}");
        assert!(out.contains("algorithm      : greedy"), "{out}");
        assert!(!out.contains('{'), "report must not carry events: {out}");

        // Usage errors.
        let e = dispatch(&argv(&["client"]), "").unwrap_err();
        assert!(e.to_string().contains("--stream"), "{e}");
        let e = dispatch(&argv(&["client", "--stream"]), "").unwrap_err();
        assert!(e.to_string().contains("--stream"), "{e}");
        // Server-side failures come back as typed remote errors.
        let e = dispatch(
            &argv(&["client", "--stream", "-", "--addr", &addr, "--alg", "nope"]),
            &trace,
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown-algorithm"), "{e}");
        handle.shutdown();
    }

    #[test]
    fn client_without_a_server_reports_a_typed_error() {
        // Nothing listens on this port (bind-then-drop reserves one).
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let trace = cmd_gen(&argv(&["--m", "4", "--cap", "1"])).unwrap();
        let e = dispatch(&argv(&["client", "--stream", "-", "--addr", &addr]), &trace).unwrap_err();
        assert!(e.to_string().contains("cannot connect"), "{e}");
    }

    #[test]
    fn workers_flag_runs_byte_identically_through_adopted_servers() {
        // Two in-process serving workers; `acmr run --workers a,b`
        // must produce the byte-identical report (OPT context
        // included — bounds are computed locally) to plain `acmr run`.
        let w1 = crate::serve::serve(
            default_registry(),
            crate::serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
        )
        .unwrap();
        let w2 = crate::serve::serve(
            default_registry(),
            crate::serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
        )
        .unwrap();
        let workers = format!("{},{}", w1.local_addr(), w2.local_addr());
        let trace = cmd_gen(&argv(&["--m", "12", "--cap", "2", "--seed", "6"])).unwrap();
        for format in ["text", "json"] {
            let expected = cmd_run(
                &argv(&["--alg", "aag-weighted", "--seed", "3", "--format", format]),
                trace.as_bytes(),
            )
            .unwrap();
            let clustered = cmd_run(
                &argv(&[
                    "--alg",
                    "aag-weighted",
                    "--seed",
                    "3",
                    "--format",
                    format,
                    "--workers",
                    &workers,
                ]),
                trace.as_bytes(),
            )
            .unwrap();
            assert_eq!(clustered, expected, "--format {format}");
            // And batched framing does not change the report either.
            let batched = cmd_run(
                &argv(&[
                    "--alg",
                    "aag-weighted",
                    "--seed",
                    "3",
                    "--format",
                    format,
                    "--workers",
                    &workers,
                    "--batch",
                    "5",
                ]),
                trace.as_bytes(),
            )
            .unwrap();
            assert_eq!(batched, expected, "--format {format} --batch 5");
        }
        // A worker-side failure surfaces as a typed error, not a panic.
        let e = cmd_run(
            &argv(&["--alg", "nope", "--workers", &workers]),
            trace.as_bytes(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown-algorithm"), "{e}");
        w1.shutdown();
        w2.shutdown();
    }

    #[test]
    fn cluster_flag_errors_are_reported() {
        let trace = cmd_gen(&argv(&["--m", "4", "--cap", "1"])).unwrap();
        let e = cmd_run(
            &argv(&["--cluster", "2", "--workers", "127.0.0.1:1"]),
            trace.as_bytes(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
        let e = cmd_run(&argv(&["--cluster", "0"]), trace.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("--cluster"), "{e}");
        assert!(cmd_run(&argv(&["--cluster", "lots"]), trace.as_bytes()).is_err());
        let e = cmd_run(&argv(&["--workers"]), trace.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("--workers"), "{e}");
        let e = cmd_run(&argv(&["--workers", ","]), trace.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("--workers"), "{e}");
        let e = cmd_run(&argv(&["--workers", "not an address"]), trace.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("cannot resolve"), "{e}");
        // `--stream -` cannot be replayed through a cluster (the
        // bound and retries both need to re-read the trace).
        let e = dispatch(
            &argv(&["run", "--stream", "-", "--workers", "127.0.0.1:1"]),
            &trace,
        )
        .unwrap_err();
        assert!(e.to_string().contains("--stream FILE"), "{e}");
    }

    #[test]
    fn workers_flag_streams_trace_files_through_the_cluster() {
        // `acmr run --stream FILE --workers …` replays the file
        // through the pool and must match the in-process streamed run.
        let handle = crate::serve::serve(
            default_registry(),
            crate::serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
        )
        .unwrap();
        let workers = handle.local_addr().to_string();
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/adv-squeeze.trace"
        );
        let expected = dispatch(
            &argv(&[
                "run", "--alg", "greedy", "--seed", "4", "--format", "json", "--stream", golden,
            ]),
            "",
        )
        .unwrap();
        let clustered = dispatch(
            &argv(&[
                "run",
                "--alg",
                "greedy",
                "--seed",
                "4",
                "--format",
                "json",
                "--stream",
                golden,
                "--workers",
                &workers,
            ]),
            "",
        )
        .unwrap();
        assert_eq!(clustered, expected);
        handle.shutdown();
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(cmd_stats(b"garbage").is_err());
        assert!(cmd_run(&argv(&["--alg", "nope"]), b"x").is_err());
        let trace = cmd_gen(&argv(&["--m", "8", "--cap", "2"])).unwrap();
        let e = cmd_run(&argv(&["--alg", "nope"]), trace.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("unknown algorithm"), "{e}");
        assert!(cmd_run(&argv(&["--alg", "greedy?bogus=1"]), trace.as_bytes()).is_err());
        assert!(cmd_run(&argv(&["--format", "yaml"]), trace.as_bytes()).is_err());
        assert!(cmd_gen(&argv(&["--m", "NaN"])).is_err());
        assert!(cmd_gen(&argv(&["--topology", "torus"])).is_err());
        assert!(parse_flags(&argv(&["oops"])).is_err());
    }

    #[test]
    fn dispatch_covers_commands() {
        assert!(dispatch(&argv(&["help"]), "").unwrap().contains("USAGE"));
        assert!(dispatch(&[], "").unwrap().contains("USAGE"));
        assert!(dispatch(&argv(&["wat"]), "").is_err());
        assert!(dispatch(&argv(&["algs"]), "").unwrap().contains("greedy"));
        let trace = dispatch(&argv(&["gen", "--m", "8", "--cap", "2"]), "").unwrap();
        assert!(dispatch(&argv(&["stats"]), &trace).is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = cmd_gen(&argv(&["--m", "16", "--seed", "4"])).unwrap();
        let b = cmd_gen(&argv(&["--m", "16", "--seed", "4"])).unwrap();
        assert_eq!(a, b);
    }
}
