//! The acmr benchmark: one load-generator process (at most 2 threads and
//! 2 connections) driving separate `acmr serve --reactor-threads 1`
//! processes over loopback, closed loop, plus an in-process traced
//! breakdown by layer.
//!
//! ```text
//! acmr-perfbench --workload <wire-greedy|sweep-opt> --seed N \
//!                --seconds S --trace 0|1 --acmr-bin PATH --work-dir DIR
//! ```
//!
//! The last line of stdout is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); progress goes to stderr. See `README.md` next to
//! this package for the workloads and every metric's definition.

mod alloc;
mod gen;
mod layers;
mod server;
mod spans;
mod stats;
mod wire;

use acmr_core::{AcmrError, AlgorithmSpec, Registry, RunReport, Session};
use acmr_harness::{
    cross_jobs, default_registry, BoundBudget, ClusterDriver, ShardedDriver, SweepJob, SweepReport,
    TraceSource,
};
use acmr_serve::{fetch_stats, ServeClient, WorkerPool};
use acmr_workloads::open_trace;
use gen::TraceFile;
use server::Server;
use spans::Tracer;
use stats::{median, quantile_sorted, Metrics, Replays};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wire::PipeClient;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The algorithm classes replayed on the per-class arm, as
/// `(metric prefix, registry spec)`.
pub const CLASSES: [(&str, &str); 3] = [
    ("paper", "aag-weighted"),
    ("preempt", "buyback?factor=0.5"),
    ("planning", "lp-resolve"),
];

/// `BATCH` size of every sweep job's wire replay (the `ClusterDriver`
/// default).
const SWEEP_BATCH: usize = 64;
/// The server arms A–C talk to; the sweep workers follow it.
const SERVING: usize = 0;
/// Worker processes behind the sweep.
const WORKERS: usize = 2;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Arrivals per single-frame (arm B) session; each session's p99 has
/// at least 30 samples beyond it (the shortest main trace has 3 500).
const RTT_SESSION: usize = 5_000;
/// Arm B runs at least this many sessions, so the reported quantiles
/// are medians over sessions.
const RTT_MIN_SESSIONS: usize = 5;
/// Minimum repetitions of every other timed unit, however short the
/// slice (replay arms also replay every input variant at least once).
const MIN_REPS: usize = 3;
/// An arm stops early once this many operations have failed, so a
/// broken server cannot keep the run going past its deadline.
const MAX_FAILED: u64 = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    WireGreedy,
    SweepOpt,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "wire-greedy" => Some(Kind::WireGreedy),
            "sweep-opt" => Some(Kind::SweepOpt),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WireGreedy => "wire-greedy",
            Kind::SweepOpt => "sweep-opt",
        }
    }

    /// Share of the measured seconds given to the pipelined greedy arm
    /// (A), the single-frame arm (B), the per-class arm (C) and the
    /// cluster sweep (S). Each workload spends most of its time on the
    /// arm it exists for, and the class arm, whose replays are the
    /// slowest and must cover every input variant, gets the most.
    pub fn weights(self) -> [f64; 4] {
        match self {
            Kind::WireGreedy => [0.25, 0.15, 0.45, 0.15],
            Kind::SweepOpt => [0.1, 0.1, 0.4, 0.4],
        }
    }
}

/// Input variants: the class trace (and the main trace, where it is
/// small) comes in this many versions, replayed in rotation, variant `j`
/// with algorithm seed `variant_seed(seed, j)`. The decision cost of the
/// preempting and planning classes swings by tens of percent from one
/// input (and algorithm seed) to the next, so a run's rates pool many
/// inputs instead of riding on a few.
const VARIANTS: usize = 16;

/// The traces one workload replays.
pub struct Traffic {
    /// Arms A and B (greedy, pipelined and single-frame), by variant.
    pub main: Vec<TraceFile>,
    /// Arm C (one pipelined session per class), by variant.
    pub classes: Vec<TraceFile>,
    /// The cluster sweep's path-backed traces.
    pub sweep: Vec<TraceFile>,
    /// OPT bound budget of the sweep; `None` runs it without bounds.
    pub budget: Option<BoundBudget>,
}

fn write_variants(
    dir: &Path,
    name: &str,
    make: impl Fn(usize) -> acmr_core::AdmissionInstance,
) -> std::io::Result<Vec<TraceFile>> {
    (0..VARIANTS)
        .map(|j| gen::write_trace(dir, &format!("{name}-{j}"), &make(j)))
        .collect()
}

/// Generate and write every trace of `kind` from `seed`.
fn generate(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<Traffic> {
    let variant = |j| gen::variant_seed(seed, j);
    Ok(match kind {
        Kind::WireGreedy => {
            let line = gen::line_trace(seed, 200_000);
            let main = vec![gen::write_trace(dir, "line-200k", &line)?];
            let classes = write_variants(dir, "line-4k", |j| gen::window(&line, j * 4_096, 4_096))?;
            let small = gen::write_trace(dir, "line-1k", &gen::window(&line, 0, 1_024))?;
            Traffic {
                main,
                sweep: vec![small, classes[0].clone()],
                classes,
                budget: None,
            }
        }
        Kind::SweepOpt => {
            let tiny = gen::write_trace(dir, "squeeze", &gen::squeeze_trace())?;
            let small = gen::write_trace(dir, "mmpp-300", &gen::mmpp_trace(seed, 300))?;
            let large = write_variants(dir, "mmpp-3500", |j| {
                gen::mmpp_trace(variant(j) ^ 0x5eed, 3_500)
            })?;
            Traffic {
                main: large.clone(),
                sweep: vec![tiny, small, large[0].clone()],
                classes: large,
                budget: Some(BoundBudget::default()),
            }
        }
    })
}

/// Everything set-up produces: traces on disk, live servers, and the
/// two open client connections.
pub struct Rig {
    pub traffic: Traffic,
    pub servers: Vec<Server>,
    pub pipe: PipeClient,
    pub rtt: ServeClient,
    pub seed: u64,
}

fn set_up(kind: Kind, seed: u64, dir: &Path, acmr_bin: &Path) -> Result<Rig, String> {
    let traffic = generate(kind, seed, dir).map_err(|e| format!("writing traces: {e}"))?;
    let servers = (0..=WORKERS)
        .map(|_| Server::spawn(acmr_bin))
        .collect::<Result<Vec<_>, _>>()?;
    let addr = servers[SERVING].addr;
    let caps = &traffic.main[0].capacities;
    let pipe = PipeClient::connect(addr, caps).map_err(|e| format!("pipelined connect: {e}"))?;
    let rtt = ServeClient::connect_v2(addr, "greedy", Some(seed), caps, false)
        .map_err(|e| format!("single-frame connect: {e}"))?;
    Ok(Rig {
        traffic,
        servers,
        pipe,
        rtt,
        seed,
    })
}

/// In-process reference results every served output is checked
/// against (computed outside every timed window and outside set-up).
pub struct References {
    /// By main-trace variant.
    pub main: Vec<RunReport>,
    pub rtt: Vec<RunReport>,
    /// By class, then class-trace variant.
    pub classes: Vec<Vec<RunReport>>,
    pub sweep: SweepReport,
    pub sweep_json: String,
    pub jobs: Vec<SweepJob>,
    pub sources: Vec<(String, TraceSource)>,
}

fn reference_run(
    registry: &Registry,
    spec: &str,
    trace: &TraceFile,
    seed: u64,
    limit: usize,
) -> Result<RunReport, AcmrError> {
    let spec = AlgorithmSpec::parse(spec)?;
    let mut session = Session::from_registry(registry, &spec, &trace.capacities, seed)?;
    session.run_stream_batched(open_trace(&trace.path)?.take(limit), wire::BATCH)
}

fn references(registry: &Registry, rig: &Rig) -> Result<References, AcmrError> {
    let t = &rig.traffic;
    let seed = rig.seed;
    let sources: Vec<(String, TraceSource)> = t
        .sweep
        .iter()
        .map(|f| (f.name.clone(), TraceSource::Path(f.path.clone())))
        .collect();
    let names: Vec<&str> = t.sweep.iter().map(|f| f.name.as_str()).collect();
    let specs = registry.names();
    let jobs = cross_jobs(&names, &specs, &[seed, seed.wrapping_add(1)]);
    let mut sharded = ShardedDriver::new().threads(WORKERS).batch(SWEEP_BATCH);
    if let Some(b) = t.budget {
        sharded = sharded.budget(b);
    }
    let sweep = sharded.run_sources(registry, &sources, &jobs)?;
    let sweep_json = serde_json::to_string(&sweep).expect("sweep reports serialize");
    let per_variant = |spec: &str, traces: &[TraceFile], limit: usize| {
        traces
            .iter()
            .enumerate()
            .map(|(j, f)| reference_run(registry, spec, f, gen::variant_seed(seed, j), limit))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(References {
        main: per_variant("greedy", &t.main, usize::MAX)?,
        rtt: per_variant("greedy", &t.main, RTT_SESSION)?,
        classes: CLASSES
            .iter()
            .map(|(_, spec)| per_variant(spec, &t.classes, usize::MAX))
            .collect::<Result<_, _>>()?,
        sweep,
        sweep_json,
        jobs,
        sources,
    })
}

/// Attempted and failed operations. An operation is one served session
/// (a pipelined replay or a single-frame session) or one sweep job; it
/// fails on an `ERR` reply, a transport error, a report that differs
/// from the in-process reference, or a pool retry.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What one measurement pass observed.
#[derive(Default)]
pub struct Measurement {
    /// Arm A: the pipelined greedy replays.
    pub a_replays: Replays,
    pub a_arrivals: u64,
    pub a: ArmUsage,
    pub a_bytes_in: u64,
    pub a_bytes_out: u64,
    /// Arm B: round trips made, and each session's median and 99th
    /// percentile in nanoseconds.
    pub b_round_trips: usize,
    pub b_p50s: Vec<f64>,
    pub b_p99s: Vec<f64>,
    /// Arm C: per class, its replays.
    pub c_replays: Vec<Replays>,
    pub c: ArmUsage,
    /// Sweep wall seconds, one per sweep.
    pub sweeps: Vec<f64>,
    pub server_peak_rss_mib: f64,
    pub tally: Tally,
}

/// Wall time of an arm's units and the CPU time the serving process
/// and this process spent during them.
#[derive(Default, Clone, Copy)]
pub struct ArmUsage {
    pub wall: f64,
    pub server_cpu: f64,
    pub client_cpu: f64,
}

fn sessions_opened(servers: &[Server]) -> u64 {
    servers
        .iter()
        .map(|s| fetch_stats(s.addr).map_or(0, |r| r.server.sessions_opened))
        .sum()
}

/// The units a measurement interleaves: a pipelined greedy replay (A),
/// a single-frame session (B), one class replay (C), one sweep (S).
#[derive(Clone, Copy)]
enum Unit {
    A,
    B,
    C(usize),
    S,
}

/// Run the arms for `seconds` in total, checking every served output
/// against `refs`. Units of all arms are interleaved across the whole
/// window, each arm getting its weight's share of the time (the arm
/// with the least time per weight goes next), so every metric samples
/// the same stretch of host conditions.
pub fn measure(
    kind: Kind,
    rig: &mut Rig,
    refs: &References,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Measurement {
    let w = kind.weights();
    let a_reps = MIN_REPS.max(rig.traffic.main.len());
    let c_reps = MIN_REPS.max(rig.traffic.classes.len());
    let mut units = vec![(Unit::A, w[0], a_reps), (Unit::B, w[1], RTT_MIN_SESSIONS)];
    for k in 0..CLASSES.len() {
        units.push((Unit::C(k), w[2] / CLASSES.len() as f64, c_reps));
    }
    units.push((Unit::S, w[3], MIN_REPS));
    let mut spent = vec![0.0; units.len()];
    let mut reps = vec![0usize; units.len()];

    let mut m = Measurement {
        c_replays: vec![Replays::default(); CLASSES.len()],
        ..Measurement::default()
    };
    let t = Instant::now();
    let mut id = 0u64;
    while m.tally.failed < MAX_FAILED {
        let over = t.elapsed().as_secs_f64() >= seconds;
        let Some(i) = (0..units.len())
            .filter(|&i| !over || reps[i] < units[i].2)
            .min_by(|&a, &b| (spent[a] / units[a].1).total_cmp(&(spent[b] / units[b].1)))
        else {
            break;
        };
        id += 1;
        let serving = &rig.servers[SERVING];
        let (server0, client0) = (serving.exec_seconds(), server::own_exec_seconds());
        let t_u = Instant::now();
        let unit = units[i].0;
        let j = reps[i];
        match unit {
            Unit::A => unit_a(rig, refs, &mut m, j, tracer.as_deref_mut(), id),
            Unit::B => unit_b(rig, refs, &mut m, j, tracer.as_deref_mut(), id),
            Unit::C(k) => unit_c(rig, refs, &mut m, k, j, tracer.as_deref_mut(), id),
            Unit::S => unit_s(rig, refs, &mut m, tracer.as_deref_mut(), id),
        }
        let wall = t_u.elapsed().as_secs_f64();
        spent[i] += wall;
        reps[i] += 1;
        let usage = match unit {
            Unit::A => &mut m.a,
            Unit::C(_) => &mut m.c,
            _ => continue,
        };
        usage.wall += wall;
        usage.server_cpu += rig.servers[SERVING].exec_seconds() - server0;
        usage.client_cpu += server::own_exec_seconds() - client0;
    }
    m.server_peak_rss_mib = rig.servers[SERVING].peak_rss_mib();
    m
}

/// Variant `j`'s trace (in rotation) and its algorithm seed.
fn variant(traces: &[TraceFile], seed: u64, j: usize) -> (usize, &TraceFile, u64) {
    let v = j % traces.len();
    (v, &traces[v], gen::variant_seed(seed, v))
}

fn unit_a(
    rig: &mut Rig,
    refs: &References,
    m: &mut Measurement,
    j: usize,
    tracer: Option<&mut Tracer>,
    id: u64,
) {
    m.tally.attempted += 1;
    let addr = rig.servers[SERVING].addr;
    let (v, trace, seed) = variant(&rig.traffic.main, rig.seed, j);
    let before = fetch_stats(addr).ok();
    match rig.pipe.replay("greedy", seed, trace, tracer, id) {
        Ok(r) if r.report == refs.main[v] => {
            m.a_replays.push(v, r.arrivals, r.secs);
            m.a_arrivals += r.arrivals;
            if let (Some(before), Ok(after)) = (before, fetch_stats(addr)) {
                m.a_bytes_in += after.server.bytes_in - before.server.bytes_in;
                m.a_bytes_out += after.server.bytes_out - before.server.bytes_out;
            }
        }
        outcome => fail(&mut m.tally, rig, "arm A", outcome.err()),
    }
}

fn unit_b(
    rig: &mut Rig,
    refs: &References,
    m: &mut Measurement,
    j: usize,
    tracer: Option<&mut Tracer>,
    id: u64,
) {
    m.tally.attempted += 1;
    let (v, trace, seed) = variant(&rig.traffic.main, rig.seed, j);
    // A fresh session each time (a RESET also ends whatever session the
    // connection still had open).
    if let Err(e) = rig.rtt.reset("greedy", Some(seed), &trace.capacities) {
        return fail(&mut m.tally, rig, "arm B reset", Some(e));
    }
    let mut samples = Vec::with_capacity(RTT_SESSION);
    let outcome = wire::rtt_session(&mut rig.rtt, trace, RTT_SESSION, &mut samples, tracer, id);
    match outcome {
        Ok(report) if report == refs.rtt[v] => {
            samples.sort_unstable();
            m.b_p50s.push(quantile_sorted(&samples, 0.50) as f64);
            m.b_p99s.push(quantile_sorted(&samples, 0.99) as f64);
            m.b_round_trips += samples.len();
        }
        outcome => fail(&mut m.tally, rig, "arm B", outcome.err()),
    }
}

fn unit_c(
    rig: &mut Rig,
    refs: &References,
    m: &mut Measurement,
    k: usize,
    j: usize,
    tracer: Option<&mut Tracer>,
    id: u64,
) {
    m.tally.attempted += 1;
    let (class, spec) = CLASSES[k];
    let (v, trace, seed) = variant(&rig.traffic.classes, rig.seed, j);
    match rig.pipe.replay(spec, seed, trace, tracer, id) {
        Ok(r) if r.report == refs.classes[k][v] => m.c_replays[k].push(v, r.arrivals, r.secs),
        outcome => fail(&mut m.tally, rig, class, outcome.err()),
    }
}

fn unit_s(
    rig: &mut Rig,
    refs: &References,
    m: &mut Measurement,
    tracer: Option<&mut Tracer>,
    id: u64,
) {
    let jobs = refs.jobs.len() as u64;
    m.tally.attempted += jobs;
    let workers = &rig.servers[SERVING + 1..];
    let addrs: Vec<String> = workers.iter().map(|s| s.addr.to_string()).collect();
    let before = sessions_opened(workers);
    let pool = match WorkerPool::connect(&addrs) {
        Ok(p) => p,
        Err(e) => {
            m.tally.failed += jobs - 1;
            return fail(&mut m.tally, rig, "sweep pool", Some(e));
        }
    };
    let mut driver = ClusterDriver::new(&pool).batch(SWEEP_BATCH);
    if let Some(b) = rig.traffic.budget {
        driver = driver.budget(b);
    }
    let t = Instant::now();
    let outcome = driver.run_sources(&refs.sources, &refs.jobs);
    let end = Instant::now();
    if let Some(tr) = tracer {
        tr.record("harness.cluster.run_sources", t, end, None, id);
    }
    drop(pool);
    let retries = (sessions_opened(workers) - before).saturating_sub(jobs);
    m.tally.failed += retries;
    match outcome {
        Ok(sweep) => {
            let got = serde_json::to_string(&sweep).expect("sweep reports serialize");
            if got == refs.sweep_json {
                m.sweeps.push((end - t).as_secs_f64());
            } else {
                let bad = sweep_mismatches(&sweep, &refs.sweep);
                eprintln!("sweep: {bad} job reports differ from the sharded reference");
                m.tally.failed += bad.max(1);
            }
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            m.tally.failed += jobs;
        }
    }
}

/// Jobs whose serialized report differs between two sweeps.
fn sweep_mismatches(a: &SweepReport, b: &SweepReport) -> u64 {
    let json = |j: &acmr_harness::JobReport| serde_json::to_string(j).expect("jobs serialize");
    let differ = a
        .jobs
        .iter()
        .zip(&b.jobs)
        .filter(|(x, y)| json(x) != json(y))
        .count();
    (differ + a.jobs.len().abs_diff(b.jobs.len())) as u64
}

/// Count a failed operation and, for a transport failure, reconnect
/// the affected client so the run can continue.
fn fail(tally: &mut Tally, rig: &mut Rig, what: &str, err: Option<AcmrError>) {
    tally.failed += 1;
    match &err {
        Some(e) => eprintln!("{what}: {e}"),
        None => eprintln!("{what}: served report differs from the in-process reference"),
    }
    if err.is_some() {
        let addr = rig.servers[SERVING].addr;
        let caps = rig.traffic.main[0].capacities.clone();
        if let Ok(p) = PipeClient::connect(addr, &caps) {
            rig.pipe = p;
        }
        if let Ok(c) = ServeClient::connect_v2(addr, "greedy", Some(rig.seed), &caps, false) {
            rig.rtt = c;
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    acmr_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let kind = get("--workload")?;
    let kind = Kind::parse(&kind).ok_or_else(|| format!("unknown workload {kind:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let acmr_bin = PathBuf::from(get("--acmr-bin")?);
    if !acmr_bin.is_file() {
        return Err(format!(
            "release binary {} is missing; build it with `cargo build --release --bin acmr`",
            acmr_bin.display()
        ));
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        acmr_bin,
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acmr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = args.work_dir.join(format!(
        "{}-seed{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("acmr-perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("acmr-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let kind = args.kind;
    eprintln!(
        "acmr-perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        server::nproc()
    );
    // Set-up, several times; the last rig is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(set_up(kind, args.seed, dir, &args.acmr_bin)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up at least once");
    let registry = default_registry();
    let refs = references(&registry, &rig).map_err(|e| format!("in-process reference: {e}"))?;
    let live: Vec<f64> = refs
        .classes
        .iter()
        .map(|r| r[0].requests as f64 / r[0].accepted_count.max(1) as f64)
        .collect();
    eprintln!("class trace: arrivals per live request at the end {live:.1?}");
    eprintln!(
        "traces: main {} arrivals, classes {} arrivals, sweep {:?}, {} jobs",
        rig.traffic.main[0].requests,
        rig.traffic.classes[0].requests,
        rig.traffic
            .sweep
            .iter()
            .map(|f| (f.name.as_str(), f.requests))
            .collect::<Vec<_>>(),
        refs.jobs.len()
    );

    let (metrics, tally) = if args.trace {
        layers::traced_run(
            kind,
            &mut rig,
            &refs,
            &registry,
            args.seconds,
            &args.work_dir,
        )?
    } else {
        let m = measure(kind, &mut rig, &refs, args.seconds, None);
        (end_to_end(&m, median(&setups)), m.tally)
    };
    let rss_servers = rig.servers.len();
    drop(rig);
    eprintln!(
        "attempted {} failed {} ({} metrics, {rss_servers} servers stopped)",
        tally.attempted,
        tally.failed,
        metrics.len()
    );
    let correct = tally.failed == 0 && metrics.all_finite();
    Ok(metrics.result_line(correct, tally.attempted, tally.failed))
}

/// The end-to-end metrics of one untraced measurement.
fn end_to_end(m: &Measurement, setup_s: f64) -> Metrics {
    let mut out = Metrics::default();
    out.put("setup_s", setup_s, "s");
    out.put("decisions_per_s", m.a_replays.rate(), "1/s");
    eprintln!(
        "arm A {} replays, arm B {} round trips in {} sessions, arm C {:?} replays, {} sweeps",
        m.a_replays.len(),
        m.b_round_trips,
        m.b_p99s.len(),
        m.c_replays.iter().map(Replays::len).collect::<Vec<_>>(),
        m.sweeps.len()
    );
    out.put("decision_p50_us", median(&m.b_p50s) / 1e3, "us");
    out.put("decision_p99_us", median(&m.b_p99s) / 1e3, "us");
    out.put("server_peak_rss_mb", m.server_peak_rss_mib, "MiB");
    for (k, (class, _)) in CLASSES.iter().enumerate() {
        out.put(
            format!("{class}.decisions_per_s"),
            m.c_replays[k].rate(),
            "1/s",
        );
    }
    out.put("sweep_s", median(&m.sweeps), "s");
    out
}
