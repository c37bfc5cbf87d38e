//! The traced run: the per-layer breakdown.
//!
//! The run measures the four arms twice — untraced, then with client
//! spans — so the difference is the tracing overhead. It then re-drives
//! the server-side layers in-process over the same bytes and arrivals
//! (the server itself is a separate process), with a span around every
//! call into a layer's public functions:
//!
//! | module | calls |
//! |---|---|
//! | `workloads.binfmt` | `open_trace` → `BinMapReader` |
//! | `serve.protocol` | `encode_record_into`, `summarize_events`/`encode_summary`/`decode_summary` |
//! | `serve.machine` | `Connection::feed` over the bytes arms A and B send |
//! | `core.session` | `Session::push_batch_into` against a bare `on_request` loop |
//! | decide layers | `on_request` per call, per algorithm class |
//! | `harness.opt`, `lp` | `scan_trace`, `streamed_admission_opt`, `branch_and_bound`, `lp_lower_bound`, `greedy_cover` |
//! | `harness.cluster`, `serve.pool` | `WorkerPool::run_job` per job, against `ShardedDriver::run_sources` |
//!
//! Every layer metric is printed on every workload; a layer that does
//! no work on a workload (the OPT bound off `sweep-opt`) reads 0.

use crate::alloc::allocations;
use crate::spans::{SpanId, Tracer};
use crate::stats::{mean, median, quantile_sorted, Metrics, Replays};
use crate::wire::BATCH;
use crate::{
    measure, sessions_opened, Kind, Measurement, References, Rig, Tally, CLASSES, SERVING,
    SWEEP_BATCH, WORKERS,
};
use acmr_core::{
    AcmrError, AdmissionInstance, AlgorithmSpec, ArrivalEvent, BuildCtx, Registry, Request,
    RequestId, RequestSource, RunReport, Session,
};
use acmr_harness::{
    admission_covering_problem, admission_opt_from_path, default_registry, parallel_map,
    scan_trace, streamed_admission_opt, OptBoundKind, ShardedDriver,
};
use acmr_lp::{branch_and_bound, greedy_cover, BnbLimits};
use acmr_serve::machine::{Connection, MachineConfig};
use acmr_serve::protocol::{
    decode_summary, encode_summary, summarize_events, write_frame, BinFrameReader, FRAME_BATCH,
    FRAME_END, FRAME_REPORT, FRAME_REQ, FRAME_SUMMARY, PROTO_V2_TOKEN,
};
use acmr_serve::{fetch_stats, WorkerPool};
use acmr_workloads::{encode_record_into, open_trace};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Passes of each whole-trace probe: at least `PASSES`, and more until
/// `PROBE_MIN_NS` has been spent; per-unit times are the median pass.
const PASSES: u64 = 3;
const PROBE_MIN_NS: f64 = 100e6;

/// The decide layers, as `(module, class metric prefix or "", spec)`.
const DECIDE: [(&str, &str); 4] = [
    ("baselines.admission.greedy", "greedy"),
    ("core.randomized.aag-weighted", "aag-weighted"),
    ("baselines.admission.buyback", "buyback?factor=0.5"),
    ("baselines.stochastic.lp-resolve", "lp-resolve"),
];

fn decoded(path: &Path) -> Result<(Vec<u32>, Vec<Request>), AcmrError> {
    let reader = open_trace(path)?;
    let caps = reader.capacities().to_vec();
    Ok((caps, reader.collect::<Result<_, _>>()?))
}

/// Time `PASSES` passes of `f` (each its own span named `name`) and
/// return the median pass in ns plus the allocations of the first.
fn passes(
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<(), AcmrError>,
) -> Result<(f64, u64), AcmrError> {
    let mut times: Vec<f64> = Vec::new();
    let mut allocs = 0;
    let mut pass = 0;
    while pass < PASSES || times.iter().sum::<f64>() < PROBE_MIN_NS {
        let a0 = allocations();
        let id = tracer.open(name, None, pass);
        f()?;
        tracer.close(id);
        if pass == 0 {
            allocs = allocations() - a0;
        }
        times.push(*tracer.durations_ns(name).last().expect("just recorded") as f64);
        pass += 1;
    }
    Ok((median(&times), allocs))
}

/// Server-side bytes of arm A: the line handshake, every `BATCH` frame
/// and `END`.
fn arm_a_bytes(
    caps: &[u32],
    seed: u64,
    requests: &[Request],
) -> Result<(Vec<u8>, Vec<u8>), AcmrError> {
    let mut body = Vec::new();
    let mut payload = Vec::new();
    for batch in requests.chunks(BATCH) {
        payload.clear();
        payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for r in batch {
            encode_record_into(&mut payload, r, caps.len() as u32)?;
        }
        write_frame(&mut body, FRAME_BATCH, &payload)?;
    }
    write_frame(&mut body, FRAME_END, &[])?;
    Ok((handshake(caps, seed), body))
}

fn handshake(caps: &[u32], seed: u64) -> Vec<u8> {
    let caps: Vec<String> = caps.iter().map(u32::to_string).collect();
    format!(
        "OPEN greedy seed={seed} {PROTO_V2_TOKEN}\nedges {}\ncaps {}\n",
        caps.len(),
        caps.join(" ")
    )
    .into_bytes()
}

fn fresh_machine(handshake: &[u8]) -> Connection {
    let mut conn = Connection::new(Arc::new(default_registry()), MachineConfig::default());
    conn.feed(handshake);
    conn.drain_output();
    conn
}

/// Parse a machine's reply stream: `(summaries, final report)`.
fn machine_replies(out: &[u8]) -> Result<(usize, Option<RunReport>), AcmrError> {
    let mut frames = BinFrameReader::new(out);
    let mut payload = Vec::new();
    let mut summaries = 0;
    let mut report = None;
    while let Some(ty) = frames.read_frame(&mut payload)? {
        match ty {
            FRAME_SUMMARY => {
                decode_summary(&payload)?;
                summaries += 1;
            }
            FRAME_REPORT => {
                report = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(|j| serde_json::from_str(j).ok());
            }
            _ => {}
        }
    }
    Ok((summaries, report))
}

struct DecideProbe {
    ns: Vec<u64>,
    allocs: u64,
    survivor_ratio: f64,
}

/// Bare `on_request`, one span per call, over `requests`.
fn decide_probe(
    tracer: &mut Tracer,
    registry: &Registry,
    span: &'static str,
    spec: &str,
    caps: &[u32],
    requests: &[Request],
    seed: u64,
) -> Result<DecideProbe, AcmrError> {
    let mut alg = registry.build(spec, &BuildCtx::new(caps).with_seed(seed))?;
    let mut ns = Vec::with_capacity(requests.len());
    let mut admitted = vec![false; requests.len()];
    let mut preempted = vec![false; requests.len()];
    let mut starts = Vec::with_capacity(requests.len());
    let a0 = allocations();
    for (i, r) in requests.iter().enumerate() {
        let t = Instant::now();
        let out = alg.on_request(RequestId(i as u32), r);
        let end = Instant::now();
        admitted[i] = out.accepted;
        for p in &out.preempted {
            preempted[p.index()] = true;
        }
        starts.push((t, end));
    }
    let allocs = allocations() - a0;
    for (i, (t, end)) in starts.into_iter().enumerate() {
        ns.push((end - t).as_nanos() as u64);
        tracer.record(span, t, end, None, i as u64);
    }
    let admissions = admitted.iter().filter(|&&a| a).count();
    let survivors = admitted
        .iter()
        .zip(&preempted)
        .filter(|(&a, &p)| a && !p)
        .count();
    Ok(DecideProbe {
        ns,
        allocs,
        survivor_ratio: if admissions == 0 {
            0.0
        } else {
            survivors as f64 / admissions as f64
        },
    })
}

fn tail_over_head(ns: &[u64]) -> f64 {
    let tenth = (ns.len() / 10).max(1);
    let avg = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    avg(&ns[ns.len() - tenth..]) / avg(&ns[..tenth])
}

fn span_name(module: &str, call: &str) -> &'static str {
    // Span names are static; the module list is fixed, so leaking one
    // string per (module, call) pair is bounded.
    Box::leak(format!("{module}.{call}").into_boxed_str())
}

fn rate_ns(replays: &Replays) -> f64 {
    1e9 / replays.rate()
}

#[allow(clippy::too_many_arguments)]
pub fn traced_run(
    kind: Kind,
    rig: &mut Rig,
    refs: &References,
    registry: &Registry,
    seconds: f64,
    out_dir: &Path,
) -> Result<(Metrics, Tally), String> {
    let base = measure(kind, rig, refs, 0.4 * seconds, None);
    let mut tracer = Tracer::new();
    let traced = measure(kind, rig, refs, 0.4 * seconds, Some(&mut tracer));
    let mut tally = Tally {
        attempted: base.tally.attempted + traced.tally.attempted,
        failed: base.tally.failed + traced.tally.failed,
    };
    let mut out = Metrics::default();
    probes(
        kind,
        rig,
        refs,
        registry,
        &base,
        &traced,
        &mut tracer,
        &mut out,
        &mut tally,
    )
    .map_err(|e| format!("layer probe: {e}"))?;

    let path: PathBuf = out_dir.join(format!("spans-{}-seed{}.jsonl", kind.name(), rig.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tracer.len(), path.display());
    for (name, (self_ns, count)) in tracer.self_times() {
        eprintln!(
            "  span {name:50} self {:12.3} ms over {count}",
            self_ns / 1e6
        );
    }
    Ok((out, tally))
}

#[allow(clippy::too_many_arguments)]
fn probes(
    kind: Kind,
    rig: &mut Rig,
    refs: &References,
    registry: &Registry,
    base: &Measurement,
    traced: &Measurement,
    tracer: &mut Tracer,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), AcmrError> {
    let seed = rig.seed;
    let main = rig.traffic.main[0].clone();
    let (caps, requests) = decoded(&main.path)?;
    let n = requests.len() as f64;
    let batches: Vec<&[Request]> = requests.chunks(BATCH).collect();
    out.put("host.nproc", crate::server::nproc() as f64, "count");

    // workloads.binfmt: open_trace → BinMapReader, whole trace.
    let (decode_ns, decode_allocs) = passes(tracer, "workloads.binfmt.open_trace+decode", || {
        let mut reader = open_trace(&main.path)?;
        let mut k = 0usize;
        while let Some(r) = reader.next_request()? {
            std::hint::black_box(&r);
            k += 1;
        }
        assert_eq!(k, requests.len());
        Ok(())
    })?;
    out.put(
        "workloads.binfmt.decode_ns_per_request",
        decode_ns / n,
        "ns",
    );
    out.put(
        "workloads.binfmt.allocs_per_request",
        decode_allocs as f64 / n,
        "count",
    );

    // serve.protocol: record encoding, and batch summaries over the
    // greedy session's own events.
    let mut buf = Vec::with_capacity(BATCH * 64);
    let (encode_ns, _) = passes(tracer, "serve.protocol.encode_record_into", || {
        for batch in &batches {
            buf.clear();
            for r in *batch {
                encode_record_into(&mut buf, r, caps.len() as u32)?;
            }
            std::hint::black_box(&buf);
        }
        Ok(())
    })?;
    out.put("serve.protocol.encode_ns_per_request", encode_ns / n, "ns");
    let spec = AlgorithmSpec::parse("greedy")?;
    let mut session = Session::from_registry(registry, &spec, &caps, seed)?;
    let mut events: Vec<Vec<ArrivalEvent>> = Vec::with_capacity(batches.len());
    for batch in &batches {
        let mut ev = Vec::new();
        session.push_batch_into(batch, &mut ev)?;
        events.push(ev);
    }
    let (summary_ns, _) = passes(tracer, "serve.protocol.summarize+encode+decode", || {
        for ev in &events {
            buf.clear();
            encode_summary(&mut buf, &summarize_events(ev));
            std::hint::black_box(decode_summary(&buf)?);
        }
        Ok(())
    })?;
    out.put(
        "serve.protocol.summary_ns_per_batch",
        summary_ns / batches.len() as f64,
        "ns",
    );

    // core.session: push_batch_into against a bare on_request loop of a
    // registry-built twin, same arrivals.
    let mut ev = Vec::with_capacity(BATCH);
    let (session_ns, session_allocs) = passes(tracer, "core.session.push_batch_into", || {
        let mut s = Session::from_registry(registry, &spec, &caps, seed)?;
        for batch in &batches {
            s.push_batch_into(batch, &mut ev)?;
        }
        Ok(())
    })?;
    let (bare_ns, _) = passes(tracer, "baselines.admission.greedy.on_request_loop", || {
        let mut alg = registry.build("greedy", &BuildCtx::new(&caps).with_seed(seed))?;
        for (i, r) in requests.iter().enumerate() {
            std::hint::black_box(alg.on_request(RequestId(i as u32), r));
        }
        Ok(())
    })?;
    let session_per = session_ns / n;
    out.put(
        "core.session.referee_ns_per_decision",
        (session_ns - bare_ns) / n,
        "ns",
    );
    // The first pass includes building the session; its allocations are
    // a constant handful, amortized over the trace.
    out.put(
        "core.session.allocs_per_decision",
        session_allocs as f64 / n,
        "count",
    );
    for (k, (class, _)) in CLASSES.iter().enumerate() {
        let r = &refs.classes[k][0];
        let per = r.preemptions as f64 / r.requests.max(1) as f64;
        out.put(
            format!("core.session.{class}.preemptions_per_arrival"),
            per,
            "ratio",
        );
    }

    // serve.machine: Connection::feed over arm A's exact bytes, in 64 KiB
    // reads, and over arm B's single-request frames.
    let (hello, body) = arm_a_bytes(&caps, seed, &requests)?;
    let mut replies = Vec::with_capacity(1 << 20);
    let mut machine_allocs = 0;
    let mut machine_times = Vec::new();
    for pass in 0..PASSES {
        let mut conn = fresh_machine(&hello);
        replies.clear();
        let a0 = allocations();
        let id = tracer.open("serve.machine.feed", None, pass);
        for chunk in body.chunks(64 << 10) {
            conn.feed(chunk);
            let pending = conn.pending_output();
            replies.extend_from_slice(pending);
            let k = pending.len();
            conn.consume_output(k);
        }
        tracer.close(id);
        if pass == 0 {
            machine_allocs = allocations() - a0;
        }
        machine_times.push(tracer.durations_ns("serve.machine.feed")[pass as usize] as f64);
        let (summaries, report) = machine_replies(&replies)?;
        tally.attempted += 1;
        if summaries != batches.len() || report.as_ref() != Some(&refs.main[0]) {
            eprintln!("machine probe: replies differ from the in-process reference");
            tally.failed += 1;
        }
    }
    let machine_ns = median(&machine_times) / n;
    out.put("serve.machine.ns_per_decision", machine_ns, "ns");
    out.put(
        "serve.machine.allocs_per_batch",
        machine_allocs as f64 / batches.len() as f64,
        "count",
    );
    out.put(
        "serve.machine.self_ns_per_decision",
        machine_ns - session_per,
        "ns",
    );
    let single: Vec<&Request> = requests.iter().take(crate::RTT_SESSION).collect();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(single.len());
    for r in &single {
        let mut payload = Vec::new();
        encode_record_into(&mut payload, r, caps.len() as u32)?;
        let mut frame = Vec::new();
        write_frame(&mut frame, FRAME_REQ, &payload)?;
        frames.push(frame);
    }
    let (single_ns, _) = passes(tracer, "serve.machine.feed_single_frame", || {
        let mut conn = fresh_machine(&hello);
        for frame in &frames {
            conn.feed(frame);
            let k = conn.pending_output().len();
            conn.consume_output(k);
        }
        Ok(())
    })?;
    let single_frame_ns = single_ns / frames.len() as f64;
    out.put("serve.machine.single_frame_ns", single_frame_ns, "ns");

    // serve.server: the reactor and socket, derived from the untraced
    // end-to-end pass minus the in-process parts, plus /proc and STATS.
    let a_ns = rate_ns(&base.a_replays);
    let wire_ns = a_ns - machine_ns;
    out.put("serve.server.wire_ns_per_decision", wire_ns, "ns");
    out.put(
        "serve.server.rtt_self_us",
        (median(&base.b_p50s) - single_frame_ns) / 1e3,
        "us",
    );
    out.put(
        "serve.server.busy_frac",
        base.a.server_cpu / base.a.wall,
        "ratio",
    );
    out.put(
        "serve.client.busy_frac",
        base.a.client_cpu / base.a.wall,
        "ratio",
    );
    out.put(
        "serve.server.classes_busy_frac",
        base.c.server_cpu / base.c.wall,
        "ratio",
    );
    out.put(
        "serve.client.classes_busy_frac",
        base.c.client_cpu / base.c.wall,
        "ratio",
    );
    let arrivals = base.a_arrivals.max(1) as f64;
    out.put(
        "serve.server.bytes_in_per_decision",
        base.a_bytes_in as f64 / arrivals,
        "B",
    );
    out.put(
        "serve.server.bytes_out_per_decision",
        base.a_bytes_out as f64 / arrivals,
        "B",
    );
    let (mut errors, mut busy) = (0, 0);
    for s in &rig.servers {
        let stats = fetch_stats(s.addr)?;
        errors += stats.server.errors;
        busy += stats.server.busy_rejections;
    }
    out.put("serve.server.errors", errors as f64, "count");
    out.put("serve.server.busy_rejections", busy as f64, "count");

    // Decide layers: bare on_request per call over the class trace.
    let (class_caps, class_requests) = decoded(&rig.traffic.classes[0].path)?;
    let mut decide_mean = Vec::new();
    for (module, spec) in DECIDE {
        let p = decide_probe(
            tracer,
            registry,
            span_name(module, "on_request"),
            spec,
            &class_caps,
            &class_requests,
            seed,
        )?;
        let mut sorted = p.ns.clone();
        sorted.sort_unstable();
        let avg = mean(&p.ns.iter().map(|&x| x as f64).collect::<Vec<_>>());
        decide_mean.push(avg);
        let cn = class_requests.len() as f64;
        out.put(format!("{module}.ns_per_decision"), avg, "ns");
        out.put(
            format!("{module}.p50_ns"),
            quantile_sorted(&sorted, 0.5) as f64,
            "ns",
        );
        out.put(
            format!("{module}.p999_ns"),
            quantile_sorted(&sorted, 0.999) as f64,
            "ns",
        );
        out.put(
            format!("{module}.allocs_per_decision"),
            p.allocs as f64 / cn,
            "count",
        );
        out.put(
            format!("{module}.tail_over_head"),
            tail_over_head(&p.ns),
            "ratio",
        );
        out.put(
            format!("{module}.survivor_ratio"),
            p.survivor_ratio,
            "ratio",
        );
    }

    // Each layer's share of per-arrival wall time on the served traffic:
    // arm A for the greedy pipeline, arm C for each class.
    out.put("share.decode", decode_ns / n / a_ns, "ratio");
    out.put("share.encode", encode_ns / n / a_ns, "ratio");
    out.put(
        "share.machine_self",
        (machine_ns - session_per) / a_ns,
        "ratio",
    );
    out.put("share.referee", (session_ns - bare_ns) / n / a_ns, "ratio");
    out.put("share.decide.greedy", bare_ns / n / a_ns, "ratio");
    out.put("share.wire", wire_ns / a_ns, "ratio");
    for (k, (class, _)) in CLASSES.iter().enumerate() {
        out.put(
            format!("share.decide.{class}"),
            decide_mean[k + 1] / rate_ns(&base.c_replays[k]),
            "ratio",
        );
    }

    opt_probe(rig, base, tracer, out)?;
    cluster_probe(rig, refs, registry, tracer, out, tally)?;

    // Tracing overhead on the workload's headline arm.
    let overhead = match kind {
        Kind::WireGreedy => base.a_replays.rate() / traced.a_replays.rate() - 1.0,
        Kind::SweepOpt => median(&traced.sweeps) / median(&base.sweeps) - 1.0,
    };
    out.put("trace.overhead_frac", overhead, "ratio");
    out.put("trace.spans", tracer.len() as f64, "count");
    Ok(())
}

/// `harness.opt` and `lp`: the two-pass streamed bound per sweep trace,
/// then the tier that fired, called directly on the covering problem.
fn opt_probe(
    rig: &Rig,
    base: &Measurement,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), AcmrError> {
    let mut scan_ms = 0.0;
    let mut bound_ms = [0.0; 3];
    let mut lp = [(0.0, 0.0, 0.0); 3];
    let mut phase_frac = 0.0;
    if let Some(budget) = rig.traffic.budget {
        for (unit, trace) in rig.traffic.sweep.iter().enumerate() {
            let unit = unit as u64;
            let t = Instant::now();
            let scan = scan_trace(open_trace(&trace.path)?)?;
            let mid = Instant::now();
            let bound = streamed_admission_opt(open_trace(&trace.path)?, &scan, budget)?;
            let end = Instant::now();
            tracer.record("harness.opt.scan_trace", t, mid, None, unit);
            tracer.record("harness.opt.streamed_admission_opt", mid, end, None, unit);
            scan_ms += (mid - t).as_secs_f64() * 1e3;
            let tier = match bound.kind {
                OptBoundKind::Exact => 0,
                OptBoundKind::LpLowerBound => 1,
                OptBoundKind::GreedyOverH => 2,
                OptBoundKind::Trivial => continue,
            };
            bound_ms[tier] += (end - mid).as_secs_f64() * 1e3;
            eprintln!(
                "bound on {}: {} = {}",
                trace.name,
                bound.kind.label(),
                bound.value
            );

            let reader = open_trace(&trace.path)?;
            let mut inst = AdmissionInstance::from_capacities(reader.capacities().to_vec());
            for r in reader {
                inst.push(r?);
            }
            let problem = admission_covering_problem(&inst);
            let t = Instant::now();
            let (name, solved) = match tier {
                0 => (
                    "lp.branch_and_bound",
                    branch_and_bound(
                        &problem,
                        BnbLimits {
                            max_nodes: budget.exact_nodes,
                        },
                    )
                    .is_some(),
                ),
                1 => ("lp.lp_lower_bound", problem.lp_lower_bound().is_ok()),
                _ => ("lp.greedy_cover", greedy_cover(&problem).is_some()),
            };
            let end = Instant::now();
            tracer.record(name, t, end, None, unit);
            assert!(solved, "{name} found no solution on {}", trace.name);
            lp[tier] = (
                (end - t).as_secs_f64() * 1e3,
                problem.num_items() as f64,
                problem.rows.len() as f64,
            );
        }
        // The bound phase as ClusterDriver runs it: one bound per trace,
        // fanned over the worker count.
        let paths: Vec<PathBuf> = rig.traffic.sweep.iter().map(|f| f.path.clone()).collect();
        let t = Instant::now();
        for b in parallel_map(paths, WORKERS, |p| admission_opt_from_path(p, budget)) {
            b?;
        }
        let end = Instant::now();
        tracer.record("harness.cluster.bound_phase", t, end, None, 0);
        phase_frac = (end - t).as_secs_f64() / median(&base.sweeps);
    }
    out.put("harness.opt.scan_ms", scan_ms, "ms");
    for (tier, label) in ["exact", "lp", "greedy_h"].iter().enumerate() {
        out.put(
            format!("harness.opt.bound_ms.{label}"),
            bound_ms[tier],
            "ms",
        );
    }
    out.put("harness.opt.phase_frac", phase_frac, "ratio");
    for (tier, label) in ["bnb", "simplex", "greedy_cover"].iter().enumerate() {
        out.put(format!("lp.{label}_ms"), lp[tier].0, "ms");
        out.put(format!("lp.{label}_items"), lp[tier].1, "count");
        out.put(format!("lp.{label}_rows"), lp[tier].2, "count");
    }
    Ok(())
}

/// `harness.cluster` and `serve.pool`: the sweep's job phase re-driven
/// through `WorkerPool::run_job` with one span per job, against
/// `ShardedDriver::run_sources` on the same jobs.
fn cluster_probe(
    rig: &Rig,
    refs: &References,
    registry: &Registry,
    tracer: &mut Tracer,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), AcmrError> {
    let workers = &rig.servers[SERVING + 1..];
    let addrs: Vec<String> = workers.iter().map(|s| s.addr.to_string()).collect();
    let pool = WorkerPool::connect(&addrs)?;
    let path_of = |name: &str| {
        rig.traffic
            .sweep
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.path.clone())
            .expect("job traces are sweep traces")
    };
    let indexed: Vec<(usize, &acmr_harness::SweepJob, PathBuf)> = refs
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (i, j, path_of(&j.trace)))
        .collect();
    let before = sessions_opened(workers);
    let t = Instant::now();
    let results = parallel_map(indexed, WORKERS, |(i, job, path)| {
        let start = Instant::now();
        let report = pool.run_job(*i, &job.spec, Some(job.seed), Some(SWEEP_BATCH), || {
            let reader = open_trace(path)?;
            Ok((reader.capacities().to_vec(), reader))
        });
        (start, Instant::now(), report)
    });
    let end = Instant::now();
    drop(pool);
    let retries = (sessions_opened(workers) - before).saturating_sub(refs.jobs.len() as u64);
    let phase: SpanId = tracer.record("harness.cluster.jobs_phase", t, end, None, 0);
    let mut job_ms = Vec::new();
    for (i, (start, stop, report)) in results.into_iter().enumerate() {
        tracer.record("serve.pool.run_job", start, stop, Some(phase), i as u64);
        job_ms.push((stop - start).as_secs_f64() * 1e3);
        let mut expected = refs.sweep.jobs[i].report.clone();
        expected.opt = None;
        tally.attempted += 1;
        match report {
            Ok(r) if r == expected => {}
            other => {
                eprintln!("cluster probe job {i}: {:?}", other.err());
                tally.failed += 1;
            }
        }
    }
    tally.failed += retries;
    let jobs_wall = (end - t).as_secs_f64();
    let sources = &refs.sources;
    let t = Instant::now();
    let sharded = ShardedDriver::new()
        .threads(WORKERS)
        .batch(SWEEP_BATCH)
        .run_sources(registry, sources, &refs.jobs)?;
    let end = Instant::now();
    std::hint::black_box(sharded);
    tracer.record("harness.shard.run_sources", t, end, None, 0);
    out.put("harness.cluster.jobs_phase_ms", jobs_wall * 1e3, "ms");
    out.put("harness.cluster.job_p50_ms", median(&job_ms), "ms");
    out.put(
        "harness.cluster.job_max_ms",
        job_ms.iter().cloned().fold(0.0, f64::max),
        "ms",
    );
    out.put(
        "harness.cluster.over_sharded",
        jobs_wall / (end - t).as_secs_f64(),
        "ratio",
    );
    out.put("serve.pool.failed_attempts", retries as f64, "count");
    Ok(())
}
