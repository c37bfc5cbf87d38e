//! Envelope suite for the `buyback` cancellation-cost policy: every
//! ingestion path agrees, the billing ledger is exactly reconstructible
//! from the event stream, and the theorem envelope holds.
//!
//! 1. **Path parity** — for several `buyback?factor=` specs,
//!    per-push ≡ `push_batch_into` ≡ streamed (`run_stream_batched`
//!    over the trace text) ≡ served over a live loopback socket, event for event and
//!    report for report, on buyback-hostile *and* stochastic traces.
//! 2. **Ledger property** — `buyback_paid` equals `factor ×` the
//!    summed costs of every preempted request, reconstructed purely
//!    from the `ArrivalEvent` stream (ids are dense, so a preempted id
//!    indexes the earlier event that carried its cost). The wire
//!    format carries no buyback field — the ledger must be derivable.
//! 3. **Theorem envelope** — the measured value-competitive ratio vs
//!    the exact singleton OPT stays within `1 + 2f + 2√(f(1+f))` on
//!    escalation traces across the factor grid.

use acmr_baselines::Buyback;
use acmr_core::{AdmissionInstance, AlgorithmSpec, ArrivalEvent, RunReport, Session};
use acmr_harness::experiments::e18_policies::{instance_for as stochastic_instance, Family};
use acmr_harness::experiments::e19_buyback::exact_singleton_opt;
use acmr_harness::{default_registry, run_report, SourceRef};
use acmr_serve::{serve, serve_trace, ServeConfig, ServerHandle};
use acmr_workloads::adversarial::buyback_hostile;
use acmr_workloads::trace::{write_trace, TraceReader};

/// The buyback specs under the envelope: the registry default plus the
/// factor range E19 sweeps, including the free-cancellation edge.
const BUYBACK_SPECS: [&str; 4] = [
    "buyback",
    "buyback?factor=0",
    "buyback?factor=0.25",
    "buyback?factor=1",
];

fn hostile_traces() -> Vec<(&'static str, AdmissionInstance)> {
    vec![
        ("escalation-shallow", buyback_hostile(6, 3, 3, 8.0)),
        ("escalation-deep", buyback_hostile(4, 2, 6, 8.0)),
        ("escalation-tight", buyback_hostile(8, 1, 4, 6.0)),
    ]
}

/// A small stochastic trace from each arrival family — buyback must
/// stay path-consistent off its hostile topology too.
fn stochastic_traces() -> Vec<(&'static str, AdmissionInstance)> {
    [
        Family::StochasticIid,
        Family::Mmpp,
        Family::Diurnal,
        Family::FlashCrowd,
    ]
    .into_iter()
    .map(|f| (f.label(), stochastic_instance(f, 24, 3, 96, 0xE19)))
    .collect()
}

/// Reference decision stream and report: per-push over the in-memory
/// instance.
fn reference(inst: &AdmissionInstance, spec_str: &str) -> (Vec<ArrivalEvent>, RunReport) {
    let registry = default_registry();
    let spec = AlgorithmSpec::parse(spec_str).unwrap();
    let mut session = Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
    let events = inst
        .requests
        .iter()
        .map(|r| session.push(r).unwrap())
        .collect();
    (events, session.report())
}

#[test]
fn push_equals_push_batch_equals_streamed_for_buyback() {
    let registry = default_registry();
    let mut traces = hostile_traces();
    traces.extend(stochastic_traces());
    for (family, inst) in &traces {
        assert!(!inst.requests.is_empty(), "{family}: empty trace");
        let text = write_trace(inst);
        for spec_str in BUYBACK_SPECS {
            let spec = AlgorithmSpec::parse(spec_str).unwrap();
            let (expected_events, expected_report) = reference(inst, spec_str);

            for batch in [1usize, 3, 16] {
                let mut batched =
                    Session::from_registry(&registry, &spec, &inst.capacities, 0).unwrap();
                let (mut events, mut buf) = (Vec::new(), Vec::new());
                for chunk in inst.requests.chunks(batch) {
                    batched.push_batch_into(chunk, &mut buf).unwrap();
                    events.append(&mut buf);
                }
                assert_eq!(
                    events, expected_events,
                    "{spec_str} on {family}: push_batch_into({batch}) diverges from push"
                );
                assert_eq!(
                    batched.report(),
                    expected_report,
                    "{spec_str} on {family}: batched report diverges"
                );
            }

            let streamed = Session::from_registry(&registry, &spec, &inst.capacities, 0)
                .unwrap()
                .run_stream_batched(TraceReader::new(text.as_bytes()).unwrap(), 7)
                .unwrap();
            assert_eq!(
                streamed, expected_report,
                "{spec_str} on {family}: streamed report diverges"
            );
        }
    }
}

#[test]
fn served_equals_in_memory_for_buyback() {
    let handle: ServerHandle = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let mut traces = hostile_traces();
    traces.extend(stochastic_traces());
    for (family, inst) in &traces {
        for spec_str in BUYBACK_SPECS {
            let (expected_events, expected_report) = reference(inst, spec_str);
            for batch in [None, Some(8)] {
                let mut events = Vec::new();
                let report = serve_trace(
                    handle.local_addr(),
                    spec_str,
                    None,
                    &inst.capacities,
                    inst.requests.iter().cloned().map(Ok),
                    batch,
                    |e| events.push(e.clone()),
                )
                .expect("served run");
                assert_eq!(
                    events, expected_events,
                    "{spec_str} on {family}: served events diverge (batch {batch:?})"
                );
                assert_eq!(
                    report, expected_report,
                    "{spec_str} on {family}: served report diverges (batch {batch:?})"
                );
            }
        }
    }
}

/// The billing ledger is a pure function of the event stream: ids are
/// dense in arrival order, so every preempted id indexes the earlier
/// event that carried that request's cost. Summing those costs and
/// scaling by the factor must reproduce `buyback_paid` exactly (the
/// charges are sums of products of trace floats — bit-reproducible
/// along a fixed order), and `net_objective` must be the rejected cost
/// plus that ledger.
#[test]
fn buyback_paid_is_factor_times_preempted_cost_from_the_event_stream() {
    let mut traces = hostile_traces();
    traces.extend(stochastic_traces());
    for (family, inst) in &traces {
        for (spec_str, factor) in [
            ("buyback", 0.5),
            ("buyback?factor=0", 0.0),
            ("buyback?factor=0.25", 0.25),
            ("buyback?factor=1", 1.0),
            ("buyback?factor=2.5", 2.5),
        ] {
            let (events, report) = reference(inst, spec_str);
            let costs: Vec<f64> = events.iter().map(|e| e.cost).collect();
            let mut preempted_count = 0usize;
            for event in &events {
                for victim in &event.preempted {
                    assert!(
                        victim.index() < event.id.index(),
                        "{spec_str} on {family}: preempted id from the future"
                    );
                    preempted_count += 1;
                }
            }
            assert_eq!(
                report.preemptions, preempted_count,
                "{spec_str} on {family}: preemption count diverges from events"
            );
            let expected_paid: f64 = events
                .iter()
                .flat_map(|e| e.preempted.iter().map(|v| factor * costs[v.index()]))
                .sum();
            assert_eq!(
                report.buyback_paid, expected_paid,
                "{spec_str} on {family}: ledger diverges from the event stream"
            );
            assert_eq!(
                report.net_objective,
                report.rejected_cost + report.buyback_paid,
                "{spec_str} on {family}: net objective is not rejected + paid"
            );
            if factor > 0.0 && preempted_count > 0 {
                assert!(report.buyback_paid > 0.0, "{spec_str} on {family}");
            }
            if factor == 0.0 {
                assert_eq!(report.buyback_paid, 0.0, "{spec_str} on {family}");
            }
        }
    }
}

/// Theorem envelope: on escalation traces the measured value ratio
/// `(offered − OPT_rej) / (offered − net_objective)` stays inside the
/// deterministic buyback guarantee `1 + 2f + 2√(f(1+f))`. The traces
/// are all-singleton, so OPT is exact (keep each edge's `cap` priciest
/// requests) — the bound is checked against ground truth, not a
/// relaxation.
#[test]
fn buyback_stays_inside_the_theorem_envelope() {
    let registry = default_registry();
    for (family, inst) in &hostile_traces() {
        let opt_rejected = exact_singleton_opt(inst);
        for factor in [0.0, 0.1, 0.25, 0.5, 1.0, 2.0] {
            let spec = format!("buyback?factor={factor}");
            let report = run_report(&registry, &spec, SourceRef::Mem(inst), 0, 1, None).unwrap();
            let kept = report.offered_cost - report.net_objective;
            assert!(
                kept > 0.0,
                "{family} at factor {factor}: policy kept no net value"
            );
            let ratio = (report.offered_cost - opt_rejected) / kept;
            let guarantee = Buyback::guarantee(factor);
            assert!(
                ratio <= guarantee + 1e-9,
                "{family} at factor {factor}: value ratio {ratio} above guarantee {guarantee}"
            );
        }
    }
}

/// The referee inside `run_report` audits every decision — a
/// capacity overflow or phantom preemption panics the run. Surviving
/// the escalation corpus, which is built to force an upgrade on every
/// wave, is the feasibility proof; the report's invariants must also
/// hold.
#[test]
fn buyback_stays_feasible_under_referee_on_hostile_traces() {
    let registry = default_registry();
    for (family, inst) in &hostile_traces() {
        assert!(
            inst.max_excess() > 0,
            "{family}: hostile trace must overload"
        );
        for spec_str in BUYBACK_SPECS {
            let report = run_report(&registry, spec_str, SourceRef::Mem(inst), 11, 1, None)
                .expect("audited run");
            assert!(
                report.rejected_cost <= report.offered_cost,
                "{spec_str} on {family}: accounting out of range"
            );
            assert!(
                report.buyback_paid >= 0.0 && report.net_objective >= report.rejected_cost,
                "{spec_str} on {family}: billing out of range"
            );
        }
    }
}

/// Free cancellation collapses the margin: `buyback?factor=0` has
/// `δ = 0`, i.e. upgrade whenever the newcomer strictly out-prices its
/// victims — the same threshold family as `preempt-cheapest`, and it
/// must pay nothing.
#[test]
fn buyback_at_factor_zero_pays_nothing_and_preempts_freely() {
    let mut traces = hostile_traces();
    traces.extend(stochastic_traces());
    for (family, inst) in &traces {
        let (_, report) = reference(inst, "buyback?factor=0");
        assert_eq!(report.buyback_paid, 0.0, "{family}: free factor charged");
        assert_eq!(
            report.net_objective, report.rejected_cost,
            "{family}: net must equal rejected at factor 0"
        );
    }
    // On escalation traces the free policy must actually upgrade.
    let (_, report) = reference(&buyback_hostile(4, 2, 4, 8.0), "buyback?factor=0");
    assert!(report.preemptions > 0, "free buyback never upgraded");
}
