//! Envelope suite for the stochastic serving policies (`lp-resolve`,
//! `lcb-greedy`): every ingestion path agrees, the referee confirms
//! hard feasibility on hostile traces, and the advertised degradation
//! modes hold.
//!
//! 1. **Path parity** — for both policies (default and tuned specs),
//!    per-push ≡ `push_batch_into` ≡ streamed (`run_stream_batched`
//!    over the trace text) ≡ served over a live loopback socket, event for event and
//!    report for report, on stochastic *and* hostile traces.
//! 2. **Hard feasibility** — the referee audits every decision
//!    (capacity overflow, phantom preemption) while `lp-resolve` runs
//!    the hostile adversarial corpus; plan-enforcing preemption must
//!    never over-commit an edge.
//! 3. **Degradation** — `lcb-greedy?delta=0` is decision-identical to
//!    plain `greedy`, per the zero-confidence contract.

use acmr_core::{AdmissionInstance, AlgorithmSpec, ArrivalEvent, RunReport, Session};
use acmr_harness::experiments::e18_policies::{instance_for, Family};
use acmr_harness::{default_registry, run_report, SourceRef};
use acmr_serve::{serve, serve_trace, ServeConfig, ServerHandle};
use acmr_workloads::trace::{write_trace, TraceReader};
use acmr_workloads::{
    dyadic_admission_instance, nested_intervals, repeated_hot_edge, two_phase_squeeze,
};

/// The policy specs under the envelope: registry defaults plus the
/// tuned variants E18 sweeps.
const POLICY_SPECS: [&str; 4] = [
    "lp-resolve",
    "lcb-greedy",
    "lp-resolve?period=32&buffer=0.02",
    "lcb-greedy?delta=0.2",
];

fn hostile_traces() -> Vec<(&'static str, AdmissionInstance)> {
    vec![
        ("nested", nested_intervals(16, 2, 2, 2)),
        ("hot-edge", repeated_hot_edge(4, 3, 12)),
        ("squeeze", two_phase_squeeze(12, 3, 4, 3)),
        ("dyadic", dyadic_admission_instance(4, 3, 2)),
    ]
}

/// A small stochastic trace from each arrival family — the traffic the
/// policies are actually built for.
fn stochastic_traces() -> Vec<(&'static str, AdmissionInstance)> {
    [
        Family::StochasticIid,
        Family::Mmpp,
        Family::Diurnal,
        Family::FlashCrowd,
    ]
    .into_iter()
    .map(|f| (f.label(), instance_for(f, 24, 3, 96, 0xE18)))
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
fn push_equals_push_batch_equals_streamed_for_policies() {
    let registry = default_registry();
    let mut traces = hostile_traces();
    traces.extend(stochastic_traces());
    for (family, inst) in &traces {
        assert!(!inst.requests.is_empty(), "{family}: empty trace");
        let text = write_trace(inst);
        for spec_str in POLICY_SPECS {
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
fn served_equals_in_memory_for_policies() {
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
        for spec_str in POLICY_SPECS {
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

/// The referee inside `run_report` audits every decision: a
/// capacity overflow or phantom preemption from the plan-enforcing
/// preemptor panics the run. Surviving the hostile corpus — built to
/// force preemption churn — is the feasibility proof.
#[test]
fn lp_resolve_stays_feasible_under_referee_on_hostile_traces() {
    let registry = default_registry();
    for (family, inst) in &hostile_traces() {
        assert!(
            inst.max_excess() > 0,
            "{family}: hostile trace must overload"
        );
        for spec_str in ["lp-resolve", "lp-resolve?period=2&buffer=0.0"] {
            let report = run_report(&registry, spec_str, SourceRef::Mem(inst), 11, 1, None)
                .expect("audited run");
            assert!(
                report.rejected_cost <= report.offered_cost,
                "{spec_str} on {family}: accounting out of range"
            );
        }
    }
}

#[test]
fn lcb_greedy_at_zero_confidence_is_plain_greedy() {
    let mut traces = hostile_traces();
    traces.extend(stochastic_traces());
    for (family, inst) in &traces {
        let (lcb_events, lcb_report) = reference(inst, "lcb-greedy?delta=0");
        let (greedy_events, greedy_report) = reference(inst, "greedy");
        assert_eq!(
            lcb_events, greedy_events,
            "{family}: lcb-greedy?delta=0 diverges from greedy"
        );
        // The reports only differ in the algorithm labels.
        assert_eq!(
            (
                lcb_report.accepted_count,
                lcb_report.rejected_count,
                lcb_report.rejected_cost,
                lcb_report.preemptions,
                lcb_report.offered_cost,
            ),
            (
                greedy_report.accepted_count,
                greedy_report.rejected_count,
                greedy_report.rejected_cost,
                greedy_report.preemptions,
                greedy_report.offered_cost,
            ),
            "{family}: accounting diverges"
        );
    }
}
