//! Failure injection: the harness is the referee, so feed it
//! deliberately broken "algorithms" and assert it catches every
//! contract violation (capacity overflow, phantom preemption,
//! self-preemption, double-bought sets, under-coverage), and feed
//! every registered algorithm malformed requests the session must
//! refuse before the algorithm sees them.

use acmr_core::setcover::{OnlineSetCover, SetId, SetSystem};
use acmr_core::{
    AcmrError, AdmissionInstance, AlgorithmSpec, OnlineAdmission, Outcome, Request, RequestId,
    Session,
};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::{default_registry, run_admission, run_set_cover};

fn fp(ids: &[u32]) -> EdgeSet {
    EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
}

fn overload_instance() -> AdmissionInstance {
    let mut inst = AdmissionInstance::from_capacities(vec![1]);
    inst.push(Request::unit(fp(&[0])));
    inst.push(Request::unit(fp(&[0])));
    inst
}

/// Accepts everything, capacity be damned.
struct AcceptAll;
impl OnlineAdmission for AcceptAll {
    fn name(&self) -> &'static str {
        "accept-all"
    }
    fn on_request(&mut self, _id: RequestId, _r: &Request) -> Outcome {
        Outcome::accept()
    }
}

#[test]
#[should_panic(expected = "violates a capacity")]
fn referee_catches_capacity_overflow() {
    run_admission(&mut AcceptAll, &overload_instance());
}

/// Preempts a request that was never accepted.
struct PhantomPreempt;
impl OnlineAdmission for PhantomPreempt {
    fn name(&self) -> &'static str {
        "phantom-preempt"
    }
    fn on_request(&mut self, id: RequestId, _r: &Request) -> Outcome {
        if id.0 == 1 {
            Outcome {
                accepted: false,
                preempted: vec![RequestId(0)],
            }
        } else {
            Outcome::reject() // request 0 was *rejected*, not accepted
        }
    }
}

#[test]
#[should_panic(expected = "not currently accepted")]
fn referee_catches_phantom_preemption() {
    run_admission(&mut PhantomPreempt, &overload_instance());
}

/// Preempts the same victim twice.
struct DoublePreempt;
impl OnlineAdmission for DoublePreempt {
    fn name(&self) -> &'static str {
        "double-preempt"
    }
    fn on_request(&mut self, id: RequestId, _r: &Request) -> Outcome {
        match id.0 {
            0 => Outcome::accept(),
            _ => Outcome {
                accepted: false,
                preempted: vec![RequestId(0), RequestId(0)],
            },
        }
    }
}

#[test]
#[should_panic(expected = "not currently accepted")]
fn referee_catches_double_preemption() {
    run_admission(&mut DoublePreempt, &overload_instance());
}

/// Accepts every newcomer while listing it among its own victims.
struct SelfPreempt;
impl OnlineAdmission for SelfPreempt {
    fn name(&self) -> &'static str {
        "self-preempt"
    }
    fn on_request(&mut self, id: RequestId, _r: &Request) -> Outcome {
        Outcome {
            accepted: true,
            preempted: vec![id],
        }
    }
}

#[test]
fn referee_refuses_self_preemption_and_poisons_the_session() {
    let request = Request::unit(fp(&[0]));
    let mut session = Session::new(SelfPreempt, &[1]);
    let err = session.push(&request).unwrap_err();
    assert!(
        matches!(&err, AcmrError::ContractViolation { detail, .. }
            if detail.contains("not currently accepted")),
        "{err}"
    );
    assert!(session.is_poisoned());
    assert!(matches!(
        session.push(&request),
        Err(AcmrError::SessionPoisoned)
    ));
    let mut events = Vec::new();
    assert!(matches!(
        session.push_batch_into(&[request], &mut events),
        Err(AcmrError::SessionPoisoned)
    ));
    assert_eq!(session.stats().arrivals, 0);
}

fn tiny_system() -> SetSystem {
    SetSystem::unit(2, vec![vec![0], vec![1], vec![0, 1]])
}

/// Buys nothing, ever.
struct BuysNothing;
impl OnlineSetCover for BuysNothing {
    fn name(&self) -> &'static str {
        "buys-nothing"
    }
    fn on_arrival(&mut self, _element: u32) -> Vec<SetId> {
        Vec::new()
    }
}

#[test]
#[should_panic(expected = "covered 0")]
fn referee_catches_under_coverage() {
    let system = tiny_system();
    run_set_cover(&mut BuysNothing, &system, &[0]);
}

/// Buys the same set on every arrival.
struct BuysSameSetTwice;
impl OnlineSetCover for BuysSameSetTwice {
    fn name(&self) -> &'static str {
        "double-buyer"
    }
    fn on_arrival(&mut self, _element: u32) -> Vec<SetId> {
        vec![SetId(2)] // second arrival: illegal, already bought
    }
}

#[test]
#[should_panic(expected = "bought twice")]
fn referee_catches_double_buying() {
    let system = tiny_system();
    run_set_cover(&mut BuysSameSetTwice, &system, &[0, 1]);
}

/// A bicriteria impostor claiming slack it does not honour.
struct SlackCheat;
impl OnlineSetCover for SlackCheat {
    fn name(&self) -> &'static str {
        "slack-cheat"
    }
    fn on_arrival(&mut self, _element: u32) -> Vec<SetId> {
        Vec::new()
    }
    fn coverage_slack(&self) -> f64 {
        0.5
    }
}

#[test]
#[should_panic(expected = "covered 0")]
fn referee_honours_declared_slack_but_still_catches_zero_coverage() {
    // With slack 0.5 the first arrival needs coverage ≥ 0.5 ⇒ ≥ 1 set.
    let system = tiny_system();
    run_set_cover(&mut SlackCheat, &system, &[0]);
}

/// Sanity: the referee passes a *correct* trivial algorithm.
struct BuysEverythingUpfront {
    bought: bool,
}
impl OnlineSetCover for BuysEverythingUpfront {
    fn name(&self) -> &'static str {
        "buy-all"
    }
    fn on_arrival(&mut self, _element: u32) -> Vec<SetId> {
        if self.bought {
            Vec::new()
        } else {
            self.bought = true;
            vec![SetId(0), SetId(1), SetId(2)]
        }
    }
}

#[test]
fn referee_accepts_correct_algorithm() {
    let system = tiny_system();
    let run = run_set_cover(
        &mut BuysEverythingUpfront { bought: false },
        &system,
        &[0, 1, 0],
    );
    assert_eq!(run.sets_bought, 3);
    assert!(run.worst_coverage_ratio >= 1.0);
}

#[test]
fn bad_costs_are_refused_for_every_algorithm_without_poisoning() {
    // `Request`'s fields are public, so these costs can skip
    // `Request::new`; the session must refuse them before the algorithm
    // sees them, on the push and the batch path.
    let registry = default_registry();
    let good = Request::new(fp(&[0, 1]), 1.0);
    for name in registry.names() {
        let spec = AlgorithmSpec::parse(name).unwrap();
        for cost in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = Request {
                footprint: fp(&[0]),
                cost,
            };
            let mut session = Session::from_registry(&registry, &spec, &[1, 1], 3).unwrap();
            session.push(&good).unwrap();
            let err = session.push(&bad).unwrap_err();
            assert!(
                matches!(err, AcmrError::InvalidRequest { .. }),
                "{name}, cost {cost}: {err}"
            );
            let mut events = Vec::new();
            let err = session
                .push_batch_into(&[good.clone(), bad], &mut events)
                .unwrap_err();
            assert!(
                matches!(err, AcmrError::InvalidRequest { .. }),
                "{name}, cost {cost} in a batch: {err}"
            );
            assert!(events.is_empty(), "{name}: the batch was partly applied");
            assert!(!session.is_poisoned(), "{name}, cost {cost}");
            session.push(&good).unwrap();
            let report = session.report();
            assert_eq!(report.requests, 2, "{name}, cost {cost}");
            assert!(report.rejected_cost.is_finite(), "{name}, cost {cost}");
        }
    }
}
