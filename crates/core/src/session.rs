//! The streaming `Session` driver: one incremental entry point for
//! every consumer of an online admission algorithm.
//!
//! The seed tree drove algorithms through a batch-only free function
//! (`harness::run_admission`) that needed the whole
//! [`AdmissionInstance`](crate::AdmissionInstance) up front and
//! panicked on contract violations. A [`Session`] instead owns the
//! algorithm, the [`acmr_graph::LoadTracker`] audit, and running
//! statistics, and exposes three drivers over one arrival body:
//!
//! * [`Session::push`] — feed one arrival, get one audited
//!   [`ArrivalEvent`] back (the serve machine's single-frame path);
//! * [`Session::push_batch_into`] — feed a slice of arrivals into a
//!   caller-owned event buffer (the serve machine's batch path, and
//!   the harness's in-memory runs);
//! * [`Session::run_stream_batched`] — drive a whole fallible request
//!   stream and summarize (every whole-source run).
//!
//! The algorithms are online — each arrival is decided once, in order —
//! so the drivers differ only in amortization, never in decisions.
//!
//! ## Batched arrivals
//!
//! [`Session::push_batch_into`]'s semantics are pinned to the
//! per-arrival path — the event stream it writes is **identical,
//! arrival for arrival**, to what the same requests would produce
//! through [`Session::push`] (a property the harness's differential
//! suite asserts for every registered algorithm) — while the batch
//! shape lets the session amortize what per-push calls cannot:
//! footprints are validated in one upfront pass before the algorithm
//! sees anything, per-arrival bookkeeping vectors are grown once per
//! batch, the load-audit coherence sweep runs once per batch instead of
//! once per arrival, and the reused event buffer means steady-state
//! batch processing performs no per-event allocations in this layer.
//!
//! ## Streaming ingestion
//!
//! [`Session::run_stream_batched`] drives the session off a fallible
//! request iterator — the shape a chunked trace parser
//! (`acmr_workloads::trace::TraceReader`) yields — so a run never
//! materializes its instance: this layer buffers at most one batch of
//! the stream. What remains is the referee's own audit state —
//! footprints of *currently accepted* requests plus a few bytes of
//! accept/reject bookkeeping per arrival — which is why `acmr run
//! --stream`'s peak RSS is a small fraction of the materialized
//! instance's (the streaming bench records both), not `O(1)`.
//!
//! Contract violations (capacity overflow, phantom preemption,
//! accept-after-reject) surface as
//! [`AcmrError::ContractViolation`] with the same wording the harness
//! panics always used; after one violation the session is *poisoned*
//! and every further push fails fast.

use crate::error::AcmrError;
use crate::instance::{Request, RequestId};
use crate::online::OnlineAdmission;
use crate::registry::{AlgorithmSpec, BuildCtx, Registry};
use crate::report::RunReport;
use acmr_graph::LoadTracker;
use serde::{Deserialize, Serialize};

/// What one arrival did to the stream — the audited, serializable
/// superset of the algorithm-facing [`crate::Outcome`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Dense id assigned to the arriving request.
    pub id: RequestId,
    /// Was the newcomer accepted (and still accepted once this
    /// arrival's preemptions settled)?
    pub accepted: bool,
    /// Previously accepted requests preempted by this arrival.
    pub preempted: Vec<RequestId>,
    /// Cost of the arriving request.
    pub cost: f64,
    /// Rejection cost newly incurred by this arrival: the newcomer's
    /// cost if rejected, plus the costs of everything preempted.
    pub rejected_cost_delta: f64,
    /// Running total of rejected cost after this arrival.
    pub total_rejected_cost: f64,
}

/// Running statistics a session maintains incrementally.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Arrivals processed.
    pub arrivals: usize,
    /// Requests currently accepted.
    pub currently_accepted: usize,
    /// Requests rejected or preempted so far.
    pub rejected_count: usize,
    /// Total cost of rejected/preempted requests (the paper's
    /// objective).
    pub rejected_cost: f64,
    /// Preemptions so far (every preemption is also a rejection).
    pub preemptions: usize,
    /// Cancellation charges so far: the session's buyback factor times
    /// the summed cost of every preempted request.
    pub buyback_paid: f64,
    /// Total cost of all arrivals seen.
    pub offered_cost: f64,
}

/// A streaming run of one online admission algorithm over one arrival
/// sequence, with the harness's referee audit applied per arrival.
pub struct Session<A: OnlineAdmission = Box<dyn OnlineAdmission>> {
    alg: A,
    /// Owns the capacity vector; edge counts and capacities are always
    /// read back from here so there is one source of truth.
    audit: LoadTracker,
    /// Per-request live state: footprint retained while accepted.
    accepted: Vec<Option<Request>>,
    ever_rejected: Vec<bool>,
    stats: RunStats,
    poisoned: bool,
    /// Cancellation-cost factor `f`: every preemption of an admitted
    /// request of cost `c` is charged an extra `f × c` into
    /// `stats.buyback_paid`. Adopted from the algorithm's
    /// [`OnlineAdmission::buyback_factor`] at construction; scenario
    /// runs (E19) may override it to bill free-preemption algorithms
    /// under the same cost model.
    buyback_factor: f64,
    /// Spec string the algorithm was built from, when registry-built.
    spec: Option<String>,
    /// Seed the algorithm was built with, when registry-built.
    seed: Option<u64>,
}

impl Session<Box<dyn OnlineAdmission>> {
    /// Build the algorithm named by `spec` from `registry` and open a
    /// session over `capacities`. `base_seed` feeds randomized
    /// algorithms unless the spec carries its own `seed=`.
    pub fn from_registry(
        registry: &Registry,
        spec: &AlgorithmSpec,
        capacities: &[u32],
        base_seed: u64,
    ) -> Result<Self, AcmrError> {
        let ctx = BuildCtx::new(capacities).with_seed(base_seed);
        let alg = registry.build_spec(spec, &ctx)?;
        let mut session = Session::new(alg, capacities);
        session.spec = Some(spec.canonical());
        session.seed = Some(ctx.effective_seed(spec)?);
        Ok(session)
    }
}

impl<A: OnlineAdmission> Session<A> {
    /// Open a session driving `alg` over edges with the given
    /// capacities.
    pub fn new(alg: A, capacities: &[u32]) -> Self {
        let buyback_factor = alg.buyback_factor();
        Session {
            alg,
            audit: LoadTracker::from_capacities(capacities.to_vec()),
            accepted: Vec::new(),
            ever_rejected: Vec::new(),
            stats: RunStats::default(),
            poisoned: false,
            buyback_factor,
            spec: None,
            seed: None,
        }
    }

    /// Override the cancellation-cost factor this session charges per
    /// preemption (default: the algorithm's own
    /// [`OnlineAdmission::buyback_factor`], `0.0` for the paper's
    /// free-preemption algorithms). Must be finite and non-negative,
    /// and can only be set before the first arrival — the charge
    /// stream would otherwise be retroactively inconsistent.
    pub fn with_buyback_factor(mut self, factor: f64) -> Result<Self, AcmrError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(AcmrError::InvalidRequest {
                reason: format!("buyback factor must be finite and >= 0, got {factor}"),
            });
        }
        self.check_fresh("with_buyback_factor")?;
        self.buyback_factor = factor;
        Ok(self)
    }

    /// The cancellation-cost factor this session charges per
    /// preemption.
    pub fn buyback_factor(&self) -> f64 {
        self.buyback_factor
    }

    /// The driven algorithm's stable name.
    pub fn algorithm_name(&self) -> &'static str {
        self.alg.name()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Final acceptance state per arrival so far.
    pub fn accepted_mask(&self) -> Vec<bool> {
        self.accepted.iter().map(Option::is_some).collect()
    }

    /// Has a contract violation poisoned this session?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn violation(&mut self, detail: String) -> AcmrError {
        self.poisoned = true;
        AcmrError::ContractViolation {
            algorithm: self.alg.name().to_string(),
            detail,
        }
    }

    /// Feed one arrival; audit and apply the algorithm's decision.
    ///
    /// Errors with [`AcmrError::InvalidRequest`] if the footprint
    /// references an edge outside the capacity vector (the request is
    /// not shown to the algorithm), and with
    /// [`AcmrError::ContractViolation`] if the algorithm breaks the
    /// online contract (the session is then poisoned).
    ///
    /// ```
    /// use acmr_core::{register_core, AlgorithmSpec, Registry, Request, Session};
    /// use acmr_graph::{EdgeId, EdgeSet};
    ///
    /// let mut registry = Registry::new();
    /// register_core(&mut registry);
    /// let spec = AlgorithmSpec::parse("aag-weighted?seed=42")?;
    /// let mut session = Session::from_registry(&registry, &spec, &[1, 1], 0)?;
    ///
    /// let request = Request::new(EdgeSet::new(vec![EdgeId(0), EdgeId(1)]), 5.0);
    /// let event = session.push(&request)?;   // one audited ArrivalEvent
    /// assert!(event.accepted);               // plenty of room: base case
    /// assert_eq!(session.stats().arrivals, 1);
    /// # Ok::<(), acmr_core::AcmrError>(())
    /// ```
    pub fn push(&mut self, request: &Request) -> Result<ArrivalEvent, AcmrError> {
        if self.poisoned {
            return Err(AcmrError::SessionPoisoned);
        }
        self.validate(request)?;
        let event = self.push_validated(request)?;
        debug_assert!(self.audit.is_feasible());
        Ok(event)
    }

    /// Range-check a footprint against the session's edge universe
    /// without showing the request to the algorithm.
    fn validate(&self, request: &Request) -> Result<(), AcmrError> {
        let num_edges = self.audit.num_edges();
        if let Some(e) = request.footprint.iter().find(|e| e.index() >= num_edges) {
            return Err(AcmrError::InvalidRequest {
                reason: format!("footprint edge {e:?} out of range for {num_edges} edges"),
            });
        }
        Ok(())
    }

    /// The arrival body shared by [`Session::push`] and the batch path:
    /// assumes the footprint was already validated and the session is
    /// not poisoned; can still fail with a contract violation.
    fn push_validated(&mut self, request: &Request) -> Result<ArrivalEvent, AcmrError> {
        // Dense u32 ids: refuse the 2^32-th arrival instead of silently
        // wrapping and aliasing old slots — reachable in principle now
        // that `run_stream_batched` advertises unbounded input.
        let Ok(raw_id) = u32::try_from(self.accepted.len()) else {
            return Err(AcmrError::InvalidRequest {
                reason: format!(
                    "session reached the RequestId limit of {} arrivals",
                    u32::MAX
                ),
            });
        };
        let id = RequestId(raw_id);
        let out = self.alg.on_request(id, request);

        // Referee phase 1: preemptions must name currently-accepted
        // requests.
        let mut rejected_cost_delta = 0.0;
        for p in &out.preempted {
            let slot = self.accepted.get_mut(p.index()).and_then(Option::take);
            let Some(victim) = slot else {
                return Err(
                    self.violation(format!("preempted request {p:?} is not currently accepted"))
                );
            };
            self.audit.release(&victim.footprint);
            self.ever_rejected[p.index()] = true;
            self.stats.currently_accepted -= 1;
            self.stats.rejected_count += 1;
            self.stats.rejected_cost += victim.cost;
            self.stats.preemptions += 1;
            self.stats.buyback_paid += self.buyback_factor * victim.cost;
            rejected_cost_delta += victim.cost;
        }

        // Referee phase 2: acceptance must be fresh and feasible.
        self.accepted.push(None);
        self.ever_rejected.push(false);
        if out.accepted {
            if self.ever_rejected[id.index()] {
                return Err(self.violation("accepted a previously rejected request".to_string()));
            }
            if !self.audit.fits(&request.footprint) {
                return Err(self.violation(format!(
                    "accepting request {} violates a capacity",
                    id.index()
                )));
            }
            self.audit.admit(&request.footprint);
            self.accepted[id.index()] = Some(request.clone());
            self.stats.currently_accepted += 1;
        } else {
            self.ever_rejected[id.index()] = true;
            self.stats.rejected_count += 1;
            self.stats.rejected_cost += request.cost;
            rejected_cost_delta += request.cost;
        }
        self.stats.arrivals += 1;
        self.stats.offered_cost += request.cost;

        Ok(ArrivalEvent {
            id,
            accepted: out.accepted,
            preempted: out.preempted,
            cost: request.cost,
            rejected_cost_delta,
            total_rejected_cost: self.stats.rejected_cost,
        })
    }

    /// Feed a slice of arrivals at once; equivalent to pushing each
    /// request through [`Session::push`] in order, and writes the same
    /// events the per-push calls would have returned into `events`, so a
    /// steady-state batch loop allocates no event storage per batch.
    ///
    /// `events` is cleared first. The batch shape buys three
    /// amortizations over the per-push loop: the whole batch is
    /// range-validated **upfront** (an invalid footprint anywhere
    /// rejects the batch with [`AcmrError::InvalidRequest`] before *any*
    /// arrival is shown to the algorithm — no partial application on bad
    /// input), the per-arrival bookkeeping vectors are reserved once, and
    /// the load-audit coherence sweep runs once per batch.
    ///
    /// Contract violations keep per-arrival semantics: arrivals before
    /// the violation are applied, counted, and left in `events`; the
    /// violation poisons the session and the error is returned.
    ///
    /// ```
    /// use acmr_core::{register_core, AlgorithmSpec, Registry, Request, Session};
    /// use acmr_graph::{EdgeId, EdgeSet};
    ///
    /// let mut registry = Registry::new();
    /// register_core(&mut registry);
    /// let spec = AlgorithmSpec::parse("aag-unweighted?seed=7")?;
    /// let mut session = Session::from_registry(&registry, &spec, &[2], 0)?;
    ///
    /// let batch: Vec<Request> = (0..3)
    ///     .map(|_| Request::unit(EdgeSet::singleton(EdgeId(0))))
    ///     .collect();
    /// let mut events = Vec::new();
    /// session.push_batch_into(&batch, &mut events)?; // same events `push` yields
    /// assert_eq!(events.len(), 3);
    /// assert_eq!(session.stats().arrivals, 3);
    /// # Ok::<(), acmr_core::AcmrError>(())
    /// ```
    pub fn push_batch_into(
        &mut self,
        batch: &[Request],
        events: &mut Vec<ArrivalEvent>,
    ) -> Result<(), AcmrError> {
        events.clear();
        if self.poisoned {
            return Err(AcmrError::SessionPoisoned);
        }
        // Upfront validation: all-or-nothing, and the algorithm sees
        // nothing unless the whole batch is well-formed.
        for request in batch {
            self.validate(request)?;
        }
        events.reserve(batch.len());
        self.accepted.reserve(batch.len());
        self.ever_rejected.reserve(batch.len());
        for request in batch {
            events.push(self.push_validated(request)?);
        }
        debug_assert!(self.audit.is_feasible());
        Ok(())
    }

    fn check_fresh(&self, caller: &str) -> Result<(), AcmrError> {
        if self.stats.arrivals > 0 {
            return Err(AcmrError::InvalidRequest {
                reason: format!(
                    "{caller} requires a fresh session, but {} arrivals were already pushed",
                    self.stats.arrivals
                ),
            });
        }
        Ok(())
    }

    /// Drive an arrival stream of unknown (unbounded) length through
    /// the batch path and summarize: arrivals are buffered into chunks
    /// of `batch` requests and fed through [`Session::push_batch_into`]
    /// with one reused request buffer and one reused event buffer. This
    /// layer buffers `O(batch)` of the stream, never the instance, and
    /// the decision stream is identical for every batch size (the
    /// differential suite pins it for every registered algorithm).
    /// Memory is therefore dominated by the referee's audit state (live
    /// footprints + per-arrival bookkeeping bytes), a small fraction of
    /// a materialized instance but still linear in very long streams.
    ///
    /// `arrivals` yields `Result<Request, AcmrError>` so a streaming
    /// parser (e.g. `acmr_workloads::trace::TraceReader`, which
    /// implements exactly this iterator shape) can surface I/O and
    /// parse errors mid-stream. The first error aborts the run and is
    /// returned as-is, before the partially filled chunk is shown to
    /// the algorithm — arrivals already fed in complete chunks stay
    /// applied. Requires a fresh session whose capacities match the
    /// stream's universe (the caller builds the session from the
    /// stream's header — the session cannot see it); `batch` must be
    /// at least 1.
    ///
    /// ```
    /// use acmr_core::{register_core, AlgorithmSpec, Registry, Request, Session};
    /// use acmr_graph::{EdgeId, EdgeSet};
    ///
    /// let mut registry = Registry::new();
    /// register_core(&mut registry);
    /// let spec = AlgorithmSpec::parse("aag-weighted?seed=3")?;
    /// let mut session = Session::from_registry(&registry, &spec, &[1], 0)?;
    ///
    /// // Any fallible iterator of requests works — here an in-memory
    /// // stand-in for a chunked trace reader.
    /// let stream = (0..100).map(|_| Ok(Request::unit(EdgeSet::singleton(EdgeId(0)))));
    /// let report = session.run_stream_batched(stream, 16)?;
    /// assert_eq!(report.requests, 100);
    /// assert!(report.rejected_count >= 99); // capacity 1: at most one held
    /// # Ok::<(), acmr_core::AcmrError>(())
    /// ```
    pub fn run_stream_batched<I>(
        &mut self,
        arrivals: I,
        batch: usize,
    ) -> Result<RunReport, AcmrError>
    where
        I: IntoIterator<Item = Result<Request, AcmrError>>,
    {
        if batch == 0 {
            return Err(AcmrError::InvalidRequest {
                reason: "batch size must be at least 1".to_string(),
            });
        }
        self.check_fresh("run_stream_batched")?;
        let mut chunk: Vec<Request> = Vec::with_capacity(batch);
        let mut events = Vec::new();
        for request in arrivals {
            chunk.push(request?);
            if chunk.len() == batch {
                self.push_batch_into(&chunk, &mut events)?;
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            self.push_batch_into(&chunk, &mut events)?;
        }
        Ok(self.report())
    }

    /// Snapshot the session as a structured [`RunReport`].
    pub fn report(&self) -> RunReport {
        RunReport {
            algorithm: self
                .spec
                .clone()
                .unwrap_or_else(|| self.alg.name().to_string()),
            algorithm_name: self.alg.name().to_string(),
            seed: self.seed,
            edges: self.audit.num_edges(),
            max_capacity: (0..self.audit.num_edges())
                .map(|i| self.audit.capacity(acmr_graph::EdgeId(i as u32)))
                .max()
                .unwrap_or(0),
            requests: self.stats.arrivals,
            accepted_count: self.stats.currently_accepted,
            rejected_count: self.stats.rejected_count,
            rejected_cost: self.stats.rejected_cost,
            preemptions: self.stats.preemptions,
            buyback_paid: self.stats.buyback_paid,
            net_objective: self.stats.rejected_cost + self.stats.buyback_paid,
            offered_cost: self.stats.offered_cost,
            opt: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::Outcome;
    use crate::registry::{register_core, Registry};
    use acmr_graph::{EdgeId, EdgeSet};

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
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

    /// Preempts a request that was never accepted.
    struct PhantomPreempt;
    impl OnlineAdmission for PhantomPreempt {
        fn name(&self) -> &'static str {
            "phantom"
        }
        fn on_request(&mut self, id: RequestId, _r: &Request) -> Outcome {
            if id.0 == 0 {
                Outcome::reject()
            } else {
                Outcome {
                    accepted: false,
                    preempted: vec![RequestId(0)],
                }
            }
        }
    }

    #[test]
    fn streaming_stats_accumulate() {
        let mut reg = Registry::new();
        register_core(&mut reg);
        let caps = vec![1u32];
        let spec = AlgorithmSpec::parse("aag-weighted?seed=4").unwrap();
        let mut session = Session::from_registry(&reg, &spec, &caps, 0).unwrap();
        assert_eq!(session.stats().arrivals, 0);
        for _ in 0..5 {
            let ev = session.push(&Request::new(fp(&[0]), 2.0)).unwrap();
            assert_eq!(ev.cost, 2.0);
            assert!(ev.total_rejected_cost <= session.stats().rejected_cost + 1e-12);
        }
        let stats = session.stats().clone();
        assert_eq!(stats.arrivals, 5);
        assert_eq!(stats.offered_cost, 10.0);
        // Capacity 1: at most one live acceptance.
        assert!(stats.currently_accepted <= 1);
        // Every arrival is either still accepted or was rejected
        // (immediately or by preemption) exactly once.
        assert_eq!(stats.rejected_count + stats.currently_accepted, 5);
        let report = session.report();
        assert_eq!(report.algorithm, "aag-weighted?seed=4");
        assert_eq!(report.seed, Some(4));
        assert_eq!(report.requests, 5);
    }

    /// Always upgrades: preempts whatever it holds, accepts the
    /// newcomer. Advertises a buyback factor so the session bills it.
    struct UpgradeAlways {
        held: Option<RequestId>,
        factor: f64,
    }
    impl OnlineAdmission for UpgradeAlways {
        fn name(&self) -> &'static str {
            "upgrade-always"
        }
        fn on_request(&mut self, id: RequestId, _r: &Request) -> Outcome {
            let preempted = self.held.take().into_iter().collect();
            self.held = Some(id);
            Outcome {
                accepted: true,
                preempted,
            }
        }
        fn buyback_factor(&self) -> f64 {
            self.factor
        }
    }

    #[test]
    fn buyback_factor_is_adopted_and_charged_per_preemption() {
        let caps = vec![1u32];
        let alg = UpgradeAlways {
            held: None,
            factor: 0.5,
        };
        let mut session = Session::new(alg, &caps);
        assert_eq!(session.buyback_factor(), 0.5);
        let costs = [1.0, 2.0, 4.0];
        for &c in &costs {
            session.push(&Request::new(fp(&[0]), c)).unwrap();
        }
        // Arrivals 1 and 2 each preempted the previous holder, so the
        // charge is 0.5 × (1.0 + 2.0).
        let report = session.report();
        assert_eq!(report.preemptions, 2);
        assert_eq!(report.buyback_paid, 1.5);
        assert_eq!(report.rejected_cost, 3.0);
        assert_eq!(report.net_objective, 4.5);
        assert_eq!(session.stats().buyback_paid, 1.5);
    }

    #[test]
    fn buyback_factor_override_bills_free_preemption_algorithms() {
        let caps = vec![1u32];
        let alg = UpgradeAlways {
            held: None,
            factor: 0.0,
        };
        let mut session = Session::new(alg, &caps).with_buyback_factor(2.0).unwrap();
        assert_eq!(session.buyback_factor(), 2.0);
        session.push(&Request::new(fp(&[0]), 1.0)).unwrap();
        session.push(&Request::new(fp(&[0]), 3.0)).unwrap();
        let report = session.report();
        assert_eq!(report.buyback_paid, 2.0);
        assert_eq!(report.net_objective, 1.0 + 2.0);

        // Bad factors are typed errors; so is setting one mid-stream.
        let alg = UpgradeAlways {
            held: None,
            factor: 0.0,
        };
        assert!(Session::new(alg, &caps).with_buyback_factor(-1.0).is_err());
        let alg = UpgradeAlways {
            held: None,
            factor: 0.0,
        };
        assert!(Session::new(alg, &caps)
            .with_buyback_factor(f64::NAN)
            .is_err());
        let alg = UpgradeAlways {
            held: None,
            factor: 0.0,
        };
        let mut started = Session::new(alg, &caps);
        started.push(&Request::new(fp(&[0]), 1.0)).unwrap();
        assert!(started.with_buyback_factor(1.0).is_err());
    }

    #[test]
    fn free_preemption_reports_zero_buyback() {
        let mut reg = Registry::new();
        register_core(&mut reg);
        let spec = AlgorithmSpec::parse("aag-weighted?seed=4").unwrap();
        let mut session = Session::from_registry(&reg, &spec, &[1], 0).unwrap();
        for _ in 0..6 {
            session.push(&Request::new(fp(&[0]), 2.0)).unwrap();
        }
        let report = session.report();
        assert_eq!(report.buyback_paid, 0.0);
        assert_eq!(report.net_objective, report.rejected_cost);
    }

    #[test]
    fn capacity_violation_poisons_session() {
        let caps = vec![1u32];
        let mut session = Session::new(AcceptAll, &caps);
        assert!(session.push(&Request::unit(fp(&[0]))).unwrap().accepted);
        let err = session.push(&Request::unit(fp(&[0]))).unwrap_err();
        assert!(err.to_string().contains("violates a capacity"), "{err}");
        assert!(session.is_poisoned());
        assert_eq!(
            session.push(&Request::unit(fp(&[0]))),
            Err(AcmrError::SessionPoisoned)
        );
    }

    #[test]
    fn phantom_preemption_is_reported() {
        let caps = vec![1u32];
        let mut session = Session::new(PhantomPreempt, &caps);
        session.push(&Request::unit(fp(&[0]))).unwrap();
        let err = session.push(&Request::unit(fp(&[0]))).unwrap_err();
        assert!(err.to_string().contains("not currently accepted"), "{err}");
    }

    #[test]
    fn out_of_range_footprint_is_rejected_without_poisoning() {
        let caps = vec![1u32];
        let mut session = Session::new(AcceptAll, &caps);
        let err = session.push(&Request::unit(fp(&[7]))).unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }));
        assert!(!session.is_poisoned());
        assert!(session.push(&Request::unit(fp(&[0]))).unwrap().accepted);
    }

    #[test]
    fn push_batch_matches_streaming_pushes() {
        let mut reg = Registry::new();
        register_core(&mut reg);
        let spec = AlgorithmSpec::parse("aag-weighted?seed=7").unwrap();
        let caps = vec![2u32, 1, 2];
        let requests: Vec<Request> = (0..12)
            .map(|i| {
                let fp = match i % 3 {
                    0 => fp(&[0]),
                    1 => fp(&[0, 1]),
                    _ => fp(&[1, 2]),
                };
                Request::new(fp, 1.0 + (i % 4) as f64)
            })
            .collect();

        let mut streaming = Session::from_registry(&reg, &spec, &caps, 0).unwrap();
        let expected: Vec<ArrivalEvent> = requests
            .iter()
            .map(|r| streaming.push(r).unwrap())
            .collect();

        for batch_size in [1usize, 2, 5, 12, 100] {
            let mut batched = Session::from_registry(&reg, &spec, &caps, 0).unwrap();
            let mut events = Vec::new();
            let mut buf = Vec::new();
            for chunk in requests.chunks(batch_size) {
                batched.push_batch_into(chunk, &mut buf).unwrap();
                events.extend(buf.iter().cloned());
            }
            assert_eq!(events, expected, "batch size {batch_size}");
            assert_eq!(batched.report(), streaming.report());
        }
    }

    #[test]
    fn push_batch_into_clears_the_event_buffer() {
        let caps = vec![4u32];
        let mut session = Session::new(AcceptAll, &caps);
        let batch = vec![Request::unit(fp(&[0])), Request::unit(fp(&[0]))];
        let mut events = Vec::new();
        session.push_batch_into(&batch, &mut events).unwrap();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.accepted));
        assert_eq!(session.stats().arrivals, 2);
        // Empty batch: no-op, and the previous batch's events are gone.
        session.push_batch_into(&[], &mut events).unwrap();
        assert!(events.is_empty());
        assert_eq!(session.stats().arrivals, 2);
    }

    #[test]
    fn push_batch_validates_upfront_without_partial_application() {
        let caps = vec![2u32];
        let mut session = Session::new(AcceptAll, &caps);
        // Second request is out of range: the whole batch is rejected
        // and the first request was never shown to the algorithm.
        let batch = vec![Request::unit(fp(&[0])), Request::unit(fp(&[9]))];
        let mut events = Vec::new();
        let err = session.push_batch_into(&batch, &mut events).unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }));
        assert!(!session.is_poisoned());
        assert_eq!(session.stats().arrivals, 0);
        // The session is still usable.
        session.push_batch_into(&batch[..1], &mut events).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn push_batch_keeps_prefix_events_on_mid_batch_violation() {
        let caps = vec![1u32];
        let mut session = Session::new(AcceptAll, &caps);
        let batch = vec![Request::unit(fp(&[0])), Request::unit(fp(&[0]))];
        let mut events = Vec::new();
        let err = session.push_batch_into(&batch, &mut events).unwrap_err();
        assert!(err.to_string().contains("violates a capacity"), "{err}");
        // The first arrival was applied before the violation.
        assert_eq!(events.len(), 1);
        assert!(events[0].accepted);
        assert_eq!(session.stats().arrivals, 1);
        assert!(session.is_poisoned());
        assert_eq!(
            session.push_batch_into(&batch, &mut events),
            Err(AcmrError::SessionPoisoned)
        );
    }

    #[test]
    fn run_stream_batched_matches_incremental_pushes() {
        let requests = vec![
            Request::new(fp(&[0]), 1.0),
            Request::new(fp(&[0, 1]), 5.0),
            Request::new(fp(&[1]), 2.0),
            Request::new(fp(&[0]), 3.0),
        ];
        let caps = vec![1u32, 1];
        let mut reg = Registry::new();
        register_core(&mut reg);
        let spec = AlgorithmSpec::parse("aag-weighted?seed=6").unwrap();
        let mut pushed = Session::from_registry(&reg, &spec, &caps, 0).unwrap();
        for r in &requests {
            pushed.push(r).unwrap();
        }
        let reference = pushed.report();
        assert_eq!(reference.requests, 4);

        for batch in [1usize, 2, 3, 64] {
            let batched = Session::from_registry(&reg, &spec, &caps, 0)
                .unwrap()
                .run_stream_batched(requests.iter().cloned().map(Ok), batch)
                .unwrap();
            assert_eq!(batched, reference, "batch {batch}");
        }
        // Batch 0 is a usage error, reported before any state changes.
        let err = Session::from_registry(&reg, &spec, &caps, 0)
            .unwrap()
            .run_stream_batched(requests.iter().cloned().map(Ok), 0)
            .unwrap_err();
        assert!(err.to_string().contains("batch size"), "{err}");
    }

    #[test]
    fn run_stream_propagates_source_errors_after_applied_prefix() {
        let caps = vec![4u32];
        let boom = || AcmrError::TraceParse {
            line: 9,
            message: "bad cost".into(),
        };
        // Two good arrivals, then a source failure.
        let stream = |n: usize| {
            let boom = boom();
            (0..n)
                .map(|_| Ok(Request::unit(fp(&[0]))))
                .chain(std::iter::once(Err(boom)))
                .collect::<Vec<_>>()
        };
        let mut session = Session::new(AcceptAll, &caps);
        let err = session.run_stream_batched(stream(2), 1).unwrap_err();
        assert_eq!(err, boom());
        assert_eq!(session.stats().arrivals, 2, "prefix stays applied");
        assert!(!session.is_poisoned(), "source error is not a violation");

        // The error arrives mid-chunk: complete chunks stay applied,
        // the partial chunk is never shown to the algorithm.
        let mut session = Session::new(AcceptAll, &caps);
        let err = session.run_stream_batched(stream(3), 2).unwrap_err();
        assert_eq!(err, boom());
        assert_eq!(session.stats().arrivals, 2, "only the complete chunk");
    }

    #[test]
    fn run_stream_requires_a_fresh_session() {
        let caps = vec![1u32];
        let mut session = Session::new(AcceptAll, &caps);
        session.push(&Request::unit(fp(&[0]))).unwrap();
        // A second replay would silently merge two streams; rejected.
        let err = session
            .run_stream_batched(std::iter::empty(), 8)
            .unwrap_err();
        assert!(err.to_string().contains("fresh session"), "{err}");
    }
}
