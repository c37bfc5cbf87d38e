//! Golden-trace regression corpus.
//!
//! Thirteen committed traces (`tests/golden/<name>.trace`) spanning the
//! random topologies, every hostile family (including the buyback
//! cost-escalation topology), and three pinned stochastic arrival
//! models (iid, diurnal, and an MMPP trace long enough for
//! `lp-resolve` to re-solve its plan twice; a second iid trace is long
//! enough that OPT is bounded at the greedy/H tier), each with the expected
//! [`SweepReport`] of all registered algorithms pinned as
//! `tests/golden/<name>.expected.json`. The sweep runs through the
//! `ShardedDriver` batch path with fixed `threads`/`batch`/seed, so
//! the files are bit-reproducible and any behavioral drift in an
//! algorithm, the session layer, the sharded driver, or the OPT
//! bounds fails here with a readable diff.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p acmr --test golden
//! ```
//!
//! and commit the rewritten files. To add a trace, add a row to
//! [`corpus`] and regenerate.

use acmr::core::AdmissionInstance;
use acmr::harness::{cross_jobs, default_registry, BoundBudget, ShardedDriver, SweepReport};
use acmr::workloads::trace::{read_trace, write_trace};
use acmr::workloads::{
    buyback_hostile, dyadic_admission_instance, nested_intervals, random_path_workload,
    repeated_hot_edge, stochastic_workload, two_phase_squeeze, CostModel, PathWorkloadSpec,
    StochasticSpec, Topology, TrafficModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Fixed sweep shape: every registered algorithm, one base seed, and a
/// pinned thread/batch count so the serialized report is identical on
/// every machine.
const SWEEP_SEED: u64 = 7;
const SWEEP_THREADS: usize = 2;
const SWEEP_BATCH: usize = 16;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

fn path_workload(
    topology: Topology,
    costs: CostModel,
    overload: f64,
    seed: u64,
) -> AdmissionInstance {
    let spec = PathWorkloadSpec {
        topology,
        capacity: 2,
        overload,
        costs,
        max_hops: 5,
    };
    random_path_workload(&spec, &mut StdRng::seed_from_u64(seed)).1
}

/// The corpus: one representative per regime. Keep instances small
/// enough that the exact/LP OPT bounds stay fast — this is a tier-1
/// test.
fn stochastic_trace(model: TrafficModel, duration: u32, seed: u64) -> AdmissionInstance {
    let spec = StochasticSpec {
        topology: Topology::Line { m: 12 },
        capacity: 2,
        model,
        arrival_rate: 1.5,
        duration,
        costs: CostModel::Zipf {
            n_values: 64,
            s: 1.1,
        },
        max_hops: 6,
        session_alpha: 2.5,
        session_max: 6,
        width_alpha: 1.3,
    };
    stochastic_workload(&spec, &mut StdRng::seed_from_u64(seed)).1
}

fn corpus() -> Vec<(&'static str, AdmissionInstance)> {
    vec![
        (
            "line-unit",
            path_workload(Topology::Line { m: 16 }, CostModel::Unit, 2.0, 1),
        ),
        (
            "line-zipf",
            path_workload(
                Topology::Line { m: 16 },
                CostModel::Zipf {
                    n_values: 64,
                    s: 1.1,
                },
                2.0,
                2,
            ),
        ),
        (
            "grid-uniform",
            path_workload(
                Topology::Grid { rows: 3, cols: 3 },
                CostModel::Uniform { lo: 1.0, hi: 6.0 },
                1.5,
                3,
            ),
        ),
        (
            "tree-unit",
            path_workload(Topology::Tree { levels: 4 }, CostModel::Unit, 2.0, 4),
        ),
        ("adv-nested", nested_intervals(16, 2, 2, 2)),
        ("adv-hot-edge", repeated_hot_edge(4, 3, 12)),
        ("adv-squeeze", two_phase_squeeze(12, 3, 4, 3)),
        ("lower-bound-dyadic", dyadic_admission_instance(3, 2, 2)),
        ("buyback-hostile", buyback_hostile(6, 2, 4, 8.0)),
        ("stoch-iid", stochastic_trace(TrafficModel::Iid, 48, 5)),
        (
            "stoch-diurnal",
            stochastic_trace(
                TrafficModel::Diurnal {
                    period: 16,
                    amplitude: 0.8,
                },
                48,
                6,
            ),
        ),
        // Past two of `lp-resolve`'s 128-arrival periods, so its plan
        // re-solve and plan-enforcing swaps are pinned too.
        (
            "stoch-mmpp",
            stochastic_trace(TrafficModel::mmpp_default(), 168, 8),
        ),
        // 483 arrivals, past `BoundBudget::max_lp_items`, so the sweep
        // bounds OPT at the greedy/H tier and pins it end to end.
        (
            "stoch-iid-long",
            stochastic_trace(TrafficModel::Iid, 240, 9),
        ),
    ]
}

/// Run the pinned sweep over one named trace.
fn sweep(name: &str, inst: &AdmissionInstance) -> SweepReport {
    let registry = default_registry();
    let specs: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let jobs = cross_jobs(&[name], &spec_refs, &[SWEEP_SEED]);
    ShardedDriver::new()
        .threads(SWEEP_THREADS)
        .batch(SWEEP_BATCH)
        .budget(BoundBudget::default())
        .run(&registry, &[(name.to_string(), inst.clone())], &jobs)
        .expect("golden sweep runs")
}

/// First differing lines of two texts, numbered, for drift messages.
fn first_diff(expected: &str, actual: &str, context: usize) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            out.push_str(&format!(
                "  line {:>4}: expected {:?}\n             actual {:?}\n",
                i + 1,
                e.unwrap_or("<missing>"),
                a.unwrap_or("<missing>")
            ));
            shown += 1;
            if shown >= context {
                out.push_str("  …\n");
                break;
            }
        }
    }
    out
}

#[test]
fn golden_corpus_has_no_drift() {
    let dir = golden_dir();
    let update = std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false);
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut failures: Vec<String> = Vec::new();

    for (name, generated) in corpus() {
        let trace_path = dir.join(format!("{name}.trace"));
        let expected_path = dir.join(format!("{name}.expected.json"));
        let trace_text = write_trace(&generated);

        if update {
            std::fs::write(&trace_path, &trace_text).expect("write trace");
            let report = sweep(name, &generated);
            let json = serde_json::to_string_pretty(&report).expect("serialize sweep") + "\n";
            std::fs::write(&expected_path, json).expect("write expected");
            continue;
        }

        // 1. The committed trace must match its generator — catches
        //    silent workload-generator drift.
        let committed_trace = match std::fs::read_to_string(&trace_path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!(
                    "{name}: cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test -p acmr --test golden`",
                    trace_path.display()
                ));
                continue;
            }
        };
        if committed_trace != trace_text {
            failures.push(format!(
                "{name}: generator output drifted from committed trace:\n{}",
                first_diff(&committed_trace, &trace_text, 6)
            ));
            continue;
        }

        // 2. Replaying the committed trace must reproduce the expected
        //    sweep report byte-for-byte.
        let inst = read_trace(&committed_trace).expect("committed trace parses");
        let report = sweep(name, &inst);
        let actual = serde_json::to_string_pretty(&report).expect("serialize sweep") + "\n";
        let expected = match std::fs::read_to_string(&expected_path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!(
                    "{name}: cannot read {} ({e}); run `UPDATE_GOLDEN=1 cargo test -p acmr --test golden`",
                    expected_path.display()
                ));
                continue;
            }
        };
        if expected != actual {
            // Also locate which job drifted for a precise message.
            let mut detail = String::new();
            if let Ok(expected_report) = serde_json::from_str::<SweepReport>(&expected) {
                for (e, a) in expected_report.jobs.iter().zip(&report.jobs) {
                    if e != a {
                        detail.push_str(&format!(
                            "  first drifting job: {} on {} (expected rejected_cost {}, got {})\n",
                            a.report.algorithm,
                            a.trace,
                            e.report.rejected_cost,
                            a.report.rejected_cost
                        ));
                        break;
                    }
                }
            }
            failures.push(format!(
                "{name}: sweep report drifted:\n{detail}{}",
                first_diff(&expected, &actual, 8)
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "golden corpus drift in {} trace(s) — if the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test -p acmr --test golden` and commit:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn golden_corpus_covers_every_regime_and_algorithm() {
    // Structural guarantees about the corpus itself: both weighted and
    // unweighted traces, at least one preemption-forcing trace, and the
    // pinned sweep exercises every registered algorithm.
    let corpus = corpus();
    assert_eq!(corpus.len(), 13);
    assert!(corpus.iter().any(|(_, i)| i.is_unweighted()));
    assert!(corpus.iter().any(|(_, i)| !i.is_unweighted()));
    assert!(corpus.iter().all(|(_, i)| !i.requests.is_empty()));
    assert!(
        corpus.iter().any(|(_, i)| i.max_excess() > 0),
        "corpus must include overloaded traces"
    );
    let (name, inst) = &corpus[0];
    let report = sweep(name, inst);
    let algs: Vec<&str> = report
        .jobs
        .iter()
        .map(|j| j.report.algorithm_name.as_str())
        .collect();
    for registered in default_registry().names() {
        assert!(
            report.jobs.iter().any(|j| j.report.algorithm == registered),
            "sweep missing algorithm {registered} (got {algs:?})"
        );
    }
}
