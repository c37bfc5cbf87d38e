//! ISP backbone scenario: video sessions with service tiers on a tree
//! backbone, the workload the paper's introduction motivates —
//! rejections should be rare events, and *cheap* when forced.
//!
//! Compares the paper's randomized algorithm against the
//! first-come-first-served baseline on the same arrival sequence:
//! FCFS fills up with whatever comes first and then pays full price for
//! premium arrivals; the paper's algorithm preempts cheap sessions to
//! keep premium ones.
//!
//! ```text
//! cargo run --example isp_admission
//! ```

use acmr::core::{AlgorithmSpec, Session, DEFAULT_ALGORITHM};
use acmr::harness::{admission_opt, default_registry, BoundBudget};
use acmr::workloads::{random_path_workload, CostModel, PathWorkloadSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A 5-level backbone tree (31 PoPs), 8 sessions per link. Session
    // value is bimodal: best-effort (1) vs premium (25).
    let spec = PathWorkloadSpec {
        topology: Topology::Tree { levels: 5 },
        capacity: 8,
        overload: 1.8,
        costs: CostModel::Bimodal {
            lo: 1.0,
            hi: 25.0,
            p_hi: 0.2,
        },
        max_hops: 8,
    };
    let (graph, instance) = random_path_workload(&spec, &mut StdRng::seed_from_u64(2024));
    let premium = instance.requests.iter().filter(|r| r.cost > 1.0).count();
    println!(
        "backbone: {} links × capacity {}; {} sessions ({} premium)",
        graph.num_edges(),
        graph.max_capacity(),
        instance.requests.len(),
        premium,
    );

    let opt = admission_opt(&instance, BoundBudget::default());
    println!("offline OPT rejection cost ≥ {:.1}\n", opt.value);

    // Both contenders run through the same registry + Session pipeline;
    // only the spec string differs.
    let registry = default_registry();
    let specs = [
        (
            "AAG randomized (paper)",
            format!("{DEFAULT_ALGORITHM}?seed=1"),
        ),
        ("FCFS greedy (baseline)", "greedy".to_string()),
    ];
    for (label, alg_spec) in &specs {
        let parsed = AlgorithmSpec::parse(alg_spec).expect("valid spec");
        let mut session = Session::from_registry(&registry, &parsed, &instance.capacities, 0)
            .expect("registry build");
        session
            .push_batch_into(&instance.requests, &mut Vec::new())
            .expect("audited run");
        let run = session.report();
        let premium_lost = instance
            .requests
            .iter()
            .zip(session.accepted_mask())
            .filter(|(r, a)| r.cost > 1.0 && !a)
            .count();
        println!(
            "{label}:\n  rejected cost {:.1} (ratio {:.2}), {} rejections, {} preemptions, premium lost: {}\n",
            run.rejected_cost,
            opt.ratio(run.rejected_cost),
            run.rejected_count,
            run.preemptions,
            premium_lost,
        );
    }
}
