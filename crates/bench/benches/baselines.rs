//! Bench: baseline admission algorithms vs the paper's (the speed side
//! of E7 — the quality side is the E7 table of `exp_all`).
//!
//! Every algorithm is addressed through the default registry and driven
//! through a `Session` one `push` per arrival, so this bench measures
//! the per-arrival decision path the serve machine uses — and adding an
//! algorithm to the registry automatically adds it here.

use acmr_core::{AlgorithmSpec, Session};
use acmr_harness::default_registry;
use acmr_workloads::{random_path_workload, CostModel, PathWorkloadSpec, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_baselines(criterion: &mut Criterion) {
    let registry = default_registry();
    let mut group = criterion.benchmark_group("baselines");
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m: 256 },
        capacity: 8,
        overload: 2.0,
        costs: CostModel::Uniform { lo: 1.0, hi: 16.0 },
        max_hops: 8,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(23));
    group.throughput(Throughput::Elements(inst.requests.len() as u64));
    for name in registry.names() {
        let alg_spec = AlgorithmSpec::parse(name).expect("registry name parses");
        group.bench_with_input(BenchmarkId::new(name, "m256"), &inst, |b, inst| {
            b.iter(|| {
                let mut session = Session::from_registry(&registry, &alg_spec, &inst.capacities, 1)
                    .expect("registry build");
                for r in &inst.requests {
                    session.push(r).expect("audited run");
                }
                session.stats().rejected_cost
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
