//! Cross-crate integration tests: full pipelines from workload
//! generation through algorithms to audited competitive ratios.

use acmr::baselines::{Buyback, GreedyNonPreemptive};
use acmr::core::setcover::{BicriteriaCover, ReductionCover};
use acmr::core::{RandConfig, RandomizedAdmission};
use acmr::harness::{
    admission_opt, run_admission, run_set_cover, setcover_opt, BoundBudget, OptBoundKind,
};
use acmr::workloads::adversarial::{nested_intervals, repeated_hot_edge, two_phase_squeeze};
use acmr::workloads::{
    random_arrivals, random_path_workload, random_set_system, structured_partition_system,
    ArrivalPattern, CostModel, PathWorkloadSpec, SetSystemSpec, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn randomized_admission_on_all_topologies() {
    for (i, topo) in [
        Topology::Line { m: 24 },
        Topology::Tree { levels: 4 },
        Topology::Grid { rows: 4, cols: 4 },
        Topology::Gnp { n: 20, p: 0.15 },
    ]
    .into_iter()
    .enumerate()
    {
        let spec = PathWorkloadSpec {
            topology: topo,
            capacity: 3,
            overload: 2.0,
            costs: CostModel::Uniform { lo: 1.0, hi: 6.0 },
            max_hops: 6,
        };
        let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(i as u64));
        let mut alg = RandomizedAdmission::new(
            &inst.capacities,
            RandConfig::weighted(),
            StdRng::seed_from_u64(100 + i as u64),
        );
        // run_admission audits feasibility + contract; panics on bugs.
        let run = run_admission(&mut alg, &inst);
        let opt = admission_opt(&inst, BoundBudget::default());
        let ratio = opt.ratio(run.rejected_cost);
        assert!(ratio.is_finite(), "topology {i}: infinite ratio");
        let m = inst.num_edges() as f64;
        let c = inst.max_capacity() as f64;
        assert!(
            ratio <= 30.0 * (m * c).ln().powi(2).max(1.0),
            "topology {i}: ratio {ratio} out of envelope"
        );
    }
}

#[test]
fn hot_edge_exact_opt_cross_check() {
    // OPT on the hot-edge family is known in closed form; the covering
    // solver must agree with it exactly, and the online algorithm must
    // land within the unweighted theorem envelope.
    for &(cap, total) in &[(2u32, 8u32), (4, 16), (8, 24)] {
        let inst = repeated_hot_edge(4, cap, total);
        let opt = admission_opt(&inst, BoundBudget::default());
        assert_eq!(opt.kind, OptBoundKind::Exact);
        assert!((opt.value - (total - cap) as f64).abs() < 1e-9);
        let mut alg = RandomizedAdmission::new(
            &inst.capacities,
            RandConfig::unweighted(),
            StdRng::seed_from_u64(5),
        );
        let run = run_admission(&mut alg, &inst);
        assert!(run.rejected_cost >= opt.value - 1e-9);
    }
}

#[test]
fn preemption_actually_happens_on_squeeze() {
    // The two-phase squeeze admits everything in phase 1 and then must
    // preempt in phase 2 — exercising the machinery §4 relies on.
    let inst = two_phase_squeeze(12, 4, 3, 4);
    let mut alg = RandomizedAdmission::new(
        &inst.capacities,
        RandConfig::weighted(),
        StdRng::seed_from_u64(9),
    );
    let run = run_admission(&mut alg, &inst);
    assert!(run.preemptions > 0, "squeeze must force preemptions");
    // The expensive phase-2 requests should survive.
    let phase2_accepted = run.accepted.iter().rev().take(4).filter(|&&a| a).count();
    assert!(
        phase2_accepted >= 3,
        "only {phase2_accepted}/4 phase-2 hits survived"
    );
}

#[test]
fn nested_adversarial_ranking() {
    // On nested intervals the paper's algorithm and preempt-cheapest
    // must beat plain FCFS (which keeps the wide hogs).
    let inst = nested_intervals(32, 2, 2, 3);
    let opt = admission_opt(&inst, BoundBudget::default());
    let paper = {
        let mut alg = RandomizedAdmission::new(
            &inst.capacities,
            RandConfig::weighted(),
            StdRng::seed_from_u64(3),
        );
        run_admission(&mut alg, &inst).rejected_cost
    };
    let fcfs = {
        let mut alg = GreedyNonPreemptive::new(&inst.capacities);
        run_admission(&mut alg, &inst).rejected_cost
    };
    let preempt = {
        let mut alg = Buyback::preempt_cheapest(&inst.capacities);
        run_admission(&mut alg, &inst).rejected_cost
    };
    assert!(opt.value > 0.0);
    assert!(
        paper <= fcfs,
        "paper ({paper}) must not lose to FCFS ({fcfs}) on its home turf"
    );
    assert!(preempt.is_finite());
}

#[test]
fn reduction_and_bicriteria_agree_on_partition_gap() {
    // Structured gap system: global set makes OPT = 1 per round.
    let system = structured_partition_system(24, 4, 2);
    let arrivals = random_arrivals(
        &system,
        ArrivalPattern::RoundRobin,
        1,
        &mut StdRng::seed_from_u64(4),
    );
    let opt = setcover_opt(&system, &arrivals, BoundBudget::default());
    assert!((opt.value - 1.0).abs() < 1e-9, "gap instance OPT must be 1");

    let mut red = ReductionCover::randomized(
        system.clone(),
        RandConfig::unweighted(),
        StdRng::seed_from_u64(8),
    );
    let red_run = run_set_cover(&mut red, &system, &arrivals);
    assert_eq!(red.repairs(), 0);
    // O(log m log n) with small constants: far below buying all 9 sets.
    assert!(red_run.cost <= system.num_sets() as f64);

    let mut bi = BicriteriaCover::new(system.clone(), 0.25);
    let bi_run = run_set_cover(&mut bi, &system, &arrivals);
    assert!(bi_run.worst_coverage_ratio >= 0.75 - 1e-9);
    assert_eq!(bi.fallback_picks(), 0);
}

#[test]
fn repetition_semantics_distinct_sets_end_to_end() {
    // An element arriving k times must end with ≥ k distinct covering
    // sets under the reduction, and ≥ (1−ε)k under bicriteria — checked
    // against an independently computed coverage count.
    let spec = SetSystemSpec {
        num_elements: 12,
        num_sets: 20,
        density: 0.35,
        min_degree: 4,
        max_cost: 1,
    };
    let system = random_set_system(&spec, &mut StdRng::seed_from_u64(21));
    let arrivals = random_arrivals(
        &system,
        ArrivalPattern::Bursty,
        3,
        &mut StdRng::seed_from_u64(22),
    );
    let mut red = ReductionCover::randomized(
        system.clone(),
        RandConfig::unweighted(),
        StdRng::seed_from_u64(23),
    );
    let _ = run_set_cover(&mut red, &system, &arrivals);
    let mut demand = vec![0u32; system.num_elements()];
    for &j in &arrivals {
        demand[j as usize] += 1;
    }
    for j in 0..system.num_elements() as u32 {
        let covering = red.coverage(j);
        assert!(
            covering as u32 >= demand[j as usize],
            "element {j}: {covering} distinct sets < demand {}",
            demand[j as usize]
        );
    }
}

#[test]
fn trace_roundtrip_preserves_run_results() {
    // Serialize an instance, read it back, and verify a deterministic
    // algorithm produces the identical decision stream.
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m: 16 },
        capacity: 2,
        overload: 2.0,
        costs: CostModel::Uniform { lo: 1.0, hi: 4.0 },
        max_hops: 5,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(31));
    let text = acmr::workloads::trace::write_trace(&inst);
    let back = acmr::workloads::trace::read_trace(&text).unwrap();
    let run1 = {
        let mut alg = RandomizedAdmission::new(
            &inst.capacities,
            RandConfig::weighted(),
            StdRng::seed_from_u64(77),
        );
        run_admission(&mut alg, &inst)
    };
    let run2 = {
        let mut alg = RandomizedAdmission::new(
            &back.capacities,
            RandConfig::weighted(),
            StdRng::seed_from_u64(77),
        );
        run_admission(&mut alg, &back)
    };
    assert_eq!(run1.accepted, run2.accepted);
    assert_eq!(run1.rejected_cost, run2.rejected_cost);
}

#[test]
fn zero_rejection_regime_stays_zero() {
    // The paper's motivating property: when OPT rejects nothing, the
    // online algorithm must reject nothing either (not merely few).
    for seed in 0..5u64 {
        let spec = PathWorkloadSpec {
            topology: Topology::Line { m: 32 },
            capacity: 8,
            overload: 0.4, // deeply under-loaded
            costs: CostModel::Uniform { lo: 1.0, hi: 9.0 },
            max_hops: 4,
        };
        let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(seed));
        if inst.max_excess() > 0 {
            continue; // rare local overload: skip, not the regime under test
        }
        let mut alg = RandomizedAdmission::new(
            &inst.capacities,
            RandConfig::weighted(),
            StdRng::seed_from_u64(seed + 50),
        );
        let run = run_admission(&mut alg, &inst);
        assert_eq!(
            run.rejected_cost, 0.0,
            "seed {seed}: rejected despite zero OPT"
        );
    }
}

#[test]
fn streaming_session_agrees_with_batch_runner() {
    // The batch runner is now a wrapper over the streaming Session; an
    // incremental push loop over the same trace must agree event by
    // event with the batch result, and the final RunReport must
    // round-trip through JSON unchanged.
    use acmr::core::{AlgorithmSpec, Session};
    use acmr::harness::{default_registry, run_report, SourceRef};

    let spec = PathWorkloadSpec {
        topology: Topology::Grid { rows: 4, cols: 4 },
        capacity: 3,
        overload: 2.0,
        costs: CostModel::Uniform { lo: 1.0, hi: 8.0 },
        max_hops: 6,
    };
    let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(91));
    let registry = default_registry();
    let alg = AlgorithmSpec::parse("aag-weighted?seed=13").unwrap();

    // Streaming: one push per arrival, cumulative cost must be monotone.
    let mut session = Session::from_registry(&registry, &alg, &inst.capacities, 0).unwrap();
    let mut last_total = 0.0;
    for req in &inst.requests {
        let event = session.push(req).unwrap();
        assert!(event.total_rejected_cost >= last_total - 1e-9);
        last_total = event.total_rejected_cost;
    }
    let streamed = session.report();

    // Batch: same spec, same seed, one call, one batch.
    let whole = inst.requests.len();
    let batch_report = run_report(
        &registry,
        &alg.canonical(),
        SourceRef::Mem(&inst),
        0,
        whole,
        None,
    )
    .unwrap();
    assert_eq!(streamed, batch_report);
    assert_eq!(streamed.seed, Some(13));

    // And the legacy panic-on-violation runner agrees on the numbers.
    let mut direct = RandomizedAdmission::new(
        &inst.capacities,
        RandConfig::weighted(),
        StdRng::seed_from_u64(13),
    );
    let run = run_admission(&mut direct, &inst);
    assert_eq!(run.rejected_cost, streamed.rejected_cost);
    assert_eq!(run.preemptions, streamed.preemptions);

    // JSON round-trip of the shared report schema.
    let json = serde_json::to_string(&streamed).unwrap();
    let back: acmr::core::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, streamed);
}

/// The stochastic simulator end to end: `acmr gen --topology
/// stochastic` emits a trace every registered algorithm replays, and
/// the CLI's flag validation refuses misplaced or unknown `--model` /
/// `--family` values with typed errors pointing at `acmr help`.
#[test]
fn stochastic_gen_pipeline_and_flag_validation() {
    use acmr::cli::{cmd_gen, cmd_run};

    let args: Vec<String> = [
        "--topology",
        "stochastic",
        "--model",
        "flash",
        "--m",
        "32",
        "--cap",
        "3",
        "--duration",
        "64",
        "--weighted",
        "--seed",
        "3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let trace = cmd_gen(&args).unwrap();
    assert_eq!(trace, cmd_gen(&args).unwrap(), "gen must be deterministic");

    let registry = acmr::harness::default_registry();
    for name in registry.names() {
        let run_args = vec!["--alg".to_string(), format!("{name}?seed=2")];
        let out = cmd_run(&run_args, trace.as_bytes())
            .unwrap_or_else(|e| panic!("{name} on stochastic trace: {e}"));
        assert!(out.contains(name), "{name}: report lacks algorithm name");
    }

    // Misplaced and unknown flags: typed errors, help pointer included.
    let gen_err = |rest: &[&str]| {
        cmd_gen(&rest.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .unwrap_err()
            .to_string()
    };
    let e = gen_err(&["--topology", "line", "--model", "iid"]);
    assert!(
        e.contains("--model only applies") && e.contains("acmr help"),
        "{e}"
    );
    let e = gen_err(&["--topology", "stochastic", "--model", "bursty"]);
    assert!(
        e.contains("unknown stochastic model") && e.contains("acmr help"),
        "{e}"
    );
    let e = gen_err(&["--topology", "stochastic", "--family", "nested"]);
    assert!(
        e.contains("--family only applies") && e.contains("acmr help"),
        "{e}"
    );
}

/// The buyback axis end to end: `acmr gen --topology buyback-hostile`
/// emits an escalation trace, every registered algorithm replays it,
/// and the `buyback` policy nets less than the non-preempting greedy
/// baseline on its home topology. Also pins the uniform f64 flag
/// validation: NaN, infinity, and out-of-range values for
/// `--overload`, `--amplitude`, `--boost`, and `--growth` are typed
/// errors naming the flag and pointing at `acmr help` — never a panic
/// or a silently accepted NaN.
#[test]
fn buyback_gen_pipeline_and_float_flag_validation() {
    use acmr::cli::{cmd_gen, cmd_run};

    let args: Vec<String> = [
        "--topology",
        "buyback-hostile",
        "--m",
        "6",
        "--cap",
        "2",
        "--waves",
        "4",
        "--growth",
        "8",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let trace = cmd_gen(&args).unwrap();
    assert_eq!(trace, cmd_gen(&args).unwrap(), "gen must be deterministic");

    let registry = acmr::harness::default_registry();
    let mut rejected = std::collections::HashMap::new();
    for name in registry.names() {
        let run_args = vec!["--alg".to_string(), format!("{name}?seed=2")];
        let out = cmd_run(&run_args, trace.as_bytes())
            .unwrap_or_else(|e| panic!("{name} on buyback-hostile trace: {e}"));
        assert!(out.contains(name), "{name}: report lacks algorithm name");
        let cost: f64 = out
            .lines()
            .find_map(|l| l.strip_prefix("rejected cost  : "))
            .unwrap_or_else(|| panic!("{name}: no rejected cost line"))
            .trim()
            .parse()
            .unwrap();
        rejected.insert(name, cost);
    }
    assert!(
        rejected["buyback"] < rejected["greedy"],
        "buyback ({}) must beat greedy ({}) on its home topology",
        rejected["buyback"],
        rejected["greedy"]
    );

    // Uniform f64 flag validation: typed error, flag named, help
    // pointer included — for every malformed shape including NaN.
    let gen_err = |rest: &[&str]| {
        cmd_gen(&rest.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .unwrap_err()
            .to_string()
    };
    let stochastic: &[&str] = &["--topology", "stochastic"];
    let diurnal: &[&str] = &["--topology", "stochastic", "--model", "diurnal"];
    let flash: &[&str] = &["--topology", "stochastic", "--model", "flash"];
    let hostile: &[&str] = &["--topology", "buyback-hostile"];
    for (base, flag, bad) in [
        (stochastic, "--overload", "nan"),
        (stochastic, "--overload", "inf"),
        (stochastic, "--overload", "0"),
        (stochastic, "--overload", "-2"),
        (diurnal, "--amplitude", "nan"),
        (diurnal, "--amplitude", "1.5"),
        (flash, "--boost", "nan"),
        (flash, "--boost", "1"),
        (hostile, "--growth", "nan"),
        (hostile, "--growth", "1"),
    ] {
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend([flag, bad]);
        let e = gen_err(&argv);
        assert!(
            e.contains(flag) && e.contains("acmr help"),
            "{flag}={bad}: {e}"
        );
    }

    // Scenario flags outside their topology are refused, not ignored.
    let e = gen_err(&["--topology", "line", "--growth", "4"]);
    assert!(
        e.contains("--growth only applies") && e.contains("acmr help"),
        "{e}"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `acmr gen` writes the same bytes it always has: the line, grid and
/// tree topologies and every stochastic model (`--m 48 --cap 3
/// --max-hops 6 --seed 11`, 64 slots), unit and `--weighted` costs,
/// text and binary output. Each entry is the output's length and
/// FNV-1a hash; the values were generated with the per-draw Zipf
/// sampler and the per-call BFS and walk that the precomputed table
/// and the routing scratch replaced.
#[test]
fn gen_output_bytes_are_pinned() {
    use acmr::cli::cmd_gen;

    const PINS: &[(&str, usize, u64)] = &[
        ("line text", 1020, 0x8955dd78e604b371),
        ("line binary", 1904, 0x355a8c40e81e82f1),
        ("line --weighted text", 1061, 0x56b4fc6f7be81537),
        ("line --weighted binary", 1908, 0x6ed36814b35a383f),
        ("grid text", 4105, 0xe73fad9123fe2eb7),
        ("grid binary", 6444, 0xfe0a1615202a1dbc),
        ("grid --weighted text", 4131, 0xea90ef8a8c31b6cc),
        ("grid --weighted binary", 6444, 0xa68ac37dd3f248c2),
        ("tree text", 3036, 0x585c2845074545dc),
        ("tree binary", 5906, 0xf7687f2c2c8efd2a),
        ("tree --weighted text", 3250, 0x51d167317a6722bd),
        ("tree --weighted binary", 6076, 0x17b19fec15ab0fea),
        ("iid text", 3024, 0x4acb5d026472188f),
        ("iid binary", 6724, 0x3743ef28f1fdc2c5),
        ("iid --weighted text", 3446, 0xa5fec7f9c461574e),
        ("iid --weighted binary", 7594, 0xd61eecd758788376),
        ("mmpp text", 3162, 0x284273b953105a0a),
        ("mmpp binary", 7236, 0xbbbb815eb92bd331),
        ("mmpp --weighted text", 3288, 0xceef407551bf7d78),
        ("mmpp --weighted binary", 7242, 0xe0c485b5b913d302),
        ("diurnal text", 2899, 0x77cd98071beb9e2d),
        ("diurnal binary", 6392, 0xf2d8d09c737c96c0),
        ("diurnal --weighted text", 3210, 0x9430a35faf04d488),
        ("diurnal --weighted binary", 7054, 0xff631372e511658d),
        ("flash text", 3039, 0x7444a9e06754fa21),
        ("flash binary", 6912, 0x8c6056649e9d9d77),
        ("flash --weighted text", 3205, 0xb0a252a1806e43a9),
        ("flash --weighted binary", 7028, 0x7b22f5fe6f8ad444),
    ];
    let bin = std::env::temp_dir().join(format!("acmr-gen-pins-{}.bin", std::process::id()));
    let topologies: [&[&str]; 7] = [
        &["--topology", "line"],
        &["--topology", "grid"],
        &["--topology", "tree"],
        &["--topology", "stochastic", "--model", "iid"],
        &["--topology", "stochastic", "--model", "mmpp"],
        &["--topology", "stochastic", "--model", "diurnal"],
        &["--topology", "stochastic", "--model", "flash"],
    ];
    let mut got = Vec::new();
    for topology in topologies {
        for weighted in [false, true] {
            for format in ["text", "binary"] {
                let mut argv: Vec<&str> = topology.to_vec();
                argv.extend(["--m", "48", "--cap", "3", "--max-hops", "6", "--seed", "11"]);
                if topology[1] == "stochastic" {
                    argv.extend(["--duration", "64"]);
                }
                if weighted {
                    argv.push("--weighted");
                }
                let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
                let bytes = if format == "text" {
                    cmd_gen(&args).unwrap().into_bytes()
                } else {
                    let mut args = args.clone();
                    args.extend(["--format".into(), "binary".into(), "--out".into()]);
                    args.push(bin.display().to_string());
                    assert_eq!(cmd_gen(&args).unwrap(), "");
                    std::fs::read(&bin).unwrap()
                };
                let weighted = if weighted { " --weighted" } else { "" };
                let label = format!("{}{weighted} {format}", topology[topology.len() - 1]);
                got.push((label, bytes.len(), fnv1a(&bytes)));
            }
        }
    }
    let _ = std::fs::remove_file(&bin);
    let table: String = got
        .iter()
        .map(|(label, len, hash)| format!("    ({label:?}, {len}, {hash:#018x}),\n"))
        .collect();
    let want: Vec<(String, usize, u64)> = PINS
        .iter()
        .map(|&(label, len, hash)| (label.to_string(), len, hash))
        .collect();
    assert_eq!(
        got, want,
        "acmr gen output changed; this run wrote:\n{table}"
    );
}
