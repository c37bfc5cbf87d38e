//! Seeded trace generation. Every trace comes from the repository's
//! public generators and is written as an ACMR-TRACE v2 (binary) file;
//! the servers only ever see these bytes.

use acmr_core::AdmissionInstance;
use acmr_workloads::{
    random_path_workload, stochastic_workload, two_phase_squeeze, BinTraceWriter, CostModel,
    PathWorkloadSpec, StochasticSpec, Topology, TrafficModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// A trace written to disk.
#[derive(Clone, Debug)]
pub struct TraceFile {
    pub name: String,
    pub path: PathBuf,
    pub capacities: Vec<u32>,
    pub requests: usize,
}

/// Write `inst` as a binary v2 trace at `dir/name.bin`.
pub fn write_trace(dir: &Path, name: &str, inst: &AdmissionInstance) -> std::io::Result<TraceFile> {
    let path = dir.join(format!("{name}.bin"));
    let file = BufWriter::with_capacity(1 << 16, std::fs::File::create(&path)?);
    let mut w = BinTraceWriter::new(file, &inst.capacities, inst.requests.len() as u64)?;
    for r in &inst.requests {
        w.push(r)?;
    }
    w.finish()?.flush()?;
    Ok(TraceFile {
        name: name.to_string(),
        path,
        capacities: inst.capacities.clone(),
        requests: inst.requests.len(),
    })
}

/// Arrivals `start..start + n` of `inst`.
pub fn window(inst: &AdmissionInstance, start: usize, n: usize) -> AdmissionInstance {
    let mut out = AdmissionInstance::from_capacities(inst.capacities.clone());
    for r in inst.requests.iter().skip(start).take(n) {
        out.push(r.clone());
    }
    out
}

/// The seed of input variant `j` of a run seeded `seed` (variant 0 is
/// the run seed itself); spread out so neighbouring run seeds never
/// share a variant.
pub fn variant_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Line-shape parameters of the serving-floor trace (the E14/E16
/// shape): 512 edges, capacity 8, footprints of at most 4 hops, costs
/// uniform on {1, 2, 3, 4}.
pub const LINE_EDGES: u32 = 512;
pub const LINE_CAPACITY: u32 = 8;
pub const LINE_MAX_HOPS: u32 = 4;

/// `n` arrivals from the line generator (`random_path_workload`),
/// seeded by `seed`.
pub fn line_trace(seed: u64, n: usize) -> AdmissionInstance {
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m: LINE_EDGES },
        capacity: LINE_CAPACITY,
        // Footprints average just under LINE_MAX_HOPS hops; 5% headroom
        // guarantees at least `n` arrivals before truncation.
        overload: 1.05 * (n as f64) * f64::from(LINE_MAX_HOPS)
            / f64::from(LINE_EDGES * LINE_CAPACITY),
        costs: CostModel::Zipf {
            n_values: 4,
            s: 0.0,
        },
        max_hops: LINE_MAX_HOPS,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, inst) = random_path_workload(&spec, &mut rng);
    assert!(
        inst.requests.len() >= n,
        "line generator fell short of {n} arrivals"
    );
    window(&inst, 0, n)
}

/// Parameters of the MMPP serving trace: a 96-edge line with capacity
/// 8, the default three-phase MMPP, Zipf costs over {1..32},
/// heavy-tailed multi-request sessions and path widths.
pub const MMPP_EDGES: u32 = 96;
pub const MMPP_CAPACITY: u32 = 8;

/// The first `n` arrivals of an MMPP `stochastic_workload` trace (a
/// fixed arrival count, so every seed offers the same amount of work).
pub fn mmpp_trace(seed: u64, n: usize) -> AdmissionInstance {
    let spec = StochasticSpec {
        topology: Topology::Line { m: MMPP_EDGES },
        capacity: MMPP_CAPACITY,
        model: TrafficModel::mmpp_default(),
        arrival_rate: 4.0,
        // About 5.5 arrivals per slot: ample headroom before truncation.
        duration: (n as u32).div_ceil(3).max(32),
        costs: CostModel::Zipf {
            n_values: 32,
            s: 1.0,
        },
        max_hops: 8,
        session_alpha: 2.5,
        session_max: 8,
        width_alpha: 1.3,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, inst, _) = stochastic_workload(&spec, &mut rng);
    assert!(
        inst.requests.len() >= n,
        "MMPP generator fell short of {n} arrivals"
    );
    window(&inst, 0, n)
}

/// The tiny adversarial trace (12 arrivals, exact branch-and-bound):
/// the §4-shaped two-phase squeeze.
pub fn squeeze_trace() -> AdmissionInstance {
    two_phase_squeeze(12, 3, 4, 3)
}
