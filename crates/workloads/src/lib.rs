//! # acmr-workloads
//!
//! Workload generators, adversarial constructions and a plain-text
//! trace format for the admission-control / set-cover experiments.
//!
//! The paper is a theory paper with no benchmark suite; these
//! generators realize the scenarios its introduction motivates
//! (communication requests on virtual paths in capacitated networks,
//! where *rejections are meant to be rare events*) plus adversarial
//! stress instances exercising the preemption machinery the proofs
//! rely on.
//!
//! Everything takes explicit seeds; generation is bit-reproducible.
//!
//! Traces come in two dialects behind one reader seam
//! ([`acmr_core::RequestSource`]): the plain-text `ACMR-TRACE v1`
//! ([`trace`]) and the binary, mmap-able `ACMR-TRACE v2` ([`binfmt`]).
//! [`open_trace`] sniffs a file's leading magic and returns whichever
//! reader it calls for.

// Not `forbid`: binfmt's mmap-backed map has exactly one scoped
// `#[allow(unsafe_code)]` at its `memmap2::Mmap::map` call.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod adversarial;
pub mod binfmt;
pub mod cost;
pub mod lower_bound;
#[cfg(test)]
mod oracle;
pub mod setcover;
pub mod stochastic;
pub mod trace;

pub use admission::{random_path_workload, PathWorkloadSpec, Topology};
pub use adversarial::{buyback_hostile, nested_intervals, repeated_hot_edge, two_phase_squeeze};
pub use binfmt::{
    decode_record, encode_record_into, open_trace, read_bin_trace, sniff_bytes, sniff_path,
    write_bin_trace, AnyTraceReader, BinMapReader, BinTraceMap, BinTraceWriter, TraceFormat,
};
pub use cost::CostModel;
pub use lower_bound::{adaptive_least_covered_schedule, dyadic_admission_instance, dyadic_system};
pub use setcover::{
    random_arrivals, random_set_system, structured_partition_system, ArrivalPattern, SetSystemSpec,
};
pub use stochastic::{stochastic_workload, Phase, StochasticSpec, StochasticSummary, TrafficModel};
