//! # skewjoin-cpu
//!
//! Multi-threaded CPU hash joins:
//!
//! * [`cbase`] — **Cbase**, the baseline parallel radix join of Balkesen et
//!   al. (ICDE 2013), with its skew-handling techniques: large partitions are
//!   recursively broken up with extra radix passes, and join tasks are
//!   drawn from a dynamic task queue.
//! * [`npj`] — **cbase-npj**, the no-partition join from the same code
//!   repository: one shared chained hash table built and probed by all
//!   threads.
//! * [`csh`] — **CSH**, the paper's CPU Skew-conscious Hash join: skewed
//!   keys are detected by sampling *before* partitioning, R tuples of skewed
//!   keys are segregated into per-key arrays, skewed S tuples produce join
//!   output *during* the partition phase (hybrid-hash-join style), and the
//!   remaining normal partitions go through a conventional NM-join. It is
//!   Cbase's [`morsel`] pipeline plus a router hook.
//!
//! All three compute identical result sets (verified by integration tests
//! against a nested-loop reference) and report per-phase wall-clock times in
//! [`skewjoin_common::JoinStats`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithm;
pub mod cbase;
pub mod config;
pub mod csh;
pub mod hashtable;
pub mod morsel;
pub mod npj;
pub mod partition;
pub mod reference;
pub mod route;
pub mod simd;
pub mod skew;
pub mod spill;
pub mod task;
pub mod util;

pub use algorithm::CpuAlgorithm;
pub use cbase::cbase_join;
pub use config::{CpuJoinConfig, SkewDetectConfig, DEFAULT_MORSEL_TUPLES};
pub use csh::csh_join;
pub use npj::npj_join;
pub use reference::reference_join;
pub use route::{BuildRoute, ShardRouter};
pub use simd::{SimdLevel, SimdPolicy};
pub use spill::{SpillConfig, SpillError, MIN_SPILL_BUDGET};
pub use task::{SchedStats, SchedulerKind};

use skewjoin_common::{JoinStats, OutputSink};

/// Result of a parallel join: aggregate statistics plus the per-worker sinks
/// (so callers that used materializing sinks can inspect the output tuples).
#[derive(Debug)]
pub struct JoinOutcome<S> {
    /// Aggregate execution statistics.
    pub stats: JoinStats,
    /// One sink per worker thread, in thread order.
    pub sinks: Vec<S>,
}

pub(crate) fn aggregate_sinks<S: OutputSink>(stats: &mut JoinStats, sinks: &[S]) {
    stats.result_count = sinks.iter().map(|s| s.count()).sum();
    stats.checksum = sinks
        .iter()
        .fold(0u64, |acc, s| acc.wrapping_add(s.checksum()));
}
