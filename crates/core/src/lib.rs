//! # skewjoin
//!
//! Skew-conscious CPU and GPU hash joins — a faithful reproduction of
//! *"CPU and GPU Hash Joins on Skewed Data"* (Cai & Chen, ICDE 2024).
//!
//! The paper's observation: when join keys are heavily skewed (zipf ≥ 0.5),
//! state-of-the-art hash joins collapse, because tuples sharing one hot key
//! can never be divided by key-based partitioning and the baseline data
//! structures (chained hash tables, write-bitmap output coordination)
//! behave pathologically on them. The fix: *detect* skewed keys and route
//! them through dedicated code paths — CSH on the CPU (sampling before the
//! partition phase, hybrid-hash-join style early output) and GSH on the GPU
//! (post-partition detection, one thread block per skewed build tuple).
//!
//! ## Quick start
//!
//! ```
//! use skewjoin::prelude::*;
//!
//! // Two 4k-tuple tables over the same zipf(0.9) key distribution.
//! let workload = PaperWorkload::generate(WorkloadSpec::paper(1 << 12, 0.9, 42));
//!
//! let stats = skewjoin::run_join(
//!     Algorithm::Cpu(CpuAlgorithm::Csh),
//!     &workload.r,
//!     &workload.s,
//!     &JoinConfig::default(),
//!     SinkSpec::Count,
//! )
//! .unwrap();
//! println!("{} results in {:?}", stats.result_count, stats.total_time());
//! ```
//!
//! All five algorithms (`Cbase`, `cbase-npj`, `CSH`, `Gbase`, `GSH`) report
//! a result count and an order-independent checksum, so they can be
//! cross-validated; the GPU algorithms run on a cycle-accounted SIMT
//! simulator (see `skewjoin-gpu-sim`) and report *simulated* time.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod planner;

pub use api::{
    run_join, run_join_collecting, run_join_with, run_shard_join, Algorithm, CollectedJoin,
    CountSinkFactory, CpuAlgorithm, GpuAlgorithm, JoinConfig, ShardPartition, SinkFactory,
    VolcanoSinkFactory,
};
pub use planner::{
    estimate_join_memory, estimate_spill_cost, fit_to_budget, validate_config, BudgetPlan,
    CostEstimate, JoinPlan, PlanCache, PlanCacheKey, PlannerOptions, SpillEstimate, TargetDevice,
};

// Re-export the component crates under stable names.
pub use skewjoin_common as common;
pub use skewjoin_cpu as cpu;
pub use skewjoin_datagen as datagen;
pub use skewjoin_gpu as gpu;
pub use skewjoin_gpu_sim as gpu_sim;

/// The usual imports for applications.
pub mod prelude {
    pub use crate::api::{
        run_join, run_join_with, Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig, SinkFactory,
    };
    pub use crate::planner::{JoinPlan, PlannerOptions, TargetDevice};
    pub use skewjoin_common::{
        JoinError, JoinStats, Key, OutputSink, Payload, Relation, Rung, SinkSpec, Tuple, TwinCause,
    };
    pub use skewjoin_cpu::{CpuJoinConfig, SkewDetectConfig};
    pub use skewjoin_datagen::{PaperWorkload, WorkloadSpec, ZipfWorkload};
    pub use skewjoin_gpu::{GpuBackendKind, GpuJoinConfig};
    pub use skewjoin_gpu_sim::DeviceSpec;
}
