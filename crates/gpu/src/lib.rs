//! # skewjoin-gpu
//!
//! GPU hash joins written against the pluggable [`backend::GpuBackend`]
//! API (the SIMT simulator by default, host execution as a differential
//! oracle):
//!
//! * [`gbase`] — **Gbase**, the baseline hardware-conscious GPU partitioned
//!   hash join (Sioulas et al., ICDE 2019, the paper's \[24\]): two-pass
//!   radix partitioning, per-partition-pair thread blocks building a
//!   chained hash table in shared memory, the write-bitmap output
//!   coordination protocol, and sub-list decomposition of oversized R
//!   partitions (each sub-list re-probing the *full* S partition — the
//!   inefficiency §III quantifies).
//! * [`gsh`] — **GSH**, the paper's GPU Skew-conscious Hash join (§IV-B):
//!   Gbase's join plus a skew phase — *post-partition* skew detection
//!   (1 % sample in a linear-probing table, top-k = 3 per large partition),
//!   splitting of large partitions into per-skewed-key arrays plus a normal
//!   residue, and a dedicated skew join that assigns one thread block per
//!   skewed R tuple for fully coalesced, synchronization-free output
//!   generation. Without a large partition GSH runs Gbase's kernels.
//!
//! Both joins partition with the one [`partition::gpu_partition`], which
//! picks between count-then-scatter (§IV-B) and Gbase's linked buckets by
//! input size; DESIGN.md records where that departs from each paper.
//!
//! Join results are **real** (verified against the CPU joins in integration
//! tests); execution time is **simulated** device time.
//!
//! ## Documented simplification
//!
//! The linked-bucket partitioning style allocates bucket lists dynamically.
//! We charge its cost model faithfully (per-warp atomic cursor updates,
//! degraded write coalescing, an extra allocation atomic per bucket
//! overflow) but store partitions contiguously, treating each
//! [`partition::BUCKET_CAPACITY`]-tuple chunk as one "bucket". This
//! preserves every behaviour the paper measures (S re-probing per
//! sub-list, multi-block skew handling, the write-bitmap sync storm)
//! without simulating pointer plumbing.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod config;
pub mod gbase;
pub mod gsh;
pub mod nmjoin;
pub mod pack;
pub mod partition;
pub mod skew;

pub use backend::{
    BlockOps, DeviceKernel, GpuBackend, GpuBackendKind, HostBackend, SharedRegion, SimBackend,
};
pub use config::GpuJoinConfig;
pub use gbase::gbase_join;
pub use gsh::gsh_join;

use skewjoin_common::trace::counter;
use skewjoin_common::{JoinStats, OutputSink};

/// Result of a simulated GPU join: aggregate statistics plus the per-SM-slot
/// output sinks.
#[derive(Debug)]
pub struct GpuJoinOutcome<S> {
    /// Aggregate execution statistics (phase times are *simulated*).
    pub stats: JoinStats,
    /// One sink per SM slot (the simulator reuses a block-output buffer per
    /// SM, matching the paper's per-thread-block output buffer model).
    pub sinks: Vec<S>,
    /// Human-readable launch timeline (kernel, blocks, simulated time,
    /// dominant cost component) from the simulator.
    pub timeline: String,
}

/// Records `phase` in `stats`: the simulated time since `cycles_before`,
/// and the launches logged since `launches_before` folded into the trace
/// (launch count, device/max-block cycles, and the simulator's divergence,
/// bank-conflict (shared-memory), atomic, and memory-transaction counters).
pub(crate) fn record_phase(
    backend: &dyn GpuBackend,
    stats: &mut JoinStats,
    phase: &str,
    cycles_before: u64,
    launches_before: usize,
) {
    let cycles = backend.total_cycles() - cycles_before;
    stats
        .phases
        .record(phase, backend.spec().cycles_to_duration(cycles));
    let trace = &mut stats.trace;
    for l in &backend.launch_log()[launches_before..] {
        trace.add(phase, counter::KERNEL_LAUNCHES, 1);
        trace.add(phase, counter::DEVICE_CYCLES, l.device_cycles);
        trace.max(phase, counter::MAX_BLOCK_CYCLES, l.max_block_cycles);
        trace.add(
            phase,
            counter::DIVERGENCE_CYCLES,
            l.metrics.divergence_waste_cycles,
        );
        trace.add(
            phase,
            counter::BANK_CONFLICT_CYCLES,
            l.metrics.shared_cycles,
        );
        trace.add(phase, counter::ATOMIC_CYCLES, l.metrics.atomic_cycles);
        trace.add(phase, counter::MEM_TRANSACTIONS, l.metrics.transactions);
    }
}

/// Most lanes of one warp that hit the same slot (at least 1): the
/// serialization degree of a warp-wide atomic on those slots. `counts`
/// holds one zero per slot, kept by the kernel; it is left all zero.
pub(crate) fn lane_collisions(counts: &mut [u16], slots: &[usize]) -> u64 {
    let mut max = 1;
    for &slot in slots {
        counts[slot] += 1;
        max = max.max(counts[slot]);
    }
    for &slot in slots {
        counts[slot] = 0;
    }
    u64::from(max)
}

pub(crate) fn aggregate_sinks<S: OutputSink>(stats: &mut JoinStats, sinks: &[S]) {
    stats.result_count = sinks.iter().map(|s| s.count()).sum();
    stats.checksum = sinks
        .iter()
        .fold(0u64, |acc, s| acc.wrapping_add(s.checksum()));
}
