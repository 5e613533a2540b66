//! The one CPU join dispatch: [`CpuAlgorithm::run`] picks the requested
//! join's entry point (or the grace-hash spill over it), and
//! [`CpuAlgorithm::footprint`] is the memory model the planner reserves and
//! the spill sizes its partition pairs by.

use skewjoin_common::hash::bucket_bits_for;
use skewjoin_common::{JoinError, OutputSink, Relation, Tuple};

use crate::config::CpuJoinConfig;
use crate::{cbase_join, csh_join, morsel, npj, npj_join, spill, JoinOutcome};

const TUPLE_BYTES: u64 = std::mem::size_of::<Tuple>() as u64;

/// Bytes a join allocates whatever its input and thread count: sink
/// slots, trace counters, CSH's hot-key filter.
const FIXED_BYTES: u64 = 4 << 10;

/// Bytes a worker thread allocates besides its deque.
const THREAD_BYTES: u64 = 1 << 10;

/// Slots a worker's scheduler deque starts with; it doubles from there and
/// keeps the buffers it outgrew until the run ends.
const DEQUE_SLOTS: u64 = 64;

/// The CPU join algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuAlgorithm {
    /// Baseline parallel radix join (Balkesen et al.).
    Cbase,
    /// No-partition join from the same repository.
    CbaseNpj,
    /// The paper's CPU Skew-conscious Hash join.
    Csh,
}

impl CpuAlgorithm {
    /// All CPU algorithms, in the paper's presentation order.
    pub const ALL: [CpuAlgorithm; 3] = [
        CpuAlgorithm::Cbase,
        CpuAlgorithm::CbaseNpj,
        CpuAlgorithm::Csh,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            CpuAlgorithm::Cbase => "Cbase",
            CpuAlgorithm::CbaseNpj => "cbase-npj",
            CpuAlgorithm::Csh => "CSH",
        }
    }

    /// Runs the join. With `cfg.spill` set it runs out of core: the
    /// grace-hash spill partitions both relations to disk and joins every
    /// reloaded pair through this same algorithm (see [`crate::spill`]).
    /// `make_sink(worker)` constructs each worker's output sink.
    pub fn run<S, F>(
        self,
        r: &Relation,
        s: &Relation,
        cfg: &CpuJoinConfig,
        make_sink: F,
    ) -> Result<JoinOutcome<S>, JoinError>
    where
        S: OutputSink,
        F: Fn(usize) -> S + Sync,
    {
        if cfg.spill.is_some() {
            return spill::grace_join(self, r, s, cfg, make_sink);
        }
        match self {
            CpuAlgorithm::Cbase => cbase_join(r, s, cfg, make_sink),
            CpuAlgorithm::CbaseNpj => npj_join(r, s, cfg, make_sink),
            CpuAlgorithm::Csh => csh_join(r, s, cfg, make_sink),
        }
    }

    /// Peak bytes an in-memory join of `r_tuples ⋈ s_tuples` holds under
    /// `cfg`, its input included, as an upper bound (8-byte tuples,
    /// caller-owned sinks excluded):
    ///
    /// * **every join** — the input, a fixed allowance (sink slots, trace,
    ///   CSH's hot-key filter), per worker its thread and a scheduler deque
    ///   of `DEQUE_SLOTS` tasks, and the buffers the deques outgrow;
    /// * **cbase-npj** — one global chained table over R: an 8-byte bucket
    ///   word (head and chain length) per power-of-two bucket and a 4-byte
    ///   link per R tuple;
    /// * **Cbase / CSH** — under the radix the join runs with (pinned, or
    ///   derived from `r_tuples`): the pipeline's partitioned copy of both
    ///   inputs (two under a multi-pass radix: scratch and refined), the two
    ///   `total_fanout` start arrays, the pass-0 histograms and cursors of
    ///   every input segment, a build table per final partition (an 8-byte
    ///   bucket word per power-of-two bucket and a 4-byte link per tuple: at
    ///   most 20 B per R tuple), and deques that hold a pass-0 fan-out of
    ///   refine tasks per side and a partition's join tasks. Cbase adds one
    ///   more copy of the input: a join task its skew handling splits is
    ///   re-partitioned into a fresh buffer.
    pub fn footprint(self, r_tuples: usize, s_tuples: usize, cfg: &CpuJoinConfig) -> u64 {
        let (r, s) = (r_tuples as u64, s_tuples as u64);
        let input = (r + s) * TUPLE_BYTES;
        // Every worker's thread and first deque buffer, and the buffers the
        // deques grow while they hold `queued` tasks between them: a deque
        // doubles and keeps the buffers it outgrew, under 4 slots a task.
        let workers = |queued: u64, task_bytes: usize| {
            let threads = cfg.threads.max(1) as u64;
            let grown = if queued > DEQUE_SLOTS { 4 * queued } else { 0 };
            threads * (DEQUE_SLOTS * task_bytes as u64 + THREAD_BYTES) + grown * task_bytes as u64
        };
        let extra = match self {
            CpuAlgorithm::CbaseNpj => {
                let buckets = 1u64 << bucket_bits_for(r_tuples).min(cfg.max_bucket_bits);
                8 * buckets + 4 * r + workers(0, npj::TASK_BYTES)
            }
            CpuAlgorithm::Cbase | CpuAlgorithm::Csh => {
                let radix = cfg.radix_for(r_tuples);
                let (fanout0, total_fanout) = (radix.fanout(0) as u64, radix.total_fanout() as u64);
                let copies = radix.bits_per_pass.len().min(2) as u64 * input;
                let starts = 2 * total_fanout * 8;
                let segments = (r + s).div_ceil(cfg.morsel_tuples.max(1) as u64) + 2;
                let hists = 2 * segments * fanout0 * 8;
                let tables = 20 * r;
                // Scatter tasks, refine tasks of both sides, one parent's
                // join tasks, and the sub-tasks of one split.
                let queued = segments + 2 * fanout0 + total_fanout / fanout0 + 16;
                let splits = u64::from(self == CpuAlgorithm::Cbase) * input;
                copies + starts + hists + tables + workers(queued, morsel::TASK_BYTES) + splits
            }
        };
        input + extra + FIXED_BYTES
    }
}

impl std::fmt::Display for CpuAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
