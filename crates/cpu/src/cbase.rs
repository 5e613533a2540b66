//! **Cbase** — the baseline parallel radix join (Balkesen et al., ICDE 2013,
//! the paper's \[16\]).
//!
//! Partition phase: radix passes over both inputs, the first
//! segment-parallel with contention-free scatter, the later ones per
//! pass-0 partition. Join phase: every `(R partition, S partition)` pair is
//! a task in a dynamic queue; each task builds a bucket-chaining hash table
//! over its R partition and probes with its S partition.
//!
//! Skew handling (§II-B): (1) a task whose partitions are much larger than
//! average is *split* by re-partitioning both sides with extra radix bits,
//! the sub-pairs re-entering the queue; (2) the task queue itself absorbs
//! load variance. Both stop helping once a single key dominates — tuples
//! with one key can never be split apart, which is exactly the pathology
//! §III measures and `CSH` fixes.
//!
//! [`cbase_join`] executes through the morsel pipeline in [`crate::morsel`]:
//! partition, build, and probe morsels flow through one scheduler run with
//! no global phase barrier. CSH runs the same pipeline with its hot-key
//! router hook; both dispatch their join tasks into `JoinPhase`, defined
//! here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use skewjoin_common::hash::mix32;
use skewjoin_common::trace::counter;
use skewjoin_common::{
    faults, CancelToken, JoinError, JoinStats, OutputSink, Relation, Trace, Tuple,
};

use crate::config::CpuJoinConfig;
use crate::hashtable::ChainedTable;
use crate::morsel::{run_pipeline, Flavor};
use crate::partition::partition_slice_by;
use crate::task::SchedStats;
use crate::util::SharedTupleSlice;
use crate::{aggregate_sinks, JoinOutcome};

/// A tuple buffer a join task can reference: a shared buffer produced by
/// task splitting, or a raw view into one of the morsel pipeline's output
/// buffers.
#[derive(Clone)]
pub(crate) enum TupleBuf {
    /// Shared buffer produced by recursive task splitting.
    Shared(Arc<[Tuple]>),
    /// Raw view into a morsel-pipeline buffer. Only constructed by
    /// [`crate::morsel`] for ranges whose producing tasks have all
    /// completed (the pipeline's completion countdowns and the scheduler's
    /// queue handoff give the required happens-before), so reading them
    /// here is sound.
    Raw(SharedTupleSlice),
}

impl TupleBuf {
    #[inline]
    pub(crate) fn get(&self, range: &std::ops::Range<usize>) -> &[Tuple] {
        match self {
            TupleBuf::Shared(s) => &s[range.clone()],
            // SAFETY: quiescence per the variant's construction contract.
            TupleBuf::Raw(s) => unsafe { s.slice(range.clone()) },
        }
    }
}

/// One join task: matching ranges of R and S tuples plus the radix depth at
/// which further splitting would continue.
pub(crate) struct JoinTask {
    pub(crate) r_buf: TupleBuf,
    pub(crate) r_range: std::ops::Range<usize>,
    pub(crate) s_buf: TupleBuf,
    pub(crate) s_range: std::ops::Range<usize>,
    /// Next unconsumed bit of the mixed key for splitting.
    pub(crate) shift: u32,
    pub(crate) depth: u32,
}

/// Shared parameters of the join phase; the morsel pipeline dispatches its
/// join tasks into [`JoinPhase::run_task`], for Cbase and CSH alike.
pub(crate) struct JoinPhase {
    r_split_threshold: usize,
    s_split_threshold: usize,
    /// Hard cap on a single task's build side. A task over this budget is
    /// recursively re-partitioned even when heuristic splitting is off
    /// (CSH's NM-join); if it *cannot* split (single dominant key) the run
    /// reports [`JoinError::PartitionOverflow`]. The `cpu.partition.overflow`
    /// failpoint marks a task over-budget to exercise both paths.
    overflow_budget: usize,
    /// First unrecoverable overflow, reported after the queue drains.
    overflow: Mutex<Option<String>>,
    extra_bits: u32,
    max_depth: u32,
    max_bucket_bits: u32,
    /// Observed between tasks and between probe chunks, so a deadline or an
    /// explicit cancel interrupts even a chain-heavy join phase promptly.
    cancel: CancelToken,
    counters: JoinPhaseCounters,
}

/// Cross-thread counters the join phase accumulates for the trace layer.
#[derive(Default)]
struct JoinPhaseCounters {
    tasks_run: AtomicU64,
    task_splits: AtomicU64,
    build_tuples: AtomicU64,
    probe_tuples: AtomicU64,
    max_chain_len: AtomicU64,
}

/// Final counter values of one pipeline run's join phase, recorded into the
/// caller's [`Trace`] under its own phase name ("join" for Cbase, "nm_join"
/// for CSH).
pub(crate) struct JoinPhaseReport {
    pub tasks_run: u64,
    pub task_splits: u64,
    pub build_tuples: u64,
    pub probe_tuples: u64,
    pub max_chain_len: u64,
    pub sched: SchedStats,
}

impl JoinPhaseReport {
    /// Records this report under `phase` in `trace`.
    pub fn record(&self, trace: &mut Trace, phase: &str) {
        let p = trace.phase(phase);
        p.add(counter::TASKS_RUN, self.tasks_run);
        p.add(counter::TASK_SPLITS, self.task_splits);
        p.add(counter::BUILD_TUPLES, self.build_tuples);
        p.add(counter::PROBE_TUPLES, self.probe_tuples);
        p.max(counter::MAX_CHAIN_LEN, self.max_chain_len);
        p.add(counter::TASKS_STOLEN, self.sched.tasks_stolen);
        p.add(counter::STEAL_FAILURES, self.sched.steal_failures);
    }
}

impl JoinPhase {
    /// Join-phase parameters for pairing `parts` partitions holding
    /// `r_total`/`s_total` tuples. `allow_split` enables Cbase's large-task
    /// splitting heuristic; CSH's NM-join runs with it off.
    pub(crate) fn new(
        cfg: &CpuJoinConfig,
        r_total: usize,
        s_total: usize,
        parts: usize,
        allow_split: bool,
    ) -> Self {
        let avg_r = (r_total / parts.max(1)).max(1);
        let avg_s = (s_total / parts.max(1)).max(1);
        Self {
            r_split_threshold: if allow_split {
                ((avg_r as f64 * cfg.split_factor) as usize).max(64)
            } else {
                usize::MAX
            },
            s_split_threshold: if allow_split {
                ((avg_s as f64 * cfg.split_factor) as usize).max(64)
            } else {
                usize::MAX
            },
            // Average chain length 64 with every bucket in use — far beyond
            // anything the paper's workloads build, but a real ceiling for a
            // degenerate build side; fault injection shrinks it effectively
            // to zero by marking tasks over-budget directly.
            overflow_budget: (1usize << cfg.max_bucket_bits)
                .saturating_mul(64)
                .min(crate::hashtable::MAX_BUILD_TUPLES),
            overflow: Mutex::new(None),
            extra_bits: cfg.extra_pass_bits,
            max_depth: 6,
            max_bucket_bits: cfg.max_bucket_bits,
            cancel: cfg.cancel.clone(),
            counters: JoinPhaseCounters::default(),
        }
    }

    /// First unrecoverable overflow recorded by a task, if any (checked
    /// after the scheduler drains).
    pub(crate) fn take_overflow(&self) -> Option<String> {
        self.overflow.lock().unwrap().take()
    }

    /// Snapshot of the phase's counters plus the run's scheduler activity.
    pub(crate) fn report(&self, sched: SchedStats) -> JoinPhaseReport {
        JoinPhaseReport {
            tasks_run: self.counters.tasks_run.load(Ordering::Relaxed),
            task_splits: self.counters.task_splits.load(Ordering::Relaxed),
            build_tuples: self.counters.build_tuples.load(Ordering::Relaxed),
            probe_tuples: self.counters.probe_tuples.load(Ordering::Relaxed),
            max_chain_len: self.counters.max_chain_len.load(Ordering::Relaxed),
            sched,
        }
    }

    /// Executes one task: split if oversized and splittable, else build and
    /// probe. Splits go through `spawn`, which the morsel pipeline wraps
    /// into its own task type on the worker's own deque, so sub-pairs stay
    /// cache-hot on the splitting thread unless stolen.
    pub(crate) fn run_task<S: OutputSink>(
        &self,
        task: JoinTask,
        spawn: &mut dyn FnMut(JoinTask),
        sink: &mut S,
    ) {
        let r = task.r_buf.get(&task.r_range);
        let s = task.s_buf.get(&task.s_range);
        if r.is_empty() || s.is_empty() || self.cancel.is_cancelled() {
            return;
        }
        self.counters.tasks_run.fetch_add(1, Ordering::Relaxed);

        let over_budget = r.len() > self.overflow_budget || faults::fire("cpu.partition.overflow");
        let oversized =
            over_budget || r.len() > self.r_split_threshold || s.len() > self.s_split_threshold;
        let can_split = task.depth < self.max_depth && task.shift + self.extra_bits <= 32;
        if oversized && can_split {
            if let Some(()) = self.try_split(&task, spawn, r, s) {
                self.counters.task_splits.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if over_budget {
            // Could not re-partition the task under budget (single dominant
            // key, or depth/bit budget exhausted): record the overflow and
            // skip the build. The queue keeps draining so the run shuts
            // down cleanly, and the caller turns this into an error.
            let mut slot = self.overflow.lock().unwrap();
            if slot.is_none() {
                *slot = Some(format!(
                    "join task with {} build tuples exceeds the {}-tuple budget and cannot be split further (depth {}, shift {})",
                    r.len(),
                    self.overflow_budget,
                    task.depth,
                    task.shift,
                ));
            }
            return;
        }

        let table = match ChainedTable::try_build(r, self.max_bucket_bits) {
            Ok(table) => table,
            Err(e) => {
                // Unreachable while overflow_budget ≤ MAX_BUILD_TUPLES, but
                // a typed record beats a worker panic if that ever changes.
                let mut slot = self.overflow.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(e.to_string());
                }
                return;
            }
        };
        self.counters
            .build_tuples
            .fetch_add(r.len() as u64, Ordering::Relaxed);
        self.counters
            .probe_tuples
            .fetch_add(s.len() as u64, Ordering::Relaxed);
        self.counters
            .max_chain_len
            .fetch_max(table.max_chain_len() as u64, Ordering::Relaxed);
        for chunk in s.chunks(1024) {
            table.probe_all(chunk, sink);
            if self.cancel.is_cancelled() {
                return;
            }
        }
    }

    /// Re-partitions both sides with `extra_bits` more radix bits and
    /// enqueues the matching sub-pairs. Returns `None` when splitting makes
    /// no progress (all tuples of both sides land in one sub-partition —
    /// i.e. the task is dominated by a single join key), in which case the
    /// caller joins the task directly.
    fn try_split(
        &self,
        task: &JoinTask,
        spawn: &mut dyn FnMut(JoinTask),
        r: &[Tuple],
        s: &[Tuple],
    ) -> Option<()> {
        let fanout = 1usize << self.extra_bits;
        let shift = task.shift;
        let part_of = |key: u32| ((mix32(key) >> shift) as usize) & (fanout - 1);

        let one_part = |side: &[Tuple]| {
            let first = part_of(side[0].key);
            side.iter().all(|t| part_of(t.key) == first)
        };
        if one_part(r) && one_part(s) {
            // A single key (or hash-identical key group) dominates: splitting
            // cannot reduce the work. Cbase's fundamental skew limitation.
            // Checked before partitioning, so the attempt copies nothing.
            return None;
        }

        let (r_out, r_starts) = partition_slice_by(r, fanout, part_of);
        let (s_out, s_starts) = partition_slice_by(s, fanout, part_of);
        let r_shared: Arc<[Tuple]> = r_out.into();
        let s_shared: Arc<[Tuple]> = s_out.into();
        for p in 0..fanout {
            let r_range = r_starts[p]..r_starts[p + 1];
            let s_range = s_starts[p]..s_starts[p + 1];
            if r_range.is_empty() || s_range.is_empty() {
                continue;
            }
            spawn(JoinTask {
                r_buf: TupleBuf::Shared(Arc::clone(&r_shared)),
                r_range,
                s_buf: TupleBuf::Shared(Arc::clone(&s_shared)),
                s_range,
                shift: shift + self.extra_bits,
                depth: task.depth + 1,
            });
        }
        Some(())
    }
}

/// Runs the Cbase parallel radix join. `make_sink(tid)` constructs each
/// worker thread's output sink.
///
/// Execution is morsel-driven (see [`crate::morsel`]): partition, build,
/// and probe work flows through one scheduler run in ~`cfg.morsel_tuples`
/// units with no global barrier between the phases.
pub fn cbase_join<S, F>(
    r: &Relation,
    s: &Relation,
    cfg: &CpuJoinConfig,
    make_sink: F,
) -> Result<JoinOutcome<S>, JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    cfg.validate()?;
    let mut stats = JoinStats::new("Cbase");
    let sinks = run_pipeline(r, s, cfg, Flavor::Cbase, &make_sink, &mut stats)?;
    aggregate_sinks(&mut stats, &sinks);
    stats
        .trace
        .set("join", counter::RESULTS, stats.result_count);
    Ok(JoinOutcome { stats, sinks })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use skewjoin_common::CountingSink;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

    fn assert_matches_reference(r: &Relation, s: &Relation, cfg: &CpuJoinConfig) {
        let outcome = cbase_join(r, s, cfg, |_| CountingSink::new()).unwrap();
        let mut reference = CountingSink::new();
        let ref_stats = reference_join(r, s, &mut reference);
        assert_eq!(outcome.stats.result_count, ref_stats.result_count);
        assert_eq!(outcome.stats.checksum, ref_stats.checksum);
    }

    #[test]
    fn matches_reference_on_uniform_data() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.0, 1));
        assert_matches_reference(&w.r, &w.s, &CpuJoinConfig::with_threads(4));
    }

    #[test]
    fn matches_reference_on_skewed_data() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 1.0, 2));
        assert_matches_reference(&w.r, &w.s, &CpuJoinConfig::with_threads(4));
    }

    #[test]
    fn single_key_tables() {
        let r = Relation::from_tuples(vec![Tuple::new(9, 1); 500]);
        let s = Relation::from_tuples(vec![Tuple::new(9, 2); 300]);
        let outcome = cbase_join(&r, &s, &CpuJoinConfig::with_threads(4), |_| {
            CountingSink::new()
        })
        .unwrap();
        assert_eq!(outcome.stats.result_count, 150_000);
        // One key cannot split: one task links all 500 R tuples into a
        // single chain.
        assert_eq!(
            outcome.stats.trace.get("join", counter::MAX_CHAIN_LEN),
            Some(500)
        );
    }

    #[test]
    fn empty_inputs() {
        let cfg = CpuJoinConfig::with_threads(2);
        let r = Relation::new();
        let s = Relation::from_keys(&[1, 2, 3]);
        let outcome = cbase_join(&r, &s, &cfg, |_| CountingSink::new()).unwrap();
        assert_eq!(outcome.stats.result_count, 0);
    }

    #[test]
    fn task_splitting_triggers_and_stays_correct() {
        // One partition gets ~half the data (hot key) plus scattered normals;
        // splitting must engage without changing results.
        let mut keys: Vec<u32> = vec![77; 4000];
        keys.extend((0..4000u32).map(|i| i * 13 + 1));
        let r = Relation::from_keys(&keys);
        let s = Relation::from_keys(&keys);
        let mut cfg = CpuJoinConfig::with_threads(4);
        cfg.radix = Some(skewjoin_common::hash::RadixConfig::two_pass(4));
        cfg.split_factor = 1.5;
        assert_matches_reference(&r, &s, &cfg);
    }

    #[test]
    fn records_both_phases() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.5, 3));
        let outcome = cbase_join(&w.r, &w.s, &CpuJoinConfig::with_threads(2), |_| {
            CountingSink::new()
        })
        .unwrap();
        assert!(outcome.stats.phases.get("partition") > std::time::Duration::ZERO);
        assert!(outcome.stats.phases.get("join") > std::time::Duration::ZERO);
        assert!(outcome.stats.partitions > 0);
    }

    #[test]
    fn cancel_interrupts_join_mid_phase() {
        // Single hot key: splitting cannot help, so one task probes all of
        // S against a 64-tuple build. The sink trips the token inside the
        // first 1024-tuple probe chunk; the post-drain check must turn the
        // partial output into a typed Cancelled error.
        #[derive(Debug)]
        struct CancellingSink {
            inner: CountingSink,
            cancel: skewjoin_common::CancelToken,
            after: u64,
        }
        impl OutputSink for CancellingSink {
            fn emit(
                &mut self,
                key: skewjoin_common::Key,
                r_payload: skewjoin_common::Payload,
                s_payload: skewjoin_common::Payload,
            ) {
                self.inner.emit(key, r_payload, s_payload);
                if self.inner.count() == self.after {
                    self.cancel.cancel();
                }
            }
            fn count(&self) -> u64 {
                self.inner.count()
            }
            fn checksum(&self) -> u64 {
                self.inner.checksum()
            }
        }

        let r = Relation::from_tuples(vec![Tuple::new(7, 0); 64]);
        let s = Relation::from_tuples((0..4096u32).map(|i| Tuple::new(7, i)).collect());
        let cancel = CancelToken::new();
        let mut cfg = CpuJoinConfig::with_threads(1);
        cfg.cancel = cancel.clone();
        let err = cbase_join(&r, &s, &cfg, |_| CancellingSink {
            inner: CountingSink::new(),
            cancel: cancel.clone(),
            after: 100,
        })
        .unwrap_err();
        assert!(
            matches!(&err, JoinError::Cancelled { phase } if phase == "join"),
            "expected mid-join Cancelled, got {err:?}"
        );
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = CpuJoinConfig::default();
        cfg.threads = 0;
        let r = Relation::from_keys(&[1]);
        assert!(cbase_join(&r, &r, &cfg, |_| CountingSink::new()).is_err());
    }
}
