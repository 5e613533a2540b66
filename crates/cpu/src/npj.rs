//! **cbase-npj** — the no-partition hash join from the Cbase code
//! repository (Blanas et al.'s design as implemented by Balkesen et al.).
//!
//! One global bucket-chaining hash table over all of R, built concurrently
//! by all threads with CAS insertions, then probed segment-parallel with S.
//! No partitioning means no cache-sized working sets, which is why the
//! paper's Figure 4a shows it as the worst CPU performer — and it inherits
//! the same long-chain pathology under skew.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use skewjoin_common::trace::counter;
use skewjoin_common::{JoinError, JoinStats, OutputSink, Relation};

use crate::config::CpuJoinConfig;
use crate::hashtable::ConcurrentChainedTable;
use crate::task::{run_to_completion, TaskQueue};
use crate::util::segment;
use crate::{aggregate_sinks, JoinOutcome};

/// One schedulable unit of no-partition-join work.
enum NpjTask {
    /// CAS-insert one segment of R into the shared table.
    Build(Range<usize>),
    /// Probe the table with one segment of S.
    Probe(Range<usize>),
}

/// Bytes one queued task occupies; the footprint model counts the queue.
pub(crate) const TASK_BYTES: usize = std::mem::size_of::<NpjTask>();

/// Runs the no-partition join. `make_sink(tid)` constructs each worker
/// thread's output sink.
///
/// Execution is morsel-driven: build and probe morsels of
/// ~`cfg.morsel_tuples` tuples flow through a single scheduler run. The
/// last build morsel to finish timestamps the build phase and spawns the
/// probe morsels, so there is no thread barrier between the phases — a
/// thread that finishes its build work early steals other build morsels
/// rather than idling at a join point.
pub fn npj_join<S, F>(
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
    let mut stats = JoinStats::new("cbase-npj");
    let threads = cfg.threads;
    let simd = cfg.simd.resolve();

    cfg.cancel.check("build")?;
    let started = Instant::now();
    // The global table holds *all* of R, so the slot-encoding bound is a
    // real input limit here (per-partition builds hit the overflow budget
    // long before it).
    let table = ConcurrentChainedTable::try_sized(r, cfg.max_bucket_bits)?;

    let morsel = cfg.morsel_tuples.max(1);
    let build_chunks = r.len().div_ceil(morsel).clamp(1, 4096);
    // Oversplitting S beyond the morsel count lets the scheduler rebalance
    // when one chunk hits a hot key's long chain — a static per-thread
    // segmentation would leave that thread the straggler.
    let probe_chunks = s.len().div_ceil(morsel).max(threads * 4).clamp(1, 8192);
    let builds_left = AtomicUsize::new(build_chunks);
    let build_ns = AtomicU64::new(0);
    let probe_morsels = AtomicU64::new(0);

    let queue = TaskQueue::seeded(
        cfg.scheduler,
        (0..build_chunks).map(|c| NpjTask::Build(segment(r.len(), build_chunks, c))),
    );
    let slots: Vec<Mutex<S>> = (0..threads).map(&make_sink).map(Mutex::new).collect();
    let sched = run_to_completion(&queue, threads, |worker| {
        let mut sink = slots[worker.index()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        worker.run(|task, w| match task {
            NpjTask::Build(range) => {
                if cfg.cancel.is_cancelled() {
                    return;
                }
                table.insert_range(range);
                if builds_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last build morsel: the build phase ends here; hand
                    // the probe morsels to the scheduler.
                    build_ns.store(
                        started.elapsed().as_nanos().max(1) as u64,
                        Ordering::Release,
                    );
                    for c in 0..probe_chunks {
                        w.spawn(NpjTask::Probe(segment(s.len(), probe_chunks, c)));
                    }
                }
            }
            NpjTask::Probe(range) => {
                probe_morsels.fetch_add(1, Ordering::Relaxed);
                // Probing a skew-degenerate table can take minutes per
                // chunk (every probe walks a chain of r.len() >>
                // bucket_bits links), so cancellation must be observable
                // *inside* a task, not just at phase boundaries. Partial
                // output is discarded by the post-drain check below.
                for tuples in s[range].chunks(1024) {
                    if cfg.cancel.is_cancelled() {
                        return;
                    }
                    table.probe_all_with(tuples, &mut *sink, simd);
                }
            }
        });
    })
    .map_err(|worker| JoinError::WorkerPanicked {
        worker,
        phase: phase_in_flight(&build_ns).into(),
    })?;
    cfg.cancel.check(phase_in_flight(&build_ns))?;
    let sinks: Vec<S> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();

    let wall = started.elapsed();
    let build_d = Duration::from_nanos(build_ns.load(Ordering::Acquire).max(1)).min(wall);
    let probe_d = wall
        .checked_sub(build_d)
        .filter(|d| !d.is_zero())
        .unwrap_or(Duration::from_nanos(1));
    stats.phases.record("build", build_d);
    stats.phases.record("probe", probe_d);
    {
        let p = stats.trace.phase("build");
        p.add(counter::BUILD_TUPLES, r.len() as u64);
        p.max(counter::MAX_CHAIN_LEN, table.max_chain_len() as u64);
        p.add(counter::MORSELS, build_chunks as u64);
    }

    aggregate_sinks(&mut stats, &sinks);
    {
        let p = stats.trace.phase("probe");
        p.add(counter::PROBE_TUPLES, s.len() as u64);
        p.set(counter::RESULTS, stats.result_count);
        p.add(counter::TASKS_STOLEN, sched.tasks_stolen);
        p.add(counter::STEAL_FAILURES, sched.steal_failures);
        p.add(counter::MORSELS, probe_morsels.load(Ordering::Relaxed));
    }
    Ok(JoinOutcome { stats, sinks })
}

/// Phase to blame for a panic or cancellation: once the last build morsel
/// has timestamped the build phase, everything in flight is probe work.
fn phase_in_flight(build_ns: &AtomicU64) -> &'static str {
    if build_ns.load(Ordering::Acquire) != 0 {
        "probe"
    } else {
        "build"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use skewjoin_common::{CancelToken, CountingSink, Key, Payload, Tuple};
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

    /// Trips the shared cancel token after `after` results — the in-process
    /// stand-in for a watchdog firing while the probe phase is underway.
    #[derive(Debug)]
    struct CancellingSink {
        inner: CountingSink,
        cancel: CancelToken,
        after: u64,
    }

    impl OutputSink for CancellingSink {
        fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload) {
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

    #[test]
    fn matches_reference_across_skews() {
        for zipf in [0.0, 0.7, 1.0] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(4096, zipf, 5));
            let outcome = npj_join(&w.r, &w.s, &CpuJoinConfig::with_threads(4), |_| {
                CountingSink::new()
            })
            .unwrap();
            let mut reference = CountingSink::new();
            let ref_stats = reference_join(&w.r, &w.s, &mut reference);
            assert_eq!(
                outcome.stats.result_count, ref_stats.result_count,
                "zipf {zipf}"
            );
            assert_eq!(outcome.stats.checksum, ref_stats.checksum, "zipf {zipf}");
        }
    }

    #[test]
    fn empty_relations() {
        let cfg = CpuJoinConfig::with_threads(2);
        let e = Relation::new();
        let r = Relation::from_keys(&[1, 2]);
        assert_eq!(
            npj_join(&e, &r, &cfg, |_| CountingSink::new())
                .unwrap()
                .stats
                .result_count,
            0
        );
        assert_eq!(
            npj_join(&r, &e, &cfg, |_| CountingSink::new())
                .unwrap()
                .stats
                .result_count,
            0
        );
    }

    #[test]
    fn single_hot_key() {
        let r = Relation::from_tuples(vec![Tuple::new(3, 0); 128]);
        let s = Relation::from_tuples(vec![Tuple::new(3, 1); 64]);
        let outcome = npj_join(&r, &s, &CpuJoinConfig::with_threads(4), |_| {
            CountingSink::new()
        })
        .unwrap();
        assert_eq!(outcome.stats.result_count, 128 * 64);
    }

    #[test]
    fn more_threads_than_tuples() {
        let r = Relation::from_keys(&[1, 2, 3]);
        let s = Relation::from_keys(&[2, 3, 3]);
        let outcome = npj_join(&r, &s, &CpuJoinConfig::with_threads(16), |_| {
            CountingSink::new()
        })
        .unwrap();
        assert_eq!(outcome.stats.result_count, 3);
        assert_eq!(outcome.sinks.len(), 16);
    }

    #[test]
    fn cancel_interrupts_probe_mid_phase() {
        // One hot key: every probe tuple matches all 64 build tuples, so
        // the sink trips the token inside the first 1024-tuple probe chunk
        // and the next chunk boundary must abandon the join.
        let r = Relation::from_tuples(vec![Tuple::new(7, 0); 64]);
        let s = Relation::from_tuples((0..4096u32).map(|i| Tuple::new(7, i)).collect());
        let cancel = CancelToken::new();
        let mut cfg = CpuJoinConfig::with_threads(1);
        cfg.cancel = cancel.clone();
        let err = npj_join(&r, &s, &cfg, |_| CancellingSink {
            inner: CountingSink::new(),
            cancel: cancel.clone(),
            after: 100,
        })
        .unwrap_err();
        assert!(
            matches!(&err, JoinError::Cancelled { phase } if phase == "probe"),
            "expected mid-probe Cancelled, got {err:?}"
        );
    }

    #[test]
    fn pre_cancelled_token_fails_fast() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut cfg = CpuJoinConfig::with_threads(2);
        cfg.cancel = cancel;
        let r = Relation::from_keys(&[1, 2, 3]);
        let err = npj_join(&r, &r, &cfg, |_| CountingSink::new()).unwrap_err();
        assert!(matches!(err, JoinError::Cancelled { .. }));
    }

    #[test]
    fn phases_recorded() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1024, 0.3, 9));
        let outcome = npj_join(&w.r, &w.s, &CpuJoinConfig::with_threads(2), |_| {
            CountingSink::new()
        })
        .unwrap();
        assert_eq!(outcome.stats.phases.len(), 2);
        assert!(outcome.stats.phases.get("build") > std::time::Duration::ZERO);
    }
}
