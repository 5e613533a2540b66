//! Radix-partitioning kernels of the morsel pipeline ([`crate::morsel`]),
//! which is the one CPU partitioner for both Cbase and CSH.
//!
//! Pass 0 follows Balkesen et al.'s contention-free scheme: each input
//! segment is histogrammed, a prefix sum hands every `(bucket, segment)`
//! pair a private output range, and `scatter_direct` copies the segment
//! into its ranges with one store per tuple, hashing a SIMD batch at a
//! time. There is no software write-combining variant: on this pipeline
//! it took 0.89–1.05× the direct scatter's time, faster in some cells and
//! slower in others (EXPERIMENTS.md). A per-tuple `Route` closure can
//! override the radix bucket: CSH's router hook sends hot R tuples to
//! per-key runs past the radix buckets and consumes hot S tuples without
//! storing them. The later passes run per pass-0 partition inside the
//! pipeline's Refine tasks, so final partitions come out in *memory
//! order* ([`memory_pid`]).
//!
//! [`partition_slice_by`] is the sequential partitioner behind Cbase's
//! recursive large-task splitting.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::histogram::exclusive_prefix_sum;
use skewjoin_common::{faults, Tuple};

use crate::simd::{self, SimdLevel, HASH_BATCH};
use crate::util::SharedTupleSlice;

/// Memory-order partition id of `key`: pass-0 index is most significant, so
/// partitions produced by multi-pass refinement stay contiguous per parent.
#[inline]
pub fn memory_pid(cfg: &RadixConfig, key: u32) -> usize {
    let mut pid = 0usize;
    for pass in 0..cfg.bits_per_pass.len() {
        pid = (pid << cfg.bits_per_pass[pass]) | cfg.partition_of(key, pass);
    }
    pid
}

/// Where a pass-0 scatter sends one tuple.
pub(crate) enum Route {
    /// The tuple's radix partition.
    Radix,
    /// An explicit bucket past the radix partitions (CSH's hot R runs).
    Bucket(usize),
    /// Nowhere: the router consumed the tuple (CSH's hot S tuples, whose
    /// results are emitted instead of stored).
    Consumed,
}

/// Hash parameters of radix pass `pass` for [`simd::hash_indices`].
#[inline]
pub(crate) fn pass_spec(cfg: &RadixConfig, pass: usize) -> (bool, u32, u32) {
    (
        cfg.mode == skewjoin_common::hash::RadixMode::Mixed,
        cfg.shift(pass),
        (cfg.fanout(pass) - 1) as u32,
    )
}

/// Direct per-tuple scatter of one segment: partition indices are hashed a
/// SIMD batch at a time, then the stores replay the batch, each tuple going
/// where `route` sends it.
pub(crate) fn scatter_direct(
    chunk: &[Tuple],
    cfg: &RadixConfig,
    mut cursors: Vec<usize>,
    shared: SharedTupleSlice,
    level: SimdLevel,
    mut route: impl FnMut(&Tuple) -> Route,
) {
    faults::maybe_panic("cpu.partition.scatter");
    let (mixed, shift, mask) = pass_spec(cfg, 0);
    let mut pids = [0u32; HASH_BATCH];
    for batch in chunk.chunks(HASH_BATCH) {
        simd::hash_indices(level, batch, mixed, shift, mask, &mut pids);
        for (t, &p) in batch.iter().zip(&pids) {
            let b = match route(t) {
                Route::Radix => p as usize,
                Route::Bucket(b) => b,
                Route::Consumed => continue,
            };
            // SAFETY: cursors for (bucket, segment) ranges are disjoint by
            // construction of `per_worker_offsets`.
            unsafe { shared.write(cursors[b], *t) };
            cursors[b] += 1;
        }
    }
}

/// Sequentially partitions a slice by an arbitrary key→partition function —
/// used by `Cbase`'s recursive large-task splitting, where the fan-out comes
/// from extra radix bits beyond the configured passes.
pub fn partition_slice_by<F: Fn(u32) -> usize>(
    slice: &[Tuple],
    fanout: usize,
    part_of: F,
) -> (Vec<Tuple>, Vec<usize>) {
    let mut hist = vec![0usize; fanout];
    for t in slice {
        hist[part_of(t.key)] += 1;
    }
    let mut starts = hist.clone();
    let total = exclusive_prefix_sum(&mut starts);
    debug_assert_eq!(total, slice.len());
    let mut out = vec![Tuple::default(); slice.len()];
    let mut cursors = starts.clone();
    for t in slice {
        let p = part_of(t.key);
        out[cursors[p]] = *t;
        cursors[p] += 1;
    }
    starts.push(slice.len());
    (out, starts)
}

/// Raw shared view over a `usize` slice for disjoint parallel writes
/// (mirrors [`SharedTupleSlice`]; see its safety contract). The morsel
/// pipeline's Refine tasks publish child partition boundaries through it.
#[derive(Clone, Copy)]
pub(crate) struct SharedUsizeSlice {
    ptr: *mut usize,
    len: usize,
}

unsafe impl Send for SharedUsizeSlice {}
unsafe impl Sync for SharedUsizeSlice {}

impl SharedUsizeSlice {
    pub(crate) fn new(slice: &mut [usize]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// `idx` in bounds; each index written by exactly one thread.
    #[inline(always)]
    pub(crate) unsafe fn write(&self, idx: usize, value: usize) {
        debug_assert!(idx < self.len);
        unsafe { self.ptr.add(idx).write(value) };
    }

    /// # Safety
    /// `idx` in bounds, already written, and no concurrent writer (the
    /// morsel pipeline reads a parent's starts only after the publishing
    /// task completed — the join gate's `fetch_or` gives the edge).
    #[inline(always)]
    pub(crate) unsafe fn read(&self, idx: usize) -> usize {
        debug_assert!(idx < self.len);
        unsafe { self.ptr.add(idx).read() }
    }
}

#[cfg(test)]
mod tests {
    //! The pass-0 kernels run inside the morsel pipeline, so partitioning
    //! is checked on the layout a pipeline run leaves behind.

    use super::*;
    use crate::config::CpuJoinConfig;
    use crate::morsel::tests::{partition_layout, Layout};
    use crate::morsel::Flavor;
    use crate::simd::SimdPolicy;
    use crate::skew::SkewCheckupTable;
    use crate::task::SchedulerKind;
    use skewjoin_common::hash::RadixMode;
    use skewjoin_common::{Relation, SkewedKey};

    fn test_relation(n: usize) -> Relation {
        Relation::from_tuples(
            (0..n)
                .map(|i| Tuple::new((i as u32).wrapping_mul(2654435761) % 97, i as u32))
                .collect(),
        )
    }

    /// Small morsels, so even the short test inputs span several segments.
    fn config(radix: RadixConfig, threads: usize) -> CpuJoinConfig {
        CpuJoinConfig {
            radix: Some(radix),
            morsel_tuples: 256,
            ..CpuJoinConfig::with_threads(threads)
        }
    }

    /// Partitions `tuples` as both sides of a Cbase pipeline run.
    fn layout(tuples: &[Tuple], cfg: &CpuJoinConfig) -> Layout {
        let rel = Relation::from_tuples(tuples.to_vec());
        partition_layout(&rel, &rel, cfg, Flavor::Cbase)
    }

    fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
        tuples.sort_unstable_by_key(|t| (t.key, t.payload));
        tuples
    }

    fn check_partitioning(tuples: &[Tuple], radix: &RadixConfig, threads: usize) {
        let out = layout(tuples, &config(radix.clone(), threads));
        for parts in &out.parts {
            // Same multiset.
            assert_eq!(sorted(parts.concat()), sorted(tuples.to_vec()));
            // Every tuple in its memory_pid partition.
            for (pid, part) in parts.iter().enumerate() {
                for t in part {
                    assert_eq!(memory_pid(radix, t.key), pid);
                }
            }
            assert_eq!(parts.len(), radix.total_fanout());
        }
    }

    #[test]
    fn single_pass_partitioning() {
        let r = test_relation(1000);
        check_partitioning(&r, &RadixConfig::single_pass(4), 4);
    }

    #[test]
    fn two_pass_partitioning() {
        let r = test_relation(5000);
        for mode in [RadixMode::Mixed, RadixMode::Raw] {
            let cfg = RadixConfig {
                mode,
                ..RadixConfig::two_pass(8)
            };
            check_partitioning(&r, &cfg, 4);
        }
    }

    #[test]
    fn three_pass_partitioning() {
        let r = test_relation(3000);
        let cfg = RadixConfig {
            bits_per_pass: vec![3, 2, 3],
            mode: RadixMode::Mixed,
        };
        check_partitioning(&r, &cfg, 3);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        check_partitioning(&[], &RadixConfig::two_pass(6), 4);
        let one = [Tuple::new(42, 0)];
        check_partitioning(&one, &RadixConfig::two_pass(6), 4);
    }

    #[test]
    fn more_threads_than_tuples() {
        let r = test_relation(5);
        check_partitioning(&r, &RadixConfig::two_pass(4), 16);
    }

    #[test]
    fn single_thread_matches_parallel() {
        // Segments follow `morsel_tuples`, not the thread count, so the
        // layout is byte-identical whoever runs which morsel.
        let r = test_relation(2000);
        let radix = RadixConfig::two_pass(6);
        let a = layout(&r, &config(radix.clone(), 1));
        let b = layout(&r, &config(radix, 8));
        assert_eq!(a.parts, b.parts);
    }

    #[test]
    fn mutex_scheduler_matches_work_stealing() {
        let r = test_relation(3000);
        let ws = CpuJoinConfig {
            scheduler: SchedulerKind::WorkStealing,
            ..config(RadixConfig::two_pass(8), 4)
        };
        let mx = CpuJoinConfig {
            scheduler: SchedulerKind::Mutex,
            ..ws.clone()
        };
        assert_eq!(layout(&r, &ws).parts, layout(&r, &mx).parts);
    }

    #[test]
    fn simd_and_scalar_partitioning_are_identical() {
        // Same segment order + same cursor math → byte-identical output,
        // whatever lane width computed the partition indices.
        let r = test_relation(6001); // odd size: exercises every tail path
        for bits in [3u32, 9] {
            for mode in [RadixMode::Mixed, RadixMode::Raw] {
                let scalar = CpuJoinConfig {
                    simd: SimdPolicy::Scalar,
                    ..config(
                        RadixConfig {
                            mode,
                            ..RadixConfig::two_pass(bits)
                        },
                        3,
                    )
                };
                let auto = CpuJoinConfig {
                    simd: SimdPolicy::Auto,
                    ..scalar.clone()
                };
                assert_eq!(
                    layout(&r, &scalar).parts,
                    layout(&r, &auto).parts,
                    "bits {bits} mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn skewed_keys_stay_together() {
        // All tuples share one key → exactly one non-empty partition.
        let tuples: Vec<Tuple> = (0..500).map(|i| Tuple::new(7, i)).collect();
        let out = layout(&tuples, &config(RadixConfig::two_pass(8), 4));
        for parts in out.parts {
            assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 1);
        }
    }

    #[test]
    fn hot_keys_leave_the_radix_partitions() {
        // CSH's router hook: hot R tuples form one contiguous run per key,
        // in input order; hot S tuples are consumed, never stored; cold
        // tuples keep their memory-order partitions on both sides.
        let hot_keys = [7u32, 11];
        let tuples: Vec<Tuple> = (0..3000u32)
            .map(|i| {
                Tuple::new(
                    if i % 3 == 0 {
                        hot_keys[(i % 2) as usize]
                    } else {
                        i
                    },
                    i,
                )
            })
            .collect();
        let rel = Relation::from_tuples(tuples.clone());
        let skewed: Vec<SkewedKey> = hot_keys
            .iter()
            .map(|&key| SkewedKey { key, frequency: 2 })
            .collect();
        let table = SkewCheckupTable::build(&skewed);
        let cfg = config(RadixConfig::two_pass(6), 3);
        let out = partition_layout(&rel, &rel, &cfg, Flavor::Csh(&table));
        let cold: Vec<Tuple> = tuples
            .iter()
            .copied()
            .filter(|t| !hot_keys.contains(&t.key))
            .collect();
        for parts in &out.parts {
            assert_eq!(sorted(parts.concat()), sorted(cold.clone()));
            for (pid, part) in parts.iter().enumerate() {
                assert!(part
                    .iter()
                    .all(|t| memory_pid(&cfg.radix_for(0), t.key) == pid));
            }
        }
        for (run, &key) in out.hot_runs.iter().zip(&hot_keys) {
            let expected: Vec<Tuple> = tuples.iter().copied().filter(|t| t.key == key).collect();
            assert_eq!(run, &expected, "key {key}");
        }
    }

    #[test]
    fn partition_slice_by_groups_correctly() {
        let tuples: Vec<Tuple> = (0..100).map(|i| Tuple::new(i % 10, i)).collect();
        let (out, starts) = partition_slice_by(&tuples, 5, |k| (k % 5) as usize);
        assert_eq!(out.len(), 100);
        assert_eq!(starts.len(), 6);
        for p in 0..5 {
            for t in &out[starts[p]..starts[p + 1]] {
                assert_eq!((t.key % 5) as usize, p);
            }
        }
    }
}
