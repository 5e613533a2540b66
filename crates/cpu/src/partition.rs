//! Radix-partitioning kernels of the morsel pipeline ([`crate::morsel`]),
//! which is the one CPU partitioner for both Cbase and CSH.
//!
//! Pass 0 follows Balkesen et al.'s contention-free scheme: each input
//! segment is histogrammed, a prefix sum hands every `(bucket, segment)`
//! pair a private output range, and `scatter_direct` or
//! `scatter_buffered` (software write-combining) copies the segment into
//! its ranges, hashing a SIMD batch at a time. A per-tuple `Route`
//! closure can override the radix bucket: CSH's router hook sends hot R
//! tuples to per-key runs past the radix buckets and consumes hot S tuples
//! without storing them. The later passes run per pass-0 partition inside
//! the pipeline's Refine tasks, so final partitions come out in
//! *memory order* ([`memory_pid`]).
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

/// How the scatter scan writes tuples to their target partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScatterMode {
    /// One store per tuple straight to the target partition.
    #[default]
    Direct,
    /// Software write-combining (Balkesen et al.'s optimization): each
    /// thread stages tuples in cache-line-sized per-partition buffers and
    /// flushes a full line at a time, so the scatter touches one cache
    /// line per partition instead of one per tuple. Most effective at high
    /// fan-outs where direct stores thrash the TLB/cache.
    Buffered,
}

/// Default tuples per software write-combining buffer: four 64-byte cache
/// lines. The flush is a bulk `memcpy`, so longer staged runs amortize its
/// call overhead and give the copy loop whole-line bursts; 256 bytes per
/// partition measured best on the zipf sweep (8-tuple lines consistently
/// lost to direct stores, 32-tuple lines win from zipf 1.0 up).
/// Configurable via `CpuJoinConfig::wc_tuples`.
pub const SWWC_TUPLES: usize = 32;

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

/// Software write-combining scatter: stage up to `wc_tuples` tuples per
/// bucket in a thread-local buffer; flush a full line at once. `route`
/// decides each tuple's bucket as in [`scatter_direct`]. Returns the number
/// of full-line flushes.
pub(crate) fn scatter_buffered(
    chunk: &[Tuple],
    cfg: &RadixConfig,
    mut cursors: Vec<usize>,
    shared: SharedTupleSlice,
    wc_tuples: usize,
    level: SimdLevel,
    mut route: impl FnMut(&Tuple) -> Route,
) -> u64 {
    faults::maybe_panic("cpu.partition.scatter");
    let (mixed, shift, mask) = pass_spec(cfg, 0);
    let mut wc = WriteCombiner::new(cursors.len(), wc_tuples);
    let mut pids = [0u32; HASH_BATCH];
    for batch in chunk.chunks(HASH_BATCH) {
        simd::hash_indices(level, batch, mixed, shift, mask, &mut pids);
        for (t, &p) in batch.iter().zip(&pids) {
            let b = match route(t) {
                // `p <= mask < fanout(0) <= cursors.len()`.
                Route::Radix => p as usize,
                Route::Bucket(b) => {
                    assert!(b < cursors.len(), "bucket {b} out of range");
                    b
                }
                Route::Consumed => continue,
            };
            // SAFETY: `b` is in range (see the match) and the staged writes
            // land in this segment's private cursor ranges — same
            // disjointness argument as the direct path.
            unsafe { wc.stage(b, *t, &mut cursors, shared) };
        }
    }
    // SAFETY: as above.
    unsafe { wc.flush_all(&mut cursors, shared) };
    wc.flushes()
}

/// One segment's software write-combining buffers: a cache-line-sized
/// staging area per bucket. A hot S tuple consumed by CSH's router never
/// enters them, so staged cold tuples may sit across its result emission;
/// what matters is the remainder flush before the Scatter task counts
/// itself done, because the next stage reads the buckets right after.
struct WriteCombiner {
    line: usize,
    /// `fanout × line` staging slots, flat.
    buffers: Vec<Tuple>,
    fill: Vec<u16>,
    flushes: u64,
}

impl WriteCombiner {
    /// Staging buffers for `fanout` partitions, `line` tuples each.
    fn new(fanout: usize, line: usize) -> Self {
        assert!(
            line.is_power_of_two() && (1..=64).contains(&line),
            "write-combining line must be a power of two in 1..=64, got {line}"
        );
        Self {
            line,
            buffers: vec![Tuple::default(); fanout * line],
            fill: vec![0u16; fanout],
            flushes: 0,
        }
    }

    /// Stages `t` for partition `p`, flushing the full line through
    /// `cursors[p]` when it fills (maps to streaming stores). The body is
    /// branch-lean and bounds-check-free: this runs once per input tuple,
    /// and any checked indexing here costs more than the cache misses the
    /// buffering saves.
    ///
    /// # Safety
    /// `p` must be below the `fanout` this combiner was built with (and
    /// `cursors`/`fill` must have that same length), and the caller must
    /// guarantee `cursors[p] .. cursors[p] + pending` stays a range written
    /// by this thread only (see [`SharedTupleSlice::write`]).
    #[inline]
    unsafe fn stage(
        &mut self,
        p: usize,
        t: Tuple,
        cursors: &mut [usize],
        shared: SharedTupleSlice,
    ) {
        debug_assert!(p < self.fill.len() && cursors.len() == self.fill.len());
        let base = p * self.line;
        // SAFETY: `p < fanout` per the caller's contract, so every index
        // below is in bounds; the bulk copy targets this worker's private
        // cursor range (forwarded contract) and cannot overlap the staging
        // buffer (`shared` aliases the partition output, not `self`).
        unsafe {
            let f = *self.fill.get_unchecked(p) as usize;
            *self.buffers.get_unchecked_mut(base + f) = t;
            if f + 1 == self.line {
                let cur = cursors.get_unchecked_mut(p);
                shared.copy_from(*cur, self.buffers.as_ptr().add(base), self.line);
                *cur += self.line;
                *self.fill.get_unchecked_mut(p) = 0;
                self.flushes += 1;
            } else {
                *self.fill.get_unchecked_mut(p) = (f + 1) as u16;
            }
        }
    }

    /// Flushes every partial line. Must run before the cursors' target
    /// ranges are read (before the Scatter task counts itself done).
    ///
    /// # Safety
    /// Same contract as [`WriteCombiner::stage`].
    unsafe fn flush_all(&mut self, cursors: &mut [usize], shared: SharedTupleSlice) {
        faults::maybe_panic("cpu.partition.flush");
        for (p, fill) in self.fill.iter_mut().enumerate() {
            let n = *fill as usize;
            if n == 0 {
                continue;
            }
            let base = p * self.line;
            // SAFETY: forwarded from the caller's contract; staging buffer
            // and partition output never alias.
            unsafe { shared.copy_from(cursors[p], self.buffers.as_ptr().add(base), n) };
            cursors[p] += n;
            *fill = 0;
        }
    }

    /// Full-line flushes so far (partial `flush_all` lines not counted:
    /// they are forced, not combining wins).
    fn flushes(&self) -> u64 {
        self.flushes
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
    use crate::skew::{SkewCheckupTable, SkewedKey};
    use crate::task::SchedulerKind;
    use skewjoin_common::hash::RadixMode;
    use skewjoin_common::trace::counter;
    use skewjoin_common::{CountingSink, Relation};

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
            radix,
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
    fn buffered_scatter_matches_direct() {
        let r = test_relation(7777);
        for bits in [4u32, 8] {
            let direct = config(RadixConfig::two_pass(bits), 3);
            let buffered = CpuJoinConfig {
                scatter: ScatterMode::Buffered,
                ..direct.clone()
            };
            assert_eq!(
                layout(&r, &direct).parts,
                layout(&r, &buffered).parts,
                "bits {bits}"
            );
        }
    }

    #[test]
    fn buffered_scatter_handles_non_multiple_fills() {
        // Sizes that leave partial SWWC buffers at every partition.
        for n in [1usize, 7, 9, 63, 65] {
            let r = test_relation(n);
            let cfg = CpuJoinConfig {
                scatter: ScatterMode::Buffered,
                ..config(RadixConfig::single_pass(3), 2)
            };
            for parts in layout(&r, &cfg).parts {
                assert_eq!(sorted(parts.concat()), sorted(r.tuples().to_vec()), "n={n}");
            }
        }
    }

    #[test]
    fn wc_line_sizes_all_agree() {
        let r = test_relation(4321);
        let direct = config(RadixConfig::two_pass(6), 2);
        let expected = layout(&r, &direct);
        for line in [1usize, 2, 16, 64] {
            let cfg = CpuJoinConfig {
                scatter: ScatterMode::Buffered,
                wc_tuples: line,
                ..direct.clone()
            };
            let got = layout(&r, &cfg);
            assert_eq!(expected.parts, got.parts, "line {line}");
            if line == 1 {
                // Every tuple of both sides is its own full line.
                assert_eq!(got.flushes, 2 * r.len() as u64);
            }
        }
    }

    #[test]
    fn partition_stats_report_flushes_and_scheduler() {
        let r = test_relation(4096);
        let run = |scatter| {
            // Segments of 2 Ki tuples over 16 pass-0 partitions: enough
            // tuples per partition to fill 32-tuple lines.
            let cfg = CpuJoinConfig {
                scatter,
                morsel_tuples: 2048,
                ..config(RadixConfig::two_pass(8), 3)
            };
            crate::cbase_join(&r, &r, &cfg, |_| CountingSink::new())
                .expect("join")
                .stats
        };
        let buffered = run(ScatterMode::Buffered);
        assert!(buffered.trace.get("partition", counter::BUFFER_FLUSHES) > Some(0));
        assert!(buffered.trace.get("join", counter::TASKS_STOLEN).is_some());
        // Direct mode never flushes.
        let direct = run(ScatterMode::Direct);
        assert_eq!(
            direct.trace.get("partition", counter::BUFFER_FLUSHES),
            Some(0)
        );
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
                for scatter in [ScatterMode::Direct, ScatterMode::Buffered] {
                    let scalar = CpuJoinConfig {
                        scatter,
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
                        "bits {bits} mode {mode:?} scatter {scatter:?}"
                    );
                }
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
            .map(|&key| SkewedKey {
                key,
                sample_freq: 2,
            })
            .collect();
        let table = SkewCheckupTable::build(&skewed);
        for scatter in [ScatterMode::Direct, ScatterMode::Buffered] {
            let cfg = CpuJoinConfig {
                scatter,
                ..config(RadixConfig::two_pass(6), 3)
            };
            let out = partition_layout(&rel, &rel, &cfg, Flavor::Csh(&table));
            let cold: Vec<Tuple> = tuples
                .iter()
                .copied()
                .filter(|t| !hot_keys.contains(&t.key))
                .collect();
            for parts in &out.parts {
                assert_eq!(sorted(parts.concat()), sorted(cold.clone()));
                for (pid, part) in parts.iter().enumerate() {
                    assert!(part.iter().all(|t| memory_pid(&cfg.radix, t.key) == pid));
                }
            }
            for (run, &key) in out.hot_runs.iter().zip(&hot_keys) {
                let expected: Vec<Tuple> =
                    tuples.iter().copied().filter(|t| t.key == key).collect();
                assert_eq!(run, &expected, "key {key} scatter {scatter:?}");
            }
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
