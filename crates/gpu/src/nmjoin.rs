//! The NM-join kernel: one thread block joins one (R sub-list, S partition)
//! pair through a chained hash table in shared memory, producing output via
//! Gbase's write-bitmap protocol (§II-B, §III).
//!
//! Both joins run it on the tasks [`build_nm_tasks`] makes from (R range,
//! S range) pairs. Gbase passes every partition pair; GSH passes the same
//! pairs but replaces each split partition's with its normal residues. An R
//! range larger than `table_capacity` becomes sub-lists, and *every*
//! sub-list re-probes the full S range: Gbase's documented inefficiency,
//! which GSH's skew phase removes for the keys it detects.
//!
//! Cost model per probe batch (block_dim S tuples, chain walk in lockstep
//! because the write bitmap forces a block-wide `__syncthreads` per chain
//! step): `steps = max` chain visits in the batch; each step charges the
//! active warps' shared reads + compares + ballots + a bitmap atomic, one
//! barrier, and the coalesced output write for that step's matches. Warp
//! divergence waste is recorded from the per-lane trip counts.

use skewjoin_common::hash::{bucket_bits_for, table_hash};
use skewjoin_common::OutputSink;
use skewjoin_gpu_sim::BufferId;

use crate::backend::{BlockOps, DeviceKernel};
use crate::lane_collisions;
use crate::pack::{key_of, payload_of};

/// One NM-join task: an R sub-list and the S partition it probes.
#[derive(Debug, Clone)]
pub struct NmTask {
    /// Buffer holding the R tuples.
    pub r_buf: BufferId,
    /// R sub-list range (≤ the shared-memory table capacity).
    pub r_range: std::ops::Range<usize>,
    /// Buffer holding the S tuples.
    pub s_buf: BufferId,
    /// S partition range (probed in full by this block).
    pub s_range: std::ops::Range<usize>,
}

/// Output tuple size in bytes (key + R payload + S payload).
const OUTPUT_BYTES: u64 = 12;

/// The NM-join kernel: block `i` executes `tasks[i]`.
pub struct NmJoinKernel<'a, S> {
    /// The task list (one per block).
    pub tasks: &'a [NmTask],
    /// Per-SM-slot output sinks.
    pub sinks: &'a mut [S],
    scratch_idx: Vec<usize>,
    scratch_vals: Vec<u64>,
    /// Bucket of each lane, and the per-bucket lane counts
    /// [`lane_collisions`] keeps.
    lanes: Vec<usize>,
    lane_counts: Vec<u16>,
}

impl<'a, S: OutputSink> NmJoinKernel<'a, S> {
    /// Creates the kernel over `tasks` with the given sink pool.
    pub fn new(tasks: &'a [NmTask], sinks: &'a mut [S]) -> Self {
        Self {
            tasks,
            sinks,
            scratch_idx: Vec::new(),
            scratch_vals: Vec::new(),
            lanes: Vec::new(),
            lane_counts: Vec::new(),
        }
    }
}

impl<S: OutputSink> DeviceKernel for NmJoinKernel<'_, S> {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let task = &self.tasks[ctx.block_idx()];
        let r_len = task.r_range.len();
        if r_len == 0 || task.s_range.is_empty() {
            return;
        }

        // ---- Build: chained hash table over the R sub-list in shared
        // memory. Capacity is enforced by the simulator's shared budget.
        let bits = bucket_bits_for(r_len);
        let buckets = 1usize << bits;
        let _tuples_region = ctx.shared_alloc(r_len, 8);
        let _next_region = ctx.shared_alloc(r_len, 4);
        let _bucket_region = ctx.shared_alloc(buckets, 4);

        // Functional table (host mirror of the shared regions).
        let mut heads = vec![u32::MAX; buckets];
        let mut next = vec![u32::MAX; r_len];
        let mut r_words = Vec::with_capacity(r_len);
        if self.lane_counts.len() < buckets {
            self.lane_counts = vec![0; buckets];
        }

        let warp = ctx.warp_size();
        let mut i = task.r_range.start;
        while i < task.r_range.end {
            let hi = (i + warp).min(task.r_range.end);
            self.scratch_idx.clear();
            self.scratch_idx.extend(i..hi);
            ctx.warp_gather(task.r_buf, &self.scratch_idx, &mut self.scratch_vals);
            ctx.alu(2); // hash + link setup

            // Per-warp shared traffic: store tuple + link, bump bucket head
            // atomically (serialization = same-bucket lanes in this warp).
            self.lanes.clear();
            for &w in &self.scratch_vals {
                let local = r_words.len() as u32;
                let b = table_hash(key_of(w), bits);
                self.lanes.push(b);
                next[local as usize] = heads[b];
                heads[b] = local;
                r_words.push(w);
            }
            ctx.charge_shared_accesses(2);
            ctx.charge_shared_atomics(1, lane_collisions(&mut self.lane_counts, &self.lanes));
            i = hi;
        }
        ctx.syncthreads();

        // ---- Probe: S partition in block-sized batches, chain walk in
        // lockstep with the write-bitmap protocol.
        let block_dim = ctx.block_dim();
        let mut s = task.s_range.start;
        while s < task.s_range.end {
            let batch_end = (s + block_dim).min(task.s_range.end);
            let batch_len = batch_end - s;
            ctx.account_contiguous_read(task.s_buf, batch_len);

            let mut matched_total = 0u64;
            let mut max_steps = 0u64;
            let mut sum_steps = 0u64;
            // Per-warp longest chain (steps during which that warp is live).
            let mut warp_max = vec![0u64; (batch_len).div_ceil(warp)];
            let sink = &mut self.sinks[ctx.sm_slot()];
            for (li, &sw) in ctx.read_run(task.s_buf, s..batch_end).iter().enumerate() {
                let skey = key_of(sw);
                let mut cursor = heads[table_hash(skey, bits)];
                let mut steps = 0u64;
                while cursor != u32::MAX {
                    steps += 1;
                    let rw = r_words[cursor as usize];
                    if key_of(rw) == skey {
                        matched_total += 1;
                        sink.emit(skey, payload_of(rw), payload_of(sw));
                    }
                    cursor = next[cursor as usize];
                }
                max_steps = max_steps.max(steps);
                sum_steps += steps;
                let w = li / warp;
                warp_max[w] = warp_max[w].max(steps);
            }

            // Closed-form charges for the lockstep walk. A warp is live for
            // its own longest chain; the block barriers run for the block's
            // longest chain.
            let live_warp_steps: u64 = warp_max.iter().sum();
            // Chain-link + key shared reads per live warp-step (bank
            // conflicts: chain nodes land on arbitrary banks, degree ≈ 2).
            ctx.charge_shared_accesses(live_warp_steps * 2 * 2);
            // Compare + offset computation (popcount over the bitmap).
            ctx.alu(live_warp_steps * 3);
            ctx.charge_ballots(live_warp_steps);
            // Write-bitmap protocol: one bitmap atomic per live warp-step,
            // PLUS per-lane serialization — every active lane's atomic OR on
            // the warp's bitmap word retires one lane at a time. This is the
            // §III "costly synchronization and atomic operations" term that
            // explodes on long chains.
            ctx.charge_shared_atomics(live_warp_steps, 1);
            ctx.charge_atomic_serial_lanes(sum_steps.saturating_sub(live_warp_steps));
            // One block-wide barrier per chain step.
            ctx.charge_syncs(max_steps);
            // Idle-lane diagnostic: lanes whose chains ended early.
            let lanes = batch_len as u64;
            ctx.charge_divergence_waste((max_steps * lanes - sum_steps) * 4 / lanes.max(1));
            // Coalesced write of this batch's join output.
            ctx.account_stream_bytes(matched_total * OUTPUT_BYTES);

            s = batch_end;
        }
    }
}

/// Builds the NM task list from (R range, S range) pairs, skipping pairs
/// with an empty side and decomposing R ranges larger than
/// `table_capacity` into sub-lists that each probe the whole S range
/// (Gbase's skew technique). Tasks are ordered largest-first so the greedy
/// SM dispatch starts stragglers early.
pub fn build_nm_tasks(
    pairs: impl IntoIterator<Item = NmTask>,
    table_capacity: usize,
) -> Vec<NmTask> {
    let mut tasks = Vec::new();
    for pair in pairs {
        if pair.r_range.is_empty() || pair.s_range.is_empty() {
            continue;
        }
        let mut sub = pair.r_range.start;
        while sub < pair.r_range.end {
            let sub_end = (sub + table_capacity).min(pair.r_range.end);
            tasks.push(NmTask {
                r_range: sub..sub_end,
                ..pair.clone()
            });
            sub = sub_end;
        }
    }
    tasks.sort_by_key(|t| std::cmp::Reverse(t.r_range.len() + t.s_range.len()));
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GpuBackend, SimBackend};
    use crate::pack::upload_relation;
    use skewjoin_common::{CountingSink, Relation, Tuple};
    use skewjoin_gpu_sim::DeviceSpec;

    fn pair(
        r_buf: BufferId,
        r_range: std::ops::Range<usize>,
        s_buf: BufferId,
        s_range: std::ops::Range<usize>,
    ) -> NmTask {
        NmTask {
            r_buf,
            r_range,
            s_buf,
            s_range,
        }
    }

    fn run_nm(r: &Relation, s: &Relation, capacity: usize) -> (u64, skewjoin_gpu_sim::Metrics) {
        let mut dev = SimBackend::new(DeviceSpec::tiny(1 << 24));
        let r_buf = upload_relation(&mut dev, r, "table R").unwrap();
        let s_buf = upload_relation(&mut dev, s, "table S").unwrap();
        // Single "partition" covering everything.
        let tasks = build_nm_tasks([pair(r_buf, 0..r.len(), s_buf, 0..s.len())], capacity);
        let mut sinks: Vec<CountingSink> = (0..dev.spec().num_sms)
            .map(|_| CountingSink::new())
            .collect();
        let mut kernel = NmJoinKernel::new(&tasks, &mut sinks);
        let stats = dev.launch("nm", tasks.len(), 64, &mut kernel).unwrap();
        (sinks.iter().map(|s| s.count()).sum(), stats.metrics)
    }

    #[test]
    fn joins_correctly() {
        let r = Relation::from_keys(&[1, 2, 2, 3]);
        let s = Relation::from_keys(&[2, 3, 3, 4]);
        let (count, _) = run_nm(&r, &s, 128);
        // key 2: 2×1, key 3: 1×2.
        assert_eq!(count, 4);
    }

    #[test]
    fn sublist_decomposition_preserves_results() {
        // 300 R tuples of one key with capacity 64 → 5 sub-lists, each
        // probing all of S.
        let r = Relation::from_tuples(vec![Tuple::new(7, 1); 300]);
        let s = Relation::from_tuples(vec![Tuple::new(7, 2); 100]);
        let (count, _) = run_nm(&r, &s, 64);
        assert_eq!(count, 30_000);
    }

    #[test]
    fn task_splitting_counts() {
        let (r_buf, s_buf) = (
            BufferId::from_raw_for_tests(0),
            BufferId::from_raw_for_tests(1),
        );
        let tasks = build_nm_tasks([pair(r_buf, 0..300, s_buf, 0..100)], 64);
        assert_eq!(tasks.len(), 5); // ceil(300/64)
        assert!(tasks.iter().all(|t| t.s_range == (0..100)));
    }

    #[test]
    fn long_chains_inflate_sync_cost() {
        // Same output size, different chain shapes: one hot key (chain 256)
        // vs 256 distinct keys (chains of 1).
        let hot_r = Relation::from_tuples(vec![Tuple::new(5, 0); 256]);
        let hot_s = Relation::from_tuples(vec![Tuple::new(5, 0); 256]);
        let (hot_count, hot_m) = run_nm(&hot_r, &hot_s, 512);

        let flat_keys: Vec<u32> = (0..256).collect();
        let flat_r = Relation::from_keys(&flat_keys);
        let flat_s = Relation::from_keys(&flat_keys);
        let (flat_count, flat_m) = run_nm(&flat_r, &flat_s, 512);

        assert_eq!(hot_count, 256 * 256);
        assert_eq!(flat_count, 256);
        assert!(
            hot_m.sync_cycles > 10 * flat_m.sync_cycles,
            "hot {} vs flat {}",
            hot_m.sync_cycles,
            flat_m.sync_cycles
        );
    }

    #[test]
    fn ragged_chains_record_divergence_waste() {
        // Half the probes hit a 128-long chain, half miss entirely: lanes
        // idle while the long-chain lanes keep walking.
        let mut r_keys = vec![5u32; 128];
        r_keys.extend(10_000..10_128u32);
        let r = Relation::from_keys(&r_keys);
        let mut s_keys = vec![5u32; 32];
        s_keys.extend(20_000..20_032u32); // no match, chain length 0
        let s = Relation::from_keys(&s_keys);
        let (_, m) = run_nm(&r, &s, 512);
        assert!(
            m.divergence_waste_cycles > 0,
            "expected divergence waste, metrics: {m:?}"
        );
    }

    #[test]
    fn empty_partitions_produce_no_tasks() {
        let (r_buf, s_buf) = (
            BufferId::from_raw_for_tests(0),
            BufferId::from_raw_for_tests(1),
        );
        let pairs = [
            pair(r_buf, 0..0, s_buf, 0..3),
            pair(r_buf, 0..5, s_buf, 3..3),
        ];
        let tasks = build_nm_tasks(pairs, 64);
        // Pair 0: empty R; pair 1: empty S.
        assert!(tasks.is_empty());
    }
}
