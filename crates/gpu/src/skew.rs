//! GSH's post-partition skew machinery (§IV-B steps 2–3 and 5): detection
//! in large partitions, splitting large partitions into per-skewed-key
//! arrays plus a normal residue, and the dedicated skew-output kernel (one
//! thread block per skewed R tuple).
//!
//! Detection follows the paper: a ~1 % strided sample of each large
//! partition is counted in a shared-memory table, and the top-k keys seen
//! at least twice are skewed ([`detect_skew`]).

use skewjoin_common::hash::mix32;
use skewjoin_common::{JoinError, Key, OutputSink};
use skewjoin_gpu_sim::BufferId;

use crate::backend::{BlockOps, DeviceKernel, GpuBackend};
use crate::config::GpuSkewConfig;
use crate::pack::{as_tuples, key_of, payload_of};
use crate::partition::DevicePartitioned;

/// Skewed keys detected in one large partition.
#[derive(Debug, Clone)]
pub struct DetectedSkew {
    /// The partition id.
    pub pid: usize,
    /// Up to `top_k` keys, most frequent in the sample first.
    pub keys: Vec<Key>,
    /// Sample hits of each key; parallel to `keys`.
    pub freqs: Vec<u64>,
}

/// Samples each large partition (~1 %), counts key frequencies in a
/// linear-probing shared-memory table, and returns the top-k keys per
/// partition (§IV-B step 2). One block per large partition.
pub fn detect_skew(
    backend: &mut dyn GpuBackend,
    parted_r: &DevicePartitioned,
    large_pids: &[usize],
    cfg: &GpuSkewConfig,
    block_dim: usize,
) -> Result<Vec<DetectedSkew>, JoinError> {
    if large_pids.is_empty() {
        return Ok(Vec::new());
    }
    let mut kernel = SampleKernel {
        parted: parted_r,
        pids: large_pids,
        cfg,
        results: vec![Vec::new(); large_pids.len()],
        scratch_idx: Vec::new(),
        scratch_vals: Vec::new(),
    };
    backend.launch("gsh_detect", large_pids.len(), block_dim, &mut kernel)?;
    Ok(large_pids
        .iter()
        .zip(kernel.results)
        .map(|(&pid, entries)| {
            let (keys, freqs) = entries.into_iter().unzip();
            DetectedSkew { pid, keys, freqs }
        })
        .collect())
}

struct SampleKernel<'a> {
    parted: &'a DevicePartitioned,
    pids: &'a [usize],
    cfg: &'a GpuSkewConfig,
    results: Vec<Vec<(Key, u64)>>,
    scratch_idx: Vec<usize>,
    scratch_vals: Vec<u64>,
}

impl DeviceKernel for SampleKernel<'_> {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let pid = self.pids[ctx.block_idx()];
        let range = self.parted.range(pid);
        let len = range.len();
        if len == 0 {
            return;
        }
        let samples = ((len as f64 * self.cfg.sample_rate).round() as usize).clamp(1, len);
        let stride = len / samples;

        // Linear-probing frequency table in shared memory (key, count).
        let cap = (samples * 2).next_power_of_two().max(8);
        let table_region = ctx.try_shared_alloc(cap, 8);
        // If the sample table would not fit (enormous partition), fall back
        // to a smaller capacity — the hardware code would clamp likewise.
        let cap = if table_region.is_some() {
            cap
        } else {
            let fit = (ctx.shared_mem_per_block() - ctx.shared_used()) / 8;
            // `next_power_of_two()/2` is 0 for fit ≤ 1, and the table below
            // needs at least a few slots for its mask arithmetic; if not
            // even a minimal table fits, leave the partition unsampled (no
            // keys detected) rather than indexing through an underflowed
            // mask.
            let c = (fit.next_power_of_two() / 2).max(8);
            if ctx.try_shared_alloc(c, 8).is_none() {
                return;
            }
            c
        };
        let mask = cap - 1;
        let mut keys = vec![0u32; cap];
        let mut counts = vec![0u32; cap];

        // Strided sampling: scattered reads (charged as such).
        let warp = ctx.warp_size();
        let mut j = 0usize;
        while j < samples {
            let hi = (j + warp).min(samples);
            self.scratch_idx.clear();
            self.scratch_idx
                .extend((j..hi).map(|k| range.start + (k * stride).min(len - 1)));
            ctx.warp_gather(self.parted.buf, &self.scratch_idx, &mut self.scratch_vals);
            ctx.alu(2);
            for &w in &self.scratch_vals {
                let key = key_of(w);
                let mut slot = (mix32(key) as usize) & mask;
                let mut probes = 1u64;
                loop {
                    if counts[slot] == 0 {
                        keys[slot] = key;
                        counts[slot] = 1;
                        break;
                    }
                    if keys[slot] == key {
                        counts[slot] += 1;
                        break;
                    }
                    slot = (slot + 1) & mask;
                    probes += 1;
                }
                ctx.charge_shared_accesses(probes);
            }
            // One insert atomic per warp (amortized view of per-lane CAS).
            ctx.charge_shared_atomics(1, 2);
            j = hi;
        }
        ctx.syncthreads();

        // Top-k scan over the table.
        ctx.charge_shared_accesses((cap as u64).div_ceil(warp as u64));
        ctx.alu((cap as u64).div_ceil(warp as u64));
        let mut entries: Vec<(u32, Key)> = keys
            .iter()
            .zip(counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&k, &c)| (c, k))
            .collect();
        entries.sort_unstable_by(|a, b| b.cmp(a));
        // Only keys sampled more than once qualify — a singleton sample
        // carries no evidence of skew.
        let top: Vec<(Key, u64)> = entries
            .into_iter()
            .filter(|&(c, _)| c >= 2)
            .take(self.cfg.top_k)
            .map(|(c, k)| (k, u64::from(c)))
            .collect();
        // Write the result row to global memory for the host.
        ctx.account_stream_bytes((self.cfg.top_k * 8) as u64);
        self.results[ctx.block_idx()] = top;
    }
}

/// One large partition divided into per-skewed-key arrays and a normal
/// residue (§IV-B step 3).
#[derive(Debug, Clone)]
pub struct SplitPartition {
    /// The source partition id.
    pub pid: usize,
    /// The skewed keys (same order as `skew_starts` segments).
    pub keys: Vec<Key>,
    /// Device buffer holding all skewed-key arrays back to back.
    pub skew_buf: BufferId,
    /// Array boundaries within `skew_buf` (length = keys + 1).
    pub skew_starts: Vec<usize>,
    /// Device buffer holding the normal residue.
    pub norm_buf: BufferId,
    /// Residue length in tuples.
    pub norm_len: usize,
}

/// Splits partition `pid` of `parted` by `keys` with a count kernel + a
/// contention-free scatter kernel (the partitioner's count-then-scatter
/// discipline).
pub fn split_large_partition(
    backend: &mut dyn GpuBackend,
    parted: &DevicePartitioned,
    pid: usize,
    keys: &[Key],
    block_dim: usize,
    label: &str,
) -> Result<SplitPartition, JoinError> {
    let range = parted.range(pid);

    // Host mirror for cursor planning (the kernels do the costed work).
    let mut key_counts = vec![0usize; keys.len()];
    let mut norm_len = 0usize;
    for &w in &backend.host_slice(parted.buf)[range.clone()] {
        match keys.iter().position(|&k| k == key_of(w)) {
            Some(i) => key_counts[i] += 1,
            None => norm_len += 1,
        }
    }
    let mut skew_starts = Vec::with_capacity(keys.len() + 1);
    let mut acc = 0usize;
    for &c in &key_counts {
        skew_starts.push(acc);
        acc += c;
    }
    skew_starts.push(acc);

    let skew_buf = backend.alloc(
        acc.max(1),
        8,
        &format!("skew arrays for partition {pid} ({acc} tuples)"),
    )?;
    let norm_buf = backend.alloc(
        norm_len.max(1),
        8,
        &format!("normal residue for partition {pid} ({norm_len} tuples)"),
    )?;

    let mut kernel = SplitKernel {
        src: parted.buf,
        range: range.clone(),
        keys,
        skew_buf,
        skew_cursors: skew_starts[..keys.len()].to_vec(),
        norm_buf,
        norm_cursor: 0,
        block_dim,
        scratch_idx: Vec::new(),
        scratch_vals: Vec::new(),
        scratch_writes: Vec::new(),
    };
    // Count pass + scatter pass: the count is charged as a first streaming
    // launch, the scatter does the real work.
    let chunks = range.len().div_ceil(block_dim * 8).max(1);
    let mut count_pass = CountOnlyKernel {
        src: parted.buf,
        range,
        keys_len: keys.len(),
        block_dim,
    };
    backend.launch(
        &format!("{label}_count"),
        chunks,
        block_dim,
        &mut count_pass,
    )?;
    backend.launch(&format!("{label}_scatter"), chunks, block_dim, &mut kernel)?;

    Ok(SplitPartition {
        pid,
        keys: keys.to_vec(),
        skew_buf,
        skew_starts,
        norm_buf,
        norm_len,
    })
}

/// Count pass of the split: streams the partition comparing each tuple with
/// the ≤ k skewed keys (registers), accumulating per-block counters.
struct CountOnlyKernel {
    src: BufferId,
    range: std::ops::Range<usize>,
    keys_len: usize,
    block_dim: usize,
}

impl DeviceKernel for CountOnlyKernel {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let chunk = self.block_dim * 8;
        let lo = self.range.start + ctx.block_idx() * chunk;
        let hi = (lo + chunk).min(self.range.end);
        if lo >= hi {
            return;
        }
        ctx.account_contiguous_read(self.src, hi - lo);
        // k comparisons per tuple, one warp instruction per key per warp.
        let warps = ((hi - lo) as u64).div_ceil(ctx.warp_size() as u64);
        ctx.alu(warps * self.keys_len.max(1) as u64);
        // Flush the (k + 1) per-block counters.
        ctx.account_stream_bytes(((self.keys_len + 1) * 4) as u64);
    }
}

/// Scatter pass of the split. Cursors are shared across blocks here (the
/// host precomputed a single cursor set); contention-free because the
/// backend contract runs blocks in block-index order — the modeled cost is
/// identical to per-block prefix-summed cursors.
struct SplitKernel<'a> {
    src: BufferId,
    range: std::ops::Range<usize>,
    keys: &'a [Key],
    skew_buf: BufferId,
    skew_cursors: Vec<usize>,
    norm_buf: BufferId,
    norm_cursor: usize,
    block_dim: usize,
    scratch_idx: Vec<usize>,
    scratch_vals: Vec<u64>,
    scratch_writes: Vec<(usize, u64)>,
}

impl DeviceKernel for SplitKernel<'_> {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let chunk = self.block_dim * 8;
        let lo = self.range.start + ctx.block_idx() * chunk;
        let hi = (lo + chunk).min(self.range.end);
        if lo >= hi {
            return;
        }
        let warp = ctx.warp_size();
        let mut i = lo;
        while i < hi {
            let end = (i + warp).min(hi);
            self.scratch_idx.clear();
            self.scratch_idx.extend(i..end);
            ctx.warp_gather(self.src, &self.scratch_idx, &mut self.scratch_vals);
            ctx.alu(self.keys.len().max(1) as u64);

            // Partition the warp's tuples between skew arrays and residue.
            self.scratch_writes.clear();
            let mut norm_writes: Vec<(usize, u64)> = Vec::new();
            for &w in &self.scratch_vals {
                match self.keys.iter().position(|&k| k == key_of(w)) {
                    Some(ki) => {
                        self.scratch_writes.push((self.skew_cursors[ki], w));
                        self.skew_cursors[ki] += 1;
                    }
                    None => {
                        norm_writes.push((self.norm_cursor, w));
                        self.norm_cursor += 1;
                    }
                }
            }
            if !self.scratch_writes.is_empty() {
                ctx.warp_scatter(self.skew_buf, &self.scratch_writes);
            }
            if !norm_writes.is_empty() {
                ctx.warp_scatter(self.norm_buf, &norm_writes);
            }
            i = end;
        }
    }
}

/// One skew-output block task: one skewed R tuple crossed with the matching
/// skewed S array (§IV-B step 5).
#[derive(Debug, Clone)]
pub struct SkewOutputTask {
    /// The skewed key.
    pub key: Key,
    /// The packed R tuple this block owns.
    pub r_word: u64,
    /// Buffer holding the skewed S array.
    pub s_buf: BufferId,
    /// The S array range.
    pub s_range: std::ops::Range<usize>,
}

/// The skew-output kernel: block `i` streams `tasks[i]`'s S array with
/// coalesced reads and writes the cross-product results — no per-tuple
/// synchronization, no hash probing, no key verification.
pub struct SkewJoinKernel<'a, S> {
    /// One task per block.
    pub tasks: &'a [SkewOutputTask],
    /// Per-SM-slot sinks.
    pub sinks: &'a mut [S],
}

impl<S: OutputSink> DeviceKernel for SkewJoinKernel<'_, S> {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let task = &self.tasks[ctx.block_idx()];
        if task.s_range.is_empty() {
            return;
        }
        // One read for the block's own R tuple.
        ctx.account_stream_bytes(8);
        let r_payload = payload_of(task.r_word);
        let sink = &mut self.sinks[ctx.sm_slot()];

        let block_dim = ctx.block_dim();
        let mut s = task.s_range.start;
        while s < task.s_range.end {
            let end = (s + block_dim).min(task.s_range.end);
            let len = end - s;
            ctx.account_contiguous_read(task.s_buf, len);
            sink.emit_s_run(
                task.key,
                r_payload,
                &as_tuples(ctx.read_run(task.s_buf, s..end)),
            );
            ctx.alu((len as u64).div_ceil(ctx.warp_size() as u64));
            // Fully coalesced output write.
            ctx.account_stream_bytes(len as u64 * 12);
            s = end;
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::pack::{pack, upload_relation};
    use skewjoin_common::{CountingSink, Relation, Tuple};
    use skewjoin_gpu_sim::DeviceSpec;

    fn backend() -> SimBackend {
        SimBackend::new(DeviceSpec::tiny(1 << 24))
    }

    fn single_partition(backend: &mut dyn GpuBackend, rel: &Relation) -> DevicePartitioned {
        let buf = upload_relation(backend, rel, "test partition").unwrap();
        DevicePartitioned {
            buf,
            starts: vec![0, rel.len()],
        }
    }

    #[test]
    fn detects_dominant_keys() {
        let mut dev = backend();
        let mut keys = vec![100u32; 3000];
        keys.extend(vec![200u32; 2000]);
        keys.extend(0..3000u32);
        let rel = Relation::from_keys(&keys);
        let parted = single_partition(&mut dev, &rel);
        let found = detect_skew(&mut dev, &parted, &[0], &GpuSkewConfig::default(), 64).unwrap();
        assert_eq!(found.len(), 1);
        assert!(found[0].keys.contains(&100), "keys: {:?}", found[0].keys);
        assert!(found[0].keys.contains(&200));
        assert!(found[0].keys.len() <= 3);
    }

    #[test]
    fn no_large_partitions_no_work() {
        let mut dev = backend();
        let before = dev.total_cycles();
        let found = detect_skew(
            &mut dev,
            &DevicePartitioned {
                buf: BufferId::from_raw_for_tests(0),
                starts: vec![0],
            },
            &[],
            &GpuSkewConfig::default(),
            64,
        )
        .unwrap();
        assert!(found.is_empty());
        assert_eq!(dev.total_cycles(), before);
    }

    #[test]
    fn uniform_partition_detects_nothing() {
        let mut dev = backend();
        let keys: Vec<u32> = (0..5000).collect();
        let rel = Relation::from_keys(&keys);
        let parted = single_partition(&mut dev, &rel);
        let found = detect_skew(&mut dev, &parted, &[0], &GpuSkewConfig::default(), 64).unwrap();
        assert!(
            found[0].keys.is_empty(),
            "uniform data flagged {:?}",
            found[0].keys
        );
    }

    #[test]
    fn split_separates_skewed_and_normal() {
        let mut dev = backend();
        let mut keys = vec![7u32; 500];
        keys.extend(vec![9u32; 300]);
        keys.extend(1000..1200u32);
        let rel = Relation::from_keys(&keys);
        let parted = single_partition(&mut dev, &rel);
        let split = split_large_partition(&mut dev, &parted, 0, &[7, 9], 64, "split").unwrap();

        assert_eq!(split.skew_starts, vec![0, 500, 800]);
        assert_eq!(split.norm_len, 200);
        // Array 0 = key 7, array 1 = key 9.
        for i in 0..500 {
            assert_eq!(key_of(dev.host_read(split.skew_buf, i)), 7);
        }
        for i in 500..800 {
            assert_eq!(key_of(dev.host_read(split.skew_buf, i)), 9);
        }
        for i in 0..200 {
            let k = key_of(dev.host_read(split.norm_buf, i));
            assert!((1000..1200).contains(&k));
        }
    }

    #[test]
    fn skew_kernel_emits_cross_product() {
        let mut dev = backend();
        let s_rel = Relation::from_tuples((0..100).map(|i| Tuple::new(7, i)).collect());
        let s_buf = upload_relation(&mut dev, &s_rel, "skewed S").unwrap();
        // 10 R tuples → 10 blocks, each emitting 100 results.
        let tasks: Vec<SkewOutputTask> = (0..10)
            .map(|i| SkewOutputTask {
                key: 7,
                r_word: pack(Tuple::new(7, i)),
                s_buf,
                s_range: 0..100,
            })
            .collect();
        let mut sinks: Vec<CountingSink> = (0..dev.spec().num_sms)
            .map(|_| CountingSink::new())
            .collect();
        let mut kernel = SkewJoinKernel {
            tasks: &tasks,
            sinks: &mut sinks,
        };
        let stats = dev.launch("skew", tasks.len(), 64, &mut kernel).unwrap();
        let total: u64 = sinks.iter().map(|s| s.count()).sum();
        assert_eq!(total, 1000);
        // No synchronization in this phase.
        assert_eq!(stats.metrics.barriers, 0);
        assert_eq!(stats.metrics.sync_cycles, 0);
    }
}
