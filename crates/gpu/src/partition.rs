//! GPU radix partitioning kernels (two passes, shared-memory-sized
//! partitions): the one partitioner both GPU joins call.
//!
//! [`gpu_partition`] moves the data the same way in one of two cost
//! styles, and picks the style itself from the input size, the radix and
//! the device's SM count:
//!
//! * **Count-then-scatter** (GSH's "simple count then partition", §IV-B
//!   step 1): a count kernel with shared-memory histograms, a scan, and a
//!   contention-free scatter kernel. Two reads of the input per pass and
//!   almost no atomics, but the scan is a single block that walks one
//!   counter per (block, child partition).
//! * **Linked buckets** (Gbase's dynamic bucket scheme, Sioulas et al.):
//!   one read per pass, but every warp pays a global atomic cursor update
//!   and an allocation atomic whenever a bucket fills. Partitions are
//!   stored contiguously (see the crate-level simplification note); each
//!   [`BUCKET_CAPACITY`]-tuple chunk stands for one linked bucket.
//!
//! The rule: count first while the scan has fewer counters than its block
//! has threads, per wave of blocks over the SMs (blocks × fanout <
//! `block_dim` × waves). On the A100 profile this is the measured
//! crossover, between 2^15 and 2^16 tuples at 256 threads a block;
//! DESIGN.md names the profiles where it picks the dearer style.
//!
//! Either style produces a [`DevicePartitioned`]: tuples grouped by final
//! partition in *pass-major* order (pass-0 digit most significant), with a
//! host-visible directory — partition offsets are device metadata a real
//! implementation would also keep on the host for kernel launches.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::{JoinError, Key};
use skewjoin_gpu_sim::BufferId;

use crate::backend::{BlockOps, DeviceKernel, GpuBackend};
use crate::lane_collisions;
use crate::pack::key_of;

/// A partitioned relation resident in device memory.
#[derive(Debug, Clone)]
pub struct DevicePartitioned {
    /// Device buffer holding the tuples grouped by final partition.
    pub buf: BufferId,
    /// Partition start offsets (length = partitions + 1).
    pub starts: Vec<usize>,
}

impl DevicePartitioned {
    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.starts.len() - 1
    }

    /// Size of partition `pid` in tuples.
    pub fn size(&self, pid: usize) -> usize {
        self.starts[pid + 1] - self.starts[pid]
    }

    /// Range of partition `pid` within the buffer.
    pub fn range(&self, pid: usize) -> std::ops::Range<usize> {
        self.starts[pid]..self.starts[pid + 1]
    }
}

/// Final (pass-major) partition id of `key` — must agree between R and S and
/// with the CPU implementation's `memory_pid`.
#[inline]
pub fn final_pid(cfg: &RadixConfig, key: Key) -> usize {
    let mut pid = 0usize;
    for pass in 0..cfg.bits_per_pass.len() {
        pid = (pid << cfg.bits_per_pass[pass]) | cfg.partition_of(key, pass);
    }
    pid
}

/// Tuples per linked bucket: the allocation granularity of the
/// linked-bucket style.
pub const BUCKET_CAPACITY: usize = 512;

/// Tuples each block processes per pass (block-striped chunks).
fn chunk_size(block_dim: usize) -> usize {
    block_dim * 8
}

/// Whether partitioning `n` tuples with `cfg` on `num_sms` SMs counts
/// first. Counting first adds a count kernel and drops the linked buckets'
/// per-warp atomics; each costs about a block's work per wave of blocks
/// over the SMs. What remains is the one-block scan over blocks × fanout
/// counters, so count first while it has fewer than `block_dim` per wave.
fn counts_first(n: usize, cfg: &RadixConfig, block_dim: usize, num_sms: usize) -> bool {
    let fanout = (0..cfg.bits_per_pass.len())
        .map(|pass| cfg.fanout(pass))
        .max()
        .unwrap_or(1);
    let blocks = n.div_ceil(chunk_size(block_dim));
    blocks * fanout < block_dim * blocks.div_ceil(num_sms).max(1)
}

/// Partitions `input` (packed tuples) with all passes of `cfg`, counting
/// first or in linked buckets as the module's rule picks. Returns the
/// partitioned buffer + directory; intermediate buffers are freed.
pub fn gpu_partition(
    backend: &mut dyn GpuBackend,
    input: BufferId,
    cfg: &RadixConfig,
    block_dim: usize,
) -> Result<DevicePartitioned, JoinError> {
    let n = backend.buffer_len(input);
    let count_first = counts_first(n, cfg, block_dim, backend.spec().num_sms);
    partition_in_style(backend, input, cfg, count_first, block_dim)
}

/// [`gpu_partition`] with the style given: count-then-scatter when
/// `count_first`, linked buckets otherwise.
fn partition_in_style(
    backend: &mut dyn GpuBackend,
    input: BufferId,
    cfg: &RadixConfig,
    count_first: bool,
    block_dim: usize,
) -> Result<DevicePartitioned, JoinError> {
    let n = backend.buffer_len(input);

    // ---- Pass 0 over the whole input. ----
    let out0 = backend.alloc(n, 8, &format!("partition buffer ({n} tuples)"))?;
    let starts0 = run_pass(
        backend,
        input,
        None,
        out0,
        cfg,
        0,
        count_first,
        block_dim,
        "partition_pass0",
    )?;

    if cfg.bits_per_pass.len() == 1 {
        return Ok(DevicePartitioned {
            buf: out0,
            starts: starts0,
        });
    }

    // ---- Pass 1: one block-group per parent partition. ----
    let out1 = backend.alloc(n, 8, &format!("second partition buffer ({n} tuples)"))?;
    let starts1 = run_pass(
        backend,
        out0,
        Some(&starts0),
        out1,
        cfg,
        1,
        count_first,
        block_dim,
        "partition_pass1",
    )?;
    backend.free(out0);

    assert!(
        cfg.bits_per_pass.len() <= 2,
        "GPU partitioning supports at most two passes (as in the paper)"
    );

    Ok(DevicePartitioned {
        buf: out1,
        starts: starts1,
    })
}

/// Runs one radix pass. With `parent_starts == None` the pass covers the
/// whole input in block-striped chunks; otherwise each parent partition is
/// processed by its own chunk-blocks and children stay within the parent's
/// range (pass-major order).
#[allow(clippy::too_many_arguments)]
fn run_pass(
    backend: &mut dyn GpuBackend,
    input: BufferId,
    parent_starts: Option<&[usize]>,
    output: BufferId,
    cfg: &RadixConfig,
    pass: usize,
    count_first: bool,
    block_dim: usize,
    name: &str,
) -> Result<Vec<usize>, JoinError> {
    let n = backend.buffer_len(input);
    let fanout = cfg.fanout(pass);
    let chunk = chunk_size(block_dim);

    // Host-side block plan: (input range, output base) per block. For pass 0
    // the output base is the global array; for pass 1 each parent's children
    // are scattered within the parent's own range.
    let ranges: Vec<(usize, usize)> = match parent_starts {
        None => vec![(0, n)],
        Some(starts) => starts.windows(2).map(|w| (w[0], w[1])).collect(),
    };

    // Per-region chunk blocks.
    let mut blocks: Vec<BlockPlan> = Vec::new();
    for (region_idx, &(lo, hi)) in ranges.iter().enumerate() {
        let mut start = lo;
        while start < hi {
            let end = (start + chunk).min(hi);
            blocks.push(BlockPlan {
                region: region_idx,
                range: start..end,
            });
            start = end;
        }
        // Empty regions simply contribute no blocks; their child starts are
        // still emitted below so the directory stays dense.
    }

    // Functional pre-computation of per-block histograms and write cursors
    // (host mirror of what the count kernel + scan produce).
    let data = backend.host_slice(input);
    let mut block_hists: Vec<Vec<usize>> = Vec::with_capacity(blocks.len());
    for plan in &blocks {
        let mut hist = vec![0usize; fanout];
        for &word in &data[plan.range.clone()] {
            hist[cfg.partition_of(key_of(word), pass)] += 1;
        }
        block_hists.push(hist);
    }

    // Region-local child offsets: children of a region are contiguous and
    // ordered, blocks within a region write in block order.
    let mut region_child_sizes: Vec<Vec<usize>> = vec![vec![0usize; fanout]; ranges.len()];
    for (plan, hist) in blocks.iter().zip(&block_hists) {
        for (p, &c) in hist.iter().enumerate() {
            region_child_sizes[plan.region][p] += c;
        }
    }
    let mut region_child_starts: Vec<Vec<usize>> = Vec::with_capacity(ranges.len());
    for (region_idx, sizes) in region_child_sizes.iter().enumerate() {
        let mut acc = ranges[region_idx].0;
        let mut starts = Vec::with_capacity(fanout + 1);
        for &s in sizes {
            starts.push(acc);
            acc += s;
        }
        starts.push(acc);
        region_child_starts.push(starts);
    }
    // Per-block write cursors.
    let mut cursors: Vec<Vec<usize>> = Vec::with_capacity(blocks.len());
    {
        let mut rolling: Vec<Vec<usize>> = region_child_starts
            .iter()
            .map(|s| s[..fanout].to_vec())
            .collect();
        for (plan, hist) in blocks.iter().zip(&block_hists) {
            cursors.push(rolling[plan.region].clone());
            for (p, &c) in hist.iter().enumerate() {
                rolling[plan.region][p] += c;
            }
        }
    }

    // ---- Count kernel (count-then-scatter only) + scan accounting. ----
    if count_first {
        let mut count_kernel = CountKernel {
            input,
            cfg,
            pass,
            blocks: &blocks,
            scratch: Scratch::default(),
        };
        backend.launch(
            &format!("{name}_count"),
            blocks.len().max(1),
            block_dim,
            &mut count_kernel,
        )?;
        // Scan over (blocks × fanout) counters.
        let words = (blocks.len() * fanout) as u64;
        let mut scan = StreamKernel {
            bytes: words * 8, // read + write once each (4 B counters, 2 ops)
        };
        backend.launch(&format!("{name}_scan"), 1, block_dim, &mut scan)?;
    }

    // ---- Scatter kernel. ----
    let mut scatter = ScatterKernel {
        input,
        output,
        cfg,
        pass,
        blocks: &blocks,
        cursors,
        count_first,
        lane_counts: vec![0; fanout],
        scratch: Scratch::default(),
    };
    backend.launch(
        &format!("{name}_scatter"),
        blocks.len().max(1),
        block_dim,
        &mut scatter,
    )?;

    // Flattened child directory in pass-major order; the terminator is the
    // end of the data region.
    let mut out_starts = Vec::with_capacity(ranges.len() * fanout + 1);
    for starts in &region_child_starts {
        out_starts.extend_from_slice(&starts[..fanout]);
    }
    out_starts.push(ranges.last().map(|&(_, hi)| hi).unwrap_or(n));
    Ok(out_starts)
}

struct BlockPlan {
    region: usize,
    range: std::ops::Range<usize>,
}

/// Reusable per-kernel scratch vectors (avoids allocation per warp call).
#[derive(Default)]
struct Scratch {
    idx: Vec<usize>,
    vals: Vec<u64>,
    writes: Vec<(usize, u64)>,
    atomic_ops: Vec<(usize, u64)>,
    old: Vec<u64>,
    /// Child partition of each lane.
    lanes: Vec<usize>,
}

/// Count kernel: histograms a block's chunk into shared memory, then flushes
/// the counters to global memory.
struct CountKernel<'a> {
    input: BufferId,
    cfg: &'a RadixConfig,
    pass: usize,
    blocks: &'a [BlockPlan],
    scratch: Scratch,
}

impl DeviceKernel for CountKernel<'_> {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let Some(plan) = self.blocks.get(ctx.block_idx()) else {
            return;
        };
        let fanout = self.cfg.fanout(self.pass);
        let hist = ctx.shared_alloc(fanout, 4);
        let warp = ctx.warp_size();
        let mut i = plan.range.start;
        while i < plan.range.end {
            let hi = (i + warp).min(plan.range.end);
            self.scratch.idx.clear();
            self.scratch.idx.extend(i..hi);
            ctx.warp_gather(self.input, &self.scratch.idx, &mut self.scratch.vals);
            ctx.alu(2); // hash + digit extract
            self.scratch.atomic_ops.clear();
            self.scratch.atomic_ops.extend(
                self.scratch
                    .vals
                    .iter()
                    .map(|&w| (self.cfg.partition_of(key_of(w), self.pass), 1u64)),
            );
            ctx.shared_atomic_add(hist, &self.scratch.atomic_ops, &mut self.scratch.old);
            i = hi;
        }
        ctx.syncthreads();
        // Flush fanout counters to the global histogram array (coalesced).
        ctx.account_stream_bytes((fanout * 4) as u64);
    }
}

/// Scatter kernel: re-reads the chunk and writes each tuple at its
/// prefix-summed position. The linked-bucket style charges atomic cursor
/// traffic and bucket-allocation atomics instead of the (free) register
/// cursors of the count-then-scatter scheme.
struct ScatterKernel<'a> {
    input: BufferId,
    output: BufferId,
    cfg: &'a RadixConfig,
    pass: usize,
    blocks: &'a [BlockPlan],
    /// Per-block write cursors per child partition (host-precomputed; relies
    /// on the backend contract that blocks run in block-index order).
    cursors: Vec<Vec<usize>>,
    count_first: bool,
    /// Lanes per child partition in the current warp, for
    /// [`lane_collisions`].
    lane_counts: Vec<u16>,
    scratch: Scratch,
}

impl DeviceKernel for ScatterKernel<'_> {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        let Some(plan) = self.blocks.get(ctx.block_idx()) else {
            return;
        };
        let cursors = &mut self.cursors[ctx.block_idx()];
        let warp = ctx.warp_size();
        let mut i = plan.range.start;
        while i < plan.range.end {
            let hi = (i + warp).min(plan.range.end);
            self.scratch.idx.clear();
            self.scratch.idx.extend(i..hi);
            ctx.warp_gather(self.input, &self.scratch.idx, &mut self.scratch.vals);
            ctx.alu(2);

            self.scratch.writes.clear();
            if self.count_first {
                for &w in &self.scratch.vals {
                    let p = self.cfg.partition_of(key_of(w), self.pass);
                    self.scratch.writes.push((cursors[p], w));
                    cursors[p] += 1;
                }
            } else {
                // One atomic cursor bump per lane; serialization grows
                // with same-partition lanes (skew makes this worse).
                self.scratch.lanes.clear();
                for &w in &self.scratch.vals {
                    let p = self.cfg.partition_of(key_of(w), self.pass);
                    self.scratch.lanes.push(p);
                    let pos = cursors[p];
                    cursors[p] += 1;
                    // Crossing a bucket boundary = allocate a new bucket:
                    // one more global atomic + a pointer write.
                    if pos.is_multiple_of(BUCKET_CAPACITY) {
                        ctx.charge_global_atomics(1, 1);
                        ctx.account_stream_bytes(8);
                    }
                    self.scratch.writes.push((pos, w));
                }
                let max_dup = lane_collisions(&mut self.lane_counts, &self.scratch.lanes);
                ctx.charge_global_atomics(1, max_dup);
            }
            ctx.warp_scatter(self.output, &self.scratch.writes);
            i = hi;
        }
    }
}

/// Accounts a flat byte stream (used to model scan kernels over counter
/// arrays).
struct StreamKernel {
    bytes: u64,
}

impl DeviceKernel for StreamKernel {
    fn block(&mut self, ctx: &mut dyn BlockOps) {
        ctx.account_stream_bytes(self.bytes * 2); // read + write
        ctx.alu(self.bytes / 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{HostBackend, SimBackend};
    use crate::pack::{pack, unpack};
    use skewjoin_common::{Relation, Tuple};
    use skewjoin_gpu_sim::DeviceSpec;

    fn upload(backend: &mut dyn GpuBackend, rel: &Relation) -> BufferId {
        crate::pack::upload_relation(backend, rel, "test input").expect("fits")
    }

    fn check_partitioned(
        backend: &dyn GpuBackend,
        parted: &DevicePartitioned,
        cfg: &RadixConfig,
        original: &Relation,
    ) {
        assert_eq!(*parted.starts.last().unwrap(), original.len());
        // Multiset preserved.
        let mut got: Vec<Tuple> = backend
            .host_slice(parted.buf)
            .iter()
            .map(|&w| unpack(w))
            .collect();
        let mut orig = original.tuples().to_vec();
        got.sort_unstable_by_key(|t| (t.key, t.payload));
        orig.sort_unstable_by_key(|t| (t.key, t.payload));
        assert_eq!(got, orig);
        // Every tuple in its final_pid partition.
        for pid in 0..parted.partitions() {
            for i in parted.range(pid) {
                let t = unpack(backend.host_read(parted.buf, i));
                assert_eq!(final_pid(cfg, t.key), pid, "tuple at {i}");
            }
        }
    }

    fn test_relation(n: usize) -> Relation {
        Relation::from_tuples(
            (0..n)
                .map(|i| Tuple::new((i as u32).wrapping_mul(2654435761) % 113, i as u32))
                .collect(),
        )
    }

    /// Runs the partitioner in the given style, or by the rule when `None`.
    fn partition(
        backend: &mut dyn GpuBackend,
        rel: &Relation,
        cfg: &RadixConfig,
        count_first: Option<bool>,
        block_dim: usize,
    ) -> DevicePartitioned {
        let buf = upload(backend, rel);
        match count_first {
            Some(count_first) => partition_in_style(backend, buf, cfg, count_first, block_dim),
            None => gpu_partition(backend, buf, cfg, block_dim),
        }
        .unwrap()
    }

    fn ran_count_kernel(backend: &dyn GpuBackend) -> bool {
        backend
            .launch_log()
            .iter()
            .any(|l| l.name.ends_with("_count"))
    }

    #[test]
    fn count_scatter_two_pass() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = test_relation(5000);
        let cfg = RadixConfig::two_pass(6);
        let parted = partition(&mut backend, &rel, &cfg, Some(true), 64);
        assert_eq!(parted.partitions(), 64);
        check_partitioned(&backend, &parted, &cfg, &rel);
        assert!(ran_count_kernel(&backend));
        assert!(backend.total_cycles() > 0);
    }

    #[test]
    fn linked_buckets_two_pass() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = test_relation(3000);
        let cfg = RadixConfig::two_pass(4);
        let parted = partition(&mut backend, &rel, &cfg, Some(false), 64);
        check_partitioned(&backend, &parted, &cfg, &rel);
        assert!(!ran_count_kernel(&backend));
    }

    #[test]
    fn rule_counts_first_below_the_a100_crossover() {
        // The measured crossover on the A100 profile (EXPERIMENTS.md) lies
        // between 2^15 and 2^16 tuples at the joins' derived radix. On 8
        // SMs counting first stays cheaper through 2^18.
        let join = crate::GpuJoinConfig::default();
        let cases = [
            (1 << 12, 108, true),
            (1 << 15, 108, true),
            (1 << 16, 108, false),
            (1 << 18, 108, false),
            (1 << 18, 8, true),
        ];
        for (n, sms, count_first) in cases {
            assert_eq!(
                counts_first(n, &join.derived_radix(n), join.block_dim, sms),
                count_first,
                "{n} tuples on {sms} SMs"
            );
        }
        // And gpu_partition follows the rule: on 4 SMs at 64 threads, 1
        // block × 4 children counts first, 4 blocks × 16 children do not.
        for (n, bits, count_first) in [(500, 4, true), (2048, 8, false)] {
            let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
            let rel = test_relation(n);
            let cfg = RadixConfig::two_pass(bits);
            let parted = partition(&mut backend, &rel, &cfg, None, 64);
            check_partitioned(&backend, &parted, &cfg, &rel);
            assert_eq!(ran_count_kernel(&backend), count_first, "{n} tuples");
        }
    }

    #[test]
    fn single_pass_partitioning() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = test_relation(1000);
        let cfg = RadixConfig::single_pass(3);
        let parted = partition(&mut backend, &rel, &cfg, None, 32);
        assert_eq!(parted.partitions(), 8);
        check_partitioned(&backend, &parted, &cfg, &rel);
    }

    #[test]
    fn empty_input() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let cfg = RadixConfig::two_pass(4);
        let parted = partition(&mut backend, &Relation::new(), &cfg, None, 32);
        assert_eq!(parted.partitions(), 16);
        assert!(parted.starts.iter().all(|&s| s == 0));
    }

    #[test]
    fn single_hot_key_lands_in_one_partition() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = Relation::from_tuples(vec![Tuple::new(42, 7); 1000]);
        let cfg = RadixConfig::two_pass(6);
        let parted = partition(&mut backend, &rel, &cfg, None, 64);
        let non_empty: Vec<usize> = (0..parted.partitions())
            .filter(|&p| parted.size(p) > 0)
            .collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(parted.size(non_empty[0]), 1000);
        assert_eq!(pack(Tuple::new(42, 7)), backend.host_read(parted.buf, 0));
    }

    #[test]
    fn linked_buckets_cost_more_atomics_than_count_scatter() {
        let rel = test_relation(4000);
        let cfg = RadixConfig::two_pass(4);
        let atomics = |count_first| {
            let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
            partition(&mut backend, &rel, &cfg, Some(count_first), 64);
            backend
                .launch_log()
                .iter()
                .map(|l| l.metrics.atomic_cycles)
                .sum::<u64>()
        };
        let (counted, linked) = (atomics(true), atomics(false));
        // Linked buckets pay global atomics per warp; count-then-scatter
        // only cheap shared-histogram atomics in the count kernel.
        assert!(
            linked > counted,
            "linked buckets {linked} ≤ count-scatter {counted}"
        );
    }

    #[test]
    fn host_backend_partitions_identically_to_sim() {
        let rel = test_relation(5000);
        let cfg = RadixConfig::two_pass(6);
        for count_first in [true, false] {
            let mut sim = SimBackend::new(DeviceSpec::tiny(1 << 22));
            let sim_parted = partition(&mut sim, &rel, &cfg, Some(count_first), 64);
            let mut host = HostBackend::new(DeviceSpec::tiny(1 << 22));
            let host_parted = partition(&mut host, &rel, &cfg, Some(count_first), 64);

            assert_eq!(sim_parted.starts, host_parted.starts);
            assert_eq!(
                sim.host_slice(sim_parted.buf),
                host.host_slice(host_parted.buf)
            );
            assert_eq!(host.total_cycles(), 0);
            check_partitioned(&host, &host_parted, &cfg, &rel);
        }
    }
}
