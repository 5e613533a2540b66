//! GPU radix partitioning kernels (two passes, shared-memory-sized
//! partitions).
//!
//! Two cost styles are implemented over the same data movement:
//!
//! * [`PartitionStyle::CountScatter`] — GSH's "simple count then partition"
//!   (§IV-B step 1): a count kernel with shared-memory histograms, a scan,
//!   and a contention-free scatter kernel. Two scans per pass, almost no
//!   atomics, fully coalesced reads.
//! * [`PartitionStyle::LinkedBuckets`] — Gbase's dynamic bucket scheme:
//!   one scan per pass, but every warp pays global atomic cursor updates
//!   and an allocation atomic whenever a bucket fills. Partitions are
//!   stored contiguously (see the crate-level simplification note); each
//!   `bucket_capacity` chunk stands for one linked bucket.
//!
//! Both produce a [`DevicePartitioned`]: tuples grouped by final partition
//! in *pass-major* order (pass-0 digit most significant), with a
//! host-visible directory — partition offsets are device metadata a real
//! implementation would also keep on the host for kernel launches.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::{JoinError, Key};
use skewjoin_gpu_sim::BufferId;

use crate::backend::{BlockOps, DeviceKernel, GpuBackend};
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

/// Cost style of the partitioning kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStyle {
    /// GSH: count kernel + scan + contention-free scatter (two scans/pass).
    CountScatter,
    /// Gbase: single scan per pass with atomic bucket cursors; an extra
    /// allocation atomic fires per `bucket_capacity` tuples.
    LinkedBuckets {
        /// Tuples per linked bucket.
        bucket_capacity: usize,
    },
}

/// Tuples each block processes per pass (block-striped chunks).
fn chunk_size(block_dim: usize) -> usize {
    block_dim * 8
}

/// Partitions `input` (packed tuples) with all passes of `cfg`. Returns the
/// partitioned buffer + directory; intermediate buffers are freed.
pub fn gpu_partition(
    backend: &mut dyn GpuBackend,
    input: BufferId,
    cfg: &RadixConfig,
    style: PartitionStyle,
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
        style,
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
        style,
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
    style: PartitionStyle,
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
    let data_snapshot: Vec<u64> = backend.host_slice(input).to_vec();
    let mut block_hists: Vec<Vec<usize>> = Vec::with_capacity(blocks.len());
    for plan in &blocks {
        let mut hist = vec![0usize; fanout];
        for &word in &data_snapshot[plan.range.clone()] {
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

    // ---- Count kernel (CountScatter style only) + scan accounting. ----
    if matches!(style, PartitionStyle::CountScatter) {
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
        style,
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
/// prefix-summed position. `LinkedBuckets` style charges atomic cursor
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
    style: PartitionStyle,
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
            match self.style {
                PartitionStyle::CountScatter => {
                    for &w in &self.scratch.vals {
                        let p = self.cfg.partition_of(key_of(w), self.pass);
                        self.scratch.writes.push((cursors[p], w));
                        cursors[p] += 1;
                    }
                }
                PartitionStyle::LinkedBuckets { bucket_capacity } => {
                    // One atomic cursor bump per lane; serialization grows
                    // with same-partition lanes (skew makes this worse).
                    let mut max_dup = 1u64;
                    let mut seen: Vec<(usize, u64)> = Vec::new();
                    for &w in &self.scratch.vals {
                        let p = self.cfg.partition_of(key_of(w), self.pass);
                        match seen.iter_mut().find(|(q, _)| *q == p) {
                            Some((_, c)) => {
                                *c += 1;
                                max_dup = max_dup.max(*c);
                            }
                            None => seen.push((p, 1)),
                        }
                        let pos = cursors[p];
                        cursors[p] += 1;
                        // Crossing a bucket boundary = allocate a new bucket:
                        // one more global atomic + a pointer write.
                        if pos.is_multiple_of(bucket_capacity) {
                            ctx.charge_global_atomics(1, 1);
                            ctx.account_stream_bytes(8);
                        }
                        self.scratch.writes.push((pos, w));
                    }
                    ctx.charge_global_atomics(1, max_dup);
                }
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

    #[test]
    fn count_scatter_two_pass() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = test_relation(5000);
        let buf = upload(&mut backend, &rel);
        let cfg = RadixConfig::two_pass(6);
        let parted =
            gpu_partition(&mut backend, buf, &cfg, PartitionStyle::CountScatter, 64).unwrap();
        assert_eq!(parted.partitions(), 64);
        check_partitioned(&backend, &parted, &cfg, &rel);
        assert!(backend.total_cycles() > 0);
    }

    #[test]
    fn linked_buckets_two_pass() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = test_relation(3000);
        let buf = upload(&mut backend, &rel);
        let cfg = RadixConfig::two_pass(4);
        let parted = gpu_partition(
            &mut backend,
            buf,
            &cfg,
            PartitionStyle::LinkedBuckets {
                bucket_capacity: 64,
            },
            64,
        )
        .unwrap();
        check_partitioned(&backend, &parted, &cfg, &rel);
    }

    #[test]
    fn single_pass_partitioning() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = test_relation(1000);
        let buf = upload(&mut backend, &rel);
        let cfg = RadixConfig::single_pass(3);
        let parted =
            gpu_partition(&mut backend, buf, &cfg, PartitionStyle::CountScatter, 32).unwrap();
        assert_eq!(parted.partitions(), 8);
        check_partitioned(&backend, &parted, &cfg, &rel);
    }

    #[test]
    fn empty_input() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = Relation::new();
        let buf = upload(&mut backend, &rel);
        let cfg = RadixConfig::two_pass(4);
        let parted =
            gpu_partition(&mut backend, buf, &cfg, PartitionStyle::CountScatter, 32).unwrap();
        assert_eq!(parted.partitions(), 16);
        assert!(parted.starts.iter().all(|&s| s == 0));
    }

    #[test]
    fn single_hot_key_lands_in_one_partition() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let rel = Relation::from_tuples(vec![Tuple::new(42, 7); 1000]);
        let buf = upload(&mut backend, &rel);
        let cfg = RadixConfig::two_pass(6);
        let parted =
            gpu_partition(&mut backend, buf, &cfg, PartitionStyle::CountScatter, 64).unwrap();
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

        let mut backend_a = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let buf_a = upload(&mut backend_a, &rel);
        gpu_partition(
            &mut backend_a,
            buf_a,
            &cfg,
            PartitionStyle::CountScatter,
            64,
        )
        .unwrap();
        let atomics_a: u64 = backend_a
            .launch_log()
            .iter()
            .map(|l| l.metrics.atomic_cycles)
            .sum();

        let mut backend_b = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let buf_b = upload(&mut backend_b, &rel);
        gpu_partition(
            &mut backend_b,
            buf_b,
            &cfg,
            PartitionStyle::LinkedBuckets {
                bucket_capacity: 64,
            },
            64,
        )
        .unwrap();
        let atomics_b: u64 = backend_b
            .launch_log()
            .iter()
            .map(|l| l.metrics.atomic_cycles)
            .sum();

        // Gbase pays global atomics per warp; GSH only cheap shared-hist
        // atomics in the count kernel.
        assert!(
            atomics_b > atomics_a,
            "linked buckets {atomics_b} ≤ count-scatter {atomics_a}"
        );
    }

    #[test]
    fn host_backend_partitions_identically_to_sim() {
        let rel = test_relation(5000);
        let cfg = RadixConfig::two_pass(6);

        let mut sim = SimBackend::new(DeviceSpec::tiny(1 << 22));
        let sim_buf = upload(&mut sim, &rel);
        let sim_parted =
            gpu_partition(&mut sim, sim_buf, &cfg, PartitionStyle::CountScatter, 64).unwrap();

        let mut host = HostBackend::new(DeviceSpec::tiny(1 << 22));
        let host_buf = upload(&mut host, &rel);
        let host_parted =
            gpu_partition(&mut host, host_buf, &cfg, PartitionStyle::CountScatter, 64).unwrap();

        assert_eq!(sim_parted.starts, host_parted.starts);
        assert_eq!(
            sim.host_slice(sim_parted.buf),
            host.host_slice(host_parted.buf)
        );
        assert_eq!(host.total_cycles(), 0);
        check_partitioned(&host, &host_parted, &cfg, &rel);
    }
}
