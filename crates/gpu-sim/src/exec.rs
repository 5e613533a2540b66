//! Kernel launch machinery: [`Device`], the [`Kernel`] trait, and
//! [`BlockCtx`] — the per-block handle through which kernels perform
//! *costed* warp-level operations.
//!
//! Kernels are ordinary Rust: [`Kernel::block`] runs once per thread block
//! (sequentially, in block-index order) and performs its work through
//! `BlockCtx` methods, each of which both executes the operation against
//! the simulated memory *and* charges modeled cycles. Device time is then
//! `max` over SMs of the cycles of the blocks dispatched to them —
//! dispatching is greedy to the least-loaded SM, like the hardware's block
//! scheduler — so stragglers (the skew pathology) dominate exactly as on
//! real hardware.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use skewjoin_common::{faults, JoinError};

use crate::memory::{BufferId, GlobalMemory};
use crate::metrics::Metrics;
use crate::spec::DeviceSpec;

/// A GPU kernel: `block` is invoked once per thread block.
///
/// ```
/// use skewjoin_gpu_sim::{BlockCtx, Device, DeviceSpec, Kernel};
///
/// /// Increments every element of a buffer, one 64-element chunk per block.
/// struct AddOne {
///     buf: skewjoin_gpu_sim::BufferId,
/// }
///
/// impl Kernel for AddOne {
///     fn block(&mut self, ctx: &mut BlockCtx<'_>) {
///         let start = ctx.block_idx * 64;
///         let mut vals = Vec::new();
///         for lane0 in (start..start + 64).step_by(ctx.warp_size()) {
///             let idx: Vec<usize> = (lane0..lane0 + ctx.warp_size()).collect();
///             ctx.warp_gather(self.buf, &idx, &mut vals);
///             ctx.alu(1);
///             let writes: Vec<(usize, u64)> =
///                 idx.iter().zip(&vals).map(|(&i, &v)| (i, v + 1)).collect();
///             ctx.warp_scatter(self.buf, &writes);
///         }
///     }
/// }
///
/// let mut dev = Device::new(DeviceSpec::a100());
/// let buf = dev.memory.alloc(256, 8).unwrap();
/// let stats = dev.launch("add_one", 4, 64, &mut AddOne { buf }).unwrap();
/// assert_eq!(dev.memory.host_read(buf, 255), 1);
/// assert!(stats.device_cycles > 0);
/// ```
pub trait Kernel {
    /// Executes one thread block's work against `ctx`.
    fn block(&mut self, ctx: &mut BlockCtx<'_>);
}

/// Handle to a shared-memory region allocated within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedId(usize);

impl SharedId {
    /// Builds a `SharedId` from a raw allocation index. Intended for
    /// alternative block-context implementations (e.g. a host-execution
    /// backend) that mirror the simulator's allocation order.
    #[doc(hidden)]
    pub fn from_raw(raw: usize) -> Self {
        SharedId(raw)
    }

    /// The raw allocation index behind this handle.
    #[doc(hidden)]
    pub fn raw(self) -> usize {
        self.0
    }
}

/// Validates a kernel launch configuration against a device spec — the
/// checks every backend must make before running blocks. Shared between
/// [`Device::launch`] and host-execution backends so both report identical
/// [`JoinError::InvalidConfig`] messages.
pub fn validate_launch_config(
    spec: &DeviceSpec,
    name: &str,
    grid_blocks: usize,
    block_dim: usize,
) -> Result<(), JoinError> {
    if block_dim == 0 {
        return Err(JoinError::InvalidConfig(format!(
            "kernel {name}: block_dim must be positive"
        )));
    }
    if block_dim > spec.max_threads_per_block {
        return Err(JoinError::InvalidConfig(format!(
            "kernel {name}: block_dim {block_dim} exceeds the device limit of {} threads per block",
            spec.max_threads_per_block
        )));
    }
    if !block_dim.is_multiple_of(spec.warp_size) {
        return Err(JoinError::InvalidConfig(format!(
            "kernel {name}: block_dim {block_dim} must be a multiple of the warp size ({})",
            spec.warp_size
        )));
    }
    if grid_blocks.checked_mul(block_dim).is_none() {
        return Err(JoinError::InvalidConfig(format!(
            "kernel {name}: grid of {grid_blocks} blocks × {block_dim} threads overflows"
        )));
    }
    Ok(())
}

/// Per-block execution context: identity, costed memory operations, and
/// this block's metrics.
pub struct BlockCtx<'a> {
    /// Index of this block within the grid.
    pub block_idx: usize,
    /// Threads in this block (a multiple of the warp size).
    pub block_dim: usize,
    /// The SM slot this block was dispatched to (stable across a launch;
    /// useful for per-SM resources such as output-sink pools).
    pub sm_slot: usize,
    spec: &'a DeviceSpec,
    mem: &'a mut GlobalMemory,
    /// Cycles and event counters charged so far by this block.
    pub metrics: Metrics,
    shared: Vec<(Vec<u64>, usize)>,
    shared_used: usize,
}

impl<'a> BlockCtx<'a> {
    /// Device specification (warp size, cost parameters, …).
    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    /// Number of warps in this block.
    pub fn warps(&self) -> usize {
        self.block_dim / self.spec.warp_size
    }

    /// Warp width shortcut.
    pub fn warp_size(&self) -> usize {
        self.spec.warp_size
    }

    // ---------------- Global memory (costed) ----------------

    /// Warp-wide gather: reads `indices` (≤ warp size lanes) of `buf` into
    /// `out`. Charges issue + transaction cycles per the coalescing model.
    pub fn warp_gather(&mut self, buf: BufferId, indices: &[usize], out: &mut Vec<u64>) {
        debug_assert!(indices.len() <= self.spec.warp_size);
        let tx = self
            .mem
            .account_transactions(buf, indices, &mut self.metrics);
        self.metrics.mem_cycles +=
            self.spec.costs.mem_issue + tx * self.spec.cycles_per_transaction();
        out.clear();
        out.extend(indices.iter().map(|&i| self.mem.read(buf, i)));
    }

    /// Like [`BlockCtx::warp_gather`] but for a *dependent* access (pointer
    /// chasing): additionally charges the un-hidable latency once for the
    /// warp step.
    pub fn warp_dependent_gather(&mut self, buf: BufferId, indices: &[usize], out: &mut Vec<u64>) {
        self.warp_gather(buf, indices, out);
        self.metrics.dependent_cycles += self.spec.costs.dependent_latency;
    }

    /// Warp-wide scatter of `(index, value)` pairs into `buf`.
    pub fn warp_scatter(&mut self, buf: BufferId, writes: &[(usize, u64)]) {
        debug_assert!(writes.len() <= self.spec.warp_size);
        let indices: Vec<usize> = writes.iter().map(|&(i, _)| i).collect();
        let tx = self
            .mem
            .account_transactions(buf, &indices, &mut self.metrics);
        self.metrics.mem_cycles +=
            self.spec.costs.mem_issue + tx * self.spec.cycles_per_transaction();
        for &(i, v) in writes {
            self.mem.write(buf, i, v);
        }
    }

    /// Streams `values` into `buf[start..]` — a fully coalesced warp write
    /// (e.g. GSH's skew output phase or partition scatter runs).
    pub fn write_contiguous(&mut self, buf: BufferId, start: usize, values: &[u64]) {
        let elem = self.mem.elem_bytes(buf);
        let bytes = values.len() * elem;
        let tx = (bytes as u64)
            .div_ceil(128)
            .max(u64::from(!values.is_empty()));
        self.metrics.transactions += tx;
        // One issue per warp-wide store instruction.
        let issues = (values.len() as u64).div_ceil(self.spec.warp_size as u64);
        self.metrics.mem_cycles +=
            issues * self.spec.costs.mem_issue + tx * self.spec.cycles_per_transaction();
        for (k, &v) in values.iter().enumerate() {
            self.mem.write(buf, start + k, v);
        }
    }

    /// Accounts a fully coalesced contiguous *read* of `len` elements
    /// without materializing them (for streaming passes whose values the
    /// kernel views via [`BlockCtx::read_run`] or host logic).
    pub fn account_contiguous_read(&mut self, buf: BufferId, len: usize) {
        if len == 0 {
            return;
        }
        let elem = self.mem.elem_bytes(buf);
        let tx = ((len * elem) as u64).div_ceil(128).max(1);
        self.metrics.transactions += tx;
        let issues = (len as u64).div_ceil(self.spec.warp_size as u64);
        self.metrics.mem_cycles +=
            issues * self.spec.costs.mem_issue + tx * self.spec.cycles_per_transaction();
    }

    /// Un-costed view of a run already paid for via
    /// [`BlockCtx::account_contiguous_read`].
    pub fn read_run(&self, buf: BufferId, range: std::ops::Range<usize>) -> &[u64] {
        &self.mem.host_slice(buf)[range]
    }

    /// Accounts a coalesced stream of `bytes` to/from global memory that has
    /// no backing simulator buffer — e.g. writes into the block's join
    /// output ring buffer, which the host models as a sink.
    pub fn account_stream_bytes(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let tx = bytes.div_ceil(128);
        self.metrics.transactions += tx;
        let issues = bytes.div_ceil((self.spec.warp_size * 8) as u64);
        self.metrics.mem_cycles +=
            issues * self.spec.costs.mem_issue + tx * self.spec.cycles_per_transaction();
    }

    /// Warp-wide global atomic add over `(index, delta)` pairs, returning
    /// the old values in `out`. Cost: fixed + serialization on colliding
    /// addresses.
    pub fn warp_atomic_add(&mut self, buf: BufferId, ops: &[(usize, u64)], out: &mut Vec<u64>) {
        debug_assert!(ops.len() <= self.spec.warp_size);
        let max_collisions = max_address_multiplicity(ops.iter().map(|&(i, _)| i));
        self.metrics.atomic_cycles += self.spec.costs.atomic_global
            + self.spec.costs.atomic_serial * max_collisions.saturating_sub(1);
        out.clear();
        for &(i, d) in ops {
            out.push(self.mem.fetch_add(buf, i, d));
        }
    }

    // ---------------- Shared memory (costed) ----------------

    /// Allocates a zeroed shared-memory region of `len` elements of
    /// `elem_bytes`; `None` if the block's shared-memory budget is
    /// exhausted.
    pub fn try_shared_alloc(&mut self, len: usize, elem_bytes: usize) -> Option<SharedId> {
        assert!(elem_bytes == 4 || elem_bytes == 8);
        let bytes = len * elem_bytes;
        // Chaos hook: a firing `gpu.shared_alloc` failpoint models shared
        // memory exhaustion; `shared_alloc` callers then panic with the
        // standard exhaustion message, which `Device::launch` converts to
        // `JoinError::GpuResourceExhausted`.
        if self.shared_used + bytes > self.spec.shared_mem_per_block
            || faults::fire("gpu.shared_alloc")
        {
            return None;
        }
        self.shared_used += bytes;
        self.shared.push((vec![0u64; len], elem_bytes));
        Some(SharedId(self.shared.len() - 1))
    }

    /// Like [`BlockCtx::try_shared_alloc`] but panics on exhaustion — for
    /// kernels whose launch parameters guarantee the fit.
    pub fn shared_alloc(&mut self, len: usize, elem_bytes: usize) -> SharedId {
        let bytes = len * elem_bytes;
        self.try_shared_alloc(len, elem_bytes).unwrap_or_else(|| {
            panic!(
                "shared memory exhausted: requested {bytes} B, used {} of {} B",
                self.shared_used, self.spec.shared_mem_per_block
            )
        })
    }

    /// Shared-memory bytes currently allocated in this block.
    pub fn shared_used(&self) -> usize {
        self.shared_used
    }

    /// Warp-wide shared-memory gather with bank-conflict accounting.
    pub fn shared_gather(&mut self, id: SharedId, indices: &[usize], out: &mut Vec<u64>) {
        let (ref data, elem) = self.shared[id.0];
        let degree = bank_conflict_degree(indices, elem, self.spec.warp_size);
        self.metrics.shared_cycles += self.spec.costs.shared_access * degree;
        out.clear();
        out.extend(indices.iter().map(|&i| data[i]));
    }

    /// Single-lane shared read (costed as a conflict-free warp access).
    pub fn shared_read(&mut self, id: SharedId, idx: usize) -> u64 {
        self.metrics.shared_cycles += self.spec.costs.shared_access;
        self.shared[id.0].0[idx]
    }

    /// Warp-wide shared-memory scatter with bank-conflict accounting.
    pub fn shared_scatter(&mut self, id: SharedId, writes: &[(usize, u64)]) {
        let elem = self.shared[id.0].1;
        let indices: Vec<usize> = writes.iter().map(|&(i, _)| i).collect();
        let degree = bank_conflict_degree(&indices, elem, self.spec.warp_size);
        self.metrics.shared_cycles += self.spec.costs.shared_access * degree;
        for &(i, v) in writes {
            self.shared[id.0].0[i] = v;
        }
    }

    /// Warp-wide shared-memory atomic add, old values into `out`.
    pub fn shared_atomic_add(&mut self, id: SharedId, ops: &[(usize, u64)], out: &mut Vec<u64>) {
        let max_collisions = max_address_multiplicity(ops.iter().map(|&(i, _)| i));
        self.metrics.atomic_cycles += self.spec.costs.atomic_shared
            + self.spec.costs.atomic_shared_serial * max_collisions.saturating_sub(1);
        out.clear();
        for &(i, d) in ops {
            let slot = &mut self.shared[id.0].0[i];
            out.push(*slot);
            *slot += d;
        }
    }

    // ---------------- Control / compute (costed) ----------------

    /// `__syncthreads()` — block-wide barrier.
    pub fn syncthreads(&mut self) {
        self.metrics.sync_cycles += self.spec.costs.sync_threads;
        self.metrics.barriers += 1;
    }

    /// Warp vote + popcount (`__ballot_sync` style): returns the mask of
    /// lanes whose predicate is true.
    pub fn ballot(&mut self, predicates: &[bool]) -> u32 {
        debug_assert!(predicates.len() <= self.spec.warp_size);
        self.metrics.alu_cycles += self.spec.costs.ballot;
        predicates
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, &p)| if p { m | (1 << i) } else { m })
    }

    /// Charges `n` warp-wide ALU instructions.
    pub fn alu(&mut self, n: u64) {
        self.metrics.alu_cycles += self.spec.costs.alu * n;
    }

    // ---------------- Bulk analytic charging ----------------
    //
    // Kernels with regular inner loops (e.g. a block-synchronous hash-chain
    // walk) can compute their event counts in closed form and charge them
    // here instead of issuing one simulator call per step. The model is
    // identical; only the simulation overhead differs.

    /// Charges `count` conflict-free warp-wide shared-memory accesses.
    pub fn charge_shared_accesses(&mut self, count: u64) {
        self.metrics.shared_cycles += self.spec.costs.shared_access * count;
    }

    /// Charges `count` block barriers.
    pub fn charge_syncs(&mut self, count: u64) {
        self.metrics.sync_cycles += self.spec.costs.sync_threads * count;
        self.metrics.barriers += count;
    }

    /// Charges `count` shared-memory atomics, each serialized over
    /// `serialization` colliding lanes.
    pub fn charge_shared_atomics(&mut self, count: u64, serialization: u64) {
        self.metrics.atomic_cycles += count
            * (self.spec.costs.atomic_shared
                + self.spec.costs.atomic_shared_serial * serialization.saturating_sub(1));
    }

    /// Charges `count` global atomics, each serialized over `serialization`
    /// colliding lanes.
    pub fn charge_global_atomics(&mut self, count: u64, serialization: u64) {
        self.metrics.atomic_cycles += count
            * (self.spec.costs.atomic_global
                + self.spec.costs.atomic_serial * serialization.saturating_sub(1));
    }

    /// Charges `count` additional serialized shared-atomic lane operations
    /// (beyond the per-warp fixed cost charged via
    /// [`BlockCtx::charge_shared_atomics`]). Conflicting same-word atomics
    /// from a warp retire one lane at a time; this is the per-lane
    /// increment.
    pub fn charge_atomic_serial_lanes(&mut self, count: u64) {
        self.metrics.atomic_cycles += self.spec.costs.atomic_shared_serial * count;
    }

    /// Charges `count` warp votes.
    pub fn charge_ballots(&mut self, count: u64) {
        self.metrics.alu_cycles += self.spec.costs.ballot * count;
    }

    /// Charges `count` un-hidable dependent-access latencies (pointer-chase
    /// steps).
    pub fn charge_dependent(&mut self, count: u64) {
        self.metrics.dependent_cycles += self.spec.costs.dependent_latency * count;
    }

    /// Records divergence waste directly (lane-idle cycles already covered
    /// by other charges; diagnostic only).
    pub fn charge_divergence_waste(&mut self, cycles: u64) {
        self.metrics.divergence_waste_cycles += cycles;
    }

    /// Bookkeeping for a diverged warp loop: given each lane's trip count,
    /// charges `cycles_per_iter` ALU cycles for the *longest* lane (SIMT
    /// executes the warp until every lane finishes) and records the wasted
    /// lane-cycles in `divergence_waste_cycles`.
    ///
    /// Use this when the loop body's memory traffic is charged separately
    /// via the warp memory ops; `warp_loop` covers the control/compute part
    /// and the divergence diagnostic.
    pub fn warp_loop(&mut self, trip_counts: &[u32], cycles_per_iter: u64) {
        debug_assert!(trip_counts.len() <= self.spec.warp_size);
        let max = u64::from(trip_counts.iter().copied().max().unwrap_or(0));
        let sum: u64 = trip_counts.iter().map(|&t| u64::from(t)).sum();
        self.metrics.alu_cycles += max * cycles_per_iter;
        let lanes = trip_counts.len().max(1) as u64;
        // Idle-lane cycles, normalized to warp-issue cycles.
        self.metrics.divergence_waste_cycles += cycles_per_iter * (max * lanes - sum) / lanes;
    }
}

/// Highest number of lanes hitting one address (atomic serialization).
fn max_address_multiplicity(indices: impl Iterator<Item = usize>) -> u64 {
    let mut addrs: Vec<usize> = indices.collect();
    addrs.sort_unstable();
    let mut best = 0u64;
    let mut run = 0u64;
    let mut prev = None;
    for a in addrs {
        if Some(a) == prev {
            run += 1;
        } else {
            run = 1;
            prev = Some(a);
        }
        best = best.max(run);
    }
    best
}

/// Shared memory has 32 four-byte banks; the access serializes by the worst
/// bank's count of *distinct* addresses (same-address lanes broadcast).
fn bank_conflict_degree(indices: &[usize], elem_bytes: usize, _warp: usize) -> u64 {
    const BANKS: usize = 32;
    let mut per_bank: [Vec<usize>; BANKS] = std::array::from_fn(|_| Vec::new());
    for &idx in indices {
        let word = idx * elem_bytes / 4;
        let bank = word % BANKS;
        if !per_bank[bank].contains(&idx) {
            per_bank[bank].push(idx);
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u64)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Kernel name (for reports).
    pub name: String,
    /// Number of blocks launched.
    pub grid_blocks: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Simulated device time: max over SMs of their summed block cycles.
    pub device_cycles: u64,
    /// Cycles of the single most expensive block (always ≤ `device_cycles`).
    pub max_block_cycles: u64,
    /// Aggregated event counters across all blocks.
    pub metrics: Metrics,
}

/// The simulated GPU: owns global memory and accumulates the timeline.
pub struct Device {
    spec: DeviceSpec,
    /// Global memory (host-accessible for setup/teardown).
    pub memory: GlobalMemory,
    total_cycles: u64,
    launch_log: Vec<LaunchStats>,
}

impl Device {
    /// Creates a device with the given spec.
    pub fn new(spec: DeviceSpec) -> Self {
        let memory = GlobalMemory::new(spec.global_mem_bytes);
        Self {
            spec,
            memory,
            total_cycles: 0,
            launch_log: Vec::new(),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Launches `kernel` over `grid_blocks` blocks of `block_dim` threads.
    /// Blocks run sequentially (host) in block order; each is dispatched to
    /// the least-loaded SM for the timing model.
    ///
    /// Invalid launch configurations (zero or over-capacity `block_dim`,
    /// ragged warps, a grid whose thread count overflows) are reported as
    /// [`JoinError::InvalidConfig`] instead of panicking. A kernel block
    /// that exhausts shared memory surfaces as
    /// [`JoinError::GpuResourceExhausted`]; any other panic inside a block
    /// (including injected faults) becomes [`JoinError::WorkerPanicked`]
    /// with the block index as the worker. Either way the device stays
    /// usable — the failed launch charges no cycles and is not logged.
    pub fn launch(
        &mut self,
        name: &str,
        grid_blocks: usize,
        block_dim: usize,
        kernel: &mut dyn Kernel,
    ) -> Result<LaunchStats, JoinError> {
        validate_launch_config(&self.spec, name, grid_blocks, block_dim)?;
        if faults::fire("gpu.launch") {
            return Err(JoinError::GpuResourceExhausted(format!(
                "kernel {name}: injected launch failure"
            )));
        }

        let mut sm_loads = vec![0u64; self.spec.num_sms];
        let mut agg = Metrics::default();
        let mut max_block_cycles = 0u64;
        for block_idx in 0..grid_blocks {
            // Greedy dispatch to the least-loaded SM.
            let sm_slot = sm_loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
                .expect("at least one SM");
            let mut ctx = BlockCtx {
                block_idx,
                block_dim,
                sm_slot,
                spec: &self.spec,
                mem: &mut self.memory,
                metrics: Metrics::default(),
                shared: Vec::new(),
                shared_used: 0,
            };
            // The memory arena only mutates through costed ctx operations
            // that keep it consistent at every step, so observing it after
            // an aborted block is safe (results may be partial; the caller
            // discards them on error).
            let outcome = catch_unwind(AssertUnwindSafe(|| kernel.block(&mut ctx)));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                return Err(if msg.contains("shared memory exhausted") {
                    JoinError::GpuResourceExhausted(format!(
                        "kernel {name}, block {block_idx}: {msg}"
                    ))
                } else {
                    JoinError::WorkerPanicked {
                        worker: block_idx,
                        phase: name.to_string(),
                    }
                });
            }
            let block_cycles = ctx.metrics.total_cycles();
            sm_loads[sm_slot] += block_cycles;
            max_block_cycles = max_block_cycles.max(block_cycles);
            agg.merge(&ctx.metrics);
        }

        let device_cycles = sm_loads.into_iter().max().unwrap_or(0);
        self.total_cycles += device_cycles;
        let stats = LaunchStats {
            name: name.to_string(),
            grid_blocks,
            block_dim,
            device_cycles,
            max_block_cycles,
            metrics: agg,
        };
        self.launch_log.push(stats.clone());
        Ok(stats)
    }

    /// Total simulated cycles across all launches so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total simulated elapsed time.
    pub fn elapsed(&self) -> Duration {
        self.spec.cycles_to_duration(self.total_cycles)
    }

    /// The launch history.
    pub fn launch_log(&self) -> &[LaunchStats] {
        &self.launch_log
    }

    /// Renders the launch history as a table: kernel name, launches, total
    /// blocks, simulated time, share of the device timeline, and the
    /// dominant cost component — the quickest way to see *where* a join's
    /// cycles went. Repeated launches of the same kernel (e.g. one split
    /// pass per large partition) are aggregated into one row, in
    /// first-launch order.
    pub fn render_timeline(&self) -> String {
        struct Row {
            launches: usize,
            blocks: usize,
            device_cycles: u64,
            metrics: Metrics,
        }
        let mut order: Vec<&str> = Vec::new();
        let mut rows: std::collections::HashMap<&str, Row> = std::collections::HashMap::new();
        for launch in &self.launch_log {
            let row = rows.entry(&launch.name).or_insert_with(|| {
                order.push(&launch.name);
                Row {
                    launches: 0,
                    blocks: 0,
                    device_cycles: 0,
                    metrics: Metrics::default(),
                }
            });
            row.launches += 1;
            row.blocks += launch.grid_blocks;
            row.device_cycles += launch.device_cycles;
            row.metrics.merge(&launch.metrics);
        }

        let mut out = format!(
            "{:<26} {:>5} {:>8} {:>12} {:>7}  {}\n",
            "kernel", "runs", "blocks", "time", "share", "dominant cost"
        );
        let total = self.total_cycles.max(1);
        for name in order {
            let row = &rows[name];
            let m = &row.metrics;
            let components = [
                ("memory", m.mem_cycles),
                ("dependent", m.dependent_cycles),
                ("sync", m.sync_cycles),
                ("atomic", m.atomic_cycles),
                ("shared", m.shared_cycles),
                ("alu", m.alu_cycles),
            ];
            let (dom_name, dom_cycles) = components
                .iter()
                .max_by_key(|&&(_, c)| c)
                .copied()
                .unwrap_or(("-", 0));
            let block_total = m.total_cycles().max(1);
            out.push_str(&format!(
                "{:<26} {:>5} {:>8} {:>12.3?} {:>6.1}%  {} ({:.0}%)\n",
                name,
                row.launches,
                row.blocks,
                self.spec.cycles_to_duration(row.device_cycles),
                row.device_cycles as f64 / total as f64 * 100.0,
                dom_name,
                dom_cycles as f64 / block_total as f64 * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every element of a buffer, one block per 256-element chunk.
    struct DoubleKernel {
        buf: BufferId,
        n: usize,
    }

    impl Kernel for DoubleKernel {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            let start = ctx.block_idx * 256;
            let end = (start + 256).min(self.n);
            let mut vals = Vec::new();
            let mut idx = Vec::new();
            let mut i = start;
            while i < end {
                let hi = (i + ctx.warp_size()).min(end);
                idx.clear();
                idx.extend(i..hi);
                ctx.warp_gather(self.buf, &idx, &mut vals);
                let writes: Vec<(usize, u64)> = idx
                    .iter()
                    .zip(vals.iter())
                    .map(|(&j, &v)| (j, v * 2))
                    .collect();
                ctx.alu(1);
                ctx.warp_scatter(self.buf, &writes);
                i = hi;
            }
        }
    }

    #[test]
    fn kernel_transforms_data_and_charges_cycles() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let buf = dev.memory.alloc(1000, 8).unwrap();
        let init: Vec<u64> = (0..1000).collect();
        dev.memory.host_upload(buf, 0, &init);

        let mut k = DoubleKernel { buf, n: 1000 };
        let stats = dev.launch("double", 4, 256, &mut k).unwrap();
        assert_eq!(stats.grid_blocks, 4);
        assert!(stats.device_cycles > 0);
        assert!(stats.metrics.transactions > 0);
        for i in 0..1000 {
            assert_eq!(dev.memory.host_read(buf, i), (i as u64) * 2);
        }
        assert_eq!(dev.total_cycles(), stats.device_cycles);
        assert_eq!(dev.launch_log().len(), 1);
    }

    struct ImbalancedKernel;
    impl Kernel for ImbalancedKernel {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            // Block 0 does 100× the work of the others.
            let reps = if ctx.block_idx == 0 { 100u64 } else { 1 };
            ctx.alu(1000 * reps);
        }
    }

    #[test]
    fn device_time_is_dominated_by_straggler_block() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        // 8 blocks on 4 SMs; block 0 costs 100 000 ALU cycles.
        let stats = dev
            .launch("imbalanced", 8, 32, &mut ImbalancedKernel)
            .unwrap();
        // The straggler's SM defines device time: ≥ 100 000, and the sum of
        // the 7 small blocks (7 000) must not add linearly to it.
        assert!(stats.device_cycles >= 100_000);
        assert!(stats.device_cycles < 104_000, "{}", stats.device_cycles);
    }

    struct SharedKernel;
    impl Kernel for SharedKernel {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            let sh = ctx.shared_alloc(64, 8);
            let writes: Vec<(usize, u64)> = (0..32).map(|i| (i, i as u64)).collect();
            ctx.shared_scatter(sh, &writes);
            let mut out = Vec::new();
            let idx: Vec<usize> = (0..32).collect();
            ctx.shared_gather(sh, &idx, &mut out);
            assert_eq!(out[5], 5);
            ctx.syncthreads();
            assert!(ctx.try_shared_alloc(1 << 20, 8).is_none());
        }
    }

    #[test]
    fn shared_memory_alloc_and_budget() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let stats = dev.launch("shared", 1, 32, &mut SharedKernel).unwrap();
        assert_eq!(stats.metrics.barriers, 1);
        assert!(stats.metrics.shared_cycles > 0);
    }

    struct AtomicKernel {
        buf: BufferId,
    }
    impl Kernel for AtomicKernel {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            // All 32 lanes hit the same counter: max serialization.
            let ops: Vec<(usize, u64)> = (0..32).map(|_| (0usize, 1u64)).collect();
            let mut old = Vec::new();
            ctx.warp_atomic_add(self.buf, &ops, &mut old);
        }
    }

    #[test]
    fn atomics_update_and_serialize() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let buf = dev.memory.alloc(1, 8).unwrap();
        let stats = dev
            .launch("atomic", 2, 32, &mut AtomicKernel { buf })
            .unwrap();
        assert_eq!(dev.memory.host_read(buf, 0), 64);
        let c = dev.spec().costs;
        // Two blocks, each fixed + 31 serial increments.
        assert_eq!(
            stats.metrics.atomic_cycles,
            2 * (c.atomic_global + 31 * c.atomic_serial)
        );
    }

    #[test]
    fn warp_loop_divergence_accounting() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct DivKernel;
        impl Kernel for DivKernel {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                // One lane runs 100 iterations, 31 lanes run 1.
                let mut trips = vec![1u32; 32];
                trips[0] = 100;
                ctx.warp_loop(&trips, 10);
            }
        }
        let stats = dev.launch("div", 1, 32, &mut DivKernel).unwrap();
        assert_eq!(stats.metrics.alu_cycles, 1000);
        // waste = 10 * (100*32 - 131)/32 = 959 cycles (integer division).
        assert_eq!(stats.metrics.divergence_waste_cycles, 959);
    }

    #[test]
    fn dependent_gather_charges_latency() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let buf = dev.memory.alloc(64, 8).unwrap();
        struct ChaseKernel {
            buf: BufferId,
        }
        impl Kernel for ChaseKernel {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                let mut out = Vec::new();
                ctx.warp_dependent_gather(self.buf, &[0, 1], &mut out);
            }
        }
        let stats = dev
            .launch("chase", 1, 32, &mut ChaseKernel { buf })
            .unwrap();
        assert_eq!(
            stats.metrics.dependent_cycles,
            dev.spec().costs.dependent_latency
        );
    }

    #[test]
    fn rejects_invalid_launch_configs() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct Nop;
        impl Kernel for Nop {
            fn block(&mut self, _ctx: &mut BlockCtx<'_>) {}
        }
        for (grid, dim, needle) in [
            (1usize, 33usize, "multiple of the warp size"),
            (1, 0, "must be positive"),
            (1, 1 << 20, "exceeds the device limit"),
            (usize::MAX, 32, "overflows"),
        ] {
            match dev.launch("nop", grid, dim, &mut Nop) {
                Err(JoinError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
                }
                other => panic!("expected InvalidConfig for ({grid}, {dim}), got {other:?}"),
            }
        }
        // The rejected launches charged nothing and were not logged.
        assert_eq!(dev.total_cycles(), 0);
        assert!(dev.launch_log().is_empty());
    }

    #[test]
    fn shared_memory_exhaustion_is_a_typed_error() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct Greedy;
        impl Kernel for Greedy {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                // Far beyond any block budget: `shared_alloc` panics and the
                // launch boundary converts it.
                ctx.shared_alloc(1 << 28, 8);
            }
        }
        match dev.launch("greedy", 1, 32, &mut Greedy) {
            Err(JoinError::GpuResourceExhausted(msg)) => {
                assert!(msg.contains("shared memory exhausted"), "{msg}")
            }
            other => panic!("expected GpuResourceExhausted, got {other:?}"),
        }
        // The device stays usable after the failed launch.
        struct Nop;
        impl Kernel for Nop {
            fn block(&mut self, _ctx: &mut BlockCtx<'_>) {}
        }
        assert!(dev.launch("nop", 1, 32, &mut Nop).is_ok());
    }

    #[test]
    fn kernel_panic_is_reported_with_block_index() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct Faulty;
        impl Kernel for Faulty {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                assert!(ctx.block_idx != 2, "kernel bug in block 2");
            }
        }
        match dev.launch("faulty", 4, 32, &mut Faulty) {
            Err(JoinError::WorkerPanicked { worker, phase }) => {
                assert_eq!(worker, 2);
                assert_eq!(phase, "faulty");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn timeline_report_names_dominant_cost() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct SyncHeavy;
        impl Kernel for SyncHeavy {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                ctx.charge_syncs(100);
                ctx.alu(1);
            }
        }
        dev.launch("sync_heavy", 2, 32, &mut SyncHeavy).unwrap();
        let report = dev.render_timeline();
        assert!(report.contains("sync_heavy"), "{report}");
        assert!(report.contains("sync ("), "{report}");
        assert!(report.contains("100.0%"), "{report}");
    }

    #[test]
    fn bulk_charges_match_per_call_costs() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct ChargeKernel;
        impl Kernel for ChargeKernel {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                ctx.charge_shared_accesses(10);
                ctx.charge_syncs(3);
                ctx.charge_shared_atomics(4, 2);
                ctx.charge_global_atomics(2, 1);
                ctx.charge_ballots(5);
                ctx.charge_dependent(1);
            }
        }
        let stats = dev.launch("charges", 1, 32, &mut ChargeKernel).unwrap();
        let c = dev.spec().costs;
        assert_eq!(stats.metrics.shared_cycles, 10 * c.shared_access);
        assert_eq!(stats.metrics.sync_cycles, 3 * c.sync_threads);
        assert_eq!(stats.metrics.barriers, 3);
        assert_eq!(
            stats.metrics.atomic_cycles,
            4 * (c.atomic_shared + c.atomic_shared_serial) + 2 * c.atomic_global
        );
        assert_eq!(stats.metrics.alu_cycles, 5 * c.ballot);
        assert_eq!(stats.metrics.dependent_cycles, c.dependent_latency);
    }

    #[test]
    fn ballot_builds_masks() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        struct BallotKernel;
        impl Kernel for BallotKernel {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                let preds: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
                let mask = ctx.ballot(&preds);
                assert_eq!(mask, 0x5555_5555);
                assert_eq!(mask.count_ones(), 16);
            }
        }
        dev.launch("ballot", 1, 32, &mut BallotKernel).unwrap();
    }

    #[test]
    fn contiguous_write_is_coalesced() {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let buf = dev.memory.alloc(256, 8).unwrap();
        struct StreamKernel {
            buf: BufferId,
        }
        impl Kernel for StreamKernel {
            fn block(&mut self, ctx: &mut BlockCtx<'_>) {
                let vals: Vec<u64> = (0..128).collect();
                ctx.write_contiguous(self.buf, 0, &vals);
            }
        }
        let stats = dev
            .launch("stream", 1, 32, &mut StreamKernel { buf })
            .unwrap();
        // 128 × 8 B = 1024 B = 8 transactions, not 128.
        assert_eq!(stats.metrics.transactions, 8);
        assert_eq!(dev.memory.host_read(buf, 127), 127);
    }
}
