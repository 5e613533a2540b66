//! [`HostBackend`] — executes the same kernel code on the host with no
//! cycle accounting.
//!
//! This is the differential oracle for the simulator: kernels observe the
//! identical geometry (block/warp shape, shared-memory budget, global
//! memory capacity) and identical data as under [`super::SimBackend`], so
//! the per-key join results of a host run must equal a sim run
//! tuple-for-tuple. What it does *not* do is model time — every `charge_*`
//! / `account_*` hook is a no-op, launches report zero cycles, and phase
//! durations come out as zero.
//!
//! Launch validation, the `gpu.launch` / `gpu.memory.alloc` /
//! `gpu.shared_alloc` failpoints, shared-budget enforcement, and the
//! panic-to-typed-error boundary all behave exactly as on the simulator so
//! chaos and fuzz coverage carries over unchanged.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use skewjoin_common::{faults, JoinError};
use skewjoin_gpu_sim::{
    validate_launch_config, BufferId, DeviceSpec, GlobalMemory, LaunchStats, Metrics,
};

use super::{BlockOps, DeviceKernel, GpuBackend, GpuBackendKind, SharedRegion};

/// Host-execution backend: real data movement, zero modeled cycles.
pub struct HostBackend {
    spec: DeviceSpec,
    memory: GlobalMemory,
    launch_log: Vec<LaunchStats>,
}

impl HostBackend {
    /// Creates a host backend enforcing `spec`'s limits (global memory,
    /// shared budget, launch geometry) without modeling its timing.
    pub fn new(spec: DeviceSpec) -> Self {
        let memory = GlobalMemory::new(spec.global_mem_bytes);
        Self {
            spec,
            memory,
            launch_log: Vec::new(),
        }
    }
}

/// Per-block context for host execution: data movement only.
struct HostBlockCtx<'a> {
    block_idx: usize,
    block_dim: usize,
    sm_slot: usize,
    spec: &'a DeviceSpec,
    mem: &'a mut GlobalMemory,
    shared: Vec<(Vec<u64>, usize)>,
    shared_used: usize,
}

impl BlockOps for HostBlockCtx<'_> {
    fn block_idx(&self) -> usize {
        self.block_idx
    }

    fn block_dim(&self) -> usize {
        self.block_dim
    }

    fn sm_slot(&self) -> usize {
        self.sm_slot
    }

    fn warp_size(&self) -> usize {
        self.spec.warp_size
    }

    fn shared_mem_per_block(&self) -> usize {
        self.spec.shared_mem_per_block
    }

    fn shared_used(&self) -> usize {
        self.shared_used
    }

    fn try_shared_alloc(&mut self, len: usize, elem_bytes: usize) -> Option<SharedRegion> {
        assert!(elem_bytes == 4 || elem_bytes == 8);
        let bytes = len * elem_bytes;
        // Same budget and same failpoint as the simulator, so kernels take
        // identical fallback paths (e.g. GSH's clamped sample table).
        if self.shared_used + bytes > self.spec.shared_mem_per_block
            || faults::fire("gpu.shared_alloc")
        {
            return None;
        }
        self.shared_used += bytes;
        self.shared.push((vec![0u64; len], elem_bytes));
        Some(SharedRegion(self.shared.len() - 1))
    }

    fn shared_alloc(&mut self, len: usize, elem_bytes: usize) -> SharedRegion {
        let bytes = len * elem_bytes;
        self.try_shared_alloc(len, elem_bytes).unwrap_or_else(|| {
            panic!(
                "shared memory exhausted: requested {bytes} B, used {} of {} B",
                self.shared_used, self.spec.shared_mem_per_block
            )
        })
    }

    fn shared_atomic_add(
        &mut self,
        region: SharedRegion,
        ops: &[(usize, u64)],
        out: &mut Vec<u64>,
    ) {
        out.clear();
        for &(i, d) in ops {
            let slot = &mut self.shared[region.0].0[i];
            out.push(*slot);
            *slot += d;
        }
    }

    fn warp_gather(&mut self, buf: BufferId, indices: &[usize], out: &mut Vec<u64>) {
        out.clear();
        out.extend(indices.iter().map(|&i| self.mem.host_read(buf, i)));
    }

    fn warp_scatter(&mut self, buf: BufferId, writes: &[(usize, u64)]) {
        for &(i, v) in writes {
            self.mem.host_write(buf, i, v);
        }
    }

    fn read_run(&self, buf: BufferId, range: Range<usize>) -> &[u64] {
        &self.mem.host_slice(buf)[range]
    }

    fn account_contiguous_read(&mut self, _buf: BufferId, _len: usize) {}

    fn account_stream_bytes(&mut self, _bytes: u64) {}

    fn syncthreads(&mut self) {}

    fn alu(&mut self, _n: u64) {}

    fn charge_shared_accesses(&mut self, _count: u64) {}

    fn charge_shared_atomics(&mut self, _count: u64, _serialization: u64) {}

    fn charge_global_atomics(&mut self, _count: u64, _serialization: u64) {}

    fn charge_atomic_serial_lanes(&mut self, _count: u64) {}

    fn charge_syncs(&mut self, _count: u64) {}

    fn charge_ballots(&mut self, _count: u64) {}

    fn charge_divergence_waste(&mut self, _cycles: u64) {}
}

impl GpuBackend for HostBackend {
    fn kind(&self) -> GpuBackendKind {
        GpuBackendKind::Host
    }

    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn alloc(&mut self, len: usize, elem_bytes: usize, label: &str) -> Result<BufferId, JoinError> {
        self.memory.alloc(len, elem_bytes).ok_or_else(|| {
            JoinError::GpuResourceExhausted(format!("{label} exceeds global memory"))
        })
    }

    fn free(&mut self, buf: BufferId) {
        self.memory.free(buf);
    }

    fn buffer_len(&self, buf: BufferId) -> usize {
        self.memory.len(buf)
    }

    fn host_upload(&mut self, buf: BufferId, offset: usize, values: &[u64]) {
        self.memory.host_upload(buf, offset, values);
    }

    fn host_read(&self, buf: BufferId, idx: usize) -> u64 {
        self.memory.host_read(buf, idx)
    }

    fn host_write(&mut self, buf: BufferId, idx: usize, value: u64) {
        self.memory.host_write(buf, idx, value);
    }

    fn host_slice(&self, buf: BufferId) -> &[u64] {
        self.memory.host_slice(buf)
    }

    fn launch(
        &mut self,
        name: &str,
        grid_blocks: usize,
        block_dim: usize,
        kernel: &mut dyn DeviceKernel,
    ) -> Result<LaunchStats, JoinError> {
        validate_launch_config(&self.spec, name, grid_blocks, block_dim)?;
        if faults::fire("gpu.launch") {
            return Err(JoinError::GpuResourceExhausted(format!(
                "kernel {name}: injected launch failure"
            )));
        }

        // Blocks run sequentially in block order — part of the GpuBackend
        // contract (kernels may carry host-precomputed cross-block cursors),
        // and the same order the simulator uses.
        for block_idx in 0..grid_blocks {
            let mut ctx = HostBlockCtx {
                block_idx,
                block_dim,
                sm_slot: block_idx % self.spec.num_sms,
                spec: &self.spec,
                mem: &mut self.memory,
                shared: Vec::new(),
                shared_used: 0,
            };
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
        }

        let stats = LaunchStats {
            name: name.to_string(),
            grid_blocks,
            block_dim,
            device_cycles: 0,
            max_block_cycles: 0,
            metrics: Metrics::default(),
        };
        self.launch_log.push(stats.clone());
        Ok(stats)
    }

    fn total_cycles(&self) -> u64 {
        0
    }

    fn launch_log(&self) -> &[LaunchStats] {
        &self.launch_log
    }

    fn render_timeline(&self) -> String {
        let mut out = String::from("host execution (no modeled time)\n");
        out.push_str(&format!("{:<26} {:>5} {:>8}\n", "kernel", "runs", "blocks"));
        let mut order: Vec<&str> = Vec::new();
        let mut rows: std::collections::HashMap<&str, (usize, usize)> =
            std::collections::HashMap::new();
        for launch in &self.launch_log {
            let row = rows.entry(&launch.name).or_insert_with(|| {
                order.push(&launch.name);
                (0, 0)
            });
            row.0 += 1;
            row.1 += launch.grid_blocks;
        }
        for name in order {
            let (runs, blocks) = rows[name];
            out.push_str(&format!("{name:<26} {runs:>5} {blocks:>8}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FillKernel {
        buf: BufferId,
    }

    impl DeviceKernel for FillKernel {
        fn block(&mut self, ctx: &mut dyn BlockOps) {
            let base = ctx.block_idx() * 32;
            let writes: Vec<(usize, u64)> =
                (0..32).map(|i| (base + i, (base + i) as u64)).collect();
            ctx.warp_scatter(self.buf, &writes);
            ctx.syncthreads();
            ctx.alu(10);
        }
    }

    #[test]
    fn executes_blocks_and_reports_zero_cycles() {
        let mut backend = HostBackend::new(DeviceSpec::tiny(1 << 20));
        let buf = backend.alloc(128, 8, "fill buffer").unwrap();
        let stats = backend
            .launch("fill", 4, 32, &mut FillKernel { buf })
            .unwrap();
        assert_eq!(stats.device_cycles, 0);
        assert_eq!(backend.total_cycles(), 0);
        for i in 0..128 {
            assert_eq!(backend.host_read(buf, i), i as u64);
        }
        assert_eq!(backend.launch_log().len(), 1);
        assert!(backend.render_timeline().contains("fill"));
    }

    #[test]
    fn rejects_invalid_launch_configs_like_the_simulator() {
        let mut backend = HostBackend::new(DeviceSpec::tiny(1 << 20));
        struct Nop;
        impl DeviceKernel for Nop {
            fn block(&mut self, _ctx: &mut dyn BlockOps) {}
        }
        for (grid, dim, needle) in [
            (1usize, 33usize, "multiple of the warp size"),
            (1, 0, "must be positive"),
            (1, 1 << 20, "exceeds the device limit"),
            (usize::MAX, 32, "overflows"),
        ] {
            match backend.launch("nop", grid, dim, &mut Nop) {
                Err(JoinError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
                }
                other => panic!("expected InvalidConfig for ({grid}, {dim}), got {other:?}"),
            }
        }
        assert!(backend.launch_log().is_empty());
    }

    #[test]
    fn shared_memory_exhaustion_is_a_typed_error() {
        let mut backend = HostBackend::new(DeviceSpec::tiny(1 << 20));
        struct Greedy;
        impl DeviceKernel for Greedy {
            fn block(&mut self, ctx: &mut dyn BlockOps) {
                ctx.shared_alloc(1 << 28, 8);
            }
        }
        match backend.launch("greedy", 1, 32, &mut Greedy) {
            Err(JoinError::GpuResourceExhausted(msg)) => {
                assert!(msg.contains("shared memory exhausted"), "{msg}")
            }
            other => panic!("expected GpuResourceExhausted, got {other:?}"),
        }
        // The backend stays usable afterwards.
        struct Nop;
        impl DeviceKernel for Nop {
            fn block(&mut self, _ctx: &mut dyn BlockOps) {}
        }
        assert!(backend.launch("nop", 1, 32, &mut Nop).is_ok());
    }

    #[test]
    fn kernel_panic_is_reported_with_block_index() {
        let mut backend = HostBackend::new(DeviceSpec::tiny(1 << 20));
        struct Faulty;
        impl DeviceKernel for Faulty {
            fn block(&mut self, ctx: &mut dyn BlockOps) {
                assert!(ctx.block_idx() != 2, "kernel bug in block 2");
            }
        }
        match backend.launch("faulty", 4, 32, &mut Faulty) {
            Err(JoinError::WorkerPanicked { worker, phase }) => {
                assert_eq!(worker, 2);
                assert_eq!(phase, "faulty");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn out_of_memory_is_a_typed_error() {
        let mut backend = HostBackend::new(DeviceSpec::tiny(64));
        match backend.alloc(1 << 20, 8, "huge buffer") {
            Err(JoinError::GpuResourceExhausted(msg)) => {
                assert!(msg.contains("huge buffer"), "{msg}")
            }
            other => panic!("expected GpuResourceExhausted, got {other:?}"),
        }
    }
}
