//! [`SimBackend`] — the gpu-sim cost model behind the [`GpuBackend`] trait.
//!
//! Every [`BlockOps`] method forwards 1:1 to the corresponding
//! [`BlockCtx`] operation, so the cycles charged through the trait are
//! bit-identical to kernels written directly against the simulator — the
//! cost-model regression tests and the committed perf trajectory depend on
//! that.

use std::ops::Range;

use skewjoin_common::JoinError;
use skewjoin_gpu_sim::{BlockCtx, BufferId, Device, DeviceSpec, Kernel, LaunchStats, SharedId};

use super::{BlockOps, DeviceKernel, GpuBackend, GpuBackendKind, SharedRegion};

/// The default backend: kernels run on [`skewjoin_gpu_sim::Device`],
/// producing real results and modeled cycles.
pub struct SimBackend {
    device: Device,
}

impl SimBackend {
    /// Creates a simulator backend over `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            device: Device::new(spec),
        }
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

/// Adapts a backend-portable [`DeviceKernel`] to the simulator's [`Kernel`]
/// trait: the [`BlockCtx`] itself implements [`BlockOps`], so the kernel
/// body runs unchanged with full cost accounting.
struct SimKernelAdapter<'a>(&'a mut dyn DeviceKernel);

impl Kernel for SimKernelAdapter<'_> {
    fn block(&mut self, ctx: &mut BlockCtx<'_>) {
        self.0.block(ctx);
    }
}

impl BlockOps for BlockCtx<'_> {
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
        BlockCtx::warp_size(self)
    }

    fn shared_mem_per_block(&self) -> usize {
        self.spec().shared_mem_per_block
    }

    fn shared_used(&self) -> usize {
        BlockCtx::shared_used(self)
    }

    fn try_shared_alloc(&mut self, len: usize, elem_bytes: usize) -> Option<SharedRegion> {
        BlockCtx::try_shared_alloc(self, len, elem_bytes).map(|id| SharedRegion(id.raw()))
    }

    fn shared_alloc(&mut self, len: usize, elem_bytes: usize) -> SharedRegion {
        SharedRegion(BlockCtx::shared_alloc(self, len, elem_bytes).raw())
    }

    fn shared_atomic_add(
        &mut self,
        region: SharedRegion,
        ops: &[(usize, u64)],
        out: &mut Vec<u64>,
    ) {
        BlockCtx::shared_atomic_add(self, SharedId::from_raw(region.0), ops, out);
    }

    fn warp_gather(&mut self, buf: BufferId, indices: &[usize], out: &mut Vec<u64>) {
        BlockCtx::warp_gather(self, buf, indices, out);
    }

    fn warp_scatter(&mut self, buf: BufferId, writes: &[(usize, u64)]) {
        BlockCtx::warp_scatter(self, buf, writes);
    }

    fn read_run(&self, buf: BufferId, range: Range<usize>) -> &[u64] {
        BlockCtx::read_run(self, buf, range)
    }

    fn account_contiguous_read(&mut self, buf: BufferId, len: usize) {
        BlockCtx::account_contiguous_read(self, buf, len);
    }

    fn account_stream_bytes(&mut self, bytes: u64) {
        BlockCtx::account_stream_bytes(self, bytes);
    }

    fn syncthreads(&mut self) {
        BlockCtx::syncthreads(self);
    }

    fn alu(&mut self, n: u64) {
        BlockCtx::alu(self, n);
    }

    fn charge_shared_accesses(&mut self, count: u64) {
        BlockCtx::charge_shared_accesses(self, count);
    }

    fn charge_shared_atomics(&mut self, count: u64, serialization: u64) {
        BlockCtx::charge_shared_atomics(self, count, serialization);
    }

    fn charge_global_atomics(&mut self, count: u64, serialization: u64) {
        BlockCtx::charge_global_atomics(self, count, serialization);
    }

    fn charge_atomic_serial_lanes(&mut self, count: u64) {
        BlockCtx::charge_atomic_serial_lanes(self, count);
    }

    fn charge_syncs(&mut self, count: u64) {
        BlockCtx::charge_syncs(self, count);
    }

    fn charge_ballots(&mut self, count: u64) {
        BlockCtx::charge_ballots(self, count);
    }

    fn charge_divergence_waste(&mut self, cycles: u64) {
        BlockCtx::charge_divergence_waste(self, cycles);
    }
}

impl GpuBackend for SimBackend {
    fn kind(&self) -> GpuBackendKind {
        GpuBackendKind::Sim
    }

    fn spec(&self) -> &DeviceSpec {
        self.device.spec()
    }

    fn alloc(&mut self, len: usize, elem_bytes: usize, label: &str) -> Result<BufferId, JoinError> {
        self.device.memory.alloc(len, elem_bytes).ok_or_else(|| {
            JoinError::GpuResourceExhausted(format!("{label} exceeds global memory"))
        })
    }

    fn free(&mut self, buf: BufferId) {
        self.device.memory.free(buf);
    }

    fn buffer_len(&self, buf: BufferId) -> usize {
        self.device.memory.len(buf)
    }

    fn host_upload(&mut self, buf: BufferId, offset: usize, values: &[u64]) {
        self.device.memory.host_upload(buf, offset, values);
    }

    fn host_read(&self, buf: BufferId, idx: usize) -> u64 {
        self.device.memory.host_read(buf, idx)
    }

    fn host_write(&mut self, buf: BufferId, idx: usize, value: u64) {
        self.device.memory.host_write(buf, idx, value);
    }

    fn host_slice(&self, buf: BufferId) -> &[u64] {
        self.device.memory.host_slice(buf)
    }

    fn launch(
        &mut self,
        name: &str,
        grid_blocks: usize,
        block_dim: usize,
        kernel: &mut dyn DeviceKernel,
    ) -> Result<LaunchStats, JoinError> {
        self.device
            .launch(name, grid_blocks, block_dim, &mut SimKernelAdapter(kernel))
    }

    fn total_cycles(&self) -> u64 {
        self.device.total_cycles()
    }

    fn launch_log(&self) -> &[LaunchStats] {
        self.device.launch_log()
    }

    fn render_timeline(&self) -> String {
        self.device.render_timeline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles a buffer through the trait surface.
    struct DoubleKernel {
        buf: BufferId,
        n: usize,
    }

    impl DeviceKernel for DoubleKernel {
        fn block(&mut self, ctx: &mut dyn BlockOps) {
            let start = ctx.block_idx() * 256;
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
    fn trait_launch_matches_direct_device_use() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 20));
        let buf = backend.alloc(1000, 8, "test buffer").unwrap();
        let init: Vec<u64> = (0..1000).collect();
        backend.host_upload(buf, 0, &init);
        let stats = backend
            .launch("double", 4, 256, &mut DoubleKernel { buf, n: 1000 })
            .unwrap();
        assert!(stats.device_cycles > 0);
        assert_eq!(backend.total_cycles(), stats.device_cycles);
        for i in 0..1000 {
            assert_eq!(backend.host_read(buf, i), (i as u64) * 2);
        }
    }

    #[test]
    fn alloc_failure_names_the_label() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(64));
        match backend.alloc(1 << 20, 8, "table R (1048576 tuples)") {
            Err(JoinError::GpuResourceExhausted(msg)) => {
                assert!(msg.contains("table R"), "{msg}");
            }
            other => panic!("expected GpuResourceExhausted, got {other:?}"),
        }
    }
}
