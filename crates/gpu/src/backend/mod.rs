//! The pluggable GPU execution backend.
//!
//! The join drivers (`gbase_join`, `gsh_join`) and their kernels never talk
//! to a concrete device. Kernels implement [`DeviceKernel`] against the
//! [`BlockOps`] surface — exactly the warp-level operations the Gbase/GSH
//! kernels use: warp gather/scatter, shared-memory allocation and atomics,
//! barriers, and the analytic cost-charging hooks. Drivers allocate buffers
//! and launch kernels through [`GpuBackend`]. Two implementations ship
//! in-tree:
//!
//! * [`SimBackend`] — the gpu-sim cost model (default). Deterministic,
//!   CI-safe, produces real results *and* modeled cycles. All `charge_*` /
//!   `account_*` calls feed the simulator's per-block metrics, so cycle
//!   counts are bit-identical to the pre-trait code.
//! * [`HostBackend`] — executes the *same* kernel code on the host with no
//!   cycle accounting. Every cost hook is a no-op; data movement, shared
//!   budget enforcement, launch validation, and failpoints are real. Because
//!   kernel control flow only observes geometry (block/warp shape, shared
//!   budget) and data, a sim run and a host run of the same join must
//!   produce identical per-key results — the differential oracle exercised
//!   by the backend-parity tests.
//!
//! Backend selection flows through
//! [`GpuJoinConfig::backend`](crate::GpuJoinConfig) into the join and into
//! the device-fallback rung, which records which backend ran.

use std::ops::Range;

use skewjoin_common::JoinError;
use skewjoin_gpu_sim::{BufferId, DeviceSpec, LaunchStats};

pub mod host;
pub mod sim;

pub use host::HostBackend;
pub use sim::SimBackend;

/// Which [`GpuBackend`] implementation a join should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GpuBackendKind {
    /// The gpu-sim cost model: real results, modeled cycles (default).
    #[default]
    Sim,
    /// Host execution of the same kernels: real results, no cycle model.
    /// The differential oracle against `Sim`.
    Host,
}

impl GpuBackendKind {
    /// Stable lowercase name, used in device-fallback rungs and fuzz-case
    /// serialization.
    pub fn name(self) -> &'static str {
        match self {
            GpuBackendKind::Sim => "sim",
            GpuBackendKind::Host => "host",
        }
    }

    /// Builds the backend for this kind over `spec`.
    pub fn create(self, spec: &DeviceSpec) -> Result<Box<dyn GpuBackend>, JoinError> {
        match self {
            GpuBackendKind::Sim => Ok(Box::new(SimBackend::new(spec.clone()))),
            GpuBackendKind::Host => Ok(Box::new(HostBackend::new(spec.clone()))),
        }
    }
}

impl std::fmt::Display for GpuBackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Handle to a per-block shared-memory region allocated through
/// [`BlockOps::shared_alloc`]. Opaque; each backend maps it onto its own
/// allocation bookkeeping (allocation order within a block is the identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedRegion(pub(crate) usize);

/// The per-block operation surface the GPU join kernels are written
/// against: block identity, costed global/shared memory operations, and the
/// analytic cost-charging hooks. On [`SimBackend`] every method both
/// executes and charges modeled cycles; on [`HostBackend`] the `charge_*` /
/// `account_*` methods are no-ops and only the data movement happens.
pub trait BlockOps {
    /// Index of this block within the grid.
    fn block_idx(&self) -> usize;
    /// Threads in this block (a multiple of the warp size).
    fn block_dim(&self) -> usize;
    /// The SM slot this block was dispatched to (stable across a launch;
    /// used for per-SM resources such as output-sink pools).
    fn sm_slot(&self) -> usize;
    /// Warp width.
    fn warp_size(&self) -> usize;
    /// The block's shared-memory budget in bytes.
    fn shared_mem_per_block(&self) -> usize;
    /// Shared-memory bytes currently allocated in this block.
    fn shared_used(&self) -> usize;

    /// Allocates a zeroed shared region; `None` if over budget.
    fn try_shared_alloc(&mut self, len: usize, elem_bytes: usize) -> Option<SharedRegion>;
    /// Like [`BlockOps::try_shared_alloc`] but panics on exhaustion (the
    /// launch boundary converts the panic into a typed error).
    fn shared_alloc(&mut self, len: usize, elem_bytes: usize) -> SharedRegion;
    /// Warp-wide shared-memory atomic add; old values into `out`.
    fn shared_atomic_add(&mut self, region: SharedRegion, ops: &[(usize, u64)], out: &mut Vec<u64>);

    /// Warp-wide gather from a global buffer into `out`.
    fn warp_gather(&mut self, buf: BufferId, indices: &[usize], out: &mut Vec<u64>);
    /// Warp-wide scatter of `(index, value)` pairs into a global buffer.
    fn warp_scatter(&mut self, buf: BufferId, writes: &[(usize, u64)]);
    /// Un-costed view of the elements `range` of a global buffer, for a
    /// run already accounted via [`BlockOps::account_contiguous_read`].
    fn read_run(&self, buf: BufferId, range: Range<usize>) -> &[u64];
    /// Accounts a fully coalesced contiguous read of `len` elements.
    fn account_contiguous_read(&mut self, buf: BufferId, len: usize);
    /// Accounts a coalesced byte stream with no backing buffer (e.g. the
    /// block's output ring).
    fn account_stream_bytes(&mut self, bytes: u64);

    /// `__syncthreads()` — block-wide barrier.
    fn syncthreads(&mut self);
    /// Charges `n` warp-wide ALU instructions.
    fn alu(&mut self, n: u64);
    /// Charges `count` conflict-free warp-wide shared accesses.
    fn charge_shared_accesses(&mut self, count: u64);
    /// Charges `count` shared atomics serialized over `serialization` lanes.
    fn charge_shared_atomics(&mut self, count: u64, serialization: u64);
    /// Charges `count` global atomics serialized over `serialization` lanes.
    fn charge_global_atomics(&mut self, count: u64, serialization: u64);
    /// Charges `count` additional serialized shared-atomic lane retirements.
    fn charge_atomic_serial_lanes(&mut self, count: u64);
    /// Charges `count` block barriers.
    fn charge_syncs(&mut self, count: u64);
    /// Charges `count` warp votes.
    fn charge_ballots(&mut self, count: u64);
    /// Records divergence waste directly (diagnostic).
    fn charge_divergence_waste(&mut self, cycles: u64);
}

/// A backend-portable GPU kernel: `block` is invoked once per thread block,
/// in block-index order, against whichever [`BlockOps`] the backend
/// provides.
pub trait DeviceKernel {
    /// Executes one thread block's work against `ctx`.
    fn block(&mut self, ctx: &mut dyn BlockOps);
}

/// A GPU execution backend: global-memory management plus kernel launches.
///
/// The contract every implementation upholds (and the parity tests verify):
///
/// * `alloc` fails with [`JoinError::GpuResourceExhausted`] naming `label`
///   when the device is out of memory (or the `gpu.memory.alloc` failpoint
///   fires).
/// * `launch` validates the grid/block shape identically to
///   [`skewjoin_gpu_sim::validate_launch_config`], honors the `gpu.launch`
///   failpoint, runs blocks **sequentially in block-index order** (kernels
///   may carry cross-block state such as host-precomputed scatter cursors),
///   and converts a block panic into `GpuResourceExhausted` (shared-memory
///   exhaustion) or `WorkerPanicked` (anything else). A failed launch is not
///   logged and leaves the backend usable.
pub trait GpuBackend {
    /// Which implementation this is.
    fn kind(&self) -> GpuBackendKind;
    /// The device limits this backend enforces.
    fn spec(&self) -> &DeviceSpec;

    /// Allocates a zeroed global buffer of `len` elements of `elem_bytes`
    /// (4 or 8). `label` names the allocation in the out-of-memory error.
    fn alloc(&mut self, len: usize, elem_bytes: usize, label: &str) -> Result<BufferId, JoinError>;
    /// Frees a buffer, returning its bytes to the pool.
    fn free(&mut self, buf: BufferId);
    /// Length of a buffer in elements.
    fn buffer_len(&self, buf: BufferId) -> usize;

    /// Host upload of a slice starting at `offset` (un-costed).
    fn host_upload(&mut self, buf: BufferId, offset: usize, values: &[u64]);
    /// Host read of one element (un-costed).
    fn host_read(&self, buf: BufferId, idx: usize) -> u64;
    /// Host write of one element (un-costed).
    fn host_write(&mut self, buf: BufferId, idx: usize, value: u64);
    /// Host view of a buffer's contents (un-costed).
    fn host_slice(&self, buf: BufferId) -> &[u64];

    /// Launches `kernel` over `grid_blocks` blocks of `block_dim` threads.
    fn launch(
        &mut self,
        name: &str,
        grid_blocks: usize,
        block_dim: usize,
        kernel: &mut dyn DeviceKernel,
    ) -> Result<LaunchStats, JoinError>;

    /// Total modeled cycles across all launches (0 for backends that do not
    /// model time).
    fn total_cycles(&self) -> u64;
    /// The launch history.
    fn launch_log(&self) -> &[LaunchStats];
    /// Human-readable launch timeline.
    fn render_timeline(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_defaults_to_sim_and_names_are_stable() {
        assert_eq!(GpuBackendKind::default(), GpuBackendKind::Sim);
        assert_eq!(GpuBackendKind::Sim.name(), "sim");
        assert_eq!(GpuBackendKind::Host.name(), "host");
        assert_eq!(GpuBackendKind::Host.to_string(), "host");
    }

    #[test]
    fn create_builds_the_requested_backend() {
        let spec = DeviceSpec::tiny(1 << 20);
        for kind in [GpuBackendKind::Sim, GpuBackendKind::Host] {
            let backend = kind.create(&spec).unwrap();
            assert_eq!(backend.kind(), kind);
            assert_eq!(
                backend.spec().shared_mem_per_block,
                spec.shared_mem_per_block
            );
        }
    }
}
