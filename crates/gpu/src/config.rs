//! GPU join configuration.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::JoinError;
use skewjoin_gpu_sim::DeviceSpec;

use crate::backend::GpuBackendKind;

/// Skew parameters for GSH (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSkewConfig {
    /// Fraction of a large partition sampled during detection (paper: 1 %).
    pub sample_rate: f64,
    /// Number of most-frequent sampled keys marked skewed per large
    /// partition (paper: k = 3).
    pub top_k: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for GpuSkewConfig {
    fn default() -> Self {
        Self {
            sample_rate: 0.01,
            top_k: 3,
            seed: 0x6B5E_0D5E,
        }
    }
}

/// Configuration shared by the GPU join algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuJoinConfig {
    /// Simulated device (defaults to the paper's A100).
    pub spec: DeviceSpec,
    /// Threads per block (256, a typical choice for these kernels).
    pub block_dim: usize,
    /// Radix scheme; `None` sizes the fan-out automatically so expected
    /// partitions fill about half the shared-memory hash-table capacity.
    pub radix: Option<RadixConfig>,
    /// Tuples whose chained hash table fits one block's shared memory;
    /// derived from the spec when `None`. Partitions larger than this are
    /// "large": Gbase chunks them into sub-lists, GSH runs skew handling.
    pub table_capacity: Option<usize>,
    /// GSH skew parameters.
    pub skew: GpuSkewConfig,
    /// Which [`GpuBackend`](crate::backend::GpuBackend) executes the
    /// kernels: the simulator (default) or host execution.
    pub backend: GpuBackendKind,
}

impl Default for GpuJoinConfig {
    fn default() -> Self {
        Self {
            spec: DeviceSpec::a100(),
            block_dim: 256,
            radix: None,
            table_capacity: None,
            skew: GpuSkewConfig::default(),
            backend: GpuBackendKind::default(),
        }
    }
}

impl GpuJoinConfig {
    /// Tuples whose table (8 B tuple + 4 B link + 4 B bucket head each)
    /// fits the block's shared memory, rounded down to a power of two.
    pub fn derived_table_capacity(&self) -> usize {
        self.table_capacity.unwrap_or_else(|| {
            let per_tuple = 16; // 8 tuple + 4 next + 4 bucket head
            let cap = self.spec.shared_mem_per_block / per_tuple;
            (cap.max(64)).next_power_of_two() / 2
        })
    }

    /// Radix configuration for an input of `tuples` rows: two passes sized
    /// so an average partition fills half the table capacity.
    pub fn derived_radix(&self, tuples: usize) -> RadixConfig {
        if let Some(cfg) = &self.radix {
            return cfg.clone();
        }
        let target = (self.derived_table_capacity() / 2).max(64);
        let parts = (tuples / target).max(1);
        let bits = parts.next_power_of_two().trailing_zeros().clamp(2, 16);
        RadixConfig::two_pass(bits)
    }

    /// Validates the configuration against the device limits in `spec`,
    /// which both backends enforce.
    pub fn validate(&self) -> Result<(), JoinError> {
        let spec = &self.spec;
        if self.block_dim == 0
            || !self.block_dim.is_multiple_of(spec.warp_size)
            || self.block_dim > spec.max_threads_per_block
        {
            return Err(JoinError::InvalidConfig(format!(
                "block_dim {} must be a positive multiple of {} up to {}",
                self.block_dim, spec.warp_size, spec.max_threads_per_block
            )));
        }
        if !(self.skew.sample_rate > 0.0 && self.skew.sample_rate <= 1.0) {
            return Err(JoinError::InvalidConfig(
                "sample_rate must be in (0, 1]".into(),
            ));
        }
        if self.skew.top_k == 0 {
            return Err(JoinError::InvalidConfig("top_k must be ≥ 1".into()));
        }
        if let Some(capacity) = self.table_capacity {
            // A zero capacity would make the NM sub-list decomposition spin
            // forever (each sub-list would be empty), and an oversized one
            // would panic inside the build kernel instead of failing
            // cleanly: the chained table needs 8 B tuple + 4 B link per
            // tuple plus 4 B per bucket head, all in one block's shared
            // memory.
            if capacity == 0 {
                return Err(JoinError::InvalidConfig(
                    "table_capacity must be ≥ 1".into(),
                ));
            }
            let buckets = 1usize << skewjoin_common::hash::bucket_bits_for(capacity);
            let table_bytes = capacity * 12 + buckets * 4;
            if table_bytes > spec.shared_mem_per_block {
                return Err(JoinError::InvalidConfig(format!(
                    "table_capacity {capacity} needs {table_bytes} bytes of shared memory \
                     per block, but the device offers {}",
                    spec.shared_mem_per_block
                )));
            }
        }
        if let Some(cfg) = &self.radix {
            if cfg.bits_per_pass.is_empty() || cfg.total_bits() == 0 || cfg.total_bits() > 24 {
                return Err(JoinError::InvalidConfig(
                    "radix config must have 1–24 total bits".into(),
                ));
            }
            // The count kernel keeps one 4-byte histogram slot per child
            // partition in shared memory; an oversized per-pass fan-out
            // would panic inside the kernel instead of failing cleanly.
            for &bits in &cfg.bits_per_pass {
                let hist_bytes = (1usize << bits) * 4;
                if hist_bytes > spec.shared_mem_per_block {
                    return Err(JoinError::InvalidConfig(format!(
                        "radix pass of {bits} bits needs a {hist_bytes}-byte shared-memory \
                         histogram, but the device offers {} bytes per block",
                        spec.shared_mem_per_block
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        GpuJoinConfig::default().validate().unwrap();
    }

    #[test]
    fn capacity_derivation_fits_shared_memory() {
        let cfg = GpuJoinConfig::default();
        let cap = cfg.derived_table_capacity();
        assert!(cap.is_power_of_two());
        assert!(cap * 16 <= cfg.spec.shared_mem_per_block);
    }

    #[test]
    fn radix_derivation_scales_with_input() {
        let cfg = GpuJoinConfig::default();
        let small = cfg.derived_radix(1 << 12).total_bits();
        let large = cfg.derived_radix(1 << 22).total_bits();
        assert!(large > small);
    }

    #[test]
    fn rejects_bad_block_dim() {
        let mut cfg = GpuJoinConfig::default();
        cfg.block_dim = 100; // not a warp multiple
        assert!(cfg.validate().is_err());
        cfg.block_dim = 2048; // too large
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_radix_fanout_exceeding_shared_memory() {
        use skewjoin_gpu_sim::DeviceSpec;
        let cfg = GpuJoinConfig {
            spec: DeviceSpec::tiny(1 << 20),        // 4 KB shared per block
            radix: Some(RadixConfig::two_pass(24)), // 12-bit pass = 16 KB hist
            ..GpuJoinConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_table_capacity() {
        let mut cfg = GpuJoinConfig::default();
        cfg.table_capacity = Some(0); // would spin build_nm_tasks forever
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_table_capacity_exceeding_shared_memory() {
        let mut cfg = GpuJoinConfig::default();
        // 2¹⁴ tuples × 12 B + bucket heads ≫ 48 KB: the build kernel would
        // panic mid-launch if this were accepted.
        cfg.table_capacity = Some(1 << 14);
        assert!(cfg.validate().is_err());
        // The largest power of two that does fit must stay accepted.
        cfg.table_capacity = Some(2048);
        cfg.validate().unwrap();
    }

    #[test]
    fn backend_defaults_to_sim_and_validation_tracks_the_selected_backend() {
        let cfg = GpuJoinConfig::default();
        assert_eq!(cfg.backend, GpuBackendKind::Sim);
        // The host backend deliberately enforces the same limits as the
        // simulator, so a config valid on one is valid on the other — and
        // invalid configs are rejected against the selected backend's spec.
        let mut host_cfg = GpuJoinConfig::default();
        host_cfg.backend = GpuBackendKind::Host;
        host_cfg.validate().unwrap();
        host_cfg.table_capacity = Some(1 << 14); // exceeds shared memory
        assert!(host_cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_skew_params() {
        let mut cfg = GpuJoinConfig::default();
        cfg.skew.top_k = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = GpuJoinConfig::default();
        cfg.skew.sample_rate = 2.0;
        assert!(cfg.validate().is_err());
    }
}
