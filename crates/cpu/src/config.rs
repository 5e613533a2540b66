//! CPU join configuration.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::{CancelToken, JoinError};

use crate::simd::SimdPolicy;
use crate::task::SchedulerKind;

/// Default tuples per pipeline morsel (~16 K tuples = 128 KiB of input, a
/// cache-friendly unit that still yields enough tasks to keep the
/// work-stealing scheduler balanced).
pub const DEFAULT_MORSEL_TUPLES: usize = 16 * 1024;

/// Skew-detection parameters for CSH (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewDetectConfig {
    /// Fraction of R tuples sampled (paper: 1 %).
    pub sample_rate: f64,
    /// A sampled key is skewed once its sample frequency reaches this
    /// threshold (paper: 2).
    pub min_sample_freq: u32,
    /// Seed for the sampling RNG (sampling is pseudo-random but
    /// reproducible).
    pub seed: u64,
}

impl Default for SkewDetectConfig {
    fn default() -> Self {
        Self {
            sample_rate: 0.01,
            min_sample_freq: 2,
            seed: 0x5EED_CAFE,
        }
    }
}

impl SkewDetectConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), JoinError> {
        if !(self.sample_rate > 0.0 && self.sample_rate <= 1.0) {
            return Err(JoinError::InvalidConfig(format!(
                "sample_rate must be in (0, 1], got {}",
                self.sample_rate
            )));
        }
        if self.min_sample_freq < 2 {
            return Err(JoinError::InvalidConfig(
                "min_sample_freq must be at least 2 (1 would mark every sampled key skewed)".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration shared by all CPU join algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuJoinConfig {
    /// Worker threads (paper: 20). Defaults to the machine's parallelism.
    pub threads: usize,
    /// Radix partitioning scheme (paper/Cbase default: two passes, 14 bits
    /// total → 16 Ki cache-sized partitions for 32 M tuples).
    pub radix: RadixConfig,
    /// Cbase skew handling: a partition pair whose R side exceeds
    /// `split_factor ×` the average partition size is re-partitioned with
    /// `extra_pass_bits` additional radix bits (recursively, while splitting
    /// makes progress).
    pub split_factor: f64,
    /// Radix bits for each recursive splitting pass.
    pub extra_pass_bits: u32,
    /// CSH skew detection parameters.
    pub skew: SkewDetectConfig,
    /// Scheduler driving the partition-refinement and join task pools.
    pub scheduler: SchedulerKind,
    /// Bucket bits per partition hash table are sized to the build side; this
    /// caps them to bound memory on pathological partitions.
    pub max_bucket_bits: u32,
    /// SIMD policy for the scatter/probe hot loops ([`SimdPolicy::Auto`]
    /// detects the widest available instruction set at runtime;
    /// [`SimdPolicy::Scalar`] forces the always-compiled fallback).
    pub simd: SimdPolicy,
    /// Tuples per morsel in the pipelined execution of `cbase` and
    /// `cbase-npj`: the granularity at which partition/build/probe work
    /// flows through the scheduler. Must be in `256..=2^24`.
    pub morsel_tuples: usize,
    /// Cooperative cancellation/deadline token, checked at phase boundaries.
    /// The default is inert; the join service installs a live token per
    /// admitted request.
    pub cancel: CancelToken,
    /// Out-of-core grace-hash spill parameters. `None` (the default) keeps
    /// every join in memory; `Some` makes [`crate::CpuAlgorithm::run`]
    /// partition both relations to disk and join the reloaded pairs with
    /// the requested algorithm, within the configured working budget (see
    /// [`crate::spill`]).
    pub spill: Option<crate::spill::SpillConfig>,
}

impl Default for CpuJoinConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            radix: RadixConfig::two_pass(12),
            split_factor: 3.0,
            extra_pass_bits: 4,
            skew: SkewDetectConfig::default(),
            scheduler: SchedulerKind::default(),
            max_bucket_bits: 22,
            simd: SimdPolicy::default(),
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
            cancel: CancelToken::none(),
            spill: None,
        }
    }
}

impl CpuJoinConfig {
    /// Convenience constructor with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Configuration sized for a given input cardinality: total radix bits
    /// chosen so final partitions are roughly `target_partition_tuples`.
    pub fn sized_for(tuples: usize, target_partition_tuples: usize) -> Self {
        let parts = (tuples / target_partition_tuples.max(1)).max(1);
        let bits = (parts.next_power_of_two().trailing_zeros()).clamp(2, 18);
        Self {
            radix: RadixConfig::two_pass(bits),
            ..Self::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), JoinError> {
        if self.threads == 0 {
            return Err(JoinError::InvalidConfig("threads must be > 0".into()));
        }
        if self.radix.bits_per_pass.is_empty() || self.radix.total_bits() == 0 {
            return Err(JoinError::InvalidConfig(
                "radix config needs at least one pass with > 0 bits".into(),
            ));
        }
        if self.radix.total_bits() > 24 {
            return Err(JoinError::InvalidConfig(format!(
                "radix fan-out 2^{} is unreasonably large",
                self.radix.total_bits()
            )));
        }
        if self.split_factor < 1.0 {
            return Err(JoinError::InvalidConfig(
                "split_factor below 1.0 would split every partition".into(),
            ));
        }
        if self.extra_pass_bits == 0 || self.extra_pass_bits > 12 {
            return Err(JoinError::InvalidConfig(
                "extra_pass_bits must be in 1..=12".into(),
            ));
        }
        // 0 would shift table_hash by the full word width (a panic in debug
        // builds, an out-of-range bucket in release); past 28 the bucket
        // array alone exceeds a gigabyte.
        if !(1..=28).contains(&self.max_bucket_bits) {
            return Err(JoinError::InvalidConfig(format!(
                "max_bucket_bits must be in 1..=28, got {}",
                self.max_bucket_bits
            )));
        }
        // Below 256 the per-morsel bookkeeping dominates the work; past 2^24
        // a "morsel" is bigger than any workload we pipeline.
        if !(256..=(1 << 24)).contains(&self.morsel_tuples) {
            return Err(JoinError::InvalidConfig(format!(
                "morsel_tuples must be in 256..=2^24, got {}",
                self.morsel_tuples
            )));
        }
        if let Some(spill) = &self.spill {
            spill.validate()?;
        }
        self.skew.validate()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CpuJoinConfig::default().validate().unwrap();
    }

    #[test]
    fn sized_for_picks_reasonable_bits() {
        let cfg = CpuJoinConfig::sized_for(1 << 20, 1 << 10);
        assert_eq!(cfg.radix.total_bits(), 10);
        let tiny = CpuJoinConfig::sized_for(100, 1 << 10);
        assert_eq!(tiny.radix.total_bits(), 2);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut cfg = CpuJoinConfig::default();
        cfg.threads = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = CpuJoinConfig::default();
        cfg.split_factor = 0.5;
        assert!(cfg.validate().is_err());

        let mut cfg = CpuJoinConfig::default();
        cfg.skew.sample_rate = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = CpuJoinConfig::default();
        cfg.skew.min_sample_freq = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = CpuJoinConfig::default();
        cfg.max_bucket_bits = 0; // would shift table_hash by 32
        assert!(cfg.validate().is_err());
        cfg.max_bucket_bits = 29;
        assert!(cfg.validate().is_err());
        cfg.max_bucket_bits = 1;
        assert!(cfg.validate().is_ok());

        let mut cfg = CpuJoinConfig::default();
        cfg.morsel_tuples = 0;
        assert!(cfg.validate().is_err());
        cfg.morsel_tuples = 255;
        assert!(cfg.validate().is_err());
        cfg.morsel_tuples = (1 << 24) + 1;
        assert!(cfg.validate().is_err());
        cfg.morsel_tuples = 256;
        assert!(cfg.validate().is_ok());
        cfg.morsel_tuples = 1 << 24;
        assert!(cfg.validate().is_ok());
    }
}
