//! CPU join configuration.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::{CancelToken, JoinError};

use crate::simd::SimdPolicy;
use crate::task::SchedulerKind;

/// Build tuples a final radix partition is sized for (its table, at most
/// 12 B a tuple, fits a core's L2 cache).
pub const TARGET_PARTITION_TUPLES: usize = 4096;

/// Most radix bits one pass takes, so it writes at most 1 Ki streams.
pub const MAX_BITS_PER_PASS: u32 = 10;

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
    /// Radix partitioning scheme. `None` (the default) sizes it to the build
    /// side, [`CpuJoinConfig::derived_radix`]; `Some` pins it for in-memory
    /// joins (a spilled join's pairs derive their own). The paper's Cbase
    /// runs two passes of 7 bits at 32 M tuples.
    pub radix: Option<RadixConfig>,
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
    /// SIMD policy for the radix scatter and the no-partition join's probe
    /// ([`SimdPolicy::Auto`] detects the widest available instruction set
    /// at runtime; [`SimdPolicy::Scalar`] forces the always-compiled
    /// fallback). A radix join task's probe is always scalar.
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
            radix: None,
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

    /// The radix layout for `bits` total bits: one pass up to
    /// [`MAX_BITS_PER_PASS`], two even passes above it.
    pub fn radix_of_bits(bits: u32) -> RadixConfig {
        if bits <= MAX_BITS_PER_PASS {
            RadixConfig::single_pass(bits)
        } else {
            RadixConfig::two_pass(bits)
        }
    }

    /// The radix a build side of `r_tuples` is partitioned with by default:
    /// `max(1, ⌈log2(r_tuples / TARGET_PARTITION_TUPLES)⌉)` bits, so a final
    /// partition holds at most [`TARGET_PARTITION_TUPLES`] tuples on
    /// average, laid out by [`CpuJoinConfig::radix_of_bits`]. It depends on
    /// nothing but `r_tuples`, so a join has one layout at every thread
    /// count.
    pub fn derived_radix(r_tuples: usize) -> RadixConfig {
        let parts = r_tuples.div_ceil(TARGET_PARTITION_TUPLES);
        let bits = parts.next_power_of_two().trailing_zeros().clamp(1, 24);
        Self::radix_of_bits(bits)
    }

    /// The radix a join of a `r_tuples` build side runs with: the pinned
    /// one, or [`CpuJoinConfig::derived_radix`].
    pub fn radix_for(&self, r_tuples: usize) -> RadixConfig {
        self.radix
            .clone()
            .unwrap_or_else(|| Self::derived_radix(r_tuples))
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), JoinError> {
        if self.threads == 0 {
            return Err(JoinError::InvalidConfig("threads must be > 0".into()));
        }
        if let Some(radix) = &self.radix {
            if radix.bits_per_pass.is_empty() || radix.total_bits() == 0 {
                return Err(JoinError::InvalidConfig(
                    "radix config needs at least one pass with > 0 bits".into(),
                ));
            }
            if radix.total_bits() > 24 {
                return Err(JoinError::InvalidConfig(format!(
                    "radix fan-out 2^{} is unreasonably large",
                    radix.total_bits()
                )));
            }
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
        // Recursive splitting appends `extra_pass_bits` to the radix shift
        // each round; if even the first round would shift past the 32-bit
        // key, Cbase's skew handling is configured away.
        let pinned_bits = self.radix.as_ref().map_or(0, RadixConfig::total_bits);
        if pinned_bits + self.extra_pass_bits > 32 {
            return Err(JoinError::InvalidConfig(format!(
                "radix bits ({pinned_bits}) plus extra_pass_bits ({}) exceed the 32-bit key \
                 width — recursive splitting could never make progress",
                self.extra_pass_bits
            )));
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
    fn derived_radix_targets_4096_tuples_and_one_pass_up_to_10_bits() {
        for (log_r, passes) in [
            (10, vec![1]),
            (12, vec![1]),
            (15, vec![3]),
            (18, vec![6]),
            (22, vec![10]),
            (25, vec![6, 7]),
        ] {
            let radix = CpuJoinConfig::derived_radix(1 << log_r);
            assert_eq!(radix.bits_per_pass, passes, "|R| = 2^{log_r}");
        }
        // Between powers of two the fan-out rounds up, never down.
        assert_eq!(CpuJoinConfig::derived_radix((1 << 18) + 1).total_bits(), 7);
        assert_eq!(CpuJoinConfig::derived_radix(0).total_bits(), 1);
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
