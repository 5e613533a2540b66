//! A small skew-aware planner: samples the build side (the same estimator
//! CSH uses) and picks the algorithm the paper's evaluation recommends for
//! the estimated skew level.
//!
//! The decision rule follows Figures 4a/4b directly: the skew-conscious
//! joins match the baselines at low skew and win increasingly from zipf
//! ≈ 0.5 upward, so the planner selects CSH/GSH as soon as sampling finds
//! any key above the skew threshold, and the baseline radix join otherwise
//! (its task-queue machinery has marginally less overhead when no key is
//! hot).
//!
//! Three serving-oriented extensions live here as well:
//!
//! * [`estimate_join_memory`] — a conservative per-query byte estimate the
//!   join service's memory governor reserves against its global budget;
//! * [`fit_to_budget`] — the governor's degradation ladder: the one
//!   function that fits a join to the memory and disk budgets, narrowing
//!   its radix, switching a GPU join to its CPU twin, or spilling;
//! * [`PlanCache`] — memoized planner decisions keyed by a cheap relation
//!   fingerprint plus size and skew buckets, so repeat queries over the
//!   same (or look-alike) relations skip the sampling pass.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use skewjoin_common::hash::{mix64, RadixConfig};
use skewjoin_common::{JoinError, JoinStats, Relation, Rung, SinkSpec, Tuple, TwinCause};
use skewjoin_cpu::skew::detect_skewed_keys;
use skewjoin_cpu::{CpuJoinConfig, SpillConfig, MIN_SPILL_BUDGET};
use skewjoin_gpu::GpuJoinConfig;

use crate::api::{run_join, Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig};

/// Validates a combined [`JoinConfig`]: the per-device `validate()` calls.
/// Returns the first violation as a specific [`JoinError::InvalidConfig`].
pub fn validate_config(cfg: &JoinConfig) -> Result<(), JoinError> {
    cfg.cpu.validate()?;
    cfg.gpu.validate()
}

/// Which device the plan should target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetDevice {
    /// Multi-threaded CPU execution.
    Cpu,
    /// Simulated GPU execution.
    Gpu,
}

/// Planner knobs.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Device to plan for.
    pub device: TargetDevice,
    /// CPU configuration used for sampling and (if CPU) execution.
    pub cpu: CpuJoinConfig,
    /// GPU configuration used if the device is [`TargetDevice::Gpu`].
    pub gpu: GpuJoinConfig,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self {
            device: TargetDevice::Cpu,
            cpu: CpuJoinConfig::default(),
            gpu: GpuJoinConfig::default(),
        }
    }
}

impl PlannerOptions {
    /// The combined execution configuration these options describe.
    pub fn join_config(&self) -> JoinConfig {
        JoinConfig {
            cpu: self.cpu.clone(),
            gpu: self.gpu.clone(),
        }
    }
}

/// The planner's decision.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Chosen algorithm (CPU or GPU per the options' target device).
    pub algorithm: Algorithm,
    /// Number of skewed keys the sample found.
    pub skewed_keys_estimated: usize,
    /// Human-readable rationale.
    pub reason: String,
}

impl JoinPlan {
    /// Builds a plan for `r ⋈ s` by sampling R with the CSH estimator.
    ///
    /// The planner raises CSH's sample-frequency threshold to at least 3:
    /// at threshold 2 a uniform table occasionally produces one or two
    /// birthday-collision false positives, which is harmless inside CSH
    /// (a tiny extra skew array) but should not flip the *algorithm choice*.
    pub fn plan(r: &Relation, _s: &Relation, opts: &PlannerOptions) -> Self {
        let mut detect_cfg = opts.cpu.skew;
        detect_cfg.min_sample_freq = detect_cfg.min_sample_freq.max(3);
        let skewed = detect_skewed_keys(r, &detect_cfg);
        let has_skew = !skewed.is_empty();
        let reason = if has_skew {
            format!(
                "sample found {} skewed key(s) (hottest sampled {}×): choosing the \
                 skew-conscious join",
                skewed.len(),
                skewed.first().map(|k| k.frequency).unwrap_or(0)
            )
        } else {
            "sample found no skewed keys: baseline radix join has less overhead".to_string()
        };
        let algorithm = match opts.device {
            TargetDevice::Cpu => Algorithm::Cpu(if has_skew {
                CpuAlgorithm::Csh
            } else {
                CpuAlgorithm::Cbase
            }),
            // GSH degenerates to Gbase when no partition is large, so it is
            // always a safe GPU default; still prefer Gbase when the sample
            // shows no skew, mirroring the paper's framing.
            TargetDevice::Gpu => Algorithm::Gpu(if has_skew {
                GpuAlgorithm::Gsh
            } else {
                GpuAlgorithm::Gbase
            }),
        };
        Self {
            algorithm,
            skewed_keys_estimated: skewed.len(),
            reason,
        }
    }

    /// Executes the planned join.
    pub fn execute(
        &self,
        r: &Relation,
        s: &Relation,
        opts: &PlannerOptions,
        sink: SinkSpec,
    ) -> Result<JoinStats, JoinError> {
        run_join(self.algorithm, r, s, &opts.join_config(), sink)
    }
}

// ---------------------------------------------------------------------------
// Memory cost model
// ---------------------------------------------------------------------------

/// A conservative per-query memory footprint estimate, split by where the
/// bytes live. The join service's governor reserves `total_bytes()` against
/// its global budget before admitting a query to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Host-side bytes: partition scratch (the radix joins ping-pong both
    /// relations through one out-of-place copy each), hash tables, and
    /// per-worker histograms.
    pub host_bytes: u64,
    /// Bytes that must additionally fit in GPU global memory (0 for CPU
    /// algorithms): resident input tables, their partitioned copies, and
    /// bucket metadata.
    pub device_bytes: u64,
}

impl CostEstimate {
    /// The total reservation the governor should take for this query.
    pub fn total_bytes(&self) -> u64 {
        self.host_bytes.saturating_add(self.device_bytes)
    }
}

/// Host bytes a GPU join's estimate adds beyond the partition passes'
/// block plans, which it counts exactly: the backend's launch log and the
/// kernels' small scratch vectors (under 1 KiB at 2^12 ⋈ 2^16), plus room
/// for a future allocation on the GPU path, which would otherwise push a
/// join past an estimate that has no slack.
const GPU_HOST_HEADROOM: u64 = 64 << 10;

/// Estimates the peak memory a join of `r_tuples ⋈ s_tuples` needs under
/// `cfg`, as an upper bound: it is better for the governor to queue a query
/// that would have fit than to admit one that OOMs.
///
/// The model (8-byte tuples throughout):
///
/// * **Cbase / cbase-npj / CSH** — [`CpuAlgorithm::footprint`]: the input
///   and everything the join allocates, the same figure the spill sizes
///   its partition pairs by.
/// * **Gbase / GSH** — both relations resident on the device together with
///   R's partitioned copy, then the larger of what S's last partition pass
///   (both of S's partition buffers) and the join phase (S's partitioned
///   copy and the bucket tables over the build side, ~2 words per R tuple)
///   add, and offset metadata per partition (the fan-out the GPU join
///   derives for this input); the host keeps the staging copies it already
///   owns, the partition passes' block plans and a fixed
///   [`GPU_HOST_HEADROOM`].
pub fn estimate_join_memory(
    algorithm: Algorithm,
    r_tuples: usize,
    s_tuples: usize,
    cfg: &JoinConfig,
) -> CostEstimate {
    let tuple = std::mem::size_of::<Tuple>() as u64;
    let r = r_tuples as u64;
    let s = s_tuples as u64;
    match algorithm {
        Algorithm::Cpu(cpu) => CostEstimate {
            host_bytes: cpu.footprint(r_tuples, s_tuples, &cfg.cpu),
            device_bytes: 0,
        },
        Algorithm::Gpu(_) => {
            let radix = cfg.gpu.derived_radix(r_tuples.max(s_tuples).max(1));
            let partitions = 1u64 << radix.total_bits().min(24);
            // Both uploads and R's partitioned copy stay resident; on top
            // of them S's second pass holds both of S's partition buffers
            // and the join phase S's partitioned copy and R's bucket
            // tables, never both at once.
            let device = (2 * (r + s) + (2 * r).max(s)) * tuple + partitions * 16;
            // A partition pass plans its blocks on the host
            // (`gpu::partition::run_pass`). Counted exactly, not rounded
            // up, from what it allocates:
            // per block of `8 · block_dim` tuples its plan (3 words, twice
            // that while its `Vec` grows), histogram and write cursor
            // (`fanout` words and a 3-word header each); per parent region
            // its range (2 words), child sizes, child starts and rolling
            // cursors (`fanout + 1` words and a header each) and its parent
            // directory entry; per partition an entry in R's and in S's
            // directory.
            let fanout = radix.fanout(radix.bits_per_pass.len() - 1) as u64;
            let chunk = 8 * cfg.gpu.block_dim.max(1) as u64;
            let regions = partitions / fanout;
            let blocks = r.max(s).div_ceil(chunk) + regions;
            let plan_words =
                blocks * (2 * fanout + 12) + regions * (3 * fanout + 13) + 2 * partitions;
            let plans = plan_words * 8 + GPU_HOST_HEADROOM;
            CostEstimate {
                host_bytes: (r + s) * tuple + plans,
                device_bytes: device,
            }
        }
    }
}

/// The footprint of running a join through the out-of-core grace-hash rung
/// instead of fully in memory: a bounded host working set plus scratch disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillEstimate {
    /// Peak host bytes while spilling: the scatter buffers during the
    /// partition phase and the largest affordable reloaded pair afterward,
    /// both bounded by the spill `mem_budget`.
    pub host_bytes: u64,
    /// Peak scratch-disk bytes: the level-0 copy of both relations plus one
    /// concurrently-live recursion level (a sub-partitioning re-spills a
    /// partition's tuples before the parent files are removed).
    pub disk_bytes: u64,
}

impl SpillEstimate {
    /// Whether the spill fits the given disk budget (the host side is
    /// bounded by the spill config's own `mem_budget`, checked separately).
    pub fn fits_disk(&self, disk_budget: u64) -> bool {
        self.disk_bytes <= disk_budget
    }
}

/// Estimates the cost of completing `r_tuples ⋈ s_tuples` through the
/// grace-hash spill under an in-memory working-set budget of `mem_budget`
/// bytes. Conservative in the same direction as [`estimate_join_memory`]:
/// the disk bound covers the worst case of a whole extra resident recursion
/// level, so a reservation that fits never runs out of scratch space
/// mid-join.
pub fn estimate_spill_cost(r_tuples: usize, s_tuples: usize, mem_budget: u64) -> SpillEstimate {
    let tuple = std::mem::size_of::<Tuple>() as u64;
    let level0 = (r_tuples as u64 + s_tuples as u64) * tuple;
    SpillEstimate {
        host_bytes: mem_budget.max(MIN_SPILL_BUDGET),
        disk_bytes: 2 * level0,
    }
}

/// The radix bits a GPU join of `r_tuples ⋈ s_tuples` runs with under
/// `cfg`: the configured radix, or the fan-out it derives from the input.
fn gpu_radix_bits(cfg: &JoinConfig, r_tuples: usize, s_tuples: usize) -> u32 {
    cfg.gpu
        .derived_radix(r_tuples.max(s_tuples).max(1))
        .total_bits()
}

// ---------------------------------------------------------------------------
// Budget fit: the governor's degradation ladder
// ---------------------------------------------------------------------------

/// Radix-bit floor the budget fit narrows a join's fan-out down to.
const MIN_RADIX_BITS: u32 = 6;

/// The bounded in-memory working set a spilled join runs under: ¾ of the
/// memory budget, leaving headroom for the caller's own structures, floored
/// at the grace join's minimum.
fn spill_working_set(memory_budget: u64) -> u64 {
    (memory_budget / 4 * 3).max(MIN_SPILL_BUDGET)
}

/// A join fitted to a memory and a scratch-disk budget by
/// [`fit_to_budget`]: what runs, and what the caller reserves for it.
#[derive(Debug, Clone)]
pub struct BudgetPlan {
    /// The algorithm that runs: the requested one, or the CPU twin of a GPU
    /// request that does not fit.
    pub algorithm: Algorithm,
    /// The configuration it runs with: the request's, with any narrowed
    /// radix or spill configuration applied.
    pub config: JoinConfig,
    /// Bytes to reserve from the memory budget.
    pub memory_bytes: u64,
    /// Bytes to reserve from the disk budget; 0 unless the plan spills.
    pub disk_bytes: u64,
    /// The ladder rungs taken, in order. Empty when the join fits as
    /// requested.
    pub rungs: Vec<Rung>,
}

/// Fits `algorithm` over `r_tuples ⋈ s_tuples` under `cfg` to a memory and
/// a scratch-disk budget. The first candidate whose
/// [`estimate_join_memory`] fits the memory budget becomes the plan:
///
/// 1. the requested algorithm, its radix narrowed 2 bits at a time down to
///    a floor of 6 bits. A GPU join narrows from the fan-out it derives for
///    this input and is never set wider than that;
/// 2. for a GPU request, its CPU twin (Gbase→Cbase, GSH→CSH), starting
///    from the request's own CPU radix and narrowed the same way;
/// 3. the grace-hash spill on the CPU algorithm, under a working set of ¾
///    of the memory budget, with the scratch footprint of
///    [`estimate_spill_cost`] reserved from the disk budget.
///
/// `Err` says why not even the spill fits: the memory budget is below the
/// spill floor, or the scratch footprint exceeds the disk budget.
pub fn fit_to_budget(
    algorithm: Algorithm,
    r_tuples: usize,
    s_tuples: usize,
    cfg: &JoinConfig,
    memory_budget: u64,
    disk_budget: u64,
) -> Result<BudgetPlan, String> {
    let cpu_algorithm = match algorithm {
        Algorithm::Cpu(cpu) => cpu,
        Algorithm::Gpu(gpu) => gpu.cpu_twin(),
    };
    let twin = (!algorithm.is_cpu()).then_some(Algorithm::Cpu(cpu_algorithm));
    let mut rungs = Vec::new();
    let mut floor = 0;
    for candidate in std::iter::once(algorithm).chain(twin) {
        if candidate != algorithm {
            rungs.push(Rung::CpuTwin {
                gpu: algorithm.to_string(),
                cpu: candidate.to_string(),
                cause: TwinCause::Budget {
                    estimate: floor,
                    budget: memory_budget,
                },
            });
        }
        match narrow_to_fit(candidate, r_tuples, s_tuples, cfg, memory_budget) {
            Ok((config, memory_bytes, narrowed)) => {
                rungs.extend(narrowed);
                return Ok(BudgetPlan {
                    algorithm: candidate,
                    config,
                    memory_bytes,
                    disk_bytes: 0,
                    rungs,
                });
            }
            Err(estimate) => floor = estimate,
        }
    }

    let working_set = spill_working_set(memory_budget);
    if working_set > memory_budget {
        return Err(format!(
            "memory estimate {floor} B exceeds budget {memory_budget} B even fully degraded, \
             and the budget is below the {MIN_SPILL_BUDGET} B spill floor"
        ));
    }
    let spill_est = estimate_spill_cost(r_tuples, s_tuples, working_set);
    if !spill_est.fits_disk(disk_budget) {
        return Err(format!(
            "memory estimate {floor} B exceeds budget {memory_budget} B even fully degraded, \
             and the spill would need {} B of scratch against a {disk_budget} B disk budget",
            spill_est.disk_bytes
        ));
    }
    let spill = SpillConfig::with_budget(working_set);
    rungs.push(Rung::Spill {
        partition_bits: spill.partition_bits,
        estimate: floor,
        budget: memory_budget,
        working_set,
        scratch_bytes: spill_est.disk_bytes,
    });
    let mut config = cfg.clone();
    config.cpu.spill = Some(spill);
    Ok(BudgetPlan {
        algorithm: cpu_algorithm.into(),
        config,
        memory_bytes: working_set,
        disk_bytes: spill_est.disk_bytes,
        rungs,
    })
}

/// Narrows `algorithm`'s radix 2 bits at a time, from the fan-out it would
/// run with, until its memory estimate fits `budget`. A CPU radix keeps the
/// derived rule's pass split ([`CpuJoinConfig::radix_of_bits`]). `Ok`
/// carries the fitted configuration, its estimate and one rung per
/// narrowing step; `Err` the estimate at the radix floor.
fn narrow_to_fit(
    algorithm: Algorithm,
    r_tuples: usize,
    s_tuples: usize,
    cfg: &JoinConfig,
    budget: u64,
) -> Result<(JoinConfig, u64, Vec<Rung>), u64> {
    let mut cfg = cfg.clone();
    let mut rungs = Vec::new();
    let mut bits = match algorithm {
        // NPJ builds one global table: its estimate has no radix to narrow.
        Algorithm::Cpu(CpuAlgorithm::CbaseNpj) => MIN_RADIX_BITS,
        Algorithm::Cpu(_) => cfg.cpu.radix_for(r_tuples).total_bits(),
        Algorithm::Gpu(_) => gpu_radix_bits(&cfg, r_tuples, s_tuples),
    };
    loop {
        let estimate = estimate_join_memory(algorithm, r_tuples, s_tuples, &cfg).total_bytes();
        if estimate <= budget {
            return Ok((cfg, estimate, rungs));
        }
        if bits <= MIN_RADIX_BITS {
            return Err(estimate);
        }
        bits = bits.saturating_sub(2).max(MIN_RADIX_BITS);
        match algorithm {
            Algorithm::Cpu(_) => cfg.cpu.radix = Some(CpuJoinConfig::radix_of_bits(bits)),
            Algorithm::Gpu(_) => cfg.gpu.radix = Some(RadixConfig::two_pass(bits)),
        }
        rungs.push(Rung::NarrowedRadix {
            algorithm: algorithm.to_string(),
            bits,
            estimate,
            budget,
        });
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Cache key: a cheap relation fingerprint and the target device. Two
/// relations that hash to the same key are "the same input for planning
/// purposes" — same algorithm choice, not necessarily identical data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// [`relation_fingerprint`] of the build side.
    pub fingerprint: u64,
    /// The device the plan targets.
    pub device: TargetDevice,
}

/// A cheap order-sensitive fingerprint of a relation: its length mixed with
/// up to 64 keys sampled at a fixed stride. Collisions only cost a wrong
/// *plan* (still a correct join), so 64 probes is plenty.
pub fn relation_fingerprint(rel: &Relation) -> u64 {
    let n = rel.len();
    let mut h = mix64(0x9E37_79B9_7F4A_7C15 ^ n as u64);
    if n == 0 {
        return h;
    }
    let stride = (n / 64).max(1);
    for i in (0..n).step_by(stride).take(64) {
        h = mix64(h ^ u64::from(rel[i].key).wrapping_mul(0xA24B_AED4_963E_E407));
    }
    h
}

struct PlanCacheInner {
    map: HashMap<PlanCacheKey, JoinPlan>,
    // Insertion order for FIFO eviction; entries stay cheap (a key copy).
    order: VecDeque<PlanCacheKey>,
}

/// A bounded memo of planner decisions with hit/miss counters.
///
/// Thread-safe behind one mutex — the guarded section is a `HashMap` probe,
/// negligible next to the sampling pass a hit avoids. Eviction is FIFO: the
/// workload this serves (a join service replaying look-alike queries) has no
/// use for LRU's extra bookkeeping.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` decisions (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(PlanCacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key `plan` would use for this input.
    pub fn key_for(r: &Relation, opts: &PlannerOptions) -> PlanCacheKey {
        PlanCacheKey {
            fingerprint: relation_fingerprint(r),
            device: opts.device,
        }
    }

    /// Plans `r ⋈ s`, reusing a cached decision when one exists for this
    /// key. Returns the plan and whether it was a cache hit.
    pub fn plan(&self, r: &Relation, s: &Relation, opts: &PlannerOptions) -> (JoinPlan, bool) {
        let key = Self::key_for(r, opts);
        {
            let inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(plan) = inner.map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (plan.clone(), true);
            }
        }
        // Plan outside the lock: concurrent misses on the same key duplicate
        // the sampling work once, which beats serializing every miss.
        let plan = JoinPlan::plan(r, s, opts);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.capacity {
                match inner.order.pop_front() {
                    Some(old) => {
                        inner.map.remove(&old);
                    }
                    None => break,
                }
            }
            inner.map.insert(key, plan.clone());
            inner.order.push_back(key);
        }
        (plan, false)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Decisions currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

    #[test]
    fn skewed_input_selects_csh() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 11));
        let opts = PlannerOptions::default();
        let plan = JoinPlan::plan(&w.r, &w.s, &opts);
        assert_eq!(plan.algorithm, Algorithm::Cpu(CpuAlgorithm::Csh));
        assert!(plan.skewed_keys_estimated > 0);
        assert!(plan.reason.contains("skew-conscious"));
    }

    #[test]
    fn uniform_input_selects_cbase() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 0.0, 13));
        let opts = PlannerOptions::default();
        let plan = JoinPlan::plan(&w.r, &w.s, &opts);
        assert_eq!(plan.algorithm, Algorithm::Cpu(CpuAlgorithm::Cbase));
    }

    #[test]
    fn gpu_target_selects_gpu_algorithms() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 17));
        let mut opts = PlannerOptions::default();
        opts.device = TargetDevice::Gpu;
        let plan = JoinPlan::plan(&w.r, &w.s, &opts);
        assert_eq!(plan.algorithm, Algorithm::Gpu(GpuAlgorithm::Gsh));
        assert!(!plan.algorithm.is_cpu());
    }

    #[test]
    fn bad_configs_are_rejected_with_specific_messages() {
        use skewjoin_common::hash::RadixConfig;

        type Mutation = fn(&mut JoinConfig);
        // (mutation, expected fragment of the InvalidConfig message)
        let cases: Vec<(Mutation, &str)> = vec![
            (|c| c.cpu.threads = 0, "threads must be > 0"),
            (|c| c.cpu.morsel_tuples = 7, "morsel_tuples"),
            (
                |c| {
                    c.cpu.radix = Some(RadixConfig::two_pass(24));
                    c.cpu.extra_pass_bits = 12;
                },
                "32-bit key width",
            ),
            (|c| c.gpu.block_dim = 33, "block_dim"),
            (|c| c.gpu.skew.top_k = 0, "top_k"),
        ];
        for (i, (mutate, fragment)) in cases.into_iter().enumerate() {
            let mut cfg = JoinConfig::default();
            mutate(&mut cfg);
            match validate_config(&cfg) {
                Err(JoinError::InvalidConfig(msg)) => assert!(
                    msg.contains(fragment),
                    "case {i}: message {msg:?} lacks {fragment:?}"
                ),
                other => panic!("case {i}: expected InvalidConfig, got {other:?}"),
            }
        }
        validate_config(&JoinConfig::default()).unwrap();
    }

    #[test]
    fn executed_plan_matches_direct_run() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.9, 19));
        let mut opts = PlannerOptions::default();
        opts.cpu = CpuJoinConfig::with_threads(2);
        let plan = JoinPlan::plan(&w.r, &w.s, &opts);
        assert!(plan.algorithm.is_cpu());
        let planned = plan.execute(&w.r, &w.s, &opts, SinkSpec::Count).unwrap();
        let direct = run_join(
            plan.algorithm,
            &w.r,
            &w.s,
            &opts.join_config(),
            SinkSpec::Count,
        )
        .unwrap();
        assert_eq!(planned.result_count, direct.result_count);
        assert_eq!(planned.checksum, direct.checksum);
    }

    #[test]
    fn memory_estimates_scale_with_input_and_device() {
        let cfg = JoinConfig::default();
        let small =
            estimate_join_memory(Algorithm::Cpu(CpuAlgorithm::Cbase), 1 << 10, 1 << 10, &cfg);
        let large =
            estimate_join_memory(Algorithm::Cpu(CpuAlgorithm::Cbase), 1 << 20, 1 << 20, &cfg);
        assert!(large.total_bytes() > small.total_bytes());
        assert_eq!(small.device_bytes, 0);

        // The partitioned CPU joins hold scratch copies; at minimum the
        // estimate covers both inputs twice.
        assert!(small.host_bytes >= 4 * (1u64 << 10) * 8);

        let gpu = estimate_join_memory(Algorithm::Gpu(GpuAlgorithm::Gsh), 1 << 10, 1 << 10, &cfg);
        assert!(gpu.device_bytes > 0);
        assert!(gpu.total_bytes() > gpu.host_bytes);

        let npj = estimate_join_memory(
            Algorithm::Cpu(CpuAlgorithm::CbaseNpj),
            1 << 10,
            1 << 10,
            &cfg,
        );
        assert!(npj.host_bytes > 0);
        assert_eq!(npj.device_bytes, 0);
    }

    #[test]
    fn spill_estimates_bound_host_by_budget_and_disk_by_input() {
        let est = estimate_spill_cost(1 << 20, 1 << 20, 32 << 20);
        // Host stays at the configured working-set budget regardless of
        // input size; disk covers both level-0 copies plus one recursion.
        assert_eq!(est.host_bytes, 32 << 20);
        assert_eq!(est.disk_bytes, 2 * 2 * (1u64 << 20) * 8);
        assert!(est.fits_disk(est.disk_bytes));
        assert!(!est.fits_disk(est.disk_bytes - 1));

        // A budget below the spill floor is rounded up to it — the grace
        // join cannot run with less.
        let tiny = estimate_spill_cost(1024, 1024, 1);
        assert_eq!(tiny.host_bytes, skewjoin_cpu::MIN_SPILL_BUDGET);
    }

    #[test]
    fn fit_to_budget_walks_the_ladder_in_order() {
        // At 2^23 tuples CSH derives 11 bits in two passes; narrowing to 9
        // bits takes one pass and drops the refined copy of the input. GSH's
        // estimate lies between the two, so a budget of CSH's 9-bit estimate
        // sends a GSH request to its twin, which then narrows.
        let n = 1 << 23;
        let mut cfg = JoinConfig::default();
        cfg.cpu.threads = 1;
        let (csh, gsh) = (
            Algorithm::Cpu(CpuAlgorithm::Csh),
            Algorithm::Gpu(GpuAlgorithm::Gsh),
        );
        let estimate =
            |algorithm, cfg: &JoinConfig| estimate_join_memory(algorithm, n, n, cfg).total_bytes();
        let mut narrowed = cfg.clone();
        narrowed.cpu.radix = Some(RadixConfig::single_pass(9));
        let (b9, b11) = (estimate(csh, &narrowed), estimate(csh, &cfg));
        assert!(b9 < estimate(gsh, &cfg) && estimate(gsh, &cfg) < b11);
        let (big, min) = (1 << 30, MIN_SPILL_BUDGET);

        // (case, algorithm, memory budget, disk budget, expected): `Ok` is
        // the algorithm, its CPU radix bits and what the last rung must be
        // (`None` = no rungs at all); `Err` a fragment of the reason.
        type LastRung = Option<fn(&Rung) -> bool>;
        type Expected = Result<(Algorithm, u32, LastRung), &'static str>;
        let cases: [(&str, Algorithm, u64, u64, Expected); 6] = [
            ("untouched", csh, big, 0, Ok((csh, 11, None))),
            (
                "narrow",
                csh,
                b9,
                0,
                Ok((
                    csh,
                    9,
                    Some(|r| matches!(r, Rung::NarrowedRadix { bits: 9, .. })),
                )),
            ),
            (
                "twin",
                gsh,
                b9,
                0,
                Ok((
                    csh,
                    9,
                    Some(|r| matches!(r, Rung::NarrowedRadix { bits: 9, .. })),
                )),
            ),
            (
                "spill",
                gsh,
                min,
                big,
                Ok((
                    csh,
                    11,
                    Some(|r| {
                        matches!(
                            r,
                            Rung::Spill {
                                partition_bits: 6,
                                ..
                            }
                        )
                    }),
                )),
            ),
            ("no disk", csh, min, 0, Err("disk budget")),
            ("floor", csh, min - 1, big, Err("spill floor")),
        ];
        for (name, algorithm, memory, disk, expected) in cases {
            match (fit_to_budget(algorithm, n, n, &cfg, memory, disk), expected) {
                (Ok(plan), Ok((algorithm, bits, last_rung))) => {
                    assert_eq!(plan.algorithm, algorithm, "{name}");
                    assert_eq!(plan.config.cpu.radix_for(n).total_bits(), bits, "{name}");
                    let spilled = matches!(plan.rungs.last(), Some(Rung::Spill { .. }));
                    assert_eq!(plan.config.cpu.spill.is_some(), spilled, "{name}");
                    assert!(plan.memory_bytes <= memory, "{name}");
                    match last_rung {
                        Some(is_last) => assert!(
                            plan.rungs.last().is_some_and(is_last),
                            "{name}: {:?}",
                            plan.rungs
                        ),
                        None => assert!(plan.rungs.is_empty() && plan.config == cfg, "{name}"),
                    }
                }
                (Err(reason), Err(fragment)) => {
                    assert!(reason.contains("budget"), "{name}: {reason}");
                    assert!(reason.contains(fragment), "{name}: {reason}");
                }
                (other, _) => panic!("{name}: unexpected {other:?}"),
            }
        }
        let twin = fit_to_budget(gsh, n, n, &cfg, b9, 0).unwrap();
        assert!(
            matches!(&twin.rungs[..], [Rung::CpuTwin { gpu, cpu, cause: TwinCause::Budget { .. } }, _]
                if gpu == "GSH" && cpu == "CSH"),
            "twin: {:?}",
            twin.rungs
        );
    }

    #[test]
    fn gpu_plans_narrow_from_the_derived_radix_and_never_widen_it() {
        // At 2^20 tuples the A100 profile derives 10 GPU radix bits; the
        // CPU default (12) would have widened the fan-out.
        let n = 1 << 20;
        let cfg = JoinConfig::default();
        let gsh = Algorithm::Gpu(GpuAlgorithm::Gsh);
        let derived = cfg.gpu.derived_radix(n).total_bits();
        assert_eq!(derived, 10);
        let mut at_8_bits = cfg.clone();
        at_8_bits.gpu.radix = Some(RadixConfig::two_pass(8));
        let budget = estimate_join_memory(gsh, n, n, &at_8_bits).total_bytes();
        let plan = fit_to_budget(gsh, n, n, &cfg, budget, 0).unwrap();
        assert_eq!(plan.algorithm, gsh);
        assert_eq!(plan.config.gpu.derived_radix(n).total_bits(), 8);
        assert_eq!(plan.config.cpu, cfg.cpu, "the CPU half stays as requested");
        assert!(
            matches!(&plan.rungs[0], Rung::NarrowedRadix { algorithm, bits: 8, .. } if algorithm == "GSH"),
            "{:?}",
            plan.rungs
        );
    }

    #[test]
    fn every_fitted_plan_stays_within_its_budgets() {
        // Seeded sweep over (algorithm, sizes, radix, budgets).
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
            state % bound
        };
        let (mut spilled, mut twins, mut rejected) = (0, 0, 0);
        for case in 0..2000 {
            let algorithm = Algorithm::ALL[next(5) as usize];
            let r = 1 + next(1 << 20) as usize;
            let s = 1 + next(1 << 20) as usize;
            let mut cfg = JoinConfig::default();
            cfg.cpu.threads = 1 + next(16) as usize;
            if next(2) == 0 {
                cfg.cpu.radix = Some(RadixConfig::two_pass(2 + next(15) as u32));
            }
            if next(2) == 0 {
                cfg.gpu.radix = Some(RadixConfig::two_pass(2 + next(15) as u32));
            }
            let memory = 1u64 << next(28);
            let disk = if next(4) == 0 { 0 } else { 1u64 << next(32) };
            let plan = match fit_to_budget(algorithm, r, s, &cfg, memory, disk) {
                Ok(plan) => plan,
                Err(reason) => {
                    rejected += 1;
                    assert!(reason.contains("budget"), "case {case}: {reason}");
                    continue;
                }
            };
            assert!(plan.memory_bytes <= memory, "case {case}: {plan:?}");
            let narrowed = plan
                .rungs
                .iter()
                .any(|rung| matches!(rung, Rung::NarrowedRadix { .. }));
            assert!(!narrowed || algorithm.name() != "cbase-npj", "case {case}");
            if plan.config.cpu.spill.is_some() {
                spilled += 1;
                assert!(plan.algorithm.is_cpu(), "case {case}: spill is CPU-only");
                assert!(plan.disk_bytes <= disk, "case {case}: {plan:?}");
            } else {
                assert_eq!(plan.disk_bytes, 0, "case {case}");
                let estimate = estimate_join_memory(plan.algorithm, r, s, &plan.config);
                assert_eq!(plan.memory_bytes, estimate.total_bytes(), "case {case}");
            }
            if !plan.algorithm.is_cpu() {
                let n = r.max(s);
                assert!(
                    plan.config.gpu.derived_radix(n).total_bits()
                        <= cfg.gpu.derived_radix(n).total_bits(),
                    "case {case}: a GPU plan widened its fan-out"
                );
            } else if !algorithm.is_cpu() {
                twins += 1;
            } else {
                assert!(
                    plan.config.cpu.radix_for(r).total_bits() <= cfg.cpu.radix_for(r).total_bits(),
                    "case {case}: a CPU plan widened its fan-out"
                );
            }
        }
        // The sweep reaches every rung, not just the happy path.
        assert!(
            spilled > 0 && twins > 0 && rejected > 0,
            "{spilled}/{twins}/{rejected}"
        );
    }

    #[test]
    fn spill_config_is_validated_through_the_combined_config() {
        let mut cfg = JoinConfig::default();
        cfg.cpu.spill = Some(skewjoin_cpu::SpillConfig {
            partition_bits: 0,
            ..skewjoin_cpu::SpillConfig::default()
        });
        match validate_config(&cfg) {
            Err(JoinError::InvalidConfig(msg)) => {
                assert!(msg.contains("partition_bits"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_separate_relations_and_repeat_deterministically() {
        let a = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.9, 7)).r;
        let b = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.0, 8)).r;
        assert_eq!(relation_fingerprint(&a), relation_fingerprint(&a));
        assert_ne!(relation_fingerprint(&a), relation_fingerprint(&b));
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_counts() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 11));
        let opts = PlannerOptions::default();
        let cache = PlanCache::new(8);
        let (first, hit1) = cache.plan(&w.r, &w.s, &opts);
        assert!(!hit1);
        let (second, hit2) = cache.plan(&w.r, &w.s, &opts);
        assert!(hit2);
        assert_eq!(first.algorithm, second.algorithm);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);

        // A different device is a different key even for the same relation.
        let mut gpu_opts = PlannerOptions::default();
        gpu_opts.device = TargetDevice::Gpu;
        let (gpu_plan, hit3) = cache.plan(&w.r, &w.s, &gpu_opts);
        assert!(!hit3);
        assert!(!gpu_plan.algorithm.is_cpu());
    }

    #[test]
    fn plan_cache_eviction_stays_bounded() {
        let opts = PlannerOptions::default();
        let cache = PlanCache::new(2);
        for seed in 0..5 {
            let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.5, seed));
            cache.plan(&w.r, &w.s, &opts);
        }
        assert!(cache.len() <= 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 5);
    }
}
