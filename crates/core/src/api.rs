//! Unified entry points over the five join algorithms.
//!
//! [`run_join`] is the single front door: it takes an [`Algorithm`] (CPU or
//! GPU), a combined [`JoinConfig`], and a [`SinkSpec`]. Callers that need
//! custom per-worker output sinks use [`run_join_with`] and a
//! [`SinkFactory`]. Cancellation is cooperative: a live
//! [`CancelToken`](skewjoin_common::CancelToken) in `cfg.cpu.cancel` is
//! checked at every CPU phase boundary, before a GPU launch and before a
//! GPU join's CPU fallback, surfacing as [`JoinError::Cancelled`].

use skewjoin_common::hash::shard_of;
use skewjoin_common::{JoinError, JoinStats, Key, Relation, Rung, SinkSpec, TwinCause};
use skewjoin_cpu::CpuJoinConfig;
use skewjoin_gpu::{gbase_join, gsh_join, GpuJoinConfig};

pub use skewjoin_common::{CountSinkFactory, SinkFactory, VolcanoSinkFactory};
pub use skewjoin_cpu::CpuAlgorithm;

/// The GPU join algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuAlgorithm {
    /// Baseline hardware-conscious GPU join (Sioulas et al.).
    Gbase,
    /// The paper's GPU Skew-conscious Hash join.
    Gsh,
}

impl GpuAlgorithm {
    /// All GPU algorithms, in the paper's presentation order.
    pub const ALL: [GpuAlgorithm; 2] = [GpuAlgorithm::Gbase, GpuAlgorithm::Gsh];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuAlgorithm::Gbase => "Gbase",
            GpuAlgorithm::Gsh => "GSH",
        }
    }

    /// The CPU algorithm this GPU join falls back to, at the same tier of
    /// skew awareness: Gbase→Cbase, GSH→CSH.
    pub(crate) fn cpu_twin(self) -> CpuAlgorithm {
        match self {
            GpuAlgorithm::Gbase => CpuAlgorithm::Cbase,
            GpuAlgorithm::Gsh => CpuAlgorithm::Csh,
        }
    }
}

impl std::fmt::Display for GpuAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Any of the five join algorithms, on either device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// A multi-threaded CPU join.
    Cpu(CpuAlgorithm),
    /// A (simulated) GPU join.
    Gpu(GpuAlgorithm),
}

impl Algorithm {
    /// All five algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Cpu(CpuAlgorithm::Cbase),
        Algorithm::Cpu(CpuAlgorithm::CbaseNpj),
        Algorithm::Cpu(CpuAlgorithm::Csh),
        Algorithm::Gpu(GpuAlgorithm::Gbase),
        Algorithm::Gpu(GpuAlgorithm::Gsh),
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Cpu(a) => a.name(),
            Algorithm::Gpu(a) => a.name(),
        }
    }

    /// `true` for the CPU variants.
    pub fn is_cpu(self) -> bool {
        matches!(self, Algorithm::Cpu(_))
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl From<CpuAlgorithm> for Algorithm {
    fn from(a: CpuAlgorithm) -> Self {
        Algorithm::Cpu(a)
    }
}

impl From<GpuAlgorithm> for Algorithm {
    fn from(a: GpuAlgorithm) -> Self {
        Algorithm::Gpu(a)
    }
}

/// Combined configuration for [`run_join`]: the CPU or GPU half is read
/// depending on the chosen [`Algorithm`]; the other half is ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinConfig {
    /// Configuration used by the CPU algorithms.
    pub cpu: CpuJoinConfig,
    /// Configuration used by the GPU algorithms.
    pub gpu: GpuJoinConfig,
}

impl From<CpuJoinConfig> for JoinConfig {
    fn from(cpu: CpuJoinConfig) -> Self {
        Self {
            cpu,
            ..Self::default()
        }
    }
}

impl From<GpuJoinConfig> for JoinConfig {
    fn from(gpu: GpuJoinConfig) -> Self {
        Self {
            gpu,
            ..Self::default()
        }
    }
}

/// Runs any join algorithm with per-worker sinks described by `sink`,
/// returning the aggregate statistics (wall-clock phase times for CPU
/// algorithms, simulated times for GPU ones).
pub fn run_join(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    sink: SinkSpec,
) -> Result<JoinStats, JoinError> {
    crate::planner::validate_config(cfg)?;
    validate_sink(sink)?;
    match sink {
        SinkSpec::Count => run_join_with(algorithm, r, s, cfg, CountSinkFactory),
        SinkSpec::Volcano { capacity } => {
            run_join_with(algorithm, r, s, cfg, VolcanoSinkFactory { capacity })
        }
    }
}

/// Like [`run_join`], but with caller-supplied per-worker sinks.
///
/// A GPU join that fails with [`JoinError::GpuResourceExhausted`] falls back
/// to its CPU twin (Gbase→Cbase, GSH→CSH) through this same front door, so
/// the twin honours `cfg.cpu` exactly as a CPU request would, spill
/// included. The fallback is recorded as one [`Rung::CpuTwin`] in the
/// returned stats' `trace.degradations`; only when the twin fails too does
/// the caller see [`JoinError::BackendUnavailable`].
pub fn run_join_with<F: SinkFactory>(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    factory: F,
) -> Result<JoinStats, JoinError> {
    run_join_collecting(algorithm, r, s, cfg, factory).map(|o| o.stats)
}

/// Aggregate statistics plus the per-worker sinks of one completed join —
/// the device-independent outcome type unifying the CPU joins'
/// `JoinOutcome` and the GPU joins' `GpuJoinOutcome`.
#[derive(Debug)]
pub struct CollectedJoin<S> {
    /// Aggregate execution statistics.
    pub stats: JoinStats,
    /// One sink per worker (CPU thread or GPU SM slot).
    pub sinks: Vec<S>,
}

/// Like [`run_join_with`], but returns the per-worker sinks alongside the
/// statistics instead of dropping them.
///
/// This is the one interpreter every front door ends in. A GPU join's CPU
/// fallback re-enters it with *fresh* sinks from the factory — the failed
/// attempt's partial sinks are dropped with the attempt, so nothing is ever
/// double-counted.
pub fn run_join_collecting<F: SinkFactory>(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    factory: F,
) -> Result<CollectedJoin<F::Sink>, JoinError> {
    let make = |worker: usize| factory.make_sink(worker);
    let gpu = match algorithm {
        Algorithm::Cpu(cpu) => {
            // A configured spill runs the same algorithm out of core.
            let o = cpu.run(r, s, &cfg.cpu, make)?;
            return Ok(CollectedJoin {
                stats: o.stats,
                sinks: o.sinks,
            });
        }
        Algorithm::Gpu(gpu) => gpu,
    };

    // A GPU join runs as one launch sequence on the configured backend; its
    // cancellation boundaries are before the launch and before a fallback.
    cfg.cpu.cancel.check("gpu_execute")?;
    let attempt = match gpu {
        GpuAlgorithm::Gbase => gbase_join(r, s, &cfg.gpu, make),
        GpuAlgorithm::Gsh => gsh_join(r, s, &cfg.gpu, make),
    };
    let gpu_err = match attempt {
        Ok(o) => {
            return Ok(CollectedJoin {
                stats: o.stats,
                sinks: o.sinks,
            })
        }
        Err(e @ JoinError::GpuResourceExhausted(_)) => e,
        Err(e) => return Err(e),
    };

    // The device is exhausted. What runs out is a base table or a partition
    // buffer, which a finer fan-out does not shrink (DESIGN.md, fault
    // model), so there is no second GPU attempt: run the CPU twin, at the
    // same tier of skew awareness.
    cfg.cpu.cancel.check("cpu_fallback")?;
    let twin = gpu.cpu_twin();
    match run_join_collecting(twin.into(), r, s, cfg, factory) {
        Ok(mut out) => {
            let rung = Rung::CpuTwin {
                gpu: gpu.to_string(),
                cpu: twin.to_string(),
                cause: TwinCause::Device {
                    backend: cfg.gpu.backend.name().to_string(),
                    error: gpu_err.to_string(),
                },
            };
            out.stats.trace.degradations.insert(0, rung);
            Ok(out)
        }
        Err(cpu_err) => Err(JoinError::BackendUnavailable(format!(
            "GPU {gpu} failed ({gpu_err}) and the CPU fallback {twin} failed ({cpu_err})"
        ))),
    }
}

/// The slice of a sharded join one shard is responsible for.
///
/// A cluster coordinator splits a join across `shards` nodes by key
/// ownership (`shard_of`), with two skew-aware exceptions carried in
/// `hot_keys`: a detected heavy hitter's build tuples are *replicated* to
/// every shard and its probe tuples *split* across shards, so hot keys may
/// legitimately appear on a shard that does not own them. [`run_shard_join`]
/// enforces exactly this contract on its inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPartition {
    /// This shard's slot, `0..shards`.
    pub slot: usize,
    /// Total shards in the cluster.
    pub shards: usize,
    /// Keys exempt from ownership routing (replicated/split hot keys).
    pub hot_keys: Vec<Key>,
}

impl ShardPartition {
    /// Validates the shard geometry.
    pub fn validate(&self) -> Result<(), JoinError> {
        if self.shards == 0 {
            return Err(JoinError::InvalidConfig(
                "shard partition needs at least one shard".into(),
            ));
        }
        if self.slot >= self.shards {
            return Err(JoinError::InvalidConfig(format!(
                "shard slot {} out of range for {} shards",
                self.slot, self.shards
            )));
        }
        Ok(())
    }
}

/// Runs one shard's slice of a sharded join, collecting per-worker sinks.
///
/// With `restriction = None` this is exactly [`run_join_collecting`] plus
/// config validation. With a [`ShardPartition`], both inputs are first
/// checked against the routing contract — every key must be owned by this
/// shard or be one of its hot keys — and a misrouted tuple surfaces as a typed
/// [`JoinError::InvalidInput`] naming the first foreign key, rather than
/// silently producing results a different shard will also produce. The
/// returned trace carries a `shard` phase recording the geometry and the
/// admitted tuple counts, which the coordinator folds into its
/// cluster-level trace.
pub fn run_shard_join<F: SinkFactory>(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    restriction: Option<&ShardPartition>,
    factory: F,
) -> Result<CollectedJoin<F::Sink>, JoinError> {
    crate::planner::validate_config(cfg)?;
    if let Some(part) = restriction {
        part.validate()?;
        // Ownership first: a hash and a compare settle nearly every tuple
        // of a correctly routed slice, so the hot-key set is probed only
        // for the rest.
        let hot: std::collections::HashSet<Key> = part.hot_keys.iter().copied().collect();
        let admits = |key: Key| shard_of(key, part.shards) == part.slot || hot.contains(&key);
        for (side, rel) in [("R", r), ("S", s)] {
            if let Some(t) = rel.tuples().iter().find(|t| !admits(t.key)) {
                return Err(JoinError::InvalidInput(format!(
                    "shard {}/{}: {side} tuple with key {} belongs to shard {} \
                     and is not a registered hot key — coordinator misrouting",
                    part.slot,
                    part.shards,
                    t.key,
                    shard_of(t.key, part.shards),
                )));
            }
        }
    }
    let mut out = run_join_collecting(algorithm, r, s, cfg, factory)?;
    if let Some(part) = restriction {
        let trace = &mut out.stats.trace;
        trace.set("shard", "slot", part.slot as u64);
        trace.set("shard", "shards", part.shards as u64);
        trace.set("shard", "hot_keys", part.hot_keys.len() as u64);
        trace.set("shard", "r_tuples", r.len() as u64);
        trace.set("shard", "s_tuples", s.len() as u64);
    }
    Ok(out)
}

/// Rejects sink specifications that would panic at worker construction.
fn validate_sink(sink: SinkSpec) -> Result<(), JoinError> {
    if let SinkSpec::Volcano { capacity: 0 } = sink {
        return Err(JoinError::InvalidConfig(
            "volcano sink capacity must be at least 1 tuple".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin_common::CountingSink;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};
    use skewjoin_gpu_sim::DeviceSpec;

    #[test]
    fn all_cpu_algorithms_agree() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.8, 3));
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(4));
        let results: Vec<JoinStats> = CpuAlgorithm::ALL
            .iter()
            .map(|&a| run_join(a.into(), &w.r, &w.s, &cfg, SinkSpec::Count).unwrap())
            .collect();
        for r in &results[1..] {
            assert_eq!(r.result_count, results[0].result_count, "{}", r.algorithm);
            assert_eq!(r.checksum, results[0].checksum, "{}", r.algorithm);
        }
    }

    #[test]
    fn gpu_matches_cpu() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.9, 5));
        let cfg = JoinConfig {
            cpu: CpuJoinConfig::with_threads(2),
            gpu: GpuJoinConfig {
                spec: DeviceSpec::tiny(1 << 26),
                block_dim: 64,
                ..GpuJoinConfig::default()
            },
        };
        let cpu = run_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &w.r,
            &w.s,
            &cfg,
            SinkSpec::Count,
        )
        .unwrap();
        for algo in GpuAlgorithm::ALL {
            let gpu = run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count).unwrap();
            assert_eq!(gpu.result_count, cpu.result_count, "{algo}");
            assert_eq!(gpu.checksum, cpu.checksum, "{algo}");
        }
    }

    #[test]
    fn spill_config_routes_cpu_joins_through_grace_and_matches() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.9, 41));
        let in_memory_cfg = JoinConfig::from(CpuJoinConfig::with_threads(2));
        let expected = run_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &w.r,
            &w.s,
            &in_memory_cfg,
            SinkSpec::Count,
        )
        .unwrap();

        let mut spill_cfg = in_memory_cfg.clone();
        // A budget far below the input footprint: the join must spill.
        spill_cfg.cpu.spill = Some(skewjoin_cpu::SpillConfig::with_budget(
            skewjoin_cpu::MIN_SPILL_BUDGET,
        ));
        // A device too small for the tables: the GPU joins fall back to
        // their CPU twins, which must take the same spill path.
        spill_cfg.gpu = GpuJoinConfig {
            spec: DeviceSpec::tiny(1 << 10),
            block_dim: 64,
            ..GpuJoinConfig::default()
        };
        for algo in Algorithm::ALL {
            let stats = run_join(algo, &w.r, &w.s, &spill_cfg, SinkSpec::Count).unwrap();
            assert_eq!(stats.result_count, expected.result_count, "{algo}");
            assert_eq!(stats.checksum, expected.checksum, "{algo}");
            // The spill runs the requested algorithm (a GPU request's CPU
            // twin) on every reloaded pair.
            let cpu = match algo {
                Algorithm::Cpu(cpu) => cpu,
                Algorithm::Gpu(gpu) => gpu.cpu_twin(),
            };
            assert_eq!(stats.algorithm, format!("Grace({cpu})"), "{algo}");
            assert_eq!(
                matches!(stats.trace.degradations.first(), Some(Rung::CpuTwin { .. })),
                !algo.is_cpu(),
                "{algo}: {:?}",
                stats.trace.degradations
            );
            assert!(
                stats
                    .trace
                    .get(
                        "spill",
                        skewjoin_common::trace::counter::SPILL_BYTES_WRITTEN
                    )
                    .unwrap_or(0)
                    > 0,
                "{algo}: no bytes spilled"
            );
        }
    }

    #[test]
    fn volcano_sink_counts_match_counting_sink() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1024, 0.5, 7));
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(2));
        let algo = Algorithm::Cpu(CpuAlgorithm::Csh);
        let a = run_join(algo, &w.r, &w.s, &cfg, SinkSpec::Count).unwrap();
        let b = run_join(algo, &w.r, &w.s, &cfg, SinkSpec::Volcano { capacity: 64 }).unwrap();
        assert_eq!(a.result_count, b.result_count);
        // Volcano sinks skip checksumming by design.
        assert_eq!(b.checksum, 0);
    }

    #[test]
    fn custom_sink_factory_works() {
        // A factory with per-worker state beyond what a SinkSpec can say.
        struct Tagged;
        impl SinkFactory for Tagged {
            type Sink = CountingSink;
            fn make_sink(&self, _worker: usize) -> CountingSink {
                CountingSink::new()
            }
        }
        let w = PaperWorkload::generate(WorkloadSpec::paper(512, 0.5, 11));
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(2));
        let algo = Algorithm::Cpu(CpuAlgorithm::Cbase);
        let a = run_join_with(algo, &w.r, &w.s, &cfg, Tagged).unwrap();
        // Closures work through the blanket impl, too.
        let b = run_join_with(algo, &w.r, &w.s, &cfg, |_w: usize| CountingSink::new()).unwrap();
        assert_eq!(a.result_count, b.result_count);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn zero_capacity_volcano_is_an_error_not_a_panic() {
        let r = Relation::from_keys(&[1, 2]);
        let cfg = JoinConfig::default();
        for algo in [
            Algorithm::Cpu(CpuAlgorithm::Csh),
            Algorithm::Gpu(GpuAlgorithm::Gsh),
        ] {
            let err = run_join(algo, &r, &r, &cfg, SinkSpec::Volcano { capacity: 0 }).unwrap_err();
            assert!(matches!(err, JoinError::InvalidConfig(_)), "{algo}");
        }
    }

    #[test]
    fn gpu_oom_degrades_to_cpu_with_recorded_ladder() {
        // Devices too small to even hold the tables (2 × 16 KiB of tuples):
        // no GPU configuration can help, so the join falls straight back to
        // its CPU twin with exactly one recorded rung — and the result must
        // still be correct.
        let mut state = 0x0DD_5EED_u64;
        let mut next = |bound: u64| {
            state = skewjoin_common::hash::mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
            state % bound
        };
        for case in 0..4 {
            let device = (1 << 10) + next(15 << 10) as usize;
            let zipf = [0.0, 0.5, 0.9, 1.2][next(4) as usize];
            let w = PaperWorkload::generate(WorkloadSpec::paper(2048, zipf, 23 + case));
            let cfg = JoinConfig {
                cpu: CpuJoinConfig::with_threads(2),
                gpu: GpuJoinConfig {
                    spec: DeviceSpec::tiny(device),
                    block_dim: 64,
                    ..GpuJoinConfig::default()
                },
            };
            let reference = run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &w.r,
                &w.s,
                &cfg,
                SinkSpec::Count,
            )
            .unwrap();
            for (algo, fallback) in [(GpuAlgorithm::Gbase, "Cbase"), (GpuAlgorithm::Gsh, "CSH")] {
                let label = format!("{algo} on {device} B at zipf {zipf}");
                let stats = run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count).unwrap();
                assert_eq!(stats.result_count, reference.result_count, "{label}");
                assert_eq!(stats.checksum, reference.checksum, "{label}");
                assert_eq!(stats.algorithm, fallback, "{label}");
                // One rung, naming the backend that was executing when it fell.
                let ladder = &stats.trace.degradations;
                assert!(
                    matches!(
                        ladder.as_slice(),
                        [Rung::CpuTwin { gpu, cpu, cause: TwinCause::Device { backend, .. } }]
                            if *gpu == algo.name() && cpu == fallback && backend == "sim"
                    ),
                    "{label}: ladder {ladder:?}"
                );
            }
        }
    }

    #[test]
    fn gpu_oom_with_broken_cpu_fallback_is_backend_unavailable() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(512, 0.5, 29));
        let mut cfg = JoinConfig {
            cpu: CpuJoinConfig::with_threads(2),
            gpu: GpuJoinConfig {
                spec: DeviceSpec::tiny(1 << 10),
                block_dim: 64,
                ..GpuJoinConfig::default()
            },
        };
        // Sabotage the CPU fallback so the twin fails too. run_join would
        // reject this config up front; run_join_with exercises the fallback.
        cfg.cpu.threads = 0;
        let err = run_join_with(
            Algorithm::Gpu(GpuAlgorithm::Gsh),
            &w.r,
            &w.s,
            &cfg,
            CountSinkFactory,
        )
        .unwrap_err();
        match err {
            JoinError::BackendUnavailable(msg) => {
                assert!(msg.contains("GSH"), "{msg}");
                assert!(msg.contains("CSH"), "{msg}");
            }
            other => panic!("expected BackendUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn collecting_sinks_agree_with_stats() {
        use skewjoin_common::OutputSink;
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.9, 13));
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(2));
        for algo in Algorithm::ALL {
            let out = run_join_collecting(algo, &w.r, &w.s, &cfg, |_w: usize| {
                skewjoin_common::CountingSink::new()
            })
            .unwrap();
            let total: u64 = out.sinks.iter().map(|s| s.count()).sum();
            assert_eq!(total, out.stats.result_count, "{algo}");
            let sum: u64 = out
                .sinks
                .iter()
                .fold(0u64, |acc, s| acc.wrapping_add(s.checksum()));
            assert_eq!(sum, out.stats.checksum, "{algo}");
        }
    }

    #[test]
    fn shard_join_rejects_misrouted_tuples() {
        use skewjoin_common::hash::shard_of;
        use skewjoin_common::Tuple;
        let foreign = (0..100u32).find(|&k| shard_of(k, 2) == 1).unwrap();
        let local = (0..100u32).find(|&k| shard_of(k, 2) == 0).unwrap();
        let r = Relation::from_tuples(vec![Tuple::new(local, 0), Tuple::new(foreign, 1)]);
        let s = Relation::from_tuples(vec![Tuple::new(local, 2)]);
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(1));
        let part = ShardPartition {
            slot: 0,
            shards: 2,
            hot_keys: vec![],
        };
        let err = run_shard_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &r,
            &s,
            &cfg,
            Some(&part),
            CountSinkFactory,
        )
        .unwrap_err();
        match err {
            JoinError::InvalidInput(msg) => {
                assert!(msg.contains(&foreign.to_string()), "{msg}");
                assert!(msg.contains("misrouting"), "{msg}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // Registering the key as hot lifts the ownership restriction.
        let part_hot = ShardPartition {
            hot_keys: vec![foreign],
            ..part
        };
        let out = run_shard_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &r,
            &s,
            &cfg,
            Some(&part_hot),
            CountSinkFactory,
        )
        .unwrap();
        assert_eq!(out.stats.trace.get("shard", "shards"), Some(2));
        assert_eq!(out.stats.trace.get("shard", "hot_keys"), Some(1));
    }

    #[test]
    fn sharded_slices_reassemble_the_full_join() {
        use skewjoin_common::hash::shard_of;
        use skewjoin_common::sink::merge_key_counts;
        use skewjoin_common::{KeyCountSink, Tuple};
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.75, 17));
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(2));
        let make = |_w: usize| KeyCountSink::new();
        let full =
            run_join_collecting(Algorithm::Cpu(CpuAlgorithm::Csh), &w.r, &w.s, &cfg, make).unwrap();
        let expected = merge_key_counts(&full.sinks);

        let shards = 4;
        let mut merged = std::collections::BTreeMap::new();
        for slot in 0..shards {
            let keep = |t: &&Tuple| shard_of(t.key, shards) == slot;
            let r = Relation::from_tuples(w.r.tuples().iter().filter(keep).copied().collect());
            let s = Relation::from_tuples(w.s.tuples().iter().filter(keep).copied().collect());
            let part = ShardPartition {
                slot,
                shards,
                hot_keys: vec![],
            };
            let out = run_shard_join(
                Algorithm::Cpu(CpuAlgorithm::Csh),
                &r,
                &s,
                &cfg,
                Some(&part),
                make,
            )
            .unwrap();
            for (k, c) in merge_key_counts(&out.sinks) {
                *merged.entry(k).or_insert(0u64) += c;
            }
        }
        assert_eq!(merged, expected);
    }

    #[test]
    fn shard_partition_validates_geometry() {
        use skewjoin_common::hash::shard_of;
        use skewjoin_common::Tuple;
        let bad_shards = ShardPartition {
            slot: 0,
            shards: 0,
            hot_keys: vec![],
        };
        assert!(bad_shards.validate().is_err());
        let bad_slot = ShardPartition {
            slot: 3,
            shards: 2,
            hot_keys: vec![],
        };
        assert!(bad_slot.validate().is_err());
        // Two keys slot 1 does not own: one registered hot, one cold.
        let mut foreign = (0..100u32).filter(|&k| shard_of(k, 2) == 0);
        let (hot, cold) = (foreign.next().unwrap(), foreign.next().unwrap());
        let ok = ShardPartition {
            slot: 1,
            shards: 2,
            hot_keys: vec![hot],
        };
        assert!(ok.validate().is_ok());
        let cfg = JoinConfig::from(CpuJoinConfig::with_threads(1));
        let join = |r: &Relation| {
            run_shard_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                r,
                r,
                &cfg,
                Some(&ok),
                CountSinkFactory,
            )
        };
        // A hot key is admitted regardless of owner ...
        let hot_r = Relation::from_tuples(vec![Tuple::new(hot, 0)]);
        assert_eq!(join(&hot_r).unwrap().stats.result_count, 1);
        // ... a foreign cold key is not.
        let cold_r = Relation::from_tuples(vec![Tuple::new(cold, 0)]);
        match join(&cold_r) {
            Err(JoinError::InvalidInput(msg)) => assert!(msg.contains(&cold.to_string()), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn names_are_paper_names() {
        assert_eq!(CpuAlgorithm::Cbase.to_string(), "Cbase");
        assert_eq!(CpuAlgorithm::CbaseNpj.to_string(), "cbase-npj");
        assert_eq!(CpuAlgorithm::Csh.to_string(), "CSH");
        assert_eq!(GpuAlgorithm::Gbase.to_string(), "Gbase");
        assert_eq!(GpuAlgorithm::Gsh.to_string(), "GSH");
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["Cbase", "cbase-npj", "CSH", "Gbase", "GSH"]);
        assert!(Algorithm::from(CpuAlgorithm::Csh).is_cpu());
        assert!(!Algorithm::from(GpuAlgorithm::Gsh).is_cpu());
    }
}
