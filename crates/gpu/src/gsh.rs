//! **GSH** — the paper's GPU Skew-conscious Hash join (§IV-B): Gbase's
//! partitioned join ([`crate::gbase`]) plus a skew phase.
//!
//! Phases (simulated device time recorded per phase):
//!
//! 1. `partition` — both tables through the one GPU partitioner, as in
//!    Gbase.
//! 2. `detect` — for every *large* R partition (larger than the
//!    shared-memory table capacity), sample ~1 % of its tuples into a
//!    linear-probing table and mark the top-k (k = 3) most frequent keys as
//!    skewed.
//! 3. `split` — divide each large partition with skewed keys (both R and S
//!    sides) into per-skewed-key arrays plus a normal residue.
//! 4. `nm_join` — Gbase's join phase over the unsplit partition pairs and
//!    the residues.
//! 5. `skew_join` — one thread block per skewed R tuple streams the
//!    matching skewed S array with coalesced reads/writes and no
//!    synchronization.
//!
//! At zipf ≤ 0.4 no partition is large, phases 2–3 and 5 launch nothing,
//! and GSH runs exactly Gbase's kernels: the paper's observation that the
//! two are comparable at low skew, here cycle for cycle.

use skewjoin_common::trace::counter;
use skewjoin_common::{JoinError, JoinStats, OutputSink, Relation, SinkFactory};

use crate::backend::GpuBackend;
use crate::config::GpuJoinConfig;
use crate::gbase::partitioned_join;
use crate::partition::DevicePartitioned;
use crate::skew::{
    detect_skew, split_large_partition, SkewJoinKernel, SkewOutputTask, SplitPartition,
};
use crate::{record_phase, GpuJoinOutcome};

/// Runs the GSH join on a fresh backend selected by `cfg.backend` (the
/// simulator by default). `factory` builds the per-SM-slot output sinks;
/// any `Fn(usize) -> S + Sync` closure works through the blanket
/// [`SinkFactory`] impl.
///
/// ```
/// use skewjoin_common::{CountingSink, Relation};
/// use skewjoin_datagen::{PaperWorkload, WorkloadSpec};
/// use skewjoin_gpu::{gsh_join, GpuJoinConfig};
///
/// let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 12, 0.9, 42));
/// let out = gsh_join(&w.r, &w.s, &GpuJoinConfig::default(), |_| {
///     CountingSink::new()
/// })
/// .unwrap();
/// assert!(out.stats.result_count > 0);
/// // Simulated time, derived from modeled cycles:
/// assert!(out.stats.simulated_cycles > 0);
/// ```
pub fn gsh_join<F: SinkFactory>(
    r: &Relation,
    s: &Relation,
    cfg: &GpuJoinConfig,
    factory: F,
) -> Result<GpuJoinOutcome<F::Sink>, JoinError> {
    partitioned_join(r, s, cfg, factory, true)
}

/// Phases 2 and 3: detects skewed keys in the large R partitions and
/// splits each such partition, on both sides, by the same key list.
pub(crate) fn detect_and_split(
    backend: &mut dyn GpuBackend,
    parted_r: &DevicePartitioned,
    parted_s: &DevicePartitioned,
    cfg: &GpuJoinConfig,
    stats: &mut JoinStats,
) -> Result<Vec<(SplitPartition, SplitPartition)>, JoinError> {
    let capacity = cfg.derived_table_capacity();
    let c0 = backend.total_cycles();
    let l0 = backend.launch_log().len();
    let large_pids: Vec<usize> = (0..parted_r.partitions())
        .filter(|&p| parted_r.size(p) > capacity)
        .collect();
    let detected = detect_skew(backend, parted_r, &large_pids, &cfg.skew, cfg.block_dim)?;
    record_phase(backend, stats, "detect", c0, l0);
    stats.skewed_keys_detected = detected.iter().map(|d| d.keys.len()).sum();
    stats.trace.set(
        "detect",
        counter::SKEWED_KEYS,
        stats.skewed_keys_detected as u64,
    );
    for d in &detected {
        for (&key, &freq) in d.keys.iter().zip(&d.freqs) {
            stats.trace.record_skewed_key(key, freq);
        }
    }

    let c1 = backend.total_cycles();
    let l1 = backend.launch_log().len();
    let mut splits = Vec::new();
    for d in &detected {
        if d.keys.is_empty() {
            continue; // large but no skewed key found: NM sub-lists handle it
        }
        let r_split = split_large_partition(
            backend,
            parted_r,
            d.pid,
            &d.keys,
            cfg.block_dim,
            "gsh_split_r",
        )?;
        let s_split = split_large_partition(
            backend,
            parted_s,
            d.pid,
            &d.keys,
            cfg.block_dim,
            "gsh_split_s",
        )?;
        splits.push((r_split, s_split));
    }
    record_phase(backend, stats, "split", c1, l1);
    let split_in: usize = splits
        .iter()
        .map(|(rs, _)| parted_r.size(rs.pid) + parted_s.size(rs.pid))
        .sum();
    stats
        .trace
        .set("split", counter::TUPLES_IN, split_in as u64);
    let split_out: usize = splits
        .iter()
        .map(|(rs, ss)| {
            rs.norm_len
                + rs.skew_starts.last().copied().unwrap_or(0)
                + ss.norm_len
                + ss.skew_starts.last().copied().unwrap_or(0)
        })
        .sum();
    stats
        .trace
        .set("split", counter::TUPLES_OUT, split_out as u64);
    Ok(splits)
}

/// Phase 5: one thread block per skewed R tuple, streaming the matching
/// skewed S array into `sinks`.
pub(crate) fn skew_join<S: OutputSink>(
    backend: &mut dyn GpuBackend,
    splits: &[(SplitPartition, SplitPartition)],
    cfg: &GpuJoinConfig,
    sinks: &mut [S],
    stats: &mut JoinStats,
) -> Result<(), JoinError> {
    let c0 = backend.total_cycles();
    let l0 = backend.launch_log().len();
    let results_before: u64 = sinks.iter().map(|s| s.count()).sum();
    let mut tasks: Vec<SkewOutputTask> = Vec::new();
    for (r_split, s_split) in splits {
        for (ki, &key) in r_split.keys.iter().enumerate() {
            let r_lo = r_split.skew_starts[ki];
            let r_hi = r_split.skew_starts[ki + 1];
            let s_lo = s_split.skew_starts[ki];
            let s_hi = s_split.skew_starts[ki + 1];
            if r_lo == r_hi || s_lo == s_hi {
                continue;
            }
            for i in r_lo..r_hi {
                tasks.push(SkewOutputTask {
                    key,
                    r_word: backend.host_read(r_split.skew_buf, i),
                    s_buf: s_split.skew_buf,
                    s_range: s_lo..s_hi,
                });
            }
        }
    }
    if !tasks.is_empty() {
        let mut kernel = SkewJoinKernel {
            tasks: &tasks,
            sinks,
        };
        backend.launch("gsh_skew_join", tasks.len(), cfg.block_dim, &mut kernel)?;
    }
    record_phase(backend, stats, "skew_join", c0, l0);
    stats
        .trace
        .set("skew_join", counter::TASKS_RUN, tasks.len() as u64);
    let results: u64 = sinks.iter().map(|s| s.count()).sum();
    stats
        .trace
        .set("skew_join", counter::RESULTS, results - results_before);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin_common::{CountingSink, Tuple};
    use skewjoin_cpu::reference_join;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};
    use skewjoin_gpu_sim::DeviceSpec;

    fn small_cfg() -> GpuJoinConfig {
        GpuJoinConfig {
            spec: DeviceSpec::tiny(1 << 26),
            block_dim: 64,
            ..GpuJoinConfig::default()
        }
    }

    fn assert_matches_reference(r: &Relation, s: &Relation, cfg: &GpuJoinConfig) -> JoinStats {
        let outcome = gsh_join(r, s, cfg, |_| CountingSink::new()).unwrap();
        let mut reference = CountingSink::new();
        let ref_stats = reference_join(r, s, &mut reference);
        assert_eq!(outcome.stats.result_count, ref_stats.result_count);
        assert_eq!(outcome.stats.checksum, ref_stats.checksum);
        outcome.stats
    }

    #[test]
    fn matches_reference_across_skews() {
        for zipf in [0.0, 0.6, 0.9, 1.0] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(4096, zipf, 41));
            assert_matches_reference(&w.r, &w.s, &small_cfg());
        }
    }

    #[test]
    fn low_skew_never_triggers_skew_path() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.2, 43));
        let stats = assert_matches_reference(&w.r, &w.s, &small_cfg());
        assert_eq!(stats.skewed_keys_detected, 0);
        assert_eq!(stats.skew_path_results, 0);
        assert_eq!(stats.phases.get("skew_join"), std::time::Duration::ZERO);
    }

    #[test]
    fn heavy_skew_routes_output_through_skew_phase() {
        // One key holds half of each table: must dominate the output and be
        // handled by the skew phase.
        let mut keys: Vec<u32> = vec![77; 4096];
        keys.extend((0..4096u32).map(|i| i * 3 + 1));
        let r = Relation::from_keys(&keys);
        let s = Relation::from_keys(&keys);
        let stats = assert_matches_reference(&r, &s, &small_cfg());
        assert!(stats.skewed_keys_detected >= 1);
        assert!(
            stats.skew_output_fraction() > 0.9,
            "skew fraction {}",
            stats.skew_output_fraction()
        );
    }

    #[test]
    fn single_key_tables() {
        let r = Relation::from_tuples(vec![Tuple::new(5, 1); 2000]);
        let s = Relation::from_tuples(vec![Tuple::new(5, 2); 2000]);
        let stats = assert_matches_reference(&r, &s, &small_cfg());
        assert_eq!(stats.result_count, 4_000_000);
    }

    #[test]
    fn empty_inputs() {
        let cfg = small_cfg();
        let e = Relation::new();
        let r = Relation::from_keys(&[1, 2, 3]);
        assert_eq!(
            gsh_join(&e, &r, &cfg, |_| CountingSink::new())
                .unwrap()
                .stats
                .result_count,
            0
        );
        assert_eq!(
            gsh_join(&r, &e, &cfg, |_| CountingSink::new())
                .unwrap()
                .stats
                .result_count,
            0
        );
    }

    #[test]
    fn gsh_beats_gbase_at_high_skew() {
        // At A100 scale (108 SMs, 48 KB shared) the hot partition exceeds
        // the table capacity, Gbase pays the sub-list re-probe + sync storm
        // and GSH's block-per-R-tuple phase spreads across the SMs.
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 47));
        let cfg = GpuJoinConfig::default();
        let gsh = gsh_join(&w.r, &w.s, &cfg, |_| CountingSink::new()).unwrap();
        let gbase = crate::gbase::gbase_join(&w.r, &w.s, &cfg, |_| CountingSink::new()).unwrap();
        assert_eq!(gsh.stats.result_count, gbase.stats.result_count);
        assert_eq!(gsh.stats.checksum, gbase.stats.checksum);
        assert!(
            gbase.stats.simulated_cycles > gsh.stats.simulated_cycles * 2,
            "Gbase {} cycles vs GSH {}",
            gbase.stats.simulated_cycles,
            gsh.stats.simulated_cycles
        );
    }

    #[test]
    fn gsh_without_large_partitions_is_gbase() {
        // No partition outgrows the table: GSH launches no skew kernel and
        // runs Gbase's kernels, so the simulated cycles tie exactly.
        use crate::backend::GpuBackendKind;
        for (tuples, zipf) in [(1 << 12, 0.0), (1 << 18, 0.0), (1 << 12, 0.5)] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, 59));
            for backend in [GpuBackendKind::Sim, GpuBackendKind::Host] {
                let cfg = GpuJoinConfig {
                    backend,
                    ..GpuJoinConfig::default()
                };
                let gsh = gsh_join(&w.r, &w.s, &cfg, |_| CountingSink::new()).unwrap();
                let gbase =
                    crate::gbase::gbase_join(&w.r, &w.s, &cfg, |_| CountingSink::new()).unwrap();
                let (gsh, gbase) = (gsh.stats, gbase.stats);
                let case = format!("2^{} θ{zipf} on {backend}", tuples.trailing_zeros());
                assert_eq!(gsh.result_count, gbase.result_count, "{case}");
                assert_eq!(gsh.checksum, gbase.checksum, "{case}");
                if backend == GpuBackendKind::Sim {
                    assert_eq!(
                        gsh.trace.get("detect", counter::KERNEL_LAUNCHES),
                        None,
                        "{case}"
                    );
                    let partition =
                        |s: &JoinStats| s.trace.get("partition", counter::DEVICE_CYCLES);
                    assert_eq!(partition(&gsh), partition(&gbase), "{case}");
                    assert_eq!(gsh.simulated_cycles, gbase.simulated_cycles, "{case}");
                }
            }
        }
    }

    #[test]
    fn all_phases_recorded() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.5, 53));
        let out = gsh_join(&w.r, &w.s, &small_cfg(), |_| CountingSink::new()).unwrap();
        for phase in ["partition", "detect", "split", "nm_join", "skew_join"] {
            assert!(
                out.stats.phases.iter().any(|(n, _)| n == phase),
                "missing {phase}"
            );
        }
        assert!(out.stats.simulated_cycles > 0);
    }
}
