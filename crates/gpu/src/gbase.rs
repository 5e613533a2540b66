//! **Gbase** — the baseline GPU partitioned hash join (Sioulas et al., the
//! paper's \[24\]), end to end on a [`GpuBackend`](crate::GpuBackend).
//! GSH runs the same code.
//!
//! Partition phase: both tables through [`gpu_partition`], the one GPU
//! partitioner. Join phase: one thread block per (R sub-list, S partition)
//! pair — oversized R partitions are decomposed into sub-lists of at most
//! the shared-memory table capacity, each of which probes the *full* S
//! partition, with the write-bitmap output protocol synchronizing the block
//! on every chain step. These are precisely the skew pathologies §III
//! quantifies.
//!
//! GSH is this join plus a skew phase ([`crate::gsh`]): for GSH the
//! join runs its detect and split between the two phases and its skew
//! join after them. Without a large partition GSH launches no skew
//! kernel and costs exactly what Gbase costs.

use std::collections::HashSet;

use skewjoin_common::trace::counter;
use skewjoin_common::{JoinError, JoinStats, OutputSink, Relation, SinkFactory};

use crate::config::GpuJoinConfig;
use crate::gsh::{detect_and_split, skew_join};
use crate::nmjoin::{build_nm_tasks, NmJoinKernel, NmTask};
use crate::pack::upload_relation;
use crate::partition::gpu_partition;
use crate::{aggregate_sinks, record_phase, GpuJoinOutcome};

/// Runs the Gbase join on a fresh backend selected by `cfg.backend`
/// (the simulator by default). `factory` builds the per-SM-slot output
/// sinks; any `Fn(usize) -> S + Sync` closure works through the blanket
/// [`SinkFactory`] impl. Phase durations in the returned stats are
/// *simulated* device time (zero on the host backend);
/// `simulated_cycles` carries the raw total.
pub fn gbase_join<F: SinkFactory>(
    r: &Relation,
    s: &Relation,
    cfg: &GpuJoinConfig,
    factory: F,
) -> Result<GpuJoinOutcome<F::Sink>, JoinError> {
    partitioned_join(r, s, cfg, factory, false)
}

/// Both GPU joins: upload, partition, NM join and stats, with GSH's
/// detect, split and skew-join phases when `skew_phase`.
pub(crate) fn partitioned_join<F: SinkFactory>(
    r: &Relation,
    s: &Relation,
    cfg: &GpuJoinConfig,
    factory: F,
    skew_phase: bool,
) -> Result<GpuJoinOutcome<F::Sink>, JoinError> {
    cfg.validate()?;
    let mut backend = cfg.backend.create(&cfg.spec)?;
    let backend = backend.as_mut();
    let (name, join_phase, join_kernel) = if skew_phase {
        ("GSH", "nm_join", "gsh_nm_join")
    } else {
        ("Gbase", "join", "gbase_join")
    };
    let mut stats = JoinStats::new(name);

    let r_buf = upload_relation(backend, r, "table R")?;
    let s_buf = upload_relation(backend, s, "table S")?;

    let radix = cfg.derived_radix(r.len().max(s.len()).max(1));
    let capacity = cfg.derived_table_capacity();

    // ---- Partition phase (simulated time). ----
    let c0 = backend.total_cycles();
    let l0 = backend.launch_log().len();
    let parted_r = gpu_partition(backend, r_buf, &radix, cfg.block_dim)?;
    let parted_s = gpu_partition(backend, s_buf, &radix, cfg.block_dim)?;
    record_phase(backend, &mut stats, "partition", c0, l0);
    stats.partitions = parted_r.partitions();
    stats
        .trace
        .set("partition", counter::TUPLES_IN, (r.len() + s.len()) as u64);
    let parted_out: usize = (0..parted_r.partitions())
        .map(|p| parted_r.size(p) + parted_s.size(p))
        .sum();
    stats
        .trace
        .set("partition", counter::TUPLES_OUT, parted_out as u64);
    stats.trace.set(
        "partition",
        counter::PARTITIONS,
        parted_r.partitions() as u64,
    );

    // ---- GSH: detect skewed keys, split their partitions. ----
    let splits = if skew_phase {
        detect_and_split(backend, &parted_r, &parted_s, cfg, &mut stats)?
    } else {
        Vec::new()
    };

    // ---- Join phase: every partition pair, a split one by its normal
    // residues; sub-list decomposition + write-bitmap probe. ----
    let c1 = backend.total_cycles();
    let l1 = backend.launch_log().len();
    let split_pids: HashSet<usize> = splits.iter().map(|(rs, _)| rs.pid).collect();
    let partition_pairs = (0..parted_r.partitions())
        .filter(|pid| !split_pids.contains(pid))
        .map(|pid| NmTask {
            r_buf: parted_r.buf,
            r_range: parted_r.range(pid),
            s_buf: parted_s.buf,
            s_range: parted_s.range(pid),
        });
    let residue_pairs = splits.iter().map(|(rs, ss)| NmTask {
        r_buf: rs.norm_buf,
        r_range: 0..rs.norm_len,
        s_buf: ss.norm_buf,
        s_range: 0..ss.norm_len,
    });
    let tasks = build_nm_tasks(partition_pairs.chain(residue_pairs), capacity);
    let mut sinks: Vec<F::Sink> = (0..backend.spec().num_sms)
        .map(|slot| factory.make_sink(slot))
        .collect();
    if !tasks.is_empty() {
        let mut kernel = NmJoinKernel::new(&tasks, &mut sinks);
        backend.launch(join_kernel, tasks.len(), cfg.block_dim, &mut kernel)?;
    }
    record_phase(backend, &mut stats, join_phase, c1, l1);
    let nm_results: u64 = sinks.iter().map(|s| s.count()).sum();
    stats
        .trace
        .set(join_phase, counter::TASKS_RUN, tasks.len() as u64);
    let build: usize = tasks.iter().map(|t| t.r_range.len()).sum();
    let probe: usize = tasks.iter().map(|t| t.s_range.len()).sum();
    stats
        .trace
        .set(join_phase, counter::BUILD_TUPLES, build as u64);
    stats
        .trace
        .set(join_phase, counter::PROBE_TUPLES, probe as u64);
    stats.trace.set(join_phase, counter::RESULTS, nm_results);

    // ---- GSH: one thread block per skewed R tuple. ----
    if skew_phase {
        skew_join(backend, &splits, cfg, &mut sinks, &mut stats)?;
    }

    stats.simulated_cycles = backend.total_cycles();
    let timeline = backend.render_timeline();
    aggregate_sinks(&mut stats, &sinks);
    stats.skew_path_results = stats.result_count - nm_results;
    Ok(GpuJoinOutcome {
        stats,
        sinks,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin_common::CountingSink;
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
        let outcome = gbase_join(r, s, cfg, |_| CountingSink::new()).unwrap();
        let mut reference = CountingSink::new();
        let ref_stats = reference_join(r, s, &mut reference);
        assert_eq!(outcome.stats.result_count, ref_stats.result_count);
        assert_eq!(outcome.stats.checksum, ref_stats.checksum);
        outcome.stats
    }

    #[test]
    fn matches_reference_across_skews() {
        for zipf in [0.0, 0.75, 1.0] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(4096, zipf, 31));
            assert_matches_reference(&w.r, &w.s, &small_cfg());
        }
    }

    #[test]
    fn empty_inputs() {
        let cfg = small_cfg();
        let e = Relation::new();
        let r = Relation::from_keys(&[1, 2]);
        let out = gbase_join(&e, &r, &cfg, |_| CountingSink::new()).unwrap();
        assert_eq!(out.stats.result_count, 0);
        let out = gbase_join(&r, &e, &cfg, |_| CountingSink::new()).unwrap();
        assert_eq!(out.stats.result_count, 0);
    }

    #[test]
    fn join_time_grows_with_skew() {
        let lo = PaperWorkload::generate(WorkloadSpec::paper(1 << 13, 0.2, 7));
        let hi = PaperWorkload::generate(WorkloadSpec::paper(1 << 13, 1.0, 7));
        let cfg = small_cfg();
        let a = assert_matches_reference(&lo.r, &lo.s, &cfg);
        let b = assert_matches_reference(&hi.r, &hi.s, &cfg);
        let ja = a.phases.get("join");
        let jb = b.phases.get("join");
        assert!(jb > ja * 3, "high-skew join {jb:?} not ≫ low-skew {ja:?}");
        // Partition time must stay comparatively stable.
        let pa = a.phases.get("partition");
        let pb = b.phases.get("partition");
        assert!(pb < pa * 3, "partition {pb:?} vs {pa:?}");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let cfg = GpuJoinConfig {
            spec: DeviceSpec::tiny(64),
            block_dim: 64,
            ..GpuJoinConfig::default()
        };
        let r = Relation::from_keys(&(0..1000).collect::<Vec<_>>());
        let err = gbase_join(&r, &r, &cfg, |_| CountingSink::new()).unwrap_err();
        assert!(matches!(err, JoinError::GpuResourceExhausted(_)));
    }
}
