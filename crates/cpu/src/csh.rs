//! **CSH** — the paper's CPU Skew-conscious Hash join (§IV-A): Cbase's
//! radix join plus two additions.
//!
//! 1. **Detect** skewed keys before partitioning by sampling ~1 % of R
//!    (keys sampled at least twice are skewed, [`detect_skewed_keys`]) and
//!    give each a dedicated skewed partition in the [`SkewCheckupTable`].
//! 2. **Route** every tuple through the checkup table while partitioning.
//!    This is a router hook on the morsel pipeline Cbase runs
//!    ([`crate::morsel`]): hot R tuples go to per-key runs instead of radix
//!    partitions, and a hot S tuple is never stored — its join results are
//!    produced immediately by a sequential scan of the matching R run
//!    (hybrid-hash-join style, no per-result key verification since every
//!    R tuple in the run carries the same key). The remaining normal
//!    partitions go through Cbase's join tasks, with large-task splitting
//!    off.
//!
//! On data without hot keys the table is empty, the hook is absent, and
//! CSH runs exactly Cbase's code path, so the two tie.
//!
//! The phase names recorded in [`JoinStats`] are `sample`, `partition_r`,
//! `partition_s`, and `nm_join`; Table I's "CSH sample+part" row is the sum
//! of the first three. Partitioning and joining overlap in the pipeline, so
//! the last three are attributed by timestamp (see [`crate::morsel`]).

use std::time::Instant;

use skewjoin_common::trace::counter;
use skewjoin_common::{JoinError, JoinStats, OutputSink, Relation};

use crate::config::CpuJoinConfig;
use crate::morsel::{run_pipeline, Flavor};
use crate::skew::{detect_skewed_keys, SkewCheckupTable};
use crate::{aggregate_sinks, JoinOutcome};

/// Runs the CSH join. `make_sink(tid)` constructs each worker thread's
/// output sink; sinks receive results both while S is partitioned (hot
/// tuples) and during the NM-join (normal tuples).
///
/// ```
/// use skewjoin_common::{CountingSink, Relation, Tuple};
/// use skewjoin_cpu::{csh_join, CpuJoinConfig};
///
/// // A heavily skewed input: one key is half of each table.
/// let mut keys = vec![7u32; 1000];
/// keys.extend(1000..2000u32);
/// let r = Relation::from_keys(&keys);
/// let s = Relation::from_keys(&keys);
///
/// let outcome = csh_join(&r, &s, &CpuJoinConfig::with_threads(2), |_| {
///     CountingSink::new()
/// })
/// .unwrap();
/// // 1000×1000 for the hot key + 1 match per distinct key.
/// assert_eq!(outcome.stats.result_count, 1_000_000 + 1000);
/// assert!(outcome.stats.skewed_keys_detected >= 1);
/// ```
pub fn csh_join<S, F>(
    r: &Relation,
    s: &Relation,
    cfg: &CpuJoinConfig,
    make_sink: F,
) -> Result<JoinOutcome<S>, JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    cfg.validate()?;
    let mut stats = JoinStats::new("CSH");

    cfg.cancel.check("sample")?;
    let t0 = Instant::now();
    let skewed = detect_skewed_keys(r, &cfg.skew);
    let checkup = SkewCheckupTable::build(&skewed);
    stats.phases.record("sample", t0.elapsed());
    stats.skewed_keys_detected = skewed.len();
    stats.trace.skewed_keys.extend_from_slice(&skewed);
    stats
        .trace
        .set("sample", counter::SKEWED_KEYS, skewed.len() as u64);

    let sinks = run_pipeline(r, s, cfg, Flavor::Csh(&checkup), &make_sink, &mut stats)?;
    aggregate_sinks(&mut stats, &sinks);
    stats.trace.set(
        "nm_join",
        counter::RESULTS,
        stats.result_count.saturating_sub(stats.skew_path_results),
    );
    Ok(JoinOutcome { stats, sinks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use skewjoin_common::{CountingSink, Tuple};
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

    fn assert_matches_reference(r: &Relation, s: &Relation, cfg: &CpuJoinConfig) -> JoinStats {
        let outcome = csh_join(r, s, cfg, |_| CountingSink::new()).unwrap();
        let mut reference = CountingSink::new();
        let ref_stats = reference_join(r, s, &mut reference);
        assert_eq!(outcome.stats.result_count, ref_stats.result_count);
        assert_eq!(outcome.stats.checksum, ref_stats.checksum);
        outcome.stats
    }

    #[test]
    fn matches_reference_across_skews() {
        for zipf in [0.0, 0.5, 0.9, 1.0] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(4096, zipf, 13));
            assert_matches_reference(&w.r, &w.s, &CpuJoinConfig::with_threads(4));
        }
    }

    #[test]
    fn detects_skew_and_routes_output_through_skew_path() {
        // Hot key = 50 % of both tables: must be detected, and the skew path
        // must carry the bulk of the output.
        let mut keys: Vec<u32> = vec![99; 8192];
        keys.extend((0..8192u32).map(|i| i * 7 + 1));
        let r = Relation::from_keys(&keys);
        let s = Relation::from_keys(&keys);
        let stats = assert_matches_reference(&r, &s, &CpuJoinConfig::with_threads(4));
        assert!(stats.skewed_keys_detected >= 1);
        assert!(
            stats.skew_output_fraction() > 0.9,
            "skew path produced only {:.3} of output",
            stats.skew_output_fraction()
        );
    }

    #[test]
    fn no_skew_detected_on_distinct_keys() {
        let keys: Vec<u32> = (0..4096u32).map(|i| i * 3 + 1).collect();
        let r = Relation::from_keys(&keys);
        let s = Relation::from_keys(&keys);
        let stats = assert_matches_reference(&r, &s, &CpuJoinConfig::with_threads(4));
        assert_eq!(stats.skew_path_results, 0);
    }

    #[test]
    fn empty_inputs() {
        let cfg = CpuJoinConfig::with_threads(2);
        let e = Relation::new();
        let r = Relation::from_keys(&[1, 2, 3]);
        let outcome = csh_join(&e, &r, &cfg, |_| CountingSink::new()).unwrap();
        assert_eq!(outcome.stats.result_count, 0);
        let outcome = csh_join(&r, &e, &cfg, |_| CountingSink::new()).unwrap();
        assert_eq!(outcome.stats.result_count, 0);
    }

    #[test]
    fn single_key_everything_skewed() {
        let r = Relation::from_tuples(vec![Tuple::new(5, 1); 1000]);
        let s = Relation::from_tuples(vec![Tuple::new(5, 2); 1000]);
        let stats = assert_matches_reference(&r, &s, &CpuJoinConfig::with_threads(4));
        assert_eq!(stats.result_count, 1_000_000);
        assert_eq!(stats.skew_path_results, 1_000_000);
    }

    #[test]
    fn skewed_key_only_in_s_is_harmless() {
        // The hot key exists in S but not in R: the skew array stays empty
        // (detection samples R), results must still match.
        let r = Relation::from_keys(&(0..2048u32).collect::<Vec<_>>());
        let mut s_keys = vec![1_000_000u32; 2048];
        s_keys.extend(0..2048u32);
        let s = Relation::from_keys(&s_keys);
        assert_matches_reference(&r, &s, &CpuJoinConfig::with_threads(4));
    }

    #[test]
    fn all_phases_recorded() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.8, 17));
        let outcome = csh_join(&w.r, &w.s, &CpuJoinConfig::with_threads(2), |_| {
            CountingSink::new()
        })
        .unwrap();
        for phase in ["sample", "partition_r", "partition_s", "nm_join"] {
            assert!(
                outcome.stats.phases.iter().any(|(n, _)| n == phase),
                "missing phase {phase}"
            );
        }
    }

    #[test]
    fn nm_join_counts_the_longest_chain_of_any_partition_table() {
        use skewjoin_common::hash::{bucket_bits_for, table_hash};
        // θ0 with distinct keys, so no tuple leaves for the skew path.
        let keys: Vec<u32> = (0..1u32 << 15)
            .map(|i| i.wrapping_mul(0x2545_F491))
            .collect();
        let (r, s) = (Relation::from_keys(&keys), Relation::from_keys(&keys));
        let cfg = CpuJoinConfig::with_threads(2);
        let stats = assert_matches_reference(&r, &s, &cfg);
        assert_eq!(stats.skewed_keys_detected, 0);

        // Every final partition with tuples on both sides is one task and
        // one table; a chain is the tuples sharing a bucket of that table.
        let radix = cfg.radix_for(r.len());
        let part_of = |t: &Tuple| radix.final_partition_of(t.key);
        let mut parts = vec![Vec::new(); radix.total_fanout()];
        for t in r.tuples() {
            parts[part_of(t)].push(t.key);
        }
        let mut probed = vec![false; parts.len()];
        for t in s.tuples() {
            probed[part_of(t)] = true;
        }
        let mut longest = 0u64;
        for (keys, _) in parts
            .iter()
            .zip(&probed)
            .filter(|(k, &p)| p && !k.is_empty())
        {
            let bits = bucket_bits_for(keys.len()).min(cfg.max_bucket_bits);
            let mut lens = vec![0u64; 1 << bits];
            for &k in keys {
                lens[table_hash(k, bits)] += 1;
            }
            longest = longest.max(lens.into_iter().max().unwrap());
        }
        assert!(longest > 1, "no bucket collision to count");
        assert_eq!(
            stats.trace.get("nm_join", counter::MAX_CHAIN_LEN),
            Some(longest)
        );
    }

    #[test]
    fn higher_sample_rate_finds_more_skew() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(8192, 1.0, 23));
        let mut lo = CpuJoinConfig::with_threads(2);
        lo.skew.sample_rate = 0.005;
        let mut hi = lo.clone();
        hi.skew.sample_rate = 0.2;
        let a = csh_join(&w.r, &w.s, &lo, |_| CountingSink::new()).unwrap();
        let b = csh_join(&w.r, &w.s, &hi, |_| CountingSink::new()).unwrap();
        assert!(b.stats.skewed_keys_detected >= a.stats.skewed_keys_detected);
        assert_eq!(a.stats.result_count, b.stats.result_count);
        assert_eq!(a.stats.checksum, b.stats.checksum);
    }
}
