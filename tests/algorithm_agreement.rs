//! All five join algorithms must produce exactly the same result set as the
//! nested-loop reference, across table sizes, skew levels, thread counts,
//! and partitioning configurations.

use skewjoin::common::hash::RadixConfig;
use skewjoin::common::CountingSink;
use skewjoin::cpu::reference_join;
use skewjoin::prelude::*;

fn reference(r: &Relation, s: &Relation) -> (u64, u64) {
    let mut sink = CountingSink::new();
    let stats = reference_join(r, s, &mut sink);
    (stats.result_count, stats.checksum)
}

fn gpu_cfg() -> GpuJoinConfig {
    GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        ..GpuJoinConfig::default()
    }
}

fn check_all(r: &Relation, s: &Relation, cpu_cfg: &CpuJoinConfig, label: &str) {
    let (count, checksum) = reference(r, s);
    let cfg = JoinConfig {
        cpu: cpu_cfg.clone(),
        gpu: gpu_cfg(),
    };
    for algo in Algorithm::ALL {
        let stats = skewjoin::run_join(algo, r, s, &cfg, SinkSpec::Count)
            .unwrap_or_else(|e| panic!("{label}/{algo}: {e}"));
        assert_eq!(stats.result_count, count, "{label}/{algo} count");
        assert_eq!(stats.checksum, checksum, "{label}/{algo} checksum");
    }
}

#[test]
fn agreement_across_sizes_and_skews() {
    let cfg = CpuJoinConfig::with_threads(4);
    for &tuples in &[257usize, 1024, 4096] {
        for &zipf in &[0.0, 0.5, 1.0] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, 1234));
            check_all(&w.r, &w.s, &cfg, &format!("n={tuples} z={zipf}"));
        }
    }
}

#[test]
fn agreement_with_unequal_table_sizes() {
    let dist = ZipfWorkload::new(2000, 0.8, 9);
    let r = dist.generate_table(500, 10);
    let s = dist.generate_table(3000, 11);
    check_all(&r, &s, &CpuJoinConfig::with_threads(3), "unequal");
}

#[test]
fn agreement_across_thread_counts() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.9, 77));
    for threads in [1, 2, 7, 16] {
        let cfg = CpuJoinConfig::with_threads(threads);
        check_all(&w.r, &w.s, &cfg, &format!("threads={threads}"));
    }
}

#[test]
fn agreement_across_radix_configs() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.7, 99));
    for bits in [2, 6, 10] {
        let mut cfg = CpuJoinConfig::with_threads(4);
        cfg.radix = Some(RadixConfig::two_pass(bits));
        check_all(&w.r, &w.s, &cfg, &format!("bits={bits}"));
    }
    // Single-pass radix.
    let mut cfg = CpuJoinConfig::with_threads(4);
    cfg.radix = Some(RadixConfig::single_pass(5));
    check_all(&w.r, &w.s, &cfg, "single-pass");
}

#[test]
fn agreement_on_disjoint_key_sets() {
    // No key overlaps: every algorithm must report zero results.
    let r = Relation::from_keys(&(0..1000u32).map(|i| i * 2).collect::<Vec<_>>());
    let s = Relation::from_keys(&(0..1000u32).map(|i| i * 2 + 1).collect::<Vec<_>>());
    let (count, _) = reference(&r, &s);
    assert_eq!(count, 0);
    check_all(&r, &s, &CpuJoinConfig::with_threads(4), "disjoint");
}

#[test]
fn agreement_on_pathological_single_key() {
    let r = Relation::from_tuples(vec![Tuple::new(0xFFFF_FFFF, 1); 777]);
    let s = Relation::from_tuples(vec![Tuple::new(0xFFFF_FFFF, 2); 333]);
    check_all(&r, &s, &CpuJoinConfig::with_threads(4), "single-key");
}

#[test]
fn agreement_on_foreign_key_join() {
    use skewjoin::datagen::uniform::{foreign_key_table, primary_key_table};
    let pk = primary_key_table(2000, 5);
    let fk = foreign_key_table(&pk, 6000, 6);
    let (count, _) = reference(&pk, &fk);
    assert_eq!(count, 6000, "every FK tuple matches exactly once");
    check_all(&pk, &fk, &CpuJoinConfig::with_threads(4), "pk-fk");
}
