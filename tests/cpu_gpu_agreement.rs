//! CPU ↔ GPU cross-validation under varied GPU configurations: device
//! specs, block sizes, explicit radix fan-outs, and skew parameters must
//! never change the result set.

use skewjoin::common::hash::RadixConfig;
use skewjoin::prelude::*;

fn cpu_truth(r: &Relation, s: &Relation) -> (u64, u64) {
    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(4));
    let stats = skewjoin::run_join(
        Algorithm::Cpu(CpuAlgorithm::Csh),
        r,
        s,
        &cfg,
        SinkSpec::Count,
    )
    .unwrap();
    (stats.result_count, stats.checksum)
}

fn check_gpu(r: &Relation, s: &Relation, gpu: &GpuJoinConfig, label: &str) {
    let (count, checksum) = cpu_truth(r, s);
    let cfg = JoinConfig::from(gpu.clone());
    for algo in GpuAlgorithm::ALL {
        let stats = skewjoin::run_join(algo.into(), r, s, &cfg, SinkSpec::Count)
            .unwrap_or_else(|e| panic!("{label}/{algo}: {e}"));
        assert_eq!(stats.result_count, count, "{label}/{algo} count");
        assert_eq!(stats.checksum, checksum, "{label}/{algo} checksum");
    }
}

#[test]
fn agreement_on_a100_profile() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 13, 0.9, 3));
    check_gpu(&w.r, &w.s, &GpuJoinConfig::default(), "a100");
}

#[test]
fn agreement_across_block_dims() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.8, 5));
    // The tiny test device caps blocks at 256 threads.
    for block_dim in [32, 128, 256] {
        let cfg = GpuJoinConfig {
            spec: DeviceSpec::tiny(1 << 26),
            block_dim,
            ..GpuJoinConfig::default()
        };
        check_gpu(&w.r, &w.s, &cfg, &format!("block_dim={block_dim}"));
    }
}

#[test]
fn agreement_with_explicit_radix() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 1.0, 7));
    for bits in [3, 8] {
        let cfg = GpuJoinConfig {
            spec: DeviceSpec::tiny(1 << 26),
            block_dim: 64,
            radix: Some(RadixConfig::two_pass(bits)),
            ..GpuJoinConfig::default()
        };
        check_gpu(&w.r, &w.s, &cfg, &format!("radix={bits}"));
    }
}

#[test]
fn agreement_with_tiny_table_capacity() {
    // Force sub-list decomposition (Gbase) and skew splitting (GSH) even at
    // small scale by shrinking the table capacity.
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 1.0, 11));
    let cfg = GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        table_capacity: Some(128),
        ..GpuJoinConfig::default()
    };
    check_gpu(&w.r, &w.s, &cfg, "capacity=128");
}

#[test]
fn agreement_with_aggressive_skew_params() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 0.9, 13));
    let mut cfg = GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        table_capacity: Some(256),
        ..GpuJoinConfig::default()
    };
    cfg.skew.sample_rate = 0.2;
    cfg.skew.top_k = 8;
    check_gpu(&w.r, &w.s, &cfg, "aggressive-skew");
}

#[test]
fn gpu_memory_high_water_reported() {
    // Verify the simulator's memory accounting through a join: two tables
    // plus partition buffers must be reflected in the high-water mark.
    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.5, 17));
    let cfg = GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 24),
        block_dim: 64,
        ..GpuJoinConfig::default()
    };
    // Runs without GpuResourceExhausted.
    let jc = JoinConfig::from(cfg);
    for algo in GpuAlgorithm::ALL {
        skewjoin::run_join(algo.into(), &w.r, &w.s, &jc, SinkSpec::Count).unwrap();
    }
    // When memory cannot hold the tables, the join falls back to its CPU
    // twin — still correct, with exactly that one rung in the trace.
    let small = JoinConfig::from(GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 10),
        block_dim: 64,
        ..GpuJoinConfig::default()
    });
    let stats = skewjoin::run_join(
        Algorithm::Gpu(GpuAlgorithm::Gsh),
        &w.r,
        &w.s,
        &small,
        SinkSpec::Count,
    )
    .unwrap();
    assert!(
        matches!(
            stats.trace.degradations.as_slice(),
            [Rung::CpuTwin { gpu, cpu, cause: TwinCause::Device { .. } }]
                if gpu == "GSH" && cpu == "CSH"
        ),
        "degradations: {:?}",
        stats.trace.degradations
    );
    // The underlying GPU join still reports the typed error directly.
    let err = skewjoin::gpu::gsh_join(&w.r, &w.s, &small.gpu, |_| {
        skewjoin::common::CountingSink::new()
    })
    .unwrap_err();
    assert!(matches!(err, JoinError::GpuResourceExhausted(_)));
}

#[test]
fn gpu_volcano_sink_counts_match() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.9, 19));
    let cfg = JoinConfig::from(GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        ..GpuJoinConfig::default()
    });
    for algo in GpuAlgorithm::ALL {
        let count = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count)
            .unwrap()
            .result_count;
        let volcano = skewjoin::run_join(
            algo.into(),
            &w.r,
            &w.s,
            &cfg,
            SinkSpec::Volcano { capacity: 32 },
        )
        .unwrap()
        .result_count;
        assert_eq!(count, volcano, "{algo}");
    }
}
