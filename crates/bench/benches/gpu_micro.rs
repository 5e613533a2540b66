//! Micro-benchmarks of the simulated GPU components. These measure
//! *simulation throughput* (host time to execute the kernels), with the
//! simulated-cycle outputs reported by the reproduction binaries; they
//! guard against regressions in the simulator's own overhead.

use skewjoin::gpu::backend::SimBackend;
use skewjoin::gpu::pack::upload_relation;
use skewjoin::gpu::partition::gpu_partition;
use skewjoin::prelude::*;
use skewjoin_bench::micro::{bench, black_box, group};

fn bench_gpu_partition() {
    group("gpu_partition_sim");
    // The A100 style crossover lies between 2^15 tuples (counted first)
    // and 2^16 (linked buckets); one size on each side.
    let cfg = GpuJoinConfig::default();
    for tuples in [1usize << 15, 1 << 16] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, 0.5, 1));
        let radix = cfg.derived_radix(tuples);
        bench(&format!("2^{}", tuples.trailing_zeros()), 5, || {
            let mut dev = SimBackend::new(DeviceSpec::a100());
            let buf = upload_relation(&mut dev, &w.r, "table R").unwrap();
            gpu_partition(&mut dev, black_box(buf), &radix, cfg.block_dim)
                .expect("partition failed")
        });
    }
}

fn bench_gpu_joins() {
    group("gpu_join_sim");
    for &zipf in &[0.25f64, 0.9] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 13, zipf, 2));
        let cfg = JoinConfig::from(GpuJoinConfig::default());
        for algo in GpuAlgorithm::ALL {
            bench(&format!("{}/{zipf}", algo.name()), 3, || {
                skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count).unwrap()
            });
        }
    }
}

fn main() {
    bench_gpu_partition();
    bench_gpu_joins();
}
