//! Reproduces **Figure 1**: execution time of the two baselines (Cbase on
//! CPU, Gbase on simulated GPU) broken into partition and join phases, as
//! the zipf factor grows from 0 to 1.
//!
//! Expected shape (§III): partition time stays flat; join time explodes at
//! zipf ≥ 0.7 and dominates at 0.8–1.0.

use skewjoin::prelude::*;
use skewjoin_bench::{figure_zipfs, fmt_time, BenchArgs, BenchRecord};

fn main() {
    let args = BenchArgs::parse();
    let mut record = BenchRecord::new("fig1", &args);

    println!(
        "Figure 1 — baseline phase breakdown (CPU: {} tuples wall-clock, GPU: {} tuples simulated)",
        args.tuples, args.gpu_tuples
    );
    println!(
        "{:>5} | {:>12} {:>12} | {:>12} {:>12}",
        "zipf", "Cbase part", "Cbase join", "Gbase part", "Gbase join"
    );

    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(args.threads));

    for zipf in figure_zipfs() {
        let cw = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, zipf, args.seed));
        let cpu = skewjoin::run_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &cw.r,
            &cw.s,
            &cfg,
            SinkSpec::default(),
        )
        .expect("Cbase failed");

        let gw = PaperWorkload::generate(WorkloadSpec::paper(args.gpu_tuples, zipf, args.seed));
        let gpu = skewjoin::run_join(
            Algorithm::Gpu(GpuAlgorithm::Gbase),
            &gw.r,
            &gw.s,
            &cfg,
            SinkSpec::default(),
        )
        .expect("Gbase failed");

        let cp = cpu.phases.get("partition");
        let cj = cpu.phases.get("join");
        let gp = gpu.phases.get("partition");
        let gj = gpu.phases.get("join");
        println!(
            "{:>5.1} | {:>12} {:>12} | {:>12} {:>12}",
            zipf,
            fmt_time(cp),
            fmt_time(cj),
            fmt_time(gp),
            fmt_time(gj)
        );
        record.push("Cbase partition", zipf, cp);
        record.push("Cbase join", zipf, cj);
        record.push("Gbase partition", zipf, gp);
        record.push("Gbase join", zipf, gj);
        record.attach_trace("Cbase", zipf, &cpu);
        record.attach_trace("Gbase", zipf, &gpu);
    }

    record.write(&args);
}
