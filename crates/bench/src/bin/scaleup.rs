//! Reproduces the **larger-input experiment** (§V-B, last paragraph): scale
//! the tables up at zipf 0.7 and report the CSH-over-Cbase and
//! GSH-over-Gbase speedups (paper, at 560 M tuples: 3.5× and 10.4×).
//!
//! Default scale is 2^22 CPU / 2^20 GPU tuples; pass `--tuples 560m` (and
//! hours of patience plus ~9 GB of RAM per table copy) for the paper's
//! full size.

use skewjoin::prelude::*;
use skewjoin_bench::{fmt_time, BenchArgs, BenchRecord};

fn main() {
    // Scale-up defaults are larger than the other harnesses': at zipf 0.7
    // the GPU hot key reaches the shared-memory capacity (≈2048 tuples on
    // the A100 profile) only from ~1M tuples upward. Explicit flags always
    // override these defaults.
    let args = BenchArgs::parse_with_defaults(BenchArgs {
        tuples: 1 << 22,
        gpu_tuples: 1 << 20,
        ..BenchArgs::default()
    });
    let zipf = 0.7;
    let mut record = BenchRecord::new("scaleup", &args);

    println!(
        "Scale-up experiment — zipf {zipf}, CPU {} tuples, GPU {} tuples",
        args.tuples, args.gpu_tuples
    );

    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(args.threads));
    let cw = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, zipf, args.seed));
    let cbase = skewjoin::run_join(
        Algorithm::Cpu(CpuAlgorithm::Cbase),
        &cw.r,
        &cw.s,
        &cfg,
        SinkSpec::default(),
    )
    .expect("Cbase");
    let csh = skewjoin::run_join(
        Algorithm::Cpu(CpuAlgorithm::Csh),
        &cw.r,
        &cw.s,
        &cfg,
        SinkSpec::default(),
    )
    .expect("CSH");
    assert_eq!(cbase.result_count, csh.result_count, "CPU result mismatch");
    record.push("Cbase", zipf, cbase.total_time());
    record.push("CSH", zipf, csh.total_time());
    record.attach_trace("Cbase", zipf, &cbase);
    record.attach_trace("CSH", zipf, &csh);
    println!(
        "CPU: Cbase {} vs CSH {} → {:.2}× speedup (paper at 560M: 3.5×)",
        fmt_time(cbase.total_time()),
        fmt_time(csh.total_time()),
        cbase.total_time().as_secs_f64() / csh.total_time().as_secs_f64().max(1e-12)
    );

    let gw = PaperWorkload::generate(WorkloadSpec::paper(args.gpu_tuples, zipf, args.seed));
    let gbase = skewjoin::run_join(
        Algorithm::Gpu(GpuAlgorithm::Gbase),
        &gw.r,
        &gw.s,
        &cfg,
        SinkSpec::default(),
    )
    .expect("Gbase");
    let gsh = skewjoin::run_join(
        Algorithm::Gpu(GpuAlgorithm::Gsh),
        &gw.r,
        &gw.s,
        &cfg,
        SinkSpec::default(),
    )
    .expect("GSH");
    assert_eq!(gbase.result_count, gsh.result_count, "GPU result mismatch");
    record.push("Gbase", zipf, gbase.total_time());
    record.push("GSH", zipf, gsh.total_time());
    record.attach_trace("Gbase", zipf, &gbase);
    record.attach_trace("GSH", zipf, &gsh);
    println!(
        "GPU: Gbase {} vs GSH {} (simulated) → {:.2}× speedup (paper at 560M: 10.4×)",
        fmt_time(gbase.total_time()),
        fmt_time(gsh.total_time()),
        gbase.total_time().as_secs_f64() / gsh.total_time().as_secs_f64().max(1e-12)
    );

    record.write(&args);
}
