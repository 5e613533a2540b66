//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **CSH sample rate** (paper: 1 %) — detection cost vs. coverage.
//! 3. **GSH top-k** (paper: "k = 3 is sufficient") — simulated time and
//!    detected keys as k varies.
//! 4. **Cbase split factor** — how much the baseline's partition-splitting
//!    skew handling helps before the single-key wall.
//! 5. **Radix fan-out** — partition/join balance around the derived
//!    radix, one pass against two.
//! 8. **SM count** — GSH's speedup over Gbase as the device widens.
//!
//! The run exits 1 when the GSH sections measured no skew handling: no
//! skewed key at k = 3 in [3], or GSH no faster than Gbase at 108 SMs in
//! [8]. Both mean `--gpu-tuples` is too small for the GSH skew path.

#![allow(clippy::field_reassign_with_default)]

use std::time::Duration;

use skewjoin::common::hash::RadixConfig;
use skewjoin::prelude::*;
use skewjoin_bench::{fmt_time, BenchArgs, BenchRecord};

fn cpu_cfg(args: &BenchArgs) -> CpuJoinConfig {
    CpuJoinConfig::with_threads(args.threads)
}

fn run_cpu(algo: CpuAlgorithm, w: &PaperWorkload, cfg: &CpuJoinConfig) -> JoinStats {
    let cfg = JoinConfig {
        cpu: cfg.clone(),
        ..JoinConfig::default()
    };
    skewjoin::run_join(Algorithm::Cpu(algo), &w.r, &w.s, &cfg, SinkSpec::default())
        .expect("join failed")
}

fn run_gpu(algo: GpuAlgorithm, r: &Relation, s: &Relation, cfg: &GpuJoinConfig) -> JoinStats {
    let cfg = JoinConfig {
        gpu: cfg.clone(),
        ..JoinConfig::default()
    };
    skewjoin::run_join(Algorithm::Gpu(algo), r, s, &cfg, SinkSpec::default())
        .expect("GPU join failed")
}

fn main() {
    let args = BenchArgs::parse();
    let mut record = BenchRecord::new("ablation", &args);
    let hot = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, 1.0, args.seed));
    let warm = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, 0.8, args.seed));
    let mut unmeasured: Vec<String> = Vec::new();

    // ---- 1. CSH sample rate (zipf 1.0). ----
    println!("[1] CSH sample rate @ zipf 1.0 ({} tuples)", args.tuples);
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "rate", "sample", "total", "skew keys"
    );
    for rate in [0.001, 0.005, 0.01, 0.05, 0.1] {
        let mut cfg = cpu_cfg(&args);
        cfg.skew.sample_rate = rate;
        let s = run_cpu(CpuAlgorithm::Csh, &hot, &cfg);
        println!(
            "{:>8} {:>12} {:>12} {:>10}",
            rate,
            fmt_time(s.phases.get("sample")),
            fmt_time(s.total_time()),
            s.skewed_keys_detected
        );
        record.push(&format!("csh_rate_{rate}"), 1.0, s.total_time());
    }

    // ---- 3. GSH top-k (zipf 1.0, simulated). ----
    let gw = PaperWorkload::generate(WorkloadSpec::paper(args.gpu_tuples, 1.0, args.seed));
    println!(
        "\n[3] GSH top-k @ zipf 1.0 ({} tuples, simulated)",
        args.gpu_tuples
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "k", "nm_join", "total", "skew keys"
    );
    for k in [1usize, 2, 3, 5, 8] {
        let mut cfg = GpuJoinConfig::default();
        cfg.skew.top_k = k;
        let s = run_gpu(GpuAlgorithm::Gsh, &gw.r, &gw.s, &cfg);
        println!(
            "{:>6} {:>12} {:>12} {:>10}",
            k,
            fmt_time(s.phases.get("nm_join")),
            fmt_time(s.total_time()),
            s.skewed_keys_detected
        );
        record.push(&format!("gsh_topk_{k}"), 1.0, s.total_time());
        if k == 3 && s.skewed_keys_detected == 0 {
            unmeasured.push("[3] GSH found no skewed key at k = 3".to_string());
        }
    }

    // ---- 4. Cbase split factor (zipf 0.8). ----
    println!("\n[4] Cbase split factor @ zipf 0.8");
    println!("{:>8} {:>12}", "factor", "join");
    for factor in [1.5, 3.0, 8.0, f64::MAX] {
        let mut cfg = cpu_cfg(&args);
        cfg.split_factor = factor;
        let s = run_cpu(CpuAlgorithm::Cbase, &warm, &cfg);
        let label = if factor == f64::MAX {
            "off".to_string()
        } else {
            format!("{factor}")
        };
        println!("{:>8} {:>12}", label, fmt_time(s.phases.get("join")));
        record.push(&format!("cbase_split_{label}"), 0.8, s.phases.get("join"));
    }

    // ---- 5. Radix fan-out (zipf 0.5). ----
    let mid = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, 0.5, args.seed));
    let derived = CpuJoinConfig::derived_radix(args.tuples).total_bits();
    println!("\n[5] Cbase radix bits_passes @ zipf 0.5 (derived: {derived} bits)");
    println!("{:>6} {:>12} {:>12}", "layout", "partition", "join");
    // Two bits at least, one for each pass of the two-pass layout.
    for bits in [derived.saturating_sub(2), derived, derived + 2]
        .into_iter()
        .filter(|&b| b >= 2)
    {
        for radix in [RadixConfig::single_pass(bits), RadixConfig::two_pass(bits)] {
            let layout = format!("{bits}_{}p", radix.bits_per_pass.len());
            let mut cfg = cpu_cfg(&args);
            cfg.radix = Some(radix);
            let s = run_cpu(CpuAlgorithm::Cbase, &mid, &cfg);
            let (part, join) = (s.phases.get("partition"), s.phases.get("join"));
            println!("{layout:>6} {:>12} {:>12}", fmt_time(part), fmt_time(join));
            record.push(&format!("cbase_bits_{layout}"), 0.5, s.total_time());
        }
    }

    // ---- 8. GSH speedup vs SM count (zipf 1.0, simulated). ----
    // The paper attributes GSH's larger GPU-side gains to "the higher level
    // of parallelism available in the GPU": the skew phase spreads one hot
    // key over thousands of blocks, while Gbase's few sub-list blocks
    // cannot use the extra SMs. The speedup should therefore grow with SM
    // count.
    println!("\n[8] GSH vs Gbase speedup by SM count @ zipf 1.0 (simulated)");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "SMs", "Gbase", "GSH", "speedup"
    );
    for sms in [8usize, 32, 108] {
        let mut cfg = GpuJoinConfig::default();
        cfg.spec.num_sms = sms;
        let gb = run_gpu(GpuAlgorithm::Gbase, &gw.r, &gw.s, &cfg);
        let gs = run_gpu(GpuAlgorithm::Gsh, &gw.r, &gw.s, &cfg);
        println!(
            "{:>6} {:>12} {:>12} {:>8.2}x",
            sms,
            fmt_time(gb.total_time()),
            fmt_time(gs.total_time()),
            gb.total_time().as_secs_f64() / gs.total_time().as_secs_f64().max(1e-12)
        );
        record.push(&format!("gbase_sms_{sms}"), 1.0, gb.total_time());
        record.push(&format!("gsh_sms_{sms}"), 1.0, gs.total_time());
        if sms == 108 && gs.total_time() >= gb.total_time() {
            unmeasured.push("[8] GSH does not beat Gbase at 108 SMs".to_string());
        }
    }

    // Keep the record from exploding if someone adds zero-duration phases.
    record
        .measurements
        .retain(|m| m.seconds >= 0.0 && Duration::from_secs_f64(m.seconds) < Duration::MAX);
    record.write(&args);
    if !unmeasured.is_empty() {
        for line in &unmeasured {
            eprintln!("ablation: {line} ({} GPU tuples)", args.gpu_tuples);
        }
        std::process::exit(1);
    }
}
