//! Reproduces **Figure 4b**: total GPU hash join time (Gbase, GSH) on the
//! simulated A100 as the zipf factor grows from 0 to 1.
//!
//! Expected shape (§V-B): GSH ≈ Gbase at zipf 0–0.4 (no partition exceeds
//! the shared-memory capacity, so the skew path never triggers); GSH wins
//! by a growing factor (paper: up to 13.5×) at 0.5–1.0.
//!
//! GSH is Gbase plus a skew phase, so wherever GSH launched no detect,
//! split or skew-join kernel the two must cost the same simulated cycles.
//! The run exits 1 at any zipf where they do not.

use skewjoin::common::trace::counter;
use skewjoin::prelude::*;
use skewjoin_bench::{figure_zipfs, fmt_time, BenchArgs, BenchRecord};

fn main() {
    let args = BenchArgs::parse();
    let mut record = BenchRecord::new("fig4b", &args);

    println!(
        "Figure 4b — GPU hash joins, {} tuples/table (simulated A100 time)",
        args.gpu_tuples
    );
    println!(
        "{:>5} | {:>12} {:>12} | {:>11}",
        "zipf", "Gbase", "GSH", "GSH speedup"
    );

    let cfg = JoinConfig::from(GpuJoinConfig::default());
    let mut untied = Vec::new();
    for zipf in figure_zipfs() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(args.gpu_tuples, zipf, args.seed));
        let mut totals = Vec::new();
        let mut cycles = Vec::new();
        let mut skew_launches = 0;
        for algo in GpuAlgorithm::ALL {
            let stats = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::default())
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            record.push(algo.name(), zipf, stats.total_time());
            record.attach_trace(algo.name(), zipf, &stats);
            totals.push(stats.total_time());
            cycles.push(stats.simulated_cycles);
            if algo == GpuAlgorithm::Gsh {
                skew_launches = ["detect", "split", "skew_join"]
                    .iter()
                    .filter_map(|phase| stats.trace.get(phase, counter::KERNEL_LAUNCHES))
                    .sum();
            }
        }
        if skew_launches == 0 && cycles[0] != cycles[1] {
            untied.push(format!(
                "zipf {zipf:.1}: GSH ran no skew kernel but cost {} cycles against Gbase's {}",
                cycles[1], cycles[0]
            ));
        }
        println!(
            "{:>5.1} | {:>12} {:>12} | {:>10.2}x",
            zipf,
            fmt_time(totals[0]),
            fmt_time(totals[1]),
            totals[0].as_secs_f64() / totals[1].as_secs_f64().max(1e-12)
        );
    }

    record.write(&args);
    if !untied.is_empty() {
        for line in &untied {
            eprintln!("fig4b: {line} ({} GPU tuples)", args.gpu_tuples);
        }
        std::process::exit(1);
    }
}
