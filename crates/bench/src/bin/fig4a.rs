//! Reproduces **Figure 4a**: total CPU hash join time (Cbase, cbase-npj,
//! CSH) as the zipf factor grows from 0 to 1.
//!
//! Expected shape (§V-B): CSH ≈ Cbase at zipf 0–0.4; cbase-npj worst
//! throughout; CSH wins by a growing factor (paper: up to 8×) at 0.5–1.0.

use skewjoin::prelude::*;
use skewjoin_bench::{figure_zipfs, fmt_time, BenchArgs, BenchRecord};

fn main() {
    let args = BenchArgs::parse();
    let mut record = BenchRecord::new("fig4a", &args);

    println!(
        "Figure 4a — CPU hash joins, {} tuples/table, {} threads (wall-clock)",
        args.tuples, args.threads
    );
    println!(
        "{:>5} | {:>12} {:>12} {:>12} | {:>11}",
        "zipf", "Cbase", "cbase-npj", "CSH", "CSH speedup"
    );

    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(args.threads));

    for zipf in figure_zipfs() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, zipf, args.seed));
        let mut totals = Vec::new();
        for algo in CpuAlgorithm::ALL {
            let stats = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::default())
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            record.push(algo.name(), zipf, stats.total_time());
            record.attach_trace(algo.name(), zipf, &stats);
            totals.push(stats.total_time());
        }
        println!(
            "{:>5.1} | {:>12} {:>12} {:>12} | {:>10.2}x",
            zipf,
            fmt_time(totals[0]),
            fmt_time(totals[1]),
            fmt_time(totals[2]),
            totals[0].as_secs_f64() / totals[2].as_secs_f64().max(1e-12)
        );
    }

    record.write(&args);
}
