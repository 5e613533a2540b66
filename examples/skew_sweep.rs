//! Sweeps the zipf factor and prints a comparison table of all five
//! algorithms — a miniature of the paper's Figure 4.
//!
//! ```sh
//! cargo run --release -p skewjoin --example skew_sweep [tuples] [gpu_tuples]
//! ```

use skewjoin::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let cpu_tuples: usize = args
        .next()
        .map(|a| a.parse().expect("tuples must be an integer"))
        .unwrap_or(1 << 18);
    let gpu_tuples: usize = args
        .next()
        .map(|a| a.parse().expect("gpu tuples must be an integer"))
        .unwrap_or(1 << 15);

    let cfg = JoinConfig {
        cpu: CpuJoinConfig::default(),
        gpu: GpuJoinConfig::default(),
    };

    println!("CPU joins: {cpu_tuples} tuples/table (wall-clock time)");
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>10}",
        "zipf", "Cbase", "cbase-npj", "CSH", "CSH speedup"
    );
    for step in 0..=5 {
        let zipf = step as f64 * 0.2;
        let w = PaperWorkload::generate(WorkloadSpec::paper(cpu_tuples, zipf, 42));
        let mut times = Vec::new();
        for algo in CpuAlgorithm::ALL {
            let stats = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::default())
                .expect("join failed");
            times.push(stats.total_time());
        }
        println!(
            "{:>5.1} {:>14.3?} {:>14.3?} {:>14.3?} {:>9.2}x",
            zipf,
            times[0],
            times[1],
            times[2],
            times[0].as_secs_f64() / times[2].as_secs_f64().max(1e-12)
        );
    }

    println!("\nGPU joins: {gpu_tuples} tuples/table (simulated A100 time)");
    println!(
        "{:>5} {:>14} {:>14} {:>10}",
        "zipf", "Gbase", "GSH", "GSH speedup"
    );
    for step in 0..=5 {
        let zipf = step as f64 * 0.2;
        let w = PaperWorkload::generate(WorkloadSpec::paper(gpu_tuples, zipf, 42));
        let mut times = Vec::new();
        for algo in GpuAlgorithm::ALL {
            let stats = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::default())
                .expect("join failed");
            times.push(stats.total_time());
        }
        println!(
            "{:>5.1} {:>14.3?} {:>14.3?} {:>9.2}x",
            zipf,
            times[0],
            times[1],
            times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-12)
        );
    }
}
