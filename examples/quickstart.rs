//! Quickstart: generate the paper's workload at a laptop-friendly scale and
//! run the skew-conscious CPU join against the baseline.
//!
//! ```sh
//! cargo run --release -p skewjoin --example quickstart [tuples] [zipf]
//! ```

use skewjoin::common::report::ComparisonTable;
use skewjoin::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let tuples: usize = args
        .next()
        .map(|a| a.parse().expect("tuples must be an integer"))
        .unwrap_or(1 << 20);
    let zipf: f64 = args
        .next()
        .map(|a| a.parse().expect("zipf must be a float"))
        .unwrap_or(0.9);

    println!("Generating two {tuples}-tuple tables with zipf factor {zipf} …");
    let workload = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, 42));
    println!(
        "Expected join output: ≈{:.2e} tuples\n",
        workload.expected_join_output()
    );

    let cfg = JoinConfig::default();
    let mut table = ComparisonTable::new();
    for algo in [CpuAlgorithm::Cbase, CpuAlgorithm::Csh] {
        let stats = skewjoin::run_join(
            Algorithm::Cpu(algo),
            &workload.r,
            &workload.s,
            &cfg,
            SinkSpec::default(), // volcano-style ring buffer, as in the paper
        )
        .expect("join failed");
        table.add(stats);
    }
    table.validate_agreement().expect("result mismatch");
    println!("{}", table.render());
    println!("{}", table.render_phases());
    println!("Tip: raise the zipf factor (e.g. 1.0) to watch Cbase fall behind.");
}
