//! Reproduces **Table I**: per-phase execution time breakdown of all four
//! partitioned joins for zipf factors 0.5–1.0.
//!
//! Row mapping to our recorded phases:
//! * "Cbase partition" / "Cbase join" — as recorded.
//! * "CSH sample+part" — `sample + partition_r + partition_s` (the phases
//!   that include skewed-tuple result generation, per the paper's
//!   comparison of skew-processing components).
//! * "CSH NM-join" — `nm_join`.
//!
//! Cbase and CSH partition and join in one morsel pipeline, so partition
//! and join work overlap and their rows split by timestamp: partitioning
//! ends when both inputs are fully partitioned, and join tasks that ran
//! before that count as partition time. CSH's `partition_r` ends when R is
//! partitioned or S's hot-key emission starts, whichever comes first.
//! * "Gbase partition" / "Gbase join" — as recorded (simulated).
//! * "GSH partition" — `partition + split` (the data-movement phases; the
//!   paper's row grows with skew exactly because the split pass does).
//! * "GSH all other" — `detect + nm_join + skew_join`.

use std::time::Duration;

use skewjoin::prelude::*;
use skewjoin_bench::{fmt_time, table1_zipfs, BenchArgs, BenchRecord};

fn main() {
    let args = BenchArgs::parse();
    let mut record = BenchRecord::new("table1", &args);
    let zipfs = table1_zipfs();

    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(args.threads));

    // rows[r] = one label + one value per zipf.
    let labels = [
        "Cbase partition",
        "Cbase join",
        "CSH sample+part",
        "CSH NM-join",
        "Gbase partition",
        "Gbase join",
        "GSH partition",
        "GSH all other",
    ];
    let mut rows: Vec<Vec<Duration>> = vec![Vec::new(); labels.len()];

    for &zipf in &zipfs {
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

        let cells = [
            cbase.phases.get("partition"),
            cbase.phases.get("join"),
            csh.phases.get("sample")
                + csh.phases.get("partition_r")
                + csh.phases.get("partition_s"),
            csh.phases.get("nm_join"),
            gbase.phases.get("partition"),
            gbase.phases.get("join"),
            gsh.phases.get("partition") + gsh.phases.get("split"),
            gsh.phases.get("detect") + gsh.phases.get("nm_join") + gsh.phases.get("skew_join"),
        ];
        for (row, &cell) in rows.iter_mut().zip(cells.iter()) {
            row.push(cell);
        }
        for (label, &cell) in labels.iter().zip(cells.iter()) {
            record.push(label, zipf, cell);
        }
        record.attach_trace("Cbase", zipf, &cbase);
        record.attach_trace("CSH", zipf, &csh);
        record.attach_trace("Gbase", zipf, &gbase);
        record.attach_trace("GSH", zipf, &gsh);
    }

    println!(
        "Table I — execution time breakdown (CPU: {} tuples wall-clock, GPU: {} tuples simulated)",
        args.tuples, args.gpu_tuples
    );
    print!("{:<17}", "zipf factor");
    for z in &zipfs {
        print!(" {z:>9.1}");
    }
    println!();
    for (label, row) in labels.iter().zip(rows.iter()) {
        print!("{label:<17}");
        for d in row {
            print!(" {:>9}", fmt_time(*d));
        }
        println!();
    }

    record.write(&args);
}
