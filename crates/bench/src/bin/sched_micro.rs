//! Scheduler micro-benchmark: the mutex task queue (the pre-redesign
//! scheduler, kept as the deque's reference) against the work-stealing
//! scheduler, both driving the same direct-store scatter, swept over
//! zipf 0–1.5.
//!
//! Two groups of series land in the BENCH JSON:
//!
//! * `radix partition (<variant>)` — Cbase's `partition` phase in
//!   isolation, at full `--tuples` scale with a TLB-hostile 2048-way first
//!   pass: R is joined against an empty S, so the pipeline partitions R and
//!   no join task runs. The sweep stays cheap even at zipf 1.5 where join
//!   output is quadratic in the hot-key frequency.
//! * `Cbase partition (<variant>)` / `CSH partition+skew (<variant>)` /
//!   `<algo> total (<variant>)` — Cbase and CSH end to end (at
//!   `--tuples / 16` with a size-appropriate radix, bounding the zipf-1.5
//!   output explosion), so the scheduler is also exercised through the
//!   join task pool and CSH's during-partition skew probe. CSH's phase is
//!   labelled `partition+skew` because the skew join is fused into its
//!   S scatter and dominates it at high zipf.
//!
//! Each cell takes the minimum over its reps to suppress preemption noise
//! on small machines.
//!
//! ```sh
//! cargo run --release -p skewjoin-bench --bin sched_micro [--tuples N] [--threads N]
//! ```

use std::time::Duration;

use skewjoin::common::hash::{RadixConfig, RadixMode};
use skewjoin::common::trace::counter;
use skewjoin::common::CountingSink;
use skewjoin::cpu::{cbase_join, SchedulerKind};
use skewjoin::prelude::*;
use skewjoin_bench::{fmt_time, BenchArgs, BenchRecord};

const PARTITION_REPS: usize = 9;
const JOIN_REPS: usize = 3;

/// The two configurations under comparison.
#[derive(Clone, Copy)]
struct Variant {
    label: &'static str,
    scheduler: SchedulerKind,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        label: "mutex",
        scheduler: SchedulerKind::Mutex,
    },
    Variant {
        label: "ws",
        scheduler: SchedulerKind::WorkStealing,
    },
];

/// A 2048-way first pass: the scatter touches far more destination pages
/// than a dTLB holds, and the pipeline gets 2048 Refine tasks, which is
/// where per-task dispatch cost shows.
fn wide_radix() -> RadixConfig {
    RadixConfig {
        bits_per_pass: vec![11, 4],
        mode: RadixMode::Mixed,
    }
}

fn zipf_sweep() -> impl Iterator<Item = f64> {
    (0..=6).map(|i| i as f64 * 0.25)
}

/// Sum of the partition-phase times (Cbase records one `partition` phase;
/// CSH splits it into `partition_r` and `partition_s`).
fn partition_time(stats: &skewjoin::common::JoinStats) -> Duration {
    let single = stats.phases.get("partition");
    if single > Duration::ZERO {
        return single;
    }
    stats.phases.get("partition_r") + stats.phases.get("partition_s")
}

/// Partition-phase-only sweep at full scale.
fn bench_partition_only(args: &BenchArgs, record: &mut BenchRecord) {
    println!(
        "\nradix partition only — {} tuples, 2048-way first pass, min of {PARTITION_REPS} reps",
        args.tuples
    );
    println!(
        "{:>6} | {:>11} {:>11} {:>8}",
        "zipf", "mutex", "ws", "speedup"
    );
    let radix = wide_radix();
    for zipf in zipf_sweep() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(args.tuples, zipf, args.seed));
        let empty = Relation::new();
        let mut best = [Duration::MAX; VARIANTS.len()];
        // Variants are interleaved inside each rep (not run as blocks) so
        // machine noise bursts hit both equally; min-of-reps then samples
        // each variant's quiet-period time.
        for _ in 0..PARTITION_REPS {
            for (vi, v) in VARIANTS.iter().enumerate() {
                let cfg = CpuJoinConfig {
                    threads: args.threads,
                    radix: Some(radix.clone()),
                    scheduler: v.scheduler,
                    ..CpuJoinConfig::default()
                };
                let outcome = cbase_join(&w.r, &empty, &cfg, |_| CountingSink::new())
                    .expect("partition failed");
                let stats = &outcome.stats;
                assert_eq!(
                    stats.trace.get("partition", counter::TUPLES_OUT),
                    Some(w.r.len() as u64)
                );
                best[vi] = best[vi].min(stats.phases.get("partition"));
            }
        }
        for (vi, v) in VARIANTS.iter().enumerate() {
            record.push(&format!("radix partition ({})", v.label), zipf, best[vi]);
        }
        println!(
            "{:>6.2} | {:>11} {:>11} {:>7.2}x",
            zipf,
            fmt_time(best[0]),
            fmt_time(best[1]),
            best[0].as_secs_f64() / best[1].as_secs_f64().max(1e-12),
        );
    }
}

/// End-to-end joins: the scheduler also drives the join task pool and
/// CSH's skew-probing partition scans.
fn bench_full_joins(args: &BenchArgs, record: &mut BenchRecord) {
    let tuples = (args.tuples / 16).max(1 << 12);
    println!(
        "\nend-to-end joins — {tuples} tuples/table, {} threads, min of {JOIN_REPS} reps",
        args.threads
    );
    println!(
        "{:>6} {:>10} | {:>11} {:>11} {:>8} | {:>11} {:>11} {:>8}",
        "zipf", "algo", "part mutex", "part ws", "speedup", "tot mutex", "tot ws", "speedup"
    );
    let base = CpuJoinConfig::with_threads(args.threads);
    for zipf in zipf_sweep() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, args.seed));
        for algo in [CpuAlgorithm::Cbase, CpuAlgorithm::Csh] {
            // [(partition, total); variants], min over interleaved reps
            // (see `bench_partition_only` on why interleaved).
            let mut best = [(Duration::MAX, Duration::MAX); VARIANTS.len()];
            for rep in 0..JOIN_REPS {
                for (vi, v) in VARIANTS.iter().enumerate() {
                    let cfg = JoinConfig::from(CpuJoinConfig {
                        scheduler: v.scheduler,
                        ..base.clone()
                    });
                    let stats = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count)
                        .unwrap_or_else(|e| panic!("{algo}/{}: {e}", v.label));
                    let cell = &mut best[vi];
                    cell.0 = cell.0.min(partition_time(&stats));
                    cell.1 = cell.1.min(stats.total_time());
                    if rep == 0 {
                        record.attach_trace(
                            &format!("{} ({})", algo.name(), v.label),
                            zipf,
                            &stats,
                        );
                    }
                }
            }
            // CSH's "partition" phase fuses the skew probe + emission into
            // the partition scans (that is the algorithm's point), so its
            // series is labelled as the fused phase — it is not a pure
            // scatter measurement the way Cbase's partition phase is.
            let phase_label = match algo {
                CpuAlgorithm::Csh => "partition+skew",
                _ => "partition",
            };
            for (vi, v) in VARIANTS.iter().enumerate() {
                record.push(
                    &format!("{} {} ({})", algo.name(), phase_label, v.label),
                    zipf,
                    best[vi].0,
                );
                record.push(
                    &format!("{} total ({})", algo.name(), v.label),
                    zipf,
                    best[vi].1,
                );
            }
            let [(old_p, old_t), (new_p, new_t)] = best;
            println!(
                "{:>6.2} {:>10} | {:>11} {:>11} {:>7.2}x | {:>11} {:>11} {:>7.2}x",
                zipf,
                algo.name(),
                fmt_time(old_p),
                fmt_time(new_p),
                old_p.as_secs_f64() / new_p.as_secs_f64().max(1e-12),
                fmt_time(old_t),
                fmt_time(new_t),
                old_t.as_secs_f64() / new_t.as_secs_f64().max(1e-12),
            );
        }
    }
}

fn main() {
    let args = BenchArgs::parse_with_defaults(BenchArgs {
        tuples: 1 << 21,
        threads: 4,
        ..BenchArgs::default()
    });
    let mut record = BenchRecord::new("sched_micro", &args);
    println!("Scheduler micro-benchmark — mutex vs work-stealing, both on direct scatter");
    bench_partition_only(&args, &mut record);
    bench_full_joins(&args, &mut record);
    record.write(&args);
}
