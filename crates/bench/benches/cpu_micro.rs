//! Micro-benchmarks of the CPU join building blocks: radix partitioning
//! (the pipeline's partition phase, R joined against an empty S so no join
//! task runs), one join task's build and probe, skew detection, the sinks' hot-run
//! checksum, per-key counting, and the full joins at two skew levels. Prints mean time per
//! iteration (see `skewjoin_bench::micro`).

use skewjoin::common::hash::RadixConfig;
use skewjoin::common::{CountingSink, KeyCountSink, OutputSink};
use skewjoin::cpu::hashtable::ChainedTable;
use skewjoin::cpu::skew::detect_skewed_keys;
use skewjoin::cpu::{cbase_join, csh_join};
use skewjoin::prelude::*;
use skewjoin_bench::micro::{bench, black_box, compare, group};

const N: usize = 1 << 18;

/// Partitions `r` (and an empty S) through the pipeline: the partition
/// phase of `cbase_join` with no join task to run.
fn partition(r: &Relation, cfg: &CpuJoinConfig) -> u64 {
    let outcome =
        cbase_join(r, &Relation::new(), cfg, |_| CountingSink::new()).expect("partition failed");
    outcome.stats.partitions as u64
}

fn bench_partitioning() {
    group("cpu_partition");
    let w = PaperWorkload::generate(WorkloadSpec::paper(N, 0.5, 1));
    for bits in [8u32, 12] {
        let cfg = CpuJoinConfig {
            radix: Some(RadixConfig::two_pass(bits)),
            ..CpuJoinConfig::with_threads(4)
        };
        bench(&format!("two_pass/{bits}"), 5, || {
            partition(black_box(&w.r), &cfg)
        });
    }
    // CSH's partitioning with its router hook engaged (hot R tuples go to
    // per-key runs), at the wide 2048-way first pass.
    let skewed = PaperWorkload::generate(WorkloadSpec::paper(N, 1.0, 1));
    let cfg = CpuJoinConfig {
        radix: Some(RadixConfig {
            bits_per_pass: vec![11, 4],
            ..RadixConfig::two_pass(15)
        }),
        ..CpuJoinConfig::with_threads(4)
    };
    bench("csh_hooked/11+4", 5, || {
        csh_join(black_box(&skewed.r), &Relation::new(), &cfg, |_| {
            CountingSink::new()
        })
        .expect("partition failed")
        .stats
        .skewed_keys_detected
    });
}

fn bench_hash_table() {
    group("cpu_hash_table");
    // One join task over a partition of the derived radix's size: build,
    // probe, and the chain-length counter, as the radix joins run it.
    let max_bits = CpuJoinConfig::default().max_bucket_bits;
    for zipf in [0.0, 1.0] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(4096, zipf, 2));
        bench(&format!("join_task/{zipf:.1}"), 200, || {
            let table = ChainedTable::build(black_box(w.r.tuples()), max_bits);
            let mut sink = CountingSink::new();
            table.probe_all(black_box(w.s.tuples()), &mut sink);
            sink.count() + table.max_chain_len() as u64
        });
    }
    let skewed = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 2));
    // Long chains: the §III pathology, visible as a large per-probe cost.
    let skew_table = ChainedTable::build(skewed.r.tuples(), 22);
    let probes = &skewed.s.tuples()[..256];
    bench("probe_skewed_chains", 20, || {
        let mut sink = CountingSink::new();
        skew_table.probe_all(black_box(probes), &mut sink);
        sink.count()
    });
}

fn bench_skew_detection() {
    group("skew_detection");
    let w = PaperWorkload::generate(WorkloadSpec::paper(N, 1.0, 3));
    let cfg = SkewDetectConfig::default();
    bench("sampling_1pct", 50, || {
        detect_skewed_keys(black_box(w.r.tuples()), &cfg)
    });
}

/// One hot key's output on `skewed` (2^15 tuples, θ 1): a run of 3 000
/// tuples crossed with 1 000 tuples of the other side, 3 M results, through
/// `CountingSink` one result at a time and a run at a time.
fn bench_run_checksum() {
    group("sink_run_checksum");
    let run: Vec<Tuple> = (0..3000u32)
        .map(|p| Tuple::new(7, p.wrapping_mul(0x9E37_79B1)))
        .collect();
    let other = 0..1000u32;
    let sum = |sink: CountingSink| black_box(sink.checksum());
    compare(
        "r_run_3000x1000",
        5,
        vec![
            (
                "emit",
                Box::new(|| {
                    let mut sink = CountingSink::new();
                    for s in other.clone() {
                        for r in black_box(&run) {
                            sink.emit(7, r.payload, s);
                        }
                    }
                    sum(sink);
                }),
            ),
            (
                "emit_r_run",
                Box::new(|| {
                    let mut sink = CountingSink::new();
                    for s in other.clone() {
                        sink.emit_r_run(7, black_box(&run), s);
                    }
                    sum(sink);
                }),
            ),
        ],
    );
    compare(
        "s_run_1000x3000",
        5,
        vec![
            (
                "emit",
                Box::new(|| {
                    let mut sink = CountingSink::new();
                    for r in other.clone() {
                        for s in black_box(&run) {
                            sink.emit(7, r, s.payload);
                        }
                    }
                    sum(sink);
                }),
            ),
            (
                "emit_s_run",
                Box::new(|| {
                    let mut sink = CountingSink::new();
                    for r in other.clone() {
                        sink.emit_s_run(7, r, black_box(&run));
                    }
                    sum(sink);
                }),
            ),
        ],
    );
}

/// `KeyCountSink` as the cluster shards use it, each iteration ending in
/// the `sorted_counts` a shard's reply carries: 2^17 results over 2^16
/// distinct keys in random order (`uniform`'s probe, where nearly every
/// result opens a new key), and a zipf-1 key stream fed as runs of 4.
fn bench_key_counts() {
    group("sink_key_counts");
    let uniform = ZipfWorkload::new(1 << 16, 0.0, 5).generate_table(1 << 17, 6);
    bench("emit_2^17_over_2^16_keys", 20, || {
        let mut sink = KeyCountSink::new();
        for t in black_box(uniform.tuples()) {
            sink.emit(t.key, t.payload, 1);
        }
        sink.sorted_counts().len()
    });
    let zipf = ZipfWorkload::new(1 << 16, 1.0, 5).generate_table(1 << 17, 7);
    let run = [Tuple::new(0, 1); 4];
    bench("zipf1_runs_of_4", 20, || {
        let mut sink = KeyCountSink::new();
        for t in black_box(zipf.tuples()) {
            sink.emit_r_run(t.key, &run, t.payload);
        }
        sink.sorted_counts().len()
    });
}

fn bench_full_joins() {
    group("cpu_join");
    for &zipf in &[0.25f64, 0.9] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 16, zipf, 4));
        let cfg = JoinConfig::default();
        for algo in [CpuAlgorithm::Cbase, CpuAlgorithm::Csh] {
            bench(&format!("{}/{zipf}", algo.name()), 3, || {
                skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count).unwrap()
            });
        }
    }
}

fn main() {
    bench_partitioning();
    bench_hash_table();
    bench_skew_detection();
    bench_run_checksum();
    bench_key_counts();
    bench_full_joins();
}
