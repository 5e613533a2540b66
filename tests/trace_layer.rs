//! Trace-layer invariants across every algorithm: a small skewed join must
//! produce a non-empty per-phase trace whose counters are internally
//! consistent — partition phases conserve tuples, results counters add up
//! to the reported total, simulated device cycles dominate the busiest
//! block, and skew-aware algorithms report the keys they detected.

use skewjoin::common::trace::counter;
use skewjoin::common::{JoinStats, SinkSpec, Trace};
use skewjoin::cpu::skew::detect_skewed_keys;
use skewjoin::prelude::*;
use skewjoin_integration::{cpu_config, gpu_config, CaseSpec};

fn spec() -> CaseSpec {
    CaseSpec {
        seed: 77,
        size: 4000,
        zipf: 1.0,
        threads: 3,
    }
}

/// The small, heavily skewed workload every test here runs, and its config.
fn workload() -> (PaperWorkload, JoinConfig) {
    let spec = spec();
    let w = PaperWorkload::generate(WorkloadSpec::paper(spec.size, spec.zipf, spec.seed));
    let cfg = JoinConfig {
        cpu: cpu_config(spec),
        gpu: gpu_config(spec),
    };
    (w, cfg)
}

/// Runs every algorithm on [`workload`] and returns the stats, labelled.
fn run_all() -> Vec<JoinStats> {
    let (w, cfg) = workload();
    let mut all = Vec::new();
    for algo in Algorithm::ALL {
        all.push(skewjoin::run_join(algo, &w.r, &w.s, &cfg, SinkSpec::Count).unwrap());
    }
    all
}

/// Sum of `results` counters plus CSH's early-emitted skew results.
fn traced_results(trace: &Trace) -> u64 {
    let mut total: u64 = trace
        .phases
        .iter()
        .filter_map(|p| p.get(counter::RESULTS))
        .sum();
    if let Some(skew) = trace.get("partition_s", "skew_results") {
        total += skew;
    }
    total
}

#[test]
fn every_algorithm_emits_a_nonempty_trace() {
    for stats in run_all() {
        assert!(
            !stats.trace.is_empty(),
            "{} emitted an empty trace",
            stats.algorithm
        );
        assert!(
            !stats.trace.phases.is_empty(),
            "{} recorded no phases",
            stats.algorithm
        );
    }
}

#[test]
fn partition_phases_conserve_tuples() {
    for stats in run_all() {
        for phase in &stats.trace.phases {
            if let (Some(i), Some(o)) = (
                phase.get(counter::TUPLES_IN),
                phase.get(counter::TUPLES_OUT),
            ) {
                assert_eq!(
                    i, o,
                    "{} phase {} lost or duplicated tuples",
                    stats.algorithm, phase.name
                );
            }
        }
    }
}

#[test]
fn traced_results_match_reported_totals() {
    for stats in run_all() {
        assert_eq!(
            traced_results(&stats.trace),
            stats.result_count,
            "{} trace results disagree with stats.result_count",
            stats.algorithm
        );
    }
}

#[test]
fn gpu_device_cycles_dominate_busiest_block() {
    let spec = spec();
    let w = PaperWorkload::generate(WorkloadSpec::paper(spec.size, spec.zipf, spec.seed));
    let cfg = JoinConfig::from(gpu_config(spec));
    for algo in GpuAlgorithm::ALL {
        let stats = skewjoin::run_join(algo.into(), &w.r, &w.s, &cfg, SinkSpec::Count).unwrap();
        let mut gpu_phases = 0;
        for phase in &stats.trace.phases {
            let Some(device) = phase.get(counter::DEVICE_CYCLES) else {
                continue;
            };
            gpu_phases += 1;
            let max_block = phase
                .get(counter::MAX_BLOCK_CYCLES)
                .expect("device cycles recorded without max block cycles");
            assert!(
                device >= max_block,
                "{} phase {}: device_cycles {device} < max_block_cycles {max_block}",
                stats.algorithm,
                phase.name
            );
            assert!(
                phase.get(counter::KERNEL_LAUNCHES).unwrap_or(0) > 0,
                "{} phase {} has cycles but no launches",
                stats.algorithm,
                phase.name
            );
        }
        assert!(
            gpu_phases > 0,
            "{} recorded no kernel phases",
            stats.algorithm
        );
        // The trace's per-phase cycles partition the device total.
        let summed: u64 = stats
            .trace
            .phases
            .iter()
            .filter_map(|p| p.get(counter::DEVICE_CYCLES))
            .sum();
        assert!(
            summed <= stats.simulated_cycles,
            "{}: traced cycles {summed} exceed device total {}",
            stats.algorithm,
            stats.simulated_cycles
        );
    }
}

#[test]
fn skew_aware_algorithms_report_detected_keys() {
    for stats in run_all() {
        let name = stats.algorithm.as_str();
        if name != "CSH" && name != "GSH" {
            continue;
        }
        assert!(
            stats.skewed_keys_detected > 0,
            "{name} detected no skew on a zipf-1.0 workload"
        );
        assert_eq!(
            stats.trace.skewed_keys.len(),
            stats.skewed_keys_detected,
            "{name}: trace key list disagrees with skewed_keys_detected"
        );
        for sk in &stats.trace.skewed_keys {
            assert!(
                sk.frequency > 0,
                "{name}: key {} recorded with zero frequency",
                sk.key
            );
        }
        if name == "CSH" {
            // The detector's keys reach the trace unchanged: same keys,
            // same order (hottest first), same sample frequencies.
            let (w, cfg) = workload();
            assert_eq!(
                stats.trace.skewed_keys,
                detect_skewed_keys(&w.r, &cfg.cpu.skew)
            );
        }
    }
}

#[test]
fn scheduler_counters_are_traced_on_cpu_joins() {
    // Every partitioned CPU join runs its partition pass as pipeline morsels
    // and its task loop through the scheduler, so a partition phase must
    // carry the morsel count and the join (or probe, for NPJ) phase the
    // steal counters. Steal counts are load-dependent and may legitimately
    // be zero; presence is the contract.
    for stats in run_all() {
        let name = stats.algorithm.as_str();
        let phase_with = |c: &str| {
            stats
                .trace
                .phases
                .iter()
                .find(|p| p.get(c).is_some())
                .map(|p| p.name.clone())
        };
        match name {
            "Cbase" | "CSH" => {
                assert!(
                    stats
                        .trace
                        .phases
                        .iter()
                        .any(|p| p.name.starts_with("partition")
                            && p.get(counter::MORSELS) > Some(0)),
                    "{name}: no partition phase recorded morsels"
                );
                assert!(
                    phase_with(counter::TASKS_STOLEN).is_some(),
                    "{name}: no phase recorded tasks_stolen"
                );
                assert!(
                    phase_with(counter::STEAL_FAILURES).is_some(),
                    "{name}: no phase recorded steal_failures"
                );
            }
            "cbase-npj" => {
                assert!(
                    phase_with(counter::TASKS_STOLEN).is_some(),
                    "{name}: no phase recorded tasks_stolen"
                );
            }
            _ => {} // GPU algorithms do not use the CPU scheduler.
        }
    }
}

#[test]
fn counters_scale_monotonically_with_input() {
    // Doubling the input must not shrink the partition-phase tuple counters:
    // a cheap monotonicity check that catches dropped windows in the
    // launch-log wiring.
    let small = spec();
    let big = CaseSpec {
        size: small.size * 2,
        ..small
    };
    for s in [small, big] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(s.size, s.zipf, s.seed));
        let stats = skewjoin::run_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &w.r,
            &w.s,
            &JoinConfig::from(cpu_config(s)),
            SinkSpec::Count,
        )
        .unwrap();
        assert_eq!(
            stats.trace.get("partition", counter::TUPLES_IN),
            Some(2 * s.size as u64),
            "size {}",
            s.size
        );
    }
}
