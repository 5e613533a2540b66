#![allow(clippy::field_reassign_with_default)]

//! End-to-end planner behaviour: algorithm selection tracks the sampled
//! skew, and executed plans agree with direct runs on both devices.

use skewjoin::common::trace::counter;
use skewjoin::common::JoinStats;
use skewjoin::prelude::*;

#[test]
fn planner_tracks_skew_level() {
    let opts = PlannerOptions::default();
    let skewed = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 1));
    let uniform = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 0.0, 2));

    let p_skew = JoinPlan::plan(&skewed.r, &skewed.s, &opts);
    assert_eq!(p_skew.algorithm, Algorithm::Cpu(CpuAlgorithm::Csh));
    assert!(p_skew.skewed_keys_estimated > 0);

    let p_flat = JoinPlan::plan(&uniform.r, &uniform.s, &opts);
    assert_eq!(p_flat.algorithm, Algorithm::Cpu(CpuAlgorithm::Cbase));
}

#[test]
fn gpu_plan_executes_and_matches_cpu_plan() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 1.0, 3));

    let mut cpu_opts = PlannerOptions::default();
    cpu_opts.cpu = CpuJoinConfig::with_threads(2);
    let cpu_plan = JoinPlan::plan(&w.r, &w.s, &cpu_opts);
    let cpu_stats = cpu_plan
        .execute(&w.r, &w.s, &cpu_opts, SinkSpec::Count)
        .unwrap();

    let mut gpu_opts = PlannerOptions::default();
    gpu_opts.device = TargetDevice::Gpu;
    gpu_opts.gpu = GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        ..GpuJoinConfig::default()
    };
    let gpu_plan = JoinPlan::plan(&w.r, &w.s, &gpu_opts);
    assert_eq!(gpu_plan.algorithm, Algorithm::Gpu(GpuAlgorithm::Gsh));
    let gpu_stats = gpu_plan
        .execute(&w.r, &w.s, &gpu_opts, SinkSpec::Count)
        .unwrap();

    assert_eq!(cpu_stats.result_count, gpu_stats.result_count);
    assert_eq!(cpu_stats.checksum, gpu_stats.checksum);
}

#[test]
fn plan_reason_is_informative() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 5));
    let plan = JoinPlan::plan(&w.r, &w.s, &PlannerOptions::default());
    assert!(
        plan.reason.contains("skewed key"),
        "reason: {}",
        plan.reason
    );
}

#[test]
fn planned_csh_beats_planned_cbase_on_heavy_skew() {
    // Not a micro-benchmark: the planner's choice is directionally right
    // at heavy skew when CSH does strictly less hash-table work than Cbase.
    // Counters, not wall-clock, so the check holds in a debug build on a
    // loaded host; release-mode timing lives in the perf-trajectory job.
    let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 16, 1.0, 7));
    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(4));
    let csh = skewjoin::run_join(
        Algorithm::Cpu(CpuAlgorithm::Csh),
        &w.r,
        &w.s,
        &cfg,
        SinkSpec::Count,
    )
    .unwrap();
    let cbase = skewjoin::run_join(
        Algorithm::Cpu(CpuAlgorithm::Cbase),
        &w.r,
        &w.s,
        &cfg,
        SinkSpec::Count,
    )
    .unwrap();
    assert_eq!(csh.result_count, cbase.result_count);
    assert_eq!(csh.checksum, cbase.checksum);
    assert!(csh.skewed_keys_detected >= 1, "CSH detected no hot key");
    assert!(
        csh.skew_output_fraction() > 0.5,
        "CSH's skew path produced only {:.3} of the output",
        csh.skew_output_fraction()
    );
    let (csh_work, cbase_work) = (
        hash_table_work(&csh, "nm_join"),
        hash_table_work(&cbase, "join"),
    );
    assert!(
        csh_work < cbase_work,
        "CSH nm_join build+probe {csh_work} not below Cbase join {cbase_work}"
    );
}

/// Build plus probe tuples a join phase pushed through hash tables.
fn hash_table_work(stats: &JoinStats, phase: &str) -> u64 {
    let get = |c| stats.trace.get(phase, c).unwrap_or(0);
    get(counter::BUILD_TUPLES) + get(counter::PROBE_TUPLES)
}
