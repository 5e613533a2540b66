//! Chaos harness: the fault-injection matrix.
//!
//! Each cell of the matrix arms **one failpoint** with a seed-dependent
//! deterministic schedule and runs **one algorithm** on a skewed workload,
//! twice:
//!
//! 1. through the algorithm's direct entry point with per-key counting
//!    sinks, checked against the diffcheck per-key oracle, and
//! 2. through the public [`skewjoin::run_join`] API, where the degradation
//!    ladder (a GPU join's fallback to its CPU twin) may engage, checked
//!    against the reference total and order-independent checksum.
//!
//! The contract under test: every cell ends in a *diffcheck-correct result*
//! or a *typed [`JoinError`]* — never a hang (a watchdog converts those into
//! [`CellOutcome::Hang`]), never an escaped panic, never a wrong answer.
//!
//! Without the `fault-injection` feature every site is compiled to a no-op,
//! so the same matrix degenerates to a plain correctness sweep; callers can
//! check [`faults::ENABLED`] to report that.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use skewjoin::common::faults::{self, Schedule};
use skewjoin::common::sink::tuple_mix;
use skewjoin::common::{JoinError, Key, Payload, Relation, SinkSpec};
use skewjoin::cpu::{SpillConfig, MIN_SPILL_BUDGET};
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin::{run_join, Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig};

use crate::{
    cpu_config, first_divergence, gpu_config, merge_key_counts, reference_key_counts,
    try_run_with_key_counts, CaseSpec, KeyCountSink,
};

/// Every failpoint site the pipeline exposes, one per fault class the
/// recovery machinery must absorb. The `spill.*` sites run their cells
/// through the out-of-core grace-hash path (CPU-only: GPU algorithms are
/// mapped to their CPU counterpart, mirroring the service's spill rung)
/// under a per-cell scratch directory that must be empty afterwards.
pub const FAILPOINT_SITES: [&str; 12] = [
    "sched.task.run",
    "sched.steal",
    "cpu.partition.scatter",
    "cpu.partition.overflow",
    "cpu.skew.detect",
    "gpu.memory.alloc",
    "gpu.launch",
    "gpu.shared_alloc",
    "spill.write",
    "spill.read",
    "spill.manifest",
    "spill.remove",
];

/// Sites whose hit sequence depends on thread timing. Whether a worker
/// steals at all depends on how the workers race through their queues, so
/// a cell armed at `sched.steal` can fire on one run and not on the next
/// at the same seed. Such cells are marked in the report; their violation
/// rule is the same as every other cell's.
pub const TIMING_DEPENDENT_SITES: [&str; 1] = ["sched.steal"];

/// The deterministic schedule a matrix cell arms `site` with. Seed-dependent
/// so different seeds exercise different firing positions. The same
/// `(site, seed)` always arms the same schedule, and reproduces the same
/// outcome wherever the site's hit sequence is fixed by the workload; at
/// the [`TIMING_DEPENDENT_SITES`] it depends on thread timing as well.
/// With several join threads the worker a typed error names is whichever
/// reached the firing hit, so only a one-thread cell repeats its error
/// text exactly.
pub fn schedule_for(site: &str, seed: u64) -> Schedule {
    match site {
        // Task bodies run hundreds of times per join: a small per-hit
        // probability kills a varying subset of workers (including none,
        // which doubles as a clean-path cell).
        "sched.task.run" => Schedule::Probability(0.02),
        // Steals are rarer; fire more aggressively so some actually land.
        "sched.steal" => Schedule::Probability(0.10),
        // Scatter runs once per segment per side: fire exactly once, at a
        // seed-chosen position.
        "cpu.partition.scatter" => Schedule::OnHit(1 + seed % 4),
        // Forced overflows must be absorbed by recursive splitting (or end
        // in a typed PartitionOverflow once the split budget is spent).
        "cpu.partition.overflow" => Schedule::Probability(0.20),
        // Mis-detection drops the hottest key every time: the undetected
        // heavy key must still join correctly through the normal path.
        "cpu.skew.detect" => Schedule::Always,
        // Single modeled OOM or launch failure: the CPU twin must absorb it.
        "gpu.memory.alloc" => Schedule::OnHit(1 + seed % 3),
        "gpu.launch" => Schedule::OnHit(1 + seed % 5),
        // Per-block shared allocations fail persistently: the GPU join can
        // only complete as its CPU twin.
        "gpu.shared_alloc" => Schedule::Probability(0.05),
        // Disk faults: writes/reads run once per partition file, so a small
        // probability lands mid-spill at varying positions; a manifest has
        // only a handful of store/load points, so fire exactly once.
        "spill.write" | "spill.read" => Schedule::Probability(0.05),
        "spill.manifest" => Schedule::OnHit(1 + seed % 2),
        // Unlink failures are absorbed (retried by the scratch guard), so
        // firing persistently is the strongest leak test.
        "spill.remove" => Schedule::Always,
        _ => Schedule::OnHit(1),
    }
}

/// How one matrix cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Both runs produced diffcheck-correct results; `degradations` counts
    /// the recovery rungs the public-API run recorded in its trace.
    Correct {
        /// Entries in `Trace::degradations` from the public-API run.
        degradations: usize,
    },
    /// At least one run failed with a typed [`JoinError`] (acceptable); no
    /// run produced a wrong answer.
    TypedError(String),
    /// A run completed but disagreed with the reference — the one outcome
    /// fault injection must never cause.
    WrongAnswer(String),
    /// A panic escaped the public API instead of being absorbed by a
    /// recovery boundary.
    EscapedPanic(String),
    /// A spill cell left files behind in its scratch directory — temp-file
    /// hygiene must survive injected disk faults.
    LeakedScratch(String),
    /// The cell exceeded the watchdog deadline.
    Hang,
}

impl CellOutcome {
    /// `true` for the outcomes the robustness contract forbids.
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            CellOutcome::WrongAnswer(_)
                | CellOutcome::EscapedPanic(_)
                | CellOutcome::LeakedScratch(_)
                | CellOutcome::Hang
        )
    }
}

impl std::fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellOutcome::Correct { degradations: 0 } => write!(f, "correct"),
            CellOutcome::Correct { degradations } => {
                write!(f, "correct (after {degradations} degradation(s))")
            }
            CellOutcome::TypedError(e) => write!(f, "typed error: {e}"),
            CellOutcome::WrongAnswer(e) => write!(f, "WRONG ANSWER: {e}"),
            CellOutcome::EscapedPanic(e) => write!(f, "ESCAPED PANIC: {e}"),
            CellOutcome::LeakedScratch(e) => write!(f, "LEAKED SCRATCH: {e}"),
            CellOutcome::Hang => write!(f, "HANG (watchdog timeout)"),
        }
    }
}

/// One executed cell of the chaos matrix.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Algorithm under test.
    pub algorithm: String,
    /// The armed failpoint site.
    pub site: &'static str,
    /// Seed of both the workload and the failpoint schedule.
    pub seed: u64,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

impl ChaosCell {
    /// Whether the cell's site is one of the [`TIMING_DEPENDENT_SITES`],
    /// so a rerun at the same seed may end differently.
    pub fn timing_dependent(&self) -> bool {
        TIMING_DEPENDENT_SITES.contains(&self.site)
    }
}

impl std::fmt::Display for ChaosCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<10} × {:<22} × seed {:<3} → {}",
            self.algorithm, self.site, self.seed, self.outcome
        )?;
        if self.timing_dependent() {
            write!(f, " [timing-dependent]")?;
        }
        Ok(())
    }
}

/// Matrix dimensions and the per-cell watchdog deadline.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Seeds; each seeds both the workload and the failpoint schedule.
    pub seeds: Vec<u64>,
    /// Failpoint sites to arm (default: all of [`FAILPOINT_SITES`]).
    pub sites: Vec<&'static str>,
    /// Algorithms under test (default: all five).
    pub algorithms: Vec<Algorithm>,
    /// Tuples per table.
    pub size: usize,
    /// Zipf factor (skewed by default so the skew paths are live).
    pub zipf: f64,
    /// CPU worker threads.
    pub threads: usize,
    /// Watchdog deadline per cell; a cell still running past it is a hang.
    pub timeout: Duration,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            seeds: vec![11, 23, 47],
            sites: FAILPOINT_SITES.to_vec(),
            algorithms: Algorithm::ALL.to_vec(),
            size: 2048,
            zipf: 0.9,
            threads: 4,
            timeout: Duration::from_secs(30),
        }
    }
}

/// The reference checksum of `r ⋈ s`: the same order-independent
/// `tuple_mix` sum every sink reports, computed by nested loops over the
/// per-key groups — sharing no code with any join under test.
pub fn reference_checksum(r: &Relation, s: &Relation) -> u64 {
    let mut s_by_key: BTreeMap<Key, Vec<Payload>> = BTreeMap::new();
    for t in s.tuples() {
        s_by_key.entry(t.key).or_default().push(t.payload);
    }
    let mut sum = 0u64;
    for t in r.tuples() {
        if let Some(payloads) = s_by_key.get(&t.key) {
            for &sp in payloads {
                sum = sum.wrapping_add(tuple_mix(t.key, t.payload, sp));
            }
        }
    }
    sum
}

/// Installs a process-wide panic hook that suppresses the backtrace spam of
/// *expected* panics — injected faults (recognized by
/// [`faults::PANIC_PREFIX`]) and the simulator's modeled shared-memory
/// exhaustion — while delegating everything else to the previous hook.
/// Idempotent.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            let expected = msg.is_some_and(|m| {
                m.starts_with(faults::PANIC_PREFIX) || m.contains("shared memory exhausted")
            });
            if !expected {
                previous(info);
            }
        }));
    });
}

fn classify(
    direct: Result<Option<String>, JoinError>,
    api: Result<(Option<String>, usize), JoinError>,
) -> CellOutcome {
    // Wrong answers dominate everything; a typed error from either run is
    // acceptable only if the *other* run did not also produce a wrong one.
    if let Ok(Some(diff)) = &direct {
        return CellOutcome::WrongAnswer(format!("direct run: {diff}"));
    }
    if let Ok((Some(diff), _)) = &api {
        return CellOutcome::WrongAnswer(format!("run_join: {diff}"));
    }
    match (direct, api) {
        (Ok(None), Ok((None, degradations))) => CellOutcome::Correct { degradations },
        (Err(e), Ok((_, 0))) => CellOutcome::TypedError(format!("direct run: {e}")),
        (Err(e), Ok((_, deg))) => CellOutcome::TypedError(format!(
            "direct run: {e}; run_join recovered correctly after {deg} degradation(s)"
        )),
        (Ok(_), Err(e)) => CellOutcome::TypedError(format!("run_join: {e}")),
        (Err(d), Err(a)) => CellOutcome::TypedError(format!("direct run: {d}; run_join: {a}")),
        // Unreachable: the wrong-answer arms returned above.
        _ => CellOutcome::WrongAnswer("inconsistent classification".to_string()),
    }
}

fn cell_body(
    algorithm: Algorithm,
    site: &'static str,
    seed: u64,
    cfg: &MatrixConfig,
) -> CellOutcome {
    // Spill faults only fire on the out-of-core path, which is CPU-only:
    // route GPU cells through the CPU counterpart the service's spill rung
    // would pick, and run the CPU algorithm under a tight spill budget so
    // every cell actually touches the disk surface under test.
    let spill_cell = site.starts_with("spill.");
    let algorithm = if spill_cell {
        match algorithm {
            Algorithm::Gpu(GpuAlgorithm::Gbase) => Algorithm::Cpu(CpuAlgorithm::Cbase),
            Algorithm::Gpu(GpuAlgorithm::Gsh) => Algorithm::Cpu(CpuAlgorithm::Csh),
            cpu => cpu,
        }
    } else {
        algorithm
    };
    let scratch = spill_cell.then(|| {
        let dir = std::env::temp_dir().join(format!(
            "skewjoin-chaos-{}-{seed}-{}",
            site.replace('.', "-"),
            std::process::id()
        ));
        let _ = std::fs::create_dir_all(&dir);
        dir
    });
    let spill_config = |scratch: &std::path::Path| SpillConfig {
        scratch_dir: Some(scratch.to_path_buf()),
        ..SpillConfig::with_budget(MIN_SPILL_BUDGET)
    };

    let spec = CaseSpec {
        seed,
        size: cfg.size,
        zipf: cfg.zipf,
        threads: cfg.threads,
    };
    let w = PaperWorkload::generate(WorkloadSpec::paper(spec.size, spec.zipf, spec.seed));
    let expected = reference_key_counts(&w.r, &w.s);
    let expected_total: u64 = expected.values().sum();
    let expected_checksum = reference_checksum(&w.r, &w.s);

    // Run 1: the algorithm's direct entry point, per-key oracle. Spill
    // cells run the requested CPU algorithm under the spill budget.
    faults::reset(seed);
    faults::arm(site, schedule_for(site, seed));
    let counts = match (&scratch, algorithm) {
        (Some(scratch), Algorithm::Cpu(cpu_algorithm)) => {
            let mut cpu = cpu_config(spec);
            cpu.spill = Some(spill_config(scratch));
            cpu_algorithm
                .run(&w.r, &w.s, &cpu, |_| KeyCountSink::new())
                .map(|out| merge_key_counts(&out.sinks))
        }
        _ => try_run_with_key_counts(algorithm, &w.r, &w.s, spec).map(|(counts, _)| counts),
    };
    let direct = counts.map(|counts| {
        first_divergence(&expected, &counts)
            .map(|m| format!("key {}: expected {}, got {}", m.key, m.expected, m.actual))
    });

    // Run 2: the public API, where the device fallback may engage.
    // Re-arm so the schedule's hit counter restarts from zero.
    faults::reset(seed);
    faults::arm(site, schedule_for(site, seed));
    let mut join_cfg = JoinConfig {
        cpu: cpu_config(spec),
        gpu: gpu_config(spec),
    };
    if let Some(scratch) = &scratch {
        join_cfg.cpu.spill = Some(spill_config(scratch));
    }
    let api = run_join(algorithm, &w.r, &w.s, &join_cfg, SinkSpec::Count).map(|stats| {
        let diff = if stats.result_count != expected_total {
            Some(format!(
                "result count: expected {expected_total}, got {}",
                stats.result_count
            ))
        } else if stats.checksum != expected_checksum {
            Some(format!(
                "checksum: expected {expected_checksum:#x}, got {:#x}",
                stats.checksum
            ))
        } else {
            None
        };
        (diff, stats.trace.degradations.len())
    });

    faults::reset(0);
    let outcome = classify(direct, api);

    // Spill cells must leave their scratch directory empty no matter how
    // the runs ended — leak detection outranks every non-violation outcome.
    if let Some(scratch) = &scratch {
        let leaked: Vec<String> = std::fs::read_dir(scratch)
            .map(|entries| {
                entries
                    .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
                    .collect()
            })
            .unwrap_or_default();
        let _ = std::fs::remove_dir_all(scratch);
        if !leaked.is_empty() && !outcome.is_violation() {
            return CellOutcome::LeakedScratch(format!(
                "{} entr{} left in {}: {} (outcome was: {outcome})",
                leaked.len(),
                if leaked.len() == 1 { "y" } else { "ies" },
                scratch.display(),
                leaked.join(", ")
            ));
        }
    }
    outcome
}

/// Runs one cell under a watchdog: arms `site`, runs `algorithm` through
/// both the direct and public-API paths, and classifies the result. A cell
/// that outlives `cfg.timeout` is reported as [`CellOutcome::Hang`] (its
/// thread is abandoned).
pub fn run_cell(
    algorithm: Algorithm,
    site: &'static str,
    seed: u64,
    cfg: &MatrixConfig,
) -> CellOutcome {
    let (tx, rx) = mpsc::channel();
    let timeout = cfg.timeout;
    let cfg = cfg.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("chaos-{site}-{seed}"))
        .spawn(move || {
            let outcome =
                match catch_unwind(AssertUnwindSafe(|| cell_body(algorithm, site, seed, &cfg))) {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        CellOutcome::EscapedPanic(msg)
                    }
                };
            let _ = tx.send(outcome);
        });
    match spawned {
        Ok(_) => rx.recv_timeout(timeout).unwrap_or(CellOutcome::Hang),
        Err(e) => CellOutcome::EscapedPanic(format!("spawn failed: {e}")),
    }
}

/// The full chaos matrix: every seed × failpoint × algorithm cell, invoking
/// `progress` as each cell completes. Returns all cells; filter with
/// [`CellOutcome::is_violation`] for the verdict.
pub fn run_chaos_matrix(
    cfg: &MatrixConfig,
    mut progress: impl FnMut(&ChaosCell),
) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for &seed in &cfg.seeds {
        for &site in &cfg.sites {
            for &algorithm in &cfg.algorithms {
                let outcome = run_cell(algorithm, site, seed, cfg);
                let cell = ChaosCell {
                    algorithm: algorithm.name().to_string(),
                    site,
                    seed,
                    outcome,
                };
                progress(&cell);
                cells.push(cell);
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_checksum_matches_sink_checksum() {
        use skewjoin::common::{CountingSink, OutputSink};
        let w = PaperWorkload::generate(WorkloadSpec::paper(512, 0.9, 3));
        let mut sink = CountingSink::new();
        // Nested-loop join, emitted through the sink.
        for rt in w.r.tuples() {
            for st in w.s.tuples() {
                if rt.key == st.key {
                    sink.emit(rt.key, rt.payload, st.payload);
                }
            }
        }
        assert_eq!(sink.checksum(), reference_checksum(&w.r, &w.s));
        let expected: u64 = reference_key_counts(&w.r, &w.s).values().sum();
        assert_eq!(sink.count(), expected);
    }

    #[test]
    fn schedules_are_seed_dependent_but_defined_for_all_sites() {
        for site in FAILPOINT_SITES {
            // Must not panic, and must be deterministic per (site, seed).
            assert_eq!(schedule_for(site, 7), schedule_for(site, 7));
        }
        assert_ne!(
            schedule_for("cpu.partition.scatter", 0),
            schedule_for("cpu.partition.scatter", 1)
        );
    }

    // Fault-armed cells are exercised in `tests/fault_recovery.rs` (its own
    // process, serialized): the failpoint registry is process-global, and
    // arming it here would race the other lib tests' joins.
    #[cfg(not(feature = "fault-injection"))]
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn cell_runs_clean_without_the_feature() {
        assert!(!faults::ENABLED);
        let cfg = MatrixConfig {
            seeds: vec![5],
            size: 512,
            ..MatrixConfig::default()
        };
        let outcome = run_cell(Algorithm::ALL[0], FAILPOINT_SITES[0], 5, &cfg);
        assert_eq!(outcome, CellOutcome::Correct { degradations: 0 });
    }

    /// Spill cells run their CPU algorithm out of core (GPU algorithms
    /// mapped to their CPU counterpart) and must come back correct with an empty
    /// scratch directory even without fault injection.
    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn spill_cells_run_clean_and_leak_free_without_the_feature() {
        let cfg = MatrixConfig {
            seeds: vec![5],
            size: 512,
            ..MatrixConfig::default()
        };
        for algorithm in [Algorithm::ALL[0], Algorithm::ALL[3]] {
            let outcome = run_cell(algorithm, "spill.write", 5, &cfg);
            assert!(
                matches!(outcome, CellOutcome::Correct { .. }),
                "{} x spill.write: {outcome}",
                algorithm.name()
            );
        }
    }
}
