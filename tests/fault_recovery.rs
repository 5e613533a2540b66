//! Fault recovery at the public API level: injected faults and hostile
//! sinks must surface as typed [`JoinError`]s or recovered (degraded)
//! results — never as hangs or escaped panics.
//!
//! The failpoint registry is process-global, so every test in this binary
//! serializes behind one mutex, and every join runs under a watchdog that
//! converts a hang into a test failure.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use skewjoin::common::faults::{self, Schedule};
use skewjoin::common::{CancelToken, CountingSink};
use skewjoin::prelude::*;

/// Serializes all tests in this binary: armed failpoints are visible to
/// every thread in the process.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Disarms every failpoint when a test body ends, even by panic.
#[cfg(feature = "fault-injection")]
struct DisarmOnDrop;

#[cfg(feature = "fault-injection")]
impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        faults::reset(0);
    }
}

/// Runs `f` on a helper thread and fails the test if it outlives the
/// deadline — the difference between "recovered with an error" and
/// "deadlocked the scheduler".
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("join hung past the watchdog deadline instead of recovering")
}

fn workload(zipf: f64, seed: u64) -> PaperWorkload {
    PaperWorkload::generate(WorkloadSpec::paper(4096, zipf, seed))
}

fn cpu_cfg() -> JoinConfig {
    JoinConfig::from(CpuJoinConfig::with_threads(4))
}

/// A sink that panics after a fixed number of emits — a hostile consumer
/// dying in the middle of result production.
struct ExplodingSink {
    remaining: u64,
}

impl OutputSink for ExplodingSink {
    fn emit(&mut self, _key: Key, _r: Payload, _s: Payload) {
        if self.remaining == 0 {
            panic!("sink exploded mid-emit");
        }
        self.remaining -= 1;
    }

    fn count(&self) -> u64 {
        0
    }

    fn checksum(&self) -> u64 {
        0
    }
}

#[test]
fn panicking_sink_mid_emit_is_worker_panicked_on_every_cpu_algorithm() {
    let _guard = lock();
    let w = workload(0.9, 7);
    for algo in [
        CpuAlgorithm::Cbase,
        CpuAlgorithm::CbaseNpj,
        CpuAlgorithm::Csh,
    ] {
        let (r, s) = (w.r.clone(), w.s.clone());
        let err = with_deadline(60, move || {
            skewjoin::run_join_with(
                Algorithm::Cpu(algo),
                &r,
                &s,
                &cpu_cfg(),
                |_worker: usize| ExplodingSink { remaining: 100 },
            )
            .unwrap_err()
        });
        match err {
            JoinError::WorkerPanicked { phase, .. } => {
                assert!(!phase.is_empty(), "{algo:?}: phase must be named");
            }
            other => panic!("{algo:?}: expected WorkerPanicked, got {other:?}"),
        }
    }
}

/// A sink that only misbehaves on CSH's hot-key fast path: `emit_r_run`
/// panics or cancels the join's token, while plain `emit` counts.
struct HotRunSink {
    inner: CountingSink,
    cancel: Option<CancelToken>,
}

impl OutputSink for HotRunSink {
    fn emit(&mut self, key: Key, r: Payload, s: Payload) {
        self.inner.emit(key, r, s);
    }

    fn emit_r_run(&mut self, key: Key, r_tuples: &[Tuple], s_payload: Payload) {
        match &self.cancel {
            None => panic!("sink exploded mid hot-run emission"),
            Some(token) => {
                token.cancel();
                for r in r_tuples {
                    self.inner.emit(key, r.payload, s_payload);
                }
            }
        }
    }

    fn count(&self) -> u64 {
        self.inner.count()
    }

    fn checksum(&self) -> u64 {
        self.inner.checksum()
    }
}

/// Runs CSH on a heavily skewed workload with [`HotRunSink`]s under the
/// watchdog; `cancel` selects the cancelling sink over the panicking one.
fn csh_with_hot_run_sink(cancel: bool) -> JoinError {
    let w = workload(1.0, 5);
    let token = CancelToken::new();
    let mut cfg = cpu_cfg();
    cfg.cpu.cancel = token.clone();
    with_deadline(60, move || {
        skewjoin::run_join_with(
            Algorithm::Cpu(CpuAlgorithm::Csh),
            &w.r,
            &w.s,
            &cfg,
            |_worker: usize| HotRunSink {
                inner: CountingSink::new(),
                cancel: cancel.then(|| token.clone()),
            },
        )
        .unwrap_err()
    })
}

#[test]
fn sink_panic_during_hot_s_emission_is_worker_panicked_in_partition_s() {
    let _guard = lock();
    match csh_with_hot_run_sink(false) {
        JoinError::WorkerPanicked { phase, .. } => assert_eq!(phase, "partition_s"),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn cancel_during_hot_s_emission_is_cancelled_in_partition_s() {
    let _guard = lock();
    match csh_with_hot_run_sink(true) {
        JoinError::Cancelled { phase } => assert_eq!(phase, "partition_s"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// A sink that only misbehaves on GSH's skew blocks: `emit_s_run` panics,
/// while plain `emit` (the NM join's output) counts.
struct SkewBlockSink(CountingSink);

impl OutputSink for SkewBlockSink {
    fn emit(&mut self, key: Key, r: Payload, s: Payload) {
        self.0.emit(key, r, s);
    }

    fn emit_s_run(&mut self, _key: Key, _r_payload: Payload, _s_tuples: &[Tuple]) {
        panic!("sink exploded mid skew-block emission");
    }

    fn count(&self) -> u64 {
        self.0.count()
    }

    fn checksum(&self) -> u64 {
        self.0.checksum()
    }
}

#[test]
fn sink_panic_during_gsh_skew_block_is_worker_panicked_in_gsh_skew_join() {
    use skewjoin::gpu::{gsh_join, GpuBackendKind, GpuJoinConfig};
    use skewjoin_integration::{gpu_config, CaseSpec};
    let _guard = lock();
    for backend in [GpuBackendKind::Sim, GpuBackendKind::Host] {
        let err = with_deadline(60, move || {
            let w = workload(1.0, 5);
            let spec = CaseSpec {
                seed: 5,
                size: 4096,
                zipf: 1.0,
                threads: 1,
            };
            let cfg = GpuJoinConfig {
                backend,
                ..gpu_config(spec)
            };
            // The workload reaches the skew blocks: a well-behaved sink
            // sees skew-path results there.
            let clean = gsh_join(&w.r, &w.s, &cfg, |_slot: usize| CountingSink::new())
                .expect("clean GSH join");
            assert!(
                clean.stats.skew_path_results > 0,
                "{backend}: no skew block ran"
            );
            gsh_join(&w.r, &w.s, &cfg, |_slot: usize| {
                SkewBlockSink(CountingSink::new())
            })
            .err()
            .expect("a panicking skew-block sink must fail the join")
        });
        match err {
            JoinError::WorkerPanicked { phase, .. } => {
                assert_eq!(phase, "gsh_skew_join", "{backend}");
            }
            other => panic!("{backend}: expected WorkerPanicked, got {other:?}"),
        }
    }
}

/// A chaos cell armed at a site whose hits the workload fixes repeats its
/// outcome at the same seed (with the `fault-injection` feature the scatter
/// failpoint fires; without it the cell is a clean run). One join thread,
/// because with several the worker a typed error names is whichever one
/// reached the firing hit first.
#[test]
fn deterministic_chaos_cell_repeats_its_outcome() {
    use skewjoin_integration::chaos::{
        run_cell, CellOutcome, MatrixConfig, TIMING_DEPENDENT_SITES,
    };
    let _guard = lock();
    let site = "cpu.partition.scatter";
    assert!(!TIMING_DEPENDENT_SITES.contains(&site));
    let cfg = MatrixConfig {
        seeds: vec![23],
        threads: 1,
        ..MatrixConfig::default()
    };
    let mut fired = false;
    for algorithm in [
        Algorithm::Cpu(CpuAlgorithm::Cbase),
        Algorithm::Cpu(CpuAlgorithm::Csh),
    ] {
        let first = run_cell(algorithm, site, 23, &cfg);
        let second = run_cell(algorithm, site, 23, &cfg);
        assert!(!first.is_violation(), "{}: {first}", algorithm.name());
        assert_eq!(first, second, "{} at seed 23", algorithm.name());
        fired |= matches!(first, CellOutcome::TypedError(_));
    }
    assert_eq!(
        fired,
        faults::ENABLED,
        "the scatter failpoint fires iff armed"
    );
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;

    fn clean_truth(w: &PaperWorkload) -> (u64, u64) {
        let stats = skewjoin::run_join(
            Algorithm::Cpu(CpuAlgorithm::Cbase),
            &w.r,
            &w.s,
            &cpu_cfg(),
            SinkSpec::Count,
        )
        .unwrap();
        (stats.result_count, stats.checksum)
    }

    #[test]
    fn task_panic_surfaces_as_worker_panicked_not_a_hang() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 11);
        faults::reset(11);
        faults::arm("sched.task.run", Schedule::OnHit(3));
        let (r, s) = (w.r.clone(), w.s.clone());
        let err = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &r,
                &s,
                &cpu_cfg(),
                SinkSpec::Count,
            )
            .unwrap_err()
        });
        match err {
            JoinError::WorkerPanicked { phase, .. } => {
                assert!(!phase.is_empty());
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn task_panic_mid_volcano_emit_closes_the_channel_instead_of_hanging() {
        // The volcano consumer blocks on a channel fed by worker sinks; a
        // worker dying mid-run must still end with every sender dropped.
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 13);
        faults::reset(13);
        faults::arm("sched.task.run", Schedule::OnHit(5));
        let (r, s) = (w.r.clone(), w.s.clone());
        let err = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &r,
                &s,
                &cpu_cfg(),
                SinkSpec::Volcano { capacity: 8 },
            )
            .unwrap_err()
        });
        assert!(matches!(err, JoinError::WorkerPanicked { .. }), "{err:?}");
    }

    #[test]
    fn steal_panic_poisons_the_queue_or_the_run_stays_correct() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 17);
        let truth = clean_truth(&w);
        faults::reset(17);
        faults::arm("sched.steal", Schedule::OnHit(1));
        let (r, s) = (w.r.clone(), w.s.clone());
        let result = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &r,
                &s,
                &cpu_cfg(),
                SinkSpec::Count,
            )
        });
        // Whether a steal ever happens depends on thread timing; the
        // contract is only "typed error or correct result, promptly".
        match result {
            Ok(stats) => assert_eq!((stats.result_count, stats.checksum), truth),
            Err(JoinError::WorkerPanicked { .. }) => {}
            Err(other) => panic!("expected WorkerPanicked or success, got {other:?}"),
        }
    }

    #[test]
    fn gpu_alloc_fault_engages_the_degradation_ladder() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 19);
        let truth = clean_truth(&w);
        faults::reset(19);
        faults::arm("gpu.memory.alloc", Schedule::OnHit(1));
        let cfg = JoinConfig::default();
        let (r, s) = (w.r.clone(), w.s.clone());
        let stats = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Gpu(GpuAlgorithm::Gbase),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            )
            .unwrap()
        });
        assert_eq!((stats.result_count, stats.checksum), truth);
        // One device OOM sends the join to its CPU twin: one rung, no
        // second GPU attempt.
        assert!(
            matches!(
                stats.trace.degradations.as_slice(),
                [Rung::CpuTwin { gpu, cpu, cause: TwinCause::Device { .. } }]
                    if gpu == "Gbase" && cpu == "Cbase"
            ),
            "degradations: {:?}",
            stats.trace.degradations
        );
    }

    #[test]
    fn persistent_gpu_faults_fall_back_to_the_cpu() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 23);
        let truth = clean_truth(&w);
        faults::reset(23);
        faults::arm("gpu.launch", Schedule::Always);
        let cfg = JoinConfig::default();
        let (r, s) = (w.r.clone(), w.s.clone());
        let stats = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Gpu(GpuAlgorithm::Gsh),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            )
            .unwrap()
        });
        assert_eq!((stats.result_count, stats.checksum), truth);
        assert!(
            matches!(
                stats.trace.degradations.as_slice(),
                [Rung::CpuTwin { gpu, cpu, cause: TwinCause::Device { .. } }]
                    if gpu == "GSH" && cpu == "CSH"
            ),
            "degradations: {:?}",
            stats.trace.degradations
        );
    }

    #[test]
    fn skew_misdetection_degrades_gracefully_to_a_correct_result() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(1.1, 29);
        let truth = clean_truth(&w);
        faults::reset(29);
        faults::arm("cpu.skew.detect", Schedule::Always);
        let (r, s) = (w.r.clone(), w.s.clone());
        let stats = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Csh),
                &r,
                &s,
                &cpu_cfg(),
                SinkSpec::Count,
            )
            .unwrap()
        });
        // The hottest key was hidden from the detector; the normal
        // partition path must still join it correctly.
        assert_eq!((stats.result_count, stats.checksum), truth);
    }

    use skewjoin::cpu::{SpillConfig, MIN_SPILL_BUDGET};
    use std::path::{Path, PathBuf};

    /// A fresh per-test scratch parent; the grace driver creates (and must
    /// remove) its own subdirectory inside it.
    fn scratch_parent(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skewjoin-frt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spilling_cfg(scratch: &Path) -> JoinConfig {
        let mut cfg = cpu_cfg();
        cfg.cpu.spill = Some(SpillConfig {
            scratch_dir: Some(scratch.to_path_buf()),
            ..SpillConfig::with_budget(MIN_SPILL_BUDGET)
        });
        cfg
    }

    /// The hygiene half of the spill fault contract: whatever happened, the
    /// scratch parent is empty afterwards.
    fn assert_no_scratch_leak(parent: &Path) {
        let leaked: Vec<_> = std::fs::read_dir(parent)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        let _ = std::fs::remove_dir_all(parent);
        assert!(leaked.is_empty(), "leaked scratch entries: {leaked:?}");
    }

    #[test]
    fn spill_write_fault_is_a_typed_error_with_no_scratch_leak() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 41);
        let scratch = scratch_parent("write");
        faults::reset(41);
        faults::arm("spill.write", Schedule::OnHit(3));
        let cfg = spilling_cfg(&scratch);
        let (r, s) = (w.r.clone(), w.s.clone());
        let err = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            )
            .unwrap_err()
        });
        assert!(matches!(err, JoinError::SpillFailed(_)), "{err:?}");
        assert_no_scratch_leak(&scratch);
    }

    #[test]
    fn spill_write_fault_at_recursion_depth_one_is_typed_and_leak_free() {
        use skewjoin::common::hash::radix_pass;
        use skewjoin::cpu::spill::spill_hash;
        use skewjoin::cpu::CpuJoinConfig;

        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let scratch = scratch_parent("write-depth1");
        faults::reset(59);
        let bits = 2u32;
        let fanout = 1u64 << bits;
        // Level-0 partition 0 gets 64 keys (a pair that joins in memory);
        // partition 3 gets 8 Ki distinct keys a side, past the 64 KiB
        // budget, so it is re-partitioned from its run files at depth 1.
        let keys_in = |pid: usize, n: usize| -> Vec<u32> {
            (0u32..)
                .filter(|&k| radix_pass(spill_hash(k), 0, bits) == pid)
                .take(n)
                .collect()
        };
        let keys: Vec<u32> = keys_in(0, 64).into_iter().chain(keys_in(3, 8192)).collect();
        let (r, s) = (Relation::from_keys(&keys), Relation::from_keys(&keys));
        let mut cfg = CpuJoinConfig::with_threads(4);
        cfg.spill = Some(SpillConfig {
            scratch_dir: Some(scratch.clone()),
            partition_bits: bits,
            ..SpillConfig::with_budget(MIN_SPILL_BUDGET)
        });
        // Level 0 has written every run before the join phase reloads the
        // first pair, so arming from that pair's sink puts the fault inside
        // partition 3's depth-1 scatter: its R side's file creates are hits
        // 1..=fanout, its first run append on one of the four workers the
        // next one.
        let (err, hits) = with_deadline(60, move || {
            let armed = std::sync::Once::new();
            let err = CpuAlgorithm::CbaseNpj
                .run(&r, &s, &cfg, |_| {
                    armed.call_once(|| faults::arm("spill.write", Schedule::OnHit(fanout + 1)));
                    CountingSink::new()
                })
                .map(|_| ())
                .unwrap_err();
            assert!(armed.is_completed(), "no pair was joined before the fault");
            (err, faults::hits("spill.write"))
        });
        assert!(matches!(err, JoinError::SpillFailed(_)), "{err:?}");
        assert!(
            hits > fanout,
            "fault fired before any depth-1 append: {hits} hits"
        );
        assert_no_scratch_leak(&scratch);
    }

    #[test]
    fn spill_fault_then_retry_completes_with_the_clean_answer() {
        // The service's retry-once rung in miniature: an OnHit fault is
        // consumed by the failing run, so re-running the same join must
        // succeed and match the in-memory ground truth.
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 43);
        let truth = clean_truth(&w);
        let scratch = scratch_parent("retry");
        faults::reset(43);
        faults::arm("spill.read", Schedule::OnHit(2));
        let cfg = spilling_cfg(&scratch);
        let (r, s) = (w.r.clone(), w.s.clone());
        let (first, second) = with_deadline(120, move || {
            let first = skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Csh),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            );
            let second = skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Csh),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            );
            (first, second)
        });
        match first {
            Err(JoinError::SpillFailed(_)) => {}
            other => panic!("expected SpillFailed on the first run, got {other:?}"),
        }
        let stats = second.expect("retry after a consumed fault must succeed");
        assert_eq!((stats.result_count, stats.checksum), truth);
        assert_eq!(stats.algorithm, "Grace(CSH)");
        assert_no_scratch_leak(&scratch);
    }

    #[test]
    fn spill_manifest_fault_is_typed_and_never_partial() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 47);
        let scratch = scratch_parent("manifest");
        faults::reset(47);
        faults::arm("spill.manifest", Schedule::OnHit(1));
        let cfg = spilling_cfg(&scratch);
        let (r, s) = (w.r.clone(), w.s.clone());
        let err = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::CbaseNpj),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            )
            .unwrap_err()
        });
        assert!(matches!(err, JoinError::SpillFailed(_)), "{err:?}");
        assert_no_scratch_leak(&scratch);
    }

    #[test]
    fn persistent_spill_remove_faults_are_absorbed_and_leak_nothing() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 53);
        let truth = clean_truth(&w);
        let scratch = scratch_parent("remove");
        faults::reset(53);
        faults::arm("spill.remove", Schedule::Always);
        let cfg = spilling_cfg(&scratch);
        let (r, s) = (w.r.clone(), w.s.clone());
        let stats = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &r,
                &s,
                &cfg,
                SinkSpec::Count,
            )
            .unwrap()
        });
        assert_eq!((stats.result_count, stats.checksum), truth);
        assert!(
            stats.trace.degradations.iter().any(|d| matches!(
                d,
                Rung::ScratchRemoval {
                    sub_level: false,
                    ..
                }
            )),
            "degradations: {:?}",
            stats.trace.degradations
        );
        // The RAII guard retries the removal without the failpoint in the
        // way, so even a persistent unlink fault leaves nothing behind.
        assert_no_scratch_leak(&scratch);
    }

    #[test]
    fn forced_overflows_are_absorbed_by_recursive_splitting_or_typed() {
        let _guard = lock();
        let _disarm = DisarmOnDrop;
        let w = workload(0.9, 31);
        let truth = clean_truth(&w);
        faults::reset(31);
        faults::arm("cpu.partition.overflow", Schedule::OnHit(2));
        let (r, s) = (w.r.clone(), w.s.clone());
        let result = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Cbase),
                &r,
                &s,
                &cpu_cfg(),
                SinkSpec::Count,
            )
        });
        match result {
            Ok(stats) => assert_eq!((stats.result_count, stats.checksum), truth),
            Err(JoinError::PartitionOverflow(_)) => {}
            Err(other) => panic!("expected success or PartitionOverflow, got {other:?}"),
        }
    }
}

#[cfg(not(feature = "fault-injection"))]
mod disabled {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn armed_failpoints_are_noops_without_the_feature() {
        let _guard = lock();
        assert!(!faults::ENABLED);
        let w = workload(0.9, 37);
        faults::reset(37);
        for site in skewjoin_integration::chaos::FAILPOINT_SITES {
            faults::arm(site, Schedule::Always);
        }
        let stats = with_deadline(60, move || {
            skewjoin::run_join(
                Algorithm::Cpu(CpuAlgorithm::Csh),
                &w.r,
                &w.s,
                &cpu_cfg(),
                SinkSpec::Count,
            )
            .unwrap()
        });
        assert!(stats.result_count > 0);
        assert_eq!(
            faults::hits("sched.task.run"),
            0,
            "no-op sites count no hits"
        );
        faults::reset(0);
    }
}
