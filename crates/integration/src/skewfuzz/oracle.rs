//! Case execution and the three oracle layers.
//!
//! Every execution runs on a named watchdog thread with a
//! `catch_unwind` barrier, so the harness classifies each run as one of:
//! completed, typed error (accepted), escaped panic (violation), or hang
//! (violation). Completed runs then pass through the differential layer
//! (per-key counts + checksum against ground truth), the trace-invariant
//! layer (phase counters must balance), and — when the case carries one —
//! a metamorphic identity checked against a second run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use skewjoin::common::hash::mix32;
use skewjoin::common::trace::counter;
use skewjoin::common::{CancelToken, JoinError, Key, Relation, Trace};
use skewjoin::datagen::Rng;
use skewjoin::gpu::{gbase_join, gsh_join};
use skewjoin::{Algorithm, GpuAlgorithm};

use crate::chaos::reference_checksum;
use crate::{
    first_divergence, localize_phase, merge_key_counts, reference_key_counts, KeyCountSink,
};

use super::{relation_of, FuzzConfig, JoinCase, Oracle};

/// Everything one completed execution reports, trimmed to what the oracle
/// layers compare.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// Per-key result counts (merged across worker sinks).
    pub counts: BTreeMap<Key, u64>,
    /// Total results the algorithm reported.
    pub result_count: u64,
    /// Order-independent checksum the algorithm reported.
    pub checksum: u64,
    /// Results routed through the dedicated skew path.
    pub skew_path_results: u64,
    /// Keys the algorithm classified as skewed.
    pub skewed_keys_detected: usize,
    /// The per-phase trace.
    pub trace: Trace,
}

/// Runs one algorithm on materialized relations with the case's fuzzed
/// configuration. No watchdog — callers wrap this in [`execute`], which
/// passes a live `cancel` token it can trip if the run outlives its
/// timeout (so an abandoned run winds down instead of burning CPU).
pub fn run_algorithm(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &FuzzConfig,
    cancel: &CancelToken,
) -> Result<CaseRun, JoinError> {
    let make = |_slot: usize| KeyCountSink::new();
    let (stats, sinks) = match algorithm {
        Algorithm::Cpu(algo) => {
            let mut cpu = cfg.to_cpu_config();
            cpu.cancel = cancel.clone();
            // A spill budget runs the same algorithm out of core, so the
            // knob puts the disk path under every oracle.
            let out = algo.run(r, s, &cpu, make)?;
            (out.stats, out.sinks)
        }
        Algorithm::Gpu(algo) => {
            let gpu = cfg.to_gpu_config();
            let out = match algo {
                GpuAlgorithm::Gbase => gbase_join(r, s, &gpu, make),
                GpuAlgorithm::Gsh => gsh_join(r, s, &gpu, make),
            }?;
            (out.stats, out.sinks)
        }
    };
    Ok(CaseRun {
        counts: merge_key_counts(&sinks),
        result_count: stats.result_count,
        checksum: stats.checksum,
        skew_path_results: stats.skew_path_results,
        skewed_keys_detected: stats.skewed_keys_detected,
        trace: stats.trace,
    })
}

/// How one watchdog-guarded execution ended.
#[derive(Debug)]
pub enum ExecOutcome {
    /// The join completed.
    Completed(Box<CaseRun>),
    /// The join refused with a typed error — an accepted outcome.
    Typed(JoinError),
    /// A panic escaped the join — always a violation.
    Panicked(String),
    /// The watchdog timed out — always a violation. (The worker thread is
    /// abandoned, but its cancel token is tripped so it drains out instead
    /// of burning CPU under later cases.)
    Hung,
}

/// Runs one execution on a watchdog thread.
pub fn execute(
    algorithm: Algorithm,
    r_pairs: Vec<(u32, u32)>,
    s_pairs: Vec<(u32, u32)>,
    cfg: FuzzConfig,
    timeout: Duration,
) -> ExecOutcome {
    let (tx, rx) = mpsc::channel();
    let cancel = CancelToken::new();
    let cancel_worker = cancel.clone();
    let builder = std::thread::Builder::new().name(format!("skewfuzz-{}", algorithm.name()));
    let handle = builder.spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let r = relation_of(&r_pairs);
            let s = relation_of(&s_pairs);
            run_algorithm(algorithm, &r, &s, &cfg, &cancel_worker)
        }));
        let _ = tx.send(match result {
            Ok(Ok(run)) => ExecOutcome::Completed(Box::new(run)),
            Ok(Err(e)) => ExecOutcome::Typed(e),
            Err(payload) => ExecOutcome::Panicked(panic_message(payload.as_ref())),
        });
    });
    match handle {
        Ok(_join_handle) => rx.recv_timeout(timeout).unwrap_or_else(|_| {
            // Without this, one slow case leaves a thread grinding through
            // its probe phase for minutes, stealing CPU from every later
            // case — on a loaded machine that compounds into a cascade of
            // spurious timeouts.
            cancel.cancel();
            ExecOutcome::Hung
        }),
        Err(e) => ExecOutcome::Panicked(format!("spawn failed: {e}")),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Layer 1 — the differential oracle: per-key counts against ground truth,
/// the reported total against the count sum, and the reported checksum
/// against an independently computed one.
pub fn differential(label: &str, run: &CaseRun, r: &Relation, s: &Relation) -> Option<String> {
    let expected = reference_key_counts(r, s);
    if let Some(m) = first_divergence(&expected, &run.counts) {
        return Some(format!(
            "{label}: key {} expected {} results, got {} (suspected phase: {})",
            m.key,
            m.expected,
            m.actual,
            localize_phase(&run.trace, m.key)
        ));
    }
    let summed: u64 = run.counts.values().sum();
    if summed != run.result_count {
        return Some(format!(
            "{label}: stats.result_count {} disagrees with the sinks' {summed}",
            run.result_count
        ));
    }
    let want = reference_checksum(r, s);
    if want != run.checksum {
        return Some(format!(
            "{label}: checksum {:#018x} != reference {want:#018x} (counts all agree — \
             payloads were swapped or misattributed)",
            run.checksum
        ));
    }
    None
}

/// Layer 3 — internal trace invariants. These hold for *every* algorithm
/// by construction, so any breach means a phase lost, invented, or
/// misattributed tuples even if the final answer happened to be right.
pub fn trace_invariants(run: &CaseRun) -> Vec<String> {
    let mut violations = Vec::new();
    // No phase that reports both sides of a tuple flow may lose or invent
    // tuples. (Phases that legitimately filter report different counters.)
    for phase in &run.trace.phases {
        if let (Some(i), Some(o)) = (
            phase.get(counter::TUPLES_IN),
            phase.get(counter::TUPLES_OUT),
        ) {
            if i != o {
                violations.push(format!(
                    "phase {}: tuples_in {i} != tuples_out {o}",
                    phase.name
                ));
            }
        }
    }
    if run.skew_path_results > run.result_count {
        violations.push(format!(
            "skew_path_results {} exceeds result_count {}",
            run.skew_path_results, run.result_count
        ));
    }
    // The detected-key ledger must agree with the summary counter and the
    // per-phase SKEWED_KEYS counters.
    if run.trace.skewed_keys.len() != run.skewed_keys_detected {
        violations.push(format!(
            "trace records {} skewed keys but stats report {}",
            run.trace.skewed_keys.len(),
            run.skewed_keys_detected
        ));
    }
    let counter_sum: u64 = run
        .trace
        .phases
        .iter()
        .filter_map(|p| p.get(counter::SKEWED_KEYS))
        .sum();
    let has_counter = run
        .trace
        .phases
        .iter()
        .any(|p| p.get(counter::SKEWED_KEYS).is_some());
    if has_counter && counter_sum != run.skewed_keys_detected as u64 {
        violations.push(format!(
            "phase skewed_keys counters sum to {counter_sum} but stats report {}",
            run.skewed_keys_detected
        ));
    }
    // RESULTS reconciliation: the per-phase counters must add up to the
    // reported total, skew path included.
    let get = |phase: &str| run.trace.get(phase, counter::RESULTS);
    if let Some(n) = get("join") {
        if n != run.result_count {
            violations.push(format!(
                "join phase reports {n} results but stats report {}",
                run.result_count
            ));
        }
    }
    if let Some(n) = get("probe") {
        if n != run.result_count {
            violations.push(format!(
                "probe phase reports {n} results but stats report {}",
                run.result_count
            ));
        }
    }
    if let Some(nm) = get("nm_join") {
        let skew = get("skew_join").unwrap_or(run.skew_path_results);
        if nm + skew != run.result_count {
            violations.push(format!(
                "nm_join {nm} + skew path {skew} != result_count {}",
                run.result_count
            ));
        }
    }
    if let Some(sk) = get("skew_join") {
        if sk != run.skew_path_results {
            violations.push(format!(
                "skew_join phase reports {sk} results but stats report {}",
                run.skew_path_results
            ));
        }
    }
    violations
}

/// In a build without fault injection no worker thread or simulated kernel
/// has any business panicking: a [`JoinError::WorkerPanicked`] is a real
/// panic laundered into the error channel by a `catch_unwind` barrier
/// downstream, and the harness flags it like the panic it is. (Under the
/// `fault-injection` feature the chaos harness arms deliberate worker
/// panics through a process-global registry, so there the typed error is a
/// legitimate outcome.)
fn masked_panic(e: &JoinError) -> bool {
    if cfg!(feature = "fault-injection") {
        return false;
    }
    matches!(e, JoinError::WorkerPanicked { .. })
}

/// The verdict on one join case.
#[derive(Debug)]
pub enum CaseVerdict {
    /// Every layer agreed.
    Pass,
    /// The pipeline refused with a typed error — accepted.
    TypedError(String),
    /// Something broke; the string says what.
    Violation(String),
}

fn variant_rng(case: &JoinCase) -> Rng {
    // Deterministic but case-dependent: shrinking changes the lengths and
    // therefore the permutation, which is fine — the identity must hold
    // for *any* permutation.
    Rng::seed_from_u64(0x005E_ED0F_5EED ^ ((case.r.len() as u64) << 32) ^ (case.s.len() as u64))
}

/// Checks a completed variant run against layers 1 and 3 on its own
/// inputs, then lets the caller compare it to the primary.
fn variant_self_check(
    label: &str,
    run: &CaseRun,
    r_pairs: &[(u32, u32)],
    s_pairs: &[(u32, u32)],
) -> Option<String> {
    let r = relation_of(r_pairs);
    let s = relation_of(s_pairs);
    if let Some(v) = differential(label, run, &r, &s) {
        return Some(v);
    }
    let broken = trace_invariants(run);
    if !broken.is_empty() {
        return Some(format!("{label}: {}", broken.join("; ")));
    }
    None
}

/// Runs a full case through every applicable oracle layer.
pub fn check_join_case(case: &JoinCase, timeout: Duration) -> CaseVerdict {
    let label = case.algorithm.name();
    let primary = match execute(
        case.algorithm,
        case.r.clone(),
        case.s.clone(),
        case.config.clone(),
        timeout,
    ) {
        ExecOutcome::Completed(run) => {
            if case.config.expect_invalid {
                return CaseVerdict::Violation(format!(
                    "{label}: configuration was deliberately invalid but the join \
                     completed — an entry point skipped validation"
                ));
            }
            run
        }
        ExecOutcome::Typed(e) if masked_panic(&e) => {
            return CaseVerdict::Violation(format!(
                "{label}: worker/kernel panic surfaced as a typed error: {e}"
            ))
        }
        ExecOutcome::Typed(e) => return CaseVerdict::TypedError(e.to_string()),
        ExecOutcome::Panicked(msg) => {
            return CaseVerdict::Violation(format!("{label}: escaped panic: {msg}"))
        }
        ExecOutcome::Hung => {
            return CaseVerdict::Violation(format!("{label}: watchdog timeout after {timeout:?}"))
        }
    };

    // Layer 1 + layer 3 on the primary run.
    if let Some(v) = variant_self_check(label, &primary, &case.r, &case.s) {
        return CaseVerdict::Violation(v);
    }

    // Layer 2: the metamorphic identity this case carries.
    let mut rng = variant_rng(case);
    let run_variant = |r: Vec<(u32, u32)>, s: Vec<(u32, u32)>| {
        execute(case.algorithm, r, s, case.config.clone(), timeout)
    };
    match case.oracle {
        Oracle::Diff => {}
        Oracle::Permute => {
            let mut r = case.r.clone();
            let mut s = case.s.clone();
            rng.shuffle(&mut r);
            rng.shuffle(&mut s);
            match run_variant(r.clone(), s.clone()) {
                ExecOutcome::Completed(var) => {
                    if let Some(v) = variant_self_check("permuted", &var, &r, &s) {
                        return CaseVerdict::Violation(v);
                    }
                    if var.counts != primary.counts {
                        return CaseVerdict::Violation(permute_diff(label, &primary, &var));
                    }
                    if var.checksum != primary.checksum {
                        return CaseVerdict::Violation(format!(
                            "{label}: permuting input rows changed the checksum \
                             ({:#018x} -> {:#018x})",
                            primary.checksum, var.checksum
                        ));
                    }
                }
                other => {
                    if let Some(v) = variant_violation(label, "permuted", other) {
                        return CaseVerdict::Violation(v);
                    }
                }
            }
        }
        Oracle::SwapSides => match run_variant(case.s.clone(), case.r.clone()) {
            ExecOutcome::Completed(var) => {
                if let Some(v) = variant_self_check("swapped", &var, &case.s, &case.r) {
                    return CaseVerdict::Violation(v);
                }
                if var.counts != primary.counts {
                    return CaseVerdict::Violation(format!(
                        "{label}: swapping build/probe sides changed per-key counts \
                         (|R⋈S| must equal |S⋈R| key by key): {}",
                        count_diff(&primary.counts, &var.counts)
                    ));
                }
            }
            other => {
                if let Some(v) = variant_violation(label, "swapped", other) {
                    return CaseVerdict::Violation(v);
                }
            }
        },
        Oracle::Bijection => {
            let remap = |pairs: &[(u32, u32)]| {
                pairs
                    .iter()
                    .map(|&(k, p)| (mix32(k), p))
                    .collect::<Vec<_>>()
            };
            let (r, s) = (remap(&case.r), remap(&case.s));
            match run_variant(r.clone(), s.clone()) {
                ExecOutcome::Completed(var) => {
                    if let Some(v) = variant_self_check("remapped", &var, &r, &s) {
                        return CaseVerdict::Violation(v);
                    }
                    let expected: BTreeMap<Key, u64> = primary
                        .counts
                        .iter()
                        .map(|(&k, &v)| (mix32(k), v))
                        .collect();
                    if var.counts != expected {
                        return CaseVerdict::Violation(format!(
                            "{label}: bijectively remapping keys changed the result: {}",
                            count_diff(&expected, &var.counts)
                        ));
                    }
                }
                other => {
                    if let Some(v) = variant_violation(label, "remapped", other) {
                        return CaseVerdict::Violation(v);
                    }
                }
            }
        }
        Oracle::SplitAdditive => {
            let r1: Vec<_> = case.r.iter().step_by(2).copied().collect();
            let r2: Vec<_> = case.r.iter().skip(1).step_by(2).copied().collect();
            let mut halves = Vec::new();
            for (tag, half) in [("first half", r1), ("second half", r2)] {
                match run_variant(half.clone(), case.s.clone()) {
                    ExecOutcome::Completed(var) => {
                        if let Some(v) = variant_self_check(tag, &var, &half, &case.s) {
                            return CaseVerdict::Violation(v);
                        }
                        halves.push(var);
                    }
                    other => {
                        if let Some(v) = variant_violation(label, tag, other) {
                            return CaseVerdict::Violation(v);
                        }
                        return CaseVerdict::Pass; // typed error: cannot compare
                    }
                }
            }
            let mut summed: BTreeMap<Key, u64> = BTreeMap::new();
            for half in &halves {
                for (&k, &v) in &half.counts {
                    *summed.entry(k).or_insert(0) += v;
                }
            }
            if summed != primary.counts {
                return CaseVerdict::Violation(format!(
                    "{label}: splitting R into disjoint halves changed the total: {}",
                    count_diff(&primary.counts, &summed)
                ));
            }
        }
        Oracle::SimdScalar => {
            // Same inputs, SIMD policy flipped: the vector kernels must be
            // bit-for-bit replacements for the scalar ones. Catches lane
            // remainder bugs, masked-store slips, and hash divergence that
            // the differential layer only sees when SIMD happens to be the
            // buggy side.
            let mut cfg = case.config.clone();
            cfg.force_scalar = !cfg.force_scalar;
            let lane = if cfg.force_scalar {
                "forced-scalar"
            } else {
                "auto-simd"
            };
            match execute(case.algorithm, case.r.clone(), case.s.clone(), cfg, timeout) {
                ExecOutcome::Completed(var) => {
                    if let Some(v) = variant_self_check(lane, &var, &case.r, &case.s) {
                        return CaseVerdict::Violation(v);
                    }
                    if var.counts != primary.counts {
                        return CaseVerdict::Violation(format!(
                            "{label}: flipping the SIMD policy ({lane} variant) changed \
                             per-key counts: {}",
                            count_diff(&primary.counts, &var.counts)
                        ));
                    }
                    if var.checksum != primary.checksum {
                        return CaseVerdict::Violation(format!(
                            "{label}: flipping the SIMD policy ({lane} variant) changed \
                             the checksum ({:#018x} -> {:#018x})",
                            primary.checksum, var.checksum
                        ));
                    }
                }
                other => {
                    if let Some(v) = variant_violation(label, lane, other) {
                        return CaseVerdict::Violation(v);
                    }
                }
            }
        }
    }
    CaseVerdict::Pass
}

/// Maps a non-completed variant outcome to a violation message (typed
/// errors are accepted and yield `None`).
fn variant_violation(label: &str, variant: &str, outcome: ExecOutcome) -> Option<String> {
    match outcome {
        ExecOutcome::Typed(e) if masked_panic(&e) => Some(format!(
            "{label}: worker/kernel panic on {variant} variant surfaced as a typed error: {e}"
        )),
        ExecOutcome::Completed(_) | ExecOutcome::Typed(_) => None,
        ExecOutcome::Panicked(msg) => Some(format!(
            "{label}: escaped panic on {variant} variant: {msg}"
        )),
        ExecOutcome::Hung => Some(format!("{label}: watchdog timeout on {variant} variant")),
    }
}

fn permute_diff(label: &str, primary: &CaseRun, var: &CaseRun) -> String {
    format!(
        "{label}: permuting input rows changed per-key counts: {}",
        count_diff(&primary.counts, &var.counts)
    )
}

fn count_diff(expected: &BTreeMap<Key, u64>, actual: &BTreeMap<Key, u64>) -> String {
    match first_divergence(expected, actual) {
        Some(m) => format!("key {} expected {} got {}", m.key, m.expected, m.actual),
        None => "totals differ but every key agrees (impossible)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::datagen::Rng;
    use skewjoin::CpuAlgorithm;

    fn quick(case: &JoinCase) -> CaseVerdict {
        check_join_case(case, Duration::from_secs(60))
    }

    #[test]
    fn empty_and_singleton_cases_pass_every_algorithm() {
        for algorithm in Algorithm::ALL {
            for (r, s) in [
                (vec![], vec![]),
                (vec![(5u32, 0u32)], vec![]),
                (vec![], vec![(5, 0)]),
                (vec![(5, 0)], vec![(5, 1)]),
                (vec![(u32::MAX, 0)], vec![(u32::MAX, 1), (u32::MAX, 2)]),
            ] {
                let case = JoinCase {
                    name: "edge".into(),
                    algorithm,
                    oracle: Oracle::Permute,
                    config: FuzzConfig::default(),
                    r,
                    s,
                };
                if let CaseVerdict::Violation(v) = quick(&case) {
                    panic!("{} on {:?}/{:?}: {v}", algorithm.name(), case.r, case.s);
                }
            }
        }
    }

    #[test]
    fn every_metamorphic_oracle_passes_on_a_mixed_workload() {
        let mut rng = Rng::seed_from_u64(17);
        let pairs = |rng: &mut Rng, n: usize| {
            (0..n)
                .map(|i| (rng.below(40) as u32, i as u32))
                .collect::<Vec<_>>()
        };
        for oracle in [
            Oracle::Diff,
            Oracle::Permute,
            Oracle::SwapSides,
            Oracle::Bijection,
            Oracle::SplitAdditive,
            Oracle::SimdScalar,
        ] {
            for algorithm in Algorithm::ALL {
                let case = JoinCase {
                    name: format!("meta-{}", oracle.name()),
                    algorithm,
                    oracle,
                    config: FuzzConfig::default(),
                    r: pairs(&mut rng, 500),
                    s: pairs(&mut rng, 700),
                };
                if let CaseVerdict::Violation(v) = quick(&case) {
                    panic!("{} under {}: {v}", algorithm.name(), oracle.name());
                }
            }
        }
    }

    #[test]
    fn deliberately_invalid_configs_are_refused_with_typed_errors() {
        let mut config = FuzzConfig {
            expect_invalid: true,
            ..FuzzConfig::default()
        };
        config.max_bucket_bits = 0;
        let case = JoinCase {
            name: "invalid".into(),
            algorithm: Algorithm::Cpu(CpuAlgorithm::Cbase),
            oracle: Oracle::Diff,
            config,
            r: vec![(1, 0)],
            s: vec![(1, 0)],
        };
        match quick(&case) {
            CaseVerdict::TypedError(e) => assert!(e.contains("max_bucket_bits"), "{e}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn trace_invariants_catch_imbalanced_phases() {
        let mut run = CaseRun {
            counts: BTreeMap::new(),
            result_count: 0,
            checksum: 0,
            skew_path_results: 0,
            skewed_keys_detected: 0,
            trace: Trace::new(),
        };
        assert!(trace_invariants(&run).is_empty());
        run.trace.set("partition", counter::TUPLES_IN, 100);
        run.trace.set("partition", counter::TUPLES_OUT, 99);
        let broken = trace_invariants(&run);
        assert_eq!(broken.len(), 1);
        assert!(broken[0].contains("tuples_in 100 != tuples_out 99"));

        run.trace.set("partition", counter::TUPLES_OUT, 100);
        run.trace.set("join", counter::RESULTS, 5);
        let broken = trace_invariants(&run);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].contains("join phase reports 5"));
    }
}
