//! # skewjoin-integration
//!
//! Workspace-spanning integration tests (the test sources live in the
//! repository-root `tests/` directory) and the **diffcheck** differential
//! join oracle.
//!
//! Diffcheck runs every join algorithm against a trivially-correct
//! per-key-count oracle over a matrix of seeds × sizes × zipf factors,
//! comparing *per-key* result counts rather than just totals. On the first
//! divergence it reports the smallest diverging key, the radix partition
//! that key lands in, a phase suspected by a heuristic driven by the
//! per-phase [`Trace`] counters, and the algorithm's trace rendered next to
//! the reference expectation — enough to point a debugging session at the
//! right phase of the right algorithm without a bisect.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
pub mod service_chaos;
pub mod skewfuzz;

use std::collections::BTreeMap;

pub use skewjoin::common::sink::{merge_key_counts, KeyCountSink};
use skewjoin::common::trace::counter;
use skewjoin::common::{JoinError, Key, Relation, Trace};
use skewjoin::cpu::CpuJoinConfig;
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin::gpu::{gbase_join, gsh_join, GpuJoinConfig};
pub use skewjoin::Algorithm;
use skewjoin::GpuAlgorithm;

/// The ground truth per-key result counts of an inner join on `key`:
/// `|R ⋈ S|ₖ = count_R(k) · count_S(k)`. Independent of every hash-join
/// code path under test, so it cannot share their bugs.
pub fn reference_key_counts(r: &Relation, s: &Relation) -> BTreeMap<Key, u64> {
    let mut r_counts: BTreeMap<Key, u64> = BTreeMap::new();
    for t in r.tuples() {
        *r_counts.entry(t.key).or_insert(0) += 1;
    }
    let mut s_counts: BTreeMap<Key, u64> = BTreeMap::new();
    for t in s.tuples() {
        *s_counts.entry(t.key).or_insert(0) += 1;
    }
    r_counts
        .into_iter()
        .filter_map(|(k, rc)| s_counts.get(&k).map(|&sc| (k, rc * sc)))
        .collect()
}

/// One mismatched key; the oracle reports the smallest such key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMismatch {
    /// The diverging join key.
    pub key: Key,
    /// Results the reference expects for this key.
    pub expected: u64,
    /// Results the algorithm under test produced for this key.
    pub actual: u64,
}

/// Compares two per-key count maps and returns the smallest diverging key.
pub fn first_divergence(
    expected: &BTreeMap<Key, u64>,
    actual: &BTreeMap<Key, u64>,
) -> Option<KeyMismatch> {
    let mut keys: Vec<Key> = expected.keys().chain(actual.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let e = expected.get(&key).copied().unwrap_or(0);
        let a = actual.get(&key).copied().unwrap_or(0);
        if e != a {
            return Some(KeyMismatch {
                key,
                expected: e,
                actual: a,
            });
        }
    }
    None
}

/// Phase localization heuristic: given the algorithm's trace and the
/// diverging key, name the phase most likely at fault.
///
/// * A partition-style phase whose `tuples_out` ≠ `tuples_in` lost or
///   duplicated tuples — blame it directly.
/// * Otherwise, if the diverging key was *detected as skewed*, the skew
///   path handled it: blame the skew phase (`skew_join` on the GPU, the
///   early-emitting `partition_s` phase in CSH).
/// * Otherwise blame the main join/probe phase.
pub fn localize_phase(trace: &Trace, key: Key) -> String {
    for phase in &trace.phases {
        if let (Some(i), Some(o)) = (
            phase.get(counter::TUPLES_IN),
            phase.get(counter::TUPLES_OUT),
        ) {
            if i != o {
                return phase.name.clone();
            }
        }
    }
    if trace.skew_frequency(key).is_some() {
        for candidate in ["skew_join", "partition_s"] {
            if trace.find_phase(candidate).is_some() {
                return candidate.to_string();
            }
        }
    }
    for candidate in ["nm_join", "join", "probe"] {
        if trace.find_phase(candidate).is_some() {
            return candidate.to_string();
        }
    }
    trace
        .phases
        .last()
        .map(|p| p.name.clone())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A minimal reference-expectation trace built from ground truth, rendered
/// next to the algorithm's actual trace in divergence reports.
pub fn expectation_trace(r: &Relation, s: &Relation, expected_total: u64) -> Trace {
    let mut t = Trace::new();
    t.set("partition", counter::TUPLES_IN, (r.len() + s.len()) as u64);
    t.set("partition", counter::TUPLES_OUT, (r.len() + s.len()) as u64);
    t.set("join", counter::RESULTS, expected_total);
    t
}

/// One cell of the diffcheck matrix.
#[derive(Debug, Clone, Copy)]
pub struct CaseSpec {
    /// RNG seed of the workload.
    pub seed: u64,
    /// Tuples per table.
    pub size: usize,
    /// Zipf factor.
    pub zipf: f64,
    /// Worker threads for the CPU joins.
    pub threads: usize,
}

/// A localized divergence found by the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Algorithm that diverged.
    pub algorithm: String,
    /// Workload seed of the cell it diverged on.
    pub seed: u64,
    /// Tuples per table of the cell.
    pub size: usize,
    /// Zipf factor of the cell.
    pub zipf: f64,
    /// The smallest diverging key.
    pub mismatch: KeyMismatch,
    /// Radix partition (under the cell's CPU config) the key lands in.
    pub partition: usize,
    /// The phase the localization heuristic blames.
    pub phase: String,
    /// The algorithm trace rendered next to the reference expectation.
    pub report: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "DIVERGENCE: {} @ seed={} size={} zipf={}",
            self.algorithm, self.seed, self.size, self.zipf
        )?;
        writeln!(
            f,
            "  key {} (partition {}): expected {} results, got {}",
            self.mismatch.key, self.partition, self.mismatch.expected, self.mismatch.actual
        )?;
        writeln!(f, "  suspected phase: {}", self.phase)?;
        write!(f, "{}", self.report)
    }
}

/// The CPU configuration a matrix cell runs under.
pub fn cpu_config(spec: CaseSpec) -> CpuJoinConfig {
    CpuJoinConfig::with_threads(spec.threads)
}

/// The GPU configuration a matrix cell runs under. Diffcheck workloads are
/// far smaller than the paper's 32 M tuples, so the shared-memory table
/// capacity is scaled down (and the detector's sample rate scaled up) to
/// make partitions "large" and exercise the GSH skew path — otherwise the
/// skew machinery would be dead code at oracle scale.
pub fn gpu_config(spec: CaseSpec) -> GpuJoinConfig {
    let mut cfg = GpuJoinConfig {
        table_capacity: Some((spec.size / 8).clamp(128, 1 << 14)),
        ..GpuJoinConfig::default()
    };
    if spec.size < 100_000 {
        cfg.skew.sample_rate = 0.1;
    }
    cfg
}

/// Fallible sibling of [`run_with_key_counts`]: any typed [`JoinError`]
/// from the join (injected faults, resource exhaustion, …) is returned
/// rather than unwrapped, so the chaos harness can classify it.
pub fn try_run_with_key_counts(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    spec: CaseSpec,
) -> Result<(BTreeMap<Key, u64>, Trace), JoinError> {
    let make = |_slot: usize| KeyCountSink::new();
    match algorithm {
        Algorithm::Cpu(algo) => {
            let outcome = algo.run(r, s, &cpu_config(spec), make)?;
            Ok((merge_key_counts(&outcome.sinks), outcome.stats.trace))
        }
        Algorithm::Gpu(algo) => {
            let cfg = gpu_config(spec);
            let outcome = match algo {
                GpuAlgorithm::Gbase => gbase_join(r, s, &cfg, make),
                GpuAlgorithm::Gsh => gsh_join(r, s, &cfg, make),
            }?;
            Ok((merge_key_counts(&outcome.sinks), outcome.stats.trace))
        }
    }
}

/// Runs one algorithm on one workload with per-key counting sinks and
/// returns `(per-key counts, trace)`.
pub fn run_with_key_counts(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    spec: CaseSpec,
) -> (BTreeMap<Key, u64>, Trace) {
    try_run_with_key_counts(algorithm, r, s, spec).expect("join failed")
}

/// Diffs already-computed per-key counts against the reference and builds
/// the localized report. Exposed separately from [`check_case`] so tests
/// can feed artificially corrupted counts through the same localization
/// path as the real oracle.
pub fn diff_counts(
    algorithm: &str,
    spec: CaseSpec,
    r: &Relation,
    s: &Relation,
    actual: &BTreeMap<Key, u64>,
    trace: &Trace,
) -> Option<Divergence> {
    let expected = reference_key_counts(r, s);
    let mismatch = first_divergence(&expected, actual)?;
    let expected_total: u64 = expected.values().sum();
    let reference = expectation_trace(r, s, expected_total);
    Some(Divergence {
        algorithm: algorithm.to_string(),
        seed: spec.seed,
        size: spec.size,
        zipf: spec.zipf,
        partition: cpu_config(spec)
            .radix_for(spec.size)
            .final_partition_of(mismatch.key),
        phase: localize_phase(trace, mismatch.key),
        report: Trace::render_side_by_side("reference (expected)", &reference, algorithm, trace),
        mismatch,
    })
}

/// Runs one matrix cell for one algorithm; `None` means it agreed with the
/// reference on every key.
pub fn check_case(algorithm: Algorithm, spec: CaseSpec) -> Option<Divergence> {
    let w = PaperWorkload::generate(WorkloadSpec::paper(spec.size, spec.zipf, spec.seed));
    let (actual, trace) = run_with_key_counts(algorithm, &w.r, &w.s, spec);
    diff_counts(algorithm.name(), spec, &w.r, &w.s, &actual, &trace)
}

/// The full oracle: every algorithm × seed × size × zipf cell. Returns all
/// divergences (empty = everything agrees) and invokes `progress` per cell
/// with the algorithm name, the cell, and whether it passed.
pub fn run_matrix(
    seeds: &[u64],
    sizes: &[usize],
    zipfs: &[f64],
    threads: usize,
    mut progress: impl FnMut(&str, CaseSpec, bool),
) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    for &seed in seeds {
        for &size in sizes {
            for &zipf in zipfs {
                let spec = CaseSpec {
                    seed,
                    size,
                    zipf,
                    threads,
                };
                for algorithm in Algorithm::ALL {
                    let failed = check_case(algorithm, spec);
                    progress(algorithm.name(), spec, failed.is_none());
                    divergences.extend(failed);
                }
            }
        }
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::CpuAlgorithm;

    fn small_case() -> CaseSpec {
        CaseSpec {
            seed: 11,
            size: 2000,
            zipf: 1.0,
            threads: 2,
        }
    }

    #[test]
    fn key_count_sink_checksum_matches_counting_sink() {
        use skewjoin::common::{CountingSink, OutputSink};
        let mut kc = KeyCountSink::new();
        let mut cs = CountingSink::new();
        for i in 0..50u32 {
            kc.emit(i % 7, i, i + 1);
            cs.emit(i % 7, i, i + 1);
        }
        assert_eq!(kc.count(), cs.count());
        assert_eq!(kc.checksum(), cs.checksum());
        assert_eq!(kc.counts().len(), 7);
    }

    #[test]
    fn reference_counts_are_products() {
        use skewjoin::common::{Payload, Tuple};
        let pairs = |ps: &[(Key, Payload)]| {
            Relation::from_tuples(ps.iter().map(|&(k, p)| Tuple::new(k, p)).collect())
        };
        let r = pairs(&[(1, 0), (1, 1), (2, 2)]);
        let s = pairs(&[(1, 3), (1, 4), (1, 5), (3, 6)]);
        let counts = reference_key_counts(&r, &s);
        assert_eq!(counts.get(&1), Some(&6));
        assert_eq!(counts.get(&2), None);
        assert_eq!(counts.get(&3), None);
    }

    #[test]
    fn first_divergence_finds_smallest_key() {
        let mut e = BTreeMap::new();
        e.insert(3, 5u64);
        e.insert(9, 2u64);
        let mut a = e.clone();
        a.insert(9, 1u64); // lost a result
        a.insert(5, 1u64); // gained a phantom key
        let m = first_divergence(&e, &a).unwrap();
        assert_eq!(m.key, 5);
        assert_eq!(m.expected, 0);
        assert_eq!(m.actual, 1);
        assert!(first_divergence(&e, &e.clone()).is_none());
    }

    #[test]
    fn all_algorithms_agree_on_a_skewed_case() {
        let spec = small_case();
        for algorithm in Algorithm::ALL {
            if let Some(d) = check_case(algorithm, spec) {
                panic!("unexpected divergence:\n{d}");
            }
        }
    }

    #[test]
    fn injected_skipped_skew_key_is_localized() {
        // Run GSH correctly, then corrupt its per-key counts by dropping
        // the hottest key — simulating a skew path that never emits. The
        // oracle must localize to the skew phase and name the exact key.
        let spec = small_case();
        let w = PaperWorkload::generate(WorkloadSpec::paper(spec.size, spec.zipf, spec.seed));
        let (mut counts, trace) =
            run_with_key_counts(Algorithm::Gpu(GpuAlgorithm::Gsh), &w.r, &w.s, spec);
        assert!(
            !trace.skewed_keys.is_empty(),
            "zipf 1.0 workload must trigger skew detection"
        );
        let hot = trace.skewed_keys[0].key;
        counts.remove(&hot);

        let d = diff_counts("GSH", spec, &w.r, &w.s, &counts, &trace)
            .expect("dropped key must diverge");
        assert_eq!(d.mismatch.key, hot);
        assert_eq!(d.mismatch.actual, 0);
        assert!(d.mismatch.expected > 0);
        assert_eq!(d.phase, "skew_join");
        assert!(d.report.contains("GSH"));
        let rendered = d.to_string();
        assert!(rendered.contains("suspected phase: skew_join"));
        assert!(rendered.contains(&format!("key {hot}")));
    }

    #[test]
    fn divergence_report_renders_both_traces() {
        let spec = small_case();
        let w = PaperWorkload::generate(WorkloadSpec::paper(spec.size, spec.zipf, spec.seed));
        let (mut counts, trace) =
            run_with_key_counts(Algorithm::Cpu(CpuAlgorithm::Cbase), &w.r, &w.s, spec);
        // Corrupt a non-skewed key: blame falls on the main join phase.
        let victim = *counts.keys().next().unwrap();
        *counts.get_mut(&victim).unwrap() += 1;
        let d = diff_counts("Cbase", spec, &w.r, &w.s, &counts, &trace).unwrap();
        assert_eq!(d.mismatch.key, victim);
        assert_eq!(d.phase, "join");
        assert!(d.report.contains("reference (expected)"));
        assert!(d.report.contains("Cbase"));
    }
}
