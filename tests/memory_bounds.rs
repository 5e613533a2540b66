//! Memory bounds, measured: a counting global allocator records the peak
//! bytes the process holds while one join runs, and the test holds each
//! CPU algorithm to its planner footprint and each spilled join to its
//! spill `mem_budget`.
//!
//! The binary has a single `#[test]` and every join runs on one thread, so
//! nothing else allocates while a join is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use skewjoin::common::hash::radix_pass;
use skewjoin::common::trace::counter;
use skewjoin::common::{JoinStats, Relation, Tuple};
use skewjoin::cpu::spill::spill_hash;
use skewjoin::cpu::{SpillConfig, MIN_SPILL_BUDGET};
use skewjoin::datagen::{PaperWorkload, WorkloadSpec, ZipfWorkload};
use skewjoin::{
    estimate_join_memory, run_join_with, Algorithm, CountSinkFactory, CpuAlgorithm, JoinConfig,
};

/// Bytes currently allocated, and the high-water mark since the last reset.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `algorithm` with counting sinks and returns its stats and the peak
/// bytes allocated above what was live when it started (the inputs are
/// live already, so they are not part of the figure).
fn measured(
    algorithm: CpuAlgorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> (JoinStats, u64) {
    let base = CURRENT.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let stats = run_join_with(Algorithm::Cpu(algorithm), r, s, cfg, CountSinkFactory)
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (stats, peak as u64)
}

fn one_thread() -> JoinConfig {
    let mut cfg = JoinConfig::default();
    cfg.cpu.threads = 1;
    cfg
}

fn zipf_pair(r_tuples: usize, s_tuples: usize, zipf: f64, seed: u64) -> (Relation, Relation) {
    let keys = ZipfWorkload::new(r_tuples.max(s_tuples), zipf, seed);
    (
        keys.generate_table(r_tuples, seed ^ 0x52),
        keys.generate_table(s_tuples, seed ^ 0x53),
    )
}

/// In memory, a join's peak (input included) is at most its footprint.
fn check_footprints(failures: &mut Vec<String>) {
    let cfg = one_thread();
    let shapes = [
        (1 << 12, 1 << 12),
        (1 << 16, 1 << 16),
        (1 << 12, 1 << 16),
        (1 << 14, 1 << 18),
    ];
    for (r_tuples, s_tuples) in shapes {
        for zipf in [0.0, 0.9] {
            let (r, s) = zipf_pair(r_tuples, s_tuples, zipf, 7);
            let input = ((r.len() + s.len()) * std::mem::size_of::<Tuple>()) as u64;
            for algorithm in CpuAlgorithm::ALL {
                let footprint =
                    estimate_join_memory(Algorithm::Cpu(algorithm), r.len(), s.len(), &cfg)
                        .host_bytes;
                let (_, peak) = measured(algorithm, &r, &s, &cfg);
                let used = input + peak;
                if used > footprint {
                    failures.push(format!(
                        "{algorithm} in memory, |R| {r_tuples} |S| {s_tuples} θ{zipf}: \
                         {used} B used against a {footprint} B footprint ({:.2}×)",
                        used as f64 / footprint as f64
                    ));
                }
            }
        }
    }
}

/// A spilled join's peak above its inputs is at most its `mem_budget`.
/// Returns whether every algorithm took the NM block decomposition.
fn check_spill(
    failures: &mut Vec<String>,
    shape: &str,
    r: &Relation,
    s: &Relation,
    spill: SpillConfig,
) -> bool {
    let mut cfg = one_thread();
    let budget = spill.mem_budget;
    cfg.cpu.spill = Some(spill);
    let mut all_nm = true;
    for algorithm in CpuAlgorithm::ALL {
        let (stats, peak) = measured(algorithm, r, s, &cfg);
        let written = stats.trace.get("spill", counter::SPILL_BYTES_WRITTEN);
        assert!(written > Some(0), "{algorithm} {shape}: did not spill");
        all_nm &= stats.trace.get("spill", "pairs_nm_decomposed") > Some(0);
        if peak > budget {
            failures.push(format!(
                "{algorithm} spilled, {shape}: peak {peak} B against a {budget} B budget \
                 ({:.2}×)",
                peak as f64 / budget as f64
            ));
        }
    }
    all_nm
}

fn check_spilled_shapes(failures: &mut Vec<String>) {
    // The chaos harness's spill cells: 2048 tuples at θ0.9, 64 partitions,
    // the smallest budget a spill accepts.
    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 0.9, 11));
    let floor = SpillConfig::with_budget(MIN_SPILL_BUDGET);
    check_spill(failures, "chaos cell", &w.r, &w.s, floor.clone());

    // The spill soak: 8192 tuples under ¾ of a 256 KiB service budget.
    for zipf in [0.75, 1.5] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(8192, zipf, 23));
        let soak = SpillConfig::with_budget(192 << 10);
        check_spill(failures, &format!("soak θ{zipf}"), &w.r, &w.s, soak);
    }

    // The benchmark's spill tier: 4 partitions a side, half of CSH's
    // in-memory footprint as the budget.
    for (tuples, zipf) in [(1 << 18, 0.0), (1 << 15, 1.0), (1 << 12, 0.5)] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, 101));
        let csh = Algorithm::Cpu(CpuAlgorithm::Csh);
        let estimate = estimate_join_memory(csh, tuples, tuples, &one_thread()).total_bytes();
        let bench = SpillConfig {
            partition_bits: 2,
            ..SpillConfig::with_budget((estimate / 2).max(MIN_SPILL_BUDGET))
        };
        check_spill(
            failures,
            &format!("bench 2^{} θ{zipf}", tuples.trailing_zeros()),
            &w.r,
            &w.s,
            bench,
        );
    }

    // One build key: no hash can split the pair, so it is joined a block of
    // R at a time against a stream of S.
    let r = Relation::from_tuples((0..3000u32).map(|i| Tuple::new(7, i)).collect());
    let s = Relation::from_tuples(
        (0..2000u32)
            .map(|i| Tuple::new(if i % 2 == 0 { 7 } else { 9 }, i))
            .collect(),
    );
    let single_key = check_spill(failures, "single-key pair", &r, &s, floor.clone());
    assert!(single_key, "the single-key pair was not NM-decomposed");

    // Two keys that share their partition at level 0 and at the only
    // recursion level: the pair is still over budget at `max_recursion`
    // and takes the same block decomposition.
    let twin = (1u32..)
        .find(|&k| radix_pass(spill_hash(k), 0, 2) == radix_pass(spill_hash(0), 0, 2))
        .unwrap();
    let keys: Vec<u32> = (0..6000u32)
        .map(|i| if i % 2 == 0 { 0 } else { twin })
        .collect();
    let r = Relation::from_keys(&keys);
    let capped = SpillConfig {
        partition_bits: 1,
        max_recursion: 1,
        ..floor
    };
    let capped = check_spill(failures, "recursion cap", &r, &r, capped);
    assert!(capped, "the capped pair was not NM-decomposed");
}

#[test]
fn joins_stay_within_their_footprint_and_spills_within_their_budget() {
    let mut failures = Vec::new();
    check_footprints(&mut failures);
    check_spilled_shapes(&mut failures);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
