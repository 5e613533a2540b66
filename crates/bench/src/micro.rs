//! A minimal micro-benchmark harness for the `benches/` targets
//! (`harness = false`): warm up, time a fixed number of iterations, print
//! mean time per iteration. No statistics beyond the mean — these benches
//! exist to catch order-of-magnitude regressions and to document the
//! relative cost of the building blocks, not to resolve 1 % deltas.
//!
//! For A/B comparisons use [`compare`], not back-to-back [`bench()`] calls:
//! running variant A's reps as one block and variant B's as another biases
//! whichever ran later (warmed caches, ramped-up clocks) and exposes each
//! variant to different machine-noise windows. [`compare`] interleaves the
//! variants within every rep and reports min-of-reps per variant, the same
//! discipline the `sched_micro` harness uses.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Times `f` over `iters` iterations (after up to 2 warm-up runs) and
/// prints the mean time per iteration under `name`.
pub fn bench<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    assert!(iters > 0, "bench needs at least one iteration");
    for _ in 0..iters.min(2) {
        black_box(f());
    }
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = t.elapsed();
    println!(
        "{name:<44} {:>10}/iter  ({iters} iters)",
        crate::fmt_time(total / iters as u32)
    );
}

/// One variant of a [`compare`] run: a label and the operation to time.
pub type Variant<'a> = (&'a str, Box<dyn FnMut() + 'a>);

/// Times several variants of one operation with the reps *interleaved*:
/// every rep runs each variant once (rotating which goes first), and each
/// variant's reported time is its fastest rep. Returns `(label, best)`
/// pairs in input order and prints them.
///
/// Interleaving makes an A/B comparison fair in ways block timing is not:
/// a thermal ramp, a background daemon, or a first-touch page fault burst
/// hits all variants roughly equally instead of whichever block it landed
/// on, and min-of-reps then samples each variant's quiet-period time.
pub fn compare(name: &str, reps: usize, mut variants: Vec<Variant<'_>>) -> Vec<(String, Duration)> {
    assert!(reps > 0, "compare needs at least one rep");
    assert!(!variants.is_empty(), "compare needs at least one variant");
    let n = variants.len();
    let mut best = vec![Duration::MAX; n];
    // Untimed warm-up rep so one-time setup costs (lazy allocs, page
    // faults) are not charged to whichever variant runs first.
    for (_, f) in variants.iter_mut() {
        f();
    }
    for rep in 0..reps {
        for i in 0..n {
            // Rotate the starting variant so systematic per-rep effects
            // (e.g. a timer tick at rep start) do not always hit variant 0.
            let vi = (rep + i) % n;
            let t = Instant::now();
            (variants[vi].1)();
            best[vi] = best[vi].min(t.elapsed());
        }
    }
    let results: Vec<(String, Duration)> = variants
        .iter()
        .zip(&best)
        .map(|((label, _), &d)| (label.to_string(), d))
        .collect();
    for (label, d) in &results {
        println!(
            "{:<44} {:>10}/iter  (min of {reps} interleaved reps)",
            format!("{name}/{label}"),
            crate::fmt_time(*d)
        );
    }
    results
}

/// Prints a section header separating groups of related benches.
pub fn group(title: &str) {
    println!("\n== {title}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_the_closure() {
        let mut calls = 0u32;
        bench("noop", 3, || calls += 1);
        // 2 warm-up runs + 3 timed runs.
        assert_eq!(calls, 5);
    }

    #[test]
    fn compare_interleaves_and_reports_all_variants() {
        use std::cell::RefCell;
        // Record the global execution order to prove interleaving: with 3
        // reps of (a, b) each variant must run 4 times (1 warm-up + 3
        // timed) and the timed portion must alternate, never "aaa bbb".
        let order = RefCell::new(String::new());
        let results = compare(
            "probe",
            3,
            vec![
                ("a", Box::new(|| order.borrow_mut().push('a'))),
                ("b", Box::new(|| order.borrow_mut().push('b'))),
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "a");
        assert_eq!(results[1].0, "b");
        let order = order.into_inner();
        assert_eq!(order.len(), 8, "{order}");
        assert!(
            !order[2..].contains("aaa") && !order[2..].contains("bbb"),
            "timed reps not interleaved: {order}"
        );
    }
}
