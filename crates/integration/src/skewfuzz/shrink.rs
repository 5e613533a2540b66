//! Failure minimization.
//!
//! A ddmin-style greedy shrinker: repeatedly propose a smaller candidate,
//! keep it iff the violation persists (any violation — a failure is
//! allowed to change shape while shrinking, which is standard practice and
//! dramatically improves minimization). Join cases shrink along three
//! axes: fewer tuples (chunk removal with halving chunk sizes), simpler
//! values (keys canonicalized to dense small integers, payloads to row
//! ids), and a simpler configuration (each knob reset to its default).
//! Frame cases shrink byte-wise.
//!
//! Every accepted candidate re-runs the full oracle, so shrinking is
//! bounded by an evaluation budget rather than wall-clock heuristics.

use std::collections::BTreeMap;
use std::time::Duration;

use super::frames::{check_frame, FrameHarness};
use super::oracle::{check_join_case, CaseVerdict};
use super::{FrameCase, FuzzConfig, JoinCase};

fn still_fails(case: &JoinCase, timeout: Duration, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    matches!(check_join_case(case, timeout), CaseVerdict::Violation(_))
}

/// Tries to remove `chunk`-sized blocks from `pairs`; returns true if
/// anything was removed.
fn shrink_pairs(
    case: &mut JoinCase,
    side: fn(&mut JoinCase) -> &mut Vec<(u32, u32)>,
    timeout: Duration,
    budget: &mut usize,
) -> bool {
    let mut any = false;
    let mut chunk = side(case).len().div_ceil(2).max(1);
    while chunk >= 1 && *budget > 0 {
        let mut start = 0;
        while start < side(case).len() && *budget > 0 {
            let len = side(case).len();
            let end = (start + chunk).min(len);
            let mut candidate = case.clone();
            side(&mut candidate).drain(start..end);
            if still_fails(&candidate, timeout, budget) {
                *case = candidate;
                any = true;
                // Same start now points at fresh tuples.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    any
}

/// Renames keys to dense small integers in order of first appearance
/// (across both relations, so join partners stay partners) and payloads to
/// row ids. Kept only if the violation persists — a failure that depends
/// on the *specific* key bits (a radix clamp, a boundary value) will
/// reject this and keep its keys.
fn canonicalize(case: &JoinCase) -> JoinCase {
    let mut next = 0u32;
    let mut names: BTreeMap<u32, u32> = BTreeMap::new();
    let mut rename = |pairs: &[(u32, u32)], out: &mut Vec<(u32, u32)>| {
        for (i, &(k, _)) in pairs.iter().enumerate() {
            let id = *names.entry(k).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            out.push((id, i as u32));
        }
    };
    let mut shrunk = case.clone();
    let (mut r, mut s) = (Vec::new(), Vec::new());
    rename(&case.r, &mut r);
    rename(&case.s, &mut s);
    shrunk.r = r;
    shrunk.s = s;
    shrunk
}

/// Minimizes a failing join case. The result still fails (it is only ever
/// replaced by a candidate that does) and is typically a few tuples.
#[allow(clippy::clone_on_copy)] // try_default! clones Copy and non-Copy knobs alike
pub fn shrink_join(case: &JoinCase, timeout: Duration, mut budget: usize) -> JoinCase {
    let mut best = case.clone();
    if !still_fails(&best, timeout, &mut budget) {
        // Flaky or budget-starved: keep the original repro.
        return best;
    }
    loop {
        let mut progress = false;
        progress |= shrink_pairs(&mut best, |c| &mut c.r, timeout, &mut budget);
        progress |= shrink_pairs(&mut best, |c| &mut c.s, timeout, &mut budget);
        if !progress || budget == 0 {
            break;
        }
    }
    let canonical = canonicalize(&best);
    if canonical != best && still_fails(&canonical, timeout, &mut budget) {
        best = canonical;
    }
    // Knob-by-knob: resetting a knob to its default and keeping the
    // failure both simplifies the repro and names the knobs that matter.
    let default = FuzzConfig::default();
    macro_rules! try_default {
        ($field:ident) => {
            if best.config.$field != default.$field {
                let mut candidate = best.clone();
                candidate.config.$field = default.$field.clone();
                if still_fails(&candidate, timeout, &mut budget) {
                    best = candidate;
                }
            }
        };
    }
    if !best.config.expect_invalid {
        try_default!(threads);
        try_default!(radix_bits);
        try_default!(raw_radix);
        try_default!(mutex_scheduler);
        try_default!(split_factor);
        try_default!(extra_pass_bits);
        try_default!(max_bucket_bits);
        try_default!(force_scalar);
        try_default!(morsel_tuples);
        try_default!(sample_rate);
        try_default!(min_sample_freq);
        try_default!(detect_seed);
        try_default!(gpu_table_capacity);
        try_default!(gpu_block_dim);
        try_default!(gpu_sample_rate);
        try_default!(gpu_top_k);
        try_default!(tiny_device);
        try_default!(gpu_backend_host);
        try_default!(spill_budget);
    }
    best
}

/// Minimizes a failing frame case byte-wise (the length prefix is treated
/// as ordinary bytes — an inconsistent prefix is itself a valid case).
pub fn shrink_frame(
    case: &FrameCase,
    harness: Option<&FrameHarness>,
    mut budget: usize,
) -> FrameCase {
    let mut check = |bytes: &[u8]| -> bool {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        check_frame(
            &FrameCase {
                name: case.name.clone(),
                bytes: bytes.to_vec(),
            },
            harness,
        )
        .is_some()
    };
    let mut best = case.bytes.clone();
    if !check(&best) {
        return case.clone();
    }
    let mut chunk = best.len().div_ceil(2).max(1);
    while chunk >= 1 {
        let mut start = 0;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let mut candidate = best.clone();
            candidate.drain(start..end);
            if !candidate.is_empty() && check(&candidate) {
                best = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    FrameCase {
        name: case.name.clone(),
        bytes: best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::Algorithm;

    /// The shrinker must leave a *passing* case untouched (violation gone
    /// means keep the original) and never loop forever.
    #[test]
    fn passing_cases_come_back_unchanged() {
        let case = JoinCase {
            name: "ok".into(),
            algorithm: Algorithm::ALL[0],
            oracle: super::super::Oracle::Diff,
            config: FuzzConfig::default(),
            r: vec![(1, 0), (2, 1)],
            s: vec![(1, 0)],
        };
        let shrunk = shrink_join(&case, Duration::from_secs(30), 50);
        assert_eq!(shrunk, case);
    }

    #[test]
    fn canonicalize_preserves_join_structure() {
        let case = JoinCase {
            name: "canon".into(),
            algorithm: Algorithm::ALL[0],
            oracle: super::super::Oracle::Diff,
            config: FuzzConfig::default(),
            r: vec![(0xDEAD_BEEF, 9), (7, 3), (0xDEAD_BEEF, 1)],
            s: vec![(7, 0), (0xDEAD_BEEF, 2)],
        };
        let canon = canonicalize(&case);
        assert_eq!(canon.r, vec![(0, 0), (1, 1), (0, 2)]);
        assert_eq!(canon.s, vec![(1, 0), (0, 1)]);
        use super::super::gen::expected_output;
        assert_eq!(
            expected_output(&case.r, &case.s),
            expected_output(&canon.r, &canon.s)
        );
    }
}
