//! CSH's skew detection (§IV-A step 1) and the skew checkup table.
//!
//! CSH samples ~1 % of table R's keys before partitioning and counts their
//! frequencies in a hash table; a key sampled at least `min_sample_freq`
//! times (paper: 2) is declared skewed and assigned a *skewed partition id*.
//! During both partition scans every tuple is looked up in the
//! [`SkewCheckupTable`] — an open-addressing table kept deliberately small
//! and read-only, fronted by a one-bit-per-bucket filter so the per-tuple
//! check on a cold key is a single cache-resident load.

use std::collections::HashMap;

use skewjoin_common::hash::{mix32, mix64};
use skewjoin_common::{faults, Key, SkewedKey, Tuple};

use crate::config::SkewDetectConfig;

/// Samples `tuples` and returns the keys whose sample frequency reaches the
/// configured threshold, hottest first; each key's `frequency` is its
/// number of sample hits.
///
/// Sampling is strided with a pseudo-random phase per stride window: cheap,
/// deterministic per seed, and unbiased — every tuple is selected with
/// probability exactly `1/stride`, *including* the final partial window
/// (when `len % stride != 0`): the pick offset is drawn over the full
/// stride and discarded when it falls past the window's end, so the tail
/// is sampled with probability `window/stride` rather than always. (An
/// always-sampled tail would over-weight its tuples by `stride/window`,
/// letting a moderately-hot key that happens to sit at the end of R cross
/// the skew threshold it shouldn't.)
///
/// Estimator bias that remains, documented rather than fixed:
///
/// * `stride = round(1/sample_rate)` — the effective per-tuple rate is
///   `1/stride`, which differs from `sample_rate` whenever `1/sample_rate`
///   is not an integer (e.g. 0.03 → stride 33 → effective 0.0303…).
///   `sample_rate ≥ 1.0` degenerates to `stride = 1`, a full scan.
/// * One pick per window means within-window frequencies are capped at 1:
///   a key occupying an entire window contributes one sample where
///   Bernoulli sampling would contribute `window × rate` on average. The
///   estimate for keys spanning many windows (the ones skew detection
///   cares about) is unaffected.
pub fn detect_skewed_keys(tuples: &[Tuple], cfg: &SkewDetectConfig) -> Vec<SkewedKey> {
    let stride = (1.0 / cfg.sample_rate).round().max(1.0) as usize;
    let mut freq: HashMap<Key, u64> = HashMap::new();
    let mut window_start = 0usize;
    let mut counter = cfg.seed;
    while window_start < tuples.len() {
        let window_end = (window_start + stride).min(tuples.len());
        let window = window_end - window_start;
        // One pseudo-random pick per stride window, offset drawn over the
        // full stride so a partial tail window keeps per-tuple probability
        // 1/stride instead of 1/window.
        counter = counter.wrapping_add(1);
        let offset = (mix64(counter) as usize) % stride;
        if offset < window {
            *freq.entry(tuples[window_start + offset].key).or_insert(0) += 1;
        }
        window_start = window_end;
    }

    let mut skewed: Vec<SkewedKey> = freq
        .into_iter()
        .filter(|&(_, f)| f >= u64::from(cfg.min_sample_freq))
        .map(|(key, frequency)| SkewedKey { key, frequency })
        .collect();
    // Hottest first; tie-break on key for determinism.
    skewed.sort_unstable_by(|a, b| b.frequency.cmp(&a.frequency).then(a.key.cmp(&b.key)));
    // Chaos hook: a mis-detection fault drops the hottest key, forcing the
    // undetected-heavy-key path — the NM-join must still produce correct
    // results for the key CSH failed to special-case, just slower.
    if !skewed.is_empty() && faults::fire("cpu.skew.detect") {
        skewed.remove(0);
    }
    skewed
}

/// Read-only open-addressing map from skewed key → skewed partition id,
/// consulted for every tuple during partitioning (§IV-A steps 2–3).
#[derive(Debug, Clone)]
pub struct SkewCheckupTable {
    /// Parallel arrays; `part_ids[i] == EMPTY` marks a free slot.
    keys: Vec<Key>,
    part_ids: Vec<u32>,
    mask: usize,
    len: usize,
    /// One bit per bucket of `mix32(key) >> FILTER_SHIFT`, set for every
    /// skewed key's bucket. A clear bit answers "not skewed" — the answer
    /// for almost every tuple — without probing the table, whose probe
    /// loop mispredicts on every cold key that lands on an occupied slot.
    filter: Vec<u64>,
}

const EMPTY: u32 = u32::MAX;

/// The filter has `2^(32 - FILTER_SHIFT)` bits (2 KiB): under 1.6 %
/// false positives up to 256 skewed keys, and L1-resident.
const FILTER_SHIFT: u32 = 18;

impl SkewCheckupTable {
    /// Builds the table from detected skewed keys; key `i` in the input gets
    /// partition id `i`.
    pub fn build(skewed: &[SkewedKey]) -> Self {
        // ≥4× the entries keeps load factor ≤ 0.25: lookups on the per-tuple
        // hot path should almost never probe twice.
        let capacity = (skewed.len() * 4).next_power_of_two().max(8);
        let mut table = Self {
            keys: vec![0; capacity],
            part_ids: vec![EMPTY; capacity],
            mask: capacity - 1,
            len: skewed.len(),
            filter: vec![0; (1 << (32 - FILTER_SHIFT)) / 64],
        };
        for (pid, sk) in skewed.iter().enumerate() {
            let bit = filter_bit(sk.key);
            table.filter[bit / 64] |= 1 << (bit % 64);
            let mut slot = (mix32(sk.key) as usize) & table.mask;
            loop {
                if table.part_ids[slot] == EMPTY {
                    table.keys[slot] = sk.key;
                    table.part_ids[slot] = pid as u32;
                    break;
                }
                assert_ne!(table.keys[slot], sk.key, "duplicate skewed key {}", sk.key);
                slot = (slot + 1) & table.mask;
            }
        }
        table
    }

    /// Number of skewed keys in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is marked skewed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `key`; returns its skewed partition id if skewed.
    ///
    /// The probe count is bounded by the table capacity: with no empty slot
    /// left (a caller violating `build`'s ≤0.25 load-factor invariant, or a
    /// future writable-table variant filling up), an unbounded scan would
    /// spin forever on a missing key because no `EMPTY` sentinel remains to
    /// stop it.
    #[inline(always)]
    pub fn lookup(&self, key: Key) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let bit = filter_bit(key);
        if self.filter[bit / 64] & (1 << (bit % 64)) == 0 {
            return None;
        }
        let mut slot = (mix32(key) as usize) & self.mask;
        for _ in 0..=self.mask {
            let pid = self.part_ids[slot];
            if pid == EMPTY {
                return None;
            }
            if self.keys[slot] == key {
                return Some(pid);
            }
            slot = (slot + 1) & self.mask;
        }
        // Visited every slot without finding the key or an empty slot.
        None
    }
}

/// `key`'s bit in [`SkewCheckupTable`]'s filter: the top bits of its
/// multiplicative hash, which (unlike the low bits the slot index uses)
/// depend on every key bit.
#[inline(always)]
fn filter_bit(key: Key) -> usize {
    (mix32(key) >> FILTER_SHIFT) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples_of(keys: &[u32]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u32))
            .collect()
    }

    #[test]
    fn detects_overwhelmingly_hot_key() {
        // Key 7 is 50 % of a 10 000-tuple table; with 1 % sampling (~100
        // samples) it is sampled ~50 times — far above threshold 2.
        let mut keys = vec![7u32; 5000];
        keys.extend(0..5000u32);
        let skewed = detect_skewed_keys(&tuples_of(&keys), &SkewDetectConfig::default());
        assert!(skewed.iter().any(|s| s.key == 7), "hot key missed");
        assert_eq!(skewed[0].key, 7, "hot key must rank first");
    }

    #[test]
    fn uniform_keys_mostly_not_skewed() {
        // 10 000 distinct keys, 1 sample each expected ⇒ few (birthday
        // collisions aside) reach frequency 2.
        let keys: Vec<u32> = (0..10_000).collect();
        let skewed = detect_skewed_keys(&tuples_of(&keys), &SkewDetectConfig::default());
        assert!(
            skewed.len() < 10,
            "uniform data produced {} skewed keys",
            skewed.len()
        );
    }

    #[test]
    fn detection_is_deterministic() {
        let keys: Vec<u32> = (0..1000).map(|i| i % 17).collect();
        let cfg = SkewDetectConfig::default();
        assert_eq!(
            detect_skewed_keys(&tuples_of(&keys), &cfg),
            detect_skewed_keys(&tuples_of(&keys), &cfg)
        );
    }

    #[test]
    fn empty_input_no_skew() {
        assert!(detect_skewed_keys(&[], &SkewDetectConfig::default()).is_empty());
    }

    #[test]
    fn tail_window_is_sampleable_but_not_oversampled() {
        // Regression for the partial-window bias: with `len % stride != 0`
        // the old sampler picked uniformly *within* the tail window, giving
        // its tuples probability 1/window instead of 1/stride — a key
        // sitting in the tail was over-weighted by stride/window (2× here).
        //
        // Layout: 10 full windows of unique cold keys, then a 50-tuple tail
        // (stride 100) holding only the marker key. min_sample_freq = 1
        // turns the detector into a "was it sampled at all?" probe.
        let stride = 100usize;
        let tail = 50usize;
        let marker = 0xDEAD_BEEFu32;
        let mut keys: Vec<u32> = (1..=(10 * stride) as u32).collect();
        keys.extend(vec![marker; tail]);
        let tuples = tuples_of(&keys);

        let runs = 400;
        let mut sampled = 0usize;
        for seed in 0..runs {
            let cfg = SkewDetectConfig {
                sample_rate: 1.0 / stride as f64,
                min_sample_freq: 1,
                seed,
            };
            if detect_skewed_keys(&tuples, &cfg)
                .iter()
                .any(|s| s.key == marker)
            {
                sampled += 1;
            }
        }
        // Unbiased sampling hits the tail with probability tail/stride =
        // 0.5 per run (expected 200 of 400, σ = 10); the old always-sample
        // behaviour would score 400/400. Bounds at ±5σ.
        let lo = 150;
        let hi = 250;
        assert!(
            (lo..=hi).contains(&sampled),
            "tail sampled in {sampled}/{runs} runs, expected ≈{}",
            runs / 2
        );
    }

    #[test]
    fn full_scan_rate_covers_every_window() {
        // sample_rate = 1.0 → stride 1 → every tuple sampled exactly once.
        let keys: Vec<u32> = (0..997).map(|i| i % 13).collect();
        let cfg = SkewDetectConfig {
            sample_rate: 1.0,
            min_sample_freq: 2,
            seed: 3,
        };
        let skewed = detect_skewed_keys(&tuples_of(&keys), &cfg);
        // All 13 keys appear ≥ 76 times; a full scan must report them all
        // with their exact frequencies.
        assert_eq!(skewed.len(), 13);
        let total: u64 = skewed.iter().map(|s| s.frequency).sum();
        assert_eq!(total, 997);
    }

    #[test]
    fn checkup_table_roundtrip() {
        let skewed = vec![
            SkewedKey {
                key: 100,
                frequency: 9,
            },
            SkewedKey {
                key: 200,
                frequency: 5,
            },
            SkewedKey {
                key: 300,
                frequency: 2,
            },
        ];
        let table = SkewCheckupTable::build(&skewed);
        assert_eq!(table.len(), 3);
        assert_eq!(table.lookup(100), Some(0));
        assert_eq!(table.lookup(200), Some(1));
        assert_eq!(table.lookup(300), Some(2));
        assert_eq!(table.lookup(400), None);
        assert_eq!(table.lookup(0), None);
    }

    #[test]
    fn empty_checkup_table() {
        let table = SkewCheckupTable::build(&[]);
        assert!(table.is_empty());
        assert_eq!(table.lookup(1), None);
    }

    #[test]
    fn lookup_terminates_on_completely_full_table() {
        // Regression: force a table with zero EMPTY slots. A miss must
        // return None after at most `capacity` probes instead of spinning
        // forever looking for an EMPTY sentinel that does not exist.
        let skewed = vec![
            SkewedKey {
                key: 1,
                frequency: 2,
            },
            SkewedKey {
                key: 2,
                frequency: 2,
            },
        ];
        let mut table = SkewCheckupTable::build(&skewed);
        // Saturate every slot (bypassing build's load-factor headroom).
        for slot in 0..=table.mask {
            if table.part_ids[slot] == EMPTY {
                table.keys[slot] = 1_000_000 + slot as u32;
                table.part_ids[slot] = 99;
            }
        }
        assert_eq!(table.lookup(1), Some(0));
        assert_eq!(table.lookup(2), Some(1));
        // Key absent from the full table: must terminate with None.
        assert_eq!(table.lookup(3), None);
    }

    #[test]
    fn checkup_table_handles_many_keys() {
        let skewed: Vec<SkewedKey> = (0..1000)
            .map(|i| SkewedKey {
                key: i * 31 + 7,
                frequency: 2,
            })
            .collect();
        let table = SkewCheckupTable::build(&skewed);
        for (pid, sk) in skewed.iter().enumerate() {
            assert_eq!(table.lookup(sk.key), Some(pid as u32));
        }
        assert_eq!(table.lookup(u32::MAX), None);
    }
}
