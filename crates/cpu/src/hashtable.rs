//! Bucket-chaining hash tables.
//!
//! [`ChainedTable`] is the per-partition table of the radix joins, built the
//! way Balkesen et al.'s `bucket_chaining_join` does it: a word per bucket
//! (its chain's head) and a `u32` link per tuple (`next`) over an immutable
//! tuple slice. With skewed keys the chains grow long, which is precisely
//! the dependent-memory-access pathology §III describes — we keep the
//! structure faithful so the pathology reproduces.
//!
//! A bucket word also counts its chain: the head in the low 32 bits, the
//! chain's length in the high 32. The build keeps the longest length as it
//! links, so [`ChainedTable::max_chain_len`] walks nothing. The probe is the
//! plain scalar chain walk: the radix joins size a partition to about 4096
//! tuples, so its table is cache-resident and there is no miss to prefetch.
//!
//! [`ConcurrentChainedTable`] is the shared global table of the no-partition
//! join (`cbase-npj`): identical layout, built by all threads with one CAS
//! of the whole bucket word per insert. It spans all of R and is not
//! cache-resident, so its probe keeps the SIMD-hashed, prefetching front
//! end.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use skewjoin_common::hash::{bucket_bits_for, table_hash};
use skewjoin_common::{JoinError, Key, OutputSink, Tuple};

use crate::simd::{self, SimdLevel, HASH_BATCH};

/// Largest build side either table can represent. Chain links store
/// `tuple index + 1` in a `u32` with 0 reserved as the empty sentinel, so
/// index `u32::MAX - 1` (encoding `u32::MAX`) is the last representable
/// tuple; one past it the encoding `(i + 1) as u32` silently wraps to the
/// sentinel and the tuple vanishes from its chain.
pub const MAX_BUILD_TUPLES: usize = u32::MAX as usize - 1;

/// Checks that `len` build tuples fit the slot encoding, naming `table` in
/// the error.
pub fn check_build_len(len: usize, table: &str) -> Result<(), JoinError> {
    if len > MAX_BUILD_TUPLES {
        return Err(JoinError::InvalidInput(format!(
            "{table} build side of {len} tuples exceeds the {MAX_BUILD_TUPLES}-tuple slot \
             encoding limit"
        )));
    }
    Ok(())
}

/// Head slot of a bucket word.
#[inline(always)]
fn head(word: u64) -> u32 {
    word as u32
}

/// Chain length of a bucket word.
#[inline(always)]
fn chain_len(word: u64) -> u64 {
    word >> 32
}

/// The bucket word after linking `slot` in front of `word`'s chain.
#[inline(always)]
fn push(word: u64, slot: u32) -> u64 {
    ((chain_len(word) + 1) << 32) | u64::from(slot)
}

/// A single-threaded bucket-chaining hash table over a borrowed tuple slice.
pub struct ChainedTable<'a> {
    tuples: &'a [Tuple],
    /// One word per bucket: the chain's head (`tuple index + 1`, 0 = empty)
    /// in the low 32 bits, its length in the high 32.
    buckets: Vec<u64>,
    /// `next[i]` links tuple `i` to the previous head (same encoding).
    next: Vec<u32>,
    bits: u32,
    /// Longest chain, counted while linking.
    max_chain_len: u64,
}

impl<'a> ChainedTable<'a> {
    /// Builds a table over `tuples` with `2^bits` buckets, or
    /// [`JoinError::InvalidInput`] if the build side exceeds
    /// [`MAX_BUILD_TUPLES`].
    pub fn try_build_with_bits(tuples: &'a [Tuple], bits: u32) -> Result<Self, JoinError> {
        check_build_len(tuples.len(), "chained table")?;
        let mut buckets = vec![0u64; 1usize << bits];
        let mut next = vec![0u32; tuples.len()];
        let mut max_chain_len = 0;
        for (i, t) in tuples.iter().enumerate() {
            let word = &mut buckets[table_hash(t.key, bits)];
            next[i] = head(*word);
            *word = push(*word, (i + 1) as u32);
            max_chain_len = max_chain_len.max(chain_len(*word));
        }
        Ok(Self {
            tuples,
            buckets,
            next,
            bits,
            max_chain_len,
        })
    }

    /// Builds a table over `tuples` with `2^bits` buckets.
    ///
    /// # Panics
    /// Panics if the build side exceeds [`MAX_BUILD_TUPLES`]; use
    /// [`ChainedTable::try_build_with_bits`] for a typed error.
    pub fn build_with_bits(tuples: &'a [Tuple], bits: u32) -> Self {
        Self::try_build_with_bits(tuples, bits).expect("build side fits the slot encoding")
    }

    /// Fallible sibling of [`ChainedTable::build`].
    pub fn try_build(tuples: &'a [Tuple], max_bits: u32) -> Result<Self, JoinError> {
        Self::try_build_with_bits(tuples, bucket_bits_for(tuples.len()).min(max_bits))
    }

    /// Builds a table sized to roughly one bucket per tuple, capped at
    /// `max_bits`.
    ///
    /// # Panics
    /// Panics if the build side exceeds [`MAX_BUILD_TUPLES`].
    pub fn build(tuples: &'a [Tuple], max_bits: u32) -> Self {
        Self::try_build(tuples, max_bits).expect("build side fits the slot encoding")
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Probes for `key`, invoking `on_match` with each matching tuple. The
    /// key comparison per visited chain entry is the verification cost §III
    /// attributes to hash-table-based skew handling.
    #[inline]
    pub fn probe<F: FnMut(&Tuple)>(&self, key: Key, mut on_match: F) {
        let mut slot = head(self.buckets[table_hash(key, self.bits)]);
        while slot != 0 {
            let t = &self.tuples[(slot - 1) as usize];
            if t.key == key {
                on_match(t);
            }
            slot = self.next[(slot - 1) as usize];
        }
    }

    /// Probes the table with every tuple of `probe_side`, emitting join
    /// results into `sink`: one scalar chain walk per probe tuple.
    pub fn probe_all<S: OutputSink>(&self, probe_side: &[Tuple], sink: &mut S) {
        for s in probe_side {
            self.probe(s.key, |r| sink.emit(s.key, r.payload, s.payload));
        }
    }

    /// Length of the longest chain (diagnostic: long chains = skew),
    /// counted by the build.
    pub fn max_chain_len(&self) -> usize {
        self.max_chain_len as usize
    }
}

/// A shared bucket-chaining table built concurrently by many threads
/// (the no-partition join's global table).
pub struct ConcurrentChainedTable<'a> {
    tuples: &'a [Tuple],
    /// Bucket words as in [`ChainedTable`].
    buckets: Vec<AtomicU64>,
    next: Vec<AtomicU32>,
    bits: u32,
    /// Longest chain any insert produced.
    max_chain_len: AtomicU64,
}

impl<'a> ConcurrentChainedTable<'a> {
    /// Allocates an empty table over `tuples` with `2^bits` buckets, or
    /// [`JoinError::InvalidInput`] past [`MAX_BUILD_TUPLES`]; call
    /// [`ConcurrentChainedTable::insert_range`] from worker threads to build.
    pub fn try_with_bits(tuples: &'a [Tuple], bits: u32) -> Result<Self, JoinError> {
        check_build_len(tuples.len(), "concurrent chained table")?;
        let buckets = (0..1usize << bits).map(|_| AtomicU64::new(0)).collect();
        let next = (0..tuples.len()).map(|_| AtomicU32::new(0)).collect();
        Ok(Self {
            tuples,
            buckets,
            next,
            bits,
            max_chain_len: AtomicU64::new(0),
        })
    }

    /// Allocates an empty table over `tuples` with `2^bits` buckets.
    ///
    /// # Panics
    /// Panics if the build side exceeds [`MAX_BUILD_TUPLES`]; use
    /// [`ConcurrentChainedTable::try_with_bits`] for a typed error.
    pub fn with_bits(tuples: &'a [Tuple], bits: u32) -> Self {
        Self::try_with_bits(tuples, bits).expect("build side fits the slot encoding")
    }

    /// Fallible sibling of [`ConcurrentChainedTable::sized`].
    pub fn try_sized(tuples: &'a [Tuple], max_bits: u32) -> Result<Self, JoinError> {
        Self::try_with_bits(tuples, bucket_bits_for(tuples.len()).min(max_bits))
    }

    /// Allocates sized to the input (≈1 bucket/tuple, capped).
    ///
    /// # Panics
    /// Panics if the build side exceeds [`MAX_BUILD_TUPLES`].
    pub fn sized(tuples: &'a [Tuple], max_bits: u32) -> Self {
        Self::try_sized(tuples, max_bits).expect("build side fits the slot encoding")
    }

    /// Inserts the tuples in `range` (call with disjoint ranges from each
    /// worker). Lock-free: CAS on the bucket word, head and length together,
    /// retrying on contention; the longest chain this call made is folded
    /// into the table's once at the end.
    pub fn insert_range(&self, range: std::ops::Range<usize>) {
        let mut longest = 0;
        for i in range {
            let bucket = &self.buckets[table_hash(self.tuples[i].key, self.bits)];
            let slot = (i + 1) as u32;
            let mut word = bucket.load(Ordering::Acquire);
            loop {
                self.next[i].store(head(word), Ordering::Relaxed);
                match bucket.compare_exchange_weak(
                    word,
                    push(word, slot),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(actual) => word = actual,
                }
            }
            longest = longest.max(chain_len(word) + 1);
        }
        self.max_chain_len.fetch_max(longest, Ordering::Relaxed);
    }

    /// Probes for `key` (safe after all inserts complete).
    #[inline]
    pub fn probe<F: FnMut(&Tuple)>(&self, key: Key, mut on_match: F) {
        let mut slot = head(self.buckets[table_hash(key, self.bits)].load(Ordering::Acquire));
        while slot != 0 {
            let t = &self.tuples[(slot - 1) as usize];
            if t.key == key {
                on_match(t);
            }
            slot = self.next[(slot - 1) as usize].load(Ordering::Relaxed);
        }
    }

    /// Probes the table with every tuple of `probe_side` (safe after all
    /// inserts complete). Above [`SimdLevel::Scalar`], bucket indices for a
    /// whole batch are hashed with SIMD lanes, the bucket words are
    /// prefetched while the batch is still being hashed, and each chain
    /// walk prefetches its next link one hop ahead — hiding the
    /// dependent-load latency of a table larger than the caches. Emission
    /// order (and therefore every sink observable) is identical to the
    /// scalar walk.
    pub fn probe_all_with<S: OutputSink>(
        &self,
        probe_side: &[Tuple],
        sink: &mut S,
        level: SimdLevel,
    ) {
        if level == SimdLevel::Scalar {
            for s in probe_side {
                self.probe(s.key, |r| sink.emit(s.key, r.payload, s.payload));
            }
            return;
        }
        let mask = (self.buckets.len() - 1) as u32;
        let shift = 32 - self.bits;
        let mut idx = [0u32; HASH_BATCH];
        for batch in probe_side.chunks(HASH_BATCH) {
            simd::hash_indices(level, batch, true, shift, mask, &mut idx);
            let idx = &idx[..batch.len()];
            for &i in idx {
                simd::prefetch_read(self.buckets[i as usize..].as_ptr());
            }
            for (s, &i) in batch.iter().zip(idx) {
                let mut slot = head(self.buckets[i as usize].load(Ordering::Acquire));
                while slot != 0 {
                    let e = (slot - 1) as usize;
                    let nxt = self.next[e].load(Ordering::Relaxed);
                    if nxt != 0 {
                        simd::prefetch_read(self.tuples[(nxt - 1) as usize..].as_ptr());
                    }
                    let r = &self.tuples[e];
                    if r.key == s.key {
                        sink.emit(s.key, r.payload, s.payload);
                    }
                    slot = nxt;
                }
            }
        }
    }

    /// Length of the longest chain (diagnostic), counted by the inserts;
    /// call after all inserts complete.
    pub fn max_chain_len(&self) -> usize {
        self.max_chain_len.load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin_common::CountingSink;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

    fn tuples_with_keys(keys: &[u32]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u32))
            .collect()
    }

    #[test]
    fn probe_finds_all_matches() {
        let build = tuples_with_keys(&[1, 2, 1, 3, 1]);
        let table = ChainedTable::build(&build, 22);
        let mut payloads = Vec::new();
        table.probe(1, |t| payloads.push(t.payload));
        payloads.sort_unstable();
        assert_eq!(payloads, vec![0, 2, 4]);
        let mut none = 0;
        table.probe(99, |_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn probe_all_counts_cross_products() {
        let build = tuples_with_keys(&[5, 5, 6]);
        let probe = tuples_with_keys(&[5, 6, 6, 7]);
        let table = ChainedTable::build(&build, 22);
        let mut sink = CountingSink::new();
        table.probe_all(&probe, &mut sink);
        // key 5: 2 × 1, key 6: 1 × 2, key 7: 0.
        assert_eq!(sink.count(), 4);
    }

    #[test]
    fn empty_build_side() {
        let table = ChainedTable::build(&[], 22);
        let mut hits = 0;
        table.probe(1, |_| hits += 1);
        assert_eq!(hits, 0);
        assert!(table.num_buckets() >= 2);
    }

    #[test]
    fn skewed_keys_make_long_chains() {
        let build = tuples_with_keys(&vec![42u32; 1000]);
        let table = ChainedTable::build(&build, 22);
        assert_eq!(table.max_chain_len(), 1000);
    }

    /// Longest chain found by walking every bucket from its head: the
    /// oracle the build-time count must equal.
    fn walked_max_chain_len(heads: impl Iterator<Item = u32>, next: impl Fn(u32) -> u32) -> usize {
        let mut max = 0;
        for mut slot in heads {
            let mut len = 0;
            while slot != 0 {
                len += 1;
                slot = next(slot);
            }
            max = max.max(len);
        }
        max
    }

    /// Build sides covering an empty build, one key × 1000, and 2^12
    /// tuples at θ0 and θ1.
    fn chain_cases() -> Vec<(String, Vec<Tuple>)> {
        let zipf = |theta: f64| {
            let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 12, theta, 31));
            w.r.tuples().to_vec()
        };
        vec![
            ("empty".into(), Vec::new()),
            ("one key x 1000".into(), tuples_with_keys(&[42; 1000])),
            ("uniform 2^12".into(), zipf(0.0)),
            ("zipf-1 2^12".into(), zipf(1.0)),
        ]
    }

    #[test]
    fn counted_max_chain_len_equals_a_walk() {
        for (name, build) in chain_cases() {
            for bits in [4, 22] {
                let table = ChainedTable::build(&build, bits);
                let walked = walked_max_chain_len(table.buckets.iter().map(|&w| head(w)), |slot| {
                    table.next[(slot - 1) as usize]
                });
                assert_eq!(table.max_chain_len(), walked, "{name}, {bits} bits");
            }
        }
    }

    #[test]
    fn concurrent_counted_max_chain_len_equals_a_walk() {
        for (name, build) in chain_cases() {
            for bits in [4, 22] {
                let conc = ConcurrentChainedTable::sized(&build, bits);
                std::thread::scope(|scope| {
                    for w in 0..4 {
                        let conc = &conc;
                        let range = crate::util::segment(build.len(), 4, w);
                        scope.spawn(move || conc.insert_range(range));
                    }
                });
                let heads = conc.buckets.iter().map(|w| head(w.load(Ordering::Acquire)));
                let walked = walked_max_chain_len(heads, |slot| {
                    conc.next[(slot - 1) as usize].load(Ordering::Relaxed)
                });
                assert_eq!(conc.max_chain_len(), walked, "{name}, {bits} bits");
                let seq = ChainedTable::build(&build, bits);
                assert_eq!(
                    conc.max_chain_len(),
                    seq.max_chain_len(),
                    "{name}, {bits} bits"
                );
            }
        }
    }

    #[test]
    fn concurrent_build_matches_sequential() {
        let keys: Vec<u32> = (0..10_000).map(|i| i % 257).collect();
        let build = tuples_with_keys(&keys);
        let conc = ConcurrentChainedTable::sized(&build, 22);
        let n = build.len();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let conc = &conc;
                scope.spawn(move || {
                    conc.insert_range(crate::util::segment(n, 4, w));
                });
            }
        });
        let seq = ChainedTable::build(&build, 22);
        for key in 0..257u32 {
            let mut a = Vec::new();
            conc.probe(key, |t| a.push(t.payload));
            let mut b = Vec::new();
            seq.probe(key, |t| b.push(t.payload));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "key {key}");
        }
    }

    #[test]
    fn simd_probe_matches_scalar_probe() {
        let level = crate::simd::SimdPolicy::Auto.resolve();
        // Boundary probe sizes around both candidate lane widths, plus a
        // run long enough to exercise full batches and chains.
        let build_keys: Vec<u32> = (0..2000u32).map(|i| i % 97).collect();
        let build = tuples_with_keys(&build_keys);
        let table = ChainedTable::build(&build, 8);
        let conc = ConcurrentChainedTable::sized(&build, 8);
        conc.insert_range(0..build.len());
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1000] {
            let probe_keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(31) % 120).collect();
            let probe = tuples_with_keys(&probe_keys);
            let mut scalar = CountingSink::new();
            table.probe_all(&probe, &mut scalar);
            let mut cvector = CountingSink::new();
            conc.probe_all_with(&probe, &mut cvector, level);
            assert_eq!(scalar.count(), cvector.count(), "concurrent n={n}");
            assert_eq!(scalar.checksum(), cvector.checksum(), "concurrent n={n}");
        }
    }

    #[test]
    fn build_len_guard_at_the_encoding_boundary() {
        // The check itself at the exact boundary (allocating 4G tuples to
        // drive the real constructor over the edge is not feasible in a
        // unit test, and the check is the single gate both builders share).
        assert!(check_build_len(MAX_BUILD_TUPLES, "chained table").is_ok());
        let err = check_build_len(MAX_BUILD_TUPLES + 1, "chained table").unwrap_err();
        match err {
            JoinError::InvalidInput(msg) => {
                assert!(msg.contains("slot encoding"), "unexpected message: {msg}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // One past the boundary is precisely where `(i + 1) as u32` would
        // wrap onto the 0 = empty sentinel.
        assert_eq!((MAX_BUILD_TUPLES + 1) as u32, u32::MAX);
        assert_eq!(((MAX_BUILD_TUPLES + 1) + 1) as u32, 0);
    }

    #[test]
    fn try_builders_accept_small_inputs() {
        let build = tuples_with_keys(&[1, 2, 3]);
        assert!(ChainedTable::try_build(&build, 22).is_ok());
        assert!(ChainedTable::try_build_with_bits(&build, 4).is_ok());
        assert!(ConcurrentChainedTable::try_sized(&build, 22).is_ok());
        assert!(ConcurrentChainedTable::try_with_bits(&build, 4).is_ok());
    }

    #[test]
    fn build_with_explicit_bits() {
        let build = tuples_with_keys(&[1, 2, 3]);
        let table = ChainedTable::build_with_bits(&build, 2);
        assert_eq!(table.num_buckets(), 4);
        let mut found = 0;
        for k in [1, 2, 3] {
            table.probe(k, |_| found += 1);
        }
        assert_eq!(found, 3);
    }
}
