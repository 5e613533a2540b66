//! Join output sinks.
//!
//! §III of the paper: "In the volcano-style query processing, the join
//! output is often consumed by an upper level query operator. To model this
//! behavior, we allocate a join output buffer per CPU thread or GPU thread
//! block and overwrite the buffer repeatedly when it is full." —
//! [`VolcanoSink`] implements exactly that. [`CountingSink`] keeps only the
//! count and an order-independent checksum (the cheapest possible consumer),
//! and [`MaterializeSink`] collects all output tuples for correctness tests.
//!
//! Every sink maintains the same count + checksum pair, so algorithms with
//! different output *orders* (radix vs no-partition vs GPU) can still be
//! compared for exact result-set equality.
//!
//! The skew-conscious joins emit a hot key's output a run at a time
//! ([`OutputSink::emit_r_run`], [`OutputSink::emit_s_run`]), and under
//! product skew those runs are nearly all of the output. [`CountingSink`]
//! and [`KeyCountSink`] checksum a run in one call ([`r_run_checksum`],
//! [`s_run_checksum`]): one plain fold compiled three ways — AVX-512DQ,
//! AVX2 and baseline — with the widest the CPU reports chosen once per
//! process. The per-result [`tuple_mix`] stays the specification; the run
//! kernels are bit-identical to summing it.

use std::collections::BTreeMap;

use crate::hash::mix64;
use crate::tuple::{Key, Payload, Tuple};

/// One join result tuple: the matching key plus both payloads.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutputTuple {
    /// The join key both sides matched on.
    pub key: Key,
    /// Payload from the R (build) side.
    pub r_payload: Payload,
    /// Payload from the S (probe) side.
    pub s_payload: Payload,
}

/// Order-independent mix of one output tuple, accumulated by wrapping
/// addition so any emission order yields the same checksum. Public so that
/// custom sinks (e.g. the diffcheck oracle's per-key counting sink) can
/// produce checksums comparable with [`CountingSink`].
#[inline(always)]
pub fn tuple_mix(key: Key, r_payload: Payload, s_payload: Payload) -> u64 {
    let a = ((key as u64) << 32) | r_payload as u64;
    mix64(a ^ mix64(s_payload as u64))
}

/// The wrapping sum of [`tuple_mix`] over a run of R tuples that share
/// `key`, each crossed with one S payload: bit for bit the checksum the
/// per-result loop of [`OutputSink::emit_r_run`]'s default adds.
#[inline]
pub fn r_run_checksum(key: Key, r_tuples: &[Tuple], s_payload: Payload) -> u64 {
    run_checksum::<true>(key, r_tuples, s_payload)
}

/// The wrapping sum of [`tuple_mix`] over one R payload crossed with a run
/// of S tuples that share `key`: bit for bit the checksum the per-result
/// loop of [`OutputSink::emit_s_run`]'s default adds.
#[inline]
pub fn s_run_checksum(key: Key, r_payload: Payload, s_tuples: &[Tuple]) -> u64 {
    run_checksum::<false>(key, s_tuples, r_payload)
}

/// Runs shorter than one AVX-512 vector of `u64` lanes skip the dispatch
/// and take the inline loop (`uniform`'s hot keys have runs of 1–2).
const VECTOR_RUN: usize = 8;

#[inline]
fn run_checksum<const R_RUN: bool>(key: Key, run: &[Tuple], fixed: Payload) -> u64 {
    if run.len() < VECTOR_RUN {
        fold_run::<R_RUN>(key, run, fixed)
    } else {
        RunKernel::detect().fold::<R_RUN>(key, run, fixed)
    }
}

/// The one body every [`RunKernel`] compiles: `run` is the R side when
/// `R_RUN`, else the S side, and `fixed` is the other side's payload.
/// Written as a plain fold so LLVM vectorises it for whatever target
/// features the enclosing function enables.
#[inline(always)]
fn fold_run<const R_RUN: bool>(key: Key, run: &[Tuple], fixed: Payload) -> u64 {
    let high = u64::from(key) << 32;
    if R_RUN {
        let s_mix = mix64(u64::from(fixed));
        run.iter().fold(0u64, |sum, r| {
            sum.wrapping_add(mix64((high | u64::from(r.payload)) ^ s_mix))
        })
    } else {
        let a = high | u64::from(fixed);
        run.iter().fold(0u64, |sum, s| {
            sum.wrapping_add(mix64(a ^ mix64(u64::from(s.payload))))
        })
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fold_run_avx512<const R_RUN: bool>(key: Key, run: &[Tuple], fixed: Payload) -> u64 {
    fold_run::<R_RUN>(key, run, fixed)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_run_avx2<const R_RUN: bool>(key: Key, run: &[Tuple], fixed: Payload) -> u64 {
    fold_run::<R_RUN>(key, run, fixed)
}

/// Which compilation of [`fold_run`] the run checksums execute. Baseline
/// x86-64 (SSE2) has no 64-bit vector multiply, so the plain body's
/// vectorised `mix64` is slower there than AVX2's and far slower than
/// AVX-512DQ's native `vpmullq`.
///
/// A wide variant is only made where the CPU reported its features at
/// runtime (`detect`, and the tests' `supported_kernels`); `fold`'s unsafe
/// calls rely on that, so the type stays private to this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKernel {
    Plain,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl RunKernel {
    /// The widest kernel this machine supports, detected once per process.
    fn detect() -> Self {
        use std::sync::OnceLock;
        static KERNEL: OnceLock<RunKernel> = OnceLock::new();
        *KERNEL.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                {
                    return RunKernel::Avx512;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return RunKernel::Avx2;
                }
            }
            RunKernel::Plain
        })
    }

    #[inline]
    fn fold<const R_RUN: bool>(self, key: Key, run: &[Tuple], fixed: Payload) -> u64 {
        match self {
            RunKernel::Plain => fold_run::<R_RUN>(key, run, fixed),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: this variant exists only after the CPU reported
            // AVX-512F and AVX-512DQ at runtime (see the type's doc).
            RunKernel::Avx512 => unsafe { fold_run_avx512::<R_RUN>(key, run, fixed) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: this variant exists only after the CPU reported AVX2
            // at runtime (see the type's doc).
            RunKernel::Avx2 => unsafe { fold_run_avx2::<R_RUN>(key, run, fixed) },
        }
    }
}

/// A consumer of join results.
///
/// Join kernels are generic over the sink so the per-tuple `emit` call
/// monomorphizes and inlines; sinks are per-thread (CPU) or per-block (GPU)
/// and merged afterwards via [`OutputSink::count`] / [`OutputSink::checksum`].
pub trait OutputSink: Send {
    /// Consumes one join result.
    fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload);

    /// Emits the cross product of a run of R tuples that all share `key`
    /// with one S tuple: CSH's hot S tuples against R's hot run, spill's
    /// hot blocks, and the cluster shards' hot keys. The default loops over
    /// [`OutputSink::emit`]; a sink may override it with a bulk path that
    /// must consume the same results (the run tuples' own keys are not
    /// read). [`CountingSink`] and [`KeyCountSink`] add
    /// [`r_run_checksum`].
    #[inline]
    fn emit_r_run(&mut self, key: Key, r_tuples: &[Tuple], s_payload: Payload) {
        for r in r_tuples {
            self.emit(key, r.payload, s_payload);
        }
    }

    /// Emits the cross product of one R tuple with a run of S tuples that
    /// all share `key`: GSH's skew block, which streams the skewed S array
    /// against its one R tuple. The default loops over
    /// [`OutputSink::emit`]; overrides follow [`OutputSink::emit_r_run`]'s
    /// rule, and [`CountingSink`] and [`KeyCountSink`] add
    /// [`s_run_checksum`].
    #[inline]
    fn emit_s_run(&mut self, key: Key, r_payload: Payload, s_tuples: &[Tuple]) {
        for s in s_tuples {
            self.emit(key, r_payload, s.payload);
        }
    }

    /// Total results consumed so far.
    fn count(&self) -> u64;

    /// Order-independent checksum of all results consumed so far.
    fn checksum(&self) -> u64;
}

/// Counts results and accumulates the checksum; stores nothing.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    count: u64,
    checksum: u64,
}

impl CountingSink {
    /// Creates an empty counting sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OutputSink for CountingSink {
    #[inline(always)]
    fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload) {
        self.count += 1;
        self.checksum = self
            .checksum
            .wrapping_add(tuple_mix(key, r_payload, s_payload));
    }

    #[inline]
    fn emit_r_run(&mut self, key: Key, r_tuples: &[Tuple], s_payload: Payload) {
        self.count += r_tuples.len() as u64;
        self.checksum = self
            .checksum
            .wrapping_add(r_run_checksum(key, r_tuples, s_payload));
    }

    #[inline]
    fn emit_s_run(&mut self, key: Key, r_payload: Payload, s_tuples: &[Tuple]) {
        self.count += s_tuples.len() as u64;
        self.checksum = self
            .checksum
            .wrapping_add(s_run_checksum(key, r_payload, s_tuples));
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// The paper's volcano-model consumer: a fixed-capacity ring buffer that is
/// overwritten once full, so join output bandwidth is exercised without
/// unbounded allocation.
///
/// Unlike the other sinks this one does **not** compute a checksum — the
/// paper's consumer only writes the output buffer, and keeping the
/// benchmarked emit path free of hashing keeps the measured cost honest.
/// [`VolcanoSink::checksum`] therefore returns 0; use [`CountingSink`] when
/// cross-validating result sets.
#[derive(Debug, Clone)]
pub struct VolcanoSink {
    buffer: Vec<OutputTuple>,
    capacity: usize,
    cursor: usize,
    count: u64,
}

impl VolcanoSink {
    /// Creates a sink whose ring buffer holds `capacity` output tuples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "volcano buffer capacity must be positive");
        Self {
            buffer: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
            count: 0,
        }
    }

    /// The buffer's most recent contents (up to `capacity` tuples, oldest
    /// overwritten first).
    pub fn buffer(&self) -> &[OutputTuple] {
        &self.buffer
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl OutputSink for VolcanoSink {
    #[inline(always)]
    fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload) {
        let out = OutputTuple {
            key,
            r_payload,
            s_payload,
        };
        if self.buffer.len() < self.capacity {
            self.buffer.push(out);
        } else {
            self.buffer[self.cursor] = out;
        }
        self.cursor += 1;
        if self.cursor == self.capacity {
            self.cursor = 0;
        }
        self.count += 1;
    }

    fn count(&self) -> u64 {
        self.count
    }

    /// Always 0 — see the type-level note.
    fn checksum(&self) -> u64 {
        0
    }
}

/// Materializes every output tuple; for correctness tests at small scale.
#[derive(Debug, Default, Clone)]
pub struct MaterializeSink {
    results: Vec<OutputTuple>,
    checksum: u64,
}

impl MaterializeSink {
    /// Creates an empty materializing sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All collected output tuples, in emission order.
    pub fn results(&self) -> &[OutputTuple] {
        &self.results
    }

    /// Consumes the sink, returning the output tuples.
    pub fn into_results(self) -> Vec<OutputTuple> {
        self.results
    }
}

impl OutputSink for MaterializeSink {
    #[inline(always)]
    fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload) {
        self.results.push(OutputTuple {
            key,
            r_payload,
            s_payload,
        });
        self.checksum = self
            .checksum
            .wrapping_add(tuple_mix(key, r_payload, s_payload));
    }

    fn count(&self) -> u64 {
        self.results.len() as u64
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// A sink that counts results *per key* (plus the usual total/checksum).
///
/// Two consumers depend on per-key granularity: the diffcheck oracle
/// localizes a divergence to the specific key that lost or gained results,
/// and the cluster coordinator merges per-shard key counts to verify a
/// sharded join against single-node ground truth.
///
/// Chain walks and the skew paths emit a key's matches back to back, so
/// the sink counts the current run of one key and, when the key changes,
/// appends the closed `(key, count)` run to a log: a sequential write, not
/// a probe into a table that misses the cache once the keys outgrow it.
/// Once the log is longer than twice its last compacted length plus
/// [`LOG_SLACK`] entries, it is sorted by key and equal keys are folded,
/// so it never holds more than `2 × distinct keys + LOG_SLACK` entries.
/// Reads ([`KeyCountSink::sorted_counts`]) sort and fold a copy once.
#[derive(Debug, Default, Clone)]
pub struct KeyCountSink {
    /// Closed runs: a key-sorted, folded prefix of `compacted` entries,
    /// then the runs closed since, in emission order.
    log: Vec<(Key, u64)>,
    /// The log's length after its last compaction.
    compacted: usize,
    /// The key of the current run and its results not yet in `log`
    /// (a zero count means no run is open).
    run: (Key, u64),
    total: u64,
    checksum: u64,
}

/// Entries a [`KeyCountSink`] log may grow by past twice its compacted
/// length before it is compacted again: small logs are never sorted, and
/// a log of `n` distinct keys is sorted about `log2(n / LOG_SLACK)` times.
const LOG_SLACK: usize = 4096;

impl KeyCountSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-key result counts, ordered by key.
    pub fn counts(&self) -> BTreeMap<Key, u64> {
        self.sorted_counts().into_iter().collect()
    }

    /// Per-key result counts as `(key, count)` pairs in ascending key
    /// order, every count non-zero.
    pub fn sorted_counts(&self) -> Vec<(Key, u64)> {
        let mut counts = Vec::with_capacity(self.log.len() + 1);
        counts.extend_from_slice(&self.log);
        if self.run.1 > 0 {
            counts.push(self.run);
        }
        sort_and_fold(&mut counts);
        counts
    }

    #[inline]
    fn count_run(&mut self, key: Key, n: u64) {
        let (run_key, pending) = self.run;
        if run_key == key {
            self.run.1 += n;
        } else {
            if pending > 0 {
                self.log.push((run_key, pending));
                if self.log.len() > 2 * self.compacted + LOG_SLACK {
                    self.compact();
                }
            }
            self.run = (key, n);
        }
    }

    #[cold]
    #[inline(never)]
    fn compact(&mut self) {
        sort_and_fold(&mut self.log);
        self.compacted = self.log.len();
    }
}

/// Sorts `(key, count)` entries by key and folds each key's entries into
/// one holding their summed count. The sort is a least-significant-digit
/// radix sort over the key's four bytes, skipping a byte that every key
/// shares, so it reads and writes the entries sequentially.
fn sort_and_fold(entries: &mut Vec<(Key, u64)>) {
    let n = entries.len();
    let mut histograms = [[0usize; 256]; 4];
    for &(key, _) in entries.iter() {
        for (byte, histogram) in histograms.iter_mut().enumerate() {
            histogram[(key >> (8 * byte)) as usize & 0xFF] += 1;
        }
    }
    let mut scratch = vec![(0, 0); n];
    for (byte, histogram) in histograms.iter().enumerate() {
        if histogram.contains(&n) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (slot, &c) in next.iter_mut().zip(histogram) {
            *slot = start;
            start += c;
        }
        for &entry in entries.iter() {
            let slot = &mut next[(entry.0 >> (8 * byte)) as usize & 0xFF];
            scratch[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(entries, &mut scratch);
    }
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

impl OutputSink for KeyCountSink {
    #[inline]
    fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload) {
        self.count_run(key, 1);
        self.total += 1;
        self.checksum = self
            .checksum
            .wrapping_add(tuple_mix(key, r_payload, s_payload));
    }

    #[inline]
    fn emit_r_run(&mut self, key: Key, r_tuples: &[Tuple], s_payload: Payload) {
        self.count_run(key, r_tuples.len() as u64);
        self.total += r_tuples.len() as u64;
        self.checksum = self
            .checksum
            .wrapping_add(r_run_checksum(key, r_tuples, s_payload));
    }

    #[inline]
    fn emit_s_run(&mut self, key: Key, r_payload: Payload, s_tuples: &[Tuple]) {
        self.count_run(key, s_tuples.len() as u64);
        self.total += s_tuples.len() as u64;
        self.checksum = self
            .checksum
            .wrapping_add(s_run_checksum(key, r_payload, s_tuples));
    }

    fn count(&self) -> u64 {
        self.total
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Merges per-worker key counts into one map.
pub fn merge_key_counts(sinks: &[KeyCountSink]) -> BTreeMap<Key, u64> {
    sorted_key_counts(sinks).into_iter().collect()
}

/// Merges per-worker key counts into one key-sorted `Vec`.
pub fn sorted_key_counts(sinks: &[KeyCountSink]) -> Vec<(Key, u64)> {
    merge_sorted_counts(sinks.iter().map(KeyCountSink::sorted_counts).collect())
}

/// Merges lists of `(key, count)` pairs, each in strictly ascending key
/// order, into one such list; a key in several lists gets the sum of its
/// counts. Lists are merged pairwise, so `k` lists of `n` pairs in all
/// cost `O(n log k)`.
pub fn merge_sorted_counts(mut lists: Vec<Vec<(Key, u64)>>) -> Vec<(Key, u64)> {
    lists.retain(|list| !list.is_empty());
    while lists.len() > 1 {
        let mut merged = Vec::with_capacity(lists.len().div_ceil(2));
        let mut pending = lists.into_iter();
        while let Some(a) = pending.next() {
            merged.push(match pending.next() {
                Some(b) => merge_two(&a, &b),
                None => a,
            });
        }
        lists = merged;
    }
    lists.pop().unwrap_or_default()
}

fn merge_two(a: &[(Key, u64)], b: &[(Key, u64)]) -> Vec<(Key, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Declarative sink selection for the top-level join APIs, which construct
/// one sink per worker from this spec and merge the counts afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkSpec {
    /// Count + checksum only.
    Count,
    /// Volcano-style ring buffer of the given per-worker capacity.
    Volcano {
        /// Ring capacity in output tuples (per worker).
        capacity: usize,
    },
}

impl Default for SinkSpec {
    fn default() -> Self {
        // The paper's evaluation consumes output through a per-worker buffer;
        // 1024 tuples (12 KB) mirrors a cache-resident operator boundary.
        SinkSpec::Volcano { capacity: 1024 }
    }
}

/// Builds one output sink per worker (CPU thread or GPU SM slot).
///
/// This is the sink plumbing shared by every join entry point — the CPU
/// joins, `gbase_join`/`gsh_join`, and the `run_join` front door all take a
/// `SinkFactory`. Implemented for any `Fn(usize) -> S + Sync` closure, so
/// `csh_join(r, s, &cfg, |_w| CountingSink::new())` works directly; named
/// factories ([`CountSinkFactory`], [`VolcanoSinkFactory`]) cover the
/// [`SinkSpec`] cases.
pub trait SinkFactory: Sync {
    /// The sink type each worker receives.
    type Sink: OutputSink;

    /// Constructs worker `worker`'s sink.
    fn make_sink(&self, worker: usize) -> Self::Sink;
}

impl<S: OutputSink, F: Fn(usize) -> S + Sync> SinkFactory for F {
    type Sink = S;

    fn make_sink(&self, worker: usize) -> S {
        self(worker)
    }
}

/// [`SinkFactory`] for [`SinkSpec::Count`]: counting sinks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSinkFactory;

impl SinkFactory for CountSinkFactory {
    type Sink = CountingSink;

    fn make_sink(&self, _worker: usize) -> CountingSink {
        CountingSink::new()
    }
}

/// [`SinkFactory`] for [`SinkSpec::Volcano`]: fixed-capacity volcano sinks.
#[derive(Debug, Clone, Copy)]
pub struct VolcanoSinkFactory {
    /// Tuple capacity of each worker's output buffer.
    pub capacity: usize,
}

impl SinkFactory for VolcanoSinkFactory {
    type Sink = VolcanoSink;

    fn make_sink(&self, _worker: usize) -> VolcanoSink {
        VolcanoSink::new(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_count_runs_match_a_per_result_map() {
        // Interleaved keys, back-to-back runs, bulk runs and key 0 (the
        // cache's initial key), split over three sinks one of which stays
        // empty; every read must equal a map touched once per result.
        let emits: &[(usize, Key, u64)] = &[
            (0, 0, 1),
            (0, 5, 3),
            (0, 0, 2),
            (2, 5, 1),
            (0, 5, 1),
            (2, 9, 4),
            (2, 9, 1),
            (0, 2, 1),
        ];
        let mut sinks = vec![
            KeyCountSink::new(),
            KeyCountSink::new(),
            KeyCountSink::new(),
        ];
        let mut expected: BTreeMap<Key, u64> = BTreeMap::new();
        let mut reference = CountingSink::new();
        for &(slot, key, n) in emits {
            let sink = &mut sinks[slot];
            if n > 2 {
                let run: Vec<Tuple> = (0..n as u32).map(|p| Tuple::new(key, p)).collect();
                sink.emit_r_run(key, &run, 7);
                for t in &run {
                    reference.emit(key, t.payload, 7);
                }
            } else {
                for p in 0..n as u32 {
                    sink.emit(key, p, 7);
                    reference.emit(key, p, 7);
                }
            }
            *expected.entry(key).or_insert(0) += n;
        }
        assert!(sinks[1].counts().is_empty());
        assert_eq!(merge_key_counts(&sinks[1..2]), BTreeMap::new());
        let merged = merge_key_counts(&sinks);
        assert_eq!(merged, expected);
        let mut by_sink = sinks[0].counts();
        for (k, c) in sinks[2].counts() {
            *by_sink.entry(k).or_insert(0) += c;
        }
        assert_eq!(by_sink, expected);
        // A read folds without consuming: reading twice and emitting after
        // a read stay consistent.
        assert_eq!(sinks[0].counts(), sinks[0].counts());
        sinks[0].emit(9, 0, 0);
        *expected.entry(9).or_insert(0) += 1;
        reference.emit(9, 0, 0);
        assert_eq!(merge_key_counts(&sinks), expected);
        let total: u64 = sinks.iter().map(OutputSink::count).sum();
        let checksum = sinks
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.checksum()));
        assert_eq!((total, checksum), (reference.count(), reference.checksum()));
    }

    #[test]
    fn key_count_table_matches_a_map_over_seeded_sequences() {
        // splitmix64, so the sequences need no generator crate.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::hash::mix64(state)
        };
        // The empty sink reads as empty every way.
        let empty = KeyCountSink::new();
        assert!(empty.sorted_counts().is_empty());
        assert!(empty.counts().is_empty());
        assert!(sorted_key_counts(&[empty.clone(), empty]).is_empty());

        for (case, distinct) in [4u64, 300, 5_000, 40_000].into_iter().enumerate() {
            let mut sink = KeyCountSink::new();
            let mut expected: BTreeMap<Key, u64> = BTreeMap::new();
            let mut reference = CountingSink::new();
            for step in 0..3 * distinct {
                // Keys 0 and u32::MAX recur; the rest spread over the whole
                // key range, so the table grows several times.
                let key = match next() % 8 {
                    0 => 0,
                    1 => u32::MAX,
                    _ => (next() % distinct) as u32 * (u32::MAX / distinct as u32),
                };
                let n = next() % 4;
                if step % 3 == 0 {
                    let run: Vec<Tuple> = (0..n as u32).map(|p| Tuple::new(key, p)).collect();
                    sink.emit_r_run(key, &run, 11);
                    for t in &run {
                        reference.emit(key, t.payload, 11);
                    }
                } else {
                    for p in 0..n as u32 {
                        sink.emit(key, p, 3);
                        reference.emit(key, p, 3);
                    }
                }
                if n > 0 {
                    *expected.entry(key).or_insert(0) += n;
                }
            }
            let sorted = sink.sorted_counts();
            assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0), "case {case}");
            assert!(sorted.iter().all(|&(_, c)| c > 0), "case {case}");
            assert_eq!(sorted.into_iter().collect::<BTreeMap<_, _>>(), expected);
            assert_eq!(sink.counts(), expected, "case {case}");
            assert_eq!(sink.count(), reference.count(), "case {case}");
            assert_eq!(sink.checksum(), reference.checksum(), "case {case}");
        }
    }

    #[test]
    fn key_count_log_compacts_within_its_bound() {
        // 120 000 distinct keys, each a run of one to three results, with
        // a hot key between every two of them: the log crosses its
        // compaction threshold many times, and every emit kind feeds it.
        const HOT: Key = 0x8000_0000;
        let mut sink = KeyCountSink::new();
        let mut expected: BTreeMap<Key, u64> = BTreeMap::new();
        let mut reference = CountingSink::new();
        let mut compactions = 0;
        for i in 0..120_000u32 {
            // Spread the cold keys over all four key bytes.
            let cold = i.wrapping_mul(0x9E37_79B1) & !HOT;
            let compacted = sink.compacted;
            for (key, len) in [(cold, 1 + i % 3), (HOT, 1 + i % 2)] {
                let run: Vec<Tuple> = (0..len).map(|p| Tuple::new(key, p)).collect();
                match i % 3 {
                    0 => run.iter().for_each(|t| sink.emit(key, t.payload, i)),
                    1 => sink.emit_r_run(key, &run, i),
                    _ => sink.emit_s_run(key, i, &run),
                }
                for t in &run {
                    match i % 3 {
                        2 => reference.emit(key, i, t.payload),
                        _ => reference.emit(key, t.payload, i),
                    }
                }
                *expected.entry(key).or_insert(0) += u64::from(len);
            }
            assert!(
                sink.log.len() <= 2 * expected.len() + LOG_SLACK,
                "log of {} entries over {} keys",
                sink.log.len(),
                expected.len()
            );
            compactions += usize::from(sink.compacted != compacted);
        }
        assert!(compactions >= 5, "{compactions} compactions");
        assert_eq!(sink.counts(), expected);
        assert_eq!(
            (sink.count(), sink.checksum()),
            (reference.count(), reference.checksum())
        );
    }

    #[test]
    fn sorted_merge_sums_shared_keys() {
        let lists = vec![
            vec![(0, 1), (5, 2), (u32::MAX, 3)],
            vec![],
            vec![(1, 1), (5, 1)],
            vec![(u32::MAX, 1)],
        ];
        assert_eq!(
            merge_sorted_counts(lists),
            vec![(0, 1), (1, 1), (5, 3), (u32::MAX, 4)]
        );
        assert!(merge_sorted_counts(Vec::new()).is_empty());
    }

    #[test]
    fn counting_sink_counts_and_checksums() {
        let mut s = CountingSink::new();
        s.emit(1, 2, 3);
        s.emit(4, 5, 6);
        assert_eq!(s.count(), 2);
        assert_ne!(s.checksum(), 0);
    }

    #[test]
    fn checksum_is_order_independent() {
        let mut a = CountingSink::new();
        a.emit(1, 2, 3);
        a.emit(4, 5, 6);
        a.emit(1, 2, 3); // duplicates accumulate
        let mut b = CountingSink::new();
        b.emit(4, 5, 6);
        b.emit(1, 2, 3);
        b.emit(1, 2, 3);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn checksum_distinguishes_different_sets() {
        let mut a = CountingSink::new();
        a.emit(1, 2, 3);
        let mut b = CountingSink::new();
        b.emit(1, 3, 2); // swapped payloads must differ
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn volcano_overwrites_when_full() {
        let mut s = VolcanoSink::new(2);
        s.emit(1, 0, 0);
        s.emit(2, 0, 0);
        s.emit(3, 0, 0); // overwrites slot 0
        assert_eq!(s.count(), 3);
        assert_eq!(s.buffer().len(), 2);
        assert_eq!(s.buffer()[0].key, 3);
        assert_eq!(s.buffer()[1].key, 2);
    }

    #[test]
    fn volcano_count_matches_counting_sink() {
        let mut v = VolcanoSink::new(1);
        let mut c = CountingSink::new();
        for i in 0..100u32 {
            v.emit(i, i + 1, i + 2);
            c.emit(i, i + 1, i + 2);
        }
        assert_eq!(v.count(), c.count());
        // Volcano deliberately skips checksumming (paper consumer model).
        assert_eq!(v.checksum(), 0);
    }

    #[test]
    fn materialize_collects_everything() {
        let mut m = MaterializeSink::new();
        m.emit(9, 8, 7);
        assert_eq!(m.results().len(), 1);
        assert_eq!(m.results()[0].key, 9);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn emit_r_run_matches_loop() {
        // A run under the vector width and one over it, both shapes.
        for len in [5u32, 40] {
            let run: Vec<Tuple> = (0..len).map(|i| Tuple::new(42, i * 3)).collect();
            let mut bulk = CountingSink::new();
            bulk.emit_r_run(42, &run, 7);
            bulk.emit_s_run(42, 7, &run);
            let mut single = CountingSink::new();
            for t in &run {
                single.emit(42, t.payload, 7);
                single.emit(42, 7, t.payload);
            }
            assert_eq!(bulk.count(), single.count());
            assert_eq!(bulk.checksum(), single.checksum());
        }
    }

    /// Every kernel this host can run; the plain body always.
    fn supported_kernels() -> Vec<RunKernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![RunKernel::Plain];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(RunKernel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                kernels.push(RunKernel::Avx512);
            }
        }
        assert!(kernels.contains(&RunKernel::detect()));
        kernels
    }

    #[test]
    fn run_kernels_match_a_plain_tuple_mix_fold() {
        let mut state = 0x0BAD_5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::hash::mix64(state) as u32
        };
        let kernels = supported_kernels();
        // Every length to 70 covers 0, the 4- and 8-lane widths ±1 and
        // several vectors plus a tail.
        for len in 0..=70usize {
            for key in [0, u32::MAX, next()] {
                for extreme in [0, u32::MAX, 1 << 31] {
                    // Seeded payloads with the extreme at both ends.
                    let run: Vec<Tuple> = (0..len)
                        .map(|i| match i {
                            0 => extreme,
                            _ if i + 1 == len => !extreme,
                            _ => next(),
                        })
                        .map(|payload| Tuple::new(key, payload))
                        .collect();
                    for fixed in [extreme, next()] {
                        let r_run = run.iter().fold(0u64, |acc, r| {
                            acc.wrapping_add(tuple_mix(key, r.payload, fixed))
                        });
                        let s_run = run.iter().fold(0u64, |acc, s| {
                            acc.wrapping_add(tuple_mix(key, fixed, s.payload))
                        });
                        for &kernel in &kernels {
                            let case = format!("{kernel:?} len {len} key {key} fixed {fixed}");
                            assert_eq!(kernel.fold::<true>(key, &run, fixed), r_run, "{case}");
                            assert_eq!(kernel.fold::<false>(key, &run, fixed), s_run, "{case}");
                        }
                        assert_eq!(r_run_checksum(key, &run, fixed), r_run, "len {len}");
                        assert_eq!(s_run_checksum(key, fixed, &run), s_run, "len {len}");
                    }
                }
            }
        }
    }

    /// A sink that keeps only the trait's default run loops.
    struct DefaultRuns(KeyCountSink);

    impl OutputSink for DefaultRuns {
        fn emit(&mut self, key: Key, r_payload: Payload, s_payload: Payload) {
            self.0.emit(key, r_payload, s_payload);
        }

        fn count(&self) -> u64 {
            self.0.count()
        }

        fn checksum(&self) -> u64 {
            self.0.checksum()
        }
    }

    #[test]
    fn key_count_s_runs_add_their_length_and_match_the_default_loop() {
        let mut bulk = KeyCountSink::new();
        let mut looped = DefaultRuns(KeyCountSink::new());
        let runs: &[(Key, u32, usize)] = &[
            (3, 1, 20),
            (3, 2, 0),
            (u32::MAX, 9, 5),
            (3, 4, 9),
            (0, 7, 64),
        ];
        for &(key, r_payload, len) in runs {
            let s_run: Vec<Tuple> = (0..len as u32).map(|p| Tuple::new(key, p * 7)).collect();
            bulk.emit_s_run(key, r_payload, &s_run);
            looped.emit_s_run(key, r_payload, &s_run);
            bulk.emit_r_run(key, &s_run, r_payload);
            looped.emit_r_run(key, &s_run, r_payload);
        }
        let expected: BTreeMap<Key, u64> = [(0, 128), (3, 58), (u32::MAX, 10)].into();
        assert_eq!(bulk.counts(), expected);
        assert_eq!(looped.0.counts(), expected);
        assert_eq!(bulk.count(), 196);
        assert_eq!(
            (bulk.count(), bulk.checksum()),
            (looped.count(), looped.checksum())
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn volcano_rejects_zero_capacity() {
        let _ = VolcanoSink::new(0);
    }
}
