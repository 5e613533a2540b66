//! Out-of-core **grace-hash join**: the bottom rung of the degradation
//! ladder, completing joins whose footprint exceeds the memory budget. It
//! is a partition-and-reload driver over the one CPU join dispatch: it
//! radix-partitions both relations to disk only to bound memory, then
//! reloads partition pairs one at a time and joins each with the algorithm
//! that was requested — Cbase, cbase-npj or CSH, through its own entry
//! point ([`CpuAlgorithm::run`] sends a spilling join here). The stats
//! report `Grace(<algorithm>)` and fold in every pair's trace, so a spilled
//! CSH shows the keys it treated as hot and its skew-path results.
//!
//! ## Memory budget
//!
//! Everything the spill allocates stays within `mem_budget` (inputs and
//! caller-owned sinks excluded). A pair or an NM block is as large as the
//! requested algorithm's [`CpuAlgorithm::footprint`] allows within the
//! budget less what the spill holds meanwhile.
//!
//! ## On-disk layout
//!
//! One [`ScratchDir`] per execution (removed on every exit path, panics
//! included) holds, per recursion level, a pair of run files per partition
//! (`r_<p>.run` / `s_<p>.run`) and a `MANIFEST`. A run file is a
//! sequence of length-prefixed tuple runs — `[u32 len][len × 8-byte
//! little-endian tuples]` — appended as the bounded scatter buffers fill.
//! The manifest records, per partition side, the tuple count, run count, an
//! order-independent checksum, and the key range; the join phase reloads
//! partitions *through the manifest* and verifies each side against it, so
//! a torn write or bit flip surfaces as a typed [`SpillError`] rather than
//! a wrong answer. The manifest is plain text, a header line with the
//! partition count and one line per partition (about 100 bytes each, where
//! a JSON tree cost over a kilobyte), written crash-safely: to a `.tmp`
//! name, fsynced, then renamed over the final name.
//!
//! ## Partitioning
//!
//! One partitioner, `partition_to_files`, writes level 0 and every
//! recursion level on the [`crate::task`] pool: one task per in-memory
//! `SCATTER_CHUNK_TUPLES` range at level 0, one per parent run at a
//! recursion level. Workers scatter into private bounded buffers sized
//! for `fanout × threads` of them, so the scatter stays within the same
//! budget share at any thread count and at every level.
//!
//! ## Recursion policy
//!
//! A reloaded pair that still exceeds the in-memory budget is re-partitioned
//! with the *next* `partition_bits` bits of [`spill_hash`] (level `d`
//! consumes bits `[d·bits, (d+1)·bits)`), up to `max_recursion` levels. A
//! partition holding a single distinct build key cannot be split by any
//! hash — it routes to an NM-style decomposition instead (R loaded a block
//! at a time, S streamed against each block in chunks, every block and
//! chunk joined by the requested algorithm). A multi-key pair still over budget at the
//! recursion cap (or out of 32-bit hash window) takes the same NM
//! decomposition as a recorded degradation — the join always completes
//! under the budget; it never rejects for data shape.
//!
//! ## Fault model
//!
//! Four failpoints cover the disk surface: [`FAILPOINT_WRITE`],
//! [`FAILPOINT_READ`], [`FAILPOINT_MANIFEST`], and [`FAILPOINT_REMOVE`].
//! The first three flip the corresponding operation into its error arm and
//! surface as [`JoinError::SpillFailed`] (retryable: scratch state is gone
//! by then). A remove fault is absorbed — recorded as a degradation and
//! retried by the scratch guard — because by that point the join result is
//! already correct and complete.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use skewjoin_common::hash::{mix64, radix_pass};
use skewjoin_common::scratch::ScratchDir;
use skewjoin_common::trace::{counter, Rung};
use skewjoin_common::{faults, JoinError, JoinStats, Key, OutputSink, Relation, Trace, Tuple};

use crate::algorithm::CpuAlgorithm;
use crate::config::CpuJoinConfig;
use crate::task::{run_to_completion, TaskQueue};
use crate::{aggregate_sinks, JoinOutcome};

/// Failpoint hit on every spill-file create and append. Firing injects an
/// I/O error into the write path.
pub const FAILPOINT_WRITE: &str = "spill.write";
/// Failpoint hit on every spill-file open and run read. Firing injects an
/// I/O error into the reload path.
pub const FAILPOINT_READ: &str = "spill.read";
/// Failpoint hit on every manifest store and load. Firing injects an I/O
/// error into the manifest path.
pub const FAILPOINT_MANIFEST: &str = "spill.manifest";
/// Failpoint hit on every explicit scratch removal. Firing models a
/// transient unlink failure; the RAII guard's drop retries the removal.
pub const FAILPOINT_REMOVE: &str = "spill.remove";

/// Smallest in-memory budget a spill run accepts: the default 64-way
/// fan-out's bookkeeping, `PARTITION_BYTES` per partition. A wider
/// fan-out needs proportionally more (see [`SpillConfig::validate`]).
pub const MIN_SPILL_BUDGET: u64 = 64 * PARTITION_BYTES;

/// Bytes the spill keeps live while a pair is joined, besides its loaded
/// manifests and runs: two run readers' buffers, the folded trace, the sink
/// slots.
const JOIN_PHASE_RESERVE: u64 = 6 << 10;

/// Read buffer of a run reader. A run larger than this is read straight
/// into its own buffer.
const READ_BUFFER: usize = 1 << 10;

/// Smallest budget per partition of the fan-out: its two run files, its
/// manifest entry and its scatter buffers at their 16-tuple floor.
const PARTITION_BYTES: u64 = 1 << 10;

/// Bytes one partition's entry in a loaded manifest holds: its
/// [`PartitionMeta`] and the two file names.
const MANIFEST_ENTRY_BYTES: u64 = 160;

/// Manifest file name within a level directory.
const MANIFEST_NAME: &str = "MANIFEST";

/// Tuples per streamed input chunk during the level-0 scatter.
const SCATTER_CHUNK_TUPLES: usize = 8 * 1024;

const TUPLE_BYTES: u64 = std::mem::size_of::<Tuple>() as u64;

/// Out-of-core execution knobs, carried in [`CpuJoinConfig::spill`]. `None`
/// there means the join never spills; `Some` runs the requested CPU
/// algorithm out of core (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SpillConfig {
    /// Parent directory for scratch state. `None` resolves through
    /// `SKEWJOIN_SCRATCH_DIR`, then the system temp dir.
    pub scratch_dir: Option<PathBuf>,
    /// In-memory working budget in bytes: bounds the scatter buffers during
    /// partitioning and the reloaded pair during the join phase.
    pub mem_budget: u64,
    /// Radix bits consumed per spill level (fan-out `2^bits` per level).
    pub partition_bits: u32,
    /// Hard cap on recursive re-partitioning levels below level 0.
    pub max_recursion: u32,
    /// Seed mixed into scratch-directory names (and recorded in the
    /// manifest) so concurrent spills never collide.
    pub seed: u64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self {
            scratch_dir: None,
            mem_budget: 64 << 20,
            partition_bits: 6,
            max_recursion: 3,
            seed: 0x5B11_17ED,
        }
    }
}

impl SpillConfig {
    /// A spill configuration with the given in-memory working budget.
    pub fn with_budget(mem_budget: u64) -> Self {
        Self {
            mem_budget,
            ..Self::default()
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), JoinError> {
        if self.mem_budget < MIN_SPILL_BUDGET {
            return Err(JoinError::InvalidConfig(format!(
                "spill mem_budget must be at least {MIN_SPILL_BUDGET} B, got {}",
                self.mem_budget
            )));
        }
        if !(1..=10).contains(&self.partition_bits) {
            return Err(JoinError::InvalidConfig(format!(
                "spill partition_bits must be in 1..=10, got {}",
                self.partition_bits
            )));
        }
        let floor = (1 << self.partition_bits) * PARTITION_BYTES;
        if self.mem_budget < floor {
            return Err(JoinError::InvalidConfig(format!(
                "spill mem_budget must be at least {floor} B for a {}-way fan-out, got {}",
                1 << self.partition_bits,
                self.mem_budget
            )));
        }
        if !(1..=8).contains(&self.max_recursion) {
            return Err(JoinError::InvalidConfig(format!(
                "spill max_recursion must be in 1..=8, got {}",
                self.max_recursion
            )));
        }
        // Level d consumes mixed-key bits [d·bits, (d+1)·bits); the deepest
        // level must still fit in the 32-bit hash.
        if (self.max_recursion + 1) * self.partition_bits > 32 {
            return Err(JoinError::InvalidConfig(format!(
                "spill recursion {} levels × {} bits exceeds the 32-bit hash width",
                self.max_recursion + 1,
                self.partition_bits
            )));
        }
        Ok(())
    }
}

/// A typed spill failure, convertible into [`JoinError::SpillFailed`].
#[derive(Debug)]
pub enum SpillError {
    /// An underlying filesystem operation failed (or a failpoint injected a
    /// failure into it).
    Io {
        /// The operation that failed (`"create"`, `"write"`, `"read"`, …).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A reloaded file or manifest did not match what was written:
    /// truncated run, count/checksum mismatch, unparsable manifest.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// What was inconsistent.
        detail: String,
    },
}

impl SpillError {
    fn io(op: &'static str, path: &Path, source: std::io::Error) -> Self {
        SpillError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    fn injected(op: &'static str, path: &Path, site: &str) -> Self {
        SpillError::io(
            op,
            path,
            std::io::Error::other(format!("{}: {site}", faults::PANIC_PREFIX)),
        )
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            SpillError::Corrupt { path, detail } => {
                write!(f, "corrupt spill state at {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for SpillError {}

impl From<SpillError> for JoinError {
    fn from(e: SpillError) -> JoinError {
        JoinError::SpillFailed(e.to_string())
    }
}

/// Order-independent checksum of one tuple, identical across write and read
/// regardless of run boundaries.
#[inline]
fn spill_checksum(t: &Tuple) -> u64 {
    mix64(((t.key as u64) << 32) | t.payload as u64)
}

/// Per-side metadata recorded in the manifest and verified on reload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideMeta {
    /// Run-file name within the level directory.
    pub file: String,
    /// Total tuples across all runs.
    pub tuples: u64,
    /// Number of length-prefixed runs.
    pub runs: u64,
    /// Wrapping sum of the per-tuple spill checksum over every tuple.
    pub checksum: u64,
    /// Smallest key in the file (meaningless when `tuples == 0`).
    pub min_key: Key,
    /// Largest key in the file.
    pub max_key: Key,
}

impl SideMeta {
    /// Whether every tuple shares one key — the unsplittable case that
    /// routes to the NM decomposition.
    pub fn single_key(&self) -> bool {
        self.tuples > 0 && self.min_key == self.max_key
    }

    /// Appends ` file tuples runs checksum min_key max_key`.
    fn write(&self, line: &mut String) {
        let (file, tuples, runs) = (&self.file, self.tuples, self.runs);
        let (checksum, min, max) = (self.checksum, self.min_key, self.max_key);
        line.push_str(&format!(
            " {file} {tuples} {runs} {checksum:#x} {min} {max}"
        ));
    }

    /// Parses the fields [`SideMeta::write`] appends.
    fn parse<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Option<SideMeta> {
        Some(SideMeta {
            file: fields.next()?.to_string(),
            tuples: fields.next()?.parse().ok()?,
            runs: fields.next()?.parse().ok()?,
            checksum: u64::from_str_radix(fields.next()?.strip_prefix("0x")?, 16).ok()?,
            min_key: fields.next()?.parse().ok()?,
            max_key: fields.next()?.parse().ok()?,
        })
    }
}

/// One partition's pair of sides in a level manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMeta {
    /// Partition index within the level's fan-out.
    pub index: usize,
    /// Build-side metadata.
    pub r: SideMeta,
    /// Probe-side metadata.
    pub s: SideMeta,
}

/// A level manifest: which key bits this level consumed and what each
/// partition's files must contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Radix bits this level consumed per key.
    pub bits: u32,
    /// Bit offset into the mixed key this level started at.
    pub shift: u32,
    /// Seed of the owning spill run (provenance; not used for hashing).
    pub seed: u64,
    /// Per-partition metadata, ascending by index.
    pub partitions: Vec<PartitionMeta>,
}

impl Manifest {
    /// Crash-safe write: a `bits shift seed partitions` line, then one line
    /// per partition (its index and each side's `file tuples runs checksum
    /// min_key max_key`), to `MANIFEST.tmp`, fsync, rename over `MANIFEST`.
    pub fn store(&self, dir: &Path) -> Result<(), SpillError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let final_path = dir.join(MANIFEST_NAME);
        if faults::fire(FAILPOINT_MANIFEST) {
            return Err(SpillError::injected(
                "store manifest",
                &tmp,
                FAILPOINT_MANIFEST,
            ));
        }
        let (bits, shift, seed, n) = (self.bits, self.shift, self.seed, self.partitions.len());
        let mut text = format!("{bits} {shift} {seed} {n}\n");
        for p in &self.partitions {
            text.push_str(&p.index.to_string());
            p.r.write(&mut text);
            p.s.write(&mut text);
            text.push('\n');
        }
        let mut file = File::create(&tmp).map_err(|e| SpillError::io("create", &tmp, e))?;
        file.write_all(text.as_bytes())
            .map_err(|e| SpillError::io("write", &tmp, e))?;
        file.sync_all()
            .map_err(|e| SpillError::io("fsync", &tmp, e))?;
        drop(file);
        std::fs::rename(&tmp, &final_path).map_err(|e| SpillError::io("rename", &final_path, e))?;
        Ok(())
    }

    /// Loads and verifies a level manifest written by [`Manifest::store`].
    pub fn load(dir: &Path) -> Result<Manifest, SpillError> {
        let path = dir.join(MANIFEST_NAME);
        if faults::fire(FAILPOINT_MANIFEST) {
            return Err(SpillError::injected(
                "load manifest",
                &path,
                FAILPOINT_MANIFEST,
            ));
        }
        let text = std::fs::read_to_string(&path).map_err(|e| SpillError::io("read", &path, e))?;
        let mut lines = text.lines();
        let mut header = lines.next().unwrap_or("").split_whitespace();
        let mut field = || header.next()?.parse::<u64>().ok();
        let (bits, shift, seed, count) = (field(), field(), field(), field());
        let parse = |line: &str| {
            let mut fields = line.split_whitespace();
            let entry = PartitionMeta {
                index: fields.next()?.parse().ok()?,
                r: SideMeta::parse(&mut fields)?,
                s: SideMeta::parse(&mut fields)?,
            };
            fields.next().is_none().then_some(entry)
        };
        let partitions = lines.map(parse).collect::<Option<Vec<_>>>();
        match (bits, shift, seed, count, partitions) {
            (Some(bits), Some(shift), Some(seed), Some(n), Some(partitions))
                if n == partitions.len() as u64 =>
            {
                Ok(Manifest {
                    bits: bits as u32,
                    shift: shift as u32,
                    seed,
                    partitions,
                })
            }
            _ => Err(SpillError::Corrupt {
                path,
                detail: "manifest is malformed or miscounts its partitions".into(),
            }),
        }
    }
}

/// Write handle over one partition side's run file: length-prefixed tuple
/// runs, metadata accumulated for the manifest, explicit fsync on
/// [`SpillFile::finish`]. Unbuffered: [`SpillFile::append_run`] builds each
/// run in one buffer and writes it with one call.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    name: String,
    file: Option<File>,
    tuples: u64,
    runs: u64,
    checksum: u64,
    min_key: Key,
    max_key: Key,
    bytes_written: u64,
}

impl SpillFile {
    /// Creates (truncating) the run file `name` under `dir`.
    pub fn create(dir: &Path, name: &str) -> Result<SpillFile, SpillError> {
        let path = dir.join(name);
        if faults::fire(FAILPOINT_WRITE) {
            return Err(SpillError::injected("create", &path, FAILPOINT_WRITE));
        }
        let file = File::create(&path).map_err(|e| SpillError::io("create", &path, e))?;
        Ok(SpillFile {
            path,
            name: name.to_string(),
            file: Some(file),
            tuples: 0,
            runs: 0,
            checksum: 0,
            min_key: Key::MAX,
            max_key: 0,
            bytes_written: 0,
        })
    }

    /// Appends one length-prefixed run. Empty runs are skipped.
    pub fn append_run(&mut self, run: &[Tuple]) -> Result<(), SpillError> {
        if run.is_empty() {
            return Ok(());
        }
        if faults::fire(FAILPOINT_WRITE) {
            return Err(SpillError::injected("write", &self.path, FAILPOINT_WRITE));
        }
        let file = self.file.as_mut().expect("append after finish");
        let mut buf = Vec::with_capacity(4 + run.len() * TUPLE_BYTES as usize);
        buf.extend_from_slice(&(run.len() as u32).to_le_bytes());
        for t in run {
            buf.extend_from_slice(&t.key.to_le_bytes());
            buf.extend_from_slice(&t.payload.to_le_bytes());
            self.checksum = self.checksum.wrapping_add(spill_checksum(t));
            self.min_key = self.min_key.min(t.key);
            self.max_key = self.max_key.max(t.key);
        }
        file.write_all(&buf)
            .map_err(|e| SpillError::io("write", &self.path, e))?;
        self.tuples += run.len() as u64;
        self.runs += 1;
        self.bytes_written += buf.len() as u64;
        Ok(())
    }

    /// Fsyncs the file, closing the write handle.
    pub fn finish(&mut self) -> Result<(), SpillError> {
        if let Some(file) = self.file.take() {
            file.sync_all()
                .map_err(|e| SpillError::io("fsync", &self.path, e))?;
        }
        Ok(())
    }

    /// Total tuples appended so far.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Bytes written so far (length prefixes included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The manifest record describing this file's expected contents.
    pub fn meta(&self) -> SideMeta {
        SideMeta {
            file: self.name.clone(),
            tuples: self.tuples,
            runs: self.runs,
            checksum: self.checksum,
            min_key: self.min_key,
            max_key: self.max_key,
        }
    }
}

/// Streaming reader over a run file, verified against its [`SideMeta`]:
/// run lengths are bounds-checked as they arrive, and the terminal
/// [`SpillReader::next_run`] returning `None` only succeeds once the total
/// count and checksum match the manifest.
pub struct SpillReader {
    path: PathBuf,
    reader: BufReader<File>,
    expected: SideMeta,
    tuples_seen: u64,
    runs_seen: u64,
    checksum: u64,
    bytes_read: u64,
    verified: bool,
}

impl SpillReader {
    /// Opens `meta`'s file under `dir`.
    pub fn open(dir: &Path, meta: &SideMeta) -> Result<SpillReader, SpillError> {
        let path = dir.join(&meta.file);
        if faults::fire(FAILPOINT_READ) {
            return Err(SpillError::injected("open", &path, FAILPOINT_READ));
        }
        let file = File::open(&path).map_err(|e| SpillError::io("open", &path, e))?;
        Ok(SpillReader {
            path,
            reader: BufReader::with_capacity(READ_BUFFER, file),
            expected: meta.clone(),
            tuples_seen: 0,
            runs_seen: 0,
            checksum: 0,
            bytes_read: 0,
            verified: false,
        })
    }

    /// Bytes consumed so far (length prefixes included).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Returns the next run, or `None` at a verified end of file. The final
    /// `None` is only returned once count and checksum match the manifest —
    /// otherwise the file is reported [`SpillError::Corrupt`].
    pub fn next_run(&mut self) -> Result<Option<Vec<Tuple>>, SpillError> {
        if self.runs_seen == self.expected.runs {
            return self.verify_end();
        }
        if faults::fire(FAILPOINT_READ) {
            return Err(SpillError::injected("read", &self.path, FAILPOINT_READ));
        }
        let mut len_buf = [0u8; 4];
        self.reader
            .read_exact(&mut len_buf)
            .map_err(|e| SpillError::io("read", &self.path, e))?;
        let len = u32::from_le_bytes(len_buf) as u64;
        if len == 0 || self.tuples_seen + len > self.expected.tuples {
            return Err(SpillError::Corrupt {
                path: self.path.clone(),
                detail: format!(
                    "run {} claims {len} tuples but only {} of {} remain",
                    self.runs_seen,
                    self.expected.tuples - self.tuples_seen,
                    self.expected.tuples
                ),
            });
        }
        let mut body = vec![0u8; (len * TUPLE_BYTES) as usize];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| SpillError::io("read", &self.path, e))?;
        let mut run = Vec::with_capacity(len as usize);
        for chunk in body.chunks_exact(TUPLE_BYTES as usize) {
            let key = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let payload = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            let t = Tuple::new(key, payload);
            self.checksum = self.checksum.wrapping_add(spill_checksum(&t));
            run.push(t);
        }
        self.tuples_seen += len;
        self.runs_seen += 1;
        self.bytes_read += 4 + len * TUPLE_BYTES;
        Ok(Some(run))
    }

    fn verify_end(&mut self) -> Result<Option<Vec<Tuple>>, SpillError> {
        if self.verified {
            return Ok(None);
        }
        if self.tuples_seen != self.expected.tuples || self.checksum != self.expected.checksum {
            return Err(SpillError::Corrupt {
                path: self.path.clone(),
                detail: format!(
                    "manifest expects {} tuples / checksum {:#018x}, file holds {} / {:#018x}",
                    self.expected.tuples, self.expected.checksum, self.tuples_seen, self.checksum
                ),
            });
        }
        self.verified = true;
        Ok(None)
    }

    /// Reads and verifies the whole file into a relation; also returns the
    /// bytes consumed.
    pub fn read_all(dir: &Path, meta: &SideMeta) -> Result<(Relation, u64), SpillError> {
        let mut reader = SpillReader::open(dir, meta)?;
        let mut tuples = Vec::with_capacity(meta.tuples as usize);
        while let Some(run) = reader.next_run()? {
            tuples.extend(run);
        }
        Ok((Relation::from_tuples(tuples), reader.bytes_read()))
    }
}

// ---------------------------------------------------------------------------
// Grace-hash driver
// ---------------------------------------------------------------------------

/// Scatter-buffer capacity in tuples per partition side, bounded so
/// `2 × buffers` of them (both sides' worth) stay within half the working
/// budget. The spill partitioner passes `fanout × threads` buffers.
fn scatter_buffer_tuples(mem_budget: u64, buffers: usize) -> usize {
    let per_buffer = mem_budget / 2 / (2 * buffers as u64) / TUPLE_BYTES;
    per_buffer.clamp(16, 64 * 1024) as usize
}

/// The configuration a reloaded pair (or an NM block) of `r_tuples ⋈
/// s_tuples` is joined under: in memory, single-threaded when small
/// (per-pair thread spawns would dominate at high fan-outs), and with the
/// radix derived from the pair's own build side. A pinned radix is sized
/// for the whole input, and the spill sizes pairs by their footprint: a
/// wide pin would leave no pair that fits.
fn pair_config(cfg: &CpuJoinConfig, r_tuples: u64, s_tuples: u64) -> CpuJoinConfig {
    let mut inner = cfg.clone();
    inner.spill = None;
    inner.radix = None;
    if r_tuples + s_tuples < 16 * 1024 {
        inner.threads = 1;
    }
    inner
}

/// The hash spill levels partition by: SplitMix64 of the key. Its bits are
/// independent of the mixed key's low bits, which a pair's in-memory radix
/// reads, and of its high bits, which the hash tables read, so a reloaded
/// pair's keys still spread over every partition and bucket.
pub fn spill_hash(key: Key) -> u32 {
    mix64(u64::from(key)) as u32
}

#[derive(Default)]
struct Counters {
    bytes_written: u64,
    bytes_read: u64,
    partitions_spilled: u64,
    max_depth: u64,
    pairs_in_memory: u64,
    pairs_nm: u64,
}

struct GraceCtx<'a, S, F>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    algorithm: CpuAlgorithm,
    cfg: &'a CpuJoinConfig,
    spill: &'a SpillConfig,
    make_sink: &'a F,
    /// One sink per worker slot, reused by every pair join: a slot's sink
    /// accumulates the output of every pair its worker index joined.
    sinks: Vec<S>,
    counters: Counters,
    degradations: Vec<Rung>,
    /// Every pair join's trace (hot keys included), folded.
    trace: Trace,
    skew_path_results: u64,
}

impl<S, F> GraceCtx<'_, S, F>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    /// Bytes one in-memory join at recursion `depth` may hold: the budget
    /// less what the spill itself keeps live meanwhile — one loaded
    /// manifest per level, four runs (the rest of a run each NM stream
    /// holds, and the bytes and tuples of the one being decoded), and
    /// [`JOIN_PHASE_RESERVE`].
    fn join_budget(&self, depth: u32) -> u64 {
        let fanout = 1u64 << self.spill.partition_bits;
        let manifests = (depth as u64 + 1) * fanout * MANIFEST_ENTRY_BYTES;
        let buffers = fanout as usize * self.cfg.threads.max(1);
        let runs = 4 * scatter_buffer_tuples(self.spill.mem_budget, buffers) as u64 * TUPLE_BYTES;
        self.spill
            .mem_budget
            .saturating_sub(JOIN_PHASE_RESERVE + manifests + runs)
    }

    /// Scatters R and S into a new level at `dir` on mixed-key bits
    /// `[shift, shift + partition_bits)` and stores its manifest.
    fn spill_level(
        &mut self,
        [r, s]: [ScatterInput<'_>; 2],
        dir: &Path,
        shift: u32,
    ) -> Result<(), JoinError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| JoinError::SpillFailed(format!("create level dir: {e}")))?;
        let (bits, budget) = (self.spill.partition_bits, self.spill.mem_budget);
        let r_files = partition_to_files(r, dir, 'r', (shift, bits), budget, self.cfg)?;
        let s_files = partition_to_files(s, dir, 's', (shift, bits), budget, self.cfg)?;
        for f in r_files.iter().chain(&s_files) {
            self.counters.bytes_written += f.bytes_written();
            if f.tuples() > 0 {
                self.counters.partitions_spilled += 1;
            }
        }
        store_level_manifest(dir, shift, bits, self.spill.seed, &r_files, &s_files)?;
        Ok(())
    }

    /// Whether the requested algorithm joins `r_tuples ⋈ s_tuples` within
    /// the join budget at recursion `depth`.
    fn fits(&self, r_tuples: u64, s_tuples: u64, depth: u32) -> bool {
        let inner = pair_config(self.cfg, r_tuples, s_tuples);
        let footprint = self
            .algorithm
            .footprint(r_tuples as usize, s_tuples as usize, &inner);
        footprint <= self.join_budget(depth)
    }

    /// Joins one in-memory pair with the requested algorithm, handing its
    /// workers the sinks earlier pairs left in their slots, and folds its
    /// evidence into the spill's.
    fn join_in_memory(&mut self, r: &Relation, s: &Relation) -> Result<(), JoinError> {
        let inner = pair_config(self.cfg, r.len() as u64, s.len() as u64);
        let make_sink = self.make_sink;
        let workers = inner.threads.min(self.sinks.len());
        let earlier: u64 = self.sinks[..workers].iter().map(|s| s.count()).sum();
        let slots: Vec<Mutex<Option<S>>> =
            self.sinks.drain(..).map(|s| Mutex::new(Some(s))).collect();
        let reuse = |w: usize| slots.get(w).and_then(|slot| lock(slot).take());
        // A trait object, so the spill's own instance of `run` is the one
        // the pair joins call rather than a new one per nesting.
        let make: &(dyn Fn(usize) -> S + Sync) = &|w| reuse(w).unwrap_or_else(|| make_sink(w));
        let outcome = self.algorithm.run(r, s, &inner, make)?;
        self.sinks = outcome.sinks;
        // Slots past this pair's worker count keep their sinks.
        let rest = slots.into_iter().skip(self.sinks.len());
        self.sinks.extend(
            rest.filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner)),
        );
        // The join's result counter is its sinks' total, which includes
        // what earlier pairs left in them: keep this pair's share.
        let mut trace = outcome.stats.trace;
        for phase in &mut trace.phases {
            if let Some(results) = phase.get(counter::RESULTS) {
                phase.set(counter::RESULTS, results - earlier);
            }
        }
        self.trace.merge(&trace);
        self.skew_path_results += outcome.stats.skew_path_results;
        Ok(())
    }
}

/// What one spill scatter reads: the relation in memory at level 0, a
/// parent partition's run file at a recursion level.
enum ScatterInput<'a> {
    /// Task `i` scatters the `i`-th `SCATTER_CHUNK_TUPLES` range in place.
    Slice(&'a [Tuple]),
    /// Every task scatters the next run it reads; one task per run.
    Runs(Mutex<SpillReader>),
}

/// The spill partitioner, used at level 0 and at every recursion level:
/// scatters `input` into `2^bits` run files under `dir` by key bits
/// `[shift, shift + bits)` of the mixed key, and returns one finished
/// (fsynced) [`SpillFile`] per partition.
///
/// It runs on the [`crate::task`] pool with one task per input chunk. Each
/// worker scatters into *private* bounded buffers, sized so all workers'
/// buffers together stay within half of `mem_budget`, and appends a full
/// buffer to the shared file under that file's mutex; what remains is
/// appended once the pool drains. Run order within a file therefore varies
/// with scheduling, which is harmless by construction: runs are
/// self-delimiting, the join phase is order-insensitive, and the manifest
/// checksum is an order-independent wrapping sum. An I/O fault or a cancel
/// stops the remaining tasks and surfaces as the first error seen; a
/// panicking worker surfaces as [`JoinError::WorkerPanicked`].
fn partition_to_files(
    input: ScatterInput<'_>,
    dir: &Path,
    side: char,
    (shift, bits): (u32, u32),
    mem_budget: u64,
    cfg: &CpuJoinConfig,
) -> Result<Vec<SpillFile>, JoinError> {
    let fanout = 1usize << bits;
    let buffer_tuples = scatter_buffer_tuples(mem_budget, fanout * cfg.threads.max(1));
    let files = (0..fanout)
        .map(|p| SpillFile::create(dir, &format!("{side}_{p}.run")).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()?;
    let tasks = match &input {
        ScatterInput::Slice(tuples) => tuples.len().div_ceil(SCATTER_CHUNK_TUPLES),
        ScatterInput::Runs(reader) => lock(reader).expected.runs as usize,
    };
    let first_error: Mutex<Option<JoinError>> = Mutex::new(None);
    let fail = |e: JoinError| {
        lock(&first_error).get_or_insert(e);
    };
    let append = |p: usize, buf: &mut Vec<Tuple>| {
        let appended = lock(&files[p]).append_run(buf);
        buf.clear();
        appended.map_err(JoinError::from)
    };
    let scatter_task = |i: usize, buffers: &mut [Vec<Tuple>]| -> Result<(), JoinError> {
        cfg.cancel.check("spill_partition")?;
        let run;
        let tuples = match &input {
            ScatterInput::Slice(tuples) => {
                let start = i * SCATTER_CHUNK_TUPLES;
                &tuples[start..(start + SCATTER_CHUNK_TUPLES).min(tuples.len())]
            }
            ScatterInput::Runs(reader) => {
                run = lock(reader).next_run()?.unwrap_or_default();
                &run[..]
            }
        };
        for t in tuples {
            let p = radix_pass(spill_hash(t.key), shift, bits);
            buffers[p].push(*t);
            if buffers[p].len() >= buffer_tuples {
                append(p, &mut buffers[p])?;
            }
        }
        Ok(())
    };
    let queue = TaskQueue::seeded(cfg.scheduler, 0..tasks);
    run_to_completion(&queue, cfg.threads.min(tasks).max(1), |worker| {
        let mut buffers: Vec<Vec<Tuple>> = (0..fanout)
            .map(|_| Vec::with_capacity(buffer_tuples))
            .collect();
        worker.run(|i, _| {
            if lock(&first_error).is_none() {
                if let Err(e) = scatter_task(i, &mut buffers) {
                    fail(e);
                }
            }
        });
        for (p, buf) in buffers.iter_mut().enumerate() {
            if !buf.is_empty() && lock(&first_error).is_none() {
                if let Err(e) = append(p, buf) {
                    fail(e);
                }
            }
        }
    })
    .map_err(|worker| JoinError::WorkerPanicked {
        worker,
        phase: "spill_partition".into(),
    })?;
    if let Some(e) = lock(&first_error).take() {
        return Err(e);
    }
    if let ScatterInput::Runs(reader) = input {
        // One task per run consumed every run, so this read verifies count
        // and checksum against the parent's manifest.
        let tail = lock(&reader).next_run()?;
        debug_assert!(tail.is_none(), "a run was left unscattered");
    }
    let mut finished = Vec::with_capacity(fanout);
    for file in files {
        let mut f = file.into_inner().unwrap_or_else(PoisonError::into_inner);
        f.finish()?;
        finished.push(f);
    }
    Ok(finished)
}

/// Locks `m`, ignoring poison: a panicking scatter worker is reported as
/// [`JoinError::WorkerPanicked`], and nothing it left half-written is read.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Builds and stores a level manifest from freshly written partition files.
fn store_level_manifest(
    dir: &Path,
    shift: u32,
    bits: u32,
    seed: u64,
    r_files: &[SpillFile],
    s_files: &[SpillFile],
) -> Result<Manifest, SpillError> {
    let partitions = r_files
        .iter()
        .zip(s_files)
        .enumerate()
        .map(|(index, (r, s))| PartitionMeta {
            index,
            r: r.meta(),
            s: s.meta(),
        })
        .collect();
    let manifest = Manifest {
        bits,
        shift,
        seed,
        partitions,
    };
    manifest.store(dir)?;
    Ok(manifest)
}

/// Runs `algorithm` out of core with the grace-hash spill. Uses
/// `cfg.spill` (or the default [`SpillConfig`] when absent); see the module
/// docs for the disk format and recursion policy. Reached through
/// [`CpuAlgorithm::run`].
pub(crate) fn grace_join<S, F>(
    algorithm: CpuAlgorithm,
    r: &Relation,
    s: &Relation,
    cfg: &CpuJoinConfig,
    make_sink: F,
) -> Result<JoinOutcome<S>, JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    cfg.validate()?;
    let spill = cfg.spill.clone().unwrap_or_default();
    spill.validate()?;

    let mut stats = JoinStats::new(&format!("Grace({algorithm})"));
    let dir = ScratchDir::create(spill.scratch_dir.as_deref(), "skewjoin-spill", spill.seed)
        .map_err(|e| JoinError::SpillFailed(format!("create scratch dir: {e}")))?;

    let mut ctx = GraceCtx {
        algorithm,
        cfg,
        spill: &spill,
        make_sink: &make_sink,
        sinks: Vec::new(),
        counters: Counters::default(),
        degradations: Vec::new(),
        trace: Trace::new(),
        skew_path_results: 0,
    };

    // Level-0 scatter: both relations stream to disk through bounded
    // buffers; nothing near the full input is ever resident at once.
    let scatter_started = Instant::now();
    let level_dir = dir.path().join("level0");
    let inputs = [
        ScatterInput::Slice(r.tuples()),
        ScatterInput::Slice(s.tuples()),
    ];
    ctx.spill_level(inputs, &level_dir, 0)?;
    stats
        .phases
        .record("spill_partition", scatter_started.elapsed());

    // Join phase: reload each partition pair through the manifest.
    let join_started = Instant::now();
    join_level(&mut ctx, &level_dir, 0)?;
    stats.phases.record("spill_join", join_started.elapsed());

    // Explicit cleanup under the remove failpoint: a transient unlink
    // failure is recorded and retried by the guard's drop — never a lost
    // result, never a leaked file.
    if faults::fire(FAILPOINT_REMOVE) {
        ctx.degradations.push(Rung::ScratchRemoval {
            sub_level: false,
            error: format!("{}: {FAILPOINT_REMOVE}", faults::PANIC_PREFIX),
        });
    } else if let Err(e) = dir.remove_now() {
        ctx.degradations.push(Rung::ScratchRemoval {
            sub_level: false,
            error: e.to_string(),
        });
    }
    drop(dir);

    // The pairs' evidence: their phase counters, the keys they treated as
    // hot (once each, although NM blocks of one pair may each detect the
    // same key) and their skew-path results.
    stats.trace = ctx.trace;
    stats.skewed_keys_detected = stats.trace.skewed_keys.len();
    stats.skew_path_results = ctx.skew_path_results;
    if stats.trace.get("sample", counter::SKEWED_KEYS).is_some() {
        let hot = stats.skewed_keys_detected as u64;
        stats.trace.set("sample", counter::SKEWED_KEYS, hot);
    }
    stats.partitions = ctx.counters.partitions_spilled as usize;
    let phase = stats.trace.phase("spill");
    phase.set(counter::SPILL_BYTES_WRITTEN, ctx.counters.bytes_written);
    phase.set(counter::SPILL_BYTES_READ, ctx.counters.bytes_read);
    phase.set(counter::SPILL_PARTITIONS, ctx.counters.partitions_spilled);
    phase.set(counter::SPILL_RECURSION_DEPTH, ctx.counters.max_depth);
    phase.set(counter::TUPLES_IN, (r.len() + s.len()) as u64);
    phase.set("pairs_in_memory", ctx.counters.pairs_in_memory);
    phase.set("pairs_nm_decomposed", ctx.counters.pairs_nm);
    phase.set("scatter_threads", cfg.threads.max(1) as u64);
    for d in ctx.degradations.drain(..) {
        stats.trace.record_degradation(d);
    }
    aggregate_sinks(&mut stats, &ctx.sinks);
    stats
        .trace
        .set("spill", counter::RESULTS, stats.result_count);
    Ok(JoinOutcome {
        stats,
        sinks: ctx.sinks,
    })
}

/// Joins every partition pair recorded in `dir`'s manifest.
fn join_level<S, F>(ctx: &mut GraceCtx<'_, S, F>, dir: &Path, depth: u32) -> Result<(), JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    let manifest = Manifest::load(dir)?;
    for entry in &manifest.partitions {
        ctx.cfg.cancel.check("spill_join")?;
        join_pair(ctx, dir, entry, &manifest, depth)?;
    }
    Ok(())
}

fn join_pair<S, F>(
    ctx: &mut GraceCtx<'_, S, F>,
    dir: &Path,
    entry: &PartitionMeta,
    manifest: &Manifest,
    depth: u32,
) -> Result<(), JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    if entry.r.tuples == 0 || entry.s.tuples == 0 {
        return Ok(());
    }
    if ctx.fits(entry.r.tuples, entry.s.tuples, depth) {
        // The common case: the pair fits — reload it and run the requested
        // join in memory.
        let (r, r_bytes) = SpillReader::read_all(dir, &entry.r)?;
        let (s, s_bytes) = SpillReader::read_all(dir, &entry.s)?;
        ctx.counters.bytes_read += r_bytes + s_bytes;
        ctx.join_in_memory(&r, &s)?;
        ctx.counters.pairs_in_memory += 1;
        return Ok(());
    }
    if entry.r.single_key() {
        // Unsplittable by any hash: NM-style decomposition.
        return nm_decompose(ctx, dir, entry, depth);
    }
    let next_shift = (depth + 1) * manifest.bits;
    if depth + 1 > ctx.spill.max_recursion || next_shift + manifest.bits > 32 {
        // Further splitting is off the table (cap or hash width) but this
        // pair keeps colliding. The block-wise NM decomposition still
        // completes it under the budget — degraded throughput, not a
        // rejection.
        ctx.degradations.push(Rung::NmDecomposition {
            partition: entry.index as u64,
            r_tuples: entry.r.tuples,
            s_tuples: entry.s.tuples,
            depth,
            cap: ctx.spill.max_recursion,
        });
        return nm_decompose(ctx, dir, entry, depth);
    }

    // Recurse: re-partition this pair with the next radix-bit window.
    ctx.counters.max_depth = ctx.counters.max_depth.max((depth + 1) as u64);
    let sub_dir = dir.join(format!("p{}", entry.index));
    let inputs = [
        ScatterInput::Runs(Mutex::new(SpillReader::open(dir, &entry.r)?)),
        ScatterInput::Runs(Mutex::new(SpillReader::open(dir, &entry.s)?)),
    ];
    ctx.spill_level(inputs, &sub_dir, next_shift)?;
    for meta in [&entry.r, &entry.s] {
        ctx.counters.bytes_read += meta.tuples * TUPLE_BYTES + 4 * meta.runs;
    }
    join_level(ctx, &sub_dir, depth + 1)?;

    // Reclaim the sub-level eagerly so peak disk stays bounded by two
    // levels. A remove fault here is absorbed: the top-level guard removes
    // the whole tree regardless.
    if faults::fire(FAILPOINT_REMOVE) {
        ctx.degradations.push(Rung::ScratchRemoval {
            sub_level: true,
            error: format!("{}: {FAILPOINT_REMOVE}", faults::PANIC_PREFIX),
        });
    } else if let Err(e) = std::fs::remove_dir_all(&sub_dir) {
        ctx.degradations.push(Rung::ScratchRemoval {
            sub_level: true,
            error: e.to_string(),
        });
    }
    Ok(())
}

/// NM-style (block-nested) decomposition for a pair no split can fit in the
/// budget: R is loaded a block at a time and S streamed against each block
/// in chunks, every (block, chunk) joined by the requested algorithm. Block
/// and chunk are the largest the algorithm's footprint allows, so memory
/// stays bounded no matter how large a key's multiplicity or how
/// adversarially keys collide. A single-key block under CSH reaches its
/// run path through CSH's own sampler; Cbase and NPJ walk their chains.
fn nm_decompose<S, F>(
    ctx: &mut GraceCtx<'_, S, F>,
    dir: &Path,
    entry: &PartitionMeta,
    depth: u32,
) -> Result<(), JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    ctx.counters.pairs_nm += 1;
    // The largest block of R that fits joined with as much S, then the
    // largest S chunk that fits with that block.
    let (r_tuples, s_tuples) = (entry.r.tuples, entry.s.tuples);
    let block_tuples = halve_to_fit(r_tuples, |n| ctx.fits(n, n.min(s_tuples), depth));
    let chunk_tuples = halve_to_fit(s_tuples, |n| ctx.fits(block_tuples, n, depth));
    let mut r_reader = SpillReader::open(dir, &entry.r)?;
    let mut r_rest = Vec::new();
    loop {
        ctx.cfg.cancel.check("spill_join")?;
        let block = read_block(&mut r_reader, &mut r_rest, block_tuples)?;
        if block.is_empty() {
            break;
        }
        let mut s_reader = SpillReader::open(dir, &entry.s)?;
        let mut s_rest = Vec::new();
        loop {
            ctx.cfg.cancel.check("spill_join")?;
            let chunk = read_block(&mut s_reader, &mut s_rest, chunk_tuples)?;
            if chunk.is_empty() {
                break;
            }
            ctx.join_in_memory(&block, &chunk)?;
        }
        ctx.counters.bytes_read += s_reader.bytes_read();
    }
    ctx.counters.bytes_read += r_reader.bytes_read();
    Ok(())
}

/// Halves `n` until `fits(n)` holds (or `n` is 1).
fn halve_to_fit(mut n: u64, fits: impl Fn(u64) -> bool) -> u64 {
    while n > 1 && !fits(n) {
        n = n.div_ceil(2);
    }
    n
}

/// The next `n` tuples of `reader` (fewer at its end), starting with what
/// `rest` holds of the last run read, and leaving in it what this block
/// did not take.
fn read_block(
    reader: &mut SpillReader,
    rest: &mut Vec<Tuple>,
    n: u64,
) -> Result<Relation, SpillError> {
    let mut block = Vec::with_capacity(n as usize);
    loop {
        let take = rest.len().min(n as usize - block.len());
        block.extend(rest.drain(..take));
        if block.len() == n as usize {
            break;
        }
        match reader.next_run()? {
            Some(run) => *rest = run,
            None => break,
        }
    }
    Ok(Relation::from_tuples(block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use skewjoin_common::sink::{merge_key_counts, KeyCountSink};
    use skewjoin_common::{CancelToken, CountingSink};
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};
    use std::collections::BTreeMap;

    fn spill_cfg(budget: u64) -> CpuJoinConfig {
        let mut cfg = CpuJoinConfig::with_threads(2);
        cfg.spill = Some(SpillConfig {
            mem_budget: budget,
            partition_bits: 3,
            max_recursion: 3,
            ..SpillConfig::default()
        });
        cfg
    }

    fn zipfish(n: usize, hot_every: usize, seed: u64) -> Relation {
        // Deterministic skew: every `hot_every`-th key collapses to 7.
        Relation::from_tuples(
            (0..n)
                .map(|i| {
                    let key = if i % hot_every == 0 {
                        7
                    } else {
                        (mix64(seed ^ i as u64) as u32) & 0xFFFF
                    };
                    Tuple::new(key, i as u32)
                })
                .collect(),
        )
    }

    /// Runs `algorithm` out of core and holds it to the per-key oracle
    /// (`f_R(k)·f_S(k)` results for every key k) and the reference
    /// checksum.
    fn assert_matches_reference(
        algorithm: CpuAlgorithm,
        r: &Relation,
        s: &Relation,
        cfg: &CpuJoinConfig,
    ) -> JoinStats {
        let out = algorithm.run(r, s, cfg, |_| KeyCountSink::new()).unwrap();
        assert_eq!(out.stats.algorithm, format!("Grace({algorithm})"));
        let count = |rel: &Relation| {
            let mut counts = BTreeMap::new();
            for t in rel.tuples() {
                *counts.entry(t.key).or_insert(0u64) += 1;
            }
            counts
        };
        let (r_counts, s_counts) = (count(r), count(s));
        let expected: BTreeMap<Key, u64> = r_counts
            .iter()
            .filter_map(|(k, rc)| s_counts.get(k).map(|sc| (*k, rc * sc)))
            .collect();
        assert_eq!(merge_key_counts(&out.sinks), expected, "{algorithm}");
        let reference = reference_join(r, s, &mut CountingSink::new());
        assert_eq!(
            out.stats.result_count, reference.result_count,
            "{algorithm}"
        );
        assert_eq!(out.stats.checksum, reference.checksum, "{algorithm}");
        out.stats
    }

    fn counting(
        algorithm: CpuAlgorithm,
        r: &Relation,
        s: &Relation,
        cfg: &CpuJoinConfig,
    ) -> JoinStats {
        algorithm
            .run(r, s, cfg, |_| CountingSink::new())
            .unwrap()
            .stats
    }

    #[test]
    fn spill_file_roundtrip_with_manifest() {
        let dir = ScratchDir::create(None, "spill-unit", 1).unwrap();
        let tuples: Vec<Tuple> = (0..1000u32).map(|i| Tuple::new(i % 37, i)).collect();
        let mut f = SpillFile::create(dir.path(), "r_0.run").unwrap();
        f.append_run(&tuples[..400]).unwrap();
        f.append_run(&tuples[400..]).unwrap();
        f.append_run(&[]).unwrap(); // empty runs are skipped
        f.finish().unwrap();
        let meta = f.meta();
        assert_eq!(meta.tuples, 1000);
        assert_eq!(meta.runs, 2);
        assert_eq!(meta.min_key, 0);
        assert_eq!(meta.max_key, 36);

        let (rel, bytes) = SpillReader::read_all(dir.path(), &meta).unwrap();
        assert_eq!(rel.tuples(), &tuples[..]);
        assert_eq!(bytes, f.bytes_written());
    }

    #[test]
    fn manifest_store_load_roundtrip() {
        let dir = ScratchDir::create(None, "spill-manifest", 2).unwrap();
        let mut f = SpillFile::create(dir.path(), "r_0.run").unwrap();
        f.append_run(&[Tuple::new(5, 1)]).unwrap();
        f.finish().unwrap();
        let mut g = SpillFile::create(dir.path(), "s_0.run").unwrap();
        g.append_run(&[Tuple::new(5, 2), Tuple::new(9, 3)]).unwrap();
        g.finish().unwrap();
        let stored = store_level_manifest(dir.path(), 0, 3, 42, &[f], &[g]).unwrap();
        let loaded = Manifest::load(dir.path()).unwrap();
        assert_eq!(loaded, stored);
        assert_eq!(loaded.partitions.len(), 1);
        assert_eq!(loaded.partitions[0].s.tuples, 2);
        assert_eq!(loaded.seed, 42);
        assert!(loaded.partitions[0].r.single_key());
        assert!(!loaded.partitions[0].s.single_key());
    }

    #[test]
    fn corrupt_file_is_detected_on_reload() {
        let dir = ScratchDir::create(None, "spill-corrupt", 3).unwrap();
        let tuples: Vec<Tuple> = (0..100u32).map(|i| Tuple::new(i, i)).collect();
        let mut f = SpillFile::create(dir.path(), "r_0.run").unwrap();
        f.append_run(&tuples).unwrap();
        f.finish().unwrap();
        let meta = f.meta();
        // Flip one byte mid-file: the checksum catches it at end of stream.
        let path = dir.file("r_0.run");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match SpillReader::read_all(dir.path(), &meta) {
            Err(SpillError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A truncated file is also caught.
        let mut short = std::fs::read(&path).unwrap();
        short.truncate(50);
        std::fs::write(&path, &short).unwrap();
        assert!(SpillReader::read_all(dir.path(), &meta).is_err());
    }

    #[test]
    fn grace_join_matches_reference_uniform() {
        let r = Relation::from_tuples((0..4096u32).map(|i| Tuple::new(i % 997, i)).collect());
        let s = Relation::from_tuples((0..4096u32).map(|i| Tuple::new(i % 997, i + 1)).collect());
        // Budget far below the input size forces genuine spilling. A pinned
        // fan-out far too wide for any pair still leaves every pair its own
        // derived radix, so the pairs fit.
        let pinned = CpuJoinConfig {
            radix: Some(skewjoin_common::hash::RadixConfig::two_pass(20)),
            ..spill_cfg(MIN_SPILL_BUDGET)
        };
        for algorithm in CpuAlgorithm::ALL {
            for cfg in [spill_cfg(MIN_SPILL_BUDGET), pinned.clone()] {
                assert_matches_reference(algorithm, &r, &s, &cfg);
            }
        }
    }

    #[test]
    fn grace_join_matches_reference_skewed_with_recursion() {
        let r = zipfish(6000, 3, 11);
        let s = zipfish(6000, 4, 13);
        let cfg = spill_cfg(MIN_SPILL_BUDGET);
        for algorithm in CpuAlgorithm::ALL {
            // The hot key's partition cannot fit the budget, so the run
            // must have recursed or NM-decomposed; verify via the trace.
            let stats = assert_matches_reference(algorithm, &r, &s, &cfg);
            let trace = &stats.trace;
            let nm = trace.get("spill", "pairs_nm_decomposed").unwrap_or(0);
            let depth = trace
                .get("spill", counter::SPILL_RECURSION_DEPTH)
                .unwrap_or(0);
            assert!(
                nm > 0 || depth > 0,
                "{algorithm}: expected NM decomposition or recursion, trace:\n{}",
                trace.render()
            );
            assert!(trace.get("spill", counter::SPILL_BYTES_WRITTEN).unwrap() > 0);
            assert!(trace.get("spill", counter::SPILL_BYTES_READ).unwrap() > 0);
        }
    }

    #[test]
    fn grace_join_handles_empty_and_disjoint_inputs() {
        let cfg = spill_cfg(MIN_SPILL_BUDGET);
        let empty = Relation::new();
        let some = Relation::from_keys(&[1, 2, 3]);
        // Disjoint key spaces: correct zero results.
        let a = Relation::from_keys(&[1, 2, 3, 4]);
        let b = Relation::from_keys(&[100, 200, 300]);
        for algorithm in CpuAlgorithm::ALL {
            assert_eq!(counting(algorithm, &empty, &some, &cfg).result_count, 0);
            assert_eq!(counting(algorithm, &a, &b, &cfg).result_count, 0);
        }
    }

    #[test]
    fn single_key_build_side_takes_nm_route() {
        // Every R tuple is one key: unsplittable at any radix depth.
        let r = Relation::from_tuples((0..3000u32).map(|i| Tuple::new(7, i)).collect());
        let s = Relation::from_tuples(
            (0..2000u32)
                .map(|i| Tuple::new(if i % 2 == 0 { 7 } else { 9 }, i))
                .collect(),
        );
        let cfg = spill_cfg(MIN_SPILL_BUDGET);
        for algorithm in CpuAlgorithm::ALL {
            let stats = assert_matches_reference(algorithm, &r, &s, &cfg);
            assert!(stats.trace.get("spill", "pairs_nm_decomposed").unwrap() > 0);
            if algorithm == CpuAlgorithm::Csh {
                // CSH's own sampler finds the key in the blocks large enough
                // to sample it twice and emits their results a run at a
                // time.
                assert_eq!(stats.trace.skewed_keys.len(), 1, "{}", stats.trace.render());
                assert!(stats.skew_path_results > stats.result_count / 2);
            }
        }
    }

    #[test]
    fn spilled_csh_reports_its_hot_keys() {
        let w = PaperWorkload::generate(WorkloadSpec::paper(8192, 1.0, 21));
        let cfg = spill_cfg(1 << 20);
        let stats = assert_matches_reference(CpuAlgorithm::Csh, &w.r, &w.s, &cfg);
        assert_eq!(stats.algorithm, "Grace(CSH)");
        assert!(stats.skewed_keys_detected >= 1, "{}", stats.trace.render());
        assert_eq!(stats.skewed_keys_detected, stats.trace.skewed_keys.len());
        assert!(stats.skew_path_results > 0);
        assert_eq!(
            stats.trace.get("sample", counter::SKEWED_KEYS),
            Some(stats.skewed_keys_detected as u64)
        );
        let nm = stats.trace.get("nm_join", counter::RESULTS).unwrap();
        assert_eq!(nm + stats.skew_path_results, stats.result_count);
    }

    #[test]
    fn scratch_state_is_fully_removed() {
        let parent = ScratchDir::create(None, "spill-leakcheck", 5).unwrap();
        let mut cfg = spill_cfg(MIN_SPILL_BUDGET);
        cfg.spill.as_mut().unwrap().scratch_dir = Some(parent.path().to_path_buf());
        let r = zipfish(4000, 5, 3);
        let s = zipfish(4000, 6, 4);
        for algorithm in CpuAlgorithm::ALL {
            assert!(counting(algorithm, &r, &s, &cfg).result_count > 0);
            let leftovers: Vec<_> = std::fs::read_dir(parent.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert!(
                leftovers.is_empty(),
                "{algorithm} leaked scratch state: {leftovers:?}"
            );
        }
    }

    #[test]
    fn cancellation_stops_a_spill_at_a_phase_boundary() {
        let mut cfg = spill_cfg(MIN_SPILL_BUDGET);
        cfg.cancel = CancelToken::new();
        cfg.cancel.cancel();
        let r = zipfish(4000, 5, 3);
        let s = zipfish(4000, 6, 4);
        for algorithm in CpuAlgorithm::ALL {
            match algorithm.run(&r, &s, &cfg, |_| CountingSink::new()) {
                Err(JoinError::Cancelled { phase }) => {
                    assert!(phase.starts_with("spill_"), "{algorithm}: {phase}");
                }
                other => panic!("{algorithm}: expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn spill_config_validation() {
        SpillConfig::default().validate().unwrap();
        let too_small = SpillConfig {
            mem_budget: 1024,
            ..SpillConfig::default()
        };
        assert!(too_small.validate().is_err());
        let zero_bits = SpillConfig {
            partition_bits: 0,
            ..SpillConfig::default()
        };
        assert!(zero_bits.validate().is_err());
        let wide_bits = SpillConfig {
            partition_bits: 11,
            ..SpillConfig::default()
        };
        assert!(wide_bits.validate().is_err());
        let no_recursion = SpillConfig {
            max_recursion: 0,
            ..SpillConfig::default()
        };
        assert!(no_recursion.validate().is_err());
        let over_width = SpillConfig {
            partition_bits: 10,
            max_recursion: 4, // 5 levels × 10 bits > 32
            ..SpillConfig::default()
        };
        assert!(over_width.validate().is_err());
    }

    #[test]
    fn parallel_scatter_writes_the_same_partitions_as_sequential() {
        // > SCATTER_CHUNK_TUPLES tuples so several tasks run, skew included
        // so partitions are uneven.
        let tuples: Vec<Tuple> = (0..3 * SCATTER_CHUNK_TUPLES as u32)
            .map(|i| Tuple::new(if i % 5 == 0 { 7 } else { i % 4096 }, i))
            .collect();
        let scatter = |threads: usize, seed: u64| {
            let dir = ScratchDir::create(None, "scatter", seed).unwrap();
            let files = partition_to_files(
                ScatterInput::Slice(&tuples),
                dir.path(),
                'r',
                (0, 3),
                MIN_SPILL_BUDGET,
                &CpuJoinConfig::with_threads(threads),
            )
            .unwrap();
            (dir, files)
        };
        let (seq_dir, seq) = scatter(1, 21);
        let (par_dir, par) = scatter(4, 22);
        assert_eq!(seq.len(), par.len());
        for (sf, pf) in seq.iter().zip(&par) {
            let sm = sf.meta();
            let pm = pf.meta();
            // Same tuple multiset per partition: count, order-independent
            // checksum, and key range all agree; run layout may differ.
            assert_eq!(sm.tuples, pm.tuples, "{}", sm.file);
            assert_eq!(sm.checksum, pm.checksum, "{}", sm.file);
            assert_eq!(sm.min_key, pm.min_key, "{}", sm.file);
            assert_eq!(sm.max_key, pm.max_key, "{}", sm.file);
            let (mut s_rel, _) = SpillReader::read_all(seq_dir.path(), &sm).unwrap();
            let (mut p_rel, _) = SpillReader::read_all(par_dir.path(), &pm).unwrap();
            s_rel
                .tuples_mut()
                .sort_unstable_by_key(|t| (t.key, t.payload));
            p_rel
                .tuples_mut()
                .sort_unstable_by_key(|t| (t.key, t.payload));
            assert_eq!(s_rel.tuples(), p_rel.tuples(), "{}", sm.file);
        }
    }

    #[test]
    fn recursing_spill_is_thread_count_independent() {
        // 2^15 distinct-ish keys a side over 8 level-0 partitions: every
        // pair is ~4 Ki + 4 Ki tuples, past the 64 KiB budget, so each one
        // is re-partitioned from its run files at depth 1.
        let r = zipfish(1 << 15, usize::MAX, 51);
        let s = zipfish(1 << 15, usize::MAX, 52);
        let reference = reference_join(&r, &s, &mut CountingSink::new()).checksum;
        for algorithm in CpuAlgorithm::ALL {
            let run = |threads: usize| {
                let mut cfg = spill_cfg(MIN_SPILL_BUDGET);
                cfg.threads = threads;
                counting(algorithm, &r, &s, &cfg)
            };
            let (a, b) = (run(1), run(4));
            assert_eq!(a.result_count, b.result_count, "{algorithm}");
            assert_eq!(a.checksum, b.checksum, "{algorithm}");
            for stats in [&a, &b] {
                let depth = stats.trace.get("spill", counter::SPILL_RECURSION_DEPTH);
                assert!(depth >= Some(1), "{algorithm}: no recursion: {depth:?}");
            }
            assert_eq!(a.checksum, reference, "{algorithm}");
        }
    }

    #[test]
    fn grace_join_result_is_thread_count_independent() {
        let r = zipfish(3 * SCATTER_CHUNK_TUPLES, 3, 31);
        let s = zipfish(3 * SCATTER_CHUNK_TUPLES, 4, 32);
        let mut single = spill_cfg(MIN_SPILL_BUDGET);
        single.threads = 1;
        let mut multi = spill_cfg(MIN_SPILL_BUDGET);
        multi.threads = 4;
        for algorithm in CpuAlgorithm::ALL {
            let a = counting(algorithm, &r, &s, &single);
            let b = counting(algorithm, &r, &s, &multi);
            assert_eq!(a.result_count, b.result_count, "{algorithm}");
            assert_eq!(a.checksum, b.checksum, "{algorithm}");
            assert_eq!(
                b.trace.get("spill", "scatter_threads"),
                Some(4),
                "{algorithm}: parallel scatter not engaged"
            );
        }
    }

    #[test]
    fn recursion_cap_falls_back_to_nm_decomposition() {
        // A multi-key pair over budget with minimal recursion headroom:
        // whether or not spill_hash separates the two keys within one bit of
        // window, the join must COMPLETE (never reject for data shape),
        // via NM decomposition when splitting is exhausted.
        let r = Relation::from_tuples((0..6000u32).map(|i| Tuple::new(i % 2, i)).collect());
        let s = r.clone();
        let mut cfg = spill_cfg(MIN_SPILL_BUDGET);
        {
            let spill = cfg.spill.as_mut().unwrap();
            spill.partition_bits = 1;
            spill.max_recursion = 1;
        }
        for algorithm in CpuAlgorithm::ALL {
            let stats = assert_matches_reference(algorithm, &r, &s, &cfg);
            // 3000×3000 per key never fits 64 KiB: the NM route must have
            // run.
            assert!(stats.trace.get("spill", "pairs_nm_decomposed").unwrap() > 0);
        }
    }
}
