//! # skewfuzz — metamorphic fuzzing for the whole join pipeline
//!
//! Diffcheck and the chaos matrix sweep *fixed* grids: paper-shaped
//! workloads, default configurations, a curated failpoint list. This module
//! is the complement — a seeded generator of *structured random* cases
//! (adversarial relations × adversarial configurations × raw protocol
//! frames) checked against three independent oracle layers:
//!
//! 1. **Differential** — per-key result counts against the trivially
//!    correct `count_R(k) · count_S(k)` ground truth, plus the
//!    order-independent checksum ([`oracle`]).
//! 2. **Metamorphic** — identities that must hold between *pairs* of runs
//!    with no reference at all: row-permutation invariance, build/probe
//!    swap count symmetry, key-bijection equivalence, and split-relation
//!    additivity ([`Oracle`]).
//! 3. **Internal consistency** — the per-phase [`Trace`] counters must
//!    balance: no partition phase may lose or invent tuples, and the
//!    per-phase `results` counters must reconcile with the reported total
//!    ([`oracle::trace_invariants`]).
//!
//! A typed [`JoinError`] is an *accepted* outcome (the pipeline refused
//! cleanly); a panic, a hang, or any oracle mismatch is a **violation**.
//! Violations are minimized by the built-in shrinker ([`shrink`]) and can
//! be committed to `tests/fuzz_corpus/`, which `cargo test` replays as a
//! regression battery.
//!
//! Everything is driven by one `u64` seed: same binary + same seed ⇒ same
//! cases, same verdicts.
//!
//! [`Trace`]: skewjoin::common::Trace
//! [`JoinError`]: skewjoin::common::JoinError

pub mod frames;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::path::PathBuf;
use std::time::Duration;

use skewjoin::common::hash::{RadixConfig, RadixMode};
use skewjoin::common::json::Json;
use skewjoin::common::{Relation, Tuple};
use skewjoin::cpu::{CpuJoinConfig, SchedulerKind, SimdPolicy, SpillConfig};
use skewjoin::datagen::Rng;
use skewjoin::gpu::{GpuBackendKind, GpuJoinConfig};
use skewjoin::gpu_sim::DeviceSpec;
use skewjoin::Algorithm;

/// Looks an algorithm up by its display name (case-insensitive), the
/// inverse of [`Algorithm::name`] for corpus round-trips.
pub fn algorithm_by_name(name: &str) -> Option<Algorithm> {
    Algorithm::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

/// Which oracle a join case is checked against. Every case additionally
/// passes through the differential and trace layers; the metamorphic
/// variants each need one or two extra executions, so a case carries
/// exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Differential + trace layers only.
    Diff,
    /// Shuffling the rows of both inputs must change neither the per-key
    /// counts nor the order-independent checksum.
    Permute,
    /// `|R ⋈ S|ₖ = |S ⋈ R|ₖ` for every key: swapping build and probe sides
    /// preserves per-key counts (payload roles swap, so checksums differ).
    SwapSides,
    /// Remapping every key through the bijective `mix32` multiplier yields
    /// the same counts under the remapped keys — the join must not care
    /// *which* 32-bit values the keys are.
    Bijection,
    /// For any disjoint split `R = R₁ ⊎ R₂`:
    /// `|R ⋈ S|ₖ = |R₁ ⋈ S|ₖ + |R₂ ⋈ S|ₖ`.
    SplitAdditive,
    /// Re-running with the SIMD policy flipped (forced-scalar vs
    /// auto-detected vector kernels) must change neither the per-key
    /// counts nor the checksum — the vector paths are pure replacements
    /// for the scalar ones, never semantic variants. CPU algorithms only;
    /// the GPU simulator has no SIMD dispatch.
    SimdScalar,
}

impl Oracle {
    /// Corpus wire name.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Diff => "diff",
            Oracle::Permute => "permute",
            Oracle::SwapSides => "swap-sides",
            Oracle::Bijection => "bijection",
            Oracle::SplitAdditive => "split-additive",
            Oracle::SimdScalar => "simd-scalar",
        }
    }

    /// Parses a corpus wire name.
    pub fn parse(s: &str) -> Option<Oracle> {
        match s {
            "diff" => Some(Oracle::Diff),
            "permute" => Some(Oracle::Permute),
            "swap-sides" => Some(Oracle::SwapSides),
            "bijection" => Some(Oracle::Bijection),
            "split-additive" => Some(Oracle::SplitAdditive),
            "simd-scalar" => Some(Oracle::SimdScalar),
            _ => None,
        }
    }
}

/// The fuzzed configuration knobs, flattened into one plain-data struct so
/// cases serialize to the corpus and shrink knob-by-knob. Converted to the
/// real [`CpuJoinConfig`]/[`GpuJoinConfig`] at execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// CPU worker threads.
    pub threads: usize,
    /// Radix bits per pass (CPU side; the GPU derives its own unless
    /// overridden). Empty runs the radix the CPU derives from |R|.
    pub radix_bits: Vec<u32>,
    /// Take partition bits straight from the raw key ([`RadixMode::Raw`])
    /// instead of mixing first (a pinned radix only).
    pub raw_radix: bool,
    /// Mutex scheduler instead of work stealing.
    pub mutex_scheduler: bool,
    /// Cbase oversize-partition split threshold.
    pub split_factor: f64,
    /// Radix bits per recursive splitting pass.
    pub extra_pass_bits: u32,
    /// Hash-table bucket-bit cap.
    pub max_bucket_bits: u32,
    /// Force the scalar kernels even where SIMD is available — the other
    /// half of the [`Oracle::SimdScalar`] identity.
    pub force_scalar: bool,
    /// Tuples per morsel in the pipelined CPU joins.
    pub morsel_tuples: usize,
    /// CSH detector sample rate.
    pub sample_rate: f64,
    /// CSH detector frequency threshold.
    pub min_sample_freq: u32,
    /// Detector sampling seed.
    pub detect_seed: u64,
    /// GPU shared-memory table capacity override (`None` = derived).
    pub gpu_table_capacity: Option<usize>,
    /// GPU threads per block.
    pub gpu_block_dim: usize,
    /// GSH detector sample rate.
    pub gpu_sample_rate: f64,
    /// GSH top-k skewed keys per large partition.
    pub gpu_top_k: usize,
    /// In-memory working-set budget (bytes) forcing the CPU joins through
    /// the out-of-core grace-hash spill; `None` keeps them in memory.
    /// Budgets tight relative to the input exercise recursive
    /// re-partitioning and the NM decomposition floor.
    pub spill_budget: Option<u64>,
    /// Run on the 4 KB-shared-memory tiny device instead of the A100.
    pub tiny_device: bool,
    /// Execute the GPU joins on the host backend instead of the simulator
    /// — the fuzzer's arm of the backend-parity oracle: every differential
    /// and metamorphic identity must hold regardless of which backend ran.
    pub gpu_backend_host: bool,
    /// The generator deliberately broke one knob; the run must fail with a
    /// typed `InvalidConfig`, and completing successfully is a violation
    /// (it means a join entry point skipped validation).
    pub expect_invalid: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        let cpu = CpuJoinConfig::default();
        let gpu = GpuJoinConfig::default();
        Self {
            threads: 2,
            radix_bits: vec![4, 4],
            raw_radix: false,
            mutex_scheduler: false,
            split_factor: cpu.split_factor,
            extra_pass_bits: cpu.extra_pass_bits,
            max_bucket_bits: cpu.max_bucket_bits,
            force_scalar: false,
            morsel_tuples: cpu.morsel_tuples,
            sample_rate: cpu.skew.sample_rate,
            min_sample_freq: cpu.skew.min_sample_freq,
            detect_seed: cpu.skew.seed,
            gpu_table_capacity: None,
            gpu_block_dim: gpu.block_dim,
            gpu_sample_rate: gpu.skew.sample_rate,
            gpu_top_k: gpu.skew.top_k,
            spill_budget: None,
            tiny_device: false,
            gpu_backend_host: false,
            expect_invalid: false,
        }
    }
}

impl FuzzConfig {
    /// Materializes the CPU configuration these knobs describe.
    pub fn to_cpu_config(&self) -> CpuJoinConfig {
        let mut cfg = CpuJoinConfig {
            threads: self.threads,
            radix: (!self.radix_bits.is_empty()).then(|| RadixConfig {
                bits_per_pass: self.radix_bits.clone(),
                mode: if self.raw_radix {
                    RadixMode::Raw
                } else {
                    RadixMode::Mixed
                },
            }),
            split_factor: self.split_factor,
            extra_pass_bits: self.extra_pass_bits,
            scheduler: if self.mutex_scheduler {
                SchedulerKind::Mutex
            } else {
                SchedulerKind::WorkStealing
            },
            max_bucket_bits: self.max_bucket_bits,
            simd: if self.force_scalar {
                SimdPolicy::Scalar
            } else {
                SimdPolicy::Auto
            },
            morsel_tuples: self.morsel_tuples,
            ..CpuJoinConfig::default()
        };
        cfg.skew.sample_rate = self.sample_rate;
        cfg.skew.min_sample_freq = self.min_sample_freq;
        cfg.skew.seed = self.detect_seed;
        cfg.spill = self.spill_budget.map(SpillConfig::with_budget);
        cfg
    }

    /// Materializes the GPU configuration these knobs describe.
    pub fn to_gpu_config(&self) -> GpuJoinConfig {
        let mut cfg = GpuJoinConfig {
            block_dim: self.gpu_block_dim,
            table_capacity: self.gpu_table_capacity,
            ..GpuJoinConfig::default()
        };
        if self.tiny_device {
            cfg.spec = DeviceSpec::tiny(1 << 22);
        }
        if self.gpu_backend_host {
            cfg.backend = GpuBackendKind::Host;
        }
        cfg.skew.sample_rate = self.gpu_sample_rate;
        cfg.skew.top_k = self.gpu_top_k;
        cfg.skew.seed = self.detect_seed;
        cfg
    }

    /// Serializes to the corpus JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("threads", Json::from_u64(self.threads as u64)),
            (
                "radix_bits",
                Json::Arr(
                    self.radix_bits
                        .iter()
                        .map(|&b| Json::from_u64(u64::from(b)))
                        .collect(),
                ),
            ),
            ("raw_radix", Json::Bool(self.raw_radix)),
            ("mutex_scheduler", Json::Bool(self.mutex_scheduler)),
            ("split_factor", Json::num(self.split_factor)),
            (
                "extra_pass_bits",
                Json::from_u64(u64::from(self.extra_pass_bits)),
            ),
            (
                "max_bucket_bits",
                Json::from_u64(u64::from(self.max_bucket_bits)),
            ),
            ("force_scalar", Json::Bool(self.force_scalar)),
            ("morsel_tuples", Json::from_u64(self.morsel_tuples as u64)),
            ("sample_rate", Json::num(self.sample_rate)),
            (
                "min_sample_freq",
                Json::from_u64(u64::from(self.min_sample_freq)),
            ),
            ("detect_seed", Json::from_u64(self.detect_seed)),
            ("gpu_block_dim", Json::from_u64(self.gpu_block_dim as u64)),
            ("gpu_sample_rate", Json::num(self.gpu_sample_rate)),
            ("gpu_top_k", Json::from_u64(self.gpu_top_k as u64)),
            ("tiny_device", Json::Bool(self.tiny_device)),
            ("gpu_backend_host", Json::Bool(self.gpu_backend_host)),
            ("expect_invalid", Json::Bool(self.expect_invalid)),
        ];
        if let Some(cap) = self.gpu_table_capacity {
            fields.push(("gpu_table_capacity", Json::from_u64(cap as u64)));
        }
        if let Some(budget) = self.spill_budget {
            fields.push(("spill_budget", Json::from_u64(budget)));
        }
        Json::obj(fields)
    }

    /// Rebuilds from corpus JSON; absent fields keep their defaults so old
    /// corpus entries survive new knobs.
    pub fn from_json(json: &Json) -> FuzzConfig {
        let mut cfg = FuzzConfig::default();
        let u = |name: &str| json.get(name).and_then(Json::as_u64);
        let f = |name: &str| json.get(name).and_then(Json::as_f64);
        let b = |name: &str| json.get(name).and_then(Json::as_bool);
        if let Some(v) = u("threads") {
            cfg.threads = v as usize;
        }
        if let Some(bits) = json.get("radix_bits").and_then(Json::as_array) {
            cfg.radix_bits = bits
                .iter()
                .filter_map(Json::as_u64)
                .map(|b| b as u32)
                .collect();
        }
        if let Some(v) = b("raw_radix") {
            cfg.raw_radix = v;
        }
        if let Some(v) = b("mutex_scheduler") {
            cfg.mutex_scheduler = v;
        }
        if let Some(v) = f("split_factor") {
            cfg.split_factor = v;
        }
        if let Some(v) = u("extra_pass_bits") {
            cfg.extra_pass_bits = v as u32;
        }
        if let Some(v) = u("max_bucket_bits") {
            cfg.max_bucket_bits = v as u32;
        }
        if let Some(v) = b("force_scalar") {
            cfg.force_scalar = v;
        }
        if let Some(v) = u("morsel_tuples") {
            cfg.morsel_tuples = v as usize;
        }
        if let Some(v) = f("sample_rate") {
            cfg.sample_rate = v;
        }
        if let Some(v) = u("min_sample_freq") {
            cfg.min_sample_freq = v as u32;
        }
        if let Some(v) = u("detect_seed") {
            cfg.detect_seed = v;
        }
        cfg.gpu_table_capacity = u("gpu_table_capacity").map(|v| v as usize);
        // Absent in pre-spill corpus entries: stays disabled.
        cfg.spill_budget = u("spill_budget");
        if let Some(v) = u("gpu_block_dim") {
            cfg.gpu_block_dim = v as usize;
        }
        if let Some(v) = f("gpu_sample_rate") {
            cfg.gpu_sample_rate = v;
        }
        if let Some(v) = u("gpu_top_k") {
            cfg.gpu_top_k = v as usize;
        }
        if let Some(v) = b("tiny_device") {
            cfg.tiny_device = v;
        }
        if let Some(v) = b("gpu_backend_host") {
            cfg.gpu_backend_host = v;
        }
        if let Some(v) = b("expect_invalid") {
            cfg.expect_invalid = v;
        }
        cfg
    }
}

/// One generated join case: an algorithm, a configuration, both input
/// relations as plain `(key, payload)` pairs, and the oracle it is checked
/// against. Plain data so it serializes, shrinks, and replays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCase {
    /// Display name (`seed-s7-case42` for generated cases, the file stem
    /// for corpus entries).
    pub name: String,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// The metamorphic oracle layer for this case.
    pub oracle: Oracle,
    /// Configuration knobs.
    pub config: FuzzConfig,
    /// Build side as `(key, payload)` pairs.
    pub r: Vec<(u32, u32)>,
    /// Probe side as `(key, payload)` pairs.
    pub s: Vec<(u32, u32)>,
}

/// Converts a pair list into a [`Relation`].
pub fn relation_of(pairs: &[(u32, u32)]) -> Relation {
    Relation::from_tuples(pairs.iter().map(|&(k, p)| Tuple::new(k, p)).collect())
}

fn pairs_to_json(pairs: &[(u32, u32)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(k, p)| {
                Json::Arr(vec![
                    Json::from_u64(u64::from(k)),
                    Json::from_u64(u64::from(p)),
                ])
            })
            .collect(),
    )
}

fn pairs_from_json(json: &Json) -> Option<Vec<(u32, u32)>> {
    json.as_array()?
        .iter()
        .map(|row| {
            let pair = row.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            Some((
                u32::try_from(pair[0].as_u64()?).ok()?,
                u32::try_from(pair[1].as_u64()?).ok()?,
            ))
        })
        .collect()
}

impl JoinCase {
    /// Serializes the case to corpus JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("join")),
            ("name", Json::str(&self.name)),
            ("algorithm", Json::str(self.algorithm.name())),
            ("oracle", Json::str(self.oracle.name())),
            ("config", self.config.to_json()),
            ("r", pairs_to_json(&self.r)),
            ("s", pairs_to_json(&self.s)),
        ])
    }

    /// Rebuilds a case from corpus JSON.
    pub fn from_json(json: &Json) -> Option<JoinCase> {
        Some(JoinCase {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("corpus")
                .to_string(),
            algorithm: algorithm_by_name(json.get("algorithm")?.as_str()?)?,
            oracle: Oracle::parse(json.get("oracle").and_then(Json::as_str).unwrap_or("diff"))?,
            config: FuzzConfig::from_json(json.get("config")?),
            r: pairs_from_json(json.get("r")?)?,
            s: pairs_from_json(json.get("s")?)?,
        })
    }
}

/// One generated protocol-frame case: raw bytes thrown at the frame codec
/// and (over a real socket) at a live service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameCase {
    /// Display name.
    pub name: String,
    /// The raw bytes, length prefix included (possibly inconsistent with
    /// the body — that is the point).
    pub bytes: Vec<u8>,
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn from_hex(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).ok())
        .collect()
}

impl FrameCase {
    /// Serializes the case to corpus JSON (bytes as hex).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("frame")),
            ("name", Json::str(&self.name)),
            ("frame_hex", Json::str(to_hex(&self.bytes))),
        ])
    }

    /// Rebuilds a case from corpus JSON.
    pub fn from_json(json: &Json) -> Option<FrameCase> {
        Some(FrameCase {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("corpus")
                .to_string(),
            bytes: from_hex(json.get("frame_hex")?.as_str()?)?,
        })
    }
}

/// A corpus entry: either kind of case.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusEntry {
    /// A join-pipeline case.
    Join(JoinCase),
    /// A protocol-frame case.
    Frame(FrameCase),
}

impl CorpusEntry {
    /// Display name of the underlying case.
    pub fn name(&self) -> &str {
        match self {
            CorpusEntry::Join(c) => &c.name,
            CorpusEntry::Frame(c) => &c.name,
        }
    }

    /// Serializes to corpus JSON.
    pub fn to_json(&self) -> Json {
        match self {
            CorpusEntry::Join(c) => c.to_json(),
            CorpusEntry::Frame(c) => c.to_json(),
        }
    }

    /// Parses corpus JSON by its `kind` tag.
    pub fn from_json(json: &Json) -> Option<CorpusEntry> {
        match json.get("kind").and_then(Json::as_str) {
            Some("join") => JoinCase::from_json(json).map(CorpusEntry::Join),
            Some("frame") => FrameCase::from_json(json).map(CorpusEntry::Frame),
            _ => None,
        }
    }
}

/// A confirmed, shrunk failure.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The minimized repro.
    pub entry: CorpusEntry,
    /// What the oracle saw (panic message, diverging key, broken counter).
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "VIOLATION [{}]: {}", self.entry.name(), self.details)?;
        write!(f, "  repro: {}", self.entry.to_json())
    }
}

/// Knobs for one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Cases to generate.
    pub cases: usize,
    /// Master seed; every case derives from it.
    pub seed: u64,
    /// Upper bound on relation cardinality.
    pub max_size: usize,
    /// Watchdog timeout per execution.
    pub timeout: Duration,
    /// One in this many cases is a protocol-frame case (0 disables frame
    /// fuzzing).
    pub frame_share: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            cases: 500,
            seed: 1,
            max_size: 1 << 20,
            timeout: Duration::from_secs(60),
            frame_share: 4,
        }
    }
}

/// Tally of one fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Join cases executed.
    pub join_cases: usize,
    /// Frame cases executed.
    pub frame_cases: usize,
    /// Runs that ended in an accepted typed error.
    pub typed_errors: usize,
    /// Confirmed violations, already shrunk.
    pub violations: Vec<Violation>,
}

/// Runs `opts.cases` generated cases under one seed, shrinking every
/// violation before recording it. `progress` is invoked after each case
/// with `(case_index, case_name, violation_so_far_count)`.
pub fn run_fuzz(opts: &FuzzOptions, mut progress: impl FnMut(usize, &str, usize)) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut rng = Rng::seed_from_u64(opts.seed ^ 0x5EED_F0CC_AC1D_BEEF);
    // One live service shared by every frame case of the run.
    let harness = if opts.frame_share > 0 {
        frames::FrameHarness::start().ok()
    } else {
        None
    };
    for index in 0..opts.cases {
        let is_frame = opts.frame_share > 0 && index % opts.frame_share == opts.frame_share - 1;
        let name;
        if is_frame {
            let case = gen::gen_frame_case(&mut rng, opts.seed, index);
            name = case.name.clone();
            report.frame_cases += 1;
            if let Some(details) = frames::check_frame(&case, harness.as_ref()) {
                let shrunk = shrink::shrink_frame(&case, harness.as_ref(), 200);
                report.violations.push(Violation {
                    entry: CorpusEntry::Frame(shrunk),
                    details,
                });
            }
        } else {
            let case = gen::gen_join_case(&mut rng, opts.seed, index, opts.max_size);
            name = case.name.clone();
            report.join_cases += 1;
            match oracle::check_join_case(&case, opts.timeout) {
                oracle::CaseVerdict::Pass => {}
                oracle::CaseVerdict::TypedError(_) => report.typed_errors += 1,
                oracle::CaseVerdict::Violation(details) => {
                    let shrunk = shrink::shrink_join(&case, opts.timeout, 300);
                    report.violations.push(Violation {
                        entry: CorpusEntry::Join(shrunk),
                        details,
                    });
                }
            }
        }
        progress(index, &name, report.violations.len());
    }
    report
}

/// The committed regression corpus, relative to this crate's manifest.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus")
}

/// Loads every `*.json` corpus entry under `dir`, sorted by file name.
/// Unparseable files are reported as `Err` entries so the replay test
/// fails loudly instead of silently skipping a repro.
pub fn load_corpus(dir: &std::path::Path) -> Vec<Result<CorpusEntry, String>> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect(),
        Err(_) => return Vec::new(),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut entry = CorpusEntry::from_json(&json)
                .ok_or_else(|| format!("{}: not a corpus entry", path.display()))?;
            // The file stem is the authoritative name.
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                match &mut entry {
                    CorpusEntry::Join(c) => c.name = stem.to_string(),
                    CorpusEntry::Frame(c) => c.name = stem.to_string(),
                }
            }
            Ok(entry)
        })
        .collect()
}

/// Replays one corpus entry; `Some(details)` is a regression.
pub fn replay(
    entry: &CorpusEntry,
    harness: Option<&frames::FrameHarness>,
    timeout: Duration,
) -> Option<String> {
    match entry {
        CorpusEntry::Join(case) => match oracle::check_join_case(case, timeout) {
            oracle::CaseVerdict::Violation(details) => Some(details),
            _ => None,
        },
        CorpusEntry::Frame(case) => frames::check_frame(case, harness),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::{CpuAlgorithm, GpuAlgorithm};

    #[test]
    fn corpus_codec_round_trips_join_cases() {
        let case = JoinCase {
            name: "roundtrip".into(),
            algorithm: Algorithm::Gpu(GpuAlgorithm::Gsh),
            oracle: Oracle::Bijection,
            config: FuzzConfig {
                radix_bits: vec![3, 5],
                raw_radix: true,
                force_scalar: true,
                morsel_tuples: 1024,
                gpu_table_capacity: Some(256),
                tiny_device: true,
                gpu_backend_host: true,
                expect_invalid: false,
                ..FuzzConfig::default()
            },
            r: vec![(0, 0), (u32::MAX, 7)],
            s: vec![(u32::MAX, 1)],
        };
        let text = case.to_json().to_string();
        let back = CorpusEntry::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, CorpusEntry::Join(case.clone()));

        // Entries written while the write-combining scatter knobs or the
        // Gbase bucket-capacity knob existed still load: unknown config
        // keys are ignored.
        let mut json = Json::parse(&text).unwrap();
        let Json::Obj(fields) = &mut json else {
            panic!("case is not an object")
        };
        let (_, Json::Obj(config)) = fields.iter_mut().find(|(k, _)| k == "config").unwrap() else {
            panic!("config is not an object")
        };
        config.push(("buffered_scatter".into(), Json::Bool(true)));
        config.push((concat!("wc", "_tuples").into(), Json::from_u64(16)));
        config.push(("gpu_bucket_capacity".into(), Json::from_u64(16)));
        let old = CorpusEntry::from_json(&json).unwrap();
        assert_eq!(old, CorpusEntry::Join(case));
    }

    #[test]
    fn corpus_codec_round_trips_frame_cases() {
        let case = FrameCase {
            name: "bytes".into(),
            bytes: vec![0, 0, 0, 2, 0xFF, 0x00],
        };
        let text = case.to_json().to_string();
        let back = CorpusEntry::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, CorpusEntry::Frame(case));
    }

    #[test]
    fn fuzz_config_materializes_valid_defaults() {
        let cfg = FuzzConfig::default();
        cfg.to_cpu_config().validate().unwrap();
        cfg.to_gpu_config().validate().unwrap();
        assert_eq!(cfg.to_gpu_config().backend, GpuBackendKind::Sim);
        let host = FuzzConfig {
            gpu_backend_host: true,
            ..FuzzConfig::default()
        };
        assert_eq!(host.to_gpu_config().backend, GpuBackendKind::Host);
        host.to_gpu_config().validate().unwrap();
    }

    #[test]
    fn algorithm_names_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(algorithm_by_name(a.name()), Some(a));
        }
        assert_eq!(
            algorithm_by_name("cbase"),
            Some(Algorithm::Cpu(CpuAlgorithm::Cbase))
        );
        assert!(algorithm_by_name("quantum").is_none());
    }
}
