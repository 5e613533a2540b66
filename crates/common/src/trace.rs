//! Structured per-phase execution traces.
//!
//! Every join algorithm in the workspace records, alongside its wall-clock
//! [`crate::stats::PhaseTimes`], a [`Trace`]: named per-phase counters
//! (tuples partitioned, hash-table build/probe totals, maximum chain
//! length, task-queue splits, simulated-GPU cycle/divergence/bank-conflict/
//! atomic totals per kernel) plus the skewed keys the detector found and
//! their sample frequencies. Traces serialize to JSON so bench binaries can
//! embed them in their records, and the `diffcheck` oracle prints two
//! traces side by side to localize where a divergent join went wrong.
//!
//! Counters are deliberately an open vocabulary (`&str` names) so each
//! algorithm can record phase-specific detail, but the shared names in
//! [`counter`] are used by every algorithm for cross-comparable totals.
//!
//! Degradations are the opposite: a closed vocabulary. Every decision that
//! runs a join differently from how it was asked for is one [`Rung`]
//! variant, rendered to text by its `Display` impl alone and carried over
//! the wire by one JSON codec, so callers match variants, never wording.

use crate::json::Json;
use crate::tuple::Key;

/// Canonical counter names shared across algorithms. Using these spellings
/// keeps traces comparable between, say, `cbase` and `gsh`.
pub mod counter {
    /// Tuples entering a partitioning phase.
    pub const TUPLES_IN: &str = "tuples_in";
    /// Tuples written out by a partitioning phase (must equal `TUPLES_IN`).
    pub const TUPLES_OUT: &str = "tuples_out";
    /// Number of partitions produced.
    pub const PARTITIONS: &str = "partitions";
    /// Radix bits a partitioning phase fanned out by, all passes together.
    pub const RADIX_BITS: &str = "radix_bits";
    /// Radix passes a partitioning phase took to reach its fan-out.
    pub const RADIX_PASSES: &str = "radix_passes";
    /// Tuples inserted into hash tables during build.
    pub const BUILD_TUPLES: &str = "build_tuples";
    /// Tuples driven through hash-table probes.
    pub const PROBE_TUPLES: &str = "probe_tuples";
    /// Longest collision chain observed across all hash tables built.
    pub const MAX_CHAIN_LEN: &str = "max_chain_len";
    /// Join results emitted by the phase.
    pub const RESULTS: &str = "results";
    /// Task-queue splits performed (recursive repartitioning).
    pub const TASK_SPLITS: &str = "task_splits";
    /// Tasks executed from the work queue.
    pub const TASKS_RUN: &str = "tasks_run";
    /// Skewed keys the detector reported.
    pub const SKEWED_KEYS: &str = "skewed_keys";
    /// Tasks a worker took from another worker's deque.
    pub const TASKS_STOLEN: &str = "tasks_stolen";
    /// Full steal rounds (every victim tried) that found nothing.
    pub const STEAL_FAILURES: &str = "steal_failures";
    /// Morsel-granular tasks executed by a pipelined phase (histogram,
    /// scatter, refine, build, or probe morsels, per phase).
    pub const MORSELS: &str = "morsels";
    /// Kernel launches in a simulated-GPU phase.
    pub const KERNEL_LAUNCHES: &str = "kernel_launches";
    /// Total simulated device cycles for the phase.
    pub const DEVICE_CYCLES: &str = "device_cycles";
    /// Maximum simulated cycles of any single block in the phase.
    pub const MAX_BLOCK_CYCLES: &str = "max_block_cycles";
    /// Cycles wasted to intra-warp branch divergence.
    pub const DIVERGENCE_CYCLES: &str = "divergence_cycles";
    /// Cycles serialized on shared-memory bank conflicts.
    pub const BANK_CONFLICT_CYCLES: &str = "bank_conflict_cycles";
    /// Cycles serialized on atomic contention.
    pub const ATOMIC_CYCLES: &str = "atomic_cycles";
    /// 128-byte global-memory transactions issued.
    pub const MEM_TRANSACTIONS: &str = "mem_transactions";
    /// Bytes written to spill (scratch) files by an out-of-core join.
    pub const SPILL_BYTES_WRITTEN: &str = "spill_bytes_written";
    /// Bytes read back from spill files.
    pub const SPILL_BYTES_READ: &str = "spill_bytes_read";
    /// Partitions spilled to disk (across all recursion levels).
    pub const SPILL_PARTITIONS: &str = "spill_partitions";
    /// Deepest recursive re-partitioning level an out-of-core join reached
    /// (0 = every level-0 partition pair fit the reload budget).
    pub const SPILL_RECURSION_DEPTH: &str = "spill_recursion_depth";
}

/// A skewed key reported by a detector, with the frequency evidence that
/// triggered detection. CSH's sampler returns it, and the cluster's
/// `ShardRouter`, the planner and the trace consume it as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedKey {
    /// The detected join key.
    pub key: Key,
    /// Sample hits: how often the key was drawn by the detector's ~1 %
    /// sample (CSH samples R; GSH samples each large partition).
    pub frequency: u64,
}

/// Why a GPU join ran as its CPU twin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwinCause {
    /// Planned before running: the GPU estimate at its narrowest radix
    /// exceeds the memory budget, so the GPU is never attempted.
    Budget {
        /// The GPU join's memory estimate, in bytes.
        estimate: u64,
        /// The memory budget, in bytes.
        budget: u64,
    },
    /// Taken at run time: the device ran out of a resource.
    Device {
        /// The GPU backend that was executing (`sim` or `host`).
        backend: String,
        /// The device's `GpuResourceExhausted` error, rendered.
        error: String,
    },
}

/// One degradation decision: a join ran differently from how it was asked
/// for, and still completed. Recorded in [`Trace::degradations`] in the
/// order the decisions were made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rung {
    /// The budget fit narrowed `algorithm`'s radix to `bits` because its
    /// memory estimate exceeded the budget.
    NarrowedRadix {
        /// Display name of the narrowed algorithm.
        algorithm: String,
        /// Total radix bits after narrowing.
        bits: u32,
        /// The memory estimate before this narrowing step, in bytes.
        estimate: u64,
        /// The memory budget, in bytes.
        budget: u64,
    },
    /// The GPU join `gpu` ran as its CPU twin `cpu` (Gbase→Cbase,
    /// GSH→CSH).
    CpuTwin {
        /// Display name of the requested GPU join.
        gpu: String,
        /// Display name of the CPU join that ran instead.
        cpu: String,
        /// What sent the join to the CPU.
        cause: TwinCause,
    },
    /// The budget fit sent the join through the grace-hash spill.
    Spill {
        /// Radix bits of the spill's level-0 partitioning.
        partition_bits: u32,
        /// The in-memory floor estimate that did not fit, in bytes.
        estimate: u64,
        /// The memory budget, in bytes.
        budget: u64,
        /// The spill's in-memory working set, in bytes.
        working_set: u64,
        /// Scratch-disk bytes reserved for the spill.
        scratch_bytes: u64,
    },
    /// A spilled join failed with `SpillFailed`; the service's one retry
    /// succeeded.
    SpillRetry {
        /// The first attempt's error, rendered.
        error: String,
    },
    /// A spilled partition pair still exceeded the budget at the recursion
    /// cap and was joined by NM block decomposition.
    NmDecomposition {
        /// Index of the partition at its level.
        partition: u64,
        /// Build-side tuples in the pair.
        r_tuples: u64,
        /// Probe-side tuples in the pair.
        s_tuples: u64,
        /// Recursion depth the pair was pinned at.
        depth: u32,
        /// The configured recursion cap.
        cap: u32,
    },
    /// Removing spill scratch failed; the scratch guard removes it later.
    ScratchRemoval {
        /// `true` for a recursion level's directory, `false` for the
        /// join's whole scratch directory.
        sub_level: bool,
        /// The removal error, rendered.
        error: String,
    },
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::NarrowedRadix {
                algorithm,
                bits,
                estimate,
                budget,
            } => write!(
                f,
                "governor: narrowed {algorithm} radix to {bits} bits (estimate {estimate} B > \
                 budget {budget} B)"
            ),
            Rung::CpuTwin {
                gpu,
                cpu,
                cause: TwinCause::Budget { estimate, budget },
            } => write!(
                f,
                "governor: {gpu}→{cpu} — {gpu} estimate {estimate} B exceeds budget {budget} B \
                 at its narrowest radix"
            ),
            Rung::CpuTwin {
                gpu,
                cpu,
                cause: TwinCause::Device { backend, error },
            } => write!(f, "{gpu}→{cpu} (gpu backend {backend}): {error}"),
            Rung::Spill {
                partition_bits,
                estimate,
                budget,
                working_set,
                scratch_bytes,
            } => write!(
                f,
                "governor: spill:{partition_bits} — floor estimate {estimate} B exceeds budget \
                 {budget} B; grace-hash spill under a {working_set} B working set \
                 ({scratch_bytes} B scratch reserved)"
            ),
            Rung::SpillRetry { error } => write!(f, "spill retry succeeded after: {error}"),
            Rung::NmDecomposition {
                partition,
                r_tuples,
                s_tuples,
                depth,
                cap,
            } => write!(
                f,
                "spill: partition {partition} ({r_tuples} R + {s_tuples} S tuples) pinned at \
                 recursion depth {depth} (cap {cap}); NM decomposition"
            ),
            Rung::ScratchRemoval {
                sub_level: true,
                error,
            } => write!(
                f,
                "spill: sub-level removal failed ({error}); deferred to guard"
            ),
            Rung::ScratchRemoval {
                sub_level: false,
                error,
            } => write!(
                f,
                "spill: scratch removal failed ({error}); retried by guard"
            ),
        }
    }
}

impl Rung {
    /// Serializes the rung as one JSON object: its `kind` tag plus its
    /// fields under their Rust names (a [`TwinCause`] adds `cause` and the
    /// cause's fields).
    pub fn to_json(&self) -> Json {
        let text = |s: &String| Json::str(s);
        let num = Json::from_u64;
        let (kind, fields) = match self {
            Rung::NarrowedRadix {
                algorithm,
                bits,
                estimate,
                budget,
            } => (
                "narrowed_radix",
                vec![
                    ("algorithm", text(algorithm)),
                    ("bits", num(u64::from(*bits))),
                    ("estimate", num(*estimate)),
                    ("budget", num(*budget)),
                ],
            ),
            Rung::CpuTwin { gpu, cpu, cause } => {
                let mut fields = vec![("gpu", text(gpu)), ("cpu", text(cpu))];
                match cause {
                    TwinCause::Budget { estimate, budget } => fields.extend([
                        ("cause", Json::str("budget")),
                        ("estimate", num(*estimate)),
                        ("budget", num(*budget)),
                    ]),
                    TwinCause::Device { backend, error } => fields.extend([
                        ("cause", Json::str("device")),
                        ("backend", text(backend)),
                        ("error", text(error)),
                    ]),
                }
                ("cpu_twin", fields)
            }
            Rung::Spill {
                partition_bits,
                estimate,
                budget,
                working_set,
                scratch_bytes,
            } => (
                "spill",
                vec![
                    ("partition_bits", num(u64::from(*partition_bits))),
                    ("estimate", num(*estimate)),
                    ("budget", num(*budget)),
                    ("working_set", num(*working_set)),
                    ("scratch_bytes", num(*scratch_bytes)),
                ],
            ),
            Rung::SpillRetry { error } => ("spill_retry", vec![("error", text(error))]),
            Rung::NmDecomposition {
                partition,
                r_tuples,
                s_tuples,
                depth,
                cap,
            } => (
                "nm_decomposition",
                vec![
                    ("partition", num(*partition)),
                    ("r_tuples", num(*r_tuples)),
                    ("s_tuples", num(*s_tuples)),
                    ("depth", num(u64::from(*depth))),
                    ("cap", num(u64::from(*cap))),
                ],
            ),
            Rung::ScratchRemoval { sub_level, error } => (
                "scratch_removal",
                vec![
                    ("sub_level", Json::Bool(*sub_level)),
                    ("error", text(error)),
                ],
            ),
        };
        let mut pairs = vec![("kind", Json::str(kind))];
        pairs.extend(fields);
        Json::obj(pairs)
    }

    /// Parses the object [`Rung::to_json`] writes. `Err` names the unknown
    /// kind or the missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Rung, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("rung needs a string \"kind\"")?;
        let field = |name: &str| {
            json.get(name)
                .ok_or_else(|| format!("{kind} rung needs \"{name}\""))
        };
        let text = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} rung: \"{name}\" must be a string"))
        };
        let num = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("{kind} rung: \"{name}\" must be a whole number"))
        };
        let small = |name: &str| {
            u32::try_from(num(name)?)
                .map_err(|_| format!("{kind} rung: \"{name}\" exceeds 32 bits"))
        };
        Ok(match kind {
            "narrowed_radix" => Rung::NarrowedRadix {
                algorithm: text("algorithm")?,
                bits: small("bits")?,
                estimate: num("estimate")?,
                budget: num("budget")?,
            },
            "cpu_twin" => Rung::CpuTwin {
                gpu: text("gpu")?,
                cpu: text("cpu")?,
                cause: match text("cause")?.as_str() {
                    "budget" => TwinCause::Budget {
                        estimate: num("estimate")?,
                        budget: num("budget")?,
                    },
                    "device" => TwinCause::Device {
                        backend: text("backend")?,
                        error: text("error")?,
                    },
                    other => return Err(format!("cpu_twin rung: unknown cause {other:?}")),
                },
            },
            "spill" => Rung::Spill {
                partition_bits: small("partition_bits")?,
                estimate: num("estimate")?,
                budget: num("budget")?,
                working_set: num("working_set")?,
                scratch_bytes: num("scratch_bytes")?,
            },
            "spill_retry" => Rung::SpillRetry {
                error: text("error")?,
            },
            "nm_decomposition" => Rung::NmDecomposition {
                partition: num("partition")?,
                r_tuples: num("r_tuples")?,
                s_tuples: num("s_tuples")?,
                depth: small("depth")?,
                cap: small("cap")?,
            },
            "scratch_removal" => Rung::ScratchRemoval {
                sub_level: field("sub_level")?
                    .as_bool()
                    .ok_or("scratch_removal rung: \"sub_level\" must be a boolean")?,
                error: text("error")?,
            },
            other => return Err(format!("unknown rung kind {other:?}")),
        })
    }
}

/// Counters for one named execution phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Phase name (matches the [`crate::stats::PhaseTimes`] entry).
    pub name: String,
    /// Counter name → value, in first-touch order.
    pub counters: Vec<(String, u64)>,
}

impl PhaseTrace {
    /// Creates an empty phase trace.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            counters: Vec::new(),
        }
    }

    /// Adds `delta` to a counter, creating it at zero if absent.
    pub fn add(&mut self, counter: &str, delta: u64) -> &mut Self {
        match self.counters.iter_mut().find(|(name, _)| name == counter) {
            Some((_, value)) => *value += delta,
            None => self.counters.push((counter.to_string(), delta)),
        }
        self
    }

    /// Sets a counter to `value`, replacing any previous value.
    pub fn set(&mut self, counter: &str, value: u64) -> &mut Self {
        match self.counters.iter_mut().find(|(name, _)| name == counter) {
            Some((_, slot)) => *slot = value,
            None => self.counters.push((counter.to_string(), value)),
        }
        self
    }

    /// Raises a counter to `value` if it is currently lower (for maxima
    /// such as [`counter::MAX_CHAIN_LEN`]).
    pub fn max(&mut self, counter: &str, value: u64) -> &mut Self {
        match self.counters.iter_mut().find(|(name, _)| name == counter) {
            Some((_, slot)) => *slot = (*slot).max(value),
            None => self.counters.push((counter.to_string(), value)),
        }
        self
    }

    /// Reads a counter; `None` if never recorded.
    pub fn get(&self, counter: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(name, _)| name == counter)
            .map(|(_, value)| *value)
    }
}

/// A complete execution trace: per-phase counters plus detected skewed keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Per-phase counters, in execution order.
    pub phases: Vec<PhaseTrace>,
    /// Skewed keys the detector reported, in detection order, with sample
    /// hits.
    pub skewed_keys: Vec<SkewedKey>,
    /// Degradation decisions taken for this join (budget fits, GPU→CPU
    /// fallbacks, spill recoveries), in the order they were made. Empty on
    /// a fault-free run within budget.
    pub degradations: Vec<Rung>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no phase recorded any counter and no key was detected.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.counters.is_empty())
            && self.skewed_keys.is_empty()
            && self.degradations.is_empty()
    }

    /// Records a degradation decision.
    pub fn record_degradation(&mut self, rung: Rung) {
        self.degradations.push(rung);
    }

    /// The phase's counters, created on first touch and kept in
    /// first-touch order.
    pub fn phase(&mut self, name: &str) -> &mut PhaseTrace {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            &mut self.phases[i]
        } else {
            self.phases.push(PhaseTrace::new(name));
            self.phases.last_mut().unwrap()
        }
    }

    /// Adds `delta` to `counter` under `phase`.
    pub fn add(&mut self, phase: &str, counter: &str, delta: u64) {
        self.phase(phase).add(counter, delta);
    }

    /// Sets `counter` under `phase` to `value`.
    pub fn set(&mut self, phase: &str, counter: &str, value: u64) {
        self.phase(phase).set(counter, value);
    }

    /// Raises `counter` under `phase` to at least `value`.
    pub fn max(&mut self, phase: &str, counter: &str, value: u64) {
        self.phase(phase).max(counter, value);
    }

    /// Reads a counter; `None` if the phase or counter is absent.
    pub fn get(&self, phase: &str, counter: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|p| p.name == phase)
            .and_then(|p| p.get(counter))
    }

    /// Looks up a recorded phase by name.
    pub fn find_phase(&self, name: &str) -> Option<&PhaseTrace> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Records a detected skewed key with its sample frequency.
    pub fn record_skewed_key(&mut self, key: Key, frequency: u64) {
        self.skewed_keys.push(SkewedKey { key, frequency });
    }

    /// Frequency recorded for `key`, if it was detected.
    pub fn skew_frequency(&self, key: Key) -> Option<u64> {
        self.skewed_keys
            .iter()
            .find(|s| s.key == key)
            .map(|s| s.frequency)
    }

    /// Folds another trace into this one: counters add phase-wise, except
    /// the maxima ([`counter::MAX_CHAIN_LEN`], [`counter::MAX_BLOCK_CYCLES`]),
    /// which keep the larger value; skewed keys append, skipping keys
    /// already present.
    pub fn merge(&mut self, other: &Trace) {
        for phase in &other.phases {
            for (name, value) in &phase.counters {
                if [counter::MAX_CHAIN_LEN, counter::MAX_BLOCK_CYCLES].contains(&name.as_str()) {
                    self.max(&phase.name, name, *value);
                } else {
                    self.add(&phase.name, name, *value);
                }
            }
        }
        for sk in &other.skewed_keys {
            if self.skew_frequency(sk.key).is_none() {
                self.skewed_keys.push(*sk);
            }
        }
        self.degradations.extend(other.degradations.iter().cloned());
    }

    /// Serializes the trace to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("name", Json::str(&p.name)),
                                (
                                    "counters",
                                    Json::Obj(
                                        p.counters
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::from_u64(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "skewed_keys",
                Json::Arr(
                    self.skewed_keys
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("key", Json::from_u64(s.key as u64)),
                                ("frequency", Json::from_u64(s.frequency)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "degradations",
                Json::Arr(self.degradations.iter().map(Rung::to_json).collect()),
            ),
        ])
    }

    /// Rebuilds a trace from the JSON produced by [`Trace::to_json`].
    pub fn from_json(json: &Json) -> Option<Trace> {
        let mut trace = Trace::new();
        for phase in json.get("phases")?.as_array()? {
            let name = phase.get("name")?.as_str()?;
            let entry = trace.phase(name);
            for (counter, value) in phase.get("counters")?.as_object()? {
                entry.set(counter, value.as_u64()?);
            }
        }
        for sk in json.get("skewed_keys")?.as_array()? {
            trace.record_skewed_key(
                sk.get("key")?.as_u64()? as Key,
                sk.get("frequency")?.as_u64()?,
            );
        }
        // Absent in traces serialized before degradations existed.
        if let Some(degradations) = json.get("degradations").and_then(Json::as_array) {
            for d in degradations {
                trace.record_degradation(Rung::from_json(d).ok()?);
            }
        }
        Some(trace)
    }

    /// Renders the trace as indented text for side-by-side diff reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.skewed_keys.is_empty() {
            out.push_str("skewed keys:");
            for sk in &self.skewed_keys {
                out.push_str(&format!(" {}(freq {})", sk.key, sk.frequency));
            }
            out.push('\n');
        }
        for phase in &self.phases {
            out.push_str(&format!("phase {}:\n", phase.name));
            for (counter, value) in &phase.counters {
                out.push_str(&format!("  {counter} = {value}\n"));
            }
        }
        for d in &self.degradations {
            out.push_str(&format!("degraded: {d}\n"));
        }
        if out.is_empty() {
            out.push_str("(empty trace)\n");
        }
        out
    }

    /// Renders two traces as a two-column table, marking lines that differ
    /// with `!`. Used by the diffcheck oracle to show a divergent join next
    /// to its reference run.
    pub fn render_side_by_side(
        left_label: &str,
        left: &Trace,
        right_label: &str,
        right: &Trace,
    ) -> String {
        let a: Vec<String> = left.render().lines().map(str::to_string).collect();
        let b: Vec<String> = right.render().lines().map(str::to_string).collect();
        let width = a
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(0)
            .max(left_label.len())
            .max(24);
        let mut out = format!("  {left_label:<width$} | {right_label}\n");
        out.push_str(&format!("  {:-<width$}-+-{:-<width$}\n", "", ""));
        for i in 0..a.len().max(b.len()) {
            let l = a.get(i).map(String::as_str).unwrap_or("");
            let r = b.get(i).map(String::as_str).unwrap_or("");
            let marker = if l != r { '!' } else { ' ' };
            out.push_str(&format!("{marker} {l:<width$} | {r}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_max() {
        let mut t = Trace::new();
        t.add("partition", counter::TUPLES_IN, 100);
        t.add("partition", counter::TUPLES_IN, 28);
        t.max("build", counter::MAX_CHAIN_LEN, 3);
        t.max("build", counter::MAX_CHAIN_LEN, 2);
        assert_eq!(t.get("partition", counter::TUPLES_IN), Some(128));
        assert_eq!(t.get("build", counter::MAX_CHAIN_LEN), Some(3));
        assert_eq!(t.get("build", "missing"), None);
        assert_eq!(t.get("missing", counter::TUPLES_IN), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Trace::new();
        t.add("partition", counter::TUPLES_IN, 1 << 20);
        t.add("partition", counter::TUPLES_OUT, 1 << 20);
        t.set("probe", counter::RESULTS, 777);
        t.record_skewed_key(0xDEAD_BEEF, 42);
        let json = t.to_json();
        let text = json.to_string();
        let back = Trace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    /// One rung of every variant (and both twin causes and removal scopes).
    fn every_rung() -> Vec<Rung> {
        vec![
            Rung::NarrowedRadix {
                algorithm: "GSH".into(),
                bits: 8,
                estimate: 1 << 21,
                budget: 1 << 20,
            },
            Rung::CpuTwin {
                gpu: "GSH".into(),
                cpu: "CSH".into(),
                cause: TwinCause::Budget {
                    estimate: 1 << 21,
                    budget: 1 << 20,
                },
            },
            Rung::CpuTwin {
                gpu: "Gbase".into(),
                cpu: "Cbase".into(),
                cause: TwinCause::Device {
                    backend: "sim".into(),
                    error: "shared memory exhausted".into(),
                },
            },
            Rung::Spill {
                partition_bits: 6,
                estimate: 1 << 22,
                budget: 1 << 16,
                working_set: 49_152,
                scratch_bytes: 1 << 23,
            },
            Rung::SpillRetry {
                error: "spill failed: injected".into(),
            },
            Rung::NmDecomposition {
                partition: 17,
                r_tuples: 4096,
                s_tuples: 8192,
                depth: 3,
                cap: 3,
            },
            Rung::ScratchRemoval {
                sub_level: true,
                error: "busy".into(),
            },
            Rung::ScratchRemoval {
                sub_level: false,
                error: "busy".into(),
            },
        ]
    }

    #[test]
    fn degradations_roundtrip_merge_and_render() {
        let mut t = Trace::new();
        for rung in every_rung() {
            t.record_degradation(rung);
        }
        assert!(!t.is_empty());
        let back = Trace::from_json(&Json::parse(&t.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, t);
        let rendered = t.render();
        assert!(rendered.contains("degraded: Gbase→Cbase (gpu backend sim)"));
        assert_eq!(rendered.matches("degraded: ").count(), t.degradations.len());

        let mut other = Trace::new();
        other.record_degradation(Rung::SpillRetry { error: "io".into() });
        t.merge(&other);
        assert_eq!(t.degradations.len(), every_rung().len() + 1);

        // Traces serialized before the field existed still parse.
        let legacy = r#"{"phases": [], "skewed_keys": []}"#;
        let parsed = Trace::from_json(&Json::parse(legacy).unwrap()).unwrap();
        assert!(parsed.degradations.is_empty());
        // A trace carrying a bad rung does not parse, rather than dropping it.
        let bad = r#"{"phases": [], "skewed_keys": [], "degradations": [{"kind": "x"}]}"#;
        assert!(Trace::from_json(&Json::parse(bad).unwrap()).is_none());
    }

    #[test]
    fn merge_adds_counters_and_dedups_keys() {
        let mut a = Trace::new();
        a.add("probe", counter::PROBE_TUPLES, 10);
        a.record_skewed_key(7, 5);
        let mut b = Trace::new();
        b.add("probe", counter::PROBE_TUPLES, 32);
        b.add("build", counter::BUILD_TUPLES, 4);
        a.max("build", counter::MAX_CHAIN_LEN, 6);
        b.max("build", counter::MAX_CHAIN_LEN, 5);
        b.record_skewed_key(7, 5);
        b.record_skewed_key(9, 3);
        a.merge(&b);
        assert_eq!(a.get("probe", counter::PROBE_TUPLES), Some(42));
        assert_eq!(a.get("build", counter::BUILD_TUPLES), Some(4));
        assert_eq!(a.get("build", counter::MAX_CHAIN_LEN), Some(6));
        assert_eq!(a.skewed_keys.len(), 2);
        assert_eq!(a.skew_frequency(9), Some(3));
    }

    #[test]
    fn side_by_side_marks_differing_lines() {
        let mut a = Trace::new();
        a.set("probe", counter::RESULTS, 10);
        let mut b = Trace::new();
        b.set("probe", counter::RESULTS, 7);
        let out = Trace::render_side_by_side("expected", &a, "actual", &b);
        assert!(out.contains("expected"));
        assert!(out.contains("actual"));
        // The results line differs and must be marked.
        assert!(
            out.lines()
                .any(|l| l.starts_with('!') && l.contains("results")),
            "no marked line in:\n{out}"
        );
        // The phase header is identical and must not be marked.
        assert!(out
            .lines()
            .any(|l| l.starts_with(' ') && l.contains("phase probe")));
    }

    #[test]
    fn empty_detection_and_render() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        assert!(t.render().contains("empty trace"));
        t.add("probe", counter::RESULTS, 1);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("phase probe"));
        assert!(rendered.contains("results = 1"));
    }
}
