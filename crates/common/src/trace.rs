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
/// triggered detection (sample hits for sampling detectors, exact counts
/// for exact detectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedKey {
    /// The detected join key.
    pub key: Key,
    /// Observed frequency (sample hits or exact count, per detector).
    pub frequency: u64,
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
    /// Skewed keys the detector reported, with sample frequencies.
    pub skewed_keys: Vec<SkewedKey>,
    /// Graceful-degradation decisions taken during execution (GPU→CPU
    /// fallbacks, re-plans with more radix bits, overflow re-partitions),
    /// in the order they were made. Empty on a fault-free run.
    pub degradations: Vec<String>,
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

    /// Records a degradation decision (fallback, re-plan, re-partition).
    pub fn record_degradation(&mut self, decision: impl Into<String>) {
        self.degradations.push(decision.into());
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

    /// Folds another trace into this one: counters add phase-wise (maxima
    /// should be folded by the caller before merging if add is wrong for
    /// them — workers therefore merge via [`Trace::merge`] only for
    /// additive counters and use [`Trace::max`] for chain lengths), and
    /// skewed keys append, skipping keys already present.
    pub fn merge(&mut self, other: &Trace) {
        for phase in &other.phases {
            for (counter, value) in &phase.counters {
                self.add(&phase.name, counter, *value);
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
                Json::Arr(self.degradations.iter().map(Json::str).collect()),
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
                trace.record_degradation(d.as_str()?);
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

    #[test]
    fn degradations_roundtrip_merge_and_render() {
        let mut t = Trace::new();
        t.record_degradation("Gbase→Cbase fallback: shared memory exhausted");
        assert!(!t.is_empty());
        let back = Trace::from_json(&Json::parse(&t.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, t);
        assert!(t.render().contains("degraded: Gbase→Cbase"));

        let mut other = Trace::new();
        other.record_degradation("retried with 14 radix bits");
        t.merge(&other);
        assert_eq!(t.degradations.len(), 2);

        // Traces serialized before the field existed still parse.
        let legacy = r#"{"phases": [], "skewed_keys": []}"#;
        let parsed = Trace::from_json(&Json::parse(legacy).unwrap()).unwrap();
        assert!(parsed.degradations.is_empty());
    }

    #[test]
    fn merge_adds_counters_and_dedups_keys() {
        let mut a = Trace::new();
        a.add("probe", counter::PROBE_TUPLES, 10);
        a.record_skewed_key(7, 5);
        let mut b = Trace::new();
        b.add("probe", counter::PROBE_TUPLES, 32);
        b.add("build", counter::BUILD_TUPLES, 4);
        b.record_skewed_key(7, 5);
        b.record_skewed_key(9, 3);
        a.merge(&b);
        assert_eq!(a.get("probe", counter::PROBE_TUPLES), Some(42));
        assert_eq!(a.get("build", counter::BUILD_TUPLES), Some(4));
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
