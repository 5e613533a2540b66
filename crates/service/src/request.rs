//! Request/response types for the join service, with the JSON codecs the
//! wire protocol uses.
//!
//! A [`JoinRequest`] either carries its relations inline (in-process
//! clients hand over `Arc`s; remote clients ship each relation as one
//! [`Json::Bytes`] value holding its binary `SKJR` block, which the frame
//! moves into its binary tail) or asks the service to generate a paper
//! workload on the worker — the cheap way to drive load tests over TCP
//! without streaming megabytes of tuples. Per-key result counts travel back
//! the same way, as one binary section of 12-byte records.

use std::sync::Arc;
use std::time::Duration;

use skewjoin::common::json::Json;
use skewjoin::common::{Key, Relation, Rung, Trace};
use skewjoin::planner::TargetDevice;
use skewjoin::{Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig, ShardPartition};
use skewjoin_datagen::io;

use crate::protocol::PROTOCOL_VERSION;

/// Service-assigned request identifier, unique within one service instance.
pub type RequestId = u64;

/// Admission priority band. Higher bands always dequeue first; within a
/// band, clients are served round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: dequeued before everything else.
    High,
    /// The default band.
    Normal,
    /// Bulk/batch work: runs only when the other bands are empty.
    Low,
}

impl Priority {
    /// All bands, in dequeue order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Band index in dequeue order (0 = first).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// How the service picks the algorithm for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Run exactly this algorithm.
    Fixed(Algorithm),
    /// Let the planner (through the service's plan cache) choose for the
    /// given target device.
    Auto(TargetDevice),
}

impl AlgoChoice {
    /// Parses the CLI/wire spelling: an algorithm name (`cbase`, `npj`,
    /// `csh`, `gbase`, `gsh`) or `auto` / `auto-gpu`.
    pub fn parse(s: &str) -> Option<AlgoChoice> {
        match s.to_ascii_lowercase().as_str() {
            "cbase" => Some(AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Cbase))),
            "npj" | "cbase-npj" => Some(AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::CbaseNpj))),
            "csh" => Some(AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh))),
            "gbase" => Some(AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gbase))),
            "gsh" => Some(AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gsh))),
            "auto" | "plan" => Some(AlgoChoice::Auto(TargetDevice::Cpu)),
            "auto-gpu" | "plan-gpu" => Some(AlgoChoice::Auto(TargetDevice::Gpu)),
            _ => None,
        }
    }

    /// Wire name (inverse of [`AlgoChoice::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Cbase)) => "cbase",
            AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::CbaseNpj)) => "cbase-npj",
            AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh)) => "csh",
            AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gbase)) => "gbase",
            AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gsh)) => "gsh",
            AlgoChoice::Auto(TargetDevice::Cpu) => "auto",
            AlgoChoice::Auto(TargetDevice::Gpu) => "auto-gpu",
        }
    }
}

/// The input relations of a request.
#[derive(Debug, Clone)]
pub enum RequestPayload {
    /// Caller-provided relations. In-process submissions share them by
    /// `Arc`; over the wire each is a binary `SKJR` block.
    Inline {
        /// Build side.
        r: Arc<Relation>,
        /// Probe side.
        s: Arc<Relation>,
    },
    /// The worker generates `WorkloadSpec::paper(tuples, zipf, seed)`.
    Generate {
        /// Tuples per relation.
        tuples: usize,
        /// Zipf skew factor.
        zipf: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl RequestPayload {
    /// Build-side cardinality (used for admission-time cost estimates).
    pub fn r_tuples(&self) -> usize {
        match self {
            RequestPayload::Inline { r, .. } => r.len(),
            RequestPayload::Generate { tuples, .. } => *tuples,
        }
    }

    /// Probe-side cardinality.
    pub fn s_tuples(&self) -> usize {
        match self {
            RequestPayload::Inline { s, .. } => s.len(),
            RequestPayload::Generate { tuples, .. } => *tuples,
        }
    }
}

/// One join request, as submitted by a client.
#[derive(Debug, Clone)]
pub struct JoinRequest {
    /// Client identity for fairness accounting (free-form; remote clients
    /// default to their socket address).
    pub client: String,
    /// Algorithm choice (fixed or planner-driven).
    pub algo: AlgoChoice,
    /// Admission priority band.
    pub priority: Priority,
    /// Deadline measured from admission; the service cancels the request
    /// at the next phase boundary after it expires.
    pub deadline: Option<Duration>,
    /// The input relations.
    pub payload: RequestPayload,
    /// Execution configuration override. `None` uses the service default.
    /// Not carried over the wire (remote requests always run the service
    /// config).
    pub config: Option<JoinConfig>,
    /// For sharded (cluster) execution: the slice of the key space this
    /// node owns plus the hot keys exempt from ownership. Tuples outside
    /// the slice are rejected as coordinator misrouting. A restricted
    /// request always reports per-key counts and its trace.
    pub shard: Option<ShardPartition>,
    /// Ask for per-key result counts (and the execution trace) in the
    /// summary even without a shard restriction — what the distributed
    /// diffcheck uses to fetch single-node ground truth over the wire.
    pub want_key_counts: bool,
}

impl JoinRequest {
    /// A `Generate` request with default priority and no deadline.
    pub fn generate(client: &str, algo: AlgoChoice, tuples: usize, zipf: f64, seed: u64) -> Self {
        Self {
            client: client.to_string(),
            algo,
            priority: Priority::Normal,
            deadline: None,
            payload: RequestPayload::Generate { tuples, zipf, seed },
            config: None,
            shard: None,
            want_key_counts: false,
        }
    }

    /// An `Inline` request with default priority and no deadline.
    pub fn inline(client: &str, algo: AlgoChoice, r: Arc<Relation>, s: Arc<Relation>) -> Self {
        Self {
            client: client.to_string(),
            algo,
            priority: Priority::Normal,
            deadline: None,
            payload: RequestPayload::Inline { r, s },
            config: None,
            shard: None,
            want_key_counts: false,
        }
    }

    /// Serializes for the wire (the `config` override does not travel).
    pub fn to_json(&self) -> Json {
        self.wire_json("join")
    }

    /// [`JoinRequest::to_json`] under an explicit op name (`"join"` or
    /// `"shard_join"`).
    pub fn wire_json(&self, op: &str) -> Json {
        let payload = match &self.payload {
            RequestPayload::Generate { tuples, zipf, seed } => Json::obj(vec![(
                "generate",
                Json::obj(vec![
                    ("tuples", Json::from_u64(*tuples as u64)),
                    ("zipf", Json::num(*zipf)),
                    ("seed", Json::from_u64(*seed)),
                ]),
            )]),
            RequestPayload::Inline { r, s } => Json::obj(vec![(
                "inline",
                Json::obj(vec![("r", relation_to_json(r)), ("s", relation_to_json(s))]),
            )]),
        };
        let mut fields = vec![
            ("op", Json::str(op)),
            ("client", Json::str(&self.client)),
            ("algo", Json::str(self.algo.name())),
            ("priority", Json::str(self.priority.name())),
            ("payload", payload),
        ];
        if let Some(d) = self.deadline {
            fields.push(("deadline_ms", Json::from_u64(d.as_millis() as u64)));
        }
        if let Some(shard) = &self.shard {
            fields.push((
                "shard",
                Json::obj(vec![
                    ("slot", Json::from_u64(shard.slot as u64)),
                    ("shards", Json::from_u64(shard.shards as u64)),
                    (
                        "hot_keys",
                        Json::Arr(
                            shard
                                .hot_keys
                                .iter()
                                .map(|&k| Json::from_u64(u64::from(k)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if self.want_key_counts {
            fields.push(("want_key_counts", Json::Bool(true)));
        }
        Json::obj(fields)
    }

    /// Parses a wire request. Returns a human-readable error for malformed
    /// frames so the server can reply instead of dropping the connection.
    pub fn from_json(json: &Json, default_client: &str) -> Result<JoinRequest, String> {
        let algo_name = json
            .get("algo")
            .and_then(Json::as_str)
            .ok_or("missing \"algo\"")?;
        let algo = AlgoChoice::parse(algo_name)
            .ok_or_else(|| format!("unknown algorithm {algo_name:?}"))?;
        let priority = match json.get("priority").and_then(Json::as_str) {
            None => Priority::Normal,
            Some(p) => Priority::parse(p).ok_or_else(|| format!("unknown priority {p:?}"))?,
        };
        let client = json
            .get("client")
            .and_then(Json::as_str)
            .unwrap_or(default_client)
            .to_string();
        let deadline = json
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        let payload = json.get("payload").ok_or("missing \"payload\"")?;
        let payload = if let Some(generate) = payload.get("generate") {
            RequestPayload::Generate {
                tuples: generate
                    .get("tuples")
                    .and_then(Json::as_u64)
                    .ok_or("generate payload needs \"tuples\"")? as usize,
                zipf: generate
                    .get("zipf")
                    .and_then(Json::as_f64)
                    .ok_or("generate payload needs \"zipf\"")?,
                seed: generate.get("seed").and_then(Json::as_u64).unwrap_or(42),
            }
        } else if let Some(inline) = payload.get("inline") {
            let side = |name: &str| -> Result<Arc<Relation>, String> {
                let blob = inline
                    .get(name)
                    .ok_or_else(|| format!("inline payload needs \"{name}\""))?;
                relation_from_json(blob)
                    .map(Arc::new)
                    .map_err(|e| format!("relation {name}: {e}"))
            };
            RequestPayload::Inline {
                r: side("r")?,
                s: side("s")?,
            }
        } else {
            return Err("payload must be \"generate\" or \"inline\"".into());
        };
        let shard = match json.get("shard") {
            None => None,
            Some(shard) => {
                let slot = shard
                    .get("slot")
                    .and_then(Json::as_u64)
                    .ok_or("shard needs \"slot\"")? as usize;
                let shards = shard
                    .get("shards")
                    .and_then(Json::as_u64)
                    .ok_or("shard needs \"shards\"")? as usize;
                let mut hot_keys = Vec::new();
                if let Some(keys) = shard.get("hot_keys").and_then(Json::as_array) {
                    for k in keys {
                        let k = k.as_u64().ok_or("shard hot key must be an integer")?;
                        hot_keys.push(Key::try_from(k).map_err(|_| "shard hot key exceeds u32")?);
                    }
                }
                Some(ShardPartition {
                    slot,
                    shards,
                    hot_keys,
                })
            }
        };
        let want_key_counts = json
            .get("want_key_counts")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        Ok(JoinRequest {
            client,
            algo,
            priority,
            deadline,
            payload,
            config: None,
            shard,
            want_key_counts,
        })
    }
}

/// A relation on the wire: its `SKJR` block (`datagen::io` format —
/// header, then 8-byte little-endian tuples) as one binary section.
fn relation_to_json(rel: &Relation) -> Json {
    Json::Bytes(io::to_bytes(rel))
}

fn relation_from_json(json: &Json) -> Result<Relation, String> {
    let block = blob_bytes(json, "an SKJR relation block")?;
    io::from_bytes(block).map_err(|e| format!("relation block: {e}"))
}

/// Bytes per wire `key_counts` record: a little-endian `u32` key, then its
/// `u64` result count.
const KEY_COUNT_RECORD: usize = 12;

/// Per-key counts on the wire: one binary section of 12-byte records in
/// ascending key order.
fn key_counts_to_json(counts: &[(Key, u64)]) -> Json {
    let mut bytes = Vec::with_capacity(counts.len() * KEY_COUNT_RECORD);
    for &(key, count) in counts {
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
    }
    Json::Bytes(bytes)
}

fn key_counts_from_json(json: &Json) -> Result<Vec<(Key, u64)>, String> {
    let bytes = blob_bytes(json, "a key-count section")?;
    if bytes.len() % KEY_COUNT_RECORD != 0 {
        return Err(format!(
            "key-count section of {} bytes is not a whole number of {KEY_COUNT_RECORD}-byte records",
            bytes.len()
        ));
    }
    let mut counts: Vec<(Key, u64)> = Vec::with_capacity(bytes.len() / KEY_COUNT_RECORD);
    for record in bytes.chunks_exact(KEY_COUNT_RECORD) {
        let (key, count) = record.split_at(4);
        let key = Key::from_le_bytes(key.try_into().expect("4-byte key field"));
        let count = u64::from_le_bytes(count.try_into().expect("8-byte count field"));
        if counts.last().is_some_and(|&(prev, _)| prev >= key) {
            return Err(format!(
                "key-count section is not in ascending key order at key {key}"
            ));
        }
        counts.push((key, count));
    }
    Ok(counts)
}

/// The bytes of a binary member. The older forms — a version-3 base64
/// string, a version-1 JSON array of rows — are named in the error, so an
/// old client learns why it was refused.
fn blob_bytes<'a>(json: &'a Json, what: &str) -> Result<&'a [u8], String> {
    let old = match json {
        Json::Bytes(bytes) => return Ok(bytes),
        Json::Str(_) => "a string: the v3 base64 form",
        Json::Arr(_) => "a JSON array: the v1 array form",
        _ => return Err(format!("expected {what} in the frame tail")),
    };
    Err(format!(
        "expected {what} in the frame tail (protocol v{PROTOCOL_VERSION}), found {old} \
         is no longer accepted"
    ))
}

/// What a completed join reports back — the stats trimmed to what a serving
/// client acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSummary {
    /// Algorithm that actually ran (after planning and any fallback).
    pub algorithm: String,
    /// Result tuples produced.
    pub result_count: u64,
    /// Order-independent checksum over the results.
    pub checksum: u64,
    /// Execution time (wall-clock for CPU, simulated for GPU) in
    /// nanoseconds.
    pub exec_nanos: u64,
    /// Time spent queued before a worker picked the request up, in
    /// nanoseconds.
    pub queue_nanos: u64,
    /// Degradation-ladder rungs taken, the governor's budget fit first,
    /// then the executor's own records.
    pub degradations: Vec<Rung>,
    /// Whether the planner decision came from the plan cache.
    pub plan_cache_hit: bool,
    /// Per-key result counts, sorted by key — present when the request
    /// was sharded or asked for them (`want_key_counts`). The cluster
    /// coordinator merges these for the distributed diffcheck.
    pub key_counts: Option<Vec<(Key, u64)>>,
    /// The execution trace, carried alongside `key_counts` so a
    /// coordinator can merge per-shard phase counters into a
    /// cluster-level trace.
    pub trace: Option<Trace>,
}

/// Terminal outcome of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The join ran; results are summarized.
    Completed(JoinSummary),
    /// Load shedding: the request was never admitted. Retry no sooner than
    /// `retry_after`.
    Rejected {
        /// Why admission refused it.
        reason: String,
        /// Backoff hint, scaled to current queue depth.
        retry_after: Duration,
    },
    /// Cancelled (explicitly, by deadline, or by shutdown) before or during
    /// execution; `phase` is the boundary that observed it.
    Cancelled {
        /// The phase boundary that observed the cancellation.
        phase: String,
    },
    /// Execution failed with a typed join error.
    Failed {
        /// Display form of the underlying [`skewjoin::common::JoinError`].
        error: String,
    },
}

impl Outcome {
    /// Wire tag for this outcome.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::Rejected { .. } => "rejected",
            Outcome::Cancelled { .. } => "cancelled",
            Outcome::Failed { .. } => "failed",
        }
    }
}

/// The service's reply to one [`JoinRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinResponse {
    /// Service-assigned id of the request this answers.
    pub id: RequestId,
    /// Terminal outcome.
    pub outcome: Outcome,
}

impl JoinResponse {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::from_u64(self.id)),
            ("outcome", Json::str(self.outcome.tag())),
        ];
        match &self.outcome {
            Outcome::Completed(s) => {
                let mut summary = vec![
                    ("algorithm", Json::str(&s.algorithm)),
                    ("result_count", Json::from_u64(s.result_count)),
                    ("checksum", Json::str(format!("{:#018x}", s.checksum))),
                    ("exec_nanos", Json::from_u64(s.exec_nanos)),
                    ("queue_nanos", Json::from_u64(s.queue_nanos)),
                    (
                        "degradations",
                        Json::Arr(s.degradations.iter().map(Rung::to_json).collect()),
                    ),
                    ("plan_cache_hit", Json::Bool(s.plan_cache_hit)),
                ];
                if let Some(counts) = &s.key_counts {
                    summary.push(("key_counts", key_counts_to_json(counts)));
                }
                if let Some(trace) = &s.trace {
                    summary.push(("trace", trace.to_json()));
                }
                fields.push(("summary", Json::obj(summary)));
            }
            Outcome::Rejected {
                reason,
                retry_after,
            } => {
                fields.push(("reason", Json::str(reason)));
                fields.push((
                    "retry_after_ms",
                    Json::from_u64(retry_after.as_millis() as u64),
                ));
            }
            Outcome::Cancelled { phase } => fields.push(("phase", Json::str(phase))),
            Outcome::Failed { error } => fields.push(("error", Json::str(error))),
        }
        Json::obj(fields)
    }

    /// Parses a wire response.
    pub fn from_json(json: &Json) -> Result<JoinResponse, String> {
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("missing \"id\"")?;
        let tag = json
            .get("outcome")
            .and_then(Json::as_str)
            .ok_or("missing \"outcome\"")?;
        let outcome = match tag {
            "completed" => {
                let s = json.get("summary").ok_or("completed without summary")?;
                Outcome::Completed(JoinSummary {
                    algorithm: s
                        .get("algorithm")
                        .and_then(Json::as_str)
                        .ok_or("summary needs algorithm")?
                        .to_string(),
                    result_count: s
                        .get("result_count")
                        .and_then(Json::as_u64)
                        .ok_or("summary needs result_count")?,
                    checksum: s
                        .get("checksum")
                        .and_then(Json::as_str)
                        .and_then(|hex| hex.strip_prefix("0x"))
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                        .ok_or("summary needs a hex checksum")?,
                    exec_nanos: s.get("exec_nanos").and_then(Json::as_u64).unwrap_or(0),
                    queue_nanos: s.get("queue_nanos").and_then(Json::as_u64).unwrap_or(0),
                    degradations: match s.get("degradations") {
                        None => Vec::new(),
                        Some(rungs) => rungs
                            .as_array()
                            .ok_or("summary degradations must be an array")?
                            .iter()
                            .map(Rung::from_json)
                            .collect::<Result<_, _>>()
                            .map_err(|e| format!("summary degradations: {e}"))?,
                    },
                    plan_cache_hit: s
                        .get("plan_cache_hit")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    key_counts: s
                        .get("key_counts")
                        .map(key_counts_from_json)
                        .transpose()
                        .map_err(|e| format!("summary key_counts: {e}"))?,
                    trace: match s.get("trace") {
                        None => None,
                        Some(t) => {
                            Some(Trace::from_json(t).ok_or("summary trace failed to parse")?)
                        }
                    },
                })
            }
            "rejected" => Outcome::Rejected {
                reason: json
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("rejected")
                    .to_string(),
                retry_after: Duration::from_millis(
                    json.get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                ),
            },
            "cancelled" => Outcome::Cancelled {
                phase: json
                    .get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            },
            "failed" => Outcome::Failed {
                error: json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            },
            other => return Err(format!("unknown outcome tag {other:?}")),
        };
        Ok(JoinResponse { id, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_choice_round_trips() {
        for name in [
            "cbase",
            "cbase-npj",
            "csh",
            "gbase",
            "gsh",
            "auto",
            "auto-gpu",
        ] {
            let a = AlgoChoice::parse(name).unwrap();
            assert_eq!(a.name(), name);
        }
        assert_eq!(AlgoChoice::parse("npj"), AlgoChoice::parse("cbase-npj"));
        assert!(AlgoChoice::parse("quantum").is_none());
    }

    #[test]
    fn generate_request_round_trips() {
        let mut req =
            JoinRequest::generate("tester", AlgoChoice::parse("csh").unwrap(), 4096, 0.9, 7);
        req.priority = Priority::High;
        req.deadline = Some(Duration::from_millis(250));
        let back = JoinRequest::from_json(&req.to_json(), "fallback").unwrap();
        assert_eq!(back.client, "tester");
        assert_eq!(back.algo, req.algo);
        assert_eq!(back.priority, Priority::High);
        assert_eq!(back.deadline, Some(Duration::from_millis(250)));
        match back.payload {
            RequestPayload::Generate { tuples, zipf, seed } => {
                assert_eq!((tuples, seed), (4096, 7));
                assert!((zipf - 0.9).abs() < 1e-9);
            }
            other => panic!("expected generate payload, got {other:?}"),
        }
    }

    #[test]
    fn inline_request_round_trips() {
        use skewjoin::common::Tuple;
        let edge = [
            Tuple::new(u32::MAX, u32::MAX),
            Tuple::new(0, u32::MAX),
            Tuple::new(u32::MAX, 0),
        ];
        // 0–3 tuples: blocks of 16 to 40 bytes, and an empty relation.
        let mut pairs: Vec<(Relation, Relation)> = (0..=edge.len())
            .map(|n| {
                let r = Relation::from_tuples(edge[..n].to_vec());
                (r, Relation::from_tuples(edge[edge.len() - n..].to_vec()))
            })
            .collect();
        let many = (0..1000).map(|i| Tuple::new(i * 7919, !i)).collect();
        pairs.push((Relation::from_tuples(many), Relation::from_keys(&[2, 3, 3])));
        for (r, s) in pairs {
            let req = JoinRequest::inline(
                "c",
                AlgoChoice::parse("cbase").unwrap(),
                Arc::new(r.clone()),
                Arc::new(s.clone()),
            );
            let wire = over_the_wire(&req.to_json());
            match JoinRequest::from_json(&wire, "c").unwrap().payload {
                RequestPayload::Inline { r: br, s: bs } => {
                    assert_eq!(br.tuples(), r.tuples());
                    assert_eq!(bs.tuples(), s.tuples());
                }
                other => panic!("expected inline payload, got {other:?}"),
            }
        }
    }

    /// `json` after a trip through a wire frame.
    fn over_the_wire(json: &Json) -> Json {
        let frame = crate::protocol::encode_frame(json).unwrap();
        crate::protocol::decode_frame(&frame[4..]).unwrap()
    }

    fn completed_with_counts(key_counts: Option<Vec<(Key, u64)>>) -> JoinResponse {
        JoinResponse {
            id: 1,
            outcome: Outcome::Completed(JoinSummary {
                algorithm: "CSH".into(),
                result_count: 0,
                checksum: 0,
                exec_nanos: 0,
                queue_nanos: 0,
                degradations: vec![],
                plan_cache_hit: false,
                key_counts,
                trace: None,
            }),
        }
    }

    /// A completed response whose summary's `member` is `blob`.
    fn response_with(member: &str, blob: Json) -> Json {
        let summary = Json::obj(vec![
            ("algorithm", Json::str("CSH")),
            ("result_count", Json::from_u64(0)),
            ("checksum", Json::str("0x0")),
            (member, blob),
        ]);
        Json::obj(vec![
            ("id", Json::from_u64(1)),
            ("outcome", Json::str("completed")),
            ("summary", summary),
        ])
    }

    #[test]
    fn malformed_key_count_blocks_are_errors() {
        let record = |key: u32, count: u64| {
            let mut b = key.to_le_bytes().to_vec();
            b.extend_from_slice(&count.to_le_bytes());
            b
        };
        let unsorted = [record(5, 1), record(2, 1)].concat();
        let equal = [record(5, 1), record(5, 1)].concat();
        for (blob, needle) in [
            (Json::Bytes(vec![0u8; 13]), "12-byte records"),
            (Json::Bytes(unsorted), "ascending"),
            (Json::Bytes(equal), "ascending"),
            (Json::str("AAAA"), "v3 base64 form"),
            (Json::Arr(vec![]), "v1 array form"),
            (Json::from_u64(3), "key-count section"),
        ] {
            let err = JoinResponse::from_json(&response_with("key_counts", blob)).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn malformed_rungs_are_errors() {
        for (rung, needle) in [
            (r#"{"kind": "radix_retry", "bits": 8}"#, "unknown rung kind"),
            (r#"{"kind": "spill_retry"}"#, "needs \"error\""),
            (r#"{"bits": 8}"#, "\"kind\""),
            (r#""GSH→CSH: oom""#, "\"kind\""),
            (
                r#"{"kind": "cpu_twin", "gpu": "GSH", "cpu": "CSH", "cause": "moon"}"#,
                "unknown cause",
            ),
            (
                r#"{"kind": "nm_decomposition", "partition": 1, "r_tuples": 1,
                    "s_tuples": 1, "depth": 1, "cap": 4294967296}"#,
                "32 bits",
            ),
            (
                r#"{"kind": "scratch_removal", "sub_level": 1, "error": "x"}"#,
                "boolean",
            ),
        ] {
            let rungs = Json::Arr(vec![Json::parse(rung).unwrap()]);
            let err = JoinResponse::from_json(&response_with("degradations", rungs)).unwrap_err();
            assert!(err.contains("summary degradations"), "{err:?}");
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// One rung of every variant (and both twin causes and removal scopes).
    fn every_rung() -> Vec<Rung> {
        use skewjoin::common::TwinCause;
        let twin = |cause| Rung::CpuTwin {
            gpu: "GSH".into(),
            cpu: "CSH".into(),
            cause,
        };
        vec![
            Rung::NarrowedRadix {
                algorithm: "Gbase".into(),
                bits: 6,
                estimate: 900_000,
                budget: 800_000,
            },
            twin(TwinCause::Budget {
                estimate: 900_000,
                budget: 800_000,
            }),
            twin(TwinCause::Device {
                backend: "host".into(),
                error: "GPU resource exhausted: table R (4096 tuples) exceeds global memory".into(),
            }),
            Rung::Spill {
                partition_bits: 6,
                estimate: 900_000,
                budget: 65_536,
                working_set: 49_152,
                scratch_bytes: 131_072,
            },
            Rung::SpillRetry {
                error: "spill failed: write".into(),
            },
            Rung::NmDecomposition {
                partition: 3,
                r_tuples: 10,
                s_tuples: 20,
                depth: 3,
                cap: 3,
            },
            Rung::ScratchRemoval {
                sub_level: false,
                error: "busy".into(),
            },
            Rung::ScratchRemoval {
                sub_level: true,
                error: "busy".into(),
            },
        ]
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            JoinResponse {
                id: 9,
                outcome: Outcome::Completed(JoinSummary {
                    algorithm: "CSH".into(),
                    result_count: 123,
                    checksum: 0xDEAD_BEEF_0000_0001,
                    exec_nanos: 42,
                    queue_nanos: 7,
                    degradations: every_rung(),
                    plan_cache_hit: true,
                    key_counts: None,
                    trace: None,
                }),
            },
            JoinResponse {
                id: 13,
                outcome: Outcome::Completed(JoinSummary {
                    algorithm: "Cbase".into(),
                    result_count: 6,
                    checksum: 0x0000_0000_0000_00FF,
                    exec_nanos: 1,
                    queue_nanos: 2,
                    degradations: vec![],
                    plan_cache_hit: false,
                    key_counts: Some(vec![(1, 2), (7, 4)]),
                    trace: Some({
                        let mut t = Trace::new();
                        t.set("shard", "slot", 1);
                        t.set("build", "tuples", 99);
                        t
                    }),
                }),
            },
            JoinResponse {
                id: 10,
                outcome: Outcome::Rejected {
                    reason: "queue full".into(),
                    retry_after: Duration::from_millis(15),
                },
            },
            JoinResponse {
                id: 11,
                outcome: Outcome::Cancelled {
                    phase: "partition".into(),
                },
            },
            JoinResponse {
                id: 12,
                outcome: Outcome::Failed {
                    error: "backend unavailable".into(),
                },
            },
        ];
        // Key-count blocks of 0, 1, 2 and many records, at the u32/u64
        // limits.
        let many: Vec<(Key, u64)> = (0..500).map(|k| (k * 3 + 1, u64::from(k) << 33)).collect();
        let counted = [
            vec![],
            vec![(u32::MAX, u64::MAX)],
            vec![(0, 1), (u32::MAX, 2)],
            many,
        ]
        .map(|counts| completed_with_counts(Some(counts)));
        for resp in cases.into_iter().chain(counted) {
            let back = JoinResponse::from_json(&over_the_wire(&resp.to_json())).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn sharded_request_round_trips() {
        let mut req =
            JoinRequest::generate("coord", AlgoChoice::parse("csh").unwrap(), 1024, 1.2, 3);
        req.shard = Some(ShardPartition {
            slot: 2,
            shards: 4,
            hot_keys: vec![7, 42],
        });
        req.want_key_counts = true;
        let wire = req.wire_json("shard_join");
        assert_eq!(wire.get("op").and_then(Json::as_str), Some("shard_join"));
        let back = JoinRequest::from_json(&wire, "coord").unwrap();
        assert_eq!(back.shard, req.shard);
        assert!(back.want_key_counts);
        // Requests without shard fields stay unrestricted.
        let plain = JoinRequest::generate("c", AlgoChoice::parse("csh").unwrap(), 64, 0.0, 1);
        let back = JoinRequest::from_json(&plain.to_json(), "c").unwrap();
        assert!(back.shard.is_none());
        assert!(!back.want_key_counts);
    }

    #[test]
    fn malformed_requests_are_described_not_dropped() {
        let bad = Json::parse(r#"{"algo":"csh"}"#).unwrap();
        let err = JoinRequest::from_json(&bad, "x").unwrap_err();
        assert!(err.contains("payload"));
        let bad = Json::parse(r#"{"algo":"nope","payload":{"generate":{"tuples":1,"zipf":0.0}}}"#)
            .unwrap();
        assert!(JoinRequest::from_json(&bad, "x")
            .unwrap_err()
            .contains("nope"));
    }
}
