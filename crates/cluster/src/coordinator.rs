//! The cluster coordinator: radix-partitions one join across N `skewjoind`
//! shard processes with skew-aware key routing.
//!
//! ## Routing
//!
//! A sampling pass over the build side (the CSH detector the single-node
//! joins already use, via [`ShardRouter`]) splits the key space in two:
//!
//! * **Cold keys** hash to one owner shard with `shard_of` — both sides of
//!   a cold key land on the same shard, which joins them locally.
//! * **Hot keys** take the SharesSkew moves: their (small) build side is
//!   *replicated* to every shard, and their (large) probe side is *split*
//!   round-robin across shards, so no single shard eats the whole skewed
//!   product.
//!
//! Every (r, s) match pair is therefore produced by exactly one shard
//! task: cold pairs on the owner shard, hot pairs on whichever shard the
//! probe tuple was dealt to (where the full replicated build side awaits).
//! Results are purely additive — summing per-shard counts, checksums, and
//! per-key counts reconstructs the single-node answer exactly.
//!
//! ## Failure model
//!
//! Shard tasks are self-contained: the relations travel inline and
//! results exist only in responses, so a task can be re-sent verbatim to
//! any live shard after a connection loss — re-execution cannot
//! double-deliver. A worker whose shard dies (typed
//! [`ClientError::ConnectionLost`] after the client's own bounded
//! reconnects) requeues its task and retires; surviving workers absorb
//! the queue. Only when *every* shard is dead with tasks still pending
//! does the join fail, with a typed [`ClusterError::QuorumLost`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use skewjoin::common::sink::merge_sorted_counts;
use skewjoin::common::{Key, Relation, Rung, Trace};
use skewjoin::cpu::{BuildRoute, ShardRouter, SkewDetectConfig};
use skewjoin::ShardPartition;
use skewjoin_service::{
    AlgoChoice, Client, ClientError, JoinRequest, JoinSummary, Outcome, PROTOCOL_VERSION,
};

/// Cluster deployment knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard addresses (`host:port`), slot order. Tasks prefer their slot's
    /// shard but any live shard can execute any task.
    pub shards: Vec<String>,
    /// Algorithm each shard runs on its slice.
    pub algo: AlgoChoice,
    /// The sampling detector that decides which keys are hot.
    pub skew: SkewDetectConfig,
    /// Client identity reported to the shards (fairness accounting).
    pub client: String,
    /// Connection attempts per op inside each shard client (see
    /// [`Client::connect_with`]).
    pub client_attempts: u32,
    /// Base reconnect backoff inside each shard client; doubles per retry.
    pub client_backoff: Duration,
    /// Times one task may be attempted (first try + requeues after shard
    /// deaths or rejections) before the join fails typed.
    pub task_attempts: u32,
}

impl ClusterConfig {
    /// A default configuration over the given shard addresses.
    pub fn new(shards: Vec<String>) -> Self {
        Self {
            shards,
            algo: AlgoChoice::parse("csh").expect("csh is a known algorithm"),
            skew: SkewDetectConfig::default(),
            client: "cluster-coordinator".into(),
            client_attempts: 3,
            client_backoff: Duration::from_millis(20),
            task_attempts: 6,
        }
    }
}

/// Typed failure of a cluster join.
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration names no shards.
    NoShards,
    /// Every shard died while tasks were still pending — the one
    /// unrecoverable case. Anything short of this re-routes and completes.
    QuorumLost {
        /// Shards that died during the join.
        dead: usize,
        /// Tasks left unexecuted.
        pending: usize,
        /// The last transport error observed.
        last: String,
    },
    /// One shard task terminally failed (join error, cancellation, or
    /// rejection/requeue budget exhausted).
    TaskFailed {
        /// The task's shard slot.
        slot: usize,
        /// What the shard reported.
        error: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "cluster has no shards configured"),
            ClusterError::QuorumLost {
                dead,
                pending,
                last,
            } => write!(
                f,
                "quorum lost: all {dead} shard(s) dead with {pending} task(s) pending \
                 (last error: {last})"
            ),
            ClusterError::TaskFailed { slot, error } => {
                write!(f, "shard task {slot} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// How the scatter pass routed the two relations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Shards scattered over.
    pub shards: usize,
    /// Hot keys the sampler detected.
    pub hot_keys: usize,
    /// Build-side tuples of hot keys (each broadcast to every shard).
    pub broadcast_build_tuples: u64,
    /// Extra build-side copies created by replication
    /// (`broadcast_build_tuples × (shards − 1)`).
    pub replicated_build_copies: u64,
    /// Probe-side tuples of hot keys, dealt round-robin instead of hashed.
    pub split_probe_tuples: u64,
}

/// The per-shard slices one scatter pass produced.
#[derive(Debug)]
pub struct Scattered {
    /// Build-side slice per shard slot.
    pub r: Vec<Relation>,
    /// Probe-side slice per shard slot.
    pub s: Vec<Relation>,
    /// The hot keys the router detected (registered with every task).
    pub hot_keys: Vec<Key>,
    /// Routing accounting.
    pub stats: RoutingStats,
}

/// Scatters one join's relations into per-shard slices under `router`'s
/// policy: cold keys to their owner shard, hot build tuples broadcast, hot
/// probe tuples dealt round-robin.
pub fn scatter(r: &Relation, s: &Relation, router: &mut ShardRouter) -> Scattered {
    let shards = router.shards();
    let mut r_parts = vec![Relation::with_capacity(r.len() / shards + 1); shards];
    let mut s_parts = vec![Relation::with_capacity(s.len() / shards + 1); shards];
    let mut stats = RoutingStats {
        shards,
        hot_keys: router.hot_keys().len(),
        ..RoutingStats::default()
    };
    for t in r.iter() {
        match router.route_build(t.key) {
            BuildRoute::Broadcast => {
                stats.broadcast_build_tuples += 1;
                stats.replicated_build_copies += (shards - 1) as u64;
                for part in &mut r_parts {
                    part.push(*t);
                }
            }
            BuildRoute::Owner(slot) => r_parts[slot].push(*t),
        }
    }
    for t in s.iter() {
        if router.is_hot(t.key) {
            stats.split_probe_tuples += 1;
        }
        s_parts[router.route_probe(t.key)].push(*t);
    }
    Scattered {
        r: r_parts,
        s: s_parts,
        hot_keys: router.hot_keys().iter().map(|h| h.key).collect(),
        stats,
    }
}

/// The merged result of one cluster join.
#[derive(Debug)]
pub struct ClusterJoin {
    /// Total result tuples across all shards.
    pub result_count: u64,
    /// Order-independent checksum (wrapping sum of shard checksums —
    /// equal to the single-node checksum over the same inputs).
    pub checksum: u64,
    /// Per-key result counts, merged across shards.
    pub key_counts: BTreeMap<Key, u64>,
    /// Per-shard traces merged, plus a `cluster` phase with the routing
    /// and dispatch counters, among them the frame bytes shipped each way
    /// (`request_bytes`, `reply_bytes`).
    pub trace: Trace,
    /// How the scatter pass routed the inputs.
    pub routing: RoutingStats,
    /// Shard tasks executed (shards with a non-empty slice).
    pub tasks: usize,
    /// Tasks re-routed to another shard after a death or rejection.
    pub reassigned: u64,
    /// Shards that died during the join.
    pub dead_shards: usize,
    /// Degradation rungs reported by the shards, each with its shard slot.
    pub degradations: Vec<(usize, Rung)>,
}

/// One self-contained shard task travelling through the dispatch queue.
struct ShardTask {
    slot: usize,
    attempts: u32,
    request: JoinRequest,
}

/// Shared dispatch state for one cluster join.
struct Dispatch {
    queue: Mutex<VecDeque<ShardTask>>,
    wake: Condvar,
    /// Tasks not yet completed. Workers only retire when this reaches
    /// zero, the join fails, or their shard dies.
    remaining: AtomicUsize,
    stop: AtomicBool,
    error: Mutex<Option<ClusterError>>,
    results: Mutex<Vec<(usize, JoinSummary)>>,
    reassigned: AtomicU64,
    dead: AtomicUsize,
    last_transport_error: Mutex<String>,
    task_attempts: u32,
    /// Frame bytes of `shard_join` requests written and replies read, over
    /// every attempt.
    request_bytes: AtomicU64,
    reply_bytes: AtomicU64,
}

impl Dispatch {
    fn new(tasks: Vec<ShardTask>, task_attempts: u32) -> Self {
        Self {
            remaining: AtomicUsize::new(tasks.len()),
            queue: Mutex::new(tasks.into()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            results: Mutex::new(Vec::new()),
            reassigned: AtomicU64::new(0),
            dead: AtomicUsize::new(0),
            last_transport_error: Mutex::new(String::new()),
            task_attempts,
            request_bytes: AtomicU64::new(0),
            reply_bytes: AtomicU64::new(0),
        }
    }

    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pops the next task, waiting while other workers' tasks are still
    /// in flight (a dying worker may requeue). `None` = retire: all tasks
    /// done, or the join already failed.
    fn pop(&self) -> Option<ShardTask> {
        let mut queue = self.lock(&self.queue);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(task) = queue.pop_front() {
                return Some(task);
            }
            if self.remaining.load(Ordering::SeqCst) == 0 {
                return None;
            }
            // Bounded wait: a missed wake degrades to a 50 ms poll
            // instead of a hang.
            let (q, _) = self
                .wake
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue = q;
        }
    }

    fn requeue(&self, task: ShardTask) {
        self.reassigned.fetch_add(1, Ordering::Relaxed);
        self.lock(&self.queue).push_back(task);
        self.wake.notify_all();
    }

    fn complete(&self, slot: usize, summary: JoinSummary) {
        self.lock(&self.results).push((slot, summary));
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake.notify_all();
        }
    }

    fn fail(&self, err: ClusterError) {
        let mut slot = self.lock(&self.error);
        if slot.is_none() {
            *slot = Some(err);
        }
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    fn shard_died(&self, last: String) {
        self.dead.fetch_add(1, Ordering::SeqCst);
        *self.lock(&self.last_transport_error) = last;
        self.wake.notify_all();
    }
}

/// The cluster coordinator: owns the shard addresses and runs whole joins
/// across them.
#[derive(Debug)]
pub struct Coordinator {
    cfg: ClusterConfig,
}

impl Coordinator {
    /// Builds a coordinator over the configured shards.
    pub fn new(cfg: ClusterConfig) -> Result<Coordinator, ClusterError> {
        if cfg.shards.is_empty() {
            return Err(ClusterError::NoShards);
        }
        Ok(Coordinator { cfg })
    }

    /// Number of shards this coordinator scatters over.
    pub fn shards(&self) -> usize {
        self.cfg.shards.len()
    }

    /// Polls every shard's `shard_status`; `Err` entries are unreachable
    /// shards. Used by soak harnesses for liveness accounting.
    pub fn survey(&self) -> Vec<Result<skewjoin::common::json::Json, String>> {
        self.cfg
            .shards
            .iter()
            .map(|addr| {
                Client::connect_with(
                    addr.as_str(),
                    PROTOCOL_VERSION,
                    self.cfg.client_attempts,
                    self.cfg.client_backoff,
                )
                .and_then(|mut c| c.shard_status())
                .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Runs one join across the cluster: sampling pass, skew-aware
    /// scatter, parallel dispatch with failure re-routing, merge.
    pub fn join(&self, r: &Relation, s: &Relation) -> Result<ClusterJoin, ClusterError> {
        let shards = self.cfg.shards.len();
        let mut router = ShardRouter::detect(r.tuples(), shards, &self.cfg.skew);
        let scattered = scatter(r, s, &mut router);
        self.dispatch(scattered)
    }

    /// Dispatches pre-scattered slices. Exposed so tests can force a
    /// routing decision (e.g. a hand-built hot-key set).
    pub fn dispatch(&self, scattered: Scattered) -> Result<ClusterJoin, ClusterError> {
        let shards = self.cfg.shards.len();
        let Scattered {
            r,
            s,
            hot_keys,
            stats: routing,
        } = scattered;
        let tasks: Vec<ShardTask> = r
            .into_iter()
            .zip(s)
            .enumerate()
            .filter(|(_, (r, s))| !r.is_empty() || !s.is_empty())
            .map(|(slot, (r, s))| {
                let mut request =
                    JoinRequest::inline(&self.cfg.client, self.cfg.algo, Arc::new(r), Arc::new(s));
                request.shard = Some(ShardPartition {
                    slot,
                    shards,
                    hot_keys: hot_keys.clone(),
                });
                ShardTask {
                    slot,
                    attempts: 0,
                    request,
                }
            })
            .collect();
        let task_count = tasks.len();
        let dispatch = Dispatch::new(tasks, self.cfg.task_attempts);

        std::thread::scope(|scope| {
            for addr in &self.cfg.shards {
                let dispatch = &dispatch;
                let cfg = &self.cfg;
                scope.spawn(move || shard_worker(addr, cfg, dispatch));
            }
        });

        if let Some(err) = dispatch.lock(&dispatch.error).take() {
            return Err(err);
        }
        let pending = dispatch.remaining.load(Ordering::SeqCst);
        if pending > 0 {
            return Err(ClusterError::QuorumLost {
                dead: dispatch.dead.load(Ordering::SeqCst),
                pending,
                last: dispatch.lock(&dispatch.last_transport_error).clone(),
            });
        }

        let results = std::mem::take(&mut *dispatch.lock(&dispatch.results));
        let mut merged = merge_shard_results(results);
        merged.routing = routing;
        merged.tasks = task_count;
        merged.reassigned = dispatch.reassigned.load(Ordering::Relaxed);
        merged.dead_shards = dispatch.dead.load(Ordering::SeqCst);
        let t = &mut merged.trace;
        t.set("cluster", "shards", shards as u64);
        t.set("cluster", "tasks", merged.tasks as u64);
        t.set("cluster", "reassigned", merged.reassigned);
        t.set("cluster", "dead_shards", merged.dead_shards as u64);
        t.set("cluster", "hot_keys", merged.routing.hot_keys as u64);
        t.set(
            "cluster",
            "broadcast_build_tuples",
            merged.routing.broadcast_build_tuples,
        );
        t.set(
            "cluster",
            "replicated_build_copies",
            merged.routing.replicated_build_copies,
        );
        t.set(
            "cluster",
            "split_probe_tuples",
            merged.routing.split_probe_tuples,
        );
        t.set(
            "cluster",
            "request_bytes",
            dispatch.request_bytes.load(Ordering::Relaxed),
        );
        t.set(
            "cluster",
            "reply_bytes",
            dispatch.reply_bytes.load(Ordering::Relaxed),
        );
        Ok(merged)
    }
}

/// Merges completed shard tasks: results are purely additive (each match
/// pair was produced by exactly one shard task). Every shard's key counts
/// arrive key-sorted; cold keys are disjoint across shards and hot keys
/// sum, so one k-way merge yields the sorted union the map is built from.
/// Routing and dispatch accounting are left for the caller.
fn merge_shard_results(results: Vec<(usize, JoinSummary)>) -> ClusterJoin {
    let mut merged = ClusterJoin {
        result_count: 0,
        checksum: 0,
        key_counts: BTreeMap::new(),
        trace: Trace::new(),
        routing: RoutingStats::default(),
        tasks: 0,
        reassigned: 0,
        dead_shards: 0,
        degradations: Vec::new(),
    };
    let mut key_counts = Vec::with_capacity(results.len());
    for (slot, summary) in results {
        merged.result_count += summary.result_count;
        merged.checksum = merged.checksum.wrapping_add(summary.checksum);
        key_counts.extend(summary.key_counts);
        if let Some(trace) = &summary.trace {
            merged.trace.merge(trace);
        }
        merged
            .degradations
            .extend(summary.degradations.into_iter().map(|d| (slot, d)));
    }
    merged.key_counts = merge_sorted_counts(key_counts).into_iter().collect();
    merged
}

/// One shard's worker: drains the task queue over a single client
/// connection. Connection loss requeues the held task and retires the
/// worker; other failures are terminal for the join.
fn shard_worker(addr: &str, cfg: &ClusterConfig, dispatch: &Dispatch) {
    let mut client = match Client::connect_with(
        addr,
        PROTOCOL_VERSION,
        cfg.client_attempts,
        cfg.client_backoff,
    ) {
        Ok(client) => client,
        Err(ClientError::ConnectionLost { last, .. }) => {
            return dispatch.shard_died(format!("{addr}: {last}"));
        }
        Err(e) => {
            // A version mismatch or protocol failure is a deployment bug,
            // not a transient: fail the join typed.
            return dispatch.fail(ClusterError::TaskFailed {
                slot: usize::MAX,
                error: format!("shard {addr} unusable: {e}"),
            });
        }
    };
    while let Some(mut task) = dispatch.pop() {
        task.attempts += 1;
        let (sent, received) = (client.bytes_sent(), client.bytes_received());
        let reply = client.shard_join(&task.request);
        dispatch
            .request_bytes
            .fetch_add(client.bytes_sent() - sent, Ordering::Relaxed);
        dispatch
            .reply_bytes
            .fetch_add(client.bytes_received() - received, Ordering::Relaxed);
        match reply {
            Ok(response) => match response.outcome {
                Outcome::Completed(summary) => dispatch.complete(task.slot, summary),
                Outcome::Rejected {
                    reason,
                    retry_after,
                } => {
                    if task.attempts >= dispatch.task_attempts {
                        return dispatch.fail(ClusterError::TaskFailed {
                            slot: task.slot,
                            error: format!("rejected after {} attempts: {reason}", task.attempts),
                        });
                    }
                    // Back off as the shard asked (bounded — this holds a
                    // dispatch slot), then let any worker retry it.
                    std::thread::sleep(retry_after.min(Duration::from_millis(200)));
                    dispatch.requeue(task);
                }
                Outcome::Cancelled { phase } => {
                    return dispatch.fail(ClusterError::TaskFailed {
                        slot: task.slot,
                        error: format!("cancelled at {phase}"),
                    });
                }
                Outcome::Failed { error } => {
                    return dispatch.fail(ClusterError::TaskFailed {
                        slot: task.slot,
                        error,
                    });
                }
            },
            Err(ClientError::ConnectionLost { last, .. }) => {
                // The shard died mid-task. The task is self-contained, so
                // hand it back for another shard and retire this worker.
                if task.attempts >= dispatch.task_attempts {
                    return dispatch.fail(ClusterError::TaskFailed {
                        slot: task.slot,
                        error: format!("connection lost after {} attempts: {last}", task.attempts),
                    });
                }
                dispatch.requeue(task);
                return dispatch.shard_died(format!("{addr}: {last}"));
            }
            Err(e) => {
                return dispatch.fail(ClusterError::TaskFailed {
                    slot: task.slot,
                    error: e.to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::common::SkewedKey;
    use skewjoin::cpu::ShardRouter;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};
    use skewjoin_service::{serve_shard, JoinService, ServerHandle, ServiceConfig};

    fn shard_cluster(n: usize) -> (Vec<Arc<JoinService>>, Vec<ServerHandle>, Vec<String>) {
        let mut services = Vec::new();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for slot in 0..n {
            let mut cfg = ServiceConfig {
                workers: 2,
                queue_capacity: 16,
                ..ServiceConfig::default()
            };
            cfg.join_config.cpu.threads = 2;
            let service = JoinService::start(cfg);
            let handle =
                serve_shard(Arc::clone(&service), "127.0.0.1:0", Some(slot as u32)).unwrap();
            addrs.push(handle.addr().to_string());
            services.push(service);
            handles.push(handle);
        }
        (services, handles, addrs)
    }

    #[test]
    fn scatter_places_every_pair_on_exactly_one_shard() {
        // Hot key 7: build broadcast, probe split. Cold keys: owner only.
        let r = Relation::from_keys(&[7, 7, 1, 2, 3, 4, 5]);
        let s = Relation::from_keys(&[7, 7, 7, 7, 1, 2, 3]);
        let hot = vec![SkewedKey {
            key: 7,
            frequency: 2,
        }];
        let mut router = ShardRouter::from_hot_keys(hot, 3);
        let out = scatter(&r, &s, &mut router);
        // Both hot build tuples exist on every shard.
        for part in &out.r {
            assert_eq!(part.iter().filter(|t| t.key == 7).count(), 2);
        }
        // Hot probes split 4 ways over 3 shards; each appears exactly once.
        let hot_probes: usize = out
            .s
            .iter()
            .map(|p| p.iter().filter(|t| t.key == 7).count())
            .sum();
        assert_eq!(hot_probes, 4);
        // Cold tuples appear exactly once, both sides co-located.
        for key in [1u32, 2, 3] {
            let r_slots: Vec<usize> = (0..3)
                .filter(|&i| out.r[i].iter().any(|t| t.key == key))
                .collect();
            let s_slots: Vec<usize> = (0..3)
                .filter(|&i| out.s[i].iter().any(|t| t.key == key))
                .collect();
            assert_eq!(r_slots.len(), 1);
            assert_eq!(r_slots, s_slots, "cold key {key} sides must co-locate");
        }
        assert_eq!(out.stats.broadcast_build_tuples, 2);
        assert_eq!(out.stats.replicated_build_copies, 4);
        assert_eq!(out.stats.split_probe_tuples, 4);
        // Conservation: total scattered tuples reconcile.
        let r_total: usize = out.r.iter().map(Relation::len).sum();
        assert_eq!(
            r_total,
            r.len() + out.stats.replicated_build_copies as usize
        );
        let s_total: usize = out.s.iter().map(Relation::len).sum();
        assert_eq!(s_total, s.len());
    }

    fn summary(result_count: u64, key_counts: Vec<(Key, u64)>) -> JoinSummary {
        JoinSummary {
            algorithm: "CSH".into(),
            result_count,
            checksum: result_count * 3,
            exec_nanos: 0,
            queue_nanos: 0,
            degradations: vec![],
            plan_cache_hit: false,
            key_counts: Some(key_counts),
            trace: None,
        }
    }

    #[test]
    fn merge_sums_hot_keys_and_keeps_cold_keys() {
        // Hot keys 0, 9 and u32::MAX appear on every shard; each cold key
        // on exactly one. Shards arrive out of slot order.
        let results = vec![
            (2, summary(9, vec![(0, 1), (9, 5), (11, 1), (u32::MAX, 2)])),
            (0, summary(7, vec![(0, 2), (3, 1), (9, 1), (u32::MAX, 3)])),
            (1, summary(8, vec![(0, 4), (4, 2), (9, 1), (u32::MAX, 1)])),
        ];
        let merged = merge_shard_results(results);
        let expected: BTreeMap<Key, u64> = [(0, 7), (3, 1), (4, 2), (9, 7), (11, 1), (u32::MAX, 6)]
            .into_iter()
            .collect();
        assert_eq!(merged.key_counts, expected);
        assert_eq!(merged.result_count, 24);
        assert_eq!(merged.key_counts.values().sum::<u64>(), merged.result_count);
        assert_eq!(merged.checksum, 72);
    }

    #[test]
    fn no_shards_is_a_typed_error() {
        match Coordinator::new(ClusterConfig::new(vec![])) {
            Err(ClusterError::NoShards) => {}
            other => panic!("expected NoShards, got {other:?}"),
        }
    }

    #[test]
    fn cluster_join_matches_single_node() {
        let (services, handles, addrs) = shard_cluster(2);
        let coordinator = Coordinator::new(ClusterConfig::new(addrs)).unwrap();
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 12, 1.0, 21));
        let out = coordinator.join(&w.r, &w.s).unwrap();

        // Single-node ground truth over the same inputs.
        let mut cfg = skewjoin::JoinConfig::default();
        cfg.cpu.threads = 2;
        let expected = skewjoin::run_join(
            skewjoin::Algorithm::Cpu(skewjoin::CpuAlgorithm::Csh),
            &w.r,
            &w.s,
            &cfg,
            skewjoin::common::SinkSpec::Count,
        )
        .unwrap();
        assert_eq!(out.result_count, expected.result_count);
        assert_eq!(out.checksum, expected.checksum);
        assert_eq!(out.dead_shards, 0);
        assert_eq!(out.trace.get("cluster", "shards"), Some(2));
        // Both sides travel as 8-byte tuples; the replies carry key counts.
        let shipped: u64 = (w.r.len() + w.s.len()) as u64 + out.routing.replicated_build_copies;
        assert!(out.trace.get("cluster", "request_bytes") > Some(8 * shipped));
        assert!(out.trace.get("cluster", "reply_bytes") > Some(0));
        // zipf(1.0) must trip the hot-key paths.
        assert!(out.routing.hot_keys > 0, "sampler found no hot keys");
        assert!(out.routing.split_probe_tuples > 0);

        for h in handles {
            h.stop();
        }
        for s in services {
            s.shutdown();
        }
    }

    #[test]
    fn quorum_loss_is_typed() {
        // Two addresses nobody listens on.
        let dead_addrs: Vec<String> = (0..2)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            })
            .collect();
        let mut cfg = ClusterConfig::new(dead_addrs);
        cfg.client_attempts = 2;
        cfg.client_backoff = Duration::from_millis(1);
        let coordinator = Coordinator::new(cfg).unwrap();
        let r = Relation::from_keys(&[1, 2, 3, 4]);
        let s = Relation::from_keys(&[1, 2, 3, 4]);
        match coordinator.join(&r, &s) {
            Err(ClusterError::QuorumLost { dead, pending, .. }) => {
                assert_eq!(dead, 2);
                assert!(pending > 0);
            }
            other => panic!("expected quorum loss, got {other:?}"),
        }
    }
}
