//! The join service itself: a shared worker pool executing admitted
//! requests through `skewjoin::run_join`, wrapped in the three serving
//! mechanisms — admission control ([`FairQueue`]), the
//! [`MemoryGovernor`], and the planner's [`PlanCache`].
//!
//! ## Lifecycle and accounting
//!
//! Every submission increments `service.submitted` and ends in exactly one
//! terminal counter:
//!
//! * `service.rejected` — load-shed at admission (queue full, budget
//!   infeasible, injected admission fault, shutdown); never admitted.
//! * `service.completed` / `service.cancelled` / `service.failed` — the
//!   three ends of an *admitted* request.
//!
//! The reconciliation invariant the soak harness asserts:
//! `submitted = admitted + rejected` and
//! `admitted = completed + cancelled + failed`, exactly, after shutdown.
//!
//! ## Degradation ladder
//!
//! One function decides how a request fits the governor's budgets:
//! [`skewjoin::planner::fit_to_budget`]. `submit` calls it to shed a
//! request that cannot fit at all; `execute` calls it again on the
//! resolved algorithm and reserves exactly what the returned plan says.
//! The ladder, in order: (1) the requested algorithm with its radix
//! narrowed down to a 6-bit floor; (2) for a GPU request, its CPU twin
//! (Gbase→Cbase, GSH→CSH) at the request's own radix, so an over-budget
//! GPU join never reaches the device; (3) the grace-hash spill
//! (`Rung::Spill`) under ¾ of the memory budget, with its scratch
//! footprint reserved from the disk pool. A request whose spill is also
//! infeasible is rejected at admission. Every rung taken is reported in
//! the response's `degradations` as a typed `Rung`, ahead of the
//! executor's own: a device fallback (a GPU join the device could not run
//! after all, finished by its CPU twin), spill recoveries, and the one
//! retry after `SpillFailed`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skewjoin::common::json::Json;
use skewjoin::common::metrics::{default_latency_bounds_micros, MetricsRegistry};
use skewjoin::common::sink::sorted_key_counts;
use skewjoin::common::{
    faults, CancelToken, JoinError, JoinStats, Key, KeyCountSink, Relation, Rung, SinkSpec,
};
use skewjoin::planner::{fit_to_budget, BudgetPlan, PlanCache, PlannerOptions, TargetDevice};
use skewjoin::{run_join, run_shard_join, Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig};
use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

use crate::governor::{MemoryGovernor, Reservation, ReserveError};
use crate::queue::{FairQueue, PushError};
use crate::request::{
    AlgoChoice, JoinRequest, JoinResponse, JoinSummary, Outcome, RequestId, RequestPayload,
};

/// Failpoint hit once per submission, before admission. Arming it injects
/// typed `Rejected` outcomes.
pub const FAILPOINT_ADMIT: &str = "service.admit";
/// Failpoint hit once per dequeued request, before execution. Arming it
/// injects typed `Failed` outcomes.
pub const FAILPOINT_EXECUTE: &str = "service.execute";

/// Service deployment knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing joins (each join additionally parallelizes
    /// internally per its `JoinConfig`).
    pub workers: usize,
    /// Bound on queued (admitted, not yet executing) requests.
    pub queue_capacity: usize,
    /// Global memory budget in bytes the governor reserves against.
    pub memory_budget: u64,
    /// Scratch-disk budget in bytes for spilled joins. `0` disables the
    /// spill rung entirely: over-budget joins are rejected at admission as
    /// before.
    pub disk_budget: u64,
    /// Directory spilled joins create their scratch directories under.
    /// `None` uses `SKEWJOIN_SCRATCH_DIR` or the system temp dir.
    pub scratch_dir: Option<PathBuf>,
    /// Planner decisions cached.
    pub plan_cache_capacity: usize,
    /// Execution configuration for requests that do not carry their own.
    pub join_config: JoinConfig,
    /// Deadline applied to requests that do not set one. `None` = no
    /// deadline.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            memory_budget: 1 << 30,
            disk_budget: 8 << 30,
            scratch_dir: None,
            plan_cache_capacity: 64,
            join_config: JoinConfig::default(),
            default_deadline: None,
        }
    }
}

/// An admitted request travelling from `submit` to a worker.
struct Pending {
    id: RequestId,
    request: JoinRequest,
    cancel: CancelToken,
    enqueued: Instant,
    tx: mpsc::Sender<JoinResponse>,
}

struct Shared {
    cfg: ServiceConfig,
    queue: FairQueue<Pending>,
    governor: Arc<MemoryGovernor>,
    plan_cache: PlanCache,
    metrics: MetricsRegistry,
    next_id: AtomicU64,
    cancels: Mutex<HashMap<RequestId, CancelToken>>,
}

/// Handle to one submitted request; resolves to its [`JoinResponse`].
pub struct Ticket {
    id: RequestId,
    rx: mpsc::Receiver<JoinResponse>,
}

impl Ticket {
    /// The service-assigned request id (usable with
    /// [`JoinService::cancel`]).
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the response arrives. A service that dropped the
    /// channel without responding (a bug; the soak harness treats it as a
    /// violation) surfaces as a `Failed` outcome rather than a panic.
    pub fn wait(self) -> JoinResponse {
        let id = self.id;
        self.rx.recv().unwrap_or(JoinResponse {
            id,
            outcome: Outcome::Failed {
                error: "response channel dropped without a response".into(),
            },
        })
    }

    /// Bounded wait; `None` on timeout (the request keeps running).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JoinResponse> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// The concurrent join service. Construct with [`JoinService::start`];
/// submissions are `&self`, so share it in an `Arc` across client threads.
pub struct JoinService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shut_down: AtomicBool,
}

impl JoinService {
    /// Starts the worker pool and returns the running service.
    pub fn start(cfg: ServiceConfig) -> Arc<JoinService> {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: FairQueue::new(cfg.queue_capacity),
            governor: MemoryGovernor::with_disk(cfg.memory_budget, cfg.disk_budget),
            plan_cache: PlanCache::new(cfg.plan_cache_capacity),
            metrics: MetricsRegistry::new(),
            next_id: AtomicU64::new(1),
            cancels: Mutex::new(HashMap::new()),
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("skewjoind-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Arc::new(JoinService {
            shared,
            workers: Mutex::new(handles),
            shut_down: AtomicBool::new(false),
        })
    }

    /// Submits a request. Always returns a ticket; admission failures
    /// resolve it immediately with a typed [`Outcome::Rejected`].
    pub fn submit(&self, request: JoinRequest) -> Ticket {
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { id, rx };
        shared.metrics.counter("service.submitted").inc();

        let reject = |reason: String, retry_after: Duration| {
            shared.metrics.counter("service.rejected").inc();
            let _ = tx.send(JoinResponse {
                id,
                outcome: Outcome::Rejected {
                    reason,
                    retry_after,
                },
            });
        };

        if faults::fire(FAILPOINT_ADMIT) {
            reject(
                format!("{}: injected admission fault", faults::PANIC_PREFIX),
                self.retry_after(),
            );
            return ticket;
        }

        // Budget infeasibility is an *admission* decision: a request that
        // cannot fit even fully degraded would only occupy queue space
        // before failing, so it is shed here. `Auto` requests are fitted as
        // the skew-conscious join of their device, whose estimate the
        // baseline shares.
        let algorithm = match request.algo {
            AlgoChoice::Fixed(a) => a,
            AlgoChoice::Auto(TargetDevice::Cpu) => Algorithm::Cpu(CpuAlgorithm::Csh),
            AlgoChoice::Auto(TargetDevice::Gpu) => Algorithm::Gpu(GpuAlgorithm::Gsh),
        };
        let cfg = request.config.as_ref().unwrap_or(&shared.cfg.join_config);
        let (r_tuples, s_tuples) = (request.payload.r_tuples(), request.payload.s_tuples());
        let (memory, disk) = (shared.cfg.memory_budget, shared.cfg.disk_budget);
        if let Err(reason) = fit_to_budget(algorithm, r_tuples, s_tuples, cfg, memory, disk) {
            reject(reason, self.retry_after());
            return ticket;
        }

        let cancel = match request.deadline.or(shared.cfg.default_deadline) {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::new(),
        };
        let pending = Pending {
            id,
            request,
            cancel: cancel.clone(),
            enqueued: Instant::now(),
            tx: tx.clone(),
        };
        let priority = pending.request.priority;
        let client = pending.request.client.clone();
        match shared.queue.push(priority, &client, pending) {
            Ok(()) => {
                shared.metrics.counter("service.admitted").inc();
                shared
                    .metrics
                    .gauge("service.queue_depth")
                    .set(shared.queue.len() as u64);
                shared
                    .cancels
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(id, cancel);
            }
            Err(PushError::QueueFull { depth }) => {
                reject(format!("queue full ({depth} queued)"), self.retry_after());
            }
            Err(PushError::Closed) => {
                reject("service is shutting down".into(), Duration::from_secs(1));
            }
        }
        ticket
    }

    /// Cooperatively cancels an in-flight request. `true` if the id was
    /// known (admitted and not yet resolved).
    pub fn cancel(&self, id: RequestId) -> bool {
        let cancels = self
            .shared
            .cancels
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match cancels.get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The memory governor (budget, occupancy, peak).
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.shared.governor
    }

    /// The plan cache (hit/miss counters).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.plan_cache
    }

    /// Entries currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// One JSON document with metrics, governor, and plan-cache state —
    /// what the TCP `metrics` op and the CLI report.
    pub fn snapshot(&self) -> Json {
        let shared = &self.shared;
        Json::obj(vec![
            ("metrics", shared.metrics.snapshot()),
            (
                "governor",
                Json::obj(vec![
                    ("budget_bytes", Json::from_u64(shared.governor.budget())),
                    (
                        "occupancy_bytes",
                        Json::from_u64(shared.governor.occupancy()),
                    ),
                    ("peak_bytes", Json::from_u64(shared.governor.peak())),
                    (
                        "disk_budget_bytes",
                        Json::from_u64(shared.governor.disk_budget()),
                    ),
                    (
                        "disk_occupancy_bytes",
                        Json::from_u64(shared.governor.disk_occupancy()),
                    ),
                    (
                        "disk_peak_bytes",
                        Json::from_u64(shared.governor.disk_peak()),
                    ),
                    ("waiters", Json::from_u64(shared.governor.waiters())),
                ]),
            ),
            (
                "plan_cache",
                Json::obj(vec![
                    ("hits", Json::from_u64(shared.plan_cache.hits())),
                    ("misses", Json::from_u64(shared.plan_cache.misses())),
                    ("entries", Json::from_u64(shared.plan_cache.len() as u64)),
                ]),
            ),
        ])
    }

    /// Closes admission, resolves everything still queued as
    /// `Cancelled { phase: "shutdown" }`, and joins the workers. In-flight
    /// joins run to their next phase boundary. Idempotent.
    pub fn shutdown(&self) {
        if self.shut_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let shared = &self.shared;
        shared.queue.close();
        // Raise every live token so in-flight joins stop at the next phase
        // boundary instead of running to completion.
        for token in shared
            .cancels
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            token.cancel();
        }
        for pending in shared.queue.drain() {
            finish(
                shared,
                pending.id,
                &pending.tx,
                Outcome::Cancelled {
                    phase: "shutdown".into(),
                },
            );
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
        shared
            .metrics
            .gauge("service.queue_depth")
            .set(shared.queue.len() as u64);
    }

    /// Backoff hint scaled to service pressure: deeper queue and more
    /// reservations blocked on the governor both mean freed capacity will
    /// be contended, so the hint grows with each.
    fn retry_after(&self) -> Duration {
        retry_after_hint(
            self.shared.queue.len() as u64,
            self.shared.governor.waiters(),
        )
    }
}

/// Backoff hint from the two congestion signals a rejected client cares
/// about: queued requests ahead of it and reservations already blocked on
/// the governor. Monotone in both — pinned by a unit test, because clients
/// build retry loops on this.
fn retry_after_hint(queue_depth: u64, governor_waiters: u64) -> Duration {
    Duration::from_millis(10 + 5 * queue_depth + 25 * governor_waiters)
}

impl Drop for JoinService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(pending) = shared.queue.pop() {
        shared
            .metrics
            .gauge("service.queue_depth")
            .set(shared.queue.len() as u64);
        execute(shared, pending);
    }
}

/// Records the terminal counter for `outcome` and delivers the response.
/// Exactly one `finish` happens per admitted request — the reconciliation
/// invariant hangs on that.
fn finish(shared: &Shared, id: RequestId, tx: &mpsc::Sender<JoinResponse>, outcome: Outcome) {
    let counter = match outcome {
        Outcome::Completed(_) => "service.completed",
        Outcome::Cancelled { .. } => "service.cancelled",
        Outcome::Failed { .. } => "service.failed",
        // Rejections are accounted at submit; an admitted request never
        // resolves to Rejected.
        Outcome::Rejected { .. } => unreachable!("admitted requests cannot be rejected"),
    };
    shared.metrics.counter(counter).inc();
    shared
        .cancels
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&id);
    // A client that dropped its ticket just doesn't read the response; the
    // accounting above already happened.
    let _ = tx.send(JoinResponse { id, outcome });
}

/// One join attempt's outcome: stats plus per-key counts when the request
/// asked for them (sharded requests always do).
type AttemptResult = Result<(JoinStats, Option<Vec<(Key, u64)>>), JoinError>;

fn execute(shared: &Arc<Shared>, pending: Pending) {
    let Pending {
        id,
        request,
        cancel,
        enqueued,
        tx,
    } = pending;
    let queue_wait = enqueued.elapsed();
    shared
        .metrics
        .histogram(
            "service.queue_wait_micros",
            &default_latency_bounds_micros(),
        )
        .observe(queue_wait.as_micros() as u64);

    if cancel.is_cancelled() {
        return finish(
            shared,
            id,
            &tx,
            Outcome::Cancelled {
                phase: "queued".into(),
            },
        );
    }
    if faults::fire(FAILPOINT_EXECUTE) {
        let err = JoinError::BackendUnavailable(format!(
            "{}: injected execution fault",
            faults::PANIC_PREFIX
        ));
        return finish(
            shared,
            id,
            &tx,
            Outcome::Failed {
                error: err.to_string(),
            },
        );
    }

    // Materialize input relations.
    let (r, s): (Arc<Relation>, Arc<Relation>) = match &request.payload {
        RequestPayload::Inline { r, s } => (Arc::clone(r), Arc::clone(s)),
        RequestPayload::Generate { tuples, zipf, seed } => {
            let w = PaperWorkload::generate(WorkloadSpec::paper(*tuples, *zipf, *seed));
            (Arc::new(w.r), Arc::new(w.s))
        }
    };

    // Resolve the algorithm (plan cache for Auto requests).
    let cfg = request
        .config
        .clone()
        .unwrap_or_else(|| shared.cfg.join_config.clone());
    let (algorithm, plan_cache_hit) = match request.algo {
        AlgoChoice::Fixed(a) => (a, false),
        AlgoChoice::Auto(device) => {
            let opts = PlannerOptions {
                device,
                cpu: cfg.cpu.clone(),
                gpu: cfg.gpu.clone(),
            };
            let (plan, hit) = shared.plan_cache.plan(&r, &s, &opts);
            (plan.algorithm, hit)
        }
    };

    // The governor's degradation ladder (see module docs). Admission already
    // shed what cannot fit; an `Err` here is estimate drift, kept typed.
    let (memory, disk) = (shared.cfg.memory_budget, shared.cfg.disk_budget);
    let BudgetPlan {
        algorithm,
        config: mut cfg,
        memory_bytes,
        disk_bytes,
        rungs: degradations,
    } = match fit_to_budget(algorithm, r.len(), s.len(), &cfg, memory, disk) {
        Ok(plan) => plan,
        Err(error) => return finish(shared, id, &tx, Outcome::Failed { error }),
    };
    if let Some(spill) = &mut cfg.cpu.spill {
        spill.scratch_dir = shared.cfg.scratch_dir.clone();
        shared.metrics.counter("service.spilled").inc();
    }

    // Reserve memory, then (for a spilled join) scratch disk — the same
    // order everywhere, so no lock-order inversion. Each blocks (queuing
    // under pressure) until space frees or the deadline/cancel fires;
    // `service.memory_waits` / `service.disk_waits` count requests that
    // could not reserve immediately — the observable for "the budget
    // forced queuing". Both reservations are held for the whole run.
    let governor = &shared.governor;
    let reservation = match reserve_counting(
        shared,
        "service.memory_waits",
        governor.try_reserve(memory_bytes),
        || governor.reserve(memory_bytes, &cancel),
    ) {
        Ok(res) => res,
        Err(e) => return finish(shared, id, &tx, reserve_failure(e, "memory_wait")),
    };
    let disk_reservation = if disk_bytes > 0 {
        match reserve_counting(
            shared,
            "service.disk_waits",
            governor.try_reserve_disk(disk_bytes),
            || governor.reserve_disk(disk_bytes, &cancel),
        ) {
            Ok(res) => Some(res),
            Err(e) => return finish(shared, id, &tx, reserve_failure(e, "disk_wait")),
        }
    } else {
        None
    };

    cfg.cpu.cancel = cancel.clone();
    let started = Instant::now();
    // Sharded (cluster) requests — and any request asking for per-key
    // counts — run through `run_shard_join` with key-counting sinks, so
    // the summary can carry the counts and trace the coordinator merges.
    // Everything else keeps the cheap counting path.
    let wants_counts = request.shard.is_some() || request.want_key_counts;
    let run_once = |cfg: &JoinConfig| -> AttemptResult {
        if wants_counts {
            let out = run_shard_join(
                algorithm,
                &r,
                &s,
                cfg,
                request.shard.as_ref(),
                |_: usize| KeyCountSink::new(),
            )?;
            Ok((out.stats, Some(sorted_key_counts(&out.sinks))))
        } else {
            run_join(algorithm, &r, &s, cfg, SinkSpec::Count).map(|stats| (stats, None))
        }
    };
    let mut result = run_once(&cfg);
    if cfg.cpu.spill.is_some() {
        if let Err(JoinError::SpillFailed(msg)) = &result {
            // Spill failures are I/O-shaped (transient fault, full scratch
            // device) and the failed attempt already cleaned up after
            // itself, so one retry is cheap and safe.
            shared.metrics.counter("service.spill_retries").inc();
            let first = msg.clone();
            result = run_once(&cfg).map(|(mut stats, counts)| {
                stats
                    .trace
                    .record_degradation(Rung::SpillRetry { error: first });
                (stats, counts)
            });
        }
    }
    drop(reservation);
    drop(disk_reservation);

    let outcome = match result {
        Ok((stats, key_counts)) => {
            shared
                .metrics
                .histogram("service.exec_micros", &default_latency_bounds_micros())
                .observe(started.elapsed().as_micros() as u64);
            let mut all_degradations = degradations;
            all_degradations.extend(stats.trace.degradations.iter().cloned());
            Outcome::Completed(JoinSummary {
                algorithm: stats.algorithm.clone(),
                result_count: stats.result_count,
                checksum: stats.checksum,
                exec_nanos: stats.total_time().as_nanos() as u64,
                queue_nanos: queue_wait.as_nanos() as u64,
                degradations: all_degradations,
                plan_cache_hit,
                trace: wants_counts.then(|| stats.trace.clone()),
                key_counts,
            })
        }
        Err(JoinError::Cancelled { phase }) => Outcome::Cancelled { phase },
        Err(e) => Outcome::Failed {
            error: e.to_string(),
        },
    };
    finish(shared, id, &tx, outcome);
}

/// Returns the immediate reservation if there was one; otherwise counts a
/// wait in `waits` and blocks in `wait`.
fn reserve_counting(
    shared: &Shared,
    waits: &str,
    immediate: Option<Reservation>,
    wait: impl FnOnce() -> Result<Reservation, ReserveError>,
) -> Result<Reservation, ReserveError> {
    immediate.map(Ok).unwrap_or_else(|| {
        shared.metrics.counter(waits).inc();
        wait()
    })
}

/// The outcome of a reservation that could not be taken while waiting in
/// `phase`.
fn reserve_failure(err: ReserveError, phase: &str) -> Outcome {
    match err {
        ReserveError::Cancelled => Outcome::Cancelled {
            phase: phase.into(),
        },
        // The fitted plan never reserves more than a budget; keep it a
        // typed failure rather than a panic if that ever drifts.
        ReserveError::ExceedsBudget { requested, budget } => Outcome::Failed {
            error: format!("reservation of {requested} B exceeds the {budget} B budget"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::common::TwinCause;

    fn small_service(workers: usize, queue: usize, budget: u64) -> Arc<JoinService> {
        let mut cfg = ServiceConfig {
            workers,
            queue_capacity: queue,
            memory_budget: budget,
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu.threads = 2;
        JoinService::start(cfg)
    }

    fn csh() -> AlgoChoice {
        AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh))
    }

    #[test]
    fn completes_a_generate_request() {
        let svc = small_service(2, 8, 1 << 30);
        let resp = svc
            .submit(JoinRequest::generate("t", csh(), 2048, 0.9, 7))
            .wait();
        match resp.outcome {
            Outcome::Completed(summary) => {
                assert!(summary.result_count > 0);
                assert_eq!(summary.algorithm, "CSH");
            }
            other => panic!("expected completion, got {other:?}"),
        }
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn key_counts_travel_with_the_summary() {
        let svc = small_service(2, 8, 1 << 30);
        let mut req = JoinRequest::generate("t", csh(), 2048, 0.9, 7);
        req.want_key_counts = true;
        let resp = svc.submit(req).wait();
        match resp.outcome {
            Outcome::Completed(summary) => {
                let counts = summary.key_counts.expect("requested key counts");
                let total: u64 = counts.iter().map(|&(_, c)| c).sum();
                assert_eq!(total, summary.result_count, "counts must sum to the total");
                assert!(summary.trace.is_some(), "trace travels with the counts");
            }
            other => panic!("expected completion, got {other:?}"),
        }
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn misrouted_shard_request_fails_typed() {
        use skewjoin::ShardPartition;
        // A zipf workload spreads keys over all four shards, so a slot-0
        // restriction with no hot keys must trip the misrouting check.
        let svc = small_service(1, 8, 1 << 30);
        let mut req = JoinRequest::generate("t", csh(), 2048, 0.5, 7);
        req.shard = Some(ShardPartition {
            slot: 0,
            shards: 4,
            hot_keys: vec![],
        });
        let resp = svc.submit(req).wait();
        match resp.outcome {
            Outcome::Failed { error } => assert!(error.contains("misrouting"), "{error}"),
            other => panic!("expected a typed misrouting failure, got {other:?}"),
        }
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn rejects_when_queue_is_full() {
        // One worker, tiny queue, many submissions: some must shed.
        let svc = small_service(1, 2, 1 << 30);
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| svc.submit(JoinRequest::generate(&format!("c{i}"), csh(), 4096, 0.9, i)))
            .collect();
        let outcomes: Vec<JoinResponse> = tickets.into_iter().map(Ticket::wait).collect();
        let rejected = outcomes
            .iter()
            .filter(|o| matches!(o.outcome, Outcome::Rejected { .. }))
            .count();
        assert!(rejected > 0, "expected load shedding");
        for o in &outcomes {
            if let Outcome::Rejected { retry_after, .. } = &o.outcome {
                assert!(*retry_after > Duration::ZERO);
            }
        }
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn infeasible_memory_without_disk_is_rejected_at_admission() {
        // With the spill rung disabled (no disk budget) the seed behavior
        // is preserved: an over-budget request is shed before queuing.
        let mut cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            memory_budget: 1 << 16,
            disk_budget: 0,
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu.threads = 2;
        let svc = JoinService::start(cfg);
        let resp = svc
            .submit(JoinRequest::generate("t", csh(), 1 << 20, 0.0, 1))
            .wait();
        match resp.outcome {
            Outcome::Rejected { reason, .. } => assert!(reason.contains("budget"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn over_budget_join_completes_via_spill_rung() {
        // The same class of request the seed build hard-rejects: a 2^17
        // tuple join against a 64 KiB memory budget (the in-memory floor
        // needs megabytes). With a disk budget it must now complete through
        // the grace-hash spill and produce exactly the in-memory answer.
        let tuples = 1usize << 17;
        let scratch = tempdir_for_test("svc-spill");
        let mut cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            memory_budget: 1 << 16,
            disk_budget: 1 << 30,
            scratch_dir: Some(scratch.clone()),
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu.threads = 2;
        let svc = JoinService::start(cfg);
        let resp = svc
            .submit(JoinRequest::generate("t", csh(), tuples, 0.0, 1))
            .wait();
        let summary = match resp.outcome {
            Outcome::Completed(summary) => summary,
            other => panic!("expected spill completion, got {other:?}"),
        };
        assert!(
            summary
                .degradations
                .iter()
                .any(|d| matches!(d, Rung::Spill { .. })),
            "expected a spill rung in {:?}",
            summary.degradations
        );
        assert_eq!(summary.algorithm, "Grace(CSH)");

        // Ground truth: the identical workload joined fully in memory.
        let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, 0.0, 1));
        let mut ref_cfg = JoinConfig::default();
        ref_cfg.cpu.threads = 2;
        let expected = run_join(
            Algorithm::Cpu(CpuAlgorithm::Csh),
            &w.r,
            &w.s,
            &ref_cfg,
            SinkSpec::Count,
        )
        .unwrap();
        assert_eq!(summary.result_count, expected.result_count);
        assert_eq!(summary.checksum, expected.checksum);

        assert_eq!(svc.metrics().counter_value("service.spilled"), 1);
        assert!(svc.governor().disk_peak() > 0, "no disk was reserved");
        assert!(svc.governor().peak() <= svc.governor().budget());
        svc.shutdown();
        reconcile(&svc);
        assert_eq!(svc.governor().disk_occupancy(), 0);
        // The spilled join left no scratch behind.
        let leftovers: Vec<_> = std::fs::read_dir(&scratch)
            .map(|it| it.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "scratch leak: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn retry_after_hint_is_monotone_in_both_pressure_signals() {
        let base = retry_after_hint(0, 0);
        assert!(base > Duration::ZERO);
        let mut prev = base;
        for depth in 1..=8 {
            let hint = retry_after_hint(depth, 0);
            assert!(hint > prev, "queue depth {depth} did not raise the hint");
            prev = hint;
        }
        let mut prev = base;
        for waiters in 1..=8 {
            let hint = retry_after_hint(0, waiters);
            assert!(hint > prev, "waiters {waiters} did not raise the hint");
            prev = hint;
        }
        // Joint pressure dominates either alone.
        assert!(retry_after_hint(4, 4) > retry_after_hint(4, 0));
        assert!(retry_after_hint(4, 4) > retry_after_hint(0, 4));
    }

    fn tempdir_for_test(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "skewjoin-test-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create test scratch dir");
        dir
    }

    #[test]
    fn deadline_in_the_past_cancels_at_a_named_boundary() {
        let svc = small_service(1, 8, 1 << 30);
        let mut req = JoinRequest::generate("t", csh(), 1 << 15, 0.9, 3);
        req.deadline = Some(Duration::ZERO);
        let resp = svc.submit(req).wait();
        match resp.outcome {
            Outcome::Cancelled { phase } => assert!(!phase.is_empty()),
            other => panic!("expected cancellation, got {other:?}"),
        }
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn explicit_cancel_resolves_queued_request() {
        // Single worker busy with a big join; the queued one gets cancelled.
        let svc = small_service(1, 8, 1 << 30);
        let busy = svc.submit(JoinRequest::generate("a", csh(), 1 << 16, 1.0, 5));
        let queued = svc.submit(JoinRequest::generate("b", csh(), 1 << 16, 1.0, 6));
        assert!(svc.cancel(queued.id()));
        let resp = queued.wait();
        assert!(matches!(resp.outcome, Outcome::Cancelled { .. }));
        let _ = busy.wait();
        svc.shutdown();
        reconcile(&svc);
        assert!(!svc.cancel(9999), "unknown ids are not cancellable");
    }

    #[test]
    fn governor_forces_gpu_ladder_under_tight_budget() {
        // Budget fits the CPU twin but not the GPU estimate: the governor
        // plans CSH up front, so the GPU is never attempted. At 64 Ki
        // tuples/side GSH's device tables outweigh CSH's start arrays even
        // at GSH's narrowest radix, so a budget between the two admits the
        // request but rules out the GPU.
        let tuples = 1 << 16;
        let mut join_config = JoinConfig::default();
        join_config.cpu.threads = 2;
        let csh_estimate = skewjoin::planner::estimate_join_memory(
            Algorithm::Cpu(CpuAlgorithm::Csh),
            tuples,
            tuples,
            &join_config,
        );
        join_config.gpu.radix = Some(skewjoin::common::hash::RadixConfig::two_pass(6));
        let gsh_estimate = skewjoin::planner::estimate_join_memory(
            Algorithm::Gpu(GpuAlgorithm::Gsh),
            tuples,
            tuples,
            &join_config,
        );
        let (cpu, gpu) = (csh_estimate.total_bytes(), gsh_estimate.total_bytes());
        assert!(cpu < gpu, "CSH {cpu} B, GSH {gpu} B");
        let budget = cpu + (gpu - cpu) / 2;
        let svc = small_service(1, 8, budget);
        let resp = svc
            .submit(JoinRequest::generate(
                "t",
                AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gsh)),
                tuples,
                0.9,
                11,
            ))
            .wait();
        match resp.outcome {
            Outcome::Completed(summary) => {
                // Exactly the governor's budget twin: no device fallback, so
                // no GPU attempt failed.
                assert!(
                    matches!(
                        summary.degradations.as_slice(),
                        [Rung::CpuTwin {
                            cause: TwinCause::Budget { .. },
                            ..
                        }]
                    ),
                    "expected only the governor's twin rung in {:?}",
                    summary.degradations
                );
                assert_eq!(summary.algorithm, "CSH", "expected the CPU fallback");
            }
            other => panic!("expected completion via ladder, got {other:?}"),
        }
        assert!(svc.governor().peak() <= budget);
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn auto_requests_hit_the_plan_cache_on_repeat() {
        let svc = small_service(1, 8, 1 << 30);
        let req = || JoinRequest::generate("t", AlgoChoice::Auto(TargetDevice::Cpu), 8192, 1.0, 9);
        let first = svc.submit(req()).wait();
        let second = svc.submit(req()).wait();
        match (&first.outcome, &second.outcome) {
            (Outcome::Completed(a), Outcome::Completed(b)) => {
                assert!(!a.plan_cache_hit);
                assert!(b.plan_cache_hit);
                assert_eq!(a.checksum, b.checksum);
            }
            other => panic!("expected two completions, got {other:?}"),
        }
        assert_eq!(svc.plan_cache().hits(), 1);
        assert_eq!(svc.plan_cache().misses(), 1);
        svc.shutdown();
        reconcile(&svc);
    }

    #[test]
    fn shutdown_resolves_queued_requests_as_cancelled() {
        let svc = small_service(1, 32, 1 << 30);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| svc.submit(JoinRequest::generate("t", csh(), 1 << 15, 1.0, i)))
            .collect();
        svc.shutdown();
        let mut cancelled = 0;
        for t in tickets {
            match t.wait().outcome {
                Outcome::Completed(_) | Outcome::Failed { .. } => {}
                Outcome::Cancelled { .. } => cancelled += 1,
                Outcome::Rejected { .. } => {}
            }
        }
        assert!(cancelled > 0, "queued work should resolve as cancelled");
        reconcile(&svc);
    }

    /// Asserts the accounting invariant after shutdown.
    fn reconcile(svc: &JoinService) {
        let m = svc.metrics();
        let submitted = m.counter_value("service.submitted");
        let admitted = m.counter_value("service.admitted");
        let rejected = m.counter_value("service.rejected");
        let completed = m.counter_value("service.completed");
        let cancelled = m.counter_value("service.cancelled");
        let failed = m.counter_value("service.failed");
        assert_eq!(submitted, admitted + rejected, "submission accounting");
        assert_eq!(
            admitted,
            completed + cancelled + failed,
            "terminal accounting"
        );
    }
}
