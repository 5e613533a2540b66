//! Service soak harness: drives a [`JoinService`] with a concurrent burst
//! of mixed CPU/GPU requests under a deliberately tight memory budget, then
//! verifies the serving contract end to end:
//!
//! * every submission resolves to a typed outcome within the watchdog
//!   (a dropped response is a violation);
//! * every `Completed` response is diffcheck-correct against the
//!   nested-loop reference (count and order-independent checksum);
//! * requests carrying a deadline either finish inside it (plus grace) or
//!   resolve as `Cancelled` — a late completion is a deadline miss;
//! * the budget demonstrably forced queuing (`service.memory_waits` ≥ 1)
//!   and at least one governor rung engaged;
//! * no completion fell back from the device at run time: no failpoint is
//!   armed and the governor plans every over-budget GPU request onto the
//!   CPU, so a device-fallback rung means the cost model admitted a GPU
//!   join the device could not run;
//! * peak governor occupancy never exceeded the budget;
//! * the final metrics reconcile exactly: `submitted = admitted + rejected`
//!   and `admitted = completed + cancelled + failed`.
//!
//! With `--memory-budget`, the harness instead runs in **spill mode**: the
//! given budget replaces the derived one, scratch goes under a per-seed
//! directory (removed and leak-checked at teardown), and the contract
//! additionally requires that the budget forced at least one join through
//! the grace-hash spill rung (`service.spilled` ≥ 1) per seed.
//! `--disk-budget` quotas the governor's scratch-disk pool.
//!
//! ```text
//! soak [--requests n] [--seeds a,b,..] [--workers n] [--tuples n] [--timeout-secs s]
//!      [--memory-budget bytes] [--disk-budget bytes] [--scratch-dir dir]
//! ```
//!
//! Exits non-zero iff any seed violated the contract.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use skewjoin::common::{Rung, TwinCause};
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin::planner::{estimate_join_memory, TargetDevice};
use skewjoin::{Algorithm, CpuAlgorithm, GpuAlgorithm, JoinConfig};
use skewjoin_integration::chaos::reference_checksum;
use skewjoin_integration::reference_key_counts;
use skewjoin_service::{
    AlgoChoice, JoinRequest, JoinService, Outcome, Priority, RequestPayload, ServiceConfig, Ticket,
};

struct SoakArgs {
    requests: usize,
    seeds: Vec<u64>,
    workers: usize,
    tuples: usize,
    timeout: Duration,
    /// `Some` switches the soak into spill mode: this budget replaces the
    /// derived tight one, and every seed must spill at least once.
    memory_budget: Option<u64>,
    disk_budget: Option<u64>,
    scratch_dir: Option<PathBuf>,
}

fn die(msg: &str) -> ! {
    eprintln!("soak: {msg}");
    eprintln!(
        "usage: soak [--requests n] [--seeds a,b,..] [--workers n] [--tuples n] [--timeout-secs s]\n\
         \x20           [--memory-budget bytes] [--disk-budget bytes] [--scratch-dir dir]"
    );
    std::process::exit(2);
}

fn parse_args() -> SoakArgs {
    let mut args = SoakArgs {
        requests: 64,
        seeds: vec![17],
        workers: 4,
        tuples: 8192,
        timeout: Duration::from_secs(120),
        memory_budget: None,
        disk_budget: None,
        scratch_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match flag.as_str() {
            "--requests" => {
                args.requests = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| die("bad --requests value"))
            }
            "--seeds" => {
                args.seeds = value("--seeds")
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("bad seed value: {v:?}")))
                    })
                    .collect()
            }
            "--workers" => {
                args.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| die("bad --workers value"))
            }
            "--tuples" => {
                args.tuples = value("--tuples")
                    .parse()
                    .unwrap_or_else(|_| die("bad --tuples value"))
            }
            "--timeout-secs" => {
                args.timeout = Duration::from_secs(
                    value("--timeout-secs")
                        .parse()
                        .unwrap_or_else(|_| die("bad --timeout-secs value")),
                )
            }
            "--memory-budget" => {
                args.memory_budget = Some(
                    value("--memory-budget")
                        .parse()
                        .unwrap_or_else(|_| die("bad --memory-budget value")),
                )
            }
            "--disk-budget" => {
                args.disk_budget = Some(
                    value("--disk-budget")
                        .parse()
                        .unwrap_or_else(|_| die("bad --disk-budget value")),
                )
            }
            "--scratch-dir" => args.scratch_dir = Some(PathBuf::from(value("--scratch-dir"))),
            "--help" | "-h" => die("service soak harness"),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if args.requests == 0 || args.seeds.is_empty() {
        die("need at least one request and one seed");
    }
    args
}

/// A budget between the CSH and GSH estimates for `tuples`-sized inputs:
/// requests on the cheaper device fit (but two cannot reserve at once,
/// forcing memory-wait queuing), while requests on the dearer one overshoot
/// and must walk the degradation ladder. At the soak's sizes the dearer
/// device is the CPU: its partitioned copies and start arrays outweigh the
/// GPU's device tables.
fn tight_budget(tuples: usize, join_config: &JoinConfig) -> u64 {
    let estimate =
        |algorithm| estimate_join_memory(algorithm, tuples, tuples, join_config).total_bytes();
    let cpu = estimate(Algorithm::Cpu(CpuAlgorithm::Csh));
    let gpu = estimate(Algorithm::Gpu(GpuAlgorithm::Gsh));
    let (low, high) = (cpu.min(gpu), cpu.max(gpu));
    assert!(low < high, "the CSH and GSH estimates tie at {low} B");
    low + (high - low) / 2
}

/// The i-th request of the mix: every CPU and GPU algorithm and the
/// planner, each over zipf 0 / 0.75 / 1.5 in turn, spread across four
/// clients; every fourth request carries a (generous) deadline so deadline
/// enforcement is live.
fn request_for(i: usize, seed: u64, tuples: usize) -> JoinRequest {
    let algos = [
        AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Cbase)),
        AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::CbaseNpj)),
        AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh)),
        AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gbase)),
        AlgoChoice::Fixed(Algorithm::Gpu(GpuAlgorithm::Gsh)),
        AlgoChoice::Auto(TargetDevice::Cpu),
    ];
    let zipfs = [0.0, 0.75, 1.5];
    let period = algos.len() * zipfs.len();
    let mut req = JoinRequest::generate(
        &format!("client-{}", i % 4),
        algos[i % algos.len()],
        tuples,
        zipfs[i / algos.len() % zipfs.len()],
        // Requests a period (6 algos × 3 zipfs) apart repeat the exact
        // workload, so Auto requests can hit the plan cache.
        seed.wrapping_add((i % period) as u64),
    );
    req.priority = match i % 5 {
        0 => Priority::High,
        4 => Priority::Low,
        _ => Priority::Normal,
    };
    if i.is_multiple_of(4) {
        req.deadline = Some(Duration::from_secs(60));
    }
    req
}

fn verify_completed(request: &JoinRequest, outcome: &Outcome) -> Result<(), String> {
    let Outcome::Completed(summary) = outcome else {
        return Ok(());
    };
    let RequestPayload::Generate { tuples, zipf, seed } = request.payload else {
        return Ok(());
    };
    let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, seed));
    let expected_total: u64 = reference_key_counts(&w.r, &w.s).values().sum();
    let expected_checksum = reference_checksum(&w.r, &w.s);
    if summary.result_count != expected_total {
        return Err(format!(
            "{} (zipf {zipf}, seed {seed}): expected {expected_total} results, got {}",
            summary.algorithm, summary.result_count
        ));
    }
    if summary.checksum != expected_checksum {
        return Err(format!(
            "{} (zipf {zipf}, seed {seed}): expected checksum {expected_checksum:#x}, got {:#x}",
            summary.algorithm, summary.checksum
        ));
    }
    Ok(())
}

fn soak_one_seed(args: &SoakArgs, seed: u64) -> Vec<String> {
    let mut violations = Vec::new();
    let spill_mode = args.memory_budget.is_some();

    let mut cfg = ServiceConfig {
        workers: args.workers,
        queue_capacity: args.requests, // no load shedding: stress the governor
        plan_cache_capacity: 32,
        ..ServiceConfig::default()
    };
    cfg.join_config.cpu.threads = 2;
    cfg.memory_budget = args
        .memory_budget
        .unwrap_or_else(|| tight_budget(args.tuples, &cfg.join_config));
    if let Some(disk) = args.disk_budget {
        cfg.disk_budget = disk;
    }
    // Every seed gets its own scratch directory so teardown can assert the
    // service left nothing behind — the spill path's hygiene contract.
    let scratch = args
        .scratch_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("skewjoin-soak-{seed}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        return vec![format!(
            "cannot create scratch dir {}: {e}",
            scratch.display()
        )];
    }
    cfg.scratch_dir = Some(scratch.clone());
    let budget = cfg.memory_budget;
    let service = JoinService::start(cfg);

    let requests: Vec<JoinRequest> = (0..args.requests)
        .map(|i| request_for(i, seed, args.tuples))
        .collect();

    // Submit everything up front — the whole burst is in flight at once.
    let started = Instant::now();
    let tickets: Vec<(JoinRequest, Ticket)> = requests
        .into_iter()
        .map(|req| {
            let ticket = service.submit(req.clone());
            (req, ticket)
        })
        .collect();

    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut cancelled = 0usize;
    let mut failed = 0usize;
    let mut ladder_engagements = 0usize;
    let mut plan_cache_hits = 0usize;
    for (request, ticket) in tickets {
        let Some(response) = ticket.wait_timeout(args.timeout) else {
            violations.push(format!(
                "dropped response: request from {} got no reply within {:?}",
                request.client, args.timeout
            ));
            continue;
        };
        if let Err(diff) = verify_completed(&request, &response.outcome) {
            violations.push(format!("wrong answer: {diff}"));
        }
        match &response.outcome {
            Outcome::Completed(summary) => {
                completed += 1;
                let governed = summary.degradations.iter().any(|rung| {
                    matches!(
                        rung,
                        Rung::NarrowedRadix { .. }
                            | Rung::Spill { .. }
                            | Rung::CpuTwin {
                                cause: TwinCause::Budget { .. },
                                ..
                            }
                    )
                });
                if governed {
                    ladder_engagements += 1;
                }
                // No failpoint is armed and the governor plans every
                // over-budget GPU request onto the CPU, so a device fallback
                // means a GPU join the cost model admitted failed on the
                // device.
                let device_fallback = summary.degradations.iter().find(|rung| {
                    matches!(
                        rung,
                        Rung::CpuTwin {
                            cause: TwinCause::Device { .. },
                            ..
                        }
                    )
                });
                if let Some(rung) = device_fallback {
                    violations.push(format!(
                        "device fallback: request from {} fell back at run time: {rung}",
                        request.client
                    ));
                }
                if summary.plan_cache_hit {
                    plan_cache_hits += 1;
                }
                if let Some(deadline) = request.deadline {
                    let grace = Duration::from_secs(5);
                    if started.elapsed() > deadline + grace {
                        violations.push(format!(
                            "deadline miss: request from {} completed {:?} after submission \
                             despite a {deadline:?} deadline",
                            request.client,
                            started.elapsed()
                        ));
                    }
                }
            }
            Outcome::Rejected { .. } => rejected += 1,
            Outcome::Cancelled { .. } => cancelled += 1,
            Outcome::Failed { error } => {
                failed += 1;
                // Failures must be typed service errors, not panics leaking
                // through as strings.
                if error.contains("panicked") {
                    violations.push(format!("untyped failure: {error}"));
                }
            }
        }
    }

    let peak = service.governor().peak();
    if peak > budget {
        violations.push(format!(
            "governor overshoot: peak occupancy {peak} B exceeds budget {budget} B"
        ));
    }

    let m = service.metrics();
    let memory_waits = m.counter_value("service.memory_waits");
    let spilled = m.counter_value("service.spilled");
    if spill_mode {
        // The whole point of spill mode: the budget must have pushed at
        // least one join through the grace-hash rung.
        if spilled == 0 {
            violations.push(format!(
                "budget {budget} B never forced a spill (service.spilled == 0)"
            ));
        }
    } else if memory_waits == 0 {
        // The derived tight budget's contract; a user-chosen budget makes
        // no queuing promise.
        violations.push("budget never forced queuing (service.memory_waits == 0)".into());
    }
    if ladder_engagements == 0 {
        violations.push("no degradation-ladder engagement across the whole soak".into());
    }

    service.shutdown();
    // Teardown hygiene: after shutdown the scratch directory must be empty
    // — any leftover entry is a leaked spill file.
    match std::fs::read_dir(&scratch) {
        Ok(entries) => {
            let leaked: Vec<String> = entries
                .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
                .collect();
            std::fs::remove_dir_all(&scratch).ok();
            if !leaked.is_empty() {
                violations.push(format!("leaked scratch after shutdown: {leaked:?}"));
            }
        }
        Err(e) => violations.push(format!(
            "cannot audit scratch dir {}: {e}",
            scratch.display()
        )),
    }
    let submitted = m.counter_value("service.submitted");
    let admitted = m.counter_value("service.admitted");
    let m_rejected = m.counter_value("service.rejected");
    let m_completed = m.counter_value("service.completed");
    let m_cancelled = m.counter_value("service.cancelled");
    let m_failed = m.counter_value("service.failed");
    if submitted != admitted + m_rejected {
        violations.push(format!(
            "metrics mismatch: submitted {submitted} != admitted {admitted} + rejected {m_rejected}"
        ));
    }
    if admitted != m_completed + m_cancelled + m_failed {
        violations.push(format!(
            "metrics mismatch: admitted {admitted} != completed {m_completed} + cancelled \
             {m_cancelled} + failed {m_failed}"
        ));
    }
    // The client-side tally must agree with the service's own books.
    if (completed, rejected, cancelled, failed)
        != (
            m_completed as usize,
            m_rejected as usize,
            m_cancelled as usize,
            m_failed as usize,
        )
    {
        violations.push(format!(
            "metrics mismatch: client saw {completed}/{rejected}/{cancelled}/{failed} \
             (completed/rejected/cancelled/failed) but the service recorded \
             {m_completed}/{m_rejected}/{m_cancelled}/{m_failed}"
        ));
    }

    println!(
        "  seed {seed}: {completed} completed ({ladder_engagements} via governor ladder, \
         {plan_cache_hits} plan-cache hits), {rejected} rejected, {cancelled} cancelled, \
         {failed} failed; {memory_waits} memory waits; {spilled} spilled; \
         peak {peak}/{budget} B; wall {:?}",
        started.elapsed()
    );
    violations
}

fn main() {
    let args = parse_args();
    println!(
        "soak: {} requests x {} seed(s), {} workers, {} tuples/side, watchdog {:?}",
        args.requests,
        args.seeds.len(),
        args.workers,
        args.tuples,
        args.timeout
    );
    if let Some(budget) = args.memory_budget {
        println!(
            "soak: spill mode — memory budget {budget} B, disk budget {} B; \
             every seed must spill at least once",
            args.disk_budget
                .unwrap_or_else(|| ServiceConfig::default().disk_budget)
        );
    }

    let mut violations = Vec::new();
    for &seed in &args.seeds {
        for v in soak_one_seed(&args, seed) {
            violations.push(format!("seed {seed}: {v}"));
        }
    }

    if violations.is_empty() {
        println!("soak: contract holds across all seeds");
        return;
    }
    println!();
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    eprintln!("soak: {} violation(s)", violations.len());
    std::process::exit(1);
}
