//! A small command-line joiner with three modes: run a join in-process,
//! submit one to a running `skewjoind` over TCP, or serve one yourself.
//!
//! ```sh
//! # Local: generate, save, and join a skewed workload.
//! cargo run --release -p skewjoin-service --example join_cli -- \
//!     --generate 1048576 --zipf 0.9 --save-prefix /tmp/skewdemo --algo plan
//!
//! # Local: join two CSV files on their first column.
//! cargo run --release -p skewjoin-service --example join_cli -- \
//!     --r my_r.csv --s my_s.csv --algo csh
//!
//! # Client: submit the same request to a running skewjoind.
//! cargo run --release -p skewjoin-service --example join_cli -- \
//!     --connect 127.0.0.1:7733 --generate 65536 --zipf 1.25 --algo auto
//!
//! # Server: a one-liner skewjoind (ephemeral port with :0).
//! cargo run --release -p skewjoin-service --example join_cli -- \
//!     --serve 127.0.0.1:7733
//! ```
//!
//! Every protocol or IO failure reports to stderr and exits nonzero; user
//! errors never panic.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use skewjoin::datagen::io;
use skewjoin::planner::TargetDevice;
use skewjoin::prelude::*;
use skewjoin_service::{protocol, AlgoChoice, JoinRequest, JoinService, Outcome, ServiceConfig};

/// Prints a clean CLI error and exits (no panic backtrace for user errors).
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

struct CliArgs {
    r_path: Option<PathBuf>,
    s_path: Option<PathBuf>,
    generate: Option<usize>,
    zipf: f64,
    seed: u64,
    algo: String,
    save_prefix: Option<PathBuf>,
    threads: Option<usize>,
    connect: Option<String>,
    serve: Option<String>,
    /// Scratch parent for anything that spills to disk. `None` resolves
    /// through `SKEWJOIN_SCRATCH_DIR`, then the system temp dir; scratch
    /// state is removed on every exit path, panics included.
    scratch_dir: Option<PathBuf>,
    /// In-memory working-set budget (bytes) forcing local CPU joins
    /// through the out-of-core grace-hash path.
    spill_budget: Option<u64>,
}

fn parse_args() -> CliArgs {
    let mut args = CliArgs {
        r_path: None,
        s_path: None,
        generate: None,
        zipf: 0.9,
        seed: 42,
        algo: "plan".to_string(),
        save_prefix: None,
        threads: None,
        connect: None,
        serve: None,
        scratch_dir: None,
        spill_budget: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--r" => args.r_path = Some(PathBuf::from(val("--r"))),
            "--s" => args.s_path = Some(PathBuf::from(val("--s"))),
            "--generate" => {
                args.generate = Some(
                    val("--generate")
                        .parse()
                        .unwrap_or_else(|_| fail("--generate needs an integer")),
                )
            }
            "--zipf" => {
                args.zipf = val("--zipf")
                    .parse()
                    .unwrap_or_else(|_| fail("--zipf needs a number"))
            }
            "--seed" => {
                args.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs an integer"))
            }
            "--algo" => args.algo = val("--algo").to_lowercase(),
            "--save-prefix" => args.save_prefix = Some(PathBuf::from(val("--save-prefix"))),
            "--threads" => {
                args.threads = Some(
                    val("--threads")
                        .parse()
                        .unwrap_or_else(|_| fail("--threads needs an integer")),
                )
            }
            "--connect" => args.connect = Some(val("--connect")),
            "--serve" => args.serve = Some(val("--serve")),
            "--scratch-dir" => args.scratch_dir = Some(PathBuf::from(val("--scratch-dir"))),
            "--spill-budget" => {
                args.spill_budget = Some(
                    val("--spill-budget")
                        .parse()
                        .unwrap_or_else(|_| fail("--spill-budget needs a byte count")),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: join_cli [--r FILE --s FILE | --generate N [--zipf Z] [--seed S]]\n\
                     \x20               [--algo cbase|npj|csh|gbase|gsh|plan|plan-gpu] [--threads N]\n\
                     \x20               [--save-prefix PATH] [--connect ADDR | --serve ADDR]\n\
                     \x20               [--scratch-dir DIR] [--spill-budget BYTES]\n\
                     FILE may be .csv (key in column 0) or the binary .skjr format.\n\
                     --connect submits the request to a running skewjoind instead of\n\
                     joining in-process; --serve runs a skewjoind on ADDR until killed.\n\
                     --spill-budget forces local CPU joins out of core under the given\n\
                     working set; scratch state goes to --scratch-dir (default:\n\
                     $SKEWJOIN_SCRATCH_DIR, then the system temp dir) and is removed\n\
                     on every exit path."
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other}; try --help")),
        }
    }
    args
}

fn load(path: &Path) -> Relation {
    let rel = if path.extension().is_some_and(|e| e == "csv") {
        io::read_csv(path, 0, Some(1)).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
    } else {
        io::read_binary(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
    };
    println!("loaded {} tuples from {}", rel.len(), path.display());
    rel
}

/// `--serve` mode: a one-binary skewjoind.
fn serve(addr: &str, threads: Option<usize>, scratch_dir: Option<PathBuf>) -> ! {
    let mut cfg = ServiceConfig::default();
    if let Some(t) = threads {
        cfg.join_config.cpu.threads = t;
    }
    cfg.scratch_dir = scratch_dir;
    let service = JoinService::start(cfg);
    let server = protocol::serve(Arc::clone(&service), addr)
        .unwrap_or_else(|e| fail(&format!("cannot listen on {addr}: {e}")));
    println!("join_cli serving on {}", server.addr());
    loop {
        std::thread::park();
    }
}

/// `--connect` mode: ship the request to a running server and report its
/// typed outcome. Exit codes: 0 completed, 1 rejected/cancelled/failed,
/// 2 usage or transport error.
fn submit_remote(addr: &str, request: &JoinRequest) -> ! {
    let mut client = protocol::Client::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let response = client
        .join(request)
        .unwrap_or_else(|e| fail(&format!("request to {addr} failed: {e}")));
    match response.outcome {
        Outcome::Completed(summary) => {
            println!(
                "request {} completed via {}: {} results, checksum {:#018x}",
                response.id, summary.algorithm, summary.result_count, summary.checksum
            );
            println!(
                "  exec {:.3} ms, queued {:.3} ms, plan cache {}",
                summary.exec_nanos as f64 / 1e6,
                summary.queue_nanos as f64 / 1e6,
                if summary.plan_cache_hit {
                    "hit"
                } else {
                    "miss"
                },
            );
            if !summary.degradations.is_empty() {
                for rung in &summary.degradations {
                    println!("  degraded: {rung}");
                }
            }
            std::process::exit(0);
        }
        Outcome::Rejected {
            reason,
            retry_after,
        } => {
            eprintln!(
                "request {} rejected: {reason} (retry after {retry_after:?})",
                response.id
            );
            std::process::exit(1);
        }
        Outcome::Cancelled { phase } => {
            eprintln!("request {} cancelled at {phase}", response.id);
            std::process::exit(1);
        }
        Outcome::Failed { error } => {
            eprintln!("request {} failed: {error}", response.id);
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();

    if let Some(addr) = &args.serve {
        serve(addr, args.threads, args.scratch_dir.clone());
    }

    let (r, s) = match (&args.r_path, &args.s_path, args.generate) {
        (Some(rp), Some(sp), None) => (load(rp), load(sp)),
        (None, None, Some(n)) => {
            if args.connect.is_some() {
                // Generation happens server-side; nothing to materialize here.
                (Relation::default(), Relation::default())
            } else {
                println!("generating two {n}-tuple tables (zipf {})…", args.zipf);
                let w = PaperWorkload::generate(WorkloadSpec::paper(n, args.zipf, args.seed));
                (w.r, w.s)
            }
        }
        _ => fail("pass either --r and --s, or --generate N; see --help"),
    };

    if let Some(prefix) = &args.save_prefix {
        let rp = prefix.with_extension("r.skjr");
        let sp = prefix.with_extension("s.skjr");
        io::write_binary(&r, &rp).unwrap_or_else(|e| fail(&format!("{}: {e}", rp.display())));
        io::write_binary(&s, &sp).unwrap_or_else(|e| fail(&format!("{}: {e}", sp.display())));
        println!("saved tables to {} and {}", rp.display(), sp.display());
    }

    if let Some(addr) = &args.connect {
        let algo = match args.algo.as_str() {
            // The local planner spelling; the service calls it "auto".
            "plan" => AlgoChoice::Auto(TargetDevice::Cpu),
            "plan-gpu" => AlgoChoice::Auto(TargetDevice::Gpu),
            other => AlgoChoice::parse(other)
                .unwrap_or_else(|| fail(&format!("unknown algorithm {other}; try --help"))),
        };
        let request = match args.generate {
            Some(n) => JoinRequest::generate("join_cli", algo, n, args.zipf, args.seed),
            None => JoinRequest::inline("join_cli", algo, Arc::new(r), Arc::new(s)),
        };
        submit_remote(addr, &request);
    }

    let mut opts = PlannerOptions::default();
    if let Some(t) = args.threads {
        opts.cpu.threads = t;
    }
    if let Some(budget) = args.spill_budget {
        opts.cpu.spill = Some(skewjoin::cpu::SpillConfig {
            scratch_dir: args.scratch_dir.clone(),
            ..skewjoin::cpu::SpillConfig::with_budget(budget)
        });
    }

    let run = |algo: Algorithm| {
        skewjoin::run_join(algo, &r, &s, &opts.join_config(), SinkSpec::default())
    };
    let stats = match args.algo.as_str() {
        "cbase" => run(Algorithm::Cpu(CpuAlgorithm::Cbase)),
        "npj" => run(Algorithm::Cpu(CpuAlgorithm::CbaseNpj)),
        "csh" => run(Algorithm::Cpu(CpuAlgorithm::Csh)),
        "gbase" => run(Algorithm::Gpu(GpuAlgorithm::Gbase)),
        "gsh" => run(Algorithm::Gpu(GpuAlgorithm::Gsh)),
        "plan" => {
            let plan = JoinPlan::plan(&r, &s, &opts);
            println!("planner chose: {}", plan.reason);
            plan.execute(&r, &s, &opts, SinkSpec::default())
        }
        other => fail(&format!("unknown algorithm {other}; try --help")),
    }
    .unwrap_or_else(|e| fail(&format!("join failed: {e}")));

    println!("\n{stats}");
    if stats.skewed_keys_detected > 0 {
        println!(
            "{} skewed keys; {:.1}% of output through the skew path",
            stats.skewed_keys_detected,
            stats.skew_output_fraction() * 100.0
        );
    }
}
