//! Chaos matrix CLI.
//!
//! Arms every failpoint site in turn (seed × failpoint × algorithm) and
//! verifies the robustness contract: each cell ends in a diffcheck-correct
//! result or a typed `JoinError` — never a hang, an escaped panic, or a
//! wrong answer. See `skewjoin_integration::chaos` for the cell semantics.
//!
//! The matrix also covers the serving layer: the `service.admit` /
//! `service.execute` sites each drive a whole `JoinService` burst per seed
//! (see `skewjoin_integration::service_chaos`) under the same contract,
//! plus exact metrics reconciliation.
//!
//! ```text
//! chaos [--quick] [--seeds a,b,..] [--size n] [--zipf z] [--threads t] [--timeout-secs s]
//! ```
//!
//! Exits non-zero iff any cell violated the contract. Build with
//! `--features fault-injection`; without it the failpoints are compiled to
//! no-ops and the matrix degenerates to a plain correctness sweep (a notice
//! is printed, and the sweep still runs).

use std::time::Duration;

use skewjoin::common::faults;
use skewjoin_integration::chaos::{
    run_chaos_matrix, silence_injected_panics, MatrixConfig, FAILPOINT_SITES,
};
use skewjoin_integration::service_chaos::{run_service_matrix, SERVICE_FAILPOINT_SITES};

fn die(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    eprintln!(
        "usage: chaos [--quick] [--seeds a,b,..] [--failpoints site,..] [--algos name,..] \
         [--size n] [--zipf z] [--threads t] [--timeout-secs s]"
    );
    eprintln!(
        "failpoint sites: {}, {}",
        FAILPOINT_SITES.join(", "),
        SERVICE_FAILPOINT_SITES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> (MatrixConfig, Vec<&'static str>) {
    let mut cfg = MatrixConfig::default();
    let mut service_sites = SERVICE_FAILPOINT_SITES.to_vec();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--quick" => cfg.seeds = vec![11],
            "--seeds" => {
                cfg.seeds = value("--seeds")
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("bad seed value: {v:?}")))
                    })
                    .collect()
            }
            "--failpoints" => {
                cfg.sites = Vec::new();
                service_sites = Vec::new();
                for v in value("--failpoints").split(',') {
                    let v = v.trim();
                    if let Some(site) = FAILPOINT_SITES.into_iter().find(|s| *s == v) {
                        cfg.sites.push(site);
                    } else if let Some(site) = SERVICE_FAILPOINT_SITES.into_iter().find(|s| *s == v)
                    {
                        service_sites.push(site);
                    } else {
                        die(&format!("unknown failpoint site {v:?}"));
                    }
                }
            }
            "--algos" => {
                cfg.algorithms = value("--algos")
                    .split(',')
                    .map(|v| {
                        let v = v.trim();
                        skewjoin::Algorithm::ALL
                            .into_iter()
                            .find(|a| a.name().eq_ignore_ascii_case(v))
                            .unwrap_or_else(|| die(&format!("unknown algorithm {v:?}")))
                    })
                    .collect()
            }
            "--size" => {
                cfg.size = value("--size")
                    .parse()
                    .unwrap_or_else(|_| die("bad --size value"))
            }
            "--zipf" => {
                cfg.zipf = value("--zipf")
                    .parse()
                    .unwrap_or_else(|_| die("bad --zipf value"))
            }
            "--threads" => {
                cfg.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("bad --threads value"))
            }
            "--timeout-secs" => {
                cfg.timeout = Duration::from_secs(
                    value("--timeout-secs")
                        .parse()
                        .unwrap_or_else(|_| die("bad --timeout-secs value")),
                )
            }
            "--help" | "-h" => die("fault-injection chaos matrix"),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if cfg.seeds.is_empty()
        || cfg.algorithms.is_empty()
        || (cfg.sites.is_empty() && service_sites.is_empty())
    {
        die("matrix must be non-empty");
    }
    (cfg, service_sites)
}

fn main() {
    let (cfg, service_sites) = parse_args();
    silence_injected_panics();

    let cells = cfg.seeds.len() * (cfg.sites.len() * cfg.algorithms.len() + service_sites.len());
    println!(
        "chaos: {} cells ({} seeds x ({} failpoints x {} algorithms + {} service sites)), \
         size={} zipf={} threads={} timeout={}s",
        cells,
        cfg.seeds.len(),
        cfg.sites.len(),
        cfg.algorithms.len(),
        service_sites.len(),
        cfg.size,
        cfg.zipf,
        cfg.threads,
        cfg.timeout.as_secs()
    );
    if !faults::ENABLED {
        println!(
            "chaos: NOTE: built without --features fault-injection — every failpoint is a \
             no-op, so this run is a plain correctness sweep"
        );
    }

    let mut run = 0usize;
    let mut results = run_chaos_matrix(&cfg, |cell| {
        run += 1;
        println!("  [{run:>4}/{cells}] {cell}");
    });
    results.extend(run_service_matrix(
        &cfg.seeds,
        &service_sites,
        cfg.timeout,
        |cell| {
            run += 1;
            println!("  [{run:>4}/{cells}] {cell}");
        },
    ));

    let violations: Vec<_> = results
        .iter()
        .filter(|c| c.outcome.is_violation())
        .collect();
    let correct = results
        .iter()
        .filter(|c| {
            matches!(
                c.outcome,
                skewjoin_integration::chaos::CellOutcome::Correct { .. }
            )
        })
        .count();
    let degraded = results
        .iter()
        .filter(|c| {
            matches!(
                c.outcome,
                skewjoin_integration::chaos::CellOutcome::Correct { degradations } if degradations > 0
            )
        })
        .count();
    let typed = results.len() - correct - violations.len();
    let timing_dependent = results.iter().filter(|c| c.timing_dependent()).count();
    println!(
        "chaos: {correct} correct ({degraded} via degradation), {typed} typed errors, {} \
         violations; {timing_dependent} cells are timing-dependent (a rerun may end \
         differently)",
        violations.len()
    );

    if violations.is_empty() {
        println!("chaos: contract holds — every cell was correct or a typed error");
        return;
    }
    println!();
    for cell in &violations {
        println!("VIOLATION: {cell}");
    }
    eprintln!(
        "chaos: {} of {} cells violated the robustness contract",
        violations.len(),
        results.len()
    );
    std::process::exit(1);
}
