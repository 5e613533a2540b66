//! **trajectory** — the committed per-PR performance record.
//!
//! Runs a *pinned* configuration (fixed seed, fixed thread count, fixed
//! size × zipf grid over all five algorithms) and writes
//! `BENCH_trajectory.json` with tuples/sec per (algorithm, phase). The
//! file is committed in-repo so every future change shows its throughput
//! delta in the diff, and the CI `perf-trajectory` job replays the quick
//! tier with `--check`, failing on a >25 % regression against the
//! committed numbers.
//!
//! ```text
//! trajectory               # full tier (sizes up to 2^25), rewrites the file
//! trajectory --quick       # CI tier (~seconds), rewrites only quick entries
//! trajectory --quick --check   # CI: compare against the file, do not write
//! ```
//!
//! The grid is deliberately *not* flag-tunable (only `--threads`, for
//! machines with fewer cores): a trajectory is only comparable when every
//! point pins the same workload. Skewed points use smaller tables because
//! the paper's generator draws both sides from one zipf distribution — at
//! θ=1.5 the hot key covers ~38 % of each side, so the join output (and
//! thus the honest cost of *any* algorithm) grows quadratically with the
//! table size.

use std::time::Duration;

use skewjoin::common::json::Json;
use skewjoin::prelude::*;
use skewjoin_bench::BenchError;

/// Pinned seed: every run of every PR measures the same workload bytes.
const SEED: u64 = 42;
/// Pinned CPU thread count (override with `--threads` on smaller machines;
/// the committed file records what it was measured with).
const THREADS: usize = 4;
/// Regression gate for `--check`: fail when throughput drops below this
/// fraction of the committed number.
const MIN_RATIO: f64 = 0.75;

/// One point of the pinned grid: a zipf factor and per-table sizes (the
/// GPU simulator is host-bound, so its tables are smaller at scale).
struct GridPoint {
    zipf: f64,
    cpu_tuples: usize,
    gpu_tuples: usize,
    /// Skip the GPU algorithms entirely (the 2^25 scale-up point).
    cpu_only: bool,
}

fn grid(quick: bool) -> Vec<GridPoint> {
    let p = |zipf, cpu_tuples, gpu_tuples, cpu_only| GridPoint {
        zipf,
        cpu_tuples,
        gpu_tuples,
        cpu_only,
    };
    if quick {
        vec![
            p(0.0, 1 << 18, 1 << 16, false),
            p(0.75, 1 << 18, 1 << 16, false),
            p(1.5, 1 << 13, 1 << 13, false),
        ]
    } else {
        vec![
            p(0.0, 1 << 22, 1 << 22, false),
            p(0.75, 1 << 22, 1 << 22, false),
            // θ=1.5: quadratic output — 2^15 tables already join to ~10^8
            // result tuples.
            p(1.5, 1 << 15, 1 << 15, false),
            // The scale-up point ("sizes up to 2^25"); CPU only — the
            // simulated GPU at this size measures the simulator, not the
            // algorithm.
            p(0.0, 1 << 25, 0, true),
        ]
    }
}

/// One measured (or committed) throughput number.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    tier: String,
    algorithm: String,
    zipf: f64,
    /// Tuples per table (both tables are this size).
    tuples: u64,
    phase: String,
    seconds: f64,
    tuples_per_sec: f64,
    /// The join degraded (for a GPU join the number is really its CPU
    /// twin's); excluded from regression comparisons.
    degraded: bool,
}

impl Entry {
    fn key(&self) -> (String, String, String, u64, u64) {
        (
            self.tier.clone(),
            self.algorithm.clone(),
            self.phase.clone(),
            self.zipf.to_bits(),
            self.tuples,
        )
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tier", Json::str(self.tier.clone())),
            ("algorithm", Json::str(self.algorithm.clone())),
            ("zipf", Json::num(self.zipf)),
            ("tuples", Json::from_u64(self.tuples)),
            ("phase", Json::str(self.phase.clone())),
            ("seconds", Json::num(self.seconds)),
            ("tuples_per_sec", Json::num(self.tuples_per_sec)),
            ("degraded", Json::Bool(self.degraded)),
        ])
    }

    fn from_json(json: &Json) -> Option<Entry> {
        Some(Entry {
            tier: json.get("tier")?.as_str()?.to_string(),
            algorithm: json.get("algorithm")?.as_str()?.to_string(),
            zipf: json.get("zipf")?.as_f64()?,
            tuples: json.get("tuples")?.as_u64()?,
            phase: json.get("phase")?.as_str()?.to_string(),
            seconds: json.get("seconds")?.as_f64()?,
            tuples_per_sec: json.get("tuples_per_sec")?.as_f64()?,
            degraded: json
                .get("degraded")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

fn read_entries(path: &str) -> Result<Vec<Entry>, BenchError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(BenchError::Io {
                path: path.to_string(),
                source: e,
            })
        }
    };
    let json = Json::parse(&text).map_err(|e| BenchError::InvalidValue {
        flag: path.to_string(),
        value: e.to_string(),
    })?;
    Ok(json
        .get("entries")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Entry::from_json)
        .collect())
}

fn write_entries(path: &str, threads: usize, entries: &[Entry]) -> Result<(), BenchError> {
    let json = Json::obj(vec![
        ("schema", Json::from_u64(1)),
        ("seed", Json::from_u64(SEED)),
        ("threads", Json::from_u64(threads as u64)),
        (
            "entries",
            Json::Arr(entries.iter().map(Entry::to_json).collect()),
        ),
    ]);
    std::fs::write(path, json.to_string_pretty() + "\n").map_err(|e| BenchError::Io {
        path: path.to_string(),
        source: e,
    })
}

/// Runs one (algorithm, grid point) cell `reps` times, keeping the fastest
/// run's phase breakdown.
fn measure(
    algorithm: Algorithm,
    point: &GridPoint,
    threads: usize,
    tier: &str,
    reps: usize,
) -> Vec<Entry> {
    let tuples = if algorithm.is_cpu() {
        point.cpu_tuples
    } else {
        point.gpu_tuples
    };
    let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, point.zipf, SEED));
    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(threads));
    let mut best: Option<skewjoin::common::JoinStats> = None;
    for _ in 0..reps {
        let stats = skewjoin::run_join(algorithm, &w.r, &w.s, &cfg, SinkSpec::Count)
            .unwrap_or_else(|e| panic!("{algorithm} zipf {} failed: {e}", point.zipf));
        if best
            .as_ref()
            .map(|b| stats.total_time() < b.total_time())
            .unwrap_or(true)
        {
            best = Some(stats);
        }
    }
    let stats = best.expect("at least one rep");
    let degraded = !stats.trace.degradations.is_empty();
    if degraded {
        eprintln!(
            "warning: {algorithm} zipf {} degraded ({}); excluded from --check",
            point.zipf,
            stats
                .trace
                .degradations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
    // Throughput counts both inputs: a join that consumed R and S in `t`
    // seconds processed (|R|+|S|)/t tuples/sec, phase by phase.
    let processed = (w.r.len() + w.s.len()) as f64;
    let entry = |phase: &str, d: Duration| Entry {
        tier: tier.to_string(),
        algorithm: algorithm.name().to_string(),
        zipf: point.zipf,
        tuples: tuples as u64,
        phase: phase.to_string(),
        seconds: d.as_secs_f64(),
        tuples_per_sec: processed / d.as_secs_f64().max(1e-12),
        degraded,
    };
    let mut out = vec![entry("total", stats.total_time())];
    for (phase, d) in stats.phases.iter() {
        out.push(entry(phase, d));
    }
    out
}

fn fmt_tps(tps: f64) -> String {
    if tps >= 1e9 {
        format!("{:.2}G", tps / 1e9)
    } else if tps >= 1e6 {
        format!("{:.1}M", tps / 1e6)
    } else {
        format!("{:.0}k", tps / 1e3)
    }
}

/// Compares measured totals against the committed file. Returns the number
/// of regressions.
fn check(measured: &[Entry], committed: &[Entry]) -> usize {
    let mut regressions = 0;
    for m in measured.iter().filter(|m| m.phase == "total") {
        if m.degraded {
            continue;
        }
        let Some(c) = committed.iter().find(|c| c.key() == m.key() && !c.degraded) else {
            println!(
                "  {:>10} zipf {:<4} 2^{:<2} : {:>8}/s  (new point, no baseline)",
                m.algorithm,
                m.zipf,
                m.tuples.ilog2(),
                fmt_tps(m.tuples_per_sec)
            );
            continue;
        };
        let ratio = m.tuples_per_sec / c.tuples_per_sec.max(1e-12);
        let verdict = if ratio < MIN_RATIO {
            regressions += 1;
            "REGRESSION"
        } else if ratio > 1.0 / MIN_RATIO {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {:>10} zipf {:<4} 2^{:<2} : {:>8}/s vs {:>8}/s committed ({:>5.2}x) {verdict}",
            m.algorithm,
            m.zipf,
            m.tuples.ilog2(),
            fmt_tps(m.tuples_per_sec),
            fmt_tps(c.tuples_per_sec),
            ratio
        );
    }
    regressions
}

fn main() {
    let mut quick = false;
    let mut check_mode = false;
    let mut threads = THREADS;
    let mut file = "BENCH_trajectory.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check_mode = true,
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --threads needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--file" => match args.next() {
                Some(p) => file = p,
                None => {
                    eprintln!("error: --file requires a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: trajectory [--quick] [--check] [--threads N] [--file PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let tier = if quick { "quick" } else { "full" };
    // The quick tier is a CI gate on a noisy runner: best-of-3 samples each
    // cell's quiet-period throughput. The full tier runs once — its cells
    // are seconds long, which already averages the noise.
    let reps = if quick { 3 } else { 1 };
    println!("trajectory: tier={tier} threads={threads} seed={SEED} (pinned grid)");

    let mut measured: Vec<Entry> = Vec::new();
    for point in grid(quick) {
        for algorithm in Algorithm::ALL {
            if point.cpu_only && !algorithm.is_cpu() {
                continue;
            }
            let entries = measure(algorithm, &point, threads, tier, reps);
            let total = &entries[0];
            println!(
                "  {:>10} zipf {:<4} 2^{:<2} : {:>8} tuples/s  ({:.3}s)",
                total.algorithm,
                total.zipf,
                total.tuples.ilog2(),
                fmt_tps(total.tuples_per_sec),
                total.seconds
            );
            measured.extend(entries);
        }
    }

    let committed = match read_entries(&file) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if check_mode {
        println!("checking against {file} (fail below {MIN_RATIO}x):");
        if committed.is_empty() {
            eprintln!("error: {file} has no committed entries to check against");
            std::process::exit(2);
        }
        let regressions = check(&measured, &committed);
        if regressions > 0 {
            eprintln!("error: {regressions} throughput regression(s) vs {file}");
            std::process::exit(1);
        }
        println!("no regressions.");
        return;
    }

    // Rewrite this tier's entries; the other tier's survive untouched.
    let mut next: Vec<Entry> = committed.into_iter().filter(|e| e.tier != tier).collect();
    next.extend(measured);
    next.sort_by_key(|e| e.key());
    if let Err(e) = write_entries(&file, threads, &next) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    println!("wrote {file}");
}
