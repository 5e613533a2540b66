//! `perfbench`: the skewjoin workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uniform|skewed|small> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's relations from the seed, runs every tier
//! round-robin for the given time, checks every result against the
//! reference join, prints a table and, as the last line, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `BENCHMARK.json` at the repository root documents both.

mod host;
mod run;
mod spans;
mod stats;
mod tiers;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use skewjoin::common::json::Json;

use run::RunResult;
use stats::{beyond, highest_supported_percentile, median, quantile, supports};
use tiers::Tier;
use workload::{Shape, Workload};

const USAGE: &str =
    "usage: perfbench --workload <uniform|skewed|small> [--seed N] [--seconds N] [--trace 0|1]";

/// Where span files and spill scratch go, inside the benchmark's directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Per-layer metrics of a traced run, with their units.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("datagen.gen_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.cache_hit_ratio", "ratio"),
    ("cpu.cbase.partition_ms", "ms"),
    ("cpu.cbase.join_ms", "ms"),
    ("cpu.cbase.busy_ms", "ms"),
    ("cpu.csh.sample_ms", "ms"),
    ("cpu.csh.partition_r_ms", "ms"),
    ("cpu.csh.partition_s_ms", "ms"),
    ("cpu.csh.nm_join_ms", "ms"),
    ("cpu.csh.busy_ms", "ms"),
    ("cpu.csh.wall_ms", "ms"),
    ("cpu.csh.skew_output_share", "ratio"),
    ("cpu.csh.skewed_keys", "count"),
    ("cpu.parallel_eff", "ratio"),
    ("spill.bytes_written", "B"),
    ("spill.bytes_read", "B"),
    ("spill.partitions", "count"),
    ("spill.recursion_depth", "count"),
    ("spill.partition_ms", "ms"),
    ("spill.join_ms", "ms"),
    ("spill.busy_ms", "ms"),
    ("spill.wall_ms", "ms"),
    ("gpu.gbase.device_cycles", "cycles"),
    ("gpu.gsh.device_cycles", "cycles"),
    ("gpu.gsh.max_block_cycles", "cycles"),
    ("gpu.gsh.divergence_cycles", "cycles"),
    ("gpu.gsh.atomic_cycles", "cycles"),
    ("gpu.gsh.mem_transactions", "count"),
    ("gpu.gsh.kernel_launches", "count"),
    ("gpu.host.busy_ms", "ms"),
    ("gpu.host.parallel_eff", "ratio"),
    ("gpu.sim_wall_ms", "ms"),
    ("wire.request_bytes", "B"),
    ("wire.cap_share", "ratio"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("svc.p90_ms", "ms"),
    ("svc.joins_per_s", "1/s"),
    ("svc.queue_ms", "ms"),
    ("svc.exec_ms", "ms"),
    ("svc.rejected", "count"),
    ("svc.unattributed_ms", "ms"),
    ("governor.peak_mb", "MB"),
    ("process.peak_rss_mb", "MB"),
    ("cluster.scatter_ms", "ms"),
    ("cluster.dispatch_ms", "ms"),
    ("cluster.unattributed_ms", "ms"),
    ("cluster.shipped_tuples", "count"),
    ("cluster.hot_keys", "count"),
    ("cluster.replicated_build_copies", "count"),
    ("cluster.split_probe_tuples", "count"),
    ("cluster.max_shard_share", "ratio"),
    ("wall.cbase_ms", "ms"),
    ("wall.gpu_host_ms", "ms"),
    ("wall.svc_p50_ms", "ms"),
    ("wall.cluster_ms", "ms"),
    ("wall.setup_s", "s"),
    ("paper.csh_speedup", "ratio"),
    ("paper.gsh_speedup", "ratio"),
    ("trace.overhead.cbase_cpu_ms", "%"),
    ("trace.overhead.gpu_host_cpu_ms", "%"),
    ("trace.overhead.svc_cpu_ms", "%"),
    ("trace.overhead.cluster_cpu_ms", "%"),
];

/// The tiers whose tracing overhead on CPU time a traced run reports.
const OVERHEAD_TIERS: &[(&str, Tier)] = &[
    ("trace.overhead.cbase_cpu_ms", Tier::Cbase),
    ("trace.overhead.gpu_host_cpu_ms", Tier::GpuHost),
    ("trace.overhead.svc_cpu_ms", Tier::Service),
    ("trace.overhead.cluster_cpu_ms", Tier::Cluster),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

fn latency(name: &'static str, res: &RunResult, tier: Tier) -> Metric {
    let lat = res.record.latencies(tier);
    Metric::new(name, median(lat), "ms", lat.len()).note("median wall latency")
}

fn cpu_time(name: &'static str, res: &RunResult, tier: Tier) -> Metric {
    let cpu = res.record.cpu_times(tier);
    let note = if tier == Tier::Service {
        "median process CPU time per request, one sample a phase"
    } else {
        "median process CPU time per operation"
    };
    Metric::new(name, median(cpu), "ms", cpu.len()).note(note)
}

fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a? / b?)
}

/// The service tail: the 90th percentile, with a note on how many samples
/// lie beyond it.
fn service_p90(name: &'static str, res: &RunResult) -> Metric {
    let lat = res.record.latencies(Tier::Service);
    let n = lat.len();
    let note = if supports(n, 90) {
        format!("90th percentile, {} samples beyond it", beyond(n, 90))
    } else {
        format!(
            "90th percentile on {} samples beyond it (needs 100 requests); p{} is the highest \
             with ten",
            beyond(n, 90),
            highest_supported_percentile(n).unwrap_or(0)
        )
    };
    Metric::new(name, quantile(lat, 0.9), "ms", n).note(note)
}

/// Closed-loop service throughput: requests per phase ÷ the median phase.
fn service_rate(name: &'static str, res: &RunResult, shape: &Shape) -> Metric {
    let phases = &res.record.svc_phase_s;
    let per_phase = (shape.connections * shape.service_requests) as f64;
    Metric::new(
        name,
        median(phases).map(|phase| per_phase / phase),
        "1/s",
        phases.len(),
    )
    .note(format!(
        "closed loop, {} connection(s) × {} request(s) ÷ median phase",
        shape.connections, shape.service_requests
    ))
}

/// The gated metrics, in `BENCHMARK.json`'s order.
fn end_to_end(res: &RunResult) -> Vec<Metric> {
    vec![
        cpu_time("cbase_cpu_ms", res, Tier::Cbase),
        cpu_time("csh_cpu_ms", res, Tier::Csh),
        cpu_time("gpu_host_cpu_ms", res, Tier::GpuHost),
        cpu_time("svc_cpu_ms", res, Tier::Service),
        cpu_time("cluster_cpu_ms", res, Tier::Cluster),
        Metric::new("gbase_sim_ms", res.gbase_sim_ms, "sim_ms", 1).note("simulated device time"),
        Metric::new("gsh_sim_ms", res.gsh_sim_ms, "sim_ms", 1).note("simulated device time"),
        Metric::new("setup_s", median(&res.setup_s), "s", res.setup_s.len())
            .note("median process CPU time of full set-ups"),
    ]
}

/// Figures that do not repeat from run to run on a shared host: the wall
/// clock follows its steal, and the spill tier's CPU time its file system.
/// Printed beside the gated ones, never gated.
fn ungated(res: &RunResult, shape: &Shape) -> Vec<Metric> {
    let svc = res.record.latencies(Tier::Service);
    let note = |m: Metric| {
        let note = format!("{}; not gated", m.note);
        m.note(note)
    };
    vec![
        note(cpu_time("spill_cpu_ms", res, Tier::Spill)),
        note(latency("cbase_ms", res, Tier::Cbase)),
        note(latency("csh_ms", res, Tier::Csh)),
        note(latency("spill_ms", res, Tier::Spill)),
        note(latency("gpu_host_ms", res, Tier::GpuHost)),
        Metric::new("svc_p50_ms", median(svc), "ms", svc.len())
            .note("median round trip; not gated"),
        note(service_p90("svc_p90_ms", res)),
        note(service_rate("svc_joins_per_s", res, shape)),
        note(latency("cluster_ms", res, Tier::Cluster)),
        Metric::new(
            "setup_wall_s",
            median(&res.setup_wall_s),
            "s",
            res.setup_wall_s.len(),
        )
        .note("median wall time of full set-ups; not gated"),
        Metric::new("peak_rss_mb", res.peak_rss_mb, "MB", 1).note("VmHWM at the end; not gated"),
    ]
}

fn paper_rows(res: &RunResult) -> (Option<f64>, Option<f64>) {
    let cbase = median(res.record.cpu_times(Tier::Cbase));
    let csh = median(res.record.cpu_times(Tier::Csh));
    (ratio(cbase, csh), ratio(res.gbase_sim_ms, res.gsh_sim_ms))
}

fn per_layer(res: &RunResult, shape: &Shape) -> Vec<Metric> {
    let layers = res.layers.as_ref().expect("traced run");
    let (csh_speedup, gsh_speedup) = paper_rows(res);
    let (hits, misses) = res.plan_cache;
    let tally = |tier| res.record.tallies.get(&tier);
    let traced_cpu = |tier| tally(tier).and_then(|t| median(&t.traced_cpu_ms));
    let untraced_cpu = |tier| tally(tier).and_then(|t| median(&t.cpu_ms));
    let untraced_median = |tier| tally(tier).and_then(|t| median(&t.ms));
    let cluster_residual = untraced_median(Tier::Cluster).and_then(|total| {
        Some(stats::residual(
            total,
            &[
                layers.median("cluster.scatter_ms")?,
                layers.median("cluster.dispatch_ms")?,
            ],
        ))
    });
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let samples = layers.samples.get(name).map_or(1, Vec::len);
            let value = match name {
                "planner.cache_hit_ratio" => {
                    (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
                }
                "wall.cbase_ms" => untraced_median(Tier::Cbase),
                "wall.gpu_host_ms" => untraced_median(Tier::GpuHost),
                "wall.svc_p50_ms" => untraced_median(Tier::Service),
                "wall.cluster_ms" => untraced_median(Tier::Cluster),
                "wall.setup_s" => median(&res.setup_wall_s),
                "svc.p90_ms" => service_p90(name, res).value,
                "svc.joins_per_s" => service_rate(name, res, shape).value,
                "svc.rejected" => tally(Tier::Service).map(|t| t.rejected as f64),
                "governor.peak_mb" => Some(res.governor_peak_bytes as f64 / (1 << 20) as f64),
                "process.peak_rss_mb" => res.peak_rss_mb,
                "cluster.unattributed_ms" => cluster_residual,
                "paper.csh_speedup" => csh_speedup,
                "paper.gsh_speedup" => gsh_speedup,
                _ => match OVERHEAD_TIERS.iter().find(|(n, _)| *n == name) {
                    Some(&(_, tier)) => {
                        ratio(traced_cpu(tier), untraced_cpu(tier)).map(|r| (r - 1.0) * 100.0)
                    }
                    None => layers.median(name),
                },
            };
            Metric::new(name, value, unit, samples)
        })
        .collect()
}

/// The paper's expected direction for CSH/GSH over their baselines.
fn expected_direction(workload: Workload) -> &'static str {
    match workload {
        Workload::Uniform => "≈ 1 (no skew: a tie)",
        Workload::Skewed => "> 1 (skew-conscious wins)",
        Workload::Small => "≈ 1 (θ = 0.5, the crossover)",
    }
}

fn write_spans(path: &Path, args: &Args, res: &RunResult) -> Result<(), String> {
    let layers = res.layers.as_ref().expect("traced run");
    let header = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::from_u64(args.seed)),
        ("seconds", Json::num(args.seconds)),
        ("threads", Json::from_u64(tiers::JOIN_THREADS as u64)),
        ("rounds", Json::from_u64(res.rounds as u64)),
    ];
    fs::write(path, layers.tracer.to_json(header).to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shape = args.workload.shape();
    let nproc = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let out_dir = PathBuf::from(OUT_DIR);
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("error: creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ticks_before = host::cpu_ticks();
    let result = run::run(shape, args.seed, args.seconds, args.trace, &scratch);
    let _ = fs::remove_dir_all(&scratch);
    let res = match result {
        Ok(res) => res,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal = ticks_before
        .zip(host::cpu_ticks())
        .and_then(|(a, b)| host::steal_share(a, b));

    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={} nproc={nproc} \
         cpu={} rounds={} steal={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tiers::JOIN_THREADS,
        pinned.map_or("unpinned".into(), |c| c.to_string()),
        res.rounds,
        steal.map_or("?".into(), |s| format!("{:.1}%", s * 100.0)),
    );
    let metrics = if args.trace {
        per_layer(&res, &shape)
    } else {
        end_to_end(&res)
    };
    println!(
        "{:<34} {:>16} {:<7} {:>7}  note",
        "metric", "value", "unit", "samples"
    );
    let extra = if args.trace {
        Vec::new()
    } else {
        ungated(&res, &shape)
    };
    for m in metrics.iter().chain(&extra) {
        let value = m.value.map_or("-".into(), |v| format!("{v:.4}"));
        println!(
            "{:<34} {:>16} {:<7} {:>7}  {}",
            m.name, value, m.unit, m.samples, m.note
        );
    }
    let (csh_speedup, gsh_speedup) = paper_rows(&res);
    let expect = expected_direction(args.workload);
    for (row, v) in [("csh_speedup", csh_speedup), ("gsh_speedup", gsh_speedup)] {
        let v = v.map_or("-".into(), |v| format!("{v:.3}"));
        println!("paper.{row:<28} {v:>16}  expected {expect}");
    }
    println!("tier         attempted rejected   failed    wrong  first error");
    let mut attempted = 0;
    let mut unsuccessful = 0;
    let mut wrong = 0;
    for (tier, t) in &res.record.tallies {
        attempted += t.attempted;
        unsuccessful += t.unsuccessful();
        wrong += t.wrong;
        println!(
            "{:<12} {:>9} {:>8} {:>8} {:>8}  {}",
            tier.name(),
            t.attempted,
            t.rejected,
            t.failed,
            t.wrong,
            t.first_error.as_deref().unwrap_or("")
        );
    }
    if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = write_spans(&path, &args, &res) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {}", path.display());
    }
    if let Some(m) = metrics
        .iter()
        .find(|m| !m.value.is_some_and(f64::is_finite))
    {
        eprintln!("error: metric {} has no value", m.name);
        return ExitCode::FAILURE;
    }

    let correct = wrong == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.expect("checked above"),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {unsuccessful}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload skewed --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Skewed,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload hit")).is_err());
        assert!(parse_args(&argv("--workload small --trace 2")).is_err());
        assert!(parse_args(&argv("--workload small --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload small --seed")).is_err());
    }

    /// Every workload, scaled down, runs every tier with every result
    /// correct and yields every metric, untraced and traced.
    #[test]
    fn smoke_every_workload() {
        for workload in Workload::ALL {
            let shape = Shape {
                tuples: 1 << 10,
                pairs: workload.shape().pairs.min(3),
                ..workload.shape()
            };
            let scratch = Path::new(OUT_DIR).join(format!("test-scratch-{}", workload.name()));
            fs::create_dir_all(&scratch).unwrap();
            for trace in [false, true] {
                let res = run::run(shape, 5, 1.0, trace, &scratch).unwrap();
                assert!(
                    res.rounds >= 2,
                    "{}: {} rounds",
                    workload.name(),
                    res.rounds
                );
                for (tier, t) in &res.record.tallies {
                    assert!(t.attempted > 0, "{}", tier.name());
                    assert_eq!(t.unsuccessful(), 0, "{}: {:?}", tier.name(), t.first_error);
                }
                let metrics = if trace {
                    per_layer(&res, &shape)
                } else {
                    let mut all = end_to_end(&res);
                    all.extend(ungated(&res, &shape));
                    all
                };
                // Each service round trip is covered exactly by its codec,
                // queue, exec and unattributed spans.
                let spans = res.layers.as_ref().map_or(&[][..], |l| l.tracer.spans());
                for op in spans.iter().filter(|s| s.name == "svc.op") {
                    let covered: u64 = spans
                        .iter()
                        .filter(|c| c.parent == Some(op.id))
                        .map(spans::Span::duration_ns)
                        .sum();
                    assert_eq!(covered, op.duration_ns());
                }
                for m in metrics {
                    assert!(
                        m.value.is_some_and(f64::is_finite),
                        "{} trace={trace}: {} missing",
                        workload.name(),
                        m.name
                    );
                }
            }
            fs::remove_dir_all(&scratch).unwrap();
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics the harness prints.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let layers: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let res = RunResult {
            setup_s: vec![],
            setup_wall_s: vec![],
            rounds: 0,
            record: run::Record::default(),
            gbase_sim_ms: None,
            gsh_sim_ms: None,
            layers: None,
            peak_rss_mb: None,
            plan_cache: (0, 0),
            governor_peak_bytes: 0,
        };
        let e2e: Vec<(String, String)> = end_to_end(&res)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
    }
}
