//! One benchmark run: set up several times, then rounds that run every
//! tier round-robin until the time is up, then the simulated GPU joins.
//! A traced run alternates untraced and traced rounds; the traced ones
//! record spans and per-layer samples around the calls into each layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use skewjoin::common::trace::counter;
use skewjoin::common::JoinStats;
use skewjoin::cpu::ShardRouter;
use skewjoin::datagen::PaperWorkload;
use skewjoin::{Algorithm, GpuAlgorithm, JoinPlan, PlannerOptions, TargetDevice};
use skewjoin_cluster::scatter;
use skewjoin_service::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};
use skewjoin_service::{Client, JoinRequest};

use crate::host;
use crate::spans::Tracer;
use crate::stats::{median, parallel_efficiency, residual};
use crate::tiers::{
    check_cluster, check_reply, spilled_bytes, Env, OpError, Tier, JOIN_THREADS, SHARDS,
};
use crate::workload::Shape;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Process CPU time from `before` (a `host::process_cpu_ns` reading) to
/// now, ms.
fn cpu_ms_since(before: u64) -> f64 {
    (host::process_cpu_ns() - before) as f64 / 1e6
}

/// What one tier did over a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub rejected: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Wall latencies of correct operations in untraced rounds, ms.
    pub ms: Vec<f64>,
    /// Process CPU time of correct operations in untraced rounds, ms. The
    /// service tier adds one sample per closed-loop phase: the phase's CPU
    /// time per request.
    pub cpu_ms: Vec<f64>,
    /// Process CPU time of correct operations in traced rounds, ms.
    pub traced_cpu_ms: Vec<f64>,
    pub first_error: Option<String>,
}

impl Tally {
    fn record<T>(
        &mut self,
        result: &Result<T, OpError>,
        ms: f64,
        cpu_ms: Option<f64>,
        traced: bool,
    ) {
        self.attempted += 1;
        let error = match result {
            Ok(_) => {
                if traced {
                    self.traced_cpu_ms.extend(cpu_ms);
                } else {
                    self.ms.push(ms);
                    self.cpu_ms.extend(cpu_ms);
                }
                return;
            }
            Err(OpError::Rejected(e)) => {
                self.rejected += 1;
                e
            }
            Err(OpError::Failed(e)) => {
                self.failed += 1;
                e
            }
            Err(OpError::Wrong(e)) => {
                self.wrong += 1;
                e
            }
        };
        self.first_error.get_or_insert_with(|| error.clone());
    }

    pub fn unsuccessful(&self) -> u64 {
        self.rejected + self.failed + self.wrong
    }
}

/// Everything a run's rounds recorded.
#[derive(Debug, Default)]
pub struct Record {
    pub tallies: BTreeMap<Tier, Tally>,
    /// Wall time of each service phase whose requests all completed
    /// correctly, untraced rounds only, s.
    pub svc_phase_s: Vec<f64>,
}

impl Record {
    fn tally(&mut self, tier: Tier) -> &mut Tally {
        self.tallies.entry(tier).or_default()
    }

    pub fn latencies(&self, tier: Tier) -> &[f64] {
        self.tallies.get(&tier).map_or(&[], |t| &t.ms)
    }

    pub fn cpu_times(&self, tier: Tier) -> &[f64] {
        self.tallies.get(&tier).map_or(&[], |t| &t.cpu_ms)
    }
}

/// Per-layer samples and spans of the traced rounds.
#[derive(Default)]
pub struct Layers {
    pub tracer: Tracer,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    next_request: u64,
}

impl Layers {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    pub fn median(&self, metric: &str) -> Option<f64> {
        median(self.samples.get(metric)?)
    }
}

/// The outcome of a run, before it becomes metrics.
pub struct RunResult {
    /// Process CPU time of each full set-up, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each full set-up, s.
    pub setup_wall_s: Vec<f64>,
    pub rounds: usize,
    pub record: Record,
    pub gbase_sim_ms: Option<f64>,
    pub gsh_sim_ms: Option<f64>,
    pub layers: Option<Layers>,
    pub peak_rss_mb: Option<f64>,
    pub plan_cache: (u64, u64),
    pub governor_peak_bytes: u64,
}

struct Runner {
    env: Env,
    seed: u64,
    layers: Option<Layers>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Sets up, runs rounds for `seconds`, runs the simulated GPU joins.
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &std::path::Path,
) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut runner = None;
    for _ in 0..SETUPS {
        // The previous set-up is torn down before the next is timed.
        drop(runner.take());
        let started = Instant::now();
        let cpu_before = host::process_cpu_ns();
        let mut r = Runner {
            env: Env::start(shape, seed, scratch)?,
            seed,
            layers: None,
        };
        let mut warm = Record::default();
        r.round(0, false, &mut warm);
        if let Some((tier, t)) = warm.tallies.iter().find(|(_, t)| t.unsuccessful() > 0) {
            return Err(format!(
                "warm-up {} failed: {}",
                tier.name(),
                t.first_error.as_deref().unwrap_or("?")
            ));
        }
        setup_wall_s.push(started.elapsed().as_secs_f64());
        setup_s.push(cpu_ms_since(cpu_before) / 1e3);
        runner = Some(r);
    }
    let mut runner = runner.expect("at least one set-up");
    runner.layers = trace.then(Layers::default);

    let cache = runner.env.service.plan_cache();
    let cache_before = (cache.hits(), cache.misses());
    let mut record = Record::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while Instant::now() < deadline {
        // Traced runs alternate: even rounds untraced, odd rounds traced.
        runner.round(rounds, trace && rounds % 2 == 1, &mut record);
        rounds += 1;
    }
    let (gbase_sim_ms, gsh_sim_ms) = runner.gpu_sim(&mut record);
    let cache = runner.env.service.plan_cache();
    let plan_cache = (
        cache.hits() - cache_before.0,
        cache.misses() - cache_before.1,
    );
    let governor_peak_bytes = runner.env.service.governor().peak();
    runner.env.stop();
    Ok(RunResult {
        setup_s,
        setup_wall_s,
        rounds,
        record,
        gbase_sim_ms,
        gsh_sim_ms,
        layers: runner.layers.take(),
        peak_rss_mb: host::peak_rss_mb(),
        plan_cache,
        governor_peak_bytes,
    })
}

impl Runner {
    /// Every tier in turn, each its `repeats` operations back to back,
    /// starting one tier further along each round so no tier always
    /// follows the same neighbour.
    fn round(&mut self, k: usize, traced: bool, out: &mut Record) {
        if traced {
            self.probe_layers(k);
        }
        let n = Tier::ROUND.len();
        for i in 0..n {
            let tier = Tier::ROUND[(k + i) % n];
            if tier == Tier::Service {
                self.service(k, traced, out);
                continue;
            }
            let repeats = self.env.shape.repeats(tier);
            for op in k * repeats..(k + 1) * repeats {
                match tier {
                    Tier::Cluster => self.cluster(op, traced, out),
                    _ => self.in_process(tier, op, traced, out),
                }
            }
        }
    }

    /// The pair operation `op` of a tier runs on.
    fn pair_index(&self, op: usize) -> usize {
        op % self.env.pairs.len()
    }

    /// Layers with no tier of their own: datagen and the planner.
    fn probe_layers(&mut self, k: usize) {
        let index = self.pair_index(k);
        let layers = self.layers.as_mut().expect("traced round");
        let req = layers.request();

        let start = layers.tracer.now_ns();
        let generated = PaperWorkload::generate(self.env.shape.spec(self.seed, index));
        let end = layers.tracer.now_ns();
        black_box(generated);
        layers
            .tracer
            .record(None, "datagen.generate", req, start, end);
        layers.push("datagen.gen_ms", (end - start) as f64 / 1e6);

        let pair = &self.env.pairs[index];
        let opts = PlannerOptions {
            device: TargetDevice::Cpu,
            cpu: self.env.cpu.cpu.clone(),
            gpu: self.env.cpu.gpu.clone(),
        };
        let start = layers.tracer.now_ns();
        let plan = JoinPlan::plan(&pair.r, &pair.s, &opts);
        let end = layers.tracer.now_ns();
        black_box(plan);
        layers.tracer.record(None, "planner.plan", req, start, end);
        layers.push("planner.plan_ms", (end - start) as f64 / 1e6);
    }

    fn in_process(&mut self, tier: Tier, op: usize, traced: bool, out: &mut Record) {
        let pair = &self.env.pairs[self.pair_index(op)];
        let (cfg, algo) = self.env.in_process(tier);
        let layers = self.layers.as_mut().filter(|_| traced);
        let start_ns = layers.as_ref().map_or(0, |l| l.tracer.now_ns());
        let busy_before = host::process_cpu_ns();
        let started = Instant::now();
        let result = self.env.join(cfg, algo, pair);
        let wall = started.elapsed();
        let busy = host::process_cpu_ns() - busy_before;
        out.tally(tier)
            .record(&result, ms(wall), Some(busy as f64 / 1e6), traced);
        if let (Some(layers), Ok(stats)) = (layers, &result) {
            record_in_process(layers, tier, start_ns, ns(wall), busy, stats);
        }
    }

    /// The round's closed loop: each connection sends its requests back to
    /// back, each as soon as the previous reply is in; the connections run
    /// together.
    fn service(&mut self, k: usize, traced: bool, out: &mut Record) {
        let conns = self.env.clients.len();
        let reps = self.env.shape.service_requests;
        let pairs = self.env.pairs.len();
        let picks: Vec<Vec<usize>> = (0..conns)
            .map(|c| {
                (0..reps)
                    .map(|r| ((k * reps + r) * conns + c) % pairs)
                    .collect()
            })
            .collect();
        let requests: Vec<Vec<JoinRequest>> = picks
            .iter()
            .enumerate()
            .map(|(c, ps)| {
                ps.iter()
                    .map(|&p| self.env.request(c, &self.env.pairs[p]))
                    .collect()
            })
            .collect();
        // The codec replicas run before the round trips, outside them.
        let codecs: Vec<Vec<Option<Codec>>> = requests
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|r| traced.then(|| Codec::measure(r)))
                    .collect()
            })
            .collect();

        let epoch_ns = self.layers.as_ref().map_or(0, |l| l.tracer.now_ns());
        let closed_loop = |client: &mut Client, requests: &[JoinRequest]| -> Vec<_> {
            requests
                .iter()
                .map(|request| {
                    let sent = Instant::now();
                    let reply = client.join(request);
                    (reply, sent, sent.elapsed())
                })
                .collect()
        };
        let cpu_before = host::process_cpu_ns();
        let phase_start = Instant::now();
        let replies: Vec<Vec<_>> = if conns == 1 {
            vec![closed_loop(&mut self.env.clients[0], &requests[0])]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .env
                    .clients
                    .iter_mut()
                    .zip(&requests)
                    .map(|(client, reqs)| scope.spawn(move || closed_loop(client, reqs)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("service client thread"))
                    .collect()
            })
        };
        let phase = phase_start.elapsed();
        let phase_cpu_ms = cpu_ms_since(cpu_before);

        let mut all_ok = true;
        let answers = replies.into_iter().flatten();
        let asked = picks.iter().flatten().zip(codecs.into_iter().flatten());
        for ((reply, sent, rt), (&p, codec)) in answers.zip(asked) {
            let result = check_reply(reply, &self.env.pairs[p].expected);
            all_ok &= result.is_ok();
            out.tally(Tier::Service)
                .record(&result, ms(rt), None, traced);
            if let (Some(layers), Ok(summary), Some(codec)) =
                (self.layers.as_mut().filter(|_| traced), &result, codec)
            {
                let start_ns = epoch_ns + ns(sent.duration_since(phase_start));
                codec.record(
                    layers,
                    start_ns,
                    ns(rt),
                    summary.queue_nanos,
                    summary.exec_nanos,
                );
            }
        }
        if all_ok {
            let per_request = phase_cpu_ms / (conns * reps) as f64;
            let tally = out.tally(Tier::Service);
            if traced {
                tally.traced_cpu_ms.push(per_request);
            } else {
                tally.cpu_ms.push(per_request);
                out.svc_phase_s.push(phase.as_secs_f64());
            }
        }
    }

    fn cluster(&mut self, op: usize, traced: bool, out: &mut Record) {
        let pair = &self.env.pairs[self.pair_index(op)];
        let Some(layers) = self.layers.as_mut().filter(|_| traced) else {
            let cpu_before = host::process_cpu_ns();
            let started = Instant::now();
            let result = check_cluster(self.env.coordinator.join(&pair.r, &pair.s), &pair.expected);
            let wall = ms(started.elapsed());
            out.tally(Tier::Cluster)
                .record(&result, wall, Some(cpu_ms_since(cpu_before)), false);
            return;
        };
        // `Coordinator::join` is detect + scatter + dispatch; traced rounds
        // make the two calls themselves to time them apart.
        let req = layers.request();
        let t0 = layers.tracer.now_ns();
        let cpu_before = host::process_cpu_ns();
        let started = Instant::now();
        let mut router = ShardRouter::detect(pair.r.tuples(), SHARDS, &self.env.cluster_skew);
        let scattered = scatter(&pair.r, &pair.s, &mut router);
        let t1 = layers.tracer.now_ns();
        let shipped: usize = scattered
            .r
            .iter()
            .chain(&scattered.s)
            .map(|p| p.len())
            .sum();
        let probe_total: usize = scattered.s.iter().map(|p| p.len()).sum();
        let probe_max = scattered.s.iter().map(|p| p.len()).max().unwrap_or(0);
        let routing = scattered.stats.clone();
        let result = check_cluster(self.env.coordinator.dispatch(scattered), &pair.expected);
        let wall = started.elapsed();
        let cpu = cpu_ms_since(cpu_before);
        let t2 = layers.tracer.now_ns();
        out.tally(Tier::Cluster)
            .record(&result, ms(wall), Some(cpu), true);
        if result.is_err() {
            return;
        }
        let root = layers.tracer.record(None, "cluster.op", req, t0, t2);
        layers
            .tracer
            .record(Some(root), "cluster.scatter", req, t0, t1);
        layers
            .tracer
            .record(Some(root), "cluster.dispatch", req, t1, t2);
        layers.push("cluster.scatter_ms", (t1 - t0) as f64 / 1e6);
        layers.push("cluster.dispatch_ms", (t2 - t1) as f64 / 1e6);
        layers.push("cluster.shipped_tuples", shipped as f64);
        layers.push("cluster.hot_keys", routing.hot_keys as f64);
        layers.push(
            "cluster.replicated_build_copies",
            routing.replicated_build_copies as f64,
        );
        layers.push(
            "cluster.split_probe_tuples",
            routing.split_probe_tuples as f64,
        );
        layers.push(
            "cluster.max_shard_share",
            probe_max as f64 / probe_total.max(1) as f64,
        );
    }

    /// Gbase and GSH on the simulator, once per pair: simulated time is the
    /// same on every repetition. Returns the mean simulated ms per pair.
    fn gpu_sim(&mut self, out: &mut Record) -> (Option<f64>, Option<f64>) {
        let mut sim_ms = [Vec::new(), Vec::new()];
        let started = Instant::now();
        for pair in &self.env.pairs {
            for (slot, algo) in [GpuAlgorithm::Gbase, GpuAlgorithm::Gsh]
                .into_iter()
                .enumerate()
            {
                let result = self.env.join(&self.env.gpu_sim, Algorithm::Gpu(algo), pair);
                out.tally(Tier::GpuSim).record(&result, 0.0, None, false);
                let Ok(stats) = result else { continue };
                sim_ms[slot].push(ms(stats.total_time()));
                if let Some(layers) = self.layers.as_mut() {
                    record_sim(layers, algo, &stats);
                }
            }
        }
        let pairs = self.env.pairs.len();
        if let Some(layers) = self.layers.as_mut() {
            layers.push("gpu.sim_wall_ms", ms(started.elapsed()) / pairs as f64);
        }
        // A failed pair leaves no mean: the run reports the metric missing.
        let mean = |v: &Vec<f64>| (v.len() == pairs).then(|| v.iter().sum::<f64>() / pairs as f64);
        (mean(&sim_ms[0]), mean(&sim_ms[1]))
    }
}

fn phase_ms(stats: &JoinStats, phase: &str) -> f64 {
    ms(stats.phases.get(phase))
}

fn record_in_process(
    layers: &mut Layers,
    tier: Tier,
    start_ns: u64,
    wall_ns: u64,
    busy_ns: u64,
    stats: &JoinStats,
) {
    let name = match tier {
        Tier::Cbase => "cpu.cbase",
        Tier::Csh => "cpu.csh",
        Tier::Spill => "spill",
        _ => "gpu.host",
    };
    let req = layers.request();
    let end_ns = start_ns + wall_ns;
    let root = layers.tracer.record(None, name, req, start_ns, end_ns);
    let phases: Vec<(String, u64)> = stats
        .phases
        .iter()
        .map(|(phase, d)| (format!("{name}.{phase}"), ns(d)))
        .collect();
    let phases: Vec<(&str, u64)> = phases.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    layers
        .tracer
        .record_sequence(root, req, start_ns, end_ns, &phases);

    let busy_ms = busy_ns as f64 / 1e6;
    let efficiency = parallel_efficiency(busy_ns, wall_ns, JOIN_THREADS).unwrap_or(0.0);
    match tier {
        Tier::Cbase => {
            layers.push("cpu.cbase.partition_ms", phase_ms(stats, "partition"));
            layers.push("cpu.cbase.join_ms", phase_ms(stats, "join"));
            layers.push("cpu.cbase.busy_ms", busy_ms);
            layers.push("cpu.parallel_eff", efficiency);
        }
        Tier::Csh => {
            layers.push("cpu.csh.sample_ms", phase_ms(stats, "sample"));
            layers.push("cpu.csh.partition_r_ms", phase_ms(stats, "partition_r"));
            layers.push("cpu.csh.partition_s_ms", phase_ms(stats, "partition_s"));
            layers.push("cpu.csh.nm_join_ms", phase_ms(stats, "nm_join"));
            layers.push("cpu.csh.busy_ms", busy_ms);
            layers.push("cpu.csh.wall_ms", wall_ns as f64 / 1e6);
            layers.push("cpu.csh.skew_output_share", stats.skew_output_fraction());
            layers.push("cpu.csh.skewed_keys", stats.skewed_keys_detected as f64);
            layers.push("cpu.parallel_eff", efficiency);
        }
        Tier::Spill => {
            let count = |c| stats.trace.get("spill", c).unwrap_or(0) as f64;
            layers.push("spill.bytes_written", spilled_bytes(stats) as f64);
            layers.push("spill.bytes_read", count(counter::SPILL_BYTES_READ));
            layers.push("spill.partitions", count(counter::SPILL_PARTITIONS));
            layers.push(
                "spill.recursion_depth",
                count(counter::SPILL_RECURSION_DEPTH),
            );
            layers.push("spill.partition_ms", phase_ms(stats, "spill_partition"));
            layers.push("spill.join_ms", phase_ms(stats, "spill_join"));
            layers.push("spill.busy_ms", busy_ms);
            layers.push("spill.wall_ms", wall_ns as f64 / 1e6);
        }
        _ => {
            layers.push("gpu.host.busy_ms", busy_ms);
            layers.push("gpu.host.parallel_eff", efficiency);
        }
    }
}

/// Sum of a counter over every phase of a trace.
fn counter_sum(stats: &JoinStats, name: &str) -> f64 {
    stats
        .trace
        .phases
        .iter()
        .filter_map(|p| p.get(name))
        .sum::<u64>() as f64
}

fn record_sim(layers: &mut Layers, algo: GpuAlgorithm, stats: &JoinStats) {
    let cycles = stats.simulated_cycles as f64;
    match algo {
        GpuAlgorithm::Gbase => layers.push("gpu.gbase.device_cycles", cycles),
        GpuAlgorithm::Gsh => {
            let max_block = stats
                .trace
                .phases
                .iter()
                .filter_map(|p| p.get(counter::MAX_BLOCK_CYCLES))
                .max()
                .unwrap_or(0);
            layers.push("gpu.gsh.device_cycles", cycles);
            layers.push("gpu.gsh.max_block_cycles", max_block as f64);
            for (metric, name) in [
                ("gpu.gsh.divergence_cycles", counter::DIVERGENCE_CYCLES),
                ("gpu.gsh.atomic_cycles", counter::ATOMIC_CYCLES),
                ("gpu.gsh.mem_transactions", counter::MEM_TRANSACTIONS),
                ("gpu.gsh.kernel_launches", counter::KERNEL_LAUNCHES),
            ] {
                layers.push(metric, counter_sum(stats, name));
            }
        }
    }
}

/// A replica of the request codec: what the client does to put the request
/// on the wire, and what the server does to take it off.
struct Codec {
    bytes: usize,
    encode_ns: u64,
    decode_ns: u64,
}

impl Codec {
    fn measure(request: &JoinRequest) -> Codec {
        let started = Instant::now();
        let mut frame = Vec::new();
        write_frame(&mut frame, &request.wire_json("join")).expect("request frame encodes");
        let encode_ns = ns(started.elapsed());
        let started = Instant::now();
        let json = read_frame(&mut frame.as_slice()).expect("request frame decodes");
        let decoded = JoinRequest::from_json(&json, "perfbench").expect("request parses");
        let decode_ns = ns(started.elapsed());
        black_box(decoded);
        Codec {
            bytes: frame.len(),
            encode_ns,
            decode_ns,
        }
    }

    /// Spans of one service round trip: the codec replicas and the
    /// service's own queue and execution times laid out in pipeline order,
    /// then the part none of them covers.
    fn record(self, layers: &mut Layers, start_ns: u64, rt_ns: u64, queue_ns: u64, exec_ns: u64) {
        let parts = [
            ("wire.encode", self.encode_ns),
            ("wire.decode", self.decode_ns),
            ("svc.queue", queue_ns),
            ("svc.exec", exec_ns),
        ];
        let attributed: Vec<f64> = parts.iter().map(|(_, v)| *v as f64).collect();
        let unattributed_ns = residual(rt_ns as f64, &attributed);
        let req = layers.request();
        let root = layers
            .tracer
            .record(None, "svc.op", req, start_ns, start_ns + rt_ns);
        let mut children = parts.to_vec();
        children.push(("svc.unattributed", unattributed_ns.max(0.0) as u64));
        layers
            .tracer
            .record_sequence(root, req, start_ns, start_ns + rt_ns, &children);
        layers.push("wire.request_bytes", self.bytes as f64);
        layers.push(
            "wire.cap_share",
            self.bytes as f64 / f64::from(MAX_FRAME_BYTES),
        );
        layers.push("wire.encode_ms", self.encode_ns as f64 / 1e6);
        layers.push("wire.decode_ms", self.decode_ns as f64 / 1e6);
        layers.push("svc.queue_ms", queue_ns as f64 / 1e6);
        layers.push("svc.exec_ms", exec_ns as f64 / 1e6);
        layers.push("svc.unattributed_ms", unattributed_ns / 1e6);
    }
}
