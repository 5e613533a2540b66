//! The system under test, set up once per run: in-process join
//! configurations, a `JoinService` behind `serve` on loopback, and a
//! two-shard cluster. Every operation is checked against its pair's oracle.

use std::path::Path;
use std::sync::Arc;

use skewjoin::common::{JoinStats, SinkSpec};
use skewjoin::cpu::{SkewDetectConfig, SpillConfig, MIN_SPILL_BUDGET};
use skewjoin::gpu::GpuBackendKind;
use skewjoin::{estimate_join_memory, run_join, Algorithm, CpuAlgorithm, JoinConfig, TargetDevice};
use skewjoin_cluster::{ClusterConfig, ClusterError, ClusterJoin, Coordinator};
use skewjoin_service::{
    serve, serve_shard, AlgoChoice, Client, ClientError, JoinRequest, JoinResponse, JoinService,
    JoinSummary, Outcome, ServerHandle, ServiceConfig,
};

use crate::workload::{Expected, Pair, Shape};

/// Cluster shards, each `JoinService` with one worker running one thread.
pub const SHARDS: usize = 2;

/// Join threads of every in-process join and of the service's worker.
/// One, because the gated figures are process CPU time, and only a
/// single-threaded join keeps that free of the hypervisor: the kernel
/// leaves steal out of a thread's CPU time, but an idle worker of a
/// multi-threaded join spins and yields while a stolen peer holds a task,
/// and that spinning is counted.
pub const JOIN_THREADS: usize = 1;

/// Spill fan-out: 4 partitions per side. Every run file is fsynced, so the
/// default 64-way fan-out would make `spill_ms` a count of disk flushes.
pub const SPILL_PARTITION_BITS: u32 = 2;

/// The spill budget as a share of `estimate_join_memory` for CSH: every
/// workload spills, and every partition pair reloads without recursion.
pub const SPILL_BUDGET_DIVISOR: u64 = 2;

/// The tiers, in the order a round starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    Cbase,
    Csh,
    Spill,
    GpuHost,
    Service,
    Cluster,
    GpuSim,
}

impl Tier {
    /// The tiers every round runs. `GpuSim` runs once per run: its time
    /// is simulated and exact.
    pub const ROUND: [Tier; 6] = [
        Tier::Cbase,
        Tier::Csh,
        Tier::Spill,
        Tier::GpuHost,
        Tier::Service,
        Tier::Cluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Cbase => "cbase",
            Tier::Csh => "csh",
            Tier::Spill => "spill",
            Tier::GpuHost => "gpu_host",
            Tier::Service => "service",
            Tier::Cluster => "cluster",
            Tier::GpuSim => "gpu_sim",
        }
    }
}

/// Why an operation did not count as a correct completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// Refused by admission control.
    Rejected(String),
    /// Returned an error.
    Failed(String),
    /// Completed with a result that is not the oracle's.
    Wrong(String),
}

/// Everything one run measures against.
pub struct Env {
    pub shape: Shape,
    pub pairs: Vec<Pair>,
    /// In-process joins: `threads` workers, count sink.
    pub cpu: JoinConfig,
    /// CSH under a spill budget; scratch under the run's output directory.
    pub spill: JoinConfig,
    /// GSH on the host backend.
    pub gpu_host: JoinConfig,
    /// Gbase and GSH on the simulator.
    pub gpu_sim: JoinConfig,
    pub service: Arc<JoinService>,
    server: Option<ServerHandle>,
    /// One closed-loop client per connection.
    pub clients: Vec<Client>,
    shards: Vec<(Arc<JoinService>, ServerHandle)>,
    pub coordinator: Coordinator,
    /// The detector the coordinator routes hot keys with.
    pub cluster_skew: SkewDetectConfig,
}

impl Env {
    /// Builds the pairs and their oracles, then starts the service and
    /// the shards.
    pub fn start(shape: Shape, seed: u64, scratch: &Path) -> Result<Env, String> {
        let pairs: Vec<Pair> = (0..shape.pairs)
            .map(|i| Pair::generate(shape.spec(seed, i)))
            .collect();

        let mut cpu = JoinConfig::default();
        cpu.cpu.threads = JOIN_THREADS;
        let estimate = estimate_join_memory(
            Algorithm::Cpu(CpuAlgorithm::Csh),
            shape.tuples,
            shape.tuples,
            &cpu,
        )
        .total_bytes();
        let mut spill = cpu.clone();
        spill.cpu.spill = Some(SpillConfig {
            scratch_dir: Some(scratch.to_path_buf()),
            partition_bits: SPILL_PARTITION_BITS,
            ..SpillConfig::with_budget((estimate / SPILL_BUDGET_DIVISOR).max(MIN_SPILL_BUDGET))
        });
        let mut gpu_host = cpu.clone();
        gpu_host.gpu.backend = GpuBackendKind::Host;
        let gpu_sim = cpu.clone();

        let service = JoinService::start(ServiceConfig {
            workers: 1,
            join_config: cpu.clone(),
            scratch_dir: Some(scratch.to_path_buf()),
            ..ServiceConfig::default()
        });
        let server =
            serve(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let clients = (0..shape.connections)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;

        let mut shard_cfg = cpu.clone();
        shard_cfg.cpu.threads = 1;
        let mut shards = Vec::with_capacity(SHARDS);
        for slot in 0..SHARDS {
            let svc = JoinService::start(ServiceConfig {
                workers: 1,
                join_config: shard_cfg.clone(),
                scratch_dir: Some(scratch.to_path_buf()),
                ..ServiceConfig::default()
            });
            let handle = serve_shard(Arc::clone(&svc), "127.0.0.1:0", Some(slot as u32))
                .map_err(|e| format!("serve shard {slot}: {e}"))?;
            shards.push((svc, handle));
        }
        let cluster =
            ClusterConfig::new(shards.iter().map(|(_, h)| h.addr().to_string()).collect());
        let cluster_skew = cluster.skew;
        let coordinator = Coordinator::new(cluster).map_err(|e| format!("cluster: {e}"))?;

        Ok(Env {
            shape,
            pairs,
            cpu,
            spill,
            gpu_host,
            gpu_sim,
            service,
            server: Some(server),
            clients,
            shards,
            coordinator,
            cluster_skew,
        })
    }

    /// The configuration and algorithm an in-process tier runs.
    pub fn in_process(&self, tier: Tier) -> (&JoinConfig, Algorithm) {
        use skewjoin::GpuAlgorithm::Gsh;
        match tier {
            Tier::Cbase => (&self.cpu, Algorithm::Cpu(CpuAlgorithm::Cbase)),
            Tier::Csh => (&self.cpu, Algorithm::Cpu(CpuAlgorithm::Csh)),
            Tier::Spill => (&self.spill, Algorithm::Cpu(CpuAlgorithm::Csh)),
            Tier::GpuHost => (&self.gpu_host, Algorithm::Gpu(Gsh)),
            other => panic!("{} is not an in-process tier", other.name()),
        }
    }

    /// Runs one in-process join on `pair` and checks it.
    pub fn join(
        &self,
        cfg: &JoinConfig,
        algo: Algorithm,
        pair: &Pair,
    ) -> Result<JoinStats, OpError> {
        let stats = run_join(algo, &pair.r, &pair.s, cfg, SinkSpec::Count)
            .map_err(|e| OpError::Failed(e.to_string()))?;
        pair.expected
            .check(stats.result_count, stats.checksum)
            .map_err(OpError::Wrong)?;
        if cfg.cpu.spill.is_some() && spilled_bytes(&stats) == 0 {
            return Err(OpError::Wrong("the spill tier wrote no bytes".into()));
        }
        Ok(stats)
    }

    /// The service request for `pair` from connection `conn`.
    pub fn request(&self, conn: usize, pair: &Pair) -> JoinRequest {
        JoinRequest::inline(
            &format!("perfbench-{conn}"),
            AlgoChoice::Auto(TargetDevice::Cpu),
            Arc::clone(&pair.r),
            Arc::clone(&pair.s),
        )
    }

    /// Tears everything down: clients first, so every server connection
    /// thread sees its stream close, then the listeners and workers.
    pub fn stop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.service.shutdown();
        for (svc, handle) in self.shards.drain(..) {
            handle.stop();
            svc.shutdown();
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bytes the join wrote to spill files.
pub fn spilled_bytes(stats: &JoinStats) -> u64 {
    use skewjoin::common::trace::counter::SPILL_BYTES_WRITTEN;
    stats.trace.get("spill", SPILL_BYTES_WRITTEN).unwrap_or(0)
}

/// Classifies a service reply and checks a completed one.
pub fn check_reply(
    reply: Result<JoinResponse, ClientError>,
    expected: &Expected,
) -> Result<JoinSummary, OpError> {
    match reply.map_err(|e| OpError::Failed(e.to_string()))?.outcome {
        Outcome::Completed(summary) => {
            expected
                .check(summary.result_count, summary.checksum)
                .map_err(OpError::Wrong)?;
            Ok(summary)
        }
        Outcome::Rejected { reason, .. } => Err(OpError::Rejected(reason)),
        Outcome::Cancelled { phase } => Err(OpError::Failed(format!("cancelled in {phase}"))),
        Outcome::Failed { error } => Err(OpError::Failed(error)),
    }
}

/// Checks a cluster join: merged count and checksum, and per-key counts
/// that add up to the count.
pub fn check_cluster(
    joined: Result<ClusterJoin, ClusterError>,
    expected: &Expected,
) -> Result<ClusterJoin, OpError> {
    let joined = joined.map_err(|e| OpError::Failed(e.to_string()))?;
    expected
        .check(joined.result_count, joined.checksum)
        .map_err(OpError::Wrong)?;
    let per_key: u64 = joined.key_counts.values().sum();
    if per_key != joined.result_count {
        return Err(OpError::Wrong(format!(
            "per-key counts sum to {per_key}, merged count is {}",
            joined.result_count
        )));
    }
    Ok(joined)
}
