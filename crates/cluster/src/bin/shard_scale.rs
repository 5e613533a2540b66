//! `shard_scale` — the shard-scaling experiment behind EXPERIMENTS.md.
//!
//! For each (shard count × zipf) cell it reports two things:
//!
//! * **balance** — the hottest shard's share of the probe side under
//!   skew-aware routing vs plain hash sharding (`shard_of` for every
//!   key). This is the distributed analogue of the paper's Figure 1:
//!   under heavy skew, plain hashing funnels the hot keys' probe tuples
//!   onto their owner shards, while probe splitting deals them evenly.
//! * **bytes shipped** — the frame bytes of the shard requests and of
//!   their replies (the coordinator's `cluster.request_bytes` and
//!   `cluster.reply_bytes` trace counters), the distributed join's
//!   communication cost;
//! * **wall time** of a real cluster join over in-process shard servers,
//!   so the coordination overhead (scatter + TCP + merge) is measured,
//!   not asserted.
//!
//! ```text
//! cargo run --release -p skewjoin-cluster --bin shard_scale -- [--tuples N]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use skewjoin::common::Relation;
use skewjoin::cpu::{ShardRouter, SkewDetectConfig};
use skewjoin_cluster::{scatter, ClusterConfig, Coordinator};
use skewjoin_datagen::{PaperWorkload, WorkloadSpec};
use skewjoin_service::{protocol, JoinService, ServiceConfig};

/// Hottest shard's share of all probe tuples, in percent.
fn max_probe_share(parts: &[Relation]) -> f64 {
    let total: usize = parts.iter().map(Relation::len).sum();
    let max = parts.iter().map(Relation::len).max().unwrap_or(0);
    if total == 0 {
        0.0
    } else {
        100.0 * max as f64 / total as f64
    }
}

fn main() {
    let mut tuples = 1 << 16;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tuples" => {
                tuples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--tuples needs an integer"));
            }
            other => panic!("unknown flag {other} (usage: shard_scale [--tuples N])"),
        }
    }

    println!("shard_scale: {tuples} tuples/side, seed 42, CSH on every shard");
    println!(
        "{:>6} {:>6} {:>8} | {:>14} {:>14} | {:>11} {:>11} | {:>9} {:>12}",
        "shards",
        "zipf",
        "hot",
        "max-share hash",
        "max-share skew",
        "request MB",
        "reply MB",
        "wall",
        "reassigned"
    );

    for shards in [1usize, 2, 4] {
        // In-process shard servers: one JoinService + listener per slot.
        let mut services = Vec::new();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for slot in 0..shards {
            let mut cfg = ServiceConfig {
                workers: 2,
                queue_capacity: 32,
                ..ServiceConfig::default()
            };
            cfg.join_config.cpu.threads = 2;
            let service = JoinService::start(cfg);
            let handle =
                protocol::serve_shard(Arc::clone(&service), "127.0.0.1:0", Some(slot as u32))
                    .expect("bind shard");
            addrs.push(handle.addr().to_string());
            services.push(service);
            handles.push(handle);
        }
        let mut cluster_cfg = ClusterConfig::new(addrs);
        cluster_cfg.client = "shard-scale".into();
        cluster_cfg.client_backoff = Duration::from_millis(5);
        let coordinator = Coordinator::new(cluster_cfg).expect("coordinator");

        for zipf in [0.0, 0.75, 1.5] {
            let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, 42));

            // Balance: plain hash sharding vs skew-aware routing.
            let mut plain = ShardRouter::from_hot_keys(Vec::new(), shards);
            let hashed = scatter(&w.r, &w.s, &mut plain);
            let mut skewed =
                ShardRouter::detect(w.r.tuples(), shards, &SkewDetectConfig::default());
            let routed = scatter(&w.r, &w.s, &mut skewed);

            // Wall time of the real distributed join.
            let started = Instant::now();
            let out = coordinator.join(&w.r, &w.s).expect("cluster join");
            let wall = started.elapsed();

            let megabytes =
                |counter: &str| out.trace.get("cluster", counter).unwrap_or(0) as f64 / 1e6;
            println!(
                "{shards:>6} {zipf:>6} {:>8} | {:>13.1}% {:>13.1}% | {:>11.3} {:>11.3} | \
                 {:>8.3}s {:>12}",
                routed.stats.hot_keys,
                max_probe_share(&hashed.s),
                max_probe_share(&routed.s),
                megabytes("request_bytes"),
                megabytes("reply_bytes"),
                wall.as_secs_f64(),
                out.reassigned,
            );
        }

        for h in handles {
            h.stop();
        }
        for s in services {
            s.shutdown();
        }
    }
}
