//! Distributed diffcheck: sharded cluster joins must reproduce single-node
//! ground truth per key, across a seed × zipf × shard-count matrix that
//! forces both skew-routing moves (build replication and probe
//! splitting), and must keep reproducing it after a shard dies.
//!
//! Ground truth is [`skewjoin_integration::reference_key_counts`] — the
//! count-product oracle that shares no code with any hash-join path under
//! test, on either side of the wire.

use std::collections::BTreeMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use skewjoin::common::{Key, Relation};
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin_cluster::{ClusterConfig, Coordinator};
use skewjoin_integration::reference_key_counts;
use skewjoin_service::{protocol, serve_shard, JoinService, ServerHandle, ServiceConfig};

/// Starts `n` in-process shard daemons on ephemeral ports.
fn shard_cluster(n: usize) -> (Vec<Arc<JoinService>>, Vec<ServerHandle>, Vec<String>) {
    let mut services = Vec::new();
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for slot in 0..n {
        let mut cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu.threads = 2;
        let service = JoinService::start(cfg);
        let handle = serve_shard(Arc::clone(&service), "127.0.0.1:0", Some(slot as u32))
            .expect("bind shard");
        addrs.push(handle.addr().to_string());
        services.push(service);
        handles.push(handle);
    }
    (services, handles, addrs)
}

/// Fronts the shard at `addr` with a proxy that accepts nothing until
/// `open` fires. Connections made before then wait in the listen backlog,
/// so a client's hello blocks rather than fails. Returns the proxy's
/// address.
fn gated(addr: &str, open: mpsc::Receiver<()>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind gate");
    let gate_addr = listener.local_addr().unwrap().to_string();
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let _ = open.recv();
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(shard) = TcpStream::connect(&addr) else {
                break;
            };
            let _ = (client.set_nodelay(true), shard.set_nodelay(true));
            let pipes = [
                (client.try_clone().unwrap(), shard.try_clone().unwrap()),
                (shard, client),
            ];
            for (mut from, mut to) in pipes {
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(Shutdown::Write);
                });
            }
        }
    });
    gate_addr
}

fn coordinator_over(addrs: Vec<String>) -> Coordinator {
    let mut cfg = ClusterConfig::new(addrs);
    cfg.client_attempts = 2;
    cfg.client_backoff = Duration::from_millis(5);
    Coordinator::new(cfg).expect("coordinator")
}

fn assert_counts_equal(cell: &str, actual: &BTreeMap<Key, u64>, expected: &BTreeMap<Key, u64>) {
    if actual != expected {
        let mismatch = expected
            .iter()
            .find(|(k, v)| actual.get(k) != Some(v))
            .map(|(k, v)| format!("key {k}: expected {v}, got {:?}", actual.get(k)))
            .or_else(|| {
                actual
                    .iter()
                    .find(|(k, _)| !expected.contains_key(k))
                    .map(|(k, v)| format!("key {k}: spurious count {v}"))
            })
            .unwrap_or_else(|| "shape mismatch".into());
        panic!("{cell}: per-key divergence — {mismatch}");
    }
}

/// The matrix: seeds × zipf × shard counts. zipf 1.5 with ≥ 2 shards must
/// exercise replication and splitting; zipf 0 must not break cold-path
/// ownership routing; 1 shard is the degenerate cluster.
#[test]
fn sharded_matrix_matches_single_node_ground_truth() {
    let seeds = [11u64, 23];
    let zipfs = [0.0f64, 0.75, 1.5];
    let tuples = 2048;
    let mut saw_replication = false;
    let mut saw_probe_split = false;

    for shards in [1usize, 2, 4] {
        let (services, handles, addrs) = shard_cluster(shards);
        let coordinator = coordinator_over(addrs);
        for &seed in &seeds {
            for &zipf in &zipfs {
                let cell = format!("seed {seed} × zipf {zipf} × {shards} shard(s)");
                let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, seed));
                let expected = reference_key_counts(&w.r, &w.s);
                let out = coordinator
                    .join(&w.r, &w.s)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_counts_equal(&cell, &out.key_counts, &expected);
                let expected_total: u64 = expected.values().sum();
                assert_eq!(out.result_count, expected_total, "{cell}: total");
                assert_eq!(out.dead_shards, 0, "{cell}: no shard should die");
                if shards >= 2 {
                    saw_replication |= out.routing.replicated_build_copies > 0;
                    saw_probe_split |= out.routing.split_probe_tuples > 0;
                }
            }
        }
        for h in handles {
            h.stop();
        }
        for s in services {
            s.shutdown();
        }
    }
    assert!(
        saw_replication,
        "no matrix cell exercised build replication"
    );
    assert!(saw_probe_split, "no matrix cell exercised probe splitting");
}

/// Checksums are order-independent wrapping sums, so the merged cluster
/// checksum must equal the single-node checksum bit-for-bit.
#[test]
fn cluster_checksum_matches_single_node() {
    let (services, handles, addrs) = shard_cluster(3);
    let coordinator = coordinator_over(addrs);
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 1.0, 47));
    let out = coordinator.join(&w.r, &w.s).expect("cluster join");

    let mut cfg = skewjoin::JoinConfig::default();
    cfg.cpu.threads = 2;
    let single = skewjoin::run_join(
        skewjoin::Algorithm::Cpu(skewjoin::CpuAlgorithm::Csh),
        &w.r,
        &w.s,
        &cfg,
        skewjoin::common::SinkSpec::Count,
    )
    .expect("single-node join");
    assert_eq!(out.result_count, single.result_count);
    assert_eq!(out.checksum, single.checksum);

    for h in handles {
        h.stop();
    }
    for s in services {
        s.shutdown();
    }
}

/// A shard killed between joins: subsequent joins re-route its share of
/// the work to the survivors and still match ground truth exactly.
#[test]
fn dead_shard_reroutes_work_to_survivors() {
    let (mut services, mut handles, addrs) = shard_cluster(3);
    let coordinator = coordinator_over(addrs);

    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 1.2, 31));
    let expected = reference_key_counts(&w.r, &w.s);

    // Healthy cluster first.
    let healthy = coordinator.join(&w.r, &w.s).expect("healthy join");
    assert_counts_equal("healthy 3-shard", &healthy.key_counts, &expected);
    assert_eq!(healthy.dead_shards, 0);

    // Deterministic kill between joins: stop shard 2's listener and
    // service outright.
    handles.remove(2).stop();
    services.remove(2).shutdown();

    let degraded = coordinator
        .join(&w.r, &w.s)
        .expect("join must survive a dead shard");
    assert_counts_equal("degraded 2-of-3", &degraded.key_counts, &expected);
    assert_eq!(degraded.result_count, healthy.result_count);
    assert_eq!(degraded.checksum, healthy.checksum);
    assert!(degraded.dead_shards >= 1, "the dead shard went unnoticed");
    assert_eq!(
        degraded.trace.get("cluster", "dead_shards"),
        Some(degraded.dead_shards as u64)
    );

    for h in handles {
        h.stop();
    }
    for s in services {
        s.shutdown();
    }
}

/// A shard that dies *mid-task* — the connection drops after the task was
/// sent — forces the requeue/reassignment path: the task re-routes to a
/// survivor and the join still matches ground truth, with the
/// reassignment visible in the dispatch counters.
#[test]
fn mid_task_connection_loss_reassigns_the_task() {
    // A saboteur shard: answers the ping hello, then drops the connection
    // on every shard_join without replying. The live shards sit behind
    // gates that open only once the saboteur holds a task, so it always
    // gets one, however fast the live shards drain the queue.
    let (services, handles, live_addrs) = shard_cluster(2);
    let mut gates = Vec::new();
    let mut addrs = Vec::new();
    for addr in &live_addrs {
        let (open, gate) = mpsc::channel();
        gates.push(open);
        addrs.push(gated(addr, gate));
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind saboteur");
    addrs.push(listener.local_addr().unwrap().to_string());
    let saboteur = std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { break };
            while let Ok(frame) = protocol::read_frame(&mut stream) {
                use skewjoin::common::json::Json;
                let op = frame.get("op").and_then(Json::as_str).unwrap_or("");
                if op == "ping" {
                    let reply = Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        (
                            "protocol_version",
                            Json::from_u64(u64::from(protocol::PROTOCOL_VERSION)),
                        ),
                    ]);
                    if protocol::write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                } else {
                    for gate in gates.drain(..) {
                        let _ = gate.send(());
                    }
                    break; // drop the connection mid-task
                }
            }
        }
    });

    let coordinator = coordinator_over(addrs);

    let w = PaperWorkload::generate(WorkloadSpec::paper(2048, 1.2, 53));
    let expected = reference_key_counts(&w.r, &w.s);
    let out = coordinator
        .join(&w.r, &w.s)
        .expect("join must survive a mid-task connection loss");
    assert_counts_equal("2 real + 1 saboteur", &out.key_counts, &expected);
    assert!(
        out.reassigned >= 1,
        "the saboteur's task was never reassigned (reassigned = {})",
        out.reassigned
    );
    assert!(out.dead_shards >= 1, "the saboteur was not declared dead");
    assert_eq!(out.trace.get("cluster", "reassigned"), Some(out.reassigned));

    for h in handles {
        h.stop();
    }
    for s in services {
        s.shutdown();
    }
    // The saboteur thread exits when its listener errors on drop — force
    // it by connecting once more after the sockets close.
    drop(saboteur); // detach: the thread parks in accept and the process ends anyway
}

/// Misrouted work is rejected typed by the shard, not silently joined:
/// send a slice to the wrong slot on purpose.
#[test]
fn shards_reject_foreign_slices() {
    let (services, handles, addrs) = shard_cluster(2);
    let mut client = skewjoin_service::Client::connect(addrs[0].as_str()).expect("connect");
    // All keys, restricted to slot 0 of 2 with no hot keys: at least one
    // key must belong to slot 1, so the shard must refuse.
    let r = Relation::from_keys(&(0..64).collect::<Vec<_>>());
    let s = Relation::from_keys(&(0..64).collect::<Vec<_>>());
    let mut req = skewjoin_service::JoinRequest::inline(
        "diffcheck",
        skewjoin_service::AlgoChoice::parse("cbase").unwrap(),
        Arc::new(r),
        Arc::new(s),
    );
    req.shard = Some(skewjoin::ShardPartition {
        slot: 0,
        shards: 2,
        hot_keys: vec![],
    });
    let resp = client.shard_join(&req).expect("transport");
    match resp.outcome {
        skewjoin_service::Outcome::Failed { error } => {
            assert!(error.contains("misrouting"), "{error}");
        }
        other => panic!("expected a typed misrouting failure, got {other:?}"),
    }
    drop(client);
    for h in handles {
        h.stop();
    }
    for s in services {
        s.shutdown();
    }
}
