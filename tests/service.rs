//! End-to-end tests of the `skewjoind` serving layer: the acceptance soak
//! (concurrent mixed CPU/GPU burst under a tight budget), the service-level
//! chaos cells, and cross-layer behaviors (fairness under a flooding
//! client, deadline enforcement through the wire).
//!
//! The failpoint registry is process-global: an armed service failpoint
//! sheds or fails *any* request in the process. So every test that drives
//! a service in this process serializes behind one mutex (same discipline
//! as `fault_recovery.rs`), not just the fault-armed ones.

use std::process::Command;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use skewjoin::common::json::Json;
use skewjoin::common::sink::{CountingSink, OutputSink};
use skewjoin::common::{Relation, Tuple};
use skewjoin::cpu::reference_join;
use skewjoin::datagen::io;
use skewjoin::planner::TargetDevice;
use skewjoin::{Algorithm, CpuAlgorithm};
use skewjoin_integration::chaos::CellOutcome;
use skewjoin_integration::service_chaos::{run_service_cell, SERVICE_FAILPOINT_SITES};
use skewjoin_service::{
    protocol, AlgoChoice, JoinRequest, JoinResponse, JoinService, Outcome, Priority, ServiceConfig,
    Ticket,
};

/// Serializes fault-armed tests: armed failpoints are visible process-wide.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits for `ticket` and returns how long its request sat in the queue.
/// Every request in these tests must complete.
fn queue_nanos(ticket: Ticket) -> u64 {
    match ticket.wait().outcome {
        Outcome::Completed(summary) => summary.queue_nanos,
        other => panic!("every request must complete, got {other:?}"),
    }
}

fn small_service(workers: usize, queue: usize) -> std::sync::Arc<JoinService> {
    let mut cfg = ServiceConfig {
        workers,
        queue_capacity: queue,
        ..ServiceConfig::default()
    };
    cfg.join_config.cpu.threads = 2;
    JoinService::start(cfg)
}

/// The acceptance soak, run exactly as CI runs it: ≥64 concurrent mixed
/// CPU/GPU requests through the `soak` harness binary, which itself asserts
/// queuing under memory pressure, ≥1 governor-ladder engagement,
/// diffcheck-correctness of every completion, peak ≤ budget, and exact
/// metrics reconciliation — any violation exits non-zero.
#[test]
fn soak_binary_upholds_the_serving_contract() {
    let output = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(["--requests", "64", "--tuples", "4096", "--seeds", "17"])
        .output()
        .expect("run soak binary");
    assert!(
        output.status.success(),
        "soak reported violations:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("contract holds"),
        "unexpected output: {stdout}"
    );
}

/// A flooding client cannot starve a light one: with one worker and a
/// hog that fills the queue first, the meek client's single request is
/// dequeued before some of the hog's earlier ones (lane rotation). Under
/// FIFO every hog would leave the queue first and wait less than meek.
#[test]
fn fair_queue_prevents_client_starvation_through_the_service() {
    let _guard = lock();
    let svc = small_service(1, 32);
    let csh = AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh));
    // Occupy the single worker so subsequent submissions queue.
    let plug = svc.submit(JoinRequest::generate("plug", csh, 1 << 15, 1.0, 1));
    let hog_tickets: Vec<Ticket> = (0..6)
        .map(|i| svc.submit(JoinRequest::generate("hog", csh, 8192, 0.75, 10 + i)))
        .collect();
    let meek = svc.submit(JoinRequest::generate("meek", csh, 8192, 0.75, 99));
    assert!(
        hog_tickets.iter().all(|t| t.id() < meek.id()),
        "meek must have been submitted last"
    );

    queue_nanos(plug);
    let meek_queued = queue_nanos(meek);
    let hogs_queued: Vec<u64> = hog_tickets.into_iter().map(queue_nanos).collect();
    svc.shutdown();
    // Every hog was enqueued before meek, and the single worker dequeues
    // one request at a time, so a hog that waited longer than meek was
    // dequeued after it.
    assert!(
        hogs_queued.iter().any(|&hog| hog > meek_queued),
        "all hog requests were dequeued before the later-submitted meek request — \
         no fairness (meek queued {meek_queued} ns, hogs {hogs_queued:?})"
    );
}

/// Priorities override arrival order across bands: a High request submitted
/// after a backlog of Low requests is dequeued before some of them.
#[test]
fn high_priority_jumps_the_low_band() {
    let _guard = lock();
    let svc = small_service(1, 32);
    let csh = AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Csh));
    let plug = svc.submit(JoinRequest::generate("plug", csh, 1 << 15, 1.0, 1));
    let low_tickets: Vec<Ticket> = (0..4)
        .map(|i| {
            let mut req = JoinRequest::generate("low", csh, 8192, 0.5, 20 + i);
            req.priority = Priority::Low;
            svc.submit(req)
        })
        .collect();
    let mut urgent = JoinRequest::generate("urgent", csh, 4096, 0.5, 77);
    urgent.priority = Priority::High;
    let urgent_ticket = svc.submit(urgent);

    queue_nanos(plug);
    let urgent_queued = queue_nanos(urgent_ticket);
    let lows_queued: Vec<u64> = low_tickets.into_iter().map(queue_nanos).collect();
    svc.shutdown();
    // As in the fairness test: a low request that waited longer than the
    // later-submitted urgent one was dequeued after it.
    assert!(
        lows_queued.iter().any(|&low| low > urgent_queued),
        "the urgent request waited out the whole low band \
         (urgent queued {urgent_queued} ns, lows {lows_queued:?})"
    );
}

/// Deadline + cancellation through the full stack: a request with an
/// already-expired deadline resolves as `Cancelled` at a named phase
/// boundary, and the books still balance.
#[test]
fn expired_deadline_cancels_with_a_named_phase() {
    let _guard = lock();
    let svc = small_service(2, 8);
    let mut req = JoinRequest::generate(
        "t",
        AlgoChoice::Fixed(Algorithm::Cpu(CpuAlgorithm::Cbase)),
        1 << 14,
        0.9,
        5,
    );
    req.deadline = Some(Duration::ZERO);
    let resp = svc.submit(req).wait();
    match resp.outcome {
        Outcome::Cancelled { phase } => assert!(!phase.is_empty(), "phase must be named"),
        other => panic!("expected cancellation, got {other:?}"),
    }
    svc.shutdown();
    let m = svc.metrics();
    assert_eq!(
        m.counter_value("service.submitted"),
        m.counter_value("service.admitted") + m.counter_value("service.rejected")
    );
    assert_eq!(
        m.counter_value("service.admitted"),
        m.counter_value("service.completed")
            + m.counter_value("service.cancelled")
            + m.counter_value("service.failed")
    );
}

/// TCP front end end-to-end: an Auto request planned server-side completes
/// over the wire, and the metrics op reflects it.
#[test]
fn tcp_auto_request_round_trips_with_metrics() {
    let _guard = lock();
    let svc = small_service(2, 8);
    let server = protocol::serve(std::sync::Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut client = protocol::Client::connect(server.addr()).expect("connect");
    let req = JoinRequest::generate("wire", AlgoChoice::Auto(TargetDevice::Cpu), 4096, 1.25, 13);
    let resp = client.join(&req).expect("join over TCP");
    match resp.outcome {
        Outcome::Completed(summary) => assert!(summary.result_count > 0),
        other => panic!("expected completion, got {other:?}"),
    }
    let snapshot = client.metrics().expect("metrics over TCP");
    let completed = snapshot
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("service.completed"))
        .and_then(skewjoin::common::json::Json::as_u64);
    assert_eq!(
        completed,
        Some(1),
        "snapshot: {}",
        snapshot.to_string_pretty()
    );
    drop(client);
    server.stop();
    svc.shutdown();
}

/// A zero-length frame (a bare `00 00 00 00` prefix) is a legal length
/// with an empty body, which is not JSON: the server must answer with a
/// typed protocol-error response — not hang, not crash the accept loop.
#[test]
fn zero_length_frame_gets_a_typed_protocol_error() {
    let _guard = lock();
    use std::io::Write;
    let svc = small_service(1, 4);
    let server = protocol::serve(std::sync::Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(&[0, 0, 0, 0]).expect("send empty frame");
    let reply = protocol::read_frame(&mut stream).expect("typed reply frame");
    let resp = skewjoin_service::JoinResponse::from_json(&reply).expect("parseable response");
    assert_eq!(resp.id, 0, "protocol errors carry id 0");
    match resp.outcome {
        Outcome::Failed { error } => assert!(
            error.contains("protocol error"),
            "unexpected error text: {error}"
        ),
        other => panic!("expected a protocol-error failure, got {other:?}"),
    }
    drop(stream);
    server.stop();
    svc.shutdown();
}

/// A frame of *exactly* `MAX_FRAME_BYTES` sits on the accept side of the
/// limit (the cap is `>`): a valid join request padded to the boundary
/// with an unknown string member (the parser ignores unknown fields) must
/// be parsed and served like any other request.
#[test]
fn frame_of_exactly_max_bytes_is_served() {
    let _guard = lock();
    use std::io::Write;
    let svc = small_service(1, 4);
    let server = protocol::serve(std::sync::Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let req = JoinRequest::generate("edge", AlgoChoice::Auto(TargetDevice::Cpu), 1024, 0.75, 5);
    let base = req.to_json().to_string_pretty();
    // Splice a `"pad"` member into the object so the body lands on the
    // boundary byte-for-byte.
    let stripped = base.trim_end().strip_suffix('}').expect("object body");
    let frame_overhead = stripped.len() + ",\"pad\":\"\"}".len();
    let pad_len = protocol::MAX_FRAME_BYTES as usize - frame_overhead;
    let body = format!("{stripped},\"pad\":\"{}\"}}", "x".repeat(pad_len));
    assert_eq!(body.len(), protocol::MAX_FRAME_BYTES as usize);

    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    stream
        .write_all(&(protocol::MAX_FRAME_BYTES).to_be_bytes())
        .expect("prefix");
    stream.write_all(body.as_bytes()).expect("64 MiB body");
    let reply = protocol::read_frame(&mut stream).expect("reply frame");
    let resp = skewjoin_service::JoinResponse::from_json(&reply).expect("parseable response");
    match resp.outcome {
        Outcome::Completed(summary) => assert!(summary.result_count > 0),
        other => panic!("boundary-sized request should complete, got {other:?}"),
    }
    drop(stream);
    server.stop();
    svc.shutdown();
}

/// An inline join document whose `r` member is `r` and whose `s` member
/// is a valid one-tuple block.
fn inline_join_with_r(r: Json) -> Json {
    let s = Json::Bytes(io::to_bytes(&Relation::from_keys(&[1])));
    Json::obj(vec![
        ("op", Json::str("join")),
        ("algo", Json::str("cbase")),
        (
            "payload",
            Json::obj(vec![("inline", Json::obj(vec![("r", r), ("s", s)]))]),
        ),
    ])
}

/// `body` under a length prefix that matches it.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// Every malformed binary tail — and the older base64 and array forms of
/// a relation — gets a typed id-0 protocol-error reply naming the fault, on
/// a connection that stays open: a valid join on the same stream completes
/// afterwards.
#[test]
fn malformed_relation_blobs_get_typed_protocol_errors() {
    use std::io::Write;
    let _guard = lock();
    let block = io::to_bytes(&Relation::from_keys(&[1, 2, 3]));
    let valid = protocol::encode_frame(&inline_join_with_r(Json::Bytes(block.clone())))
        .expect("small frame");
    let body = |json: Json| framed(&protocol::encode_frame(&json).expect("small frame")[4..]);
    // `head NUL tail` under a matching prefix.
    let raw = |head: &str, tail: &[u8]| framed(&[head.as_bytes(), &[0], tail].concat());
    let one_tuple = io::to_bytes(&Relation::from_keys(&[1]));
    let join_head = |r: [u64; 2], s: [u64; 2]| {
        format!(
            r#"{{"op":"join","algo":"cbase","payload":{{"inline":{{"r":{{"$bytes":[{},{}]}},"s":{{"$bytes":[{},{}]}}}}}}}}"#,
            r[0], r[1], s[0], s[1]
        )
    };
    // A head whose `r` reference reaches past a 24-byte tail.
    let beyond = raw(&join_head([0, 4096], [0, 24]), &one_tuple);
    // Both relations name the same section, or overlapping ones.
    let repeated = raw(&join_head([0, 24], [0, 24]), &one_tuple);
    let overlapping = raw(
        &join_head([0, 24], [16, 24]),
        &[&one_tuple[..], &one_tuple].concat(),
    );
    // Tail bytes no reference names: after a valid join's sections, and
    // behind a head with no reference at all.
    let unread = framed(&[&valid[4..], b"junk"].concat());
    let ping_tail = raw(r#"{"op":"ping"}"#, b"garbage");
    // The valid frame with its last five tail bytes cut off (the length
    // prefix says so, so the framing itself is intact).
    let truncated = framed(&valid[4..valid.len() - 5]);
    let mut bad_count = block.clone();
    bad_count[8] = 4;
    let mut bad_magic = block.clone();
    bad_magic[..4].copy_from_slice(b"SKJX");
    let v3_base64 = "U0tKUgEAAAADAAAAAAAAAAEAAAAAAAAAAgAAAAEAAAADAAAAAgAAAA==";
    let old_rows = Json::Arr(
        (1..=3u64)
            .map(|k| Json::Arr(vec![Json::from_u64(k), Json::from_u64(k)]))
            .collect(),
    );
    let cases = [
        (beyond, "bad frame JSON", "beyond the 24-byte tail"),
        (repeated, "bad frame JSON", "does not start"),
        (overlapping, "bad frame JSON", "does not start"),
        (unread, "bad frame JSON", "cover 64 of the 68-byte tail"),
        (ping_tail, "bad frame JSON", "cover 0 of the 7-byte tail"),
        (truncated, "bad frame JSON", "beyond the"),
        (
            body(inline_join_with_r(Json::Bytes(block[..10].to_vec()))),
            "relation r: ",
            "truncated header",
        ),
        (
            body(inline_join_with_r(Json::Bytes(bad_count))),
            "relation r: ",
            "tuple bytes",
        ),
        (
            body(inline_join_with_r(Json::Bytes(bad_magic))),
            "relation r: ",
            "bad magic",
        ),
        (
            body(inline_join_with_r(Json::str(v3_base64))),
            "relation r: ",
            "v3 base64 form",
        ),
        (
            body(inline_join_with_r(old_rows)),
            "relation r: ",
            "v1 array form",
        ),
    ];

    let svc = small_service(1, 4);
    let server = protocol::serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for (frame, what, needle) in cases {
        stream.write_all(&frame).expect("send");
        let reply = protocol::read_frame(&mut stream).expect("a reply, not a dropped connection");
        let resp = JoinResponse::from_json(&reply).expect("parseable response");
        assert_eq!(resp.id, 0, "protocol errors carry id 0");
        match resp.outcome {
            Outcome::Failed { error } => {
                assert!(
                    error.starts_with(&format!("protocol error: {what}")),
                    "{error}"
                );
                assert!(
                    error.contains(needle),
                    "{error:?} should mention {needle:?}"
                );
            }
            other => panic!("expected a protocol error for {needle:?}, got {other:?}"),
        }
    }
    stream.write_all(&valid).expect("send");
    let reply = protocol::read_frame(&mut stream).expect("reply");
    match JoinResponse::from_json(&reply).expect("parseable").outcome {
        Outcome::Completed(summary) => assert_eq!(summary.result_count, 1),
        other => panic!("expected the valid join to complete, got {other:?}"),
    }
    drop(stream);
    server.stop();
    svc.shutdown();
}

/// Replaces the `key_counts` member of a completed reply's summary.
fn with_key_counts(mut reply: Json, counts: Json) -> Json {
    if let Json::Obj(members) = &mut reply {
        for (name, value) in members.iter_mut() {
            if let (true, Json::Obj(summary)) = (name == "summary", value) {
                for (field, old) in summary.iter_mut() {
                    if field == "key_counts" {
                        *old = counts;
                        return reply;
                    }
                }
            }
        }
    }
    panic!("reply has no summary key counts: {reply}")
}

/// A reply whose key-count section is ragged or out of order is a typed
/// client error, and the client's connection stays usable: a server that
/// takes exactly one connection corrupts the first replies' sections, then
/// answers a valid join on the same stream.
#[test]
fn malformed_key_count_sections_are_typed_client_errors() {
    let _guard = lock();
    let record = |key: u32, count: u64| {
        let mut b = key.to_le_bytes().to_vec();
        b.extend_from_slice(&count.to_le_bytes());
        b
    };
    let corruptions = vec![
        (Json::Bytes(vec![0; 13]), "12-byte records"),
        (
            Json::Bytes([record(7, 1), record(3, 1)].concat()),
            "ascending",
        ),
    ];
    let needles: Vec<&str> = corruptions.iter().map(|(_, n)| *n).collect();
    let svc = small_service(1, 4);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_svc = Arc::clone(&svc);
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("one connection");
        let mut corruptions = corruptions.into_iter();
        while let Ok(frame) = protocol::read_frame(&mut stream) {
            let reply = if frame.get("op").and_then(Json::as_str) == Some("ping") {
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    (
                        "protocol_version",
                        Json::from_u64(u64::from(skewjoin_service::PROTOCOL_VERSION)),
                    ),
                ])
            } else {
                let request = JoinRequest::from_json(&frame, "test").expect("valid request");
                let reply = server_svc.submit(request).wait().to_json();
                match corruptions.next() {
                    Some((counts, _)) => with_key_counts(reply, counts),
                    None => reply,
                }
            };
            protocol::write_frame(&mut stream, &reply).expect("reply");
        }
    });

    let mut client = protocol::Client::connect(addr).expect("connect");
    let mut req = JoinRequest::generate("counts", AlgoChoice::parse("csh").unwrap(), 512, 1.0, 3);
    req.want_key_counts = true;
    for needle in needles {
        match client.join(&req) {
            Err(skewjoin_service::ClientError::Protocol(msg)) => {
                assert!(msg.contains(needle), "{msg:?} should mention {needle:?}")
            }
            other => panic!("expected a typed protocol error for {needle:?}, got {other:?}"),
        }
    }
    match client.join(&req).expect("valid join").outcome {
        Outcome::Completed(summary) => {
            let counts = summary.key_counts.expect("requested key counts");
            assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(
                counts.iter().map(|&(_, c)| c).sum::<u64>(),
                summary.result_count
            );
        }
        other => panic!("expected completion, got {other:?}"),
    }
    drop(client);
    server.join().expect("server thread");
    svc.shutdown();
}

/// 2^20 tuples a side travel inline in one ≈ 16 MB frame (8 bytes a
/// tuple) and join to the reference answer. The version-1 array codec
/// needed ≈ 124 MB, above the 64 MiB cap.
#[test]
fn inline_join_of_a_million_tuples_a_side_crosses_the_wire() {
    let _guard = lock();
    let n = 1u32 << 20;
    // Two permutations of one key set: every probe tuple matches once.
    let spread = |i: u32| i.wrapping_mul(2_654_435_761);
    let r = Relation::from_tuples((0..n).map(|i| Tuple::new(spread(i), i)).collect());
    let s = Relation::from_tuples((0..n).map(|i| Tuple::new(spread(n - 1 - i), !i)).collect());
    let mut expected = CountingSink::new();
    reference_join(&r, &s, &mut expected);

    let req = JoinRequest::inline(
        "wire",
        AlgoChoice::parse("cbase").expect("known algorithm"),
        Arc::new(r),
        Arc::new(s),
    );
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, &req.to_json()).expect("fits one frame");
    assert!(frame.len() < (16 << 20) + 256, "{} bytes", frame.len());

    let svc = small_service(1, 4);
    let server = protocol::serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut client = protocol::Client::connect(server.addr()).expect("connect");
    match client.join(&req).expect("join over TCP").outcome {
        Outcome::Completed(summary) => {
            assert_eq!(summary.result_count, expected.count());
            assert_eq!(summary.checksum, expected.checksum());
        }
        other => panic!("expected completion, got {other:?}"),
    }
    drop(client);
    server.stop();
    svc.shutdown();
}

/// The service-level chaos cells, clean path: without armed failpoints the
/// burst completes correctly and reconciles.
#[test]
fn service_chaos_cell_is_clean_when_unarmed() {
    let _guard = lock();
    let outcome = run_service_cell(SERVICE_FAILPOINT_SITES[0], 21, Duration::from_secs(120));
    assert!(
        !outcome.is_violation(),
        "clean cell must not violate: {outcome:?}"
    );
}

/// With the feature on, armed admission/execution faults must surface as
/// typed outcomes — never hangs, wrong answers, or accounting drift.
#[cfg(feature = "fault-injection")]
#[test]
fn armed_service_failpoints_stay_typed_and_reconciled() {
    let _guard = lock();
    for site in SERVICE_FAILPOINT_SITES {
        for seed in [3u64, 9] {
            let outcome = run_service_cell(site, seed, Duration::from_secs(120));
            assert!(
                !outcome.is_violation(),
                "{site} seed {seed} violated the contract: {outcome:?}"
            );
            assert!(
                matches!(
                    outcome,
                    CellOutcome::Correct { .. } | CellOutcome::TypedError(_)
                ),
                "{site} seed {seed}: unexpected outcome {outcome:?}"
            );
        }
    }
}

// Keep the import used in the feature-off build too.
#[cfg(not(feature = "fault-injection"))]
#[test]
fn cell_outcome_classification_is_available() {
    assert!(!CellOutcome::Correct { degradations: 0 }.is_violation());
}
