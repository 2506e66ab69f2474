//! Follower-against-a-real-leader integration: a `banks-server` leader, a
//! `banks-replica` follower, real sockets, real SSE.
//!
//! The acceptance criteria:
//!
//! * a fresh follower bootstraps from the leader snapshot, tails the WAL,
//!   and converges to the leader's exact epoch with **byte-identical**
//!   answers on every engine;
//! * the follower keeps converging across further leader mutations;
//! * a follower whose cursor falls behind the leader's WAL truncation
//!   horizon re-bootstraps automatically and still converges;
//! * the follower's replicated state is durable: a rebuilt service over
//!   the follower's data directory serves the replicated epoch;
//! * a record the follower cannot decode ends the session, never the
//!   follower thread: it disconnects and connects again.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_replica::Follower;
use banks_server::Server;
use banks_service::{FsyncPolicy, QueryEvent, QuerySpec, ReplicationRole, Service};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "banks-replica-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// The leader's base graph: a small citation core padded with filler
/// nodes so the test's mutation batches stay below the compaction
/// threshold and the WAL keeps every record.
fn leader_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let gray = b.add_node("author", "Jim Gray");
    let locks = b.add_node("paper", "Granularity of locks");
    let w0 = b.add_node("writes", "w0");
    b.add_edge(w0, gray).unwrap();
    b.add_edge(w0, locks).unwrap();
    let codd = b.add_node("author", "Edgar Codd");
    let model = b.add_node("paper", "A relational model of data");
    let w1 = b.add_node("writes", "w1");
    b.add_edge(w1, codd).unwrap();
    b.add_edge(w1, model).unwrap();
    for i in 0..40 {
        b.add_node("filler", format!("filler {i}"));
    }
    b.build_default()
}

/// What a follower boots with before its first bootstrap: deliberately
/// unrelated data.
fn boot_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("boot", "placeholder");
    b.build_default()
}

/// Per-engine answer fingerprints: `(engine, [(root, score bits)])` —
/// byte-level equality of the ranked answer stream.
fn answers(service: &Service, query: &str) -> Vec<(String, Vec<(u32, u64)>)> {
    let mut all = Vec::new();
    for engine in service.engine_names() {
        let spec = QuerySpec::parse(query).engine(engine).top_k(5);
        let handle = service.submit(spec).unwrap();
        let mut rows = Vec::new();
        while let Some(event) = handle.recv() {
            if let QueryEvent::Answer(a) = event {
                rows.push((a.tree.root.0, a.tree.score.to_bits()));
            }
        }
        all.push((engine.to_string(), rows));
    }
    all
}

fn wait_for(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

#[test]
fn follower_bootstraps_tails_and_serves_identical_answers() {
    let leader_dir = tmp_dir("leader");
    let follower_dir = tmp_dir("follower");
    let leader = Arc::new(
        Service::builder(leader_graph())
            .workers(2)
            .persistence(&leader_dir, FsyncPolicy::Always)
            .build(),
    );
    leader.set_replication_role(ReplicationRole::Leader);
    leader.checkpoint().unwrap();
    let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();
    let url = format!("http://{}", server.local_addr());

    let follower = Arc::new(
        Service::builder(boot_graph())
            .workers(2)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build(),
    );
    let client = Follower::start(Arc::clone(&follower), &url).unwrap();

    // The fresh follower converges on the leader's boot state first.
    assert!(
        wait_for(Duration::from_secs(10), || follower.epoch()
            == leader.epoch()),
        "bootstrap never converged: follower {} leader {}",
        follower.epoch(),
        leader.epoch()
    );
    assert_eq!(
        answers(&follower, "gray locks"),
        answers(&leader, "gray locks")
    );

    // Leader mutations stream across and answers stay byte-identical.
    let batches = [
        MutationBatch::new()
            .add_node("paper", "Keyword searching in graph databases")
            .add_node("writes", "w2")
            .add_edge(NodeId(48), NodeId(0))
            .add_edge(NodeId(48), NodeId(47)),
        MutationBatch::new()
            .set_label(NodeId(4), "A relational model of data, revised")
            .set_weight(NodeId(2), NodeId(0), 2.0),
        MutationBatch::new().remove_node(NodeId(1)),
    ];
    for batch in &batches {
        let report = leader.apply_mutations(batch);
        assert!(report.swapped, "leader mutation must apply: {report:?}");
    }
    assert!(
        wait_for(Duration::from_secs(10), || follower.epoch()
            == leader.epoch()),
        "tailing never converged: follower {} leader {}",
        follower.epoch(),
        leader.epoch()
    );
    for query in ["gray locks", "codd relational", "keyword graph"] {
        assert_eq!(
            answers(&follower, query),
            answers(&leader, query),
            "{query}"
        );
    }

    // The follower reports its role and, once caught up, zero record lag.
    let status = follower.replication_status();
    assert_eq!(status.role, ReplicationRole::Follower);
    assert_eq!(status.applied_epoch, leader.epoch());
    assert!(
        wait_for(Duration::from_secs(5), || {
            follower.replication_status().lag_records == 0
        }),
        "lag_records never drained"
    );
    assert!(
        wait_for(Duration::from_secs(5), || follower
            .events()
            .since(0, 10_000)
            .iter()
            .any(|e| e.kind == "replication-catchup")),
        "a follower that caught up never logged replication-catchup"
    );

    // The lifecycle left a paper trail in the structured event log.
    let events = follower.events().since(0, 10_000);
    let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"replication-connect"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"replication-bootstrap"), "kinds: {kinds:?}");

    // Replicated state is durable: kill the follower (client and service)
    // and rebuild from its data directory alone.
    let final_epoch = leader.epoch();
    let leader_answers = answers(&leader, "codd relational");
    client.stop();
    drop(follower);
    let revived = Service::builder(boot_graph())
        .workers(2)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    assert_eq!(
        revived.epoch(),
        final_epoch,
        "recovery must land on the replicated epoch"
    );
    assert_eq!(answers(&revived, "codd relational"), leader_answers);

    server.shutdown();
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

#[test]
fn a_follower_minted_after_the_leader_is_re_seeded_on_connect() {
    let leader_dir = tmp_dir("leader-seed");
    let follower_dir = tmp_dir("follower-seed");
    let leader = Arc::new(
        Service::builder(leader_graph())
            .workers(1)
            .persistence(&leader_dir, FsyncPolicy::Always)
            .build(),
    );
    leader.checkpoint().unwrap();
    let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();
    let url = format!("http://{}", server.local_addr());

    // Booted later, on unrelated data: its locally minted epoch is above
    // the leader's, so no record and no truncation horizon will ever tell
    // it that it holds alien data — only the leader's `head` does, and the
    // stream opens with one rather than sending it a second into idling.
    let follower = Arc::new(
        Service::builder(boot_graph())
            .workers(1)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build(),
    );
    assert!(follower.epoch() > leader.epoch());
    let started = Instant::now();
    let client = Follower::start(Arc::clone(&follower), &url).unwrap();
    while follower.epoch() != leader.epoch() {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "never re-seeded: follower {} leader {}",
            follower.epoch(),
            leader.epoch()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "re-seeded after {took:?}"
    );
    assert_eq!(
        answers(&follower, "gray locks"),
        answers(&leader, "gray locks")
    );

    client.stop();
    server.shutdown();
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

#[test]
fn a_follower_behind_the_truncation_horizon_rebootstraps() {
    let leader_dir = tmp_dir("leader-trunc");
    let follower_dir = tmp_dir("follower-trunc");
    let leader = Arc::new(
        Service::builder(leader_graph())
            .workers(2)
            .persistence(&leader_dir, FsyncPolicy::Always)
            .build(),
    );
    leader.checkpoint().unwrap();
    let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();
    let url = format!("http://{}", server.local_addr());

    let follower = Arc::new(
        Service::builder(boot_graph())
            .workers(2)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build(),
    );
    let client = Follower::start(Arc::clone(&follower), &url).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || follower.epoch()
            == leader.epoch()),
        "initial bootstrap never converged"
    );

    // Detach the follower, then move the leader far past it and truncate
    // the WAL: the records bridging the gap are gone for good.
    client.stop();
    let report =
        leader.apply_mutations(&MutationBatch::new().add_node("paper", "While you were away"));
    assert!(report.swapped);
    leader.checkpoint().unwrap();
    let report =
        leader.apply_mutations(&MutationBatch::new().set_label(NodeId(1), "Locks, annotated"));
    assert!(report.swapped);
    assert!(follower.epoch() < leader.durability().last_checkpoint_epoch);

    // A reattached follower cannot replay its way there — it must (and
    // does) re-bootstrap, then tails the post-checkpoint records.
    let client = Follower::start(Arc::clone(&follower), &url).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || follower.epoch()
            == leader.epoch()),
        "re-bootstrap never converged: follower {} leader {}",
        follower.epoch(),
        leader.epoch()
    );
    for query in ["gray locks", "away"] {
        assert_eq!(
            answers(&follower, query),
            answers(&leader, query),
            "{query}"
        );
    }
    let events = follower.events().since(0, 10_000);
    let bootstraps = events
        .iter()
        .filter(|e| e.kind == "replication-bootstrap")
        .count();
    assert!(
        bootstraps >= 2,
        "expected a second bootstrap, saw {bootstraps}"
    );

    client.stop();
    server.shutdown();
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

#[test]
fn an_unreachable_leader_retries_without_panicking() {
    // Nothing listens here: start must succeed (reachability is a runtime
    // condition), the thread must spin quietly, and stop must join.
    let follower = Arc::new(Service::builder(boot_graph()).workers(1).build());
    let client = Follower::start(Arc::clone(&follower), "http://127.0.0.1:1").unwrap();
    assert_eq!(client.leader(), "http://127.0.0.1:1");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        follower.replication_status().role,
        ReplicationRole::Follower
    );
    client.stop();

    // A malformed URL is the one start-time error.
    let Err(err) = Follower::start(follower, "https://nope.example") else {
        panic!("https URL must be rejected at start");
    };
    assert!(err.contains("https"), "err: {err}");
}

#[test]
fn a_payload_that_is_not_hex_disconnects_and_reconnects() {
    // A stub leader for two sessions, each streaming one `record` event
    // with a multi-byte character straddling the first hex digit pair.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let url = format!("http://{}", listener.local_addr().unwrap());
    let leader = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let mut stream = stream.unwrap();
            let mut request = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while request.read_line(&mut line).unwrap_or(0) > 2 {
                line.clear();
            }
            let _ = stream.write_all(
                "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n\
                 event: record\nid: 1\ndata: {\"payload\":\"a\u{e9}b\"}\n\n"
                    .as_bytes(),
            );
        }
    });

    let follower = Arc::new(Service::builder(boot_graph()).workers(1).build());
    let client = Follower::start(Arc::clone(&follower), &url).unwrap();
    let lifecycle = || {
        follower
            .events()
            .since(0, 10_000)
            .into_iter()
            .filter(|e| e.kind.starts_with("replication-"))
            .collect::<Vec<_>>()
    };
    assert!(
        wait_for(Duration::from_secs(10), || lifecycle().len() >= 3),
        "the follower stopped after {:?}",
        lifecycle().iter().map(|e| e.kind).collect::<Vec<_>>()
    );
    let events = lifecycle();
    let kinds: Vec<&str> = events.iter().take(3).map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [
            "replication-connect",
            "replication-disconnect",
            "replication-connect"
        ]
    );
    assert!(
        events[1].message.contains("not hex"),
        "{}",
        events[1].message
    );
    client.stop();
    leader.join().unwrap();
}
