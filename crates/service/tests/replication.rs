//! Follower-side replication through the service API: WAL record apply
//! (`Service::apply_replicated`), snapshot bootstrap
//! (`Service::install_replicated_snapshot_bytes`), idempotent stream resume,
//! epoch-gap detection, local durability of replicated state, and the
//! runtime SLO configuration surface.

use std::path::PathBuf;

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_service::{
    parse_slo_specs, FsyncPolicy, QuerySpec, ReplicationApplyError, ReplicationRole, Service,
    SloSpec, WalPosition, WalRecord,
};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "banks-svc-replica-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A DBLP-style core plus enough filler nodes that the small batches
/// below never push the copy-on-write overlay over the service's 0.25
/// compaction threshold — compaction would checkpoint and truncate the
/// leader WAL mid-test, making the streamed record set nondeterministic.
fn dblp_like() -> DataGraph {
    dblp_with_filler(40)
}

fn dblp_with_filler(filler: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    let soumen = b.add_node("author", "Soumen Chakrabarti");
    let shashank = b.add_node("author", "Shashank Pandit");
    let banks = b.add_node("paper", "Keyword searching in databases using BANKS");
    let bidir = b.add_node("paper", "Bidirectional expansion for keyword search");
    let w0 = b.add_node("writes", "w0");
    let w1 = b.add_node("writes", "w1");
    let w2 = b.add_node("writes", "w2");
    b.add_edge(w0, soumen).unwrap();
    b.add_edge(w0, banks).unwrap();
    b.add_edge(w1, shashank).unwrap();
    b.add_edge(w1, bidir).unwrap();
    b.add_edge(w2, soumen).unwrap();
    b.add_edge(w2, bidir).unwrap();
    for i in 0..filler {
        b.add_node("filler", format!("filler {i}"));
    }
    b.build_default()
}

fn decoy() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("author", "Decoy Author");
    b.build_default()
}

/// Roots + scores of the top answers, engine by engine — the fingerprint
/// a follower must reproduce exactly at a shared epoch.
fn answers(service: &Service, query: &str) -> Vec<(String, Vec<(u32, u64)>)> {
    let mut per_engine = Vec::new();
    for engine in service.engine_names() {
        let spec = QuerySpec::parse(query).engine(engine).top_k(5);
        let (outcome, _) = service.submit(spec).unwrap().wait();
        per_engine.push((
            engine.to_string(),
            outcome
                .answers
                .iter()
                .map(|a| (a.tree.root.0, a.tree.score.to_bits()))
                .collect(),
        ));
    }
    per_engine
}

/// Bootstraps a follower from the leader's newest on-disk snapshot, the
/// way the replication client does: the file's bytes, installed as they
/// are.
fn bootstrap_follower(leader: &Service, follower: &Service) -> u64 {
    let (epoch, path) = leader
        .newest_snapshot_file()
        .unwrap()
        .expect("leader has a snapshot");
    let installed = follower
        .install_replicated_snapshot_bytes(&std::fs::read(&path).unwrap())
        .unwrap();
    assert_eq!(installed, epoch);
    installed
}

/// Every record in the leader's WAL: a stream's first read, from a fresh
/// position and cursor 0.
fn leader_records(leader: &Service) -> Vec<WalRecord> {
    leader
        .replication_records_after(0, &mut WalPosition::default())
        .unwrap()
        .records
}

fn leader_batches() -> Vec<MutationBatch> {
    // The base graph has 47 nodes (7 core + 40 filler), so the two nodes
    // the first batch adds get ids 47 and 48.
    vec![
        MutationBatch::new()
            .add_node("paper", "Efficient IR-style keyword search")
            .add_node("writes", "w3")
            .add_edge(NodeId(48), NodeId(0))
            .add_edge(NodeId(48), NodeId(47)),
        MutationBatch::new()
            .set_label(NodeId(3), "Bidirectional search on graph databases")
            .set_weight(NodeId(4), NodeId(0), 2.5),
        MutationBatch::new().remove_node(NodeId(1)),
    ]
}

#[test]
fn follower_replays_the_leader_wal_to_the_same_epoch_and_answers() {
    let leader_dir = tmp_dir("leader");
    let leader = Service::builder(dblp_like())
        .workers(2)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy()).workers(2).build();
    follower.set_replication_role(ReplicationRole::Follower);

    bootstrap_follower(&leader, &follower);
    for batch in leader_batches() {
        assert!(leader.apply_mutations(&batch).swapped);
    }

    let records = leader_records(&leader);
    assert_eq!(records.len(), 3, "one WAL record per applied batch");
    for record in &records {
        let applied = follower.apply_replicated(record).unwrap();
        assert!(applied.applied);
        assert_eq!(applied.epoch, record.epoch);
    }
    assert_eq!(follower.epoch(), leader.epoch(), "shared serving epoch");
    assert_eq!(
        answers(&follower, "soumen search"),
        answers(&leader, "soumen search"),
        "every engine answers identically at the shared epoch"
    );

    let status = follower.replication_status();
    assert_eq!(status.role, ReplicationRole::Follower);
    assert_eq!(status.applied_epoch, leader.epoch());
    assert_eq!(status.lag_records, 0);
    assert_eq!(status.lag_ms, 0);
    assert_eq!(follower.metrics().replication, status);
}

#[test]
fn resumed_streams_are_idempotent() {
    let leader_dir = tmp_dir("resume");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy()).workers(1).build();
    bootstrap_follower(&leader, &follower);
    for batch in leader_batches() {
        leader.apply_mutations(&batch);
    }
    let records = leader_records(&leader);
    for record in &records {
        follower.apply_replicated(record).unwrap();
    }
    let epoch = follower.epoch();
    // A reconnect replays the whole tail: every record is skipped.
    for record in &records {
        let applied = follower.apply_replicated(record).unwrap();
        assert!(!applied.applied, "already-applied records are skipped");
        assert_eq!(applied.epoch, epoch);
    }
    assert_eq!(follower.epoch(), epoch);
}

#[test]
fn a_record_past_the_serving_epoch_is_an_epoch_gap() {
    let leader_dir = tmp_dir("gap");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy()).workers(1).build();
    bootstrap_follower(&leader, &follower);
    for batch in leader_batches() {
        leader.apply_mutations(&batch);
    }
    let records = leader_records(&leader);
    // Skip the first record: the second builds on an epoch the follower
    // never saw, which must not be silently applied.
    let err = follower.apply_replicated(&records[1]).unwrap_err();
    match err {
        ReplicationApplyError::EpochGap {
            serving_epoch,
            parent_epoch,
            record_epoch,
        } => {
            assert_eq!(serving_epoch, follower.epoch());
            assert_eq!(parent_epoch, records[1].parent_epoch);
            assert_eq!(record_epoch, records[1].epoch);
        }
        other => panic!("expected EpochGap, got {other:?}"),
    }
    // The gap is recoverable: re-bootstrap from the leader's newest
    // snapshot, then the stream tail applies cleanly.
    leader.checkpoint().unwrap();
    bootstrap_follower(&leader, &follower);
    assert_eq!(follower.epoch(), leader.epoch());
    assert!(leader
        .replication_records_after(follower.epoch(), &mut WalPosition::default())
        .unwrap()
        .records
        .is_empty());
}

#[test]
fn replicated_state_is_durable_in_the_follower_wal() {
    let leader_dir = tmp_dir("durable-leader");
    let follower_dir = tmp_dir("durable-follower");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let expected = {
        let follower = Service::builder(decoy())
            .workers(1)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build();
        bootstrap_follower(&leader, &follower);
        for batch in leader_batches() {
            leader.apply_mutations(&batch);
        }
        for record in &leader_records(&leader) {
            follower.apply_replicated(record).unwrap();
        }
        assert_eq!(follower.epoch(), leader.epoch());
        answers(&follower, "soumen search")
        // follower dropped here — the restart below must replay its own
        // WAL back to the same state
    };
    let reborn = Service::builder(decoy())
        .workers(1)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    assert_eq!(
        reborn.epoch(),
        leader.epoch(),
        "recovery reaches the leader epoch"
    );
    assert_eq!(answers(&reborn, "soumen search"), expected);
}

/// The replication stream's protocol — note the generation, look for
/// records, wait while the generation is the one noted — with each event
/// it must react to placed where a timer-less reader could lose it.
#[test]
fn a_stream_reader_is_woken_by_publishes_and_checkpoints_and_reads_only_the_suffix() {
    use std::time::{Duration, Instant};
    const LONG: Duration = Duration::from_secs(30);
    let leader_dir = tmp_dir("wake");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let mut batches = leader_batches().into_iter();
    let mut position = WalPosition::default();
    let mut cursor = leader.epoch();
    let mut read = |cursor: u64| {
        leader
            .replication_records_after(cursor, &mut position)
            .unwrap()
    };

    // A publish that lands after the look and before the wait.
    let seen = leader.publish_generation();
    assert!(read(cursor).records.is_empty());
    assert!(leader.apply_mutations(&batches.next().unwrap()).swapped);
    let started = Instant::now();
    let woken = leader.wait_for_publish(seen, LONG);
    assert_ne!(woken, seen);
    assert!(
        started.elapsed() < LONG / 2,
        "the generation ended the wait"
    );
    let reads = leader.durability().wal_reads;
    let tail = read(cursor);
    assert_eq!(tail.records.len(), 1);
    assert_eq!(tail.records[0].epoch, leader.epoch());
    assert_eq!(leader.durability().wal_reads, reads + 1);
    cursor = leader.epoch();

    // Nothing published: the wait runs out, and looking costs no file read.
    assert_eq!(
        leader.wait_for_publish(woken, Duration::from_millis(20)),
        woken
    );
    assert!(read(cursor).records.is_empty());
    assert_eq!(leader.durability().wal_reads, reads + 1);

    // A publish while the reader is (about to be) blocked, from elsewhere.
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| leader.wait_for_publish(woken, LONG));
        assert!(leader.apply_mutations(&batches.next().unwrap()).swapped);
        assert_ne!(waiter.join().unwrap(), woken);
    });
    let tail = read(cursor);
    assert_eq!(tail.records.len(), 1, "only the record appended since");
    assert_eq!(tail.records[0].parent_epoch, cursor);
    cursor = leader.epoch();

    // A checkpoint publishes no epoch but moves the horizon and truncates
    // the file: readers are woken, and the position starts over by itself.
    let seen = leader.publish_generation();
    leader.checkpoint().unwrap();
    assert_ne!(leader.wait_for_publish(seen, LONG), seen);
    let tail = read(cursor);
    assert_eq!(tail.checkpoint_epoch, cursor);
    assert!(tail.records.is_empty());
    assert!(leader.apply_mutations(&batches.next().unwrap()).swapped);
    let tail = read(cursor);
    assert_eq!(tail.records.len(), 1);
    assert_eq!(tail.records[0].seq, 1, "first record of the truncated log");

    // And a front-end can end the wait without publishing anything.
    let seen = leader.publish_generation();
    leader.wake_publish_waiters();
    assert_ne!(leader.wait_for_publish(seen, LONG), seen);

    drop(leader);
    std::fs::remove_dir_all(&leader_dir).unwrap();
}

#[test]
fn bootstrap_installs_checkpoint_and_preserves_the_leader_epoch() {
    let leader_dir = tmp_dir("boot-leader");
    let follower_dir = tmp_dir("boot-follower");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    for batch in leader_batches() {
        leader.apply_mutations(&batch);
    }
    leader.checkpoint().unwrap();

    let follower = Service::builder(decoy())
        .workers(1)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    let installed = bootstrap_follower(&leader, &follower);
    assert_eq!(installed, leader.epoch());
    assert_eq!(follower.epoch(), leader.epoch());
    let durability = follower.durability();
    assert_eq!(
        durability.last_checkpoint_epoch, installed,
        "bootstrap checkpoints locally at the installed epoch"
    );
    assert_eq!(durability.wal_records, 0, "stale local WAL is truncated");
    // The leader's file is the follower's checkpoint, byte for byte.
    let (_, leader_file) = leader.newest_snapshot_file().unwrap().unwrap();
    let (_, follower_file) = follower.newest_snapshot_file().unwrap().unwrap();
    assert_eq!(
        std::fs::read(&follower_file).unwrap(),
        std::fs::read(&leader_file).unwrap()
    );
}

/// Installing the epoch already served, with the newest local snapshot
/// already at it, is a no-op apart from the progress note: no file is
/// rewritten, no checkpoint counted, no event.
#[test]
fn installing_the_served_epoch_again_writes_nothing() {
    use std::os::unix::fs::MetadataExt;

    let leader_dir = tmp_dir("again-leader");
    let follower_dir = tmp_dir("again-follower");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    leader.apply_mutations(&leader_batches()[0]);
    leader.checkpoint().unwrap();
    let follower = Service::builder(decoy())
        .workers(1)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    let installed = bootstrap_follower(&leader, &follower);

    let (_, path) = follower.newest_snapshot_file().unwrap().unwrap();
    let file = std::fs::metadata(&path).unwrap();
    let checkpoints = follower.durability().checkpoints;
    let events = follower.events().since(0, 10_000).len();
    assert_eq!(bootstrap_follower(&leader, &follower), installed);
    let again = std::fs::metadata(&path).unwrap();
    assert_eq!(again.ino(), file.ino(), "the file was not rewritten");
    assert_eq!(again.modified().unwrap(), file.modified().unwrap());
    assert_eq!(follower.durability().checkpoints, checkpoints);
    assert_eq!(follower.events().since(0, 10_000).len(), events);
    assert_eq!(follower.replication_status().applied_epoch, installed);
}

/// A follower that recovered past a damaged newest snapshot serves an
/// older epoch while that file still carries a newer epoch's name.  An
/// install at that epoch swaps the served version, so it must also replace
/// the file (and clear the older one): the next restart recovers the
/// installed epoch from a good file.
#[test]
fn an_install_that_swaps_rewrites_a_damaged_newest_snapshot() {
    let leader_dir = tmp_dir("damaged-leader");
    let follower_dir = tmp_dir("damaged-follower");
    let file = |dir: &PathBuf, epoch| dir.join(banks_persist::snapshot_file_name(epoch));
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let (older, _) = leader.newest_snapshot_file().unwrap().unwrap();
    leader.apply_mutations(&leader_batches()[0]);
    let newest = leader.checkpoint().unwrap();
    assert!(file(&leader_dir, older).exists(), "both files are retained");

    // The follower's directory: the leader's two files, the newer one with
    // a damaged header.
    std::fs::copy(file(&leader_dir, older), file(&follower_dir, older)).unwrap();
    let bytes = std::fs::read(file(&leader_dir, newest)).unwrap();
    let mut damaged = bytes.clone();
    damaged[20] ^= 0x01;
    std::fs::write(file(&follower_dir, newest), &damaged).unwrap();
    let boot = || {
        Service::builder(decoy())
            .workers(1)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build()
    };
    let follower = boot();
    assert_eq!(
        follower.epoch(),
        older,
        "recovery fell back past the damaged file"
    );

    assert_eq!(
        follower.install_replicated_snapshot_bytes(&bytes).unwrap(),
        newest
    );
    assert_eq!(std::fs::read(file(&follower_dir, newest)).unwrap(), bytes);
    assert!(
        !file(&follower_dir, older).exists(),
        "pre-bootstrap files cleared"
    );
    drop(follower);
    let follower = boot();
    assert_eq!(follower.epoch(), newest);
    assert_eq!(answers(&follower, "soumen"), answers(&leader, "soumen"));
    drop((leader, follower));
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

/// A leader file whose CRCs pass but whose index names a node, or a kind,
/// the graph does not have is not served as it is: the follower derives
/// the label index instead and answers like a service built on the graph.
#[test]
fn an_install_rederives_an_index_that_names_what_the_graph_lacks() {
    use banks_persist::{encode_snapshot_with, Derivation, IndexDerivation, PrestigeDerivation};

    let graph = dblp_like();
    let reference = Service::builder(graph.clone()).workers(1).build();
    let naming = |node: u32, kind: u16| {
        let mut index = banks_textindex::IndexBuilder::with_default_tokenizer();
        for n in graph.nodes() {
            index.add_text(n, graph.node_label(n));
        }
        index.add_text(NodeId(node), "phantom");
        index.add_relation_name("ghost", banks_graph::KindId(kind));
        encode_snapshot_with(
            &graph,
            Some(&banks_prestige::PrestigeVector::uniform_for(&graph)),
            Some(&index.build()),
            Some(Derivation {
                index: IndexDerivation::External,
                prestige: PrestigeDerivation::Uniform,
            }),
        )
    };
    let (nodes, kinds) = (graph.num_nodes() as u32, graph.num_kinds() as u16);
    for (tag, bytes) in [("node", naming(nodes, 0)), ("kind", naming(0, kinds))] {
        let dir = tmp_dir(&format!("lacks-{tag}"));
        let follower = Service::builder(decoy())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        assert_eq!(
            follower.install_replicated_snapshot_bytes(&bytes).unwrap(),
            graph.epoch(),
            "{tag}"
        );
        for query in ["phantom soumen", "ghost", "soumen bidirectional"] {
            assert_eq!(
                answers(&follower, query),
                answers(&reference, query),
                "{tag}: {query}"
            );
        }
        drop(follower);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A leader built with its own index (one the labels cannot rebuild) and
/// pinned prestige: the follower serves both, with the leader's modes, so
/// the two answer alike at the bootstrap epoch and after every mutation.
#[test]
fn a_follower_serves_a_supplied_index_and_pinned_prestige_as_the_leader_does() {
    let base = dblp_with_filler(440);
    let mut index = banks_textindex::IndexBuilder::with_default_tokenizer();
    for node in base.nodes() {
        index.add_text(node, base.node_label(node));
    }
    // Abstract text only the supplied index knows.
    index.add_text(NodeId(2), "proximity search over relational data");
    index.add_text(NodeId(3), "frontier proximity heuristics");
    for kind in 0..base.num_kinds() {
        let kind = banks_graph::KindId(kind as u16);
        index.add_relation_name(base.kind_name(kind), kind);
    }
    let prestige = banks_prestige::PrestigeVector::from_values(
        (0..base.num_nodes())
            .map(|i| 0.25 + (i % 7) as f64)
            .collect(),
    );
    let leader_dir = tmp_dir("supplied-leader");
    let follower_dir = tmp_dir("supplied-follower");
    let leader = Service::builder(base)
        .workers(1)
        .index(index.build())
        .prestige(prestige)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy())
        .workers(1)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    bootstrap_follower(&leader, &follower);
    let queries = [
        "proximity soumen",
        "frontier keyword",
        "soumen search",
        "paper",
    ];
    let compare = |step: &str| {
        assert_eq!(follower.epoch(), leader.epoch(), "{step}");
        for query in queries {
            assert_eq!(
                answers(&follower, query),
                answers(&leader, query),
                "{step}: {query}"
            );
        }
    };
    compare("bootstrap");
    assert!(!answers(&leader, "proximity soumen")[0].1.is_empty());

    let batches = [
        MutationBatch::new()
            .add_node("paper", "Proximity ranking in graphs")
            .add_edge(NodeId(447), NodeId(0)),
        MutationBatch::new().set_label(NodeId(3), "Bidirectional keyword search"),
        MutationBatch::new()
            .add_node("writes", "w9")
            .add_edge(NodeId(448), NodeId(1))
            .add_edge(NodeId(448), NodeId(447)),
        MutationBatch::new().set_weight(NodeId(4), NodeId(0), 3.5),
        MutationBatch::new().add_node("author", "Frontier Search Author"),
        MutationBatch::new().remove_node(NodeId(1)),
    ];
    for (step, batch) in batches.iter().enumerate() {
        assert!(leader.apply_mutations(batch).swapped, "batch {step}");
        let tail = leader
            .replication_records_after(follower.epoch(), &mut WalPosition::default())
            .unwrap();
        for record in &tail.records {
            follower.apply_replicated(record).unwrap();
        }
        compare(&format!("after batch {step}"));
    }
    drop((leader, follower));
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

#[test]
fn head_announcements_feed_lag_and_metrics() {
    let service = Service::builder(dblp_like()).workers(1).build();
    service.set_replication_role(ReplicationRole::Follower);
    // Behind: the leader announces three records past anything applied.
    let head = service.epoch() + 3;
    service.note_replication_head(head, 3);
    std::thread::sleep(std::time::Duration::from_millis(20));
    let status = service.replication_status();
    assert_eq!(status.role, ReplicationRole::Follower);
    assert_eq!(status.leader_epoch, head);
    assert_eq!(status.lag_records, 3);
    assert!(status.lag_ms >= 10, "lag clock runs while behind");
    // The same status rides on the metrics snapshot (the lag clock keeps
    // ticking between the two reads, so compare the stable fields).
    let metrics = service.metrics().replication;
    assert_eq!(metrics.role, ReplicationRole::Follower);
    assert_eq!(metrics.leader_epoch, head);
    assert_eq!(metrics.lag_records, 3);
    assert!(metrics.lag_ms >= status.lag_ms);
}

#[test]
fn slo_specs_parse_from_json_and_swap_at_runtime() -> Result<(), String> {
    let specs = parse_slo_specs(
        r#"{"slos":[
            {"name":"replication_lag","metric":"replication_lag_ms","threshold":5000},
            {"name":"ttfa_p99","metric":"ttfa_p99_us","threshold":100000,
             "budget":0.05,"fast_window_ms":60000,"slow_window_ms":600000,
             "fire_burn":5,"resolve_burn":0.5}
        ]}"#,
    )
    .unwrap();
    assert_eq!(specs.len(), 2);
    assert_eq!(
        specs[0],
        SloSpec::upper_bound("replication_lag", "replication_lag_ms", 5000.0)
    );
    assert_eq!(specs[1].budget, 0.05);
    assert_eq!(specs[1].fast_window_ms, 60_000);
    assert_eq!(specs[1].fire_burn, 5.0);

    // A bare array works too; malformed documents fail loudly.
    assert_eq!(
        parse_slo_specs(r#"[{"name":"a","metric":"queued","threshold":1}]"#)
            .unwrap()
            .len(),
        1
    );
    for bad in [
        r#"{"slos":{}}"#,
        r#"[{"metric":"queued","threshold":1}]"#,
        r#"[{"name":"a","metric":"queued"}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1,"typo_key":2}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1,"budget":0}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1,
            "fast_window_ms":600000,"slow_window_ms":60000}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1},
            {"name":"a","metric":"queued","threshold":2}]"#,
        r#"[{"name":"a","metric":"shard_imbalance","threshold":2}]"#,
        r#"[{"name":"a","metric":"ttfa_p9_us","threshold":1}]"#,
    ] {
        assert!(parse_slo_specs(bad).is_err(), "should reject {bad}");
    }

    // Boot from a parsed config, then swap and upsert at runtime.
    let text = r#"[{"name":"queued","metric":"queued","threshold":10}]"#;
    let service = Service::builder(dblp_like())
        .workers(1)
        .slos(parse_slo_specs(text)?)
        .build();
    assert_eq!(
        service.slo_specs(),
        vec![SloSpec::upper_bound("queued", "queued", 10.0)]
    );
    service.upsert_slo(SloSpec::replication_lag());
    assert_eq!(service.slo_specs().len(), 2);
    service.replace_slos(SloSpec::defaults());
    assert_eq!(service.slo_specs(), SloSpec::defaults());

    // An objective on a series nobody records would read `ok` forever.
    let Err(typo) = parse_slo_specs(r#"[{"name":"ttfa","metric":"ttfa_p9_us","threshold":1}]"#)
    else {
        panic!("an unknown metric must fail to parse");
    };
    assert!(typo.contains("unknown metric \"ttfa_p9_us\""), "{typo}");
    assert!(typo.contains("ttfa_p99_us, queue_wait_p50_us"), "{typo}");
    Ok(())
}
