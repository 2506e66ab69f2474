//! Service-level durability: WAL-first mutation acknowledgement, crash
//! recovery through `ServiceBuilder::persistence`, checkpointing, and the
//! durability surface in metrics.

use std::path::PathBuf;

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_service::{FsyncPolicy, PersistError, QuerySpec, Service};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "banks-svc-durable-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dblp_like() -> DataGraph {
    let mut b = GraphBuilder::new();
    let soumen = b.add_node("author", "Soumen Chakrabarti");
    let shashank = b.add_node("author", "Shashank Pandit");
    let banks = b.add_node(
        "paper",
        "Keyword searching and browsing in databases using BANKS",
    );
    let bidir = b.add_node(
        "paper",
        "Bidirectional expansion for keyword search on graph databases",
    );
    let w0 = b.add_node("writes", "w0");
    let w1 = b.add_node("writes", "w1");
    let w2 = b.add_node("writes", "w2");
    b.add_edge(w0, soumen).unwrap();
    b.add_edge(w0, banks).unwrap();
    b.add_edge(w1, shashank).unwrap();
    b.add_edge(w1, bidir).unwrap();
    b.add_edge(w2, soumen).unwrap();
    b.add_edge(w2, bidir).unwrap();
    b.build_default()
}

fn decoy() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("author", "Decoy Author");
    b.build_default()
}

/// Roots + scores of the top answers, engine by engine — the equivalence
/// fingerprint that must survive a crash.
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

/// The messages of the service's `recovery` events.
fn recovery_events(service: &Service) -> Vec<String> {
    service
        .events()
        .since(0, 10_000)
        .iter()
        .filter(|e| e.kind == "recovery")
        .map(|e| e.message.clone())
        .collect()
}

#[test]
fn mutations_survive_a_crash_and_answers_match_on_all_engines() {
    let dir = tmp_dir("equiv");
    let pre_epoch;
    let pre_answers;
    let pre_wal_records;
    {
        let service = Service::builder(dblp_like())
            .workers(2)
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        let report = service.apply_mutations(
            &MutationBatch::new()
                .add_node("author", "Rushi Desai")
                .add_node("writes", "w3")
                .add_edge(NodeId(8), NodeId(7))
                .add_edge(NodeId(8), NodeId(3)),
        );
        assert!(report.swapped);
        assert!(report.persist_error.is_none());
        let report = service
            .apply_mutations(&MutationBatch::new().set_label(NodeId(0), "Soumen Chakrabarti IITB"));
        assert!(report.swapped);
        pre_epoch = service.epoch();
        pre_answers = answers(&service, "soumen keyword");
        // Simulated crash: the service is dropped with a non-empty WAL.
        // (The first batch compacted the tiny graph and hence checkpointed;
        // the second batch is the WAL suffix recovery must replay.)
        pre_wal_records = service.durability().wal_records;
        assert!(pre_wal_records >= 1);
        assert!(
            recovery_events(&service).is_empty(),
            "a fresh data directory recovers nothing"
        );
    }

    // Reboot with a decoy builder graph: recovery must ignore it.
    let service = Service::builder(decoy())
        .workers(2)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    assert_eq!(service.epoch(), pre_epoch, "recovered the pre-crash epoch");
    let status = service.durability();
    assert!(status.enabled);
    assert_eq!(
        status.replayed_records, pre_wal_records,
        "exactly the WAL suffix replayed"
    );
    let recovery = recovery_events(&service);
    assert_eq!(recovery.len(), 1, "one recovery per boot: {recovery:?}");
    assert!(
        recovery[0].ends_with(&format!("replayed {pre_wal_records} WAL record(s)")),
        "{recovery:?}"
    );
    let post_answers = answers(&service, "soumen keyword");
    assert_eq!(
        post_answers, pre_answers,
        "every engine answers identically after recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_wal_and_restarts_replay_free() {
    let dir = tmp_dir("ckpt");
    {
        let service = Service::builder(dblp_like())
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        for i in 0..3 {
            service.apply_mutations(&MutationBatch::new().add_node("author", format!("E{i}")));
            assert_eq!(service.durability().wal_records, 1);
            let epoch = service.checkpoint().unwrap();
            assert_eq!(epoch, service.epoch());
            let status = service.durability();
            assert_eq!(status.wal_records, 0, "checkpoint truncates the WAL");
            assert_eq!(status.last_checkpoint_epoch, epoch);
        }
        let kept = banks_persist::list_snapshots(&dir).unwrap();
        assert_eq!(kept.len(), 2, "checkpoints prune all but the two newest");
        assert_eq!(kept[0].0, service.epoch());
    }
    let service = Service::builder(decoy())
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    assert_eq!(service.durability().replayed_records, 0, "clean shutdown");
    assert_eq!(service.snapshot().graph().num_nodes(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_without_persistence_is_disabled() {
    let service = Service::builder(dblp_like()).build();
    assert!(matches!(service.checkpoint(), Err(PersistError::Disabled)));
    let status = service.durability();
    assert!(!status.enabled);
    assert_eq!(status.wal_records, 0);
    let metrics = service.metrics();
    assert!(!metrics.persistence_enabled);
    assert_eq!(metrics.wal_bytes, 0);
}

#[test]
fn swap_graph_checkpoints_immediately() {
    let dir = tmp_dir("swap");
    let swapped_epoch;
    {
        let service = Service::builder(dblp_like())
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        swapped_epoch = service.swap_graph(decoy());
        let status = service.durability();
        assert_eq!(
            status.last_checkpoint_epoch, swapped_epoch,
            "wholesale swap is made durable by a checkpoint"
        );
    }
    let service = Service::builder(dblp_like())
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    assert_eq!(service.epoch(), swapped_epoch);
    assert_eq!(service.snapshot().graph().num_nodes(), 1, "decoy recovered");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_surface_durability() {
    let dir = tmp_dir("metrics");
    let service = Service::builder(dblp_like())
        .persistence(&dir, FsyncPolicy::EveryN(8))
        .build();
    for i in 0..5 {
        service.apply_mutations(&MutationBatch::new().add_node("author", format!("M{i}")));
    }
    let metrics = service.metrics();
    assert!(metrics.persistence_enabled);
    assert_eq!(metrics.wal_records, 5);
    assert!(metrics.wal_bytes > 0);
    assert!(metrics.checkpoints >= 1, "boot checkpoint counted");
    assert_eq!(metrics.mutation_batches, 5);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every node's label, in id order: what a reopen must serve again.
fn labels(service: &Service) -> Vec<String> {
    let snapshot = service.snapshot();
    let graph = snapshot.graph();
    graph
        .nodes()
        .map(|n| graph.node_label(n).to_string())
        .collect()
}

/// `POST /admin/swap` racing `POST /admin/mutate` on a durable service:
/// swaps publish and checkpoint under the writers' lock, so a checkpoint
/// never truncates a record whose version is not yet served, and no record
/// lands in a WAL whose newest snapshot it does not chain from.  Whatever
/// interleaving the two threads hit, a reopen serves the last served
/// epoch and data.  (Before swaps took that lock, about a third of these
/// rounds failed to reopen with a WAL record chaining from an epoch the
/// newest snapshot did not hold.)
#[test]
fn swaps_racing_mutations_reopen_at_the_last_served_epoch() {
    for round in 0..32 {
        let dir = tmp_dir("race");
        let (epoch, served) = {
            let service = Service::builder(dblp_like())
                .workers(1)
                .persistence(&dir, FsyncPolicy::Never)
                .build();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..40 {
                        let batch = MutationBatch::new().set_label(NodeId(0), format!("S{i}"));
                        assert!(service.apply_mutations(&batch).swapped);
                    }
                });
                scope.spawn(|| {
                    for _ in 0..10 {
                        service.swap_graph(service.snapshot().graph().clone());
                    }
                });
            });
            (service.epoch(), labels(&service))
        };
        let service = Service::builder(decoy())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Never)
            .try_build()
            .unwrap_or_else(|e| panic!("round {round}: reopen failed: {e}"));
        assert_eq!(service.epoch(), epoch, "round {round}");
        assert_eq!(labels(&service), served, "round {round}");
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn rejected_batches_touch_neither_wal_nor_epoch() {
    let dir = tmp_dir("reject");
    let service = Service::builder(dblp_like())
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let before = service.epoch();
    // Every op invalid: edge endpoints that do not exist.
    let report = service.apply_mutations(&MutationBatch::new().add_edge(NodeId(900), NodeId(901)));
    assert!(!report.swapped);
    assert_eq!(service.epoch(), before);
    assert_eq!(service.durability().wal_records, 0, "nothing logged");
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An idle checkpoint — the newest file already at the serving epoch, the
/// WAL empty — writes nothing, logs nothing and wakes no stream; a WAL
/// record, or a missing file, makes the next one write.
#[test]
fn an_idle_checkpoint_writes_nothing() {
    use std::os::unix::fs::MetadataExt;
    use std::time::Duration;

    let dir = tmp_dir("idle");
    let service = Service::builder(dblp_like())
        .workers(1)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let checkpoint_events = |service: &Service| {
        service
            .events()
            .since(0, 10_000)
            .iter()
            .filter(|e| e.kind == "checkpoint")
            .count()
    };
    let (epoch, path) = service.newest_snapshot_file().unwrap().unwrap();
    let file = std::fs::metadata(&path).unwrap();
    let (checkpoints, events) = (
        service.durability().checkpoints,
        checkpoint_events(&service),
    );
    let generation = service.publish_generation();

    assert_eq!(service.checkpoint().unwrap(), epoch);
    let again = std::fs::metadata(&path).unwrap();
    assert_eq!(again.ino(), file.ino(), "the file was not rewritten");
    assert_eq!(again.modified().unwrap(), file.modified().unwrap());
    assert_eq!(service.durability().checkpoints, checkpoints);
    assert_eq!(checkpoint_events(&service), events);
    assert_eq!(
        service.wait_for_publish(generation, Duration::from_millis(10)),
        generation,
        "no publish waiter was woken"
    );

    // One WAL record: the next checkpoint writes.
    let report = service.apply_mutations(&MutationBatch::new().add_node("author", "Jim Gray"));
    assert!(report.swapped);
    assert_eq!(service.checkpoint().unwrap(), report.epoch);
    assert_eq!(service.durability().checkpoints, checkpoints + 1);
    assert_eq!(checkpoint_events(&service), events + 1);

    // The file gone (the WAL is empty): the next checkpoint writes it back.
    let (_, newest) = service.newest_snapshot_file().unwrap().unwrap();
    std::fs::remove_file(&newest).unwrap();
    assert_eq!(service.checkpoint().unwrap(), report.epoch);
    assert!(newest.exists());
    assert_eq!(service.durability().checkpoints, checkpoints + 2);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The label index from `dblp_like`, plus one term ("zeppelin", on node 0)
/// the labels do not hold: served only if adopted from the file.
fn marked_index(graph: &DataGraph) -> banks_textindex::InvertedIndex {
    let mut builder = banks_textindex::IndexBuilder::with_default_tokenizer();
    for node in graph.nodes() {
        builder.add_text(node, graph.node_label(node));
    }
    builder.add_text(NodeId(0), "zeppelin");
    for kind in 0..graph.num_kinds() {
        let kind = banks_graph::KindId(kind as u16);
        builder.add_relation_name(graph.kind_name(kind), kind);
    }
    builder.build()
}

/// A data directory holding one snapshot file with the given bytes.
fn dir_with_snapshot(tag: &str, epoch: u64, bytes: &[u8]) -> PathBuf {
    let dir = tmp_dir(tag);
    banks_persist::write_snapshot_bytes(&dir.join(banks_persist::snapshot_file_name(epoch)), bytes)
        .unwrap();
    dir
}

fn matches_zeppelin(service: &Service) -> bool {
    let (outcome, _) = service
        .submit(QuerySpec::keywords(["zeppelin"]).top_k(1))
        .unwrap()
        .wait();
    !outcome.answers.is_empty()
}

/// A clean restart serves the persisted index when the derivation record
/// says it is the label index; a file without the record (the format
/// before it), with an unreadable one, with one that says "external", or
/// with the record but no index re-derives; a damaged record is a typed
/// error; and a restart that replays WAL records derives as before.
#[test]
fn recovery_adopts_only_what_the_derivation_record_vouches_for() {
    use banks_persist::{encode_snapshot_with, Derivation, IndexDerivation, PrestigeDerivation};
    use banks_prestige::PrestigeVector;

    let graph = dblp_like();
    let epoch = graph.epoch();
    let prestige = PrestigeVector::uniform_for(&graph);
    let index = marked_index(&graph);
    let derivation = |index| Derivation {
        index,
        prestige: PrestigeDerivation::Uniform,
    };
    let encode = |index: Option<&banks_textindex::InvertedIndex>, d: Option<Derivation>| {
        encode_snapshot_with(&graph, Some(&prestige), index, d)
    };
    let boot = |dir: &PathBuf| {
        Service::builder(decoy())
            .workers(1)
            .persistence(dir, FsyncPolicy::Always)
            .try_build()
    };

    // The marked index plus a term on `node` and a relation name for
    // `kind`, either of which may lie past the graph's end.
    let naming = |node: u32, kind: u16| {
        let mut builder = banks_textindex::IndexBuilder::with_default_tokenizer();
        for n in graph.nodes() {
            builder.add_text(n, graph.node_label(n));
        }
        builder.add_text(NodeId(0), "zeppelin");
        builder.add_text(NodeId(node), "phantom");
        builder.add_relation_name("ghost", banks_graph::KindId(kind));
        builder.build()
    };
    let (nodes, kinds) = (graph.num_nodes() as u32, graph.num_kinds() as u16);

    let labels = encode(Some(&index), Some(derivation(IndexDerivation::Labels)));
    let mut unknown_mode = labels.clone();
    let at = unknown_mode.len() - 8; // the record's 2-byte payload
    unknown_mode[at] = 9;
    let crc = banks_persist::crc::crc32(&unknown_mode[at..at + 2]);
    unknown_mode[at - 8..at - 4].copy_from_slice(&crc.to_le_bytes());
    let cases = [
        ("adopted", labels.clone(), true),
        ("parent-format", encode(Some(&index), None), false),
        ("unknown-mode", unknown_mode, false),
        (
            "external",
            encode(Some(&index), Some(derivation(IndexDerivation::External))),
            false,
        ),
        (
            "no-index",
            encode(None, Some(derivation(IndexDerivation::Labels))),
            false,
        ),
        (
            "missing-node",
            encode(
                Some(&naming(nodes, 0)),
                Some(derivation(IndexDerivation::Labels)),
            ),
            false,
        ),
        (
            "missing-kind",
            encode(
                Some(&naming(0, kinds)),
                Some(derivation(IndexDerivation::Labels)),
            ),
            false,
        ),
    ];
    let fresh = Service::builder(dblp_like()).build();
    for (tag, bytes, adopted) in cases {
        let dir = dir_with_snapshot(tag, epoch, &bytes);
        let service = boot(&dir).unwrap();
        assert_eq!(service.epoch(), epoch, "{tag}");
        assert_eq!(matches_zeppelin(&service), adopted, "{tag}");
        for query in ["soumen bidirectional", "phantom soumen", "ghost"] {
            assert_eq!(
                answers(&service, query),
                answers(&fresh, query),
                "{tag}: label answers are the same either way ({query})"
            );
        }
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Cut inside the record, or a bit flipped in its payload: the only
    // snapshot does not load, and the boot fails with a typed error.
    let mut flipped = labels.clone();
    let at = flipped.len() - 7;
    flipped[at] ^= 0x01;
    for (tag, bytes) in [
        ("cut", labels[..labels.len() - 9].to_vec()),
        ("flipped", flipped),
    ] {
        let dir = dir_with_snapshot(tag, epoch, &bytes);
        assert!(
            matches!(boot(&dir), Err(PersistError::NoValidSnapshot { .. })),
            "{tag}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A WAL record to replay: the index is derived from the replayed graph.
    let dir = dir_with_snapshot("replayed", epoch, &labels);
    let service = boot(&dir).unwrap();
    assert!(matches_zeppelin(&service));
    let report = service.apply_mutations(&MutationBatch::new().add_node("author", "Jim Gray"));
    assert!(report.swapped);
    drop(service);
    let service = boot(&dir).unwrap();
    assert_eq!(service.epoch(), report.epoch);
    assert_eq!(service.durability().replayed_records, 1);
    assert!(!matches_zeppelin(&service));
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}
