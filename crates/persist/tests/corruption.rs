//! Corruption-robustness suite: every way the disk can lie — torn tails,
//! bit flips, wrong magic, future format versions, total garbage — must
//! surface as a typed `PersistError` (or a tolerated scan anomaly), never
//! a panic, and recovery must fall back to the newest loadable state.

use std::path::{Path, PathBuf};

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_persist::{
    decode_snapshot, encode_snapshot, list_snapshots, read_snapshot, recover, replay_wal,
    scan_file, snapshot_file_name, write_snapshot, FsyncPolicy, PersistError, Wal, FORMAT_VERSION,
    WAL_FILE,
};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("banks-corrupt-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a1 = b.add_node("author", "Grace Hopper");
    let a2 = b.add_node("author", "Barbara Liskov");
    let p1 = b.add_node("paper", "Crash Recovery Considered Essential");
    let p2 = b.add_node("paper", "Logs All The Way Down");
    b.add_edge(p1, a1).unwrap();
    b.add_edge(p1, a2).unwrap();
    b.add_edge_weighted(p2, a2, 3.0).unwrap();
    b.build_default()
}

/// One node's identity: label plus out-edges as `(target, weight bits,
/// is-backward)`.
type NodeSignature = (String, Vec<(u32, u64, bool)>);

fn graph_signature(g: &DataGraph) -> Vec<NodeSignature> {
    g.nodes()
        .map(|u| {
            (
                g.node_label(u).to_string(),
                g.out_edges(u)
                    .map(|e| (e.to.0, e.weight.to_bits(), e.kind.is_backward()))
                    .collect(),
            )
        })
        .collect()
}

/// Writes `graph` as a snapshot file of `dir`.
fn checkpoint(dir: &Path, graph: &DataGraph) {
    write_snapshot(
        &dir.join(snapshot_file_name(graph.epoch())),
        graph,
        None,
        None,
    )
    .unwrap();
}

/// A data directory as a durable writer leaves it: a snapshot of the seed
/// graph, then a WAL holding one record per batch, synced.  Returns the
/// directory and the graph after the last batch.
fn durable_dir(tag: &str, policy: FsyncPolicy, batches: &[MutationBatch]) -> (PathBuf, DataGraph) {
    let (dir, mut graph) = (tmp_dir(tag), seed_graph());
    checkpoint(&dir, &graph);
    let mut wal = Wal::create(&dir.join(WAL_FILE), policy).unwrap();
    for batch in batches {
        let (next, _) = graph.apply_batch(batch);
        wal.append(graph.epoch(), next.epoch(), batch).unwrap();
        graph = next;
    }
    wal.sync().unwrap();
    (dir, graph)
}

/// Boots `dir` the way the service does — the newest loadable snapshot,
/// the WAL suffix replayed on it, the log reopened at its valid prefix —
/// and returns the graph, the records replayed, whether the WAL had a
/// damaged tail, and how many newer snapshots were skipped.
fn reboot(dir: &Path) -> (DataGraph, usize, bool, usize) {
    let recovery = recover(dir).unwrap().expect("a snapshot to recover");
    let wal = Wal::open_after_scan(&dir.join(WAL_FILE), FsyncPolicy::Always, &recovery.wal);
    assert_eq!(wal.unwrap().bytes(), recovery.wal.valid_bytes);
    let torn = recovery.wal.anomaly.is_some();
    let (graph, replayed) = replay_wal(recovery.contents.graph, &recovery.wal.records).unwrap();
    (graph, replayed, torn, recovery.skipped_snapshots)
}

fn add_nodes(kind: &str, n: usize) -> Vec<MutationBatch> {
    (0..n)
        .map(|i| MutationBatch::new().add_node(kind, format!("N{i}")))
        .collect()
}

#[test]
fn truncated_wal_tail_recovers_prefix() {
    let (dir, _) = durable_dir("torn-wal", FsyncPolicy::Always, &add_nodes("author", 5));
    // Tear the last record mid-payload: the first four batches survive.
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 11]).unwrap();

    let (graph, replayed, torn, _) = reboot(&dir);
    assert_eq!(replayed, 4);
    assert!(torn);
    assert_eq!(graph.num_nodes(), seed_graph().num_nodes() + 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_wal_record_stops_replay_at_flip() {
    let (dir, _) = durable_dir("flip-wal", FsyncPolicy::Always, &add_nodes("conference", 3));
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip a bit two thirds in — inside the second or third record.
    let target = bytes.len() * 2 / 3;
    bytes[target] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();

    let scan = scan_file(&wal).unwrap();
    assert!(scan.anomaly.is_some(), "flip must be detected");
    assert!(scan.records.len() < 3, "replay stops before the flip");

    // Recovery still succeeds with the intact prefix.
    let (graph, replayed, torn, _) = reboot(&dir);
    assert!(torn);
    assert_eq!(replayed, scan.records.len());
    assert_eq!(graph.num_nodes(), seed_graph().num_nodes() + replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two checkpoints, the newest damaged: recovery skips it for the older
/// one, whose WAL the newer checkpoint already truncated — a bad magic and
/// a flipped body byte alike.
#[test]
fn damaged_newest_snapshot_is_typed_and_skipped() {
    for tag in ["magic", "body"] {
        let batch = MutationBatch::new().set_label(NodeId(0), "Renamed");
        let (dir, renamed) = durable_dir(tag, FsyncPolicy::Always, &[batch]);
        checkpoint(&dir, &renamed);
        Wal::create(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 2, "{tag}");

        let newest = snaps[0].1.clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        if tag == "magic" {
            bytes[..8].copy_from_slice(b"NOTBANKS");
            std::fs::write(&newest, &bytes).unwrap();
            assert!(matches!(
                read_snapshot(&newest),
                Err(PersistError::BadMagic { .. })
            ));
        } else {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&newest, &bytes).unwrap();
        }

        let rec = recover(&dir).unwrap().expect("older snapshot usable");
        assert_eq!(rec.skipped_snapshots, 1, "{tag}");
        assert_eq!(rec.snapshot_epoch, snaps[1].0, "{tag}");
        // The lost checkpoint window is gone, but nothing panicked.
        let recovered = graph_signature(&rec.contents.graph);
        assert_eq!(recovered, graph_signature(&seed_graph()), "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn stale_format_version_is_unsupported() {
    let g = seed_graph();
    let mut bytes = encode_snapshot(&g, None, None);
    // Bump the version field and fix the header CRC so only the version
    // check can fire.
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
    let crc = {
        // Recompute with the crate's own CRC via a decode round trip trick:
        // encode_snapshot always writes a valid header, so splice the new
        // version in and recompute using the public constant layout.
        banks_persist_crc(&bytes[..60])
    };
    bytes[60..64].copy_from_slice(&crc.to_le_bytes());
    match decode_snapshot(&bytes) {
        Err(PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 7);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// CRC-32 (IEEE) reimplemented locally so the test can forge a valid
/// header checksum without reaching into crate internals.
fn banks_persist_crc(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Record 3 always holds the paper's expansion policy: backward edges on,
/// the indegree-log rule (variant 0, parameter 0.0), forward weight 1.0.
/// A snapshot naming any other policy, here the weight-mirroring variant
/// 1 under a valid CRC, describes a graph this build does not serve, and
/// is refused as corrupt rather than loaded.
#[test]
fn snapshot_naming_another_expansion_policy_is_corrupt() {
    let mut bytes = encode_snapshot(&seed_graph(), None, None);
    let mut pos = 64;
    let (payload_start, len) = loop {
        let field = |at: usize, n: usize| {
            let mut v = [0u8; 8];
            v[..n].copy_from_slice(&bytes[at..at + n]);
            u64::from_le_bytes(v) as usize
        };
        let (tag, pad, len) = (field(pos, 4), field(pos + 4, 4), field(pos + 8, 8));
        let payload_start = pos + 24 + pad;
        if tag == 3 {
            break (payload_start, len);
        }
        pos = (payload_start + len).div_ceil(8) * 8;
    };
    let payload = payload_start..payload_start + len;
    let mut paper = vec![1u8, 0];
    paper.extend_from_slice(&0.0f64.to_le_bytes());
    paper.extend_from_slice(&1.0f64.to_le_bytes());
    assert_eq!(
        &bytes[payload.clone()],
        &paper[..],
        "record 3 is a constant"
    );
    assert!(decode_snapshot(&bytes).is_ok());

    bytes[payload_start + 1] = 1;
    let crc = banks_persist_crc(&bytes[payload]);
    bytes[pos + 16..pos + 20].copy_from_slice(&crc.to_le_bytes());
    match decode_snapshot(&bytes) {
        Err(PersistError::Corrupt { detail }) => assert!(detail.contains("policy"), "{detail}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn garbage_files_never_panic() {
    let dir = tmp_dir("garbage");
    let patterns: &[&[u8]] = &[
        b"",
        b"x",
        b"BANKSDB0",
        b"BANKSWAL",
        &[0u8; 64],
        &[0xFF; 128],
        b"BANKSDB0\x01\x00\x00\x00\x00\x10\x00\x00 and then nonsense",
    ];
    for (i, p) in patterns.iter().enumerate() {
        let path = dir.join(format!("snapshot-{i:020}.banks"));
        std::fs::write(&path, p).unwrap();
    }
    // Every candidate fails with a typed error; none panics.
    match recover(&dir) {
        Err(PersistError::NoValidSnapshot { attempts, .. }) => {
            assert_eq!(attempts, patterns.len());
        }
        other => panic!("expected NoValidSnapshot, got {other:?}"),
    }
    // WAL garbage likewise.
    std::fs::write(dir.join("wal.log"), b"BANKSWALgarbage").unwrap();
    assert!(scan_file(&dir.join("wal.log")).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_bit_flip_sweep_never_panics_end_to_end() {
    let g = seed_graph();
    let bytes = encode_snapshot(&g, None, None);
    // Sparse sweep (every 13th byte) across the whole file, all 8 bits.
    for pos in (0..bytes.len()).step_by(13) {
        for bit in 0..8 {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            let _ = decode_snapshot(&corrupted); // must not panic
        }
    }
}

#[test]
fn fsync_policies_all_round_trip() {
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(2),
        FsyncPolicy::Never,
    ] {
        let batch = MutationBatch::new().add_node("author", "Synced");
        let (dir, written) = durable_dir("fsync", policy, &[batch]);
        let (graph, replayed, torn, skipped) = reboot(&dir);
        assert_eq!((replayed, torn, skipped), (1, false, 0), "{policy:?}");
        assert_eq!(graph.epoch(), written.epoch());
        assert_eq!(graph_signature(&graph), graph_signature(&written));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
