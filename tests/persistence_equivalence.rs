//! Randomized save → mutate → crash → recover equivalence suite.
//!
//! The durability contract is that a crash costs nothing that was
//! acknowledged: a service rebooted from its data directory serves the
//! *same world* it served the instant before the crash.  This suite
//! generates random graphs and random mutation chains against a persistent
//! [`Service`], "crashes" it (drops it with a non-empty WAL, no clean
//! checkpoint), reboots from the directory — handing the builder a decoy
//! graph that recovery must ignore — and asserts **byte-identical query
//! results for all three engines**, comparing the canonical JSON rendering
//! of every ranked answer, plus the epoch and the graph signature.

use std::path::PathBuf;

use banks::core::json as corejson;
use banks::prelude::*;

/// Deterministic xorshift64* — no dependency, stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

const VOCAB: &[&str] = &[
    "database", "recovery", "keyword", "search", "graph", "locks", "stream", "index", "query",
    "prestige", "vldb", "banks",
];
const KINDS: &[&str] = &["author", "paper", "writes", "venue"];

fn tmp_dir(seed: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("banks-persist-equiv-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_label(rng: &mut Rng) -> String {
    let a = VOCAB[rng.below(VOCAB.len() as u64) as usize];
    let b = VOCAB[rng.below(VOCAB.len() as u64) as usize];
    format!("{a} {b}")
}

fn random_graph(rng: &mut Rng) -> DataGraph {
    let mut b = GraphBuilder::new();
    let n = 12 + rng.below(20) as usize;
    let ids: Vec<NodeId> = (0..n)
        .map(|_| {
            b.add_node(
                KINDS[rng.below(KINDS.len() as u64) as usize],
                random_label(rng),
            )
        })
        .collect();
    for _ in 0..(2 * n) {
        let u = ids[rng.below(n as u64) as usize];
        let v = ids[rng.below(n as u64) as usize];
        if u != v {
            let w = 0.5 + rng.below(8) as f64 / 2.0;
            b.add_edge_weighted(u, v, w).unwrap();
        }
    }
    b.build_default()
}

/// A random batch over the *current* node count: mostly valid ops, with
/// the occasional invalid one (rejected individually, no side effects).
fn random_batch(rng: &mut Rng, num_nodes: u32) -> MutationBatch {
    let mut batch = MutationBatch::new();
    let mut n = num_nodes as u64;
    for _ in 0..(4 + rng.below(6)) {
        match rng.below(10) {
            0..=2 => {
                batch = batch.add_node(
                    KINDS[rng.below(KINDS.len() as u64) as usize],
                    random_label(rng),
                );
                n += 1;
            }
            3..=5 => {
                let u = rng.below(n) as u32;
                let v = rng.below(n) as u32;
                batch = batch.add_edge(NodeId(u), NodeId(v));
            }
            6 | 7 => {
                let node = rng.below(n) as u32;
                batch = batch.set_label(NodeId(node), random_label(rng));
            }
            8 => {
                let u = rng.below(n) as u32;
                let v = rng.below(n) as u32;
                let w = 0.25 + rng.below(12) as f64 / 4.0;
                batch = batch.set_weight(NodeId(u), NodeId(v), w);
            }
            _ => {
                // invalid on purpose: an endpoint far out of range
                batch = batch.add_edge(NodeId(n as u32 + 500), NodeId(rng.below(n) as u32));
            }
        }
    }
    batch
}

/// Canonical JSON of every ranked answer, per engine — byte equality here
/// is the strongest "same world" check the query surface offers.  (Rank +
/// tree rendering: everything about the answer except the wall-clock
/// timing fields, which no two runs share.)
fn engine_fingerprints(service: &Service, queries: &[String]) -> Vec<String> {
    let mut fingerprints = Vec::new();
    for engine in service.engine_names() {
        for query in queries {
            let spec = QuerySpec::parse(query).engine(engine).top_k(6);
            let (outcome, _) = service.submit(spec).unwrap().wait();
            let rendered: Vec<String> = outcome
                .answers
                .iter()
                .map(|a| format!("{}:{}", a.rank, corejson::answer_tree(&a.tree)))
                .collect();
            fingerprints.push(format!("{engine}: {}", rendered.join(",")));
        }
    }
    fingerprints
}

/// One node's identity in the signature: kind, label, out-edges as
/// `(target, weight bits)`.
type NodeSignature = (String, String, Vec<(u32, u64)>);

fn graph_signature(g: &DataGraph) -> Vec<NodeSignature> {
    g.nodes()
        .map(|u| {
            (
                g.node_kind_name(u).to_string(),
                g.node_label(u).to_string(),
                g.out_edges(u)
                    .map(|e| (e.to.0, e.weight.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn random_mutation_chains_survive_crashes_byte_identically() {
    for seed in 1..=6u64 {
        let mut rng = Rng::new(seed * 0x9E37_79B9);
        let dir = tmp_dir(seed);
        let queries: Vec<String> = (0..3).map(|_| random_label(&mut rng)).collect();

        let pre_epoch;
        let pre_fingerprints;
        let pre_signature;
        {
            let service = Service::builder(random_graph(&mut rng))
                .workers(2)
                .persistence(&dir, FsyncPolicy::Always)
                .build();
            for _ in 0..(3 + rng.below(5)) {
                let nodes = service.snapshot().graph().num_nodes() as u32;
                let report = service.apply_mutations(&random_batch(&mut rng, nodes));
                assert!(report.persist_error.is_none(), "seed {seed}: WAL append");
            }
            pre_epoch = service.epoch();
            pre_fingerprints = engine_fingerprints(&service, &queries);
            pre_signature = graph_signature(service.snapshot().graph());
            // Crash: dropped here without a checkpoint.
        }

        let recovered = Service::builder(random_graph(&mut rng))
            .workers(2)
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        assert_eq!(recovered.epoch(), pre_epoch, "seed {seed}: epoch");
        assert_eq!(
            graph_signature(recovered.snapshot().graph()),
            pre_signature,
            "seed {seed}: graph signature"
        );
        assert_eq!(
            engine_fingerprints(&recovered, &queries),
            pre_fingerprints,
            "seed {seed}: answers must be byte-identical on every engine"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// FNV-1a, 64-bit, over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The snapshot a service checkpoints for the 8k-node corpus is the
/// pinned `encode_snapshot` output (label index, uniform prestige) plus
/// exactly one 32-byte derivation record; stripping that record (and
/// fixing the header's record count and CRC) gives the hash
/// `tests/corpus_fingerprint.rs` pins.
#[test]
fn a_service_checkpoint_is_the_pinned_snapshot_plus_one_record() {
    use banks::persist::{encode_snapshot, snapshot_file_name};

    let data = DblpDataset::generate(DblpConfig {
        num_authors: 600,
        num_papers: 1200,
        num_conferences: 8,
        seed: 7,
        ..DblpConfig::default()
    });
    let mut graph = data.dataset.graph().clone();
    graph.restore_epoch(1);
    let pinned = encode_snapshot(
        &graph,
        Some(&PrestigeVector::uniform_for(&graph)),
        Some(&banks::core::build_label_index(&graph)),
    );
    let dir = std::env::temp_dir().join(format!("banks-persist-pinned-{}", std::process::id()));
    let service = Service::builder(graph)
        .workers(1)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let written = std::fs::read(dir.join(snapshot_file_name(1))).unwrap();
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(written.len(), pinned.len() + 32);
    assert_eq!(&written[64..pinned.len()], &pinned[64..]);
    let mut stripped = written[..pinned.len()].to_vec();
    let records = u64::from_le_bytes(written[24..32].try_into().unwrap());
    stripped[24..32].copy_from_slice(&(records - 1).to_le_bytes());
    let crc = banks::persist::crc::crc32(&stripped[..60]);
    stripped[60..64].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(stripped, pinned);
    assert_eq!(fnv(&stripped), 0xe2fa_11a4_08f8_5556, "the recorded hash");
}
