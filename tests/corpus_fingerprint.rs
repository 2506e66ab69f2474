//! Fingerprints of the generated corpora, their label indexes and three
//! encoded snapshots, pinned to the values the generators produced before
//! the boot path was made linear (recorded on commit f2c5527).
//!
//! The benchmark's corpora, `engine_golden.tsv` and every equivalence suite
//! rest on these bytes, so a generator, tokenizer or checksum change that
//! moves a single bit must fail here rather than shift the benchmark.  A
//! corpus fingerprint covers node labels and kinds, both adjacency
//! directions with weight bits, the extraction's posting lists in sorted
//! term order, and its relation-name pseudo terms.  A mismatch prints every
//! current value; re-record only for a change that is meant to alter the
//! corpora.

use banks::core::build_label_index;
use banks::graph::{EdgeRef, KindId};
use banks::persist::encode_snapshot;
use banks::prelude::*;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_edges(h: &mut Fnv, edges: impl Iterator<Item = EdgeRef>) {
    for e in edges {
        h.u64(e.from.0 as u64);
        h.u64(e.to.0 as u64);
        h.u64(e.weight.to_bits());
        h.u64(matches!(e.kind, EdgeKind::Backward) as u64);
    }
    h.u64(u64::MAX);
}

fn graph_fingerprint(graph: &DataGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(graph.num_kinds() as u64);
    for kind in 0..graph.num_kinds() {
        h.str(graph.kind_name(KindId(kind as u16)));
    }
    h.u64(graph.num_nodes() as u64);
    for node in graph.nodes() {
        h.u64(graph.node_kind(node).0 as u64);
        h.str(graph.node_label(node));
        hash_edges(&mut h, graph.out_edges(node));
        hash_edges(&mut h, graph.in_edges(node));
    }
    h.0
}

fn index_fingerprint(index: &InvertedIndex) -> u64 {
    let mut h = Fnv::new();
    let mut terms: Vec<&str> = index.terms().collect();
    terms.sort_unstable();
    h.u64(terms.len() as u64);
    for term in terms {
        h.str(term);
        let list = index.postings(term);
        h.u64(list.len() as u64);
        for node in list {
            h.u64(node.0 as u64);
        }
    }
    let mut kind_terms: Vec<(&str, &[KindId])> = index.kind_terms().collect();
    kind_terms.sort_unstable();
    h.u64(kind_terms.len() as u64);
    for (term, kinds) in kind_terms {
        h.str(term);
        for kind in kinds {
            h.u64(kind.0 as u64);
        }
    }
    h.0
}

fn dataset_fingerprint(data: &banks::datagen::Dataset) -> u64 {
    let mut h = Fnv::new();
    h.u64(graph_fingerprint(data.graph()));
    h.u64(index_fingerprint(data.index()));
    h.0
}

fn dblp(authors: usize, papers: usize, conferences: usize, seed: u64) -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors: authors,
        num_papers: papers,
        num_conferences: conferences,
        seed,
        ..DblpConfig::default()
    })
}

/// `(name, current, recorded)` rows; fails listing every row if any moved.
fn check(rows: &[(String, u64, u64)]) {
    let moved: Vec<&(String, u64, u64)> = rows.iter().filter(|(_, c, r)| c != r).collect();
    if !moved.is_empty() {
        let table: String = rows
            .iter()
            .map(|(name, current, recorded)| {
                format!("  {name:<28} current {current:#018x} recorded {recorded:#018x}\n")
            })
            .collect();
        panic!("{} fingerprint(s) moved:\n{table}", moved.len());
    }
}

/// `(name, corpus, label index)` for the DBLP corpora the tests, examples
/// and the benchmark build.
const DBLP: [(&str, u64, u64); 5] = [
    ("dblp tiny", 0x7449_1998_3eb7_5fde, 0x297d_a555_219e_9148),
    (
        "dblp 600/1200/8 s7",
        0x60a4_3b36_df8a_84ed,
        0x7679_7c03_4d67_fa13,
    ),
    (
        "dblp 1000/2000/12 s7",
        0xa781_c4d9_8eed_3ad7,
        0x2e95_40a3_5418_9397,
    ),
    (
        "dblp 1000/2000/12 s3",
        0xd939_3d9a_772c_8e38,
        0x8e78_30f9_9c4e_1ba3,
    ),
    (
        "dblp 2000/4000/12 s7",
        0x1aea_090c_2b1d_2863,
        0xae12_b768_ffbe_2170,
    ),
];

#[test]
fn dblp_corpora_and_label_indexes_are_unchanged() {
    let corpora = [
        DblpDataset::generate(DblpConfig::tiny()),
        dblp(600, 1200, 8, 7),
        dblp(1000, 2000, 12, 7),
        dblp(1000, 2000, 12, 3),
        dblp(2000, 4000, 12, 7),
    ];
    let mut rows = Vec::new();
    for ((name, corpus, label_index), data) in DBLP.iter().zip(&corpora) {
        rows.push((
            name.to_string(),
            dataset_fingerprint(&data.dataset),
            *corpus,
        ));
        rows.push((
            format!("{name} label index"),
            index_fingerprint(&build_label_index(data.dataset.graph())),
            *label_index,
        ));
    }
    check(&rows);
}

#[test]
fn patents_and_imdb_corpora_are_unchanged() {
    let rows = vec![
        (
            "patents tiny".to_string(),
            dataset_fingerprint(&PatentsDataset::generate(PatentsConfig::tiny()).dataset),
            0xf862_d070_f345_bb53,
        ),
        (
            "patents default".to_string(),
            dataset_fingerprint(&PatentsDataset::generate(PatentsConfig::default()).dataset),
            0x3e3d_2c60_1c78_fdd1,
        ),
        (
            "imdb tiny".to_string(),
            dataset_fingerprint(&ImdbDataset::generate(ImdbConfig::tiny()).dataset),
            0x135f_86f7_3610_9736,
        ),
        (
            "imdb default".to_string(),
            dataset_fingerprint(&ImdbDataset::generate(ImdbConfig::default()).dataset),
            0x6a30_82eb_9994_53c0,
        ),
    ];
    check(&rows);
}

/// The 8k-node corpus encoded with its label index and uniform prestige:
/// every byte of the snapshot format, CRCs included, so follower bootstrap
/// and recovery read exactly what they read before.  Epochs are drawn from
/// a process-wide counter, so the header's is pinned first.
#[test]
fn snapshot_bytes_are_unchanged() {
    let data = dblp(600, 1200, 8, 7);
    let mut graph = data.dataset.graph().clone();
    graph.restore_epoch(1);
    let bytes = encode_snapshot(
        &graph,
        Some(&PrestigeVector::uniform_for(&graph)),
        Some(&build_label_index(&graph)),
    );
    let mut h = Fnv::new();
    h.bytes(&bytes);
    check(&[(
        format!("snapshot ({} bytes)", bytes.len()),
        h.0,
        0xe2fa_11a4_08f8_5556,
    )]);
}

/// An 800-author corpus with its PageRank prestige at epoch 1, and its
/// successor after one mixed mutation batch at epoch 2: every byte of both
/// snapshots, so the derived backward edges, the prestige walk, the
/// mutation delta and the expansion-policy record stay as they were.
#[test]
fn pagerank_and_mutated_snapshot_bytes_are_unchanged() {
    let data = dblp(800, 1500, 8, 7);
    let mut graph = data.dataset.graph().clone();
    graph.restore_epoch(1);
    let fresh = NodeId(graph.num_nodes() as u32);
    let cited = graph
        .nodes()
        .find_map(|u| graph.out_edges(u).find(|e| e.kind.is_forward()))
        .unwrap();
    let batch = MutationBatch::new()
        .add_node("paper", "fresh keyword search paper")
        .add_edge(fresh, NodeId(0))
        .add_edge_weighted(fresh, NodeId(1), 2.5)
        .remove_edge(cited.from, cited.to);
    let (mut successor, outcome) = graph.apply_batch(&batch);
    assert_eq!(outcome.accepted(), 4);
    successor.restore_epoch(2);
    let recorded = [
        (&graph, 1_567_960, 0x87dc_3172_6ec5_7eb3),
        (&successor, 1_568_048, 0x51f8_dd50_505b_6396),
    ];
    let rows: Vec<(String, u64, u64)> = recorded
        .into_iter()
        .map(|(g, len, recorded)| {
            let (prestige, _) = compute_pagerank(g);
            let bytes = encode_snapshot(g, Some(&prestige), Some(&build_label_index(g)));
            assert_eq!(bytes.len(), len, "epoch {} snapshot length", g.epoch());
            let mut h = Fnv::new();
            h.bytes(&bytes);
            (
                format!("epoch {} ({} bytes)", g.epoch(), bytes.len()),
                h.0,
                recorded,
            )
        })
        .collect();
    check(&rows);
}
