//! Randomized leader/follower replication-equivalence suite.
//!
//! The replication contract is that a follower serves the *leader's
//! world*: at every epoch both sides share, every engine must stream the
//! **byte-identical** canonical JSON answer sequence, and the graphs must
//! carry the identical signature.  This suite runs a real HTTP leader
//! ([`Server`]) and a real follower client ([`Follower`]) end to end:
//!
//! * random mutation chains (including `remove_node`) applied on the
//!   leader, with the follower converging and compared **at every shared
//!   epoch** — not just at the end;
//! * a follower "kill -9" mid-chain (client and service dropped with no
//!   clean shutdown), then recovery from the follower's own data
//!   directory and stream resumption from the recovered epoch;
//! * a forced snapshot re-bootstrap: the leader checkpoints while the
//!   follower is down, truncating the WAL past the follower's position,
//!   so resumption is impossible and the follower must re-seed itself
//!   from `GET /replication/snapshot`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    "database", "replica", "keyword", "search", "graph", "leader", "stream", "index", "query",
    "prestige", "vldb", "banks",
];
const KINDS: &[&str] = &["author", "paper", "writes", "venue"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("banks-repl-equiv-{}-{tag}", std::process::id()));
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
    let n = 24 + rng.below(24) as usize;
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

/// What a follower boots with: deliberately unrelated data the first
/// bootstrap must replace wholesale.
fn boot_graph(rng: &mut Rng) -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("boot", random_label(rng));
    b.build_default()
}

/// A random batch over the current node count: adds, relabels, reweights,
/// removals, and the occasional invalid op (rejected identically on both
/// sides — rejection parity is part of the replicated state).
fn random_batch(rng: &mut Rng, num_nodes: u32) -> MutationBatch {
    let mut batch = MutationBatch::new();
    let mut n = num_nodes as u64;
    for _ in 0..(3 + rng.below(5)) {
        match rng.below(12) {
            0..=3 => {
                batch = batch.add_node(
                    KINDS[rng.below(KINDS.len() as u64) as usize],
                    random_label(rng),
                );
                n += 1;
            }
            4..=6 => {
                let u = rng.below(n) as u32;
                let v = rng.below(n) as u32;
                batch = batch.add_edge(NodeId(u), NodeId(v));
            }
            7 | 8 => {
                let node = rng.below(n) as u32;
                batch = batch.set_label(NodeId(node), random_label(rng));
            }
            9 => {
                let u = rng.below(n) as u32;
                let v = rng.below(n) as u32;
                let w = 0.25 + rng.below(12) as f64 / 4.0;
                batch = batch.set_weight(NodeId(u), NodeId(v), w);
            }
            10 => {
                batch = batch.remove_node(NodeId(rng.below(n) as u32));
            }
            _ => {
                // invalid on purpose: an endpoint far out of range
                batch = batch.add_edge(NodeId(n as u32 + 500), NodeId(rng.below(n) as u32));
            }
        }
    }
    batch
}

/// Canonical JSON of every ranked answer, per engine — byte equality is
/// the strongest "same world" check the query surface offers.
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

/// Waits for the follower to reach the leader's epoch, then asserts full
/// world equality: epoch, graph signature, per-engine answer bytes.
fn assert_converged(leader: &Service, follower: &Service, queries: &[String], ctx: &str) {
    assert!(
        wait_for(Duration::from_secs(15), || follower.epoch()
            == leader.epoch()),
        "{ctx}: follower stuck at {} while the leader serves {}",
        follower.epoch(),
        leader.epoch()
    );
    assert_eq!(
        graph_signature(follower.snapshot().graph()),
        graph_signature(leader.snapshot().graph()),
        "{ctx}: graph signature"
    );
    assert_eq!(
        engine_fingerprints(follower, queries),
        engine_fingerprints(leader, queries),
        "{ctx}: answers must be byte-identical on every engine"
    );
}

#[test]
fn random_mutation_chains_replicate_byte_identically_at_every_epoch() {
    for seed in 1..=4u64 {
        let mut rng = Rng::new(seed * 0x9E37_79B9);
        let leader_dir = tmp_dir(&format!("lead-{seed}"));
        let follower_dir = tmp_dir(&format!("foll-{seed}"));
        let queries: Vec<String> = (0..3).map(|_| random_label(&mut rng)).collect();

        let leader = Arc::new(
            Service::builder(random_graph(&mut rng))
                .workers(2)
                .persistence(&leader_dir, FsyncPolicy::Always)
                .build(),
        );
        leader.set_replication_role(ReplicationRole::Leader);
        leader.checkpoint().unwrap();
        let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();
        let url = format!("http://{}", server.local_addr());

        let follower = Arc::new(
            Service::builder(boot_graph(&mut rng))
                .workers(2)
                .persistence(&follower_dir, FsyncPolicy::Always)
                .build(),
        );
        let client = Follower::start(Arc::clone(&follower), &url).unwrap();
        assert_converged(&leader, &follower, &queries, &format!("seed {seed} boot"));

        // Phase 1: converge and compare at EVERY epoch the chain produces.
        for step in 0..(2 + rng.below(3)) {
            let nodes = leader.snapshot().graph().num_nodes() as u32;
            let report = leader.apply_mutations(&random_batch(&mut rng, nodes));
            assert!(report.persist_error.is_none(), "seed {seed}: WAL append");
            assert_converged(
                &leader,
                &follower,
                &queries,
                &format!("seed {seed} step {step}"),
            );
        }

        // Phase 2: kill the follower (no clean shutdown of its state) and
        // keep mutating the leader while it is gone.
        let downtime_epoch = follower.epoch();
        drop(client);
        drop(follower);
        for _ in 0..2 {
            let nodes = leader.snapshot().graph().num_nodes() as u32;
            let report = leader.apply_mutations(&random_batch(&mut rng, nodes));
            assert!(report.persist_error.is_none(), "seed {seed}: WAL append");
        }
        // Half the seeds also force the bootstrap path: a leader
        // checkpoint truncates the WAL, so the revived follower's cursor
        // is unreachable by replay and it must re-seed from the snapshot.
        let forced_bootstrap = seed % 2 == 0;
        if forced_bootstrap {
            leader.checkpoint().unwrap();
            assert!(
                downtime_epoch < leader.durability().last_checkpoint_epoch,
                "seed {seed}: truncation must strand the follower"
            );
        }

        // Phase 3: revive the follower from its own directory — recovery
        // restores the replicated epoch — and let it converge again.
        let follower = Arc::new(
            Service::builder(boot_graph(&mut rng))
                .workers(2)
                .persistence(&follower_dir, FsyncPolicy::Always)
                .build(),
        );
        assert_eq!(
            follower.epoch(),
            downtime_epoch,
            "seed {seed}: crash recovery must land on the replicated epoch"
        );
        let client = Follower::start(Arc::clone(&follower), &url).unwrap();
        assert_converged(
            &leader,
            &follower,
            &queries,
            &format!("seed {seed} revived (forced_bootstrap={forced_bootstrap})"),
        );
        if forced_bootstrap {
            // The follower emits `replication-bootstrap` only after the
            // installed snapshot has published its epoch, so convergence
            // can be observed before the event exists: wait for it.
            let deadline = Instant::now() + Duration::from_secs(15);
            let mut seen = 0;
            let mut bootstraps = 0;
            while bootstraps == 0 && Instant::now() < deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                let page = follower.events().wait_since(seen, 10_000, left);
                seen = page.last().map_or(seen, |e| e.id);
                bootstraps += page
                    .iter()
                    .filter(|e| e.kind == "replication-bootstrap")
                    .count();
            }
            assert!(
                bootstraps >= 1,
                "seed {seed}: the stranded follower must have re-bootstrapped"
            );
        }

        // Phase 4: one more live chain after recovery, checked per epoch.
        for step in 0..2 {
            let nodes = leader.snapshot().graph().num_nodes() as u32;
            let report = leader.apply_mutations(&random_batch(&mut rng, nodes));
            assert!(report.persist_error.is_none(), "seed {seed}: WAL append");
            assert_converged(
                &leader,
                &follower,
                &queries,
                &format!("seed {seed} post-recovery step {step}"),
            );
        }

        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&leader_dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }
}

/// A leader built with its own keyword index — every label plus text the
/// labels do not hold — and pinned prestige.  Its follower serves both as
/// the leader persisted them, index and prestige modes included, so the
/// two stream identical answers at the bootstrap epoch and at every epoch
/// of a mutation chain (additive index deltas, prestige carried forward,
/// on both sides).
#[test]
fn a_leader_with_a_supplied_index_and_pinned_prestige_replicates_byte_identically() {
    let mut rng = Rng::new(0x5EED_1DEA);
    let leader_dir = tmp_dir("supplied-lead");
    let follower_dir = tmp_dir("supplied-foll");
    let queries: Vec<String> = (0..4).map(|_| random_label(&mut rng)).collect();

    let graph = random_graph(&mut rng);
    let mut index = IndexBuilder::new();
    for node in graph.nodes() {
        index.add_text(node, graph.node_label(node));
        if node.0 % 3 == 0 {
            index.add_text(node, &random_label(&mut rng));
        }
    }
    for kind in 0..graph.num_kinds() {
        let kind = banks::graph::KindId(kind as u16);
        index.add_relation_name(graph.kind_name(kind), kind);
    }
    let prestige = PrestigeVector::from_values(
        (0..graph.num_nodes())
            .map(|_| 0.25 + rng.below(8) as f64)
            .collect(),
    );
    let defaults = Service::builder(graph.clone()).workers(1).build();
    let leader = Arc::new(
        Service::builder(graph)
            .workers(2)
            .index(index.build())
            .prestige(prestige)
            .persistence(&leader_dir, FsyncPolicy::Always)
            .build(),
    );
    assert_ne!(
        engine_fingerprints(&leader, &queries),
        engine_fingerprints(&defaults, &queries),
        "the supplied parts must change some answer, or this proves nothing"
    );
    leader.set_replication_role(ReplicationRole::Leader);
    let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();
    let follower = Arc::new(
        Service::builder(boot_graph(&mut rng))
            .workers(2)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build(),
    );
    let client = Follower::start(
        Arc::clone(&follower),
        &format!("http://{}", server.local_addr()),
    )
    .unwrap();
    assert_converged(&leader, &follower, &queries, "supplied parts, bootstrap");
    for step in 0..6 {
        let nodes = leader.snapshot().graph().num_nodes() as u32;
        let report = leader.apply_mutations(&random_batch(&mut rng, nodes));
        assert!(report.persist_error.is_none(), "WAL append");
        assert_converged(
            &leader,
            &follower,
            &queries,
            &format!("supplied parts, step {step}"),
        );
    }

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}
