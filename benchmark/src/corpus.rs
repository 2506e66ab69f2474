//! Inputs made from `--seed`: the synthetic DBLP corpus, the query pools
//! and the ingest batches.  The served program only ever sees what this
//! module generated; the seed itself never reaches it.

use std::collections::BTreeSet;

use banks_datagen::{DblpConfig, DblpDataset, OriginBias, WorkloadConfig, WorkloadGenerator};
use banks_graph::{DataGraph, MutationBatch, NodeId};

use crate::rng::Rng;

/// Entity counts of a DBLP-like corpus (the graph has ~6.5 nodes per
/// author: papers, `writes` and `cites` tuples included).
#[derive(Clone, Copy, Debug)]
pub struct CorpusSize {
    pub authors: usize,
    pub papers: usize,
    pub conferences: usize,
}

impl CorpusSize {
    /// ~8k nodes: the `server_demo` corpus.
    pub const N8K: CorpusSize = CorpusSize {
        authors: 600,
        papers: 1200,
        conferences: 8,
    };
    /// ~13k nodes.
    pub const N13K: CorpusSize = CorpusSize {
        authors: 1000,
        papers: 2000,
        conferences: 12,
    };
    /// ~26k nodes: the `BENCH_e2e.json` corpus (probe only, see README).
    pub const N26K: CorpusSize = CorpusSize {
        authors: 2000,
        papers: 4000,
        conferences: 12,
    };
}

pub fn generate(size: CorpusSize, seed: u64) -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors: size.authors,
        num_papers: size.papers,
        num_conferences: size.conferences,
        seed,
        ..DblpConfig::default()
    })
}

/// How many queries of each class a pool holds.  The 3-keyword classes
/// are the heavy ones: `Rare` adds a selective title word to two author
/// names, `Frequent` a word that matches a large share of the papers.
#[derive(Clone, Copy, Debug)]
pub struct PoolMix {
    pub any2: usize,
    pub rare3: usize,
    pub frequent3: usize,
}

impl PoolMix {
    /// The 6 : 1 : 1 mix of `search_saturate`, scaled to `total` queries.
    pub fn standard(total: usize) -> PoolMix {
        let heavy = total / 8;
        PoolMix {
            any2: total - 2 * heavy,
            rare3: heavy,
            frequent3: heavy,
        }
    }

    pub fn two_keyword(total: usize) -> PoolMix {
        PoolMix {
            any2: total,
            rare3: 0,
            frequent3: 0,
        }
    }

    pub fn total(&self) -> usize {
        self.any2 + self.rare3 + self.frequent3
    }
}

/// A pool of distinct queries (keyword lists) with the heavy classes
/// spread evenly through it, so any stretch of the cycle carries the same
/// mix.
pub fn query_pool(data: &DblpDataset, seed: u64, mix: PoolMix) -> Vec<Vec<String>> {
    let mut generator = WorkloadGenerator::new(data, seed);
    let mut seen = BTreeSet::new();
    let mut class = |n: usize, num_keywords: usize, origin_bias: OriginBias| {
        let mut out: Vec<Vec<String>> = Vec::with_capacity(n);
        // The generator may repeat itself; over-ask until n are distinct.
        for _ in 0..8 {
            if out.len() == n {
                break;
            }
            let cases = generator.generate(&WorkloadConfig {
                num_queries: 2 * (n - out.len()),
                num_keywords,
                answer_size: 5,
                origin_bias,
                compute_ground_truth: false,
                ..WorkloadConfig::default()
            });
            for case in cases {
                if out.len() < n && seen.insert(case.keywords.clone()) {
                    out.push(case.keywords);
                }
            }
        }
        assert_eq!(out.len(), n, "corpus too small for {n} distinct queries");
        out
    };
    let light = class(mix.any2, 2, OriginBias::Any);
    let rare = class(mix.rare3, 3, OriginBias::Rare);
    let frequent = class(mix.frequent3, 3, OriginBias::Frequent);

    let heavy_total = rare.len() + frequent.len();
    let total = mix.total();
    let (mut light, mut rare, mut frequent) =
        (light.into_iter(), rare.into_iter(), frequent.into_iter());
    let mut pool = Vec::with_capacity(total);
    let mut heavy_placed = 0;
    for slot in 0..total {
        // Bresenham spacing: slot j is heavy when the running heavy quota
        // crosses an integer there.
        if (slot + 1) * heavy_total / total > slot * heavy_total / total {
            let next = if heavy_placed % 2 == 0 {
                rare.next().or_else(|| frequent.next())
            } else {
                frequent.next().or_else(|| rare.next())
            };
            heavy_placed += 1;
            pool.push(next.expect("heavy quota matches the class sizes"));
        } else {
            pool.push(light.next().expect("light quota matches the class size"));
        }
    }
    pool
}

/// One ingest batch and what the harness later checks about it.
pub struct IngestBatch {
    pub batch: MutationBatch,
    /// The `POST /admin/mutate` JSON body for the same ops.
    pub body: String,
    /// A token unique to this batch's paper title.
    pub token: String,
}

/// `count` batches against `graph`, each adding a paper, its `writes`
/// tuple and 2–3 edges (writes → paper, writes → an existing author, and
/// for every other batch a citation of an existing paper).  Node ids are
/// dense, so batch `i`'s new nodes are `base + 2i` and `base + 2i + 1` —
/// valid only when the batches are applied in order with nothing between.
pub fn ingest_batches(graph: &DataGraph, seed: u64, count: usize) -> Vec<IngestBatch> {
    let mut rng = Rng::new(seed ^ 0x1A6E_57ED);
    let of_kind = |kind: &str| -> Vec<NodeId> {
        graph
            .nodes()
            .filter(|n| graph.node_kind_name(*n) == kind)
            .collect()
    };
    let authors = of_kind("author");
    let papers = of_kind("paper");
    assert!(!authors.is_empty() && !papers.is_empty(), "DBLP corpus");
    let base = graph.num_nodes() as u32;
    (0..count)
        .map(|i| {
            // Title: words of an existing title (so ingested papers match
            // the pool's keywords now and then) plus the unique token.
            let donor = graph.node_label(papers[rng.below(papers.len())]);
            let token = format!("ingest{seed}x{i}");
            let title = format!("{donor} {token}");
            let paper = base + 2 * i as u32;
            let writes = paper + 1;
            let author = authors[rng.below(authors.len())].0;
            let mut batch = MutationBatch::new()
                .add_node("paper", title.clone())
                .add_node("writes", format!("w-{token}"))
                .add_edge(NodeId(writes), NodeId(paper))
                .add_edge(NodeId(writes), NodeId(author));
            let mut ops = vec![
                format!(
                    "{{\"op\":\"add_node\",\"kind\":\"paper\",\"label\":{}}}",
                    banks_core::json::string(&title)
                ),
                format!("{{\"op\":\"add_node\",\"kind\":\"writes\",\"label\":\"w-{token}\"}}"),
                format!("{{\"op\":\"add_edge\",\"from\":{writes},\"to\":{paper}}}"),
                format!("{{\"op\":\"add_edge\",\"from\":{writes},\"to\":{author}}}"),
            ];
            if i % 2 == 1 {
                let cited = papers[rng.below(papers.len())].0;
                batch = batch.add_edge(NodeId(paper), NodeId(cited));
                ops.push(format!(
                    "{{\"op\":\"add_edge\",\"from\":{paper},\"to\":{cited}}}"
                ));
            }
            IngestBatch {
                batch,
                body: format!("{{\"ops\":[{}]}}", ops.join(",")),
                token,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_repeat_per_seed_are_distinct_and_interleave_heavy_queries() {
        let data = generate(CorpusSize::N8K, 5);
        let mix = PoolMix::standard(32);
        let a = query_pool(&data, 9, mix);
        assert_eq!(a, query_pool(&data, 9, mix));
        assert_ne!(a, query_pool(&data, 10, mix));
        assert_eq!(a.len(), 32);
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), 32);
        let heavy: Vec<usize> = (0..32).filter(|i| a[*i].len() == 3).collect();
        assert_eq!(heavy.len(), 8);
        assert!(heavy.windows(2).all(|w| w[1] - w[0] == 4), "{heavy:?}");
    }

    #[test]
    fn ingest_batches_apply_cleanly_in_order() {
        let data = generate(CorpusSize::N8K, 5);
        let mut graph = data.dataset.graph().clone();
        for ingest in ingest_batches(&graph.clone(), 5, 6) {
            let (next, outcome) = graph.apply_batch(&ingest.batch);
            assert_eq!(outcome.rejected(), 0, "{:?}", outcome.results);
            graph = next;
        }
        assert_eq!(graph.num_nodes(), data.dataset.graph().num_nodes() + 12);
    }
}
