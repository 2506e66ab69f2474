//! Synthetic DBLP-like bibliography generator.
//!
//! Reproduces the structural features the paper relies on:
//!
//! * a `conference-catalog` metadata tuple referenced by every conference —
//!   the "conference node with large degree" motivating edge directionality,
//! * papers referencing their conference (so conferences are hubs),
//! * Zipf-distributed author productivity (a few authors write very many
//!   papers — the "C. Mohan" effect of Section 5.5),
//! * Zipf-distributed citations (a few heavily cited papers),
//! * Zipf-distributed title vocabulary (a few words such as `database`
//!   match a large fraction of the papers).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use banks_relational::{Database, DatabaseSchema, GraphExtraction, TableId};

use crate::vocab::Vocabulary;
use crate::zipf::Zipf;
use crate::Dataset;

/// Configuration of the DBLP-like generator.
#[derive(Clone, Copy, Debug)]
pub struct DblpConfig {
    /// Number of author tuples.
    pub num_authors: usize,
    /// Number of paper tuples.
    pub num_papers: usize,
    /// Number of conference tuples.
    pub num_conferences: usize,
    /// Maximum number of authors per paper (sampled 1..=max).
    pub max_authors_per_paper: usize,
    /// Average number of citations per paper.
    pub citations_per_paper: usize,
    /// Number of words per title.
    pub title_words: usize,
    /// Zipf exponent for author productivity and citation popularity.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            num_authors: 3_000,
            num_papers: 5_000,
            num_conferences: 25,
            max_authors_per_paper: 3,
            citations_per_paper: 3,
            title_words: 8,
            skew: 0.9,
            seed: 42,
        }
    }
}

impl DblpConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        DblpConfig {
            num_authors: 60,
            num_papers: 120,
            num_conferences: 4,
            seed: 7,
            ..Default::default()
        }
    }

    /// Scales the entity counts by a factor (used by the benches to sweep
    /// graph sizes).
    pub fn scaled(factor: usize) -> Self {
        let base = Self::default();
        DblpConfig {
            num_authors: base.num_authors * factor,
            num_papers: base.num_papers * factor,
            num_conferences: base.num_conferences + factor,
            ..base
        }
    }
}

/// The generated DBLP-like dataset plus its table ids.
#[derive(Debug)]
pub struct DblpDataset {
    /// Relational + graph forms.
    pub dataset: Dataset,
    /// `catalog(name)` — the single metadata tuple.
    pub catalog: TableId,
    /// `conference(name, catalog)` table.
    pub conference: TableId,
    /// `author(name)` table.
    pub author: TableId,
    /// `paper(title, conference)` table.
    pub paper: TableId,
    /// `writes(author, paper)` table.
    pub writes: TableId,
    /// `cites(citing, cited)` table.
    pub cites: TableId,
}

impl DblpDataset {
    /// Generates a dataset.
    pub fn generate(config: DblpConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let vocab = Vocabulary::default();

        let mut schema = DatabaseSchema::new();
        let catalog = schema
            .add_simple_table("catalog", &["name"], &[])
            .expect("schema");
        let conference = schema
            .add_simple_table("conference", &["name"], &[("catalog", catalog)])
            .expect("schema");
        let author = schema
            .add_simple_table("author", &["name"], &[])
            .expect("schema");
        let paper = schema
            .add_simple_table("paper", &["title"], &[("conference", conference)])
            .expect("schema");
        let writes = schema
            .add_simple_table("writes", &[], &[("author", author), ("paper", paper)])
            .expect("schema");
        let cites = schema
            .add_simple_table("cites", &[], &[("citing", paper), ("cited", paper)])
            .expect("schema");
        let mut db = Database::new(schema);

        // Metadata hub and conferences.
        let catalog_row = db
            .insert(catalog, vec!["conference catalog".into()])
            .expect("insert");
        for c in 0..config.num_conferences {
            let name = vocab.org_name(&mut rng, "Conference", c);
            db.insert(conference, vec![name.into(), catalog_row.into()])
                .expect("insert");
        }

        // Authors.
        for a in 0..config.num_authors {
            let name = vocab.person_name(&mut rng, a);
            db.insert(author, vec![name.into()]).expect("insert");
        }

        // Papers.
        let author_zipf = Zipf::new(config.num_authors.max(1), config.skew);
        let conf_zipf = Zipf::new(config.num_conferences.max(1), config.skew);
        for _ in 0..config.num_papers {
            let title = vocab.title(&mut rng, config.title_words);
            let conf = conf_zipf.sample(&mut rng) as u32;
            let paper_row = db
                .insert(paper, vec![title.into(), conf.into()])
                .expect("insert");
            // authorship
            let num_authors = rng.gen_range(1..=config.max_authors_per_paper.max(1));
            let mut chosen: Vec<u32> = Vec::with_capacity(num_authors);
            while chosen.len() < num_authors {
                let candidate = author_zipf.sample(&mut rng) as u32;
                if !chosen.contains(&candidate) {
                    chosen.push(candidate);
                }
            }
            for author_row in chosen {
                db.insert(writes, vec![author_row.into(), paper_row.into()])
                    .expect("insert");
            }
        }

        // Citations (papers cite earlier papers; popularity is skewed): paper
        // `citing` draws from Zipf(citing), the first `citing` ranks of one
        // shared table.
        let popularity = Zipf::new(config.num_papers.max(1), config.skew + 0.2);
        for citing in 1..config.num_papers as u32 {
            let count = rng.gen_range(0..=config.citations_per_paper * 2);
            for _ in 0..count {
                let cited = popularity.sample_first(citing as usize, &mut rng) as u32;
                if cited != citing {
                    db.insert(cites, vec![citing.into(), cited.into()])
                        .expect("insert");
                }
            }
        }

        let extraction = GraphExtraction::extract(&db);
        DblpDataset {
            dataset: Dataset { db, extraction },
            catalog,
            conference,
            author,
            paper,
            writes,
            cites,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::GraphStats;

    #[test]
    fn generates_consistent_dataset() {
        let d = DblpDataset::generate(DblpConfig::tiny());
        let db = &d.dataset.db;
        assert_eq!(db.num_rows(d.author), 60);
        assert_eq!(db.num_rows(d.paper), 120);
        assert_eq!(db.num_rows(d.catalog), 1);
        assert!(db.num_rows(d.writes) >= 120);
        assert!(db.check_integrity().is_ok());
        // graph extraction covers every tuple
        assert_eq!(d.dataset.graph().num_nodes(), db.total_rows());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DblpDataset::generate(DblpConfig::tiny());
        let b = DblpDataset::generate(DblpConfig::tiny());
        assert_eq!(a.dataset.graph().num_nodes(), b.dataset.graph().num_nodes());
        assert_eq!(
            a.dataset.graph().num_original_edges(),
            b.dataset.graph().num_original_edges()
        );
        let c = DblpDataset::generate(DblpConfig {
            seed: 99,
            ..DblpConfig::tiny()
        });
        // different seed, very likely different edge count (citations are random)
        assert!(
            c.dataset.graph().num_original_edges() != a.dataset.graph().num_original_edges()
                || c.dataset.db.row_text(c.author, 0) != a.dataset.db.row_text(a.author, 0)
        );
    }

    #[test]
    fn conference_hubs_exist() {
        let d = DblpDataset::generate(DblpConfig::tiny());
        let stats = GraphStats::compute(d.dataset.graph());
        // the catalog node and/or popular conferences should have large fan-in
        assert!(
            stats.max_forward_indegree >= 10,
            "max indegree {}",
            stats.max_forward_indegree
        );
    }

    #[test]
    fn frequent_keyword_matches_many_papers() {
        let d = DblpDataset::generate(DblpConfig::tiny());
        let matches = d
            .dataset
            .index()
            .matching_nodes(d.dataset.graph(), "database");
        assert!(
            matches.len() > 20,
            "expected the top topic word to match many papers, got {}",
            matches.len()
        );
        // relation name matches every paper tuple
        let papers = d.dataset.index().matching_nodes(d.dataset.graph(), "paper");
        assert_eq!(papers.len(), 120);
    }

    #[test]
    fn author_names_are_rare_keywords() {
        let d = DblpDataset::generate(DblpConfig::tiny());
        let name = d.dataset.db.row_text(d.author, 0).to_lowercase();
        let matches = d.dataset.index().matching_nodes(d.dataset.graph(), &name);
        assert!(!matches.is_empty());
        assert!(
            matches.len() <= 3,
            "author full name should be rare, matched {}",
            matches.len()
        );
    }
}
