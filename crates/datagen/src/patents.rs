//! Synthetic US-Patents-like dataset generator (patents, inventors,
//! assignee companies, categories, citations), used by the paper's `UQ*`
//! sample queries such as "Microsoft recovery".

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use banks_relational::{Database, DatabaseSchema, GraphExtraction, TableId};

use crate::vocab::Vocabulary;
use crate::zipf::Zipf;
use crate::Dataset;

/// Configuration of the patents generator.
#[derive(Clone, Copy, Debug)]
pub struct PatentsConfig {
    /// Number of inventor tuples.
    pub num_inventors: usize,
    /// Number of patent tuples.
    pub num_patents: usize,
    /// Number of assignee (company) tuples.
    pub num_assignees: usize,
    /// Number of category tuples.
    pub num_categories: usize,
    /// Maximum inventors per patent.
    pub max_inventors_per_patent: usize,
    /// Average citations per patent.
    pub citations_per_patent: usize,
    /// Words per patent title.
    pub title_words: usize,
    /// Zipf exponent for assignee / inventor popularity.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PatentsConfig {
    fn default() -> Self {
        PatentsConfig {
            num_inventors: 4_000,
            num_patents: 6_000,
            num_assignees: 100,
            num_categories: 30,
            max_inventors_per_patent: 3,
            citations_per_patent: 4,
            title_words: 10,
            skew: 1.0,
            seed: 44,
        }
    }
}

impl PatentsConfig {
    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        PatentsConfig {
            num_inventors: 60,
            num_patents: 100,
            num_assignees: 8,
            num_categories: 5,
            seed: 13,
            ..Default::default()
        }
    }
}

/// The generated patents dataset plus its table ids.
#[derive(Debug)]
pub struct PatentsDataset {
    /// Relational + graph forms.
    pub dataset: Dataset,
    /// `assignee(name)` table.
    pub assignee: TableId,
    /// `category(name)` table.
    pub category: TableId,
    /// `inventor(name)` table.
    pub inventor: TableId,
    /// `patent(title, assignee, category)` table.
    pub patent: TableId,
    /// `invented_by(inventor, patent)` table.
    pub invented_by: TableId,
    /// `patent_cites(citing, cited)` table.
    pub patent_cites: TableId,
}

impl PatentsDataset {
    /// Generates a dataset.
    pub fn generate(config: PatentsConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let vocab = Vocabulary::default();

        let mut schema = DatabaseSchema::new();
        let assignee = schema
            .add_simple_table("assignee", &["name"], &[])
            .expect("schema");
        let category = schema
            .add_simple_table("category", &["name"], &[])
            .expect("schema");
        let inventor = schema
            .add_simple_table("inventor", &["name"], &[])
            .expect("schema");
        let patent = schema
            .add_simple_table(
                "patent",
                &["title"],
                &[("assignee", assignee), ("category", category)],
            )
            .expect("schema");
        let invented_by = schema
            .add_simple_table(
                "invented_by",
                &[],
                &[("inventor", inventor), ("patent", patent)],
            )
            .expect("schema");
        let patent_cites = schema
            .add_simple_table(
                "patent_cites",
                &[],
                &[("citing", patent), ("cited", patent)],
            )
            .expect("schema");
        let mut db = Database::new(schema);

        for a in 0..config.num_assignees {
            let name = vocab.org_name(&mut rng, "Corporation", a);
            db.insert(assignee, vec![name.into()]).expect("insert");
        }
        for c in 0..config.num_categories {
            let name = vocab.org_name(&mut rng, "Class", c);
            db.insert(category, vec![name.into()]).expect("insert");
        }
        for i in 0..config.num_inventors {
            let name = vocab.person_name(&mut rng, i);
            db.insert(inventor, vec![name.into()]).expect("insert");
        }

        let inventor_zipf = Zipf::new(config.num_inventors.max(1), config.skew);
        let assignee_zipf = Zipf::new(config.num_assignees.max(1), config.skew);
        for _ in 0..config.num_patents {
            let title = vocab.title(&mut rng, config.title_words);
            let company = assignee_zipf.sample(&mut rng) as u32;
            let class = rng.gen_range(0..config.num_categories as u32);
            let patent_row = db
                .insert(patent, vec![title.into(), company.into(), class.into()])
                .expect("insert");
            let team = rng.gen_range(1..=config.max_inventors_per_patent.max(1));
            let mut chosen: Vec<u32> = Vec::with_capacity(team);
            while chosen.len() < team {
                let candidate = inventor_zipf.sample(&mut rng) as u32;
                if !chosen.contains(&candidate) {
                    chosen.push(candidate);
                }
            }
            for inv in chosen {
                db.insert(invented_by, vec![inv.into(), patent_row.into()])
                    .expect("insert");
            }
        }
        // Patent `citing` draws from Zipf(citing): a prefix of one table.
        let popularity = Zipf::new(config.num_patents.max(1), config.skew + 0.2);
        for citing in 1..config.num_patents as u32 {
            let count = rng.gen_range(0..=config.citations_per_patent);
            for _ in 0..count {
                let cited = popularity.sample_first(citing as usize, &mut rng) as u32;
                if cited != citing {
                    db.insert(patent_cites, vec![citing.into(), cited.into()])
                        .expect("insert");
                }
            }
        }

        let extraction = GraphExtraction::extract(&db);
        PatentsDataset {
            dataset: Dataset { db, extraction },
            assignee,
            category,
            inventor,
            patent,
            invented_by,
            patent_cites,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_dataset() {
        let d = PatentsDataset::generate(PatentsConfig::tiny());
        let db = &d.dataset.db;
        assert_eq!(db.num_rows(d.patent), 100);
        assert_eq!(db.num_rows(d.assignee), 8);
        assert!(db.num_rows(d.invented_by) >= 100);
        assert!(db.check_integrity().is_ok());
        assert_eq!(d.dataset.graph().num_nodes(), db.total_rows());
    }

    #[test]
    fn company_keyword_matches_assignee_and_connects_to_patents() {
        let d = PatentsDataset::generate(PatentsConfig::tiny());
        let name = d.dataset.db.row_text(d.assignee, 0).to_lowercase();
        let first_word = name.split(' ').next().unwrap();
        let matches = d
            .dataset
            .index()
            .matching_nodes(d.dataset.graph(), first_word);
        assert!(!matches.is_empty());
        // the most popular assignee is a hub
        let node = d
            .dataset
            .extraction
            .node_of(banks_relational::TupleId::new(d.assignee, 0));
        assert!(d.dataset.graph().forward_indegree(node) >= 5);
    }

    #[test]
    fn determinism_per_seed() {
        let a = PatentsDataset::generate(PatentsConfig::tiny());
        let b = PatentsDataset::generate(PatentsConfig::tiny());
        assert_eq!(
            a.dataset.graph().num_original_edges(),
            b.dataset.graph().num_original_edges()
        );
    }
}
