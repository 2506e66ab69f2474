//! Relational → graph extraction (Section 2.1 of the paper).
//!
//! "For each row `r` in a database that we need to represent, the data graph
//! has a corresponding node `u_r` ... For each pair of tuples `r1` and `r2`
//! such that there is a foreign key from `r1` to `r2`, the graph contains an
//! edge from `u_{r1}` to `u_{r2}`."
//!
//! The extraction also builds the keyword index over the text attributes and
//! registers every relation name as a pseudo term (so that a query term
//! matching a table name matches every tuple of that table), and keeps the
//! tuple ↔ node correspondence so relationally-derived ground truth can be
//! translated into graph node sets.

use banks_graph::{DataGraph, GraphBuilder, NodeId};
use banks_textindex::{IndexBuilder, InvertedIndex};

use crate::database::{Database, TupleId};

/// The product of extracting a [`Database`] into graph form.
#[derive(Clone, Debug)]
pub struct GraphExtraction {
    /// The data graph (tuples as nodes, foreign keys as edges, each with
    /// its weighted backward twin).
    pub graph: DataGraph,
    /// Keyword index over the tuples' text attributes.
    pub index: InvertedIndex,
    /// `node_offsets[t]` is the node id of row 0 of table `t`; rows are laid
    /// out contiguously per table.
    node_offsets: Vec<u32>,
}

impl GraphExtraction {
    /// Extracts a database into the paper's data graph and its keyword
    /// index.
    pub fn extract(db: &Database) -> Self {
        let schema = db.schema();
        let mut builder = GraphBuilder::with_capacity(db.total_rows(), db.total_rows());
        let mut index_builder = IndexBuilder::new();

        // Pass 1: nodes, laid out table by table.
        let mut node_offsets = Vec::with_capacity(schema.num_tables());
        for (table_id, table) in schema.tables() {
            node_offsets.push(builder.num_nodes() as u32);
            let kind = builder.kind(&table.name);
            for row in db.rows(table_id) {
                let text = db.row_text(table_id, row);
                let label = if text.is_empty() {
                    format!("{}#{row}", table.name)
                } else {
                    text.clone()
                };
                let node = builder.add_node_with_kind(kind, label);
                if !text.is_empty() {
                    index_builder.add_text(node, &text);
                }
            }
        }

        // Relation names as pseudo terms.
        let offsets = node_offsets.clone();
        for (table_id, table) in schema.tables() {
            // kind ids were interned in pass 1 in the same order as tables
            let kind = banks_graph::KindId(table_id.0);
            index_builder.add_relation_name(&table.name, kind);
        }

        // Pass 2: edges from foreign keys.
        for (table_id, table) in schema.tables() {
            for fk in &table.foreign_keys {
                for row in db.rows(table_id) {
                    if let Some(target_row) = db.referenced_row(table_id, row, fk.column) {
                        let from = NodeId(offsets[table_id.index()] + row);
                        let to = NodeId(offsets[fk.target.index()] + target_row);
                        builder
                            .add_edge(from, to)
                            .expect("extraction produced an out-of-range edge");
                    }
                }
            }
        }

        let graph = builder.build_default();
        let index = index_builder.build();
        GraphExtraction {
            graph,
            index,
            node_offsets,
        }
    }

    /// The graph node corresponding to a tuple.
    pub fn node_of(&self, tuple: TupleId) -> NodeId {
        NodeId(self.node_offsets[tuple.table.index()] + tuple.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatabaseSchema, TableId};
    use banks_graph::EdgeKind;

    fn tiny_db() -> (Database, TableId, TableId, TableId) {
        let mut schema = DatabaseSchema::new();
        let author = schema.add_simple_table("author", &["name"], &[]).unwrap();
        let paper = schema.add_simple_table("paper", &["title"], &[]).unwrap();
        let writes = schema
            .add_simple_table("writes", &[], &[("aid", author), ("pid", paper)])
            .unwrap();
        let mut db = Database::new(schema);
        db.insert(author, vec!["Jim Gray".into()]).unwrap();
        db.insert(author, vec!["David Fernandez".into()]).unwrap();
        db.insert(paper, vec!["Transaction recovery".into()])
            .unwrap();
        db.insert(paper, vec!["Parametric query optimization".into()])
            .unwrap();
        db.insert(writes, vec![0u32.into(), 0u32.into()]).unwrap();
        db.insert(writes, vec![1u32.into(), 1u32.into()]).unwrap();
        (db, author, paper, writes)
    }

    #[test]
    fn nodes_and_edges_mirror_tuples_and_fks() {
        let (db, author, paper, writes) = tiny_db();
        let ext = GraphExtraction::extract(&db);
        assert_eq!(ext.graph.num_nodes(), db.total_rows());
        // 2 FK columns * 2 writes rows = 4 forward edges
        assert_eq!(ext.graph.num_original_edges(), 4);
        assert_eq!(ext.graph.num_directed_edges(), 8);

        // writes row 0 points at author 0 and paper 0
        let w0 = ext.node_of(TupleId::new(writes, 0));
        let a0 = ext.node_of(TupleId::new(author, 0));
        let p0 = ext.node_of(TupleId::new(paper, 0));
        assert!(ext
            .graph
            .out_edges(w0)
            .any(|e| e.to == a0 && e.kind == EdgeKind::Forward));
        assert!(ext
            .graph
            .out_edges(w0)
            .any(|e| e.to == p0 && e.kind == EdgeKind::Forward));
    }

    #[test]
    fn node_kinds_and_labels_come_from_tables() {
        let (db, author, _, writes) = tiny_db();
        let ext = GraphExtraction::extract(&db);
        let a1 = ext.node_of(TupleId::new(author, 1));
        assert_eq!(ext.graph.node_kind_name(a1), "author");
        assert_eq!(ext.graph.node_label(a1), "David Fernandez");
        // writes rows have no text columns -> synthetic label
        let w0 = ext.node_of(TupleId::new(writes, 0));
        assert_eq!(ext.graph.node_kind_name(w0), "writes");
        assert!(ext.graph.node_label(w0).starts_with("writes#"));
    }

    #[test]
    fn index_covers_text_and_relation_names() {
        let (db, author, paper, _) = tiny_db();
        let ext = GraphExtraction::extract(&db);
        let a0 = ext.node_of(TupleId::new(author, 0));
        assert_eq!(ext.index.matching_nodes(&ext.graph, "gray"), vec![a0]);
        // relation name 'paper' matches both paper tuples
        let papers = ext.index.matching_nodes(&ext.graph, "paper");
        assert_eq!(papers.len(), 2);
        assert!(papers.contains(&ext.node_of(TupleId::new(paper, 0))));
    }
}
