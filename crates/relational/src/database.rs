//! The in-memory database: typed rows, foreign-key indexes and keyword
//! selections.

use std::collections::HashMap;

use banks_textindex::Tokenizer;

use crate::error::RelationalError;
use crate::schema::{ColumnType, DatabaseSchema, TableId};
use crate::value::Value;
use crate::Result;

/// Row identifier within a table (its insertion position).
pub type RowId = u32;

/// Globally unique tuple identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// The table.
    pub table: TableId,
    /// The row within the table.
    pub row: RowId,
}

impl TupleId {
    /// Creates a tuple id.
    pub fn new(table: TableId, row: RowId) -> Self {
        TupleId { table, row }
    }
}

#[derive(Clone, Debug, Default)]
struct TableData {
    rows: Vec<Vec<Value>>,
    /// Per foreign-key column: target row id -> referencing row ids.
    fk_indexes: HashMap<usize, HashMap<RowId, Vec<RowId>>>,
}

/// An in-memory relational database instance.
#[derive(Clone, Debug)]
pub struct Database {
    schema: DatabaseSchema,
    tables: Vec<TableData>,
}

impl Database {
    /// Creates an empty database for a schema.
    ///
    /// # Panics
    /// Panics if the schema fails validation (programming error in the
    /// caller; the dataset generators construct schemas statically).
    pub fn new(schema: DatabaseSchema) -> Self {
        schema.validate().expect("invalid schema");
        let tables = vec![TableData::default(); schema.num_tables()];
        Database { schema, tables }
    }

    /// The schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Inserts a row and returns its row id.
    pub fn insert(&mut self, table: TableId, values: Vec<Value>) -> Result<RowId> {
        let schema = self.schema.table(table);
        if values.len() != schema.columns.len() {
            return Err(RelationalError::RowShapeMismatch {
                table: schema.name.clone(),
                message: format!(
                    "expected {} values, got {}",
                    schema.columns.len(),
                    values.len()
                ),
            });
        }
        for (column, value) in schema.columns.iter().zip(values.iter()) {
            let ok = matches!(
                (column.column_type, value),
                (_, Value::Null)
                    | (ColumnType::Int, Value::Int(_))
                    | (ColumnType::Text, Value::Text(_))
            );
            if !ok {
                return Err(RelationalError::RowShapeMismatch {
                    table: schema.name.clone(),
                    message: format!("column {} has incompatible value {value}", column.name),
                });
            }
        }
        let data = &mut self.tables[table.index()];
        let row_id = data.rows.len() as RowId;
        // maintain FK indexes
        for fk in &schema.foreign_keys {
            if let Some(target_row) = values[fk.column].as_int() {
                data.fk_indexes
                    .entry(fk.column)
                    .or_default()
                    .entry(target_row as RowId)
                    .or_default()
                    .push(row_id);
            }
        }
        data.rows.push(values);
        Ok(row_id)
    }

    /// Number of rows in a table.
    pub fn num_rows(&self, table: TableId) -> usize {
        self.tables[table.index()].rows.len()
    }

    /// Total number of tuples across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// A row's values.
    pub fn row(&self, table: TableId, row: RowId) -> Option<&[Value]> {
        self.tables[table.index()]
            .rows
            .get(row as usize)
            .map(|r| r.as_slice())
    }

    /// A single cell.
    pub fn cell(&self, tuple: TupleId, column: usize) -> Option<&Value> {
        self.row(tuple.table, tuple.row).and_then(|r| r.get(column))
    }

    /// Iterates over the row ids of a table.
    pub fn rows(&self, table: TableId) -> impl Iterator<Item = RowId> {
        0..self.num_rows(table) as RowId
    }

    /// Concatenated text content of a row (all text columns joined by a
    /// space) — this is what gets indexed for keyword search.
    pub fn row_text(&self, table: TableId, row: RowId) -> String {
        let schema = self.schema.table(table);
        let values = &self.tables[table.index()].rows[row as usize];
        schema
            .text_columns()
            .into_iter()
            .filter_map(|c| values[c].as_text())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Row ids of `table` whose text contains the (already normalised)
    /// keyword — the relational equivalent of a keyword selection.  A
    /// multi-word keyword must have all of its words present.
    pub fn keyword_selection(&self, table: TableId, keyword: &str) -> Vec<RowId> {
        let terms = Tokenizer.tokenize(keyword);
        if terms.is_empty() {
            return Vec::new();
        }
        self.rows(table)
            .filter(|row| {
                let tokens = Tokenizer.tokenize(&self.row_text(table, *row));
                terms.iter().all(|t| tokens.contains(t))
            })
            .collect()
    }

    /// Rows of `table` referencing `target_row` through the foreign key in
    /// column `fk_column` (uses the maintained index).
    pub fn referencing_rows(
        &self,
        table: TableId,
        fk_column: usize,
        target_row: RowId,
    ) -> &[RowId] {
        self.tables[table.index()]
            .fk_indexes
            .get(&fk_column)
            .and_then(|idx| idx.get(&target_row))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The row referenced by `row`'s foreign key in `fk_column`, if set.
    pub fn referenced_row(&self, table: TableId, row: RowId, fk_column: usize) -> Option<RowId> {
        self.row(table, row)
            .and_then(|values| values.get(fk_column))
            .and_then(Value::as_int)
            .map(|v| v as RowId)
    }

    /// Verifies referential integrity of every foreign key.
    pub fn check_integrity(&self) -> Result<()> {
        for (table_id, schema) in self.schema.tables() {
            for fk in &schema.foreign_keys {
                for row in self.rows(table_id) {
                    if let Some(target) = self.referenced_row(table_id, row, fk.column) {
                        if (target as usize) >= self.num_rows(fk.target) {
                            return Err(RelationalError::DanglingReference {
                                table: schema.name.clone(),
                                column: schema.columns[fk.column].name.clone(),
                                target,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatabaseSchema;

    fn tiny_db() -> (Database, TableId, TableId, TableId) {
        let mut schema = DatabaseSchema::new();
        let author = schema.add_simple_table("author", &["name"], &[]).unwrap();
        let paper = schema.add_simple_table("paper", &["title"], &[]).unwrap();
        let writes = schema
            .add_simple_table("writes", &[], &[("aid", author), ("pid", paper)])
            .unwrap();
        let mut db = Database::new(schema);
        let a0 = db.insert(author, vec!["Jim Gray".into()]).unwrap();
        let a1 = db.insert(author, vec!["David Fernandez".into()]).unwrap();
        let p0 = db
            .insert(paper, vec!["Transaction recovery".into()])
            .unwrap();
        let p1 = db
            .insert(paper, vec!["Parametric query optimization".into()])
            .unwrap();
        db.insert(writes, vec![a0.into(), p0.into()]).unwrap();
        db.insert(writes, vec![a1.into(), p1.into()]).unwrap();
        db.insert(writes, vec![a0.into(), p1.into()]).unwrap();
        (db, author, paper, writes)
    }

    #[test]
    fn insert_and_read_back() {
        let (db, author, paper, writes) = tiny_db();
        assert_eq!(db.num_rows(author), 2);
        assert_eq!(db.num_rows(paper), 2);
        assert_eq!(db.num_rows(writes), 3);
        assert_eq!(db.total_rows(), 7);
        assert_eq!(db.row(author, 0).unwrap()[0].as_text(), Some("Jim Gray"));
        assert_eq!(
            db.cell(TupleId::new(writes, 1), 0).unwrap().as_int(),
            Some(1)
        );
        assert!(db.row(author, 5).is_none());
        assert!(db.check_integrity().is_ok());
    }

    #[test]
    fn rejects_bad_rows() {
        let (mut db, author, _, writes) = tiny_db();
        assert!(db.insert(author, vec![]).is_err());
        assert!(db.insert(author, vec![Value::Int(3)]).is_err());
        assert!(db.insert(writes, vec!["x".into(), Value::Int(0)]).is_err());
        // nulls are allowed anywhere
        assert!(db.insert(author, vec![Value::Null]).is_ok());
    }

    #[test]
    fn keyword_selection_matches_rows() {
        let (db, author, paper, _) = tiny_db();
        assert_eq!(db.keyword_selection(author, "gray"), vec![0]);
        assert_eq!(db.keyword_selection(author, "fernandez"), vec![1]);
        assert_eq!(db.keyword_selection(paper, "query optimization"), vec![1]);
        assert!(db.keyword_selection(paper, "gray").is_empty());
        assert!(db.keyword_selection(paper, "").is_empty());
    }

    #[test]
    fn fk_indexes_answer_reference_lookups() {
        let (db, _, _, writes) = tiny_db();
        // writes rows referencing author 0: rows 0 and 2
        assert_eq!(db.referencing_rows(writes, 0, 0), &[0, 2]);
        assert_eq!(db.referencing_rows(writes, 0, 1), &[1]);
        assert_eq!(db.referencing_rows(writes, 1, 1), &[1, 2]);
        assert!(db.referencing_rows(writes, 0, 9).is_empty());
        assert_eq!(db.referenced_row(writes, 2, 1), Some(1));
    }

    #[test]
    fn integrity_check_catches_dangling_references() {
        let (mut db, _, _, writes) = tiny_db();
        db.insert(writes, vec![Value::Int(99), Value::Int(0)])
            .unwrap();
        assert!(matches!(
            db.check_integrity(),
            Err(RelationalError::DanglingReference { .. })
        ));
    }

    #[test]
    fn row_text_concatenates_text_columns() {
        let mut schema = DatabaseSchema::new();
        let t = schema
            .add_simple_table("person", &["first", "last"], &[])
            .unwrap();
        let mut db = Database::new(schema);
        db.insert(t, vec!["Ada".into(), "Lovelace".into()]).unwrap();
        assert_eq!(db.row_text(t, 0), "Ada Lovelace");
        assert_eq!(db.keyword_selection(t, "ada lovelace"), vec![0]);
    }
}
