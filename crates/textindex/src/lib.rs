//! # banks-textindex
//!
//! Keyword index substrate for the BANKS-II reproduction.
//!
//! The paper (Section 3) builds "a single index ... on values from selected
//! string-valued attributes from multiple tables. The index maps from
//! keywords to (table-name, tuple-id) pairs", and additionally treats a
//! query term that matches a *relation name* as matching every tuple of that
//! relation (Section 2.2).
//!
//! This crate provides:
//!
//! * [`Tokenizer`] — lower-casing, punctuation-splitting tokenizer,
//! * [`InvertedIndex`] / [`IndexBuilder`] — term → sorted posting list of
//!   node ids, plus per-kind pseudo terms for relation names; posting
//!   lists are `Arc`-shared so [`InvertedIndex::apply_delta`] can produce
//!   an incrementally-updated successor (only touched nodes re-tokenized,
//!   only affected terms rebuilt) when the graph mutates,
//! * [`Query`] — a parsed keyword query (supporting quoted phrases such as
//!   `"David Fernandez"` from the paper's DQ1), and
//! * [`KeywordMatches`] — the per-term origin sets `S_i` handed to the
//!   search algorithms, along with origin-size statistics used by the
//!   workload classifiers (tiny/small/medium/large keyword categories of
//!   Section 5.6).

pub mod index;
pub mod matches;
pub mod query;
pub mod tokenizer;

pub use index::{IndexBuilder, InvertedIndex, TermStats, TextChange, TextDelta};
pub use matches::KeywordMatches;
pub use query::Query;
pub use tokenizer::Tokenizer;
