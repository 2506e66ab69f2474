//! Tokenisation of attribute text and query strings.

use std::collections::HashSet;

/// The text tokenizer: splits on any non-alphanumeric character and
/// lower-cases.  Nothing is dropped — the paper's point about "frequently
/// occurring terms" (e.g. `database` in DBLP) is that they are *not* stop
/// words and still have to be handled efficiently.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// The raw tokens of a text: its maximal runs of alphanumeric
    /// characters, case preserved.
    pub(crate) fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
    }

    /// Lower-cases one raw token into `term` (replacing its contents): one
    /// step of [`Tokenizer::tokenize`] without a `String` per token.  ASCII
    /// is lower-cased in place; anything else goes through
    /// `str::to_lowercase`, which also handles a word-final `Σ`.
    pub(crate) fn normalize_into(raw: &str, term: &mut String) {
        term.clear();
        if raw.is_ascii() {
            term.push_str(raw);
            term.make_ascii_lowercase();
        } else {
            term.push_str(&raw.to_lowercase());
        }
    }

    /// Tokenises a text into lower-case terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        Self::raw_tokens(text).map(str::to_lowercase).collect()
    }

    /// Tokenises and deduplicates, preserving first-seen order.  Useful when
    /// indexing a document where each term should be posted once.
    pub fn tokenize_unique(&self, text: &str) -> Vec<String> {
        let mut seen = HashSet::new();
        self.tokenize(text)
            .into_iter()
            .filter(|t| seen.insert(t.clone()))
            .collect()
    }

    /// Normalises a single query keyword (phrase keywords are normalised
    /// term-by-term and re-joined with a single space).
    pub fn normalize_keyword(&self, keyword: &str) -> String {
        self.tokenize(keyword).join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        let t = Tokenizer;
        assert_eq!(
            t.tokenize("Bidirectional Expansion, for Keyword-Search!"),
            vec!["bidirectional", "expansion", "for", "keyword", "search"]
        );
    }

    #[test]
    fn keeps_digits() {
        let t = Tokenizer;
        assert_eq!(
            t.tokenize("VLDB 2005 paper #31"),
            vec!["vldb", "2005", "paper", "31"]
        );
    }

    #[test]
    fn unique_preserves_order() {
        let t = Tokenizer;
        assert_eq!(
            t.tokenize_unique("data data base data"),
            vec!["data", "base"]
        );
    }

    #[test]
    fn normalizes_phrases() {
        let t = Tokenizer;
        assert_eq!(
            t.normalize_keyword("  David   FERNANDEZ "),
            "david fernandez"
        );
        assert_eq!(t.normalize_keyword("C. Mohan"), "c mohan");
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        let t = Tokenizer;
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("  ,,, !!").is_empty());
    }
}
