//! Tokenisation of attribute text and query strings.

use std::collections::HashSet;

/// Default English stop words.  Deliberately tiny: the paper's point about
/// "frequently occurring terms" (e.g. `database` in DBLP) is that they are
/// *not* stop words and still have to be handled efficiently, so we only
/// drop true function words.
const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "is", "it", "of", "on",
    "or", "that", "the", "to", "with",
];

/// A configurable text tokenizer.
///
/// Splits on any non-alphanumeric character, lower-cases and optionally
/// removes stop words and/or tokens shorter than a minimum length.
#[derive(Clone, Debug)]
pub struct Tokenizer {
    stopwords: HashSet<String>,
    remove_stopwords: bool,
    min_token_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            stopwords: DEFAULT_STOPWORDS.iter().map(|s| s.to_string()).collect(),
            remove_stopwords: false,
            min_token_len: 1,
        }
    }
}

impl Tokenizer {
    /// Creates the default tokenizer (no stop-word removal, minimum token
    /// length 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables stop-word removal.
    pub fn with_stopword_removal(mut self, enabled: bool) -> Self {
        self.remove_stopwords = enabled;
        self
    }

    /// Replaces the stop-word list.
    pub fn with_stopwords<I, S>(mut self, words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.stopwords = words.into_iter().map(|w| w.into().to_lowercase()).collect();
        self
    }

    /// Sets the minimum token length; shorter tokens are discarded.
    pub fn with_min_token_len(mut self, len: usize) -> Self {
        self.min_token_len = len.max(1);
        self
    }

    /// Iterates over the configured stop words in arbitrary order
    /// (serialization surface — pair with [`Tokenizer::with_stopwords`]).
    pub fn stopwords(&self) -> impl Iterator<Item = &str> {
        self.stopwords.iter().map(|s| &**s)
    }

    /// Whether stop-word removal is enabled.
    pub fn removes_stopwords(&self) -> bool {
        self.remove_stopwords
    }

    /// The minimum token length; shorter tokens are discarded.
    pub fn min_token_len(&self) -> usize {
        self.min_token_len
    }

    /// The raw tokens of a text: its maximal runs of alphanumeric
    /// characters, case preserved.
    pub(crate) fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
    }

    /// Lower-cases one raw token into `term` (replacing its contents) and
    /// reports whether it survives the length and stop-word filters: one
    /// step of [`Tokenizer::tokenize`] without a `String` per token.  ASCII
    /// is lower-cased in place; anything else goes through
    /// `str::to_lowercase`, which also handles a word-final `Σ`.
    pub(crate) fn normalize_into(&self, raw: &str, term: &mut String) -> bool {
        term.clear();
        if raw.is_ascii() {
            term.push_str(raw);
            term.make_ascii_lowercase();
        } else {
            term.push_str(&raw.to_lowercase());
        }
        term.len() >= self.min_token_len
            && !(self.remove_stopwords && self.stopwords.contains(term.as_str()))
    }

    /// Tokenises a text into lower-case terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        Self::raw_tokens(text)
            .map(|t| t.to_lowercase())
            .filter(|t| t.len() >= self.min_token_len)
            .filter(|t| !self.remove_stopwords || !self.stopwords.contains(t))
            .collect()
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
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("Bidirectional Expansion, for Keyword-Search!"),
            vec!["bidirectional", "expansion", "for", "keyword", "search"]
        );
    }

    #[test]
    fn keeps_digits() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("VLDB 2005 paper #31"),
            vec!["vldb", "2005", "paper", "31"]
        );
    }

    #[test]
    fn stopword_removal_is_opt_in() {
        let t = Tokenizer::new();
        assert!(t.tokenize("the query").contains(&"the".to_string()));
        let t = Tokenizer::new().with_stopword_removal(true);
        assert_eq!(t.tokenize("the query"), vec!["query"]);
    }

    #[test]
    fn custom_stopwords() {
        let t = Tokenizer::new()
            .with_stopwords(["Foo"])
            .with_stopword_removal(true);
        assert_eq!(t.tokenize("foo bar the"), vec!["bar", "the"]);
    }

    #[test]
    fn min_token_length() {
        let t = Tokenizer::new().with_min_token_len(3);
        assert_eq!(
            t.tokenize("a an and transaction"),
            vec!["and", "transaction"]
        );
    }

    #[test]
    fn unique_preserves_order() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize_unique("data data base data"),
            vec!["data", "base"]
        );
    }

    #[test]
    fn normalizes_phrases() {
        let t = Tokenizer::new();
        assert_eq!(
            t.normalize_keyword("  David   FERNANDEZ "),
            "david fernandez"
        );
        assert_eq!(t.normalize_keyword("C. Mohan"), "c mohan");
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("  ,,, !!").is_empty());
    }
}
