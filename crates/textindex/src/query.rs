//! Keyword query parsing.

use crate::tokenizer::Tokenizer;

/// A keyword query: an ordered list of keywords, each of which is either a
/// single term or a quoted phrase.
///
/// The paper's queries are plain keyword lists (`Krishnamurthy parametric
/// query optimization`) with occasional quoted phrases (`"David Fernandez"
/// parametric`, `"C. Mohan" Rothermel`).  AND semantics apply: an answer
/// tree must contain at least one node matching *each* keyword.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    keywords: Vec<String>,
}

impl Query {
    /// Builds a query from pre-split keywords.
    pub fn from_keywords<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Query {
            keywords: keywords.into_iter().map(Into::into).collect(),
        }
    }

    /// Parses a raw query string, honouring double-quoted phrases.
    ///
    /// ```
    /// use banks_textindex::Query;
    /// let q = Query::parse("\"David Fernandez\" parametric");
    /// assert_eq!(q.keywords(), &["David Fernandez".to_string(), "parametric".to_string()]);
    /// ```
    pub fn parse(raw: &str) -> Self {
        let mut keywords = Vec::new();
        let mut rest = raw.trim();
        while !rest.is_empty() {
            if let Some(after_quote) = rest.strip_prefix('"') {
                match after_quote.find('"') {
                    Some(end) => {
                        let phrase = after_quote[..end].trim();
                        if !phrase.is_empty() {
                            keywords.push(phrase.to_string());
                        }
                        rest = after_quote[end + 1..].trim_start();
                    }
                    None => {
                        // Unterminated quote: treat the remainder as a phrase.
                        let phrase = after_quote.trim();
                        if !phrase.is_empty() {
                            keywords.push(phrase.to_string());
                        }
                        rest = "";
                    }
                }
            } else {
                let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
                let word = &rest[..end];
                if !word.is_empty() {
                    keywords.push(word.to_string());
                }
                rest = rest[end..].trim_start();
            }
        }
        Query { keywords }
    }

    /// The keywords, in query order.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Number of keywords `n` (the paper's `t_1 .. t_n`).
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// True when the query has no keywords.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// Returns a normalised copy where every keyword has been run through
    /// the given tokenizer (lower-cased, punctuation stripped).  Keywords
    /// that normalise to nothing (pure punctuation) are dropped.
    pub fn normalized(&self, tokenizer: &Tokenizer) -> Query {
        Query {
            keywords: self
                .keywords
                .iter()
                .map(|k| tokenizer.normalize_keyword(k))
                .filter(|k| !k.is_empty())
                .collect(),
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rendered: Vec<String> = self
            .keywords
            .iter()
            .map(|k| {
                if k.contains(' ') {
                    format!("\"{k}\"")
                } else {
                    k.clone()
                }
            })
            .collect();
        write!(f, "{}", rendered.join(" "))
    }
}

impl std::str::FromStr for Query {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(Query::parse(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_keywords() {
        let q = Query::parse("Gray transaction");
        assert_eq!(
            q.keywords(),
            &["Gray".to_string(), "transaction".to_string()]
        );
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn parses_quoted_phrases() {
        let q = Query::parse("\"David Fernandez\" parametric");
        assert_eq!(
            q.keywords(),
            &["David Fernandez".to_string(), "parametric".to_string()]
        );

        let q = Query::parse("\"C. Mohan\" Rothermel");
        assert_eq!(
            q.keywords(),
            &["C. Mohan".to_string(), "Rothermel".to_string()]
        );
    }

    #[test]
    fn handles_unterminated_quote() {
        let q = Query::parse("recovery \"Jim Gray");
        assert_eq!(
            q.keywords(),
            &["recovery".to_string(), "Jim Gray".to_string()]
        );
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(Query::parse("").is_empty());
        assert!(Query::parse("   ").is_empty());
        assert!(Query::parse("\"\"").is_empty());
    }

    #[test]
    fn display_roundtrip() {
        let q = Query::parse("\"David Fernandez\" parametric");
        assert_eq!(q.to_string(), "\"David Fernandez\" parametric");
        let q2: Query = q.to_string().parse().unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn normalization_lowercases_and_drops_empty() {
        let t = Tokenizer;
        let q = Query::parse("\"C. Mohan\" ROTHERMEL ...");
        let n = q.normalized(&t);
        assert_eq!(
            n.keywords(),
            &["c mohan".to_string(), "rothermel".to_string()]
        );
    }

    #[test]
    fn from_keywords_constructor() {
        let q = Query::from_keywords(["keanu", "matrix", "thomas"]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.to_string(), "keanu matrix thomas");
    }
}
