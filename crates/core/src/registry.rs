//! Name → engine-factory registry.
//!
//! Benchmarks, examples and services select engines by string (a CLI flag,
//! a config entry, a request parameter) instead of hardcoding match arms
//! over engine types.  The registry also lets downstream code plug in
//! custom engines without touching this crate.

use crate::backward::BackwardExpandingSearch;
use crate::bidirectional::{BidirectionalConfig, BidirectionalSearch};
use crate::engine::SearchEngine;
use crate::si_backward::SingleIteratorBackwardSearch;

/// A factory producing a boxed engine.
pub type EngineFactory = Box<dyn Fn() -> Box<dyn SearchEngine> + Send + Sync>;

/// A name resolved to no registered engine.
///
/// Instead of a bare failure the error carries everything a caller needs to
/// recover: the canonical names the registry *does* know, and the nearest
/// name or alias by edit distance (when one is plausibly close), so a typo
/// like `"bidirectonal"` produces `did you mean "bidirectional"?`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownEngine {
    /// The name that failed to resolve.
    pub requested: String,
    /// Canonical names of every registered engine, in registration order.
    pub known: Vec<&'static str>,
    /// The closest known name or alias, if any is within a plausible
    /// typo distance.
    pub suggestion: Option<&'static str>,
}

impl std::fmt::Display for UnknownEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine {:?}; known engines: {}",
            self.requested,
            self.known.join(", ")
        )?;
        if let Some(suggestion) = self.suggestion {
            write!(f, " (did you mean {suggestion:?}?)")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownEngine {}

struct Entry {
    name: &'static str,
    aliases: Vec<&'static str>,
    factory: EngineFactory,
}

/// Registry mapping engine names to factories.
///
/// Lookup is case-insensitive and treats `_` and `-` as equivalent, so
/// `"SI_Backward"` resolves the `"si-backward"` entry.
pub struct EngineRegistry {
    entries: Vec<Entry>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EngineRegistry {
            entries: Vec::new(),
        }
    }

    /// The registry with the paper's three engines plus the ablation
    /// configurations:
    ///
    /// | name | engine |
    /// |------|--------|
    /// | `bidirectional` (alias `bidir`) | [`BidirectionalSearch`] |
    /// | `si-backward` (alias `si`) | [`SingleIteratorBackwardSearch`] |
    /// | `mi-backward` (aliases `mi`, `backward`) | [`BackwardExpandingSearch`] |
    /// | `bidirectional-no-activation` | forward iterator, distance priority |
    /// | `backward-activation` | no forward iterator, activation priority |
    pub fn with_default_engines() -> Self {
        let mut registry = EngineRegistry::new();
        registry.register_with_aliases(
            "bidirectional",
            vec!["bidir"],
            Box::new(|| Box::new(BidirectionalSearch::new())),
        );
        registry.register_with_aliases(
            "si-backward",
            vec!["si"],
            Box::new(|| Box::new(SingleIteratorBackwardSearch::new())),
        );
        registry.register_with_aliases(
            "mi-backward",
            vec!["mi", "backward"],
            Box::new(|| Box::new(BackwardExpandingSearch::new())),
        );
        registry.register_with_aliases(
            "bidirectional-no-activation",
            vec![],
            Box::new(|| {
                Box::new(BidirectionalSearch::with_config(BidirectionalConfig {
                    enable_outgoing: true,
                    use_activation: false,
                }))
            }),
        );
        registry.register_with_aliases(
            "backward-activation",
            vec![],
            Box::new(|| {
                Box::new(BidirectionalSearch::with_config(BidirectionalConfig {
                    enable_outgoing: false,
                    use_activation: true,
                }))
            }),
        );
        registry
    }

    /// Registers a factory under a canonical name.  Re-registering a name
    /// replaces the previous entry (latest wins), so callers can override
    /// defaults.
    pub fn register(&mut self, name: &'static str, factory: EngineFactory) {
        self.register_with_aliases(name, Vec::new(), factory);
    }

    /// Registers a factory with additional lookup aliases.
    ///
    /// When this replaces an entry with the same canonical name and no new
    /// aliases are given, the replaced entry's aliases carry over to the
    /// new factory, so `register("mi-backward", ..)` keeps `"mi"` and
    /// `"backward"` resolving (now to the override).
    pub fn register_with_aliases(
        &mut self,
        name: &'static str,
        mut aliases: Vec<&'static str>,
        factory: EngineFactory,
    ) {
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| normalize(e.name) == normalize(name))
        {
            let old = self.entries.remove(pos);
            if aliases.is_empty() {
                aliases = old.aliases;
            }
        }
        self.entries.push(Entry {
            name,
            aliases,
            factory,
        });
    }

    /// Instantiates the engine registered under `name` (or one of its
    /// aliases).  Returns `None` for unknown names.
    pub fn create(&self, name: &str) -> Option<Box<dyn SearchEngine>> {
        self.entry(name).map(|e| (e.factory)())
    }

    /// The canonical name `name` resolves to (an alias, or any spelling
    /// the lookup forgives, maps to its entry's registered name), or
    /// `None` when it resolves to no engine.  Pure name scan — never
    /// invokes a factory.  Callers that key state by engine (caches,
    /// calibration, metrics) key it by this name, so `"BIDIR"` and
    /// `"bidirectional"` share one row.
    pub fn canonical(&self, name: &str) -> Option<&'static str> {
        self.entry(name).map(|e| e.name)
    }

    /// The entry `name` resolves to.  Canonical names take precedence
    /// over aliases, so registering a new engine under a name that happens
    /// to be another entry's alias (e.g. `"bidir"`) makes the new entry
    /// win, preserving the latest-wins override semantics.  Among aliases,
    /// the most recently registered entry wins.
    fn entry(&self, name: &str) -> Option<&Entry> {
        let wanted = normalize(name);
        if let Some(entry) = self.entries.iter().find(|e| normalize(e.name) == wanted) {
            return Some(entry);
        }
        self.entries
            .iter()
            .rev()
            .find(|e| e.aliases.iter().any(|a| normalize(a) == wanted))
    }

    /// Instantiates the engine registered under `name`, or returns an
    /// [`UnknownEngine`] error listing the known engine names and the
    /// nearest alias when the name resolves to nothing.
    pub fn resolve(&self, name: &str) -> Result<Box<dyn SearchEngine>, UnknownEngine> {
        self.create(name).ok_or_else(|| self.unknown(name))
    }

    /// Builds the [`UnknownEngine`] error for a name that failed to resolve
    /// (also used by callers that validate names without instantiating).
    pub fn unknown(&self, name: &str) -> UnknownEngine {
        let wanted = normalize(name);
        let mut best: Option<(&'static str, usize)> = None;
        for entry in &self.entries {
            for candidate in std::iter::once(&entry.name).chain(entry.aliases.iter()) {
                let d = edit_distance(&wanted, &normalize(candidate));
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((candidate, d));
                }
            }
        }
        // Only suggest plausible typos: within 3 edits and under half the
        // requested name's length (so "quantum" doesn't suggest "mi").
        let suggestion = best
            .filter(|(_, d)| *d <= 3 && *d * 2 <= wanted.len().max(2))
            .map(|(candidate, _)| candidate);
        UnknownEngine {
            requested: name.to_string(),
            known: self.names(),
            suggestion,
        }
    }

    /// Canonical names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::with_default_engines()
    }
}

/// Lookup form of an engine name: trimmed, lower-cased, underscores
/// folded to dashes.
fn normalize(name: &str) -> String {
    name.trim().to_ascii_lowercase().replace('_', "-")
}

/// Levenshtein edit distance over bytes (names are ASCII), used to rank
/// "did you mean" suggestions for unknown engine names.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(previous[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_creates_all_engines() {
        let registry = EngineRegistry::with_default_engines();
        assert_eq!(
            registry.names(),
            vec![
                "bidirectional",
                "si-backward",
                "mi-backward",
                "bidirectional-no-activation",
                "backward-activation",
            ]
        );
        assert_eq!(
            registry.create("bidirectional").unwrap().name(),
            "Bidirectional"
        );
        assert_eq!(
            registry.create("si-backward").unwrap().name(),
            "SI-Backward"
        );
        assert_eq!(
            registry.create("mi-backward").unwrap().name(),
            "MI-Backward"
        );
        assert_eq!(
            registry
                .create("bidirectional-no-activation")
                .unwrap()
                .name(),
            "Bidirectional(no-activation)"
        );
        assert_eq!(
            registry.create("backward-activation").unwrap().name(),
            "Backward(activation)"
        );
    }

    #[test]
    fn lookup_is_forgiving() {
        let registry = EngineRegistry::with_default_engines();
        assert_eq!(registry.canonical("SI_Backward"), Some("si-backward"));
        assert_eq!(registry.canonical(" Bidirectional "), Some("bidirectional"));
        assert_eq!(registry.canonical("BIDIR"), Some("bidirectional"));
        assert_eq!(registry.canonical("mi"), Some("mi-backward"));
        assert_eq!(registry.canonical("quantum"), None);
        assert!(registry.create("quantum").is_none());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("bidirectonal", "bidirectional"), 1);
    }

    #[test]
    fn unknown_engine_error_lists_names_and_suggests_nearest() {
        let registry = EngineRegistry::with_default_engines();
        let err = registry.resolve("bidirectonal").err().expect("must fail");
        assert_eq!(err.requested, "bidirectonal");
        assert_eq!(err.known, registry.names());
        assert_eq!(err.suggestion, Some("bidirectional"));
        let rendered = err.to_string();
        assert!(rendered.contains("unknown engine \"bidirectonal\""));
        assert!(rendered.contains("bidirectional"));
        assert!(rendered.contains("si-backward"));
        assert!(rendered.contains("did you mean"));

        // Aliases are candidates too.
        let err = registry.resolve("bakward").err().expect("must fail");
        assert_eq!(err.suggestion, Some("backward"));

        // Nothing close: no misleading suggestion.
        let err = registry
            .resolve("quantum-annealer")
            .err()
            .expect("must fail");
        assert_eq!(err.suggestion, None);
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn resolve_succeeds_for_known_names() {
        let registry = EngineRegistry::with_default_engines();
        assert_eq!(registry.resolve("bidir").unwrap().name(), "Bidirectional");
        assert_eq!(
            registry.resolve("MI_Backward").unwrap().name(),
            "MI-Backward"
        );
    }

    #[test]
    fn canonical_registration_shadows_builtin_aliases() {
        let mut registry = EngineRegistry::with_default_engines();
        // "bidir" is an alias of the builtin "bidirectional" entry; a
        // canonical registration under that name must win.
        registry.register(
            "bidir",
            Box::new(|| Box::new(SingleIteratorBackwardSearch::new())),
        );
        assert_eq!(registry.create("bidir").unwrap().name(), "SI-Backward");
        // the builtin stays reachable under its canonical name
        assert_eq!(
            registry.create("bidirectional").unwrap().name(),
            "Bidirectional"
        );
    }

    #[test]
    fn registration_overrides_and_extends() {
        let mut registry = EngineRegistry::with_default_engines();
        registry.register(
            "bidirectional",
            Box::new(|| Box::new(SingleIteratorBackwardSearch::new())),
        );
        assert_eq!(
            registry.create("bidirectional").unwrap().name(),
            "SI-Backward"
        );
        // the replaced entry's aliases survive and point at the override
        assert_eq!(registry.create("bidir").unwrap().name(), "SI-Backward");
        registry.register("custom", Box::new(|| Box::new(BidirectionalSearch::new())));
        assert_eq!(registry.canonical("Custom"), Some("custom"));
        assert_eq!(registry.names().len(), 6);
    }
}
