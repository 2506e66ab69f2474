//! # banks-prestige
//!
//! Node-prestige computation for the BANKS-II reproduction.
//!
//! The paper (Section 2.3) ranks answer trees by a combination of an edge
//! score and a *node prestige* score: "The prestige of each node is
//! determined using a biased version of the Pagerank random walk, similar to
//! the computation of global ObjectRank, except that, in our case, the
//! probability of following an edge is inversely proportional to its edge
//! weight taken from the data graph".  Prestige is precomputed (the paper
//! reports about a minute for its datasets) and handed to the search
//! algorithms.
//!
//! This crate provides:
//!
//! * [`PrestigeVector`] — an immutable per-node prestige assignment,
//! * [`compute_pagerank`] — the paper's biased random walk via power
//!   iteration,
//! * [`PrestigeVector::uniform`] — the "all node prestiges are unity"
//!   setting used in the paper's worked example (Figure 4).

pub mod pagerank;
pub mod vector;

pub use pagerank::{compute_pagerank, PageRankStats};
pub use vector::PrestigeVector;
