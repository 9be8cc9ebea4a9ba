//! # eclipse-apps
//!
//! The paper's seven benchmark applications as real MapReduce programs
//! for the live executor: word count, grep, inverted index and sort
//! (batch), plus iterative drivers for k-means, page rank and logistic
//! regression that cache per-iteration outputs in oCache exactly as
//! §II-C describes.

pub mod batch;
pub mod join;
pub mod kmeans;
pub mod logreg;
pub mod pagerank;
pub mod terasort;
mod words;

pub use batch::{Grep, InvertedIndex, Sort, WordCount};
pub use join::{run_equijoin, EquiJoin};
pub use kmeans::{run_kmeans, KMeansResult, KMeansRound};
pub use logreg::{accuracy, examples_to_csv, run_logreg, LogRegResult};
pub use pagerank::{run_pagerank, PageRankResult, DAMPING};
pub use terasort::{run_terasort, TeraSortResult};
