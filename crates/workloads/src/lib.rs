//! # eclipse-workloads
//!
//! HiBench-style workload generation for the EclipseMR reproduction:
//! Zipf text (word count / grep / inverted index / sort), power-law web
//! graphs (page rank), Gaussian mixtures (k-means) and labeled points
//! (logistic regression) for the live executor, plus ring-key access
//! distributions and per-application cost models for the simulator.

pub mod arrivals;
pub mod cost;
pub mod graph;
pub mod keydist;
pub mod points;
pub mod text;

pub use arrivals::{arrivals, ArrivalConfig, JobArrival, SizeClass};
pub use cost::{AppKind, CostModel};
pub use graph::WebGraph;
pub use keydist::{KeyDist, KeySampler};
pub use points::{labeled_points, points_from_csv, points_to_csv, ClusterGen, Labeled, Point, DIM};
pub use text::{TextGen, Zipf};
