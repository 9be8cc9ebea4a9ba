//! Synthetic web-graph generation for page rank — stands in for the
//! HiBench 15 GB graph dataset.
//!
//! Preferential attachment (Barabási–Albert style) produces the power-law
//! in-degree distribution that makes page rank's per-vertex work uneven —
//! exactly the computation-skew the paper calls out ("page rank is an
//! application of this type that suffers from an uneven distribution of
//! computations", §I).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A directed graph as an edge list over vertices `0..nodes`.
#[derive(Clone, Debug)]
pub struct WebGraph {
    pub nodes: u32,
    pub edges: Vec<(u32, u32)>,
}

impl WebGraph {
    /// Generate with preferential attachment: each new vertex links to
    /// `out_degree` existing vertices chosen proportionally to their
    /// current in-degree (plus one smoothing).
    pub fn generate(nodes: u32, out_degree: usize, seed: u64) -> WebGraph {
        assert!(nodes >= 2);
        assert!(out_degree >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(nodes as usize * out_degree);
        // Target pool: vertices repeated once per received link (classic
        // BA trick giving degree-proportional sampling in O(1)).
        let mut pool: Vec<u32> = vec![0];
        for v in 1..nodes {
            for _ in 0..out_degree.min(v as usize) {
                let idx = rng.random_range(0..pool.len());
                let target = pool[idx];
                if target != v {
                    edges.push((v, target));
                    pool.push(target);
                }
            }
            pool.push(v);
        }
        WebGraph { nodes, edges }
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.nodes as usize];
        for &(_, to) in &self.edges {
            d[to as usize] += 1;
        }
        d
    }

    /// Serialize as adjacency lines `src\tdst` — the on-disk format the
    /// live page rank example parses.
    pub fn to_edge_lines(&self) -> String {
        let mut s = String::with_capacity(self.edges.len() * 12);
        for &(from, to) in &self.edges {
            s.push_str(&format!("{from}\t{to}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = WebGraph::generate(500, 3, 9);
        let b = WebGraph::generate(500, 3, 9);
        assert_eq!(a.edges, b.edges);
        let c = WebGraph::generate(500, 3, 10);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn power_law_in_degree() {
        let g = WebGraph::generate(5000, 4, 1);
        let mut d = g.in_degrees();
        d.sort_unstable_by(|a, b| b.cmp(a));
        // Heavy tail: the top vertex has far more links than the median.
        let top = d[0];
        let median = d[d.len() / 2];
        assert!(top as f64 > 20.0 * (median.max(1) as f64), "top={top} median={median}");
    }

    #[test]
    fn no_self_loops() {
        let g = WebGraph::generate(1000, 3, 2);
        assert!(g.edges.iter().all(|&(a, b)| a != b));
    }

    #[test]
    fn edge_count_bounded() {
        let g = WebGraph::generate(100, 3, 0);
        assert!(g.num_edges() <= 99 * 3);
        assert!(g.num_edges() >= 150, "got {}", g.num_edges());
    }

    #[test]
    fn edge_lines_parse_back() {
        let g = WebGraph::generate(50, 2, 5);
        let lines = g.to_edge_lines();
        let parsed: Vec<(u32, u32)> = lines
            .lines()
            .map(|l| {
                let (a, b) = l.split_once('\t').unwrap();
                (a.parse().unwrap(), b.parse().unwrap())
            })
            .collect();
        assert_eq!(parsed, g.edges);
    }
}
