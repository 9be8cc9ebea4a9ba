//! The Locality-Aware Fair (LAF) job scheduler — paper Algorithm 1.
//!
//! LAF is a *statistical prediction* scheduler: it never tracks which
//! server caches which object. Instead it
//!
//! 1. assigns each task to the server whose **cache hash-key range**
//!    covers the task's input key (locality by consistent hashing), and
//! 2. every `window` tasks, re-partitions the key space into
//!    **equally-probable** per-server ranges computed from a box-kernel
//!    density estimate of recent accesses folded into an exponential
//!    moving average with weight `alpha` (fairness).
//!
//! Hot keys narrow their owner's range so fewer future tasks land there,
//! while the hot object itself gets re-read and cached by the neighbors
//! that inherit the surrounding keys — in the single-hot-key extreme the
//! object ends up replicated in every server's cache (§II-E).

use eclipse_ring::{NodeId, Ring};
use eclipse_util::{HashKey, KeyHistogram, KeyRange};
use serde::{Deserialize, Serialize};

/// LAF tuning parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LafConfig {
    /// Histogram bins over the key space ("a large number of fine-grained
    /// histogram bins").
    pub num_bins: usize,
    /// Box-kernel bandwidth `k`: each access bumps `k` adjacent bins by
    /// `1/k`. Larger = smoother PDF.
    pub bandwidth: usize,
    /// Moving-average weight α. The paper sweeps {0.001, 1} in Fig. 7 and
    /// fixes 0.001 for the remaining experiments.
    pub alpha: f64,
    /// Re-partition after this many recorded accesses (Algorithm 1's N).
    pub window: u64,
}

impl Default for LafConfig {
    fn default() -> Self {
        // Window and bandwidth control the estimator's variance: with W
        // samples cut into n ranges, each boundary wobbles by
        // ~sqrt(1/W)/density of the ring — too much wobble pushes ranges
        // past the predecessor/successor replica arcs and turns local
        // reads remote. W=1024 and a generous box kernel keep boundary
        // noise well inside one arc on a 40-node cluster while still
        // adapting within a few hundred tasks.
        LafConfig { num_bins: 4096, bandwidth: 64, alpha: 0.001, window: 1024 }
    }
}

/// The LAF scheduler state.
///
/// ```
/// use eclipse_ring::Ring;
/// use eclipse_sched::{LafConfig, LafScheduler};
/// use eclipse_util::HashKey;
///
/// let ring = Ring::with_servers_evenly_spaced(5, "w");
/// let mut laf = LafScheduler::new(&ring, LafConfig { window: 100, ..Default::default() });
/// // Repeated submissions of one key stick to one server (locality) …
/// let key = HashKey::of_name("popular-block");
/// let first = laf.assign(key);
/// assert_eq!(laf.assign(key), first);
/// // … while the range table always tiles the whole ring (fairness).
/// let covered: u128 = laf.ranges().iter().map(|(_, r)| r.len()).sum();
/// assert_eq!(covered, 1u128 << 64);
/// ```
#[derive(Clone, Debug)]
pub struct LafScheduler {
    cfg: LafConfig,
    /// Worker servers in clockwise ring order; ranges are assigned in
    /// this order so range `i` belongs to `nodes[i]`.
    nodes: Vec<NodeId>,
    ranges: Vec<(NodeId, KeyRange)>,
    /// Recent-window histogram (Algorithm 1's `distr`).
    recent: KeyHistogram,
    /// Moving-average histogram (`maDistr`).
    ma: KeyHistogram,
    repartitions: u64,
    assignments: u64,
    /// Reusable candidate buffer for [`assign_balanced`](Self::assign_balanced)
    /// — the per-task hot path allocates nothing in steady state.
    scratch: Vec<NodeId>,
}

impl LafScheduler {
    /// Start with ranges aligned to the DHT file-system ring (weight 0
    /// behaviour) — the paper's initial state.
    pub fn new(ring: &Ring, cfg: LafConfig) -> LafScheduler {
        assert!(!ring.is_empty(), "scheduler needs at least one worker");
        assert!(cfg.window > 0);
        let ranges = ring.ranges();
        LafScheduler {
            cfg,
            nodes: ranges.iter().map(|(n, _)| *n).collect(),
            ranges,
            recent: KeyHistogram::new(cfg.num_bins),
            ma: KeyHistogram::new(cfg.num_bins),
            repartitions: 0,
            assignments: 0,
            scratch: Vec::new(),
        }
    }

    pub fn config(&self) -> &LafConfig {
        &self.cfg
    }

    /// Current cache hash-key range table.
    pub fn ranges(&self) -> &[(NodeId, KeyRange)] {
        &self.ranges
    }

    /// Times the key space has been re-partitioned.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    pub fn assignments(&self) -> u64 {
        self.assignments
    }

    /// The server whose cache range covers `hkey` (pure lookup, no
    /// statistics update) — Algorithm 1 lines 2–8.
    pub fn owner_of(&self, hkey: HashKey) -> NodeId {
        self.ranges
            .iter()
            .find(|(_, r)| r.contains(hkey))
            .map(|(n, _)| *n)
            .expect("range table tiles the ring")
    }

    /// Every server eligible to run a task with key `hkey`.
    ///
    /// The primary candidate is the range owner. Additionally, any server
    /// whose range *boundary* falls in the same histogram bin as `hkey`
    /// is eligible — including servers whose range collapsed to empty.
    /// The estimator cannot distinguish positions within one bin, and
    /// this is what realizes the paper's extreme case: with one ultra-hot
    /// key every boundary collapses into its bin, all servers become
    /// candidates, and "all the worker servers will eventually read the
    /// same hot data ... and replicate it in their distributed in-memory
    /// caches" (§II-E). The owner is always first.
    pub fn candidates(&self, hkey: HashKey) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.candidates_into(hkey, &mut out);
        out
    }

    /// Allocation-free form of [`candidates`](Self::candidates): clears
    /// `out` and fills it with the eligible servers, owner first. The
    /// scheduling hot path reuses one buffer across tasks.
    pub fn candidates_into(&self, hkey: HashKey, out: &mut Vec<NodeId>) {
        out.clear();
        let owner = self.owner_of(hkey);
        out.push(owner);
        let bins = self.cfg.num_bins as u128;
        let bin = ((hkey.0 as u128 * bins) >> 64) as u64;
        let bin_lo = HashKey((((bin as u128) << 64) / bins) as u64);
        let bin_hi = if bin as u128 + 1 >= bins {
            HashKey(0)
        } else {
            HashKey(((((bin + 1) as u128) << 64) / bins) as u64)
        };
        let bin_range = KeyRange::new(bin_lo, bin_hi);
        for (node, range) in &self.ranges {
            if *node == owner {
                continue;
            }
            // Candidate if the range starts or ends inside the key's bin
            // (covers both collapsed-empty ranges anchored in the bin and
            // neighbors whose boundary crosses the bin).
            if bin_range.contains(range.start()) || bin_range.contains(range.end()) {
                out.push(*node);
            }
        }
    }

    /// Assign a task whose input data hashes to `hkey`: returns the
    /// worker, records the access (lines 9–10), and re-partitions when
    /// the window fills (lines 11–24).
    pub fn assign(&mut self, hkey: HashKey) -> NodeId {
        let node = self.owner_of(hkey);
        self.record(hkey);
        node
    }

    /// Assign with load awareness — Algorithm 1's `selectAvailableServer`
    /// loop, read together with §III-B's "it does not make tasks wait
    /// for 5 seconds": servers pull tasks as their slots free, preferring
    /// tasks whose keys fall in their own range; a task whose owner is
    /// busy therefore starts immediately on whichever server is free
    /// (instant spill). Locality is preserved *statistically* by the
    /// equal-probability ranges — spills are rare exactly when the range
    /// table matches the workload. `free_at(node)` returns the earliest
    /// slot time.
    pub fn assign_balanced<F>(&mut self, hkey: HashKey, now: f64, mut free_at: F) -> NodeId
    where
        F: FnMut(NodeId) -> f64,
    {
        // Reuse the scheduler-owned buffer: the per-task path performs
        // no allocation once the buffer has grown to the cluster size.
        let mut cands = std::mem::take(&mut self.scratch);
        self.candidates_into(hkey, &mut cands);
        // A free candidate (owner first, then range-boundary neighbors)
        // takes the task with locality intact.
        let node = match cands.iter().copied().find(|&c| free_at(c) <= now) {
            Some(local) => local,
            None => {
                // Owner busy. If some other server has an idle slot, it
                // takes the task *now* — LAF never idles a slot while
                // work queues (the delay scheduler's failure mode,
                // §III-B). If the whole cluster is busy, the task queues
                // at its owner: locality wins once everyone has work.
                // Minimum over (free time, node id), free servers only.
                let mut best: Option<(f64, NodeId)> = None;
                for &n in &self.nodes {
                    let f = free_at(n);
                    if f > now {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bf, bn)) => f.partial_cmp(&bf).unwrap().then(n.cmp(&bn)).is_lt(),
                    };
                    if better {
                        best = Some((f, n));
                    }
                }
                best.map(|(_, n)| n).unwrap_or(cands[0])
            }
        };
        self.scratch = cands;
        self.record(hkey);
        node
    }

    /// Pick a backup placement for a speculative re-execution of a task
    /// keyed by `hkey` whose primary attempt runs on `avoid`: the
    /// least-loaded eligible candidate (owner + range-boundary
    /// neighbors) other than `avoid` and anything in `exclude`, falling
    /// back to the least-loaded server cluster-wide. Ties break by node
    /// id for determinism. Pure lookup — no statistics update; the
    /// original assignment already recorded the access.
    pub fn backup_for<F>(
        &mut self,
        hkey: HashKey,
        avoid: NodeId,
        exclude: &[NodeId],
        mut load_of: F,
    ) -> Option<NodeId>
    where
        F: FnMut(NodeId) -> u64,
    {
        let mut cands = std::mem::take(&mut self.scratch);
        self.candidates_into(hkey, &mut cands);
        let eligible = |n: NodeId| n != avoid && !exclude.contains(&n);
        let mut best: Option<(u64, NodeId)> = None;
        let mut consider = |n: NodeId, best: &mut Option<(u64, NodeId)>| {
            if !eligible(n) {
                return;
            }
            let l = load_of(n);
            let better = match *best {
                None => true,
                Some((bl, bn)) => l.cmp(&bl).then(n.cmp(&bn)).is_lt(),
            };
            if better {
                *best = Some((l, n));
            }
        };
        for &c in &cands {
            consider(c, &mut best);
        }
        if best.is_none() {
            for &n in &self.nodes {
                consider(n, &mut best);
            }
        }
        self.scratch = cands;
        best.map(|(_, n)| n)
    }

    /// Record an access and re-partition when the window fills.
    fn record(&mut self, hkey: HashKey) {
        self.assignments += 1;
        self.recent.add(hkey, self.cfg.bandwidth);
        if self.recent.samples() >= self.cfg.window {
            self.repartition();
        }
    }

    /// Fold the recent window into the moving average, rebuild the CDF,
    /// and cut equally-probable ranges.
    ///
    /// With `alpha == 0` the moving average never accumulates mass, and
    /// the ranges stay at their initial file-system alignment — the
    /// paper's "weight factor 0" behaviour ("scheduling decisions based
    /// on the fixed static hash key ranges, which is perfectly aligned
    /// with the hash keys of the DHT file system").
    fn repartition(&mut self) {
        self.ma.merge_moving_average(&self.recent, self.cfg.alpha);
        self.recent.reset();
        self.repartitions += 1;
        if self.ma.total() <= 0.0 {
            return;
        }
        let cdf = self.ma.to_cdf();
        let parts = cdf.partition(self.nodes.len());
        self.ranges = self.nodes.iter().copied().zip(parts).collect();
    }

    /// Rebuild for a changed membership (join/leave/failure). The moving
    /// average survives so the access history keeps steering placement;
    /// ranges are re-cut for the new server count immediately.
    pub fn set_nodes(&mut self, ring: &Ring) {
        assert!(!ring.is_empty());
        self.nodes = ring.node_ids();
        let cdf = self.ma.to_cdf();
        let parts = cdf.partition(self.nodes.len());
        self.ranges = self.nodes.iter().copied().zip(parts).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::stats;

    fn sched(n: usize, cfg: LafConfig) -> LafScheduler {
        LafScheduler::new(&Ring::with_servers(n, "w"), cfg)
    }

    /// Uniform keys → after a few windows, assignments spread evenly.
    #[test]
    fn uniform_workload_balances() {
        let mut s = sched(8, LafConfig { window: 128, ..Default::default() });
        let mut counts = vec![0u64; 8];
        for i in 0..20_000u64 {
            let k = HashKey::of_name(&format!("blk{i}"));
            let node = s.assign(k);
            counts[node.index()] += 1;
        }
        let loads: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let imb = stats::imbalance(&loads);
        assert!(imb < 1.25, "imbalance {imb} counts {counts:?}");
        assert!(s.repartitions() > 100);
    }

    /// Skewed keys: with alpha=1 (pure recent window) assignments stay
    /// balanced even though the key distribution is extremely hot.
    #[test]
    fn skewed_workload_balances_with_alpha_one() {
        let mut s = sched(
            5,
            LafConfig { window: 200, alpha: 1.0, bandwidth: 8, num_bins: 4096 },
        );
        // Warm up the estimator with one window of the skewed pattern.
        let hot_keys: Vec<HashKey> =
            (0..10).map(|i| HashKey::of_name(&format!("hot{i}"))).collect();
        let mut counts = vec![0u64; 5];
        for i in 0..30_000u64 {
            let k = hot_keys[(i % hot_keys.len() as u64) as usize];
            let node = s.assign(k);
            if i >= 1000 {
                counts[node.index()] += 1;
            }
        }
        let loads: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let imb = stats::imbalance(&loads);
        assert!(imb < 1.6, "imbalance {imb} counts {counts:?}");
    }

    /// Repeated submissions of the same key go to the same server between
    /// re-partitions — the data-locality half of the bargain.
    #[test]
    fn same_key_sticks_between_repartitions() {
        let mut s = sched(6, LafConfig { window: 1000, ..Default::default() });
        let k = HashKey::of_name("popular-block");
        let first = s.assign(k);
        for _ in 0..500 {
            assert_eq!(s.assign(k), first);
        }
    }

    /// A single ultra-hot key collapses every range boundary into its
    /// bin: all servers become candidates and a busy owner spills hot
    /// tasks across the whole cluster — the paper's §II-E extreme case
    /// ("all the worker servers will eventually read the same hot data").
    #[test]
    fn single_hot_key_spreads_over_all_servers() {
        let mut s = sched(
            4,
            LafConfig { window: 100, alpha: 1.0, bandwidth: 1, num_bins: 4096 },
        );
        let hot = HashKey::from_unit(0.3);
        for _ in 0..200 {
            s.assign(hot);
        }
        // All boundaries collapsed into the hot bin → everyone serves it.
        let cands = s.candidates(hot);
        assert_eq!(cands.len(), 4, "ranges: {:?}", s.ranges());
        // Interior ranges collapse to (at most) one histogram bin.
        let tiny = s
            .ranges()
            .iter()
            .filter(|(_, r)| r.fraction() <= 1.0 / 4096.0 + 1e-12)
            .count();
        assert!(tiny >= 2, "{:?}", s.ranges());
        // Load-aware assignment spills to idle servers when the
        // preferred candidates fill up: model each node as busy once it
        // holds 100 tasks, and the hot key floods every cache in turn.
        let mut counts = vec![0u64; 4];
        for _ in 0..400 {
            let snapshot = counts.clone();
            let n = s.assign_balanced(hot, 0.0, |id| {
                if snapshot[id.index()] >= 100 {
                    1.0
                } else {
                    0.0
                }
            });
            counts[n.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 90), "hot key not spread: {counts:?}");
    }

    /// In the common case (no collapse) a key deep inside a range has
    /// exactly one candidate — locality is preserved.
    #[test]
    fn interior_key_has_single_candidate() {
        let s = sched(4, LafConfig::default());
        // Initial ranges are ring-aligned; find a key well inside one.
        let (_, r) = s.ranges()[0];
        let mid = HashKey(r.start().0.wrapping_add((r.len() / 2) as u64));
        let cands = s.candidates(mid);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0], s.owner_of(mid));
    }

    /// alpha=0: ranges never move from the initial file-system alignment
    /// ("the LAF job scheduler makes scheduling decisions based on the
    /// fixed static hash key ranges").
    #[test]
    fn alpha_zero_keeps_static_ranges() {
        let ring = Ring::with_servers(5, "w");
        let mut s = LafScheduler::new(&ring, LafConfig { window: 50, alpha: 0.0, ..Default::default() });
        let initial = s.ranges().to_vec();
        for i in 0..5000u64 {
            s.assign(HashKey::of_name(&format!("x{i}")));
        }
        assert!(s.repartitions() > 0);
        assert_eq!(s.ranges(), &initial[..], "alpha=0 must not move ranges");
    }

    /// Ranges always tile the ring after any number of repartitions.
    #[test]
    fn ranges_always_tile() {
        let mut s = sched(7, LafConfig { window: 64, ..Default::default() });
        for i in 0..5000u64 {
            s.assign(HashKey::of_name(&format!("k{}", i % 13)));
            if i % 512 == 0 {
                let covered: u128 = s.ranges().iter().map(|(_, r)| r.len()).sum();
                assert_eq!(covered, 1u128 << 64);
            }
        }
    }

    /// Membership change re-cuts ranges over the new node set.
    #[test]
    fn membership_change_recuts() {
        let mut ring = Ring::with_servers(6, "w");
        let mut s = LafScheduler::new(&ring, LafConfig::default());
        let victim = ring.node_ids()[2];
        ring.remove(victim).unwrap();
        s.set_nodes(&ring);
        assert_eq!(s.ranges().len(), 5);
        assert!(s.ranges().iter().all(|(n, _)| *n != victim));
        let covered: u128 = s.ranges().iter().map(|(_, r)| r.len()).sum();
        assert_eq!(covered, 1u128 << 64);
    }

    /// Backup placement avoids the straggler's node, prefers the
    /// least-loaded server, and is deterministic under ties.
    #[test]
    fn backup_avoids_straggler_and_prefers_idle() {
        let mut s = sched(4, LafConfig::default());
        let k = HashKey::from_unit(0.4);
        let slow = s.owner_of(k);
        let loads = [7u64, 7, 7, 7];
        let b = s.backup_for(k, slow, &[], |n| loads[n.index()]).unwrap();
        assert_ne!(b, slow);
        // Loads all equal → smallest eligible id wins, deterministically.
        assert_eq!(b, s.backup_for(k, slow, &[], |n| loads[n.index()]).unwrap());
        // A strictly idler server wins over the tie-break pick.
        let idle = b;
        let b2 = s
            .backup_for(k, slow, &[idle], |n| if n == idle { 0 } else { 5 })
            .unwrap();
        assert_ne!(b2, idle, "excluded nodes must not be chosen");
        assert_ne!(b2, slow);
    }

    /// owner_of and assign agree.
    #[test]
    fn owner_of_matches_assign() {
        let mut s = sched(9, LafConfig::default());
        for i in 0..100u64 {
            let k = HashKey::of_name(&format!("f{i}"));
            assert_eq!(s.owner_of(k), s.assign(k));
        }
    }
}
