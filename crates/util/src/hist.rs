//! Hash-key access histograms, box-kernel density estimation, and CDF
//! partitioning — the statistical machinery behind the LAF scheduler
//! (paper Algorithm 1 and §II-E).
//!
//! The job scheduler partitions the hash key space into a large number of
//! fine-grained bins. Each input-block access bumps `k` adjacent bins by
//! `1/k` (box kernel density estimation with bandwidth `k`). Periodically
//! the recent histogram is folded into a long-run estimate with an
//! exponential moving average, a CDF is built, and the key space is cut
//! into equally-probable per-server ranges.

use crate::key::{HashKey, KeyRange};

/// A histogram over the full 64-bit ring key space.
#[derive(Clone, Debug)]
pub struct KeyHistogram {
    bins: Vec<f64>,
    /// Number of `add` calls since the last reset (Algorithm 1's
    /// `distr.size`).
    samples: u64,
}

impl KeyHistogram {
    /// A zeroed histogram with `num_bins` equal-width bins over the ring.
    ///
    /// # Panics
    /// Panics if `num_bins == 0`.
    pub fn new(num_bins: usize) -> KeyHistogram {
        assert!(num_bins > 0, "histogram needs at least one bin");
        KeyHistogram { bins: vec![0.0; num_bins], samples: 0 }
    }

    #[inline]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Number of samples recorded since construction or the last
    /// [`reset`](Self::reset).
    #[inline]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Bin index owning `key`.
    #[inline]
    pub fn bin_of(&self, key: HashKey) -> usize {
        // Multiply in u128 to avoid overflow: bin = key * n / 2^64.
        ((key.0 as u128 * self.bins.len() as u128) >> 64) as usize
    }

    /// Record one access to `key` with a box kernel of bandwidth
    /// `k` bins: the `k` bins centred on the key's bin each gain `1/k`.
    /// Bandwidth wraps around the ring. `k` is clamped to
    /// `[1, num_bins]`.
    pub fn add(&mut self, key: HashKey, bandwidth: usize) {
        let n = self.bins.len();
        let k = bandwidth.clamp(1, n);
        let center = self.bin_of(key);
        let weight = 1.0 / k as f64;
        // Spread k bins centred on `center` (bias left for even k).
        let start = center as i64 - ((k as i64 - 1) / 2);
        for off in 0..k as i64 {
            let idx = (start + off).rem_euclid(n as i64) as usize;
            self.bins[idx] += weight;
        }
        self.samples += 1;
    }

    /// Total mass (≈ number of samples, exactly if no reset in between).
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Raw bin weights.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Fold `recent` into `self` with an exponential moving average:
    /// `self[b] = alpha * recent[b] + (1 - alpha) * self[b]`
    /// (Algorithm 1 line 15).
    ///
    /// # Panics
    /// Panics if the bin counts differ.
    pub fn merge_moving_average(&mut self, recent: &KeyHistogram, alpha: f64) {
        assert_eq!(
            self.bins.len(),
            recent.bins.len(),
            "moving average requires equal bin counts"
        );
        let alpha = alpha.clamp(0.0, 1.0);
        for (ma, r) in self.bins.iter_mut().zip(&recent.bins) {
            *ma = alpha * r + (1.0 - alpha) * *ma;
        }
    }

    /// Zero all bins and the sample counter (Algorithm 1 lines 22–23).
    pub fn reset(&mut self) {
        self.bins.fill(0.0);
        self.samples = 0;
    }

    /// Build the cumulative distribution over bins (Algorithm 1 line 17).
    /// A histogram with zero total mass yields the uniform CDF, so that an
    /// idle scheduler partitions the ring evenly.
    pub fn to_cdf(&self) -> Cdf {
        let total = self.total();
        let n = self.bins.len();
        let mut cum = Vec::with_capacity(n);
        if total <= 0.0 {
            for i in 0..n {
                cum.push((i + 1) as f64 / n as f64);
            }
        } else {
            let mut acc = 0.0;
            for &b in &self.bins {
                acc += b;
                cum.push(acc / total);
            }
            // Guard against float drift: the last entry must be exactly 1.
            *cum.last_mut().expect("n > 0") = 1.0;
        }
        Cdf { cum }
    }
}

/// Cumulative distribution function over the ring key space.
///
/// `cum[i]` is the probability mass in bins `0..=i`; `cum[n-1] == 1`.
#[derive(Clone, Debug)]
pub struct Cdf {
    cum: Vec<f64>,
}

impl Cdf {
    /// Number of bins backing this CDF.
    pub fn num_bins(&self) -> usize {
        self.cum.len()
    }

    /// Cumulative probability at the *end* of bin `i`.
    pub fn at(&self, i: usize) -> f64 {
        self.cum[i]
    }

    /// The ring key below which a fraction `q` of the observed accesses
    /// fall. Linear interpolation within the bin that crosses `q`.
    pub fn quantile(&self, q: f64) -> HashKey {
        let n = self.cum.len();
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return HashKey(0);
        }
        if q >= 1.0 {
            return HashKey::MAX;
        }
        // First bin whose cumulative value reaches q.
        let idx = self.cum.partition_point(|&c| c < q);
        let prev = if idx == 0 { 0.0 } else { self.cum[idx - 1] };
        let mass = self.cum[idx] - prev;
        let within = if mass > 0.0 { (q - prev) / mass } else { 0.0 };
        let bin_frac = (idx as f64 + within) / n as f64;
        HashKey::from_unit(bin_frac)
    }

    /// Cut the ring into `num_parts` equally-probable half-open ranges
    /// (Algorithm 1's `partitionCDF`). Part `i` gets
    /// `[quantile(i/n), quantile((i+1)/n))`; part `n-1` wraps back to
    /// `quantile(0) = 0`, so the parts tile the entire ring.
    ///
    /// Hot single keys collapse interior ranges to empty, exactly as in the
    /// paper's extreme example (§II-E).
    pub fn partition(&self, num_parts: usize) -> Vec<KeyRange> {
        assert!(num_parts > 0, "cannot partition into zero parts");
        if num_parts == 1 {
            return vec![KeyRange::full(HashKey(0))];
        }
        let mut bounds = Vec::with_capacity(num_parts + 1);
        bounds.push(HashKey(0));
        for i in 1..num_parts {
            let q = i as f64 / num_parts as f64;
            let mut b = self.quantile(q);
            // Boundaries must be monotone even under float plateaux.
            let prev = *bounds.last().expect("non-empty");
            if b < prev {
                b = prev;
            }
            bounds.push(b);
        }
        let mut out = Vec::with_capacity(num_parts);
        for i in 0..num_parts {
            let lo = bounds[i];
            if i + 1 < num_parts {
                out.push(KeyRange::new(lo, bounds[i + 1]));
            } else {
                // Final arc wraps to bound 0; if the first boundary is 0
                // and lo is 0 too the last part owns the full ring.
                let hi = bounds[0];
                if lo == hi {
                    out.push(KeyRange::full(lo));
                } else {
                    out.push(KeyRange::new(lo, hi));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_histogram_partitions_evenly() {
        let h = KeyHistogram::new(1000);
        let parts = h.to_cdf().partition(5);
        assert_eq!(parts.len(), 5);
        for p in &parts {
            let frac = p.fraction();
            assert!((frac - 0.2).abs() < 0.01, "fraction {frac}");
        }
        // The parts must tile the ring.
        let total: f64 = parts.iter().map(|p| p.fraction()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn box_kernel_spreads_mass() {
        let mut h = KeyHistogram::new(100);
        h.add(HashKey::from_unit(0.5), 5);
        assert!((h.total() - 1.0).abs() < 1e-12);
        let nonzero = h.bins().iter().filter(|&&b| b > 0.0).count();
        assert_eq!(nonzero, 5);
        for &b in h.bins().iter().filter(|&&b| b > 0.0) {
            assert!((b - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn box_kernel_wraps_at_ring_edges() {
        let mut h = KeyHistogram::new(100);
        h.add(HashKey(0), 5); // center bin 0, spreads to bins 98,99,0,1,2
        let hot: Vec<usize> = (0..100).filter(|&i| h.bins()[i] > 0.0).collect();
        assert_eq!(hot, vec![0, 1, 2, 98, 99]);
    }

    #[test]
    fn skewed_histogram_narrows_hot_ranges() {
        // Two hot spots, mirroring the paper's Fig. 3 example.
        let mut h = KeyHistogram::new(1000);
        for _ in 0..450 {
            h.add(HashKey::from_unit(0.29), 11);
            h.add(HashKey::from_unit(0.64), 11);
        }
        for i in 0..100 {
            h.add(HashKey::from_unit(i as f64 / 100.0), 11);
        }
        let parts = h.to_cdf().partition(5);
        // Ranges covering the hot keys must be the narrow ones.
        let hot1 = HashKey::from_unit(0.29);
        let hot2 = HashKey::from_unit(0.64);
        let width_hot1 = parts.iter().find(|p| p.contains(hot1)).unwrap().fraction();
        let width_hot2 = parts.iter().find(|p| p.contains(hot2)).unwrap().fraction();
        let max_width = parts.iter().map(|p| p.fraction()).fold(0.0, f64::max);
        assert!(width_hot1 < max_width / 2.0, "hot1 {width_hot1} max {max_width}");
        assert!(width_hot2 < max_width / 2.0, "hot2 {width_hot2} max {max_width}");
    }

    #[test]
    fn single_hot_key_collapses_interior_ranges() {
        // Paper §II-E: if key 40 is the only hot spot, partitions become
        // [0,40), [40,40), [40,40), [40,140).
        let mut h = KeyHistogram::new(4096);
        let hot = HashKey::from_unit(0.3);
        for _ in 0..10_000 {
            h.add(hot, 1);
        }
        let parts = h.to_cdf().partition(4);
        let empties = parts.iter().filter(|p| p.fraction() < 1e-3).count();
        assert!(empties >= 2, "expected collapsed interior ranges: {parts:?}");
        // Every key must still be owned by exactly one part.
        for probe in [0.0, 0.1, 0.2999, 0.3001, 0.5, 0.9] {
            let k = HashKey::from_unit(probe);
            let owners = parts.iter().filter(|p| p.contains(k)).count();
            assert_eq!(owners, 1, "probe {probe}");
        }
    }

    #[test]
    fn moving_average_converges_to_recent() {
        let mut ma = KeyHistogram::new(10);
        let mut recent = KeyHistogram::new(10);
        for _ in 0..100 {
            recent.add(HashKey::from_unit(0.55), 1);
        }
        // Repeated folding with alpha=0.5 converges towards `recent`.
        for _ in 0..50 {
            ma.merge_moving_average(&recent, 0.5);
        }
        let hot_bin = ma.bin_of(HashKey::from_unit(0.55));
        assert!((ma.bins()[hot_bin] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_one_forgets_history() {
        let mut ma = KeyHistogram::new(10);
        ma.add(HashKey::from_unit(0.1), 1);
        let mut recent = KeyHistogram::new(10);
        recent.add(HashKey::from_unit(0.9), 1);
        ma.merge_moving_average(&recent, 1.0);
        let old_bin = ma.bin_of(HashKey::from_unit(0.1));
        assert_eq!(ma.bins()[old_bin], 0.0);
    }

    #[test]
    fn alpha_zero_keeps_history() {
        let mut ma = KeyHistogram::new(10);
        ma.add(HashKey::from_unit(0.1), 1);
        let before = ma.bins().to_vec();
        let mut recent = KeyHistogram::new(10);
        recent.add(HashKey::from_unit(0.9), 1);
        ma.merge_moving_average(&recent, 0.0);
        assert_eq!(ma.bins(), &before[..]);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = KeyHistogram::new(64);
        for i in 0..500 {
            h.add(HashKey::from_unit((i % 97) as f64 / 97.0), 3);
        }
        let cdf = h.to_cdf();
        let mut prev = HashKey(0);
        for i in 0..=20 {
            let q = cdf.quantile(i as f64 / 20.0);
            assert!(q >= prev, "quantile not monotone at {i}");
            prev = q;
        }
    }

    #[test]
    fn reset_zeroes() {
        let mut h = KeyHistogram::new(8);
        h.add(HashKey(1), 1);
        assert_eq!(h.samples(), 1);
        h.reset();
        assert_eq!(h.samples(), 0);
        assert_eq!(h.total(), 0.0);
    }
}
