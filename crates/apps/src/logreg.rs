//! Iterative logistic regression (batch gradient descent) on the live
//! executor — the paper's third iterative application (10 iterations in
//! §III-E).
//!
//! Map computes per-block partial gradients against the current weights;
//! reduce sums them; the driver applies the update and stores each
//! iteration's weights in oCache tagged `logreg/iter<i>`.

use bytes::Bytes;
use eclipse_core::{LiveCluster, MapReduce, ReusePolicy};
use eclipse_workloads::{Labeled, DIM};

/// One gradient round with fixed weights.
struct GradientRound {
    weights: [f64; DIM],
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Parse a labeled example line: `label,f0,...,f7`.
fn parse_example(line: &str) -> Option<Labeled> {
    let mut toks = line.split(',');
    let label: f64 = toks.next()?.trim().parse().ok()?;
    let mut features = [0.0f64; DIM];
    for f in features.iter_mut() {
        *f = toks.next()?.trim().parse().ok()?;
    }
    Some(Labeled { features, label })
}

/// Serialize labeled examples as `label,f0,...,f7` lines.
pub fn examples_to_csv(examples: &[Labeled]) -> String {
    let mut s = String::with_capacity(examples.len() * DIM * 8);
    for e in examples {
        s.push_str(&format!("{}", e.label));
        for f in &e.features {
            s.push_str(&format!(",{f:.5}"));
        }
        s.push('\n');
    }
    s
}

impl MapReduce for GradientRound {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        let mut grad = [0.0f64; DIM];
        let mut count = 0u64;
        for line in String::from_utf8_lossy(block).lines() {
            let Some(ex) = parse_example(line) else { continue };
            // y in {-1,+1}: gradient of log-loss.
            let z: f64 = ex.features.iter().zip(&self.weights).map(|(x, w)| x * w).sum();
            let coeff = ex.label * (sigmoid(ex.label * z) - 1.0);
            for (g, x) in grad.iter_mut().zip(&ex.features) {
                *g += coeff * x;
            }
            count += 1;
        }
        if count > 0 {
            let coords: Vec<String> = grad.iter().map(|g| format!("{g:.9}")).collect();
            emit("grad".to_string(), format!("{count}|{}", coords.join(",")));
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        let mut total = [0.0f64; DIM];
        let mut n = 0u64;
        for v in values {
            let Some((count, coords)) = v.split_once('|') else { continue };
            let Ok(c) = count.parse::<u64>() else { continue };
            let parts: Vec<f64> = coords.split(',').filter_map(|t| t.parse().ok()).collect();
            if parts.len() == DIM {
                for d in 0..DIM {
                    total[d] += parts[d];
                }
                n += c;
            }
        }
        if n > 0 {
            let coords: Vec<String> = total.iter().map(|g| format!("{:.9}", g / n as f64)).collect();
            emit(key.to_string(), coords.join(","));
        }
    }
}

/// Result of a logistic-regression run.
#[derive(Clone, Debug)]
pub struct LogRegResult {
    pub weights: [f64; DIM],
    /// Gradient L2 norm per iteration (convergence trace).
    pub grad_norms: Vec<f64>,
}

/// Train for `iterations` rounds with learning rate `lr` over the CSV
/// example file `input`. Iteration weights are cached in oCache.
pub fn run_logreg(
    cluster: &LiveCluster,
    input: &str,
    user: &str,
    lr: f64,
    iterations: u32,
    reducers: usize,
) -> LogRegResult {
    let mut weights = [0.0f64; DIM];
    let mut grad_norms = Vec::with_capacity(iterations as usize);
    for iter in 0..iterations {
        if let Some(cached) = cluster.ocache_get("logreg", &format!("iter{iter}")) {
            let parsed: Vec<f64> = String::from_utf8_lossy(&cached)
                .trim()
                .split(',')
                .filter_map(|t| t.parse().ok())
                .collect();
            assert_eq!(parsed.len(), DIM, "cached weights malformed");
            weights.copy_from_slice(&parsed);
            grad_norms.push(f64::NAN); // unknown for resumed iterations
            continue;
        }
        let round = GradientRound { weights };
        let (out, _) = cluster.run_job(&round, input, user, reducers, ReusePolicy::full());
        let grad_str = out
            .iter()
            .find(|(k, _)| k == "grad")
            .map(|(_, v)| v.clone())
            .expect("gradient emitted");
        let grad: Vec<f64> = grad_str.split(',').filter_map(|t| t.parse().ok()).collect();
        assert_eq!(grad.len(), DIM);
        let norm: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        grad_norms.push(norm);
        for d in 0..DIM {
            weights[d] -= lr * grad[d];
        }
        let ser: Vec<String> = weights.iter().map(|w| format!("{w:.9}")).collect();
        cluster.ocache_put("logreg", &format!("iter{iter}"), Bytes::from(ser.join(",")), None);
    }
    LogRegResult { weights, grad_norms }
}

/// Classification accuracy of `weights` on `examples`.
pub fn accuracy(weights: &[f64; DIM], examples: &[Labeled]) -> f64 {
    if examples.is_empty() {
        return 0.0;
    }
    let correct = examples
        .iter()
        .filter(|e| {
            let z: f64 = e.features.iter().zip(weights).map(|(x, w)| x * w).sum();
            (z >= 0.0) == (e.label > 0.0)
        })
        .count();
    correct as f64 / examples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_core::LiveConfig;
    use eclipse_workloads::labeled_points;

    #[test]
    fn learns_separable_data() {
        let examples = labeled_points(2000, 0.0, 3);
        let csv = examples_to_csv(&examples);
        let c = LiveCluster::new(LiveConfig::small().with_block_size(8192));
        c.upload("train", "u", csv.as_bytes());
        let result = run_logreg(&c, "train", "u", 1.0, 10, 4);
        let acc = accuracy(&result.weights, &examples);
        assert!(acc > 0.95, "accuracy {acc}");
        // Gradient norms should trend downward.
        let first = result.grad_norms[0];
        let last = *result.grad_norms.last().unwrap();
        assert!(last < first, "{:?}", result.grad_norms);
    }

    #[test]
    fn weights_cached_per_iteration() {
        let examples = labeled_points(500, 0.1, 4);
        let csv = examples_to_csv(&examples);
        let c = LiveCluster::new(LiveConfig::small().with_block_size(8192));
        c.upload("train", "u", csv.as_bytes());
        let r1 = run_logreg(&c, "train", "u", 0.5, 3, 2);
        assert!(c.ocache_get("logreg", "iter2").is_some());
        let r2 = run_logreg(&c, "train", "u", 0.5, 3, 2);
        for d in 0..DIM {
            assert!((r1.weights[d] - r2.weights[d]).abs() < 1e-9, "resume mismatch");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_example("not,numbers,a,b,c,d,e,f,g").is_none());
        assert!(parse_example("1.0,1,2,3,4,5,6,7,8").is_some());
        assert!(parse_example("1.0,1,2,3").is_none(), "too few features");
    }

    #[test]
    fn accuracy_bounds() {
        let examples = labeled_points(100, 0.0, 9);
        let zero = [0.0f64; DIM];
        let acc = accuracy(&zero, &examples);
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(accuracy(&zero, &[]), 0.0);
    }
}
