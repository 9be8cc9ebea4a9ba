//! Integration tests live in the sibling *.rs files (see Cargo.toml);
//! this library holds the fixtures more than one of them uses.

use eclipse_apps::WordCount;
use eclipse_core::MapReduce;

/// [`WordCount`] with the combiner disabled: same map and reduce, but
/// the shuffle ships one record per occurrence instead of per-spill
/// partial sums — the harshest cell for the shuffle plane and the
/// transport. The fold is order-insensitive (addition), so the output
/// must match the combined run exactly.
pub struct WordCountNoCombiner;

impl MapReduce for WordCountNoCombiner {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        WordCount.map(block, emit);
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.reduce(key, values, emit);
    }
}
