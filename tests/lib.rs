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

/// Order-sensitive app: every value names where it was emitted (the
/// line's first token and the word's index in the line), and `reduce`
/// joins a key's values in arrival order. Its output equals a plain
/// in-order pass only if values reach `reduce` in input order — by
/// block, then by emit order — whatever the scheduler, node count or
/// transport.
pub struct InputOrder;

impl MapReduce for InputOrder {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        for line in String::from_utf8_lossy(block).lines() {
            let mut words = line.split_whitespace();
            let Some(tag) = words.next() else { continue };
            for (i, w) in words.enumerate() {
                emit(w.to_string(), format!("{tag}.{i}"));
            }
        }
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        emit(key.to_string(), values.join(","));
    }
}

/// Deterministic document corpus: `d{line}\t` plus six words from a
/// small vocabulary (long posting lists) and one word unique to the
/// line (singletons in every partition).
pub fn doc_corpus(lines: usize) -> String {
    let vocab = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"];
    let mut out = String::new();
    let mut state = 0x2545f4914f6cdd1du64;
    for line in 0..lines {
        out.push_str(&format!("d{line:04}\t"));
        for _ in 0..6 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.push_str(vocab[(state >> 59) as usize % vocab.len()]);
            out.push(' ');
        }
        out.push_str(&format!("w{line:04}\n"));
    }
    out
}

/// The plain single-threaded oracle the matrix cells must equal: cut
/// `data` into `block`-byte blocks exactly as an upload does, map each
/// block in order (decoded lossily), collect every key's values in
/// emit order, then reduce each key. Output sorted, like `run_job`'s.
pub fn oracle(
    data: &[u8],
    block: usize,
    map: impl Fn(&str, &mut dyn FnMut(&str, &str)),
    reduce: impl Fn(&[String]) -> String,
) -> Vec<(String, String)> {
    let mut groups: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    for chunk in data.chunks(block) {
        map(&String::from_utf8_lossy(chunk), &mut |k, v| {
            groups.entry(k.to_string()).or_default().push(v.to_string());
        });
    }
    groups.into_iter().map(|(k, vs)| (k, reduce(&vs))).collect()
}

/// Oracle map of `InvertedIndex`: `doc<TAB>text` lines, one
/// `(word, doc)` per word.
pub fn postings_map(text: &str, emit: &mut dyn FnMut(&str, &str)) {
    for line in text.lines() {
        if let Some((doc, words)) = line.split_once('\t') {
            for w in words.split_whitespace() {
                emit(w, doc);
            }
        }
    }
}

/// Oracle reduce of `InvertedIndex`: sorted, deduplicated doc ids.
pub fn postings_reduce(docs: &[String]) -> String {
    let mut docs = docs.to_vec();
    docs.sort();
    docs.dedup();
    docs.join(",")
}

/// Oracle map of `InputOrder`.
pub fn input_order_map(text: &str, emit: &mut dyn FnMut(&str, &str)) {
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let Some(tag) = words.next() else { continue };
        for (i, w) in words.enumerate() {
            emit(w, &format!("{tag}.{i}"));
        }
    }
}

/// Oracle of `Grep` for `pattern`: each matching line with its count.
pub fn grep_oracle(data: &[u8], block: usize, pattern: &str) -> Vec<(String, String)> {
    let map = |text: &str, emit: &mut dyn FnMut(&str, &str)| {
        for line in text.lines().filter(|l| l.contains(pattern)) {
            emit(line, "1");
        }
    };
    oracle(data, block, map, |vs| vs.len().to_string())
}
