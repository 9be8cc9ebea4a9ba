//! Plain single-threaded references the system's outputs are checked
//! against: no blocks, no shuffle, no cluster — one pass over the text
//! and a `HashMap`. Kept independent of the repo's crates on purpose.
//!
//! The references are exact because every generated line has a fixed
//! width that divides the block size, so the engine (which splits
//! blocks at byte offsets) never cuts a record in two.

use std::collections::HashMap;

/// Output pairs, sorted by key then value — the shape every run path
/// of the system returns.
pub type Pairs = Vec<(String, String)>;

/// What to compute; mirrors the three applications the workloads run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Task {
    WordCount,
    InvertedIndex,
    Grep(String),
}

pub fn reference(task: &Task, text: &str) -> Pairs {
    match task {
        Task::WordCount => counts_to_pairs(&word_counts(text)),
        Task::InvertedIndex => inverted_index(text),
        Task::Grep(pattern) => grep(text, pattern),
    }
}

/// Number of map-input records: one per line.
pub fn record_count(text: &str) -> u64 {
    text.as_bytes().iter().filter(|&&b| b == b'\n').count() as u64
}

pub fn word_counts(text: &str) -> HashMap<&str, u64> {
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for w in text.split_ascii_whitespace() {
        *counts.entry(w).or_insert(0) += 1;
    }
    counts
}

/// Fold `delta` into running totals (the epoch stream's reference:
/// word count over base + every delta so far).
pub fn add_counts(totals: &mut HashMap<String, u64>, delta: &HashMap<&str, u64>) {
    for (w, n) in delta {
        match totals.get_mut(*w) {
            Some(t) => *t += n,
            None => {
                totals.insert((*w).to_string(), *n);
            }
        }
    }
}

pub fn counts_to_pairs<K: AsRef<str>>(counts: &HashMap<K, u64>) -> Pairs {
    let mut out: Pairs =
        counts.iter().map(|(w, n)| (w.as_ref().to_string(), n.to_string())).collect();
    out.sort();
    out
}

/// `doc_id<TAB>text` lines → word → sorted, de-duplicated, comma-joined
/// doc ids.
fn inverted_index(text: &str) -> Pairs {
    let mut postings: HashMap<&str, Vec<&str>> = HashMap::new();
    for line in text.lines() {
        let Some((doc, body)) = line.split_once('\t') else { continue };
        for w in body.split_ascii_whitespace() {
            postings.entry(w).or_default().push(doc);
        }
    }
    let mut out: Pairs = postings
        .into_iter()
        .map(|(w, mut docs)| {
            docs.sort_unstable();
            docs.dedup();
            (w.to_string(), docs.join(","))
        })
        .collect();
    out.sort();
    out
}

/// Matching line → number of times that exact line occurs.
fn grep(text: &str, pattern: &str) -> Pairs {
    let mut hits: HashMap<&str, u64> = HashMap::new();
    for line in text.lines().filter(|l| l.contains(pattern)) {
        *hits.entry(line).or_insert(0) += 1;
    }
    counts_to_pairs(&hits)
}

/// Flip one byte of one value: the fault the `--corrupt-reference`
/// switch injects to prove a mismatch is caught.
pub fn corrupt(pairs: &mut Pairs) {
    let (_, v) = pairs.last_mut().expect("reference is never empty");
    let mut bytes = std::mem::take(v).into_bytes();
    let last = bytes.last_mut().expect("values are never empty");
    *last = if *last == b'7' { b'8' } else { b'7' };
    *v = String::from_utf8(bytes).expect("ASCII stays ASCII");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(items: &[(&str, &str)]) -> Pairs {
        items.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn word_count_counts_and_sorts() {
        let got = reference(&Task::WordCount, "b a b\na c\n");
        assert_eq!(got, pairs(&[("a", "2"), ("b", "2"), ("c", "1")]));
        assert_eq!(record_count("b a b\na c\n"), 2);
    }

    #[test]
    fn inverted_index_dedups_and_orders_postings() {
        let text = "doc2\tx y\ndoc1\ty y\nmalformed line\n";
        let got = reference(&Task::InvertedIndex, text);
        assert_eq!(got, pairs(&[("x", "doc2"), ("y", "doc1,doc2")]));
    }

    #[test]
    fn grep_counts_identical_lines() {
        let got = reference(&Task::Grep("ee".into()), "see me\nnope\nsee me\nbee\n");
        assert_eq!(got, pairs(&[("bee", "1"), ("see me", "2")]));
    }

    #[test]
    fn running_totals_equal_one_pass_over_the_concatenation() {
        let (base, delta) = ("a b a\n", "b c\n");
        let mut totals = HashMap::new();
        add_counts(&mut totals, &word_counts(base));
        add_counts(&mut totals, &word_counts(delta));
        let concat = format!("{base}{delta}");
        assert_eq!(counts_to_pairs(&totals), reference(&Task::WordCount, &concat));
    }

    #[test]
    fn corrupt_changes_exactly_one_byte() {
        let clean = pairs(&[("a", "17"), ("b", "7")]);
        let mut bad = clean.clone();
        corrupt(&mut bad);
        assert_eq!(bad[0], clean[0]);
        assert_eq!(bad[1], ("b".to_string(), "8".to_string()));
    }
}
