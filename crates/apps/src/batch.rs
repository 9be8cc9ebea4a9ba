//! The paper's four non-iterative applications: word count, grep,
//! inverted index and sort (§III: "We use HiBench to generate 250 GB
//! text input datasets for the word count, inverted index, grep, and
//! sort applications").
//!
//! Each is a real [`MapReduce`] implementation the live executor runs
//! over real blocks.

use crate::words::for_each_word;
use eclipse_core::{Accumulator, MapReduce};
use std::borrow::Cow;
use std::fmt::Write;

/// Classic word count: `word -> occurrence count`.
pub struct WordCount;

impl WordCount {
    /// A partial count; unparsable values count as one occurrence. The
    /// mapped `"1"` is not parsed.
    fn count(v: &str) -> u64 {
        if v == "1" {
            1
        } else {
            v.parse::<u64>().unwrap_or(1)
        }
    }

    /// The partial count a combining accumulator holds: eight bytes,
    /// little-endian.
    fn partial(acc: &[u8]) -> u64 {
        u64::from_le_bytes(acc.try_into().expect("a word count accumulator is eight bytes"))
    }
}

impl MapReduce for WordCount {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        self.map_into(0, block, &mut |k, v| emit(k.into_owned(), v.into_owned()));
    }

    /// Words borrowed from the block (decoded once, lossily, and split
    /// as `split_whitespace` splits) and a static `"1"`: no allocation
    /// per occurrence.
    fn map_into(
        &self,
        _source: usize,
        block: &[u8],
        emit: &mut dyn FnMut(Cow<'_, str>, Cow<'_, str>),
    ) {
        for_each_word(&String::from_utf8_lossy(block), |w| {
            emit(Cow::Borrowed(w), Cow::Borrowed("1"));
        });
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce_into(key, &values.iter().map(String::as_str).collect::<Vec<_>>(), emit);
    }

    fn reduce_into(&self, key: &str, values: &[&str], emit: &mut dyn FnMut(String, String)) {
        let total: u64 = values.iter().map(|v| WordCount::count(v)).sum();
        emit(key.to_string(), total.to_string());
    }

    /// Counting is associative: pre-sum each spill map-side so the
    /// shuffle carries one partial count per word instead of one record
    /// per occurrence.
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce(key, values, emit);
    }

    fn has_combiner(&self) -> bool {
        true
    }

    /// The accumulator is the partial count as a `u64`, parsed by
    /// [`reduce`](MapReduce::reduce)'s rule, summed where it sits and
    /// formatted once, by `combine_finish`.
    fn combine_first(&self, _key: &str, value: &str, acc: &mut Vec<u8>) {
        acc.extend_from_slice(&WordCount::count(value).to_le_bytes());
    }

    fn combine_into(&self, _key: &str, acc: &mut Accumulator<'_>, value: &str) {
        let acc = acc.get_mut();
        let total = WordCount::partial(acc) + WordCount::count(value);
        acc.copy_from_slice(&total.to_le_bytes());
    }

    fn combine_finish(&self, _key: &str, acc: &[u8], out: &mut String) {
        write!(out, "{}", WordCount::partial(acc)).expect("writing to a String cannot fail");
    }
}

/// Grep: emit every line containing the pattern, keyed by the line
/// itself (the reduce phase deduplicates and counts occurrences).
pub struct Grep {
    pub pattern: String,
}

impl Grep {
    pub fn new(pattern: impl Into<String>) -> Grep {
        Grep { pattern: pattern.into() }
    }
}

impl MapReduce for Grep {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        self.map_into(0, block, &mut |k, v| emit(k.into_owned(), v.into_owned()));
    }

    /// Matching lines borrowed from the block and a static `"1"`.
    fn map_into(
        &self,
        _source: usize,
        block: &[u8],
        emit: &mut dyn FnMut(Cow<'_, str>, Cow<'_, str>),
    ) {
        for line in String::from_utf8_lossy(block).lines() {
            if line.contains(&self.pattern) {
                emit(Cow::Borrowed(line), Cow::Borrowed("1"));
            }
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce_into(key, &values.iter().map(String::as_str).collect::<Vec<_>>(), emit);
    }

    fn reduce_into(&self, key: &str, values: &[&str], emit: &mut dyn FnMut(String, String)) {
        emit(key.to_string(), values.len().to_string());
    }
}

/// Inverted index over documents. Input lines are `doc_id<TAB>text`;
/// output is `word -> sorted, deduplicated posting list of doc ids`.
pub struct InvertedIndex;

impl MapReduce for InvertedIndex {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        self.map_into(0, block, &mut |k, v| emit(k.into_owned(), v.into_owned()));
    }

    /// Words and doc ids borrowed from the block.
    fn map_into(
        &self,
        _source: usize,
        block: &[u8],
        emit: &mut dyn FnMut(Cow<'_, str>, Cow<'_, str>),
    ) {
        for line in String::from_utf8_lossy(block).lines() {
            let Some((doc, text)) = line.split_once('\t') else { continue };
            for_each_word(text, |w| emit(Cow::Borrowed(w), Cow::Borrowed(doc)));
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce_into(key, &values.iter().map(String::as_str).collect::<Vec<_>>(), emit);
    }

    fn reduce_into(&self, key: &str, values: &[&str], emit: &mut dyn FnMut(String, String)) {
        emit(key.to_string(), posting_list(values));
    }
}

/// `docs` sorted, deduplicated and joined with commas, in one walk when
/// they arrive in order: the merge hands `reduce_into` a key's values
/// in input order, where doc ids ascend, so adjacent duplicates are
/// skipped as the list is written. Only a doc id below its predecessor
/// sends the list through a sort.
fn posting_list(docs: &[&str]) -> String {
    let mut out = String::with_capacity(docs.iter().map(|d| d.len() + 1).sum());
    let mut prev: Option<&str> = None;
    for &doc in docs {
        match prev {
            Some(p) if doc == p => continue,
            Some(p) if doc < p => {
                let mut sorted = docs.to_vec();
                sorted.sort_unstable();
                return posting_list(&sorted);
            }
            Some(_) => out.push(','),
            None => {}
        }
        out.push_str(doc);
        prev = Some(doc);
    }
    out
}

/// Sort: identity map keyed by the record; the engine's per-partition
/// key grouping plus the final merge yields globally sorted output.
/// (The partitioner is hash-based, so the total order is established at
/// the final merge — the data volume through the shuffle matches a real
/// sort, which is what the evaluation exercises.)
pub struct Sort;

impl MapReduce for Sort {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        for line in String::from_utf8_lossy(block).lines() {
            if !line.is_empty() {
                emit(line.to_string(), String::new());
            }
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        // Emit one record per input occurrence (stable for duplicates).
        for _ in values {
            emit(key.to_string(), String::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_core::{LiveCluster, LiveConfig, ReusePolicy};
    use proptest::prelude::*;

    fn cluster_with(data: &str) -> LiveCluster {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(512));
        c.upload("in", "u", data.as_bytes());
        c
    }

    #[test]
    fn grep_finds_only_matches() {
        let mut data = String::new();
        for i in 0..200 {
            if i % 10 == 0 {
                data.push_str(&format!("needle line {i}\n"));
            } else {
                data.push_str(&format!("plain line {i}\n"));
            }
        }
        let c = cluster_with(&data);
        let (out, _) = c.run_job(&Grep::new("needle"), "in", "u", 4, ReusePolicy::default());
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|(k, _)| k.contains("needle")));
    }

    #[test]
    fn inverted_index_builds_postings() {
        let data = "\
doc1\tapple banana
doc2\tbanana cherry
doc3\tapple cherry banana
";
        let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
        c.upload("in", "u", data.as_bytes());
        let (out, _) = c.run_job(&InvertedIndex, "in", "u", 2, ReusePolicy::default());
        let get = |w: &str| out.iter().find(|(k, _)| k == w).map(|(_, v)| v.clone());
        assert_eq!(get("apple").unwrap(), "doc1,doc3");
        assert_eq!(get("banana").unwrap(), "doc1,doc2,doc3");
        assert_eq!(get("cherry").unwrap(), "doc2,doc3");
    }

    #[test]
    fn sort_orders_records() {
        let mut lines: Vec<String> = (0..300).map(|i| format!("{:08}", (i * 7919) % 100000)).collect();
        let data = lines.join("\n") + "\n";
        let c = cluster_with(&data);
        let (out, _) = c.run_job(&Sort, "in", "u", 4, ReusePolicy::default());
        let sorted: Vec<String> = out.iter().map(|(k, _)| k.clone()).collect();
        lines.sort();
        // Block boundaries may split a line in two; the overwhelming
        // majority must survive intact and in order.
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
        let intact = sorted.iter().filter(|s| lines.binary_search(s).is_ok()).count();
        assert!(intact >= 290, "only {intact} of 300 records intact");
    }

    #[test]
    fn combiner_preserves_counts() {
        // With the combiner, shuffle records collapse to one partial sum
        // per (word, spill); the final counts are unchanged.
        let data = "x y x z x y\n".repeat(500);
        let c = LiveCluster::new(LiveConfig::small().with_block_size(1024));
        c.upload("in", "u", data.as_bytes());
        let (out, _) = c.run_job(&WordCount, "in", "u", 3, ReusePolicy::default());
        let get = |w: &str| -> u64 {
            out.iter().find(|(k, _)| k == w).map(|(_, v)| v.parse().unwrap()).unwrap_or(0)
        };
        // Block splits may cut a handful of words.
        assert!(get("x") >= 1480 && get("x") <= 1500, "x={}", get("x"));
        assert!(get("y") >= 980 && get("y") <= 1000);
        assert!(get("z") >= 480 && get("z") <= 500);
    }

    /// `map_into`'s borrowed pairs, made owned, are exactly what `map`
    /// emits — same words, same order — on the inputs where decoding and
    /// splitting have edges.
    #[test]
    fn word_count_map_into_matches_map_on_edge_inputs() {
        let blocks: [&[u8]; 9] = [
            b"",
            b"vertical\x0btab\x0b\x0b splits \x1c not",
            b"no trailing newline",
            b"crlf\r\nline two\r\n",
            b"bad \xff\xfe utf8 a\xc3",
            "nbsp\u{a0}joined ideographic\u{3000}space".as_bytes(),
            b"  \t lead and trail \n\n",
            b"\xe2\x82",
            b"one",
        ];
        for block in blocks {
            let mut via_map = Vec::new();
            WordCount.map(block, &mut |k, v| via_map.push((k, v)));
            let mut via_into = Vec::new();
            WordCount
                .map_into(3, block, &mut |k, v| via_into.push((k.into_owned(), v.into_owned())));
            assert_eq!(via_into, via_map, "block {block:?}");
            assert!(via_map.iter().all(|(_, v)| v == "1"));
        }
        let mut nbsp = Vec::new();
        WordCount.map("a\u{a0}b\u{3000}c".as_bytes(), &mut |k, _| nbsp.push(k));
        assert_eq!(nbsp, ["a", "b", "c"], "Unicode whitespace splits words");
        let mut vt = Vec::new();
        WordCount.map(b"a\x0bb\x1cc", &mut |k, _| vt.push(k));
        assert_eq!(vt, ["a", "b\x1cc"], "vertical tab splits words, U+001C does not");
    }

    /// The words and pairs the apps emitted before they had their own
    /// tokenizer: the lossily decoded block through `split_whitespace`.
    fn reference_words(block: &[u8]) -> Vec<(String, String)> {
        let text = String::from_utf8_lossy(block);
        text.split_whitespace().map(|w| (w.to_string(), "1".to_string())).collect()
    }

    fn reference_postings(block: &[u8]) -> Vec<(String, String)> {
        let text = String::from_utf8_lossy(block);
        let mut out = Vec::new();
        for line in text.lines() {
            let Some((doc, text)) = line.split_once('\t') else { continue };
            out.extend(text.split_whitespace().map(|w| (w.to_string(), doc.to_string())));
        }
        out
    }

    fn via_map(app: &dyn MapReduce, block: &[u8]) -> Vec<(String, String)> {
        let mut out = Vec::new();
        app.map(block, &mut |k, v| out.push((k, v)));
        out
    }

    fn via_map_into(app: &dyn MapReduce, block: &[u8]) -> Vec<(String, String)> {
        let mut out = Vec::new();
        app.map_into(1, block, &mut |k, v| out.push((k.into_owned(), v.into_owned())));
        out
    }

    /// A value a word count accumulator may meet: a mapped `"1"`, a
    /// partial count from another spill, a large count (32 of them still
    /// fit in a `u64`), or one `reduce` counts as one occurrence —
    /// unparsable text, the empty string, a negative number, a number
    /// past `u64::MAX`.
    fn count_value() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("1".to_string()),
            "[0-9]{1,12}",
            Just((u64::MAX / 64).to_string()),
            "[a-z]{1,3}",
            Just(String::new()),
            Just("-3".to_string()),
            Just("18446744073709551616".to_string()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On any block — separators of every class, invalid UTF-8 — the
        /// text apps' `map` and `map_into` emit the reference pairs.
        #[test]
        fn text_apps_map_like_split_whitespace(
            block in crate::words::tests::arb_block(),
            doc in prop::collection::vec(crate::words::tests::arb_block(), 0..4),
        ) {
            prop_assert_eq!(via_map(&WordCount, &block), reference_words(&block));
            prop_assert_eq!(via_map_into(&WordCount, &block), reference_words(&block));
            // Inverted-index lines: `doc<TAB>text`, some without a tab.
            let mut lines = Vec::new();
            for (i, text) in doc.iter().enumerate() {
                if i % 3 != 2 {
                    lines.extend_from_slice(format!("d{i}\t").as_bytes());
                }
                lines.extend_from_slice(text);
                lines.push(b'\n');
            }
            lines.extend_from_slice(&block);
            prop_assert_eq!(via_map(&InvertedIndex, &lines), reference_postings(&lines));
            prop_assert_eq!(via_map_into(&InvertedIndex, &lines), reference_postings(&lines));
        }

        /// The binary fold — `combine_first`, `combine_into` for each
        /// further value, `combine_finish` — equals folding `combine`
        /// pairwise, parsing rule included. A single value ships as its
        /// count, which `reduce` reads as the value itself.
        #[test]
        fn word_count_combine_into_matches_combine(
            values in prop::collection::vec(count_value(), 1..32),
        ) {
            let mut acc = Vec::new();
            WordCount.combine_first("w", &values[0], &mut acc);
            let mut handle = Accumulator::of(&mut acc);
            for v in &values[1..] {
                WordCount.combine_into("w", &mut handle, v);
            }
            let mut finished = String::new();
            WordCount.combine_finish("w", &acc, &mut finished);

            let mut pairwise = values[0].clone();
            for v in &values[1..] {
                let mut out = Vec::new();
                WordCount.combine("w", &[pairwise, v.clone()], &mut |k, v| out.push((k, v)));
                prop_assert_eq!(out.len(), 1);
                let (k, v) = out.pop().expect("one value");
                prop_assert_eq!(k, "w");
                pairwise = v;
            }
            if values.len() > 1 {
                prop_assert_eq!(&finished, &pairwise, "values {:?}", values);
            }
            let reduce = |v: &str| {
                let mut out = Vec::new();
                WordCount.reduce_into("w", &[v], &mut |k, v| out.push((k, v)));
                out
            };
            prop_assert_eq!(reduce(&finished), reduce(&pairwise), "values {:?}", values);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A posting list is the doc ids sorted, deduplicated and joined
        /// with commas, for any list: in order or not, with duplicates
        /// and empty ids.
        #[test]
        fn posting_list_equals_sort_dedup_join(
            docs in prop::collection::vec(
                prop_oneof![Just(String::new()), "[a-c]{1,2}", "d[0-9]{2}"], 0..24),
            sort_first in any::<bool>(),
        ) {
            let mut docs: Vec<&str> = docs.iter().map(String::as_str).collect();
            if sort_first {
                docs.sort_unstable();
            }
            let mut want = docs.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(posting_list(&docs), want.join(","), "docs {:?}", docs);
        }
    }

    /// The text apps' map cost in ns per input line, on Zipf corpora cut
    /// into 262,080-byte blocks: word count over 2,000 words and the
    /// inverted index over 50,000, 10 words per line. Best of five:
    ///
    /// ```text
    /// cargo test --release -p eclipse-apps --lib map_timing -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "a timing, not a check: run by hand in release"]
    fn map_timing() {
        use eclipse_workloads::TextGen;
        use std::time::Instant;
        let words = TextGen::new(2_000, 1.0, 10).generate(42, 4 << 20);
        let docs = TextGen::new(50_000, 1.0, 10).generate_documents(42, 4 << 20);
        let apps: [(&str, &dyn MapReduce, &str); 2] =
            [("WordCount", &WordCount, &words), ("InvertedIndex", &InvertedIndex, &docs)];
        for (name, app, text) in apps {
            let lines = text.lines().count() as f64;
            let mut best = f64::MAX;
            let mut emitted = 0usize;
            for _ in 0..5 {
                let t = Instant::now();
                for block in text.as_bytes().chunks(262_080) {
                    app.map_into(0, block, &mut |k, v| emitted += k.len() + v.len());
                }
                best = best.min(t.elapsed().as_nanos() as f64 / lines);
            }
            assert!(emitted > 0);
            println!("{name} map_into: {best:.1} ns/line");
        }
    }

    #[test]
    fn word_count_aggregates() {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(1 << 20));
        c.upload("in", "u", b"a b a\nb a\n");
        let (out, _) = c.run_job(&WordCount, "in", "u", 2, ReusePolicy::default());
        assert_eq!(out, vec![("a".into(), "3".into()), ("b".into(), "2".into())]);
    }
}
