//! Shared fixtures for this crate's unit tests.
#![cfg(test)]

use crate::live::{Accumulator, MapReduce};
use std::borrow::Cow;
use std::fmt::Write;

/// Word count, the canonical MapReduce.
pub(crate) struct WordCount;

impl MapReduce for WordCount {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        for w in String::from_utf8_lossy(block).split_whitespace() {
            emit(w.to_string(), "1".to_string());
        }
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        emit(key.to_string(), values.len().to_string());
    }
}

/// Word count with a combiner whose accumulator is the partial count as
/// eight little-endian bytes, summed where it sits: the shape of
/// `eclipse-apps`' `WordCount`, which this crate's unit tests cannot
/// name (that crate depends on this one). A value that does not parse
/// as a `u64` counts as one occurrence.
pub(crate) struct CountWords;

impl CountWords {
    fn count(v: &str) -> u64 {
        v.parse().unwrap_or(1)
    }

    fn partial(acc: &[u8]) -> u64 {
        u64::from_le_bytes(acc.try_into().expect("an eight-byte count"))
    }
}

impl MapReduce for CountWords {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        WordCount.map(block, emit);
    }
    fn map_into(
        &self,
        _source: usize,
        block: &[u8],
        emit: &mut dyn FnMut(Cow<'_, str>, Cow<'_, str>),
    ) {
        for w in String::from_utf8_lossy(block).split_whitespace() {
            emit(Cow::Borrowed(w), Cow::Borrowed("1"));
        }
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        let total: u64 = values.iter().map(|v| CountWords::count(v)).sum();
        emit(key.to_string(), total.to_string());
    }
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce(key, values, emit);
    }
    fn has_combiner(&self) -> bool {
        true
    }
    fn combine_first(&self, _key: &str, value: &str, acc: &mut Vec<u8>) {
        acc.extend_from_slice(&CountWords::count(value).to_le_bytes());
    }
    fn combine_into(&self, _key: &str, acc: &mut Accumulator<'_>, value: &str) {
        let acc = acc.get_mut();
        let total = CountWords::partial(acc) + CountWords::count(value);
        acc.copy_from_slice(&total.to_le_bytes());
    }
    fn combine_finish(&self, _key: &str, acc: &[u8], out: &mut String) {
        write!(out, "{}", CountWords::partial(acc)).expect("writing to a String cannot fail");
    }
}

/// Signed decimal sum through the default accumulator adapters: the
/// accumulator is the value's text, so a fold can grow it
/// (`"9"` + `"1"` = `"10"`) or shrink it (`"100"` + `"-99"` = `"1"`).
pub(crate) struct Sum;

impl MapReduce for Sum {
    fn map(&self, _block: &[u8], _emit: &mut dyn FnMut(String, String)) {}
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        let total: i64 = values.iter().map(|v| v.parse::<i64>().expect("a decimal")).sum();
        emit(key.to_string(), total.to_string());
    }
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce(key, values, emit);
    }
    fn has_combiner(&self) -> bool {
        true
    }
}
