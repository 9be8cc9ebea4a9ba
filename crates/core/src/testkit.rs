//! Shared fixtures for this crate's unit tests.
#![cfg(test)]

use crate::live::MapReduce;

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
