//! Sorted, front-coded record runs: the shuffle's record format from
//! the map-side spill to `reduce`.
//!
//! A [`RecordRun`] is an owned byte buffer plus a record count. Its
//! bytes are exactly the record section of a `ShuffleBatch` body:
//!
//! ```text
//! varint count                      (written by the codec, see `encode`)
//! per record, in key order:
//!   varint shared    bytes the key shares with the previous key
//!   varint len + key suffix bytes
//!   varint len + value bytes
//! ```
//!
//! A key equal to its predecessor is the general rule's special case:
//! `shared` is the whole key and the suffix is empty. Every stage below
//! pays one value for it, not one key: the builder writes it without a
//! prefix scan, validation checks only its value, the cursor keeps the
//! key it holds, and the merge keeps that cursor on top of its heap.
//!
//! A map worker builds a run once per spill ([`RunBuilder`]); the run
//! travels unchanged to the reducer, whether over the wire (the frame
//! body *is* the run, taken by value with no second copy) or through a
//! node-local channel. A received run is validated once, on receipt
//! ([`RecordRun::from_body`]); afterwards a [`RunCursor`] reads it
//! without allocating per record, and [`merge_groups`] k-way merges a
//! partition's runs into key groups. The executor merges the runs of
//! an app without a combiner, a partition's single run and an epoch
//! fold's delta runs; a combiner app's partition with several runs
//! reads each with a cursor and folds its records into a combining
//! table instead.

use crate::wire::{CodecError, Reader, Writer};
use std::fmt;

/// An owned, key-sorted run of `(key, value)` records (see the module
/// docs for the byte layout). Keys never decrease; every key and value
/// is UTF-8.
#[derive(Clone, Default)]
pub struct RecordRun {
    /// Backing bytes; the records start at `start`. A run taken from a
    /// frame body keeps the body's message header in front.
    buf: Vec<u8>,
    start: usize,
    len: usize,
}

impl RecordRun {
    /// The empty run.
    pub fn new() -> RecordRun {
        RecordRun::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded records, without the count.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Iterate the records in key order.
    pub fn cursor(&self) -> RunCursor<'_> {
        RunCursor { rest: self.as_bytes(), left: self.len, key: String::new() }
    }

    /// Build a run from owned pairs, sorting them by key first (stable:
    /// equal keys keep their order). For tests and adapters; the
    /// executor builds runs with a [`RunBuilder`].
    pub fn from_pairs<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> RecordRun {
        let mut order: Vec<&(K, V)> = pairs.iter().collect();
        order.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        let mut b = RunBuilder::default();
        for (k, v) in order {
            b.push(k.as_ref().as_bytes(), v.as_ref().as_bytes());
        }
        b.finish()
    }

    /// The records as owned pairs, in run order.
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(self.len);
        let mut c = self.cursor();
        while let Some((k, v)) = c.next() {
            out.push((k.to_string(), v.to_string()));
        }
        out
    }

    /// Append the run to a message body: the count, then the records.
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.varint(self.len as u64);
        w.raw(self.as_bytes());
    }

    /// Take a message body by value and validate the run that fills it
    /// from byte `at` to the end: the count, then every record. Checks
    /// bounds, `shared <= previous key length`, UTF-8 of every
    /// reconstructed key and every value, and that keys never decrease.
    /// The body is kept as the run's storage; nothing is copied.
    pub fn from_body(body: Vec<u8>, at: usize) -> Result<RecordRun, CodecError> {
        let rest = body.get(at..).ok_or(CodecError::FieldOverrun)?;
        let mut r = Reader::new(rest);
        let len = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
        let start = at + r.position();
        // The previous key, rebuilt in place record by record.
        let mut prev = Vec::new();
        for _ in 0..len {
            let shared = usize::try_from(r.varint()?).map_err(|_| CodecError::FieldOverrun)?;
            if shared > prev.len() {
                return Err(CodecError::FieldOverrun);
            }
            let suffix = r.vbytes()?;
            // A repeated key (the whole previous key shared, no suffix)
            // is as valid and as sorted as its predecessor.
            let mut sorted = true;
            if !(suffix.is_empty() && shared == prev.len()) {
                // The new key is `prev[..shared] + suffix`, so it sorts
                // below `prev` exactly when `suffix` sorts below the
                // tail it replaces.
                sorted = suffix >= &prev[shared..];
                // `prev` is UTF-8: only the bytes from the last
                // character boundary at or before `shared` need checking.
                let mut from = shared;
                while from > 0 && from < prev.len() && prev[from] & 0xc0 == 0x80 {
                    from -= 1;
                }
                prev.truncate(shared);
                prev.extend_from_slice(suffix);
                std::str::from_utf8(&prev[from..]).map_err(|_| CodecError::BadUtf8)?;
            }
            std::str::from_utf8(r.vbytes()?).map_err(|_| CodecError::BadUtf8)?;
            if !sorted {
                return Err(CodecError::Unsorted);
            }
        }
        r.finish()?;
        Ok(RecordRun { buf: body, start, len })
    }
}

impl PartialEq for RecordRun {
    /// Equal runs hold the same records in the same encoding, wherever
    /// their storage starts.
    fn eq(&self, other: &RecordRun) -> bool {
        self.len == other.len && self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for RecordRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordRun")
            .field("len", &self.len)
            .field("bytes", &self.as_bytes().len())
            .finish()
    }
}

/// Writes a [`RecordRun`] from `(key, value)` byte pairs given in key
/// order, front-coding each key against its predecessor.
#[derive(Default)]
pub struct RunBuilder {
    buf: Vec<u8>,
    len: usize,
    prev: Vec<u8>,
}

impl RunBuilder {
    /// A builder whose buffer starts with `bytes` of capacity.
    pub fn with_capacity(bytes: usize) -> RunBuilder {
        RunBuilder { buf: Vec::with_capacity(bytes), ..RunBuilder::default() }
    }

    /// Append one record. `key` and `value` are UTF-8 bytes.
    ///
    /// # Panics
    ///
    /// When `key` sorts below the previous key: a run is sorted by
    /// construction.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(std::str::from_utf8(key).is_ok() && std::str::from_utf8(value).is_ok());
        if key == self.prev.as_slice() {
            // The general path's bytes for a repeat: the whole previous
            // key shared, an empty suffix.
            let mut w = Writer::new(&mut self.buf);
            w.varint(key.len() as u64);
            w.u8(0);
            w.vbytes(value);
            self.len += 1;
            return;
        }
        let shared = common_prefix(&self.prev, key);
        // Past the shared prefix the previous key must be exhausted or
        // smaller at its first differing byte.
        let ordered = shared == self.prev.len() || key.get(shared) > self.prev.get(shared);
        assert!(ordered, "RunBuilder::push: keys must be pushed in order");
        let mut w = Writer::new(&mut self.buf);
        w.varint(shared as u64);
        w.vbytes(&key[shared..]);
        w.vbytes(value);
        self.prev.truncate(shared);
        self.prev.extend_from_slice(&key[shared..]);
        self.len += 1;
    }

    /// Seal the run.
    pub fn finish(self) -> RecordRun {
        RecordRun { buf: self.buf, start: 0, len: self.len }
    }
}

/// Length of the longest common prefix of `a` and `b`, in bytes.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Reads a run's records in order. Each call to [`next`](Self::next)
/// rebuilds the key in one reused buffer (a repeated key is left as it
/// is) and borrows the value from the run, so iterating allocates
/// nothing per record. Total: a malformed tail (which a validated run
/// never has) ends the iteration.
pub struct RunCursor<'a> {
    rest: &'a [u8],
    left: usize,
    key: String,
}

impl<'a> RunCursor<'a> {
    /// The next record: a key valid until the following call, and a
    /// value borrowed from the run.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(&str, &'a str)> {
        let (value, _) = self.advance()?;
        Some((&self.key, value))
    }

    /// Step to the next record: its value, and `true` when its key
    /// repeats the previous one (the whole key shared, no suffix), in
    /// which case the key is neither rebuilt nor re-checked.
    fn advance(&mut self) -> Option<(&'a str, bool)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let shared = usize::try_from(self.varint()?).ok()?;
        let suffix = self.vbytes()?;
        let value = std::str::from_utf8(self.vbytes()?).ok()?;
        if suffix.is_empty() && shared == self.key.len() {
            return Some((value, true));
        }
        if shared > self.key.len() {
            return None;
        }
        if self.key.is_char_boundary(shared) {
            let suffix = std::str::from_utf8(suffix).ok()?;
            self.key.truncate(shared);
            self.key.push_str(suffix);
        } else {
            // The shared prefix ends inside a code point (`é` then
            // `ê`): rebuild the bytes and re-check them as a whole.
            let mut bytes = std::mem::take(&mut self.key).into_bytes();
            bytes.truncate(shared);
            bytes.extend_from_slice(suffix);
            self.key = String::from_utf8(bytes).ok()?;
        }
        Some((value, false))
    }

    /// The key [`next`](Self::next) last returned.
    pub fn key(&self) -> &str {
        &self.key
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for (i, &b) in self.rest.iter().enumerate().take(10) {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.rest = &self.rest[i + 1..];
                return Some(v);
            }
        }
        None
    }

    fn vbytes(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.varint()?).ok()?;
        if n > self.rest.len() {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }
}

/// K-way merge `runs` into key groups: `group(key, values)` is called
/// once per distinct key, in key order. A key's values arrive run by
/// run in the order `runs` yields them, and within a run in record
/// order: ties are broken by run position, so the merge is stable.
pub fn merge_groups<'a>(
    runs: impl IntoIterator<Item = &'a RecordRun>,
    mut group: impl FnMut(&str, &[&'a str]),
) {
    // One cursor per non-empty run, positioned on its first record.
    let mut heads: Vec<(RunCursor<'a>, &'a str)> = Vec::new();
    for run in runs {
        let mut c = run.cursor();
        if let Some((_, v)) = c.next() {
            heads.push((c, v));
        }
    }
    // Min-heap of head indices by (key, index): index order is run
    // order, which makes equal keys pop in input order.
    let less = |heads: &[(RunCursor<'a>, &'a str)], a: usize, b: usize| {
        (heads[a].0.key(), a) < (heads[b].0.key(), b)
    };
    let mut heap: Vec<usize> = (0..heads.len()).collect();
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, i, |a, b| less(&heads, a, b));
    }
    let mut key = String::new();
    let mut values: Vec<&'a str> = Vec::new();
    while let Some(&top) = heap.first() {
        let (cursor, value) = &mut heads[top];
        if cursor.key() != key || values.is_empty() {
            if !values.is_empty() {
                group(&key, &values);
                values.clear();
            }
            key.clear();
            key.push_str(cursor.key());
        }
        values.push(*value);
        // A record repeating the key keeps its cursor on top without a
        // sift-down: any other run at this key has a higher index.
        let exhausted = loop {
            match cursor.advance() {
                Some((v, true)) => values.push(v),
                Some((v, false)) => {
                    *value = v;
                    break false;
                }
                None => break true,
            }
        };
        if exhausted {
            let last = heap.pop().expect("heap is non-empty");
            if heap.is_empty() {
                break;
            }
            heap[0] = last;
        }
        sift_down(&mut heap, 0, |a, b| less(&heads, a, b));
    }
    if !values.is_empty() {
        group(&key, &values);
    }
}

/// Restore the min-heap property below `i` under `less`.
fn sift_down(heap: &mut [usize], mut i: usize, less: impl Fn(usize, usize) -> bool) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut min = i;
        if l < heap.len() && less(heap[l], heap[min]) {
            min = l;
        }
        if r < heap.len() && less(heap[r], heap[min]) {
            min = r;
        }
        if min == i {
            return;
        }
        heap.swap(i, min);
        i = min;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_of(run: &RecordRun) -> Vec<u8> {
        let mut body = Vec::new();
        run.encode(&mut Writer::new(&mut body));
        body
    }

    fn pairs(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn builder_front_codes_and_cursor_reads_back() {
        let recs = pairs(&[("", "e"), ("a", ""), ("ab", "1"), ("ab", "2"), ("b", "x"), ("é", "1"), ("ê", "2")]);
        let run = RecordRun::from_pairs(&recs);
        assert_eq!(run.len(), recs.len());
        assert_eq!(run.to_pairs(), recs);
        // "ab" after "a" shares one byte; the repeat shares both.
        let back = RecordRun::from_body(body_of(&run), 0).expect("valid run");
        assert_eq!(back, run);
        assert_eq!(back.to_pairs(), recs);
    }

    #[test]
    fn from_body_keeps_a_header_prefix_without_copying() {
        let run = RecordRun::from_pairs(&pairs(&[("k", "v"), ("kk", "w")]));
        let mut body = vec![9u8; 20];
        run.encode(&mut Writer::new(&mut body));
        let back = RecordRun::from_body(body, 20).unwrap();
        assert_eq!(back, run);
        assert_eq!(back.buf.len(), 20 + 1 + run.as_bytes().len(), "body reused as storage");
    }

    #[test]
    fn validation_rejects_each_malformation() {
        // Unsorted keys: "b" then "a".
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(2);
        for k in ["b", "a"] {
            w.varint(0);
            w.vbytes(k.as_bytes());
            w.vbytes(b"v");
        }
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::Unsorted));
        // Shared prefix longer than the previous key.
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(2);
        w.varint(0);
        w.vbytes(b"a");
        w.vbytes(b"");
        w.varint(2);
        w.vbytes(b"b");
        w.vbytes(b"");
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::FieldOverrun));
        // A reconstructed key that is not UTF-8: "é" (c3 a9) then a key
        // sharing only its first byte with a bad continuation.
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(2);
        w.varint(0);
        w.vbytes("é".as_bytes());
        w.vbytes(b"");
        w.varint(1);
        w.vbytes(&[0xff]);
        w.vbytes(b"");
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::BadUtf8));
        // A value that is not UTF-8.
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        w.varint(1);
        w.varint(0);
        w.vbytes(b"k");
        w.vbytes(&[0xc3]);
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::BadUtf8));
        // Count larger than the records present, and trailing bytes.
        let run = RecordRun::from_pairs(&pairs(&[("k", "v")]));
        let mut body = body_of(&run);
        body[0] = 2;
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::FieldOverrun));
        let mut body = body_of(&run);
        body.push(0);
        assert_eq!(RecordRun::from_body(body, 0), Err(CodecError::Trailing(1)));
        assert_eq!(RecordRun::from_body(vec![], 1), Err(CodecError::FieldOverrun));
    }

    #[test]
    fn every_truncation_and_byte_flip_is_typed() {
        let run = RecordRun::from_pairs(&pairs(&[("alpha", "1"), ("alphabet", "22"), ("beta", "é")]));
        let body = body_of(&run);
        for cut in 0..body.len() {
            assert!(RecordRun::from_body(body[..cut].to_vec(), 0).is_err(), "cut at {cut}");
        }
        for i in 0..body.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = body.clone();
                bad[i] ^= flip;
                if let Ok(r) = RecordRun::from_body(bad, 0) {
                    // A lucky flip decodes; its cursor still reads it all.
                    assert_eq!(r.to_pairs().len(), r.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "keys must be pushed in order")]
    fn builder_refuses_a_decreasing_key() {
        let mut b = RunBuilder::default();
        b.push(b"b", b"");
        b.push(b"a", b"");
    }

    #[test]
    fn merge_groups_is_key_ordered_and_stable() {
        let a = RecordRun::from_pairs(&pairs(&[("x", "a1"), ("y", "a2"), ("y", "a3")]));
        let b = RecordRun::from_pairs(&pairs(&[("w", "b1"), ("y", "b2")]));
        let c = RecordRun::new();
        let d = RecordRun::from_pairs(&pairs(&[("x", "d1"), ("z", "d2")]));
        let mut got = Vec::new();
        merge_groups([&a, &b, &c, &d], |k, vs| got.push((k.to_string(), vs.join(","))));
        assert_eq!(
            got,
            pairs(&[("w", "b1"), ("x", "a1,d1"), ("y", "a2,a3,b2"), ("z", "d2")])
        );
        let mut none = 0;
        merge_groups([&c], |_, _| none += 1);
        assert_eq!(none, 0);
    }
}
